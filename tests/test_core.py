import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ofal.core import (
    Instance,
    MAX_NUMBER_DIGITS,
    ParseError,
    RequestSequence,
    ServerLayout,
    ValidationError,
    check_file_coords,
    compute_rate,
    fraction_decimal,
    INF,
    instance_to_dict,
    load_instance,
    load_sequence,
    parse_instance,
    parse_sequence,
    save_instance,
    save_sequence,
    scale_to_ints,
    scaled_pair,
    sequence_to_dict,
    to_coord,
    unit_instance,
)
from ofal.adversary import AdversaryParams, greedy_adversary
from ofal.algorithms import greedy_rule
from ofal.engine import simulate

from conftest import check_trace, layout_of, seq_of


class TestCoordinates:
    def test_forms(self):
        assert to_coord(3) == 3
        assert to_coord("1/3") == Fraction(1, 3)
        assert to_coord("0.25") == Fraction(1, 4)
        assert to_coord(0.1) == Fraction(1, 10)  # via decimal repr, not binary
        assert to_coord(Fraction(7, 2)) == Fraction(7, 2)

    def test_rejects_junk(self):
        with pytest.raises(ParseError):
            to_coord("1/0")
        with pytest.raises(ParseError):
            to_coord("banana")
        with pytest.raises(ParseError):
            to_coord(float("nan"))
        with pytest.raises(ParseError):
            to_coord(True)

    def test_digit_limit(self):
        assert to_coord("1e-999") == Fraction(1, 10**999)
        for text in ("1e-1000", "1e200000", "9" * 1001, "1e" + "9" * 5000):
            with pytest.raises(ParseError):
                to_coord(text)

    def test_common_denominator_limit(self):
        # Each number has ~600 digits; the lcm of two of them has ~1200.
        a, b = f"1/{2**1994}", f"1/{3**1258}"
        assert len(parse_sequence({"requests": [a, a, a]})) == 3
        with pytest.raises(ParseError):
            parse_sequence({"requests": [0, a, b]})
        with pytest.raises(ParseError):
            parse_instance({"servers": [a, b]})

    def test_exactness(self):
        # Distinct rationals never compare equal.
        assert to_coord("1/3") != to_coord("0.333333333333")

    def test_file_coords_check_matches_the_parser(self):
        check_file_coords([Fraction(1, 10**998), Fraction(-3, 7), Fraction(5)])
        # "1e-999" parses, but its written form "1/1000...0" has 1001 digits.
        with pytest.raises(ParseError):
            parse_sequence({"requests": [f"1/{10**999}"]})
        # The last one is too long for str(); the check must not print it.
        for c in (Fraction(1, 10**999), Fraction(10**MAX_NUMBER_DIGITS), Fraction(1, 10**5000)):
            with pytest.raises(ParseError):
                check_file_coords([c])
        a, b = Fraction(1, 2**1994), Fraction(1, 3**1258)
        check_file_coords([a, a])
        with pytest.raises(ParseError):
            check_file_coords([a, b])

    def test_loaded_file_writes_back(self, tmp_path):
        # The literal 1e-999 counts 1 + 999 digits, but it is written back
        # as "1/1000...0" with 1001, so the file itself is refused.
        path = tmp_path / "inst.json"
        path.write_text('{"servers": [0, 1e-999]}')
        with pytest.raises(ParseError):
            load_instance(path)
        path.write_text('{"servers": [0, 1e-998]}')
        inst = load_instance(path)
        assert parse_instance(instance_to_dict(inst)) == inst


#: Mixed-denominator, negative and integer rationals.
rationals = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**4),
)


class TestScaling:
    @given(st.lists(rationals, max_size=8), st.lists(rationals, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_scale_to_ints_matches_the_iterative_lcm(self, servers, points):
        # The formula scale_to_ints replaced: a running lcm, then int(v * scale).
        scale = 1
        for v in servers + points:
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
        servers_int, points_int, got = scale_to_ints(servers, points)
        assert got == scale
        assert servers_int == [int(v * scale) for v in servers]
        assert points_int == [int(v * scale) for v in points]
        for x, v in zip(servers_int + points_int, servers + points):
            assert Fraction(x, scale) == v

    def test_scaled_pair_checks_the_pair(self):
        inst = Instance(layout_of("-1/2", 3), (1, 1))
        seq = seq_of("1/3", 2, 0)
        with pytest.raises(ValidationError) as excinfo:
            scaled_pair(inst, seq)
        assert str(excinfo.value) == "3 requests exceed total capacity 2"
        assert scaled_pair(inst, RequestSequence(seq.requests[:2])) == ([-3, 18], [2, 12], 6)


class TestTypes:
    def test_layout_invariants(self):
        layout_of(0, 2)
        with pytest.raises(ValidationError):
            layout_of(2, 0)
        with pytest.raises(ValidationError):
            layout_of(0, 0)
        with pytest.raises(ValidationError):
            ServerLayout(())

    def test_instance_invariants(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        assert inst.total_capacity == 2
        with pytest.raises(ValidationError):
            Instance(layout_of(0, 2), (1,))
        with pytest.raises(ValidationError):
            Instance(layout_of(0, 2), (1, 0))

    def test_pair_fits_up_to_total_capacity(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        assert scaled_pair(inst, seq_of(1, 1)) == ([0, 2], [1, 1], 1)
        with pytest.raises(ValidationError, match="^3 requests exceed total capacity 2$"):
            scaled_pair(inst, seq_of(1, 1, 1))
        assert scaled_pair(Instance(layout_of(0), (5,)), seq_of(0, 0, 0, 0, 0)) == ([0], [0] * 5, 1)


class TestInstanceIO:
    def test_load_and_roundtrip(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"servers": [0, 2], "capacities": [1, 1]}))
        inst = load_instance(path)
        assert inst.k == 2
        assert inst.layout.positions == (0, 2)
        out = tmp_path / "copy.json"
        save_instance(inst, out)
        assert load_instance(out) == inst

    def test_exponential_layout_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"servers": [0, 2, 4, 8], "capacities": [1, 1, 1, 1]}))
        inst = load_instance(path)
        assert inst.k == 4

    def test_unsorted_rejected(self):
        with pytest.raises(ParseError):
            parse_instance({"servers": [2, 0], "capacities": [1, 1]})
        with pytest.raises(ParseError):
            parse_instance({"servers": [0, 0], "capacities": [1, 1]})

    def test_bad_capacity_rejected(self):
        with pytest.raises(ParseError):
            parse_instance({"servers": [0, 2], "capacities": [1, 0]})
        with pytest.raises(ParseError):
            parse_instance({"servers": [0, 2], "capacities": [1, "x"]})

    def test_rational_coordinate_forms(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"servers": [0, "1/3", 0.5, "0.75"], "capacities": [1,1,1,1]}')
        inst = load_instance(path)
        assert inst.layout.positions == (0, Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
        # JSON float 0.5 parses from its literal text, exactly.
        out = tmp_path / "copy.json"
        save_instance(inst, out)
        assert load_instance(out) == inst

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_instance(tmp_path / "nope.json")

    def test_a_failed_write_is_a_validation_error(self, tmp_path):
        # A regular file cannot hold a directory entry (ENOTDIR).
        (tmp_path / "file").write_text("")
        inst = Instance(layout_of(0, 2), (1, 1))
        with pytest.raises(ValidationError, match="cannot write"):
            save_instance(inst, tmp_path / "file" / "inst.json")
        with pytest.raises(ValidationError, match="cannot write"):
            save_sequence(seq_of(1), tmp_path / "file" / "seq.json")

    def test_sequence_io(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps({"requests": [1, "1/2"]}))
        seq = load_sequence(path)
        assert seq.requests == (1, Fraction(1, 2))
        assert sequence_to_dict(seq) == {"requests": [1, "1/2"]}

    def test_instance_dict_exact(self):
        inst = Instance(layout_of("1/3", 2), (2, 1))
        assert instance_to_dict(inst) == {"servers": ["1/3", 2], "capacities": [2, 1]}


class TestMatchingCost:
    def test_zero_when_on_servers(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        seq = seq_of(0, 2)
        trace = simulate(greedy_rule(inst.layout), inst, seq)
        assert trace.total_cost == 0

    def test_single_distance(self):
        inst = Instance(layout_of(0, 2), (1, 1))
        seq = seq_of(1)
        trace = simulate(greedy_rule(inst.layout), inst, seq)
        assert trace.assignment == (0,)  # tie goes left
        assert trace.total_cost == 1

    def test_exponential_adversary_replay(self):
        # Greedy on the k=4 exponential construction with delta = 1/100.
        # Replaying gives a total of 15 - 2*delta: the first request costs
        # 1 - delta, the next two cost 2 - delta and 4 - delta, and the
        # last one walks back across the whole span for 8 + delta.
        delta = Fraction(1, 100)
        params = AdversaryParams(k=4, delta=delta, capacities=(1, 1, 1, 1))
        inst, seq = greedy_adversary(params)
        trace = simulate(greedy_rule(inst.layout), inst, seq)
        assert trace.total_cost == Fraction(749, 50)  # 14.98
        assert trace.total_cost == 15 - 2 * delta
        # The construction's guaranteed lower bound 2^k - 1 - k*delta holds.
        assert trace.total_cost >= 15 - 4 * delta


class TestTraceValidation:
    def test_valid_trace_passes(self):
        inst = Instance(layout_of(0, 2), (1, 2))
        seq = seq_of(1, 2, 2)
        trace = simulate(greedy_rule(inst.layout), inst, seq)
        check_trace(trace, inst, seq)
        with pytest.raises(IndexError):
            trace.free_after(-1)


class TestRate:
    def test_three_cases(self):
        assert compute_rate(Fraction(3), Fraction(2)) == Fraction(3, 2)
        assert compute_rate(Fraction(1), Fraction(0)) == INF
        assert compute_rate(Fraction(0), Fraction(0)) == 1

    def test_unit_instance(self):
        inst = unit_instance(layout_of(0, 1, 2))
        assert inst.capacities == (1, 1, 1)


class TestDecimal:
    def test_float_range_keeps_the_float_format(self):
        assert fraction_decimal(Fraction(1, 3)) == "0.333333333333"
        assert fraction_decimal(Fraction(17 * 10**307)) == f"{1.7e308:.12g}" == "1.7e+308"
        assert fraction_decimal(Fraction(5)) == "5" and fraction_decimal(INF) == "inf"

    def test_beyond_float_range_is_rounded_exactly(self):
        # 2^1100 = 1.358298529049...e+331, past the largest float.
        value = Fraction(2**1100) + Fraction(1, 10)
        assert fraction_decimal(value) == "1.35829852905e+331"
        # 12 digits end in a zero, which the format drops as float's does.
        assert fraction_decimal(-value / 3) == "-4.5276617635e+330"
        assert fraction_decimal(Fraction(15 * 10**399)) == "1.5e+400"
