import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ofal import adversary
from ofal.algorithms import RULE_BUILDERS
from ofal.cli import EXIT_ERROR, EXIT_OK, EXIT_VIOLATION, main
from ofal.core import load_instance, load_sequence
from ofal.engine import PriorityRule


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"servers": [0, 2, 4, 8], "capacities": [1, 1, 1, 1]}))
    return str(path)


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"requests": ["101/100", "201/100", "401/100", "801/100"]}))
    return str(path)


@pytest.fixture
def wide_denominator_files(tmp_path):
    """20 servers at j + 1/p_j^e with p_j^e of about 480 digits: each number
    fits the digit cap, but their common denominator has ~9600 digits."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
    servers = []
    for j, p in enumerate(primes):
        q = p
        while q < 10**479:
            q *= p
        servers.append(f"{j * q + 1}/{q}")
    inst, seq = tmp_path / "wide.json", tmp_path / "wide_seq.json"
    inst.write_text(json.dumps({"servers": servers}))
    seq.write_text(json.dumps({"requests": list(range(20))}))
    return str(inst), str(seq)


@pytest.fixture
def deep_tree_files(tmp_path):
    """1500 evenly spaced servers: every block splits after its leftmost
    server, so the split tree is 1499 levels deep.  Twenty requests sit on
    every 75th server."""
    inst, seq = tmp_path / "deep.json", tmp_path / "deep_seq.json"
    inst.write_text(json.dumps({"servers": list(range(1500))}))
    seq.write_text(json.dumps({"requests": list(range(0, 1500, 75))}))
    return str(inst), str(seq)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspection:
    def test_alpha(self, capsys, inst_file):
        code, out, _ = run_cli(capsys, "alpha", inst_file)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["alpha"] == "2" and data["bound"] == "5"

    def test_alpha_csv_format(self, capsys, inst_file):
        code, out, _ = run_cli(capsys, "--format", "csv", "alpha", inst_file)
        assert code == EXIT_OK
        assert "alpha,2" in out
        assert "witness,0 1 2\n" in out

    def test_tree(self, capsys, inst_file):
        code, out, _ = run_cli(capsys, "tree", inst_file)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["critical"] == "16/3"

    def test_tree_too_deep_for_json_is_one_error_line(self, capsys, deep_tree_files):
        code, out, err = run_cli(capsys, "tree", deep_tree_files[0])
        if code == EXIT_OK:
            assert json.loads(out)["split_after"] == 0 and err == ""
        else:
            assert code == EXIT_ERROR
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "alpha", str(tmp_path / "none.json"))
        assert code == EXIT_ERROR
        assert "error" in err

    def test_oversize_integer_literal(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"servers": [0, ' + "9" * 5000 + "]}")
        code, _, err = run_cli(capsys, "alpha", str(path))
        assert code == EXIT_ERROR
        assert err.startswith("error:") and err.count("\n") == 1

    def test_oversize_exponent(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"servers": [0, 1e200000]}')
        code, _, err = run_cli(capsys, "tree", str(path))
        assert code == EXIT_ERROR
        assert err.startswith("error:") and err.count("\n") == 1

    def test_exponent_written_back_oversize(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"servers": [0, 1e-999]}')
        code, out, err = run_cli(capsys, "alpha", str(path))
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_common_denominator_limit(self, capsys, wide_denominator_files):
        inst, seq = wide_denominator_files
        for argv in (("opt",), ("simulate", "--alg", "ptcp"), ("simulate", "--alg", "permutation")):
            code, out, err = run_cli(capsys, *argv, inst, seq)
            assert code == EXIT_ERROR, argv
            assert out == "" and err.startswith("error:") and err.count("\n") == 1


class TestSimulation:
    def test_simulate_greedy(self, capsys, inst_file, seq_file):
        code, out, _ = run_cli(capsys, "simulate", "--alg", "greedy", inst_file, seq_file)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["assignment"] == [1, 2, 3, 0]
        assert data["total_cost"] == "749/50"

    def test_simulate_ptcp_on_a_deep_split_tree(self, capsys, deep_tree_files):
        code, out, err = run_cli(capsys, "simulate", "--alg", "ptcp", *deep_tree_files)
        assert code == EXIT_OK and err == ""
        data = json.loads(out)
        assert data["assignment"] == list(range(0, 1500, 75))
        assert data["total_cost"] == "0"

    def test_simulate_permutation(self, capsys, inst_file, seq_file):
        code, out, _ = run_cli(capsys, "simulate", "--alg", "permutation", inst_file, seq_file)
        assert code == EXIT_OK
        json.loads(out)

    def test_opt(self, capsys, inst_file, seq_file):
        code, out, _ = run_cli(capsys, "opt", inst_file, seq_file)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["cost"] == "26/25"
        assert data["assignment"] == [0, 1, 2, 3]


class TestGenerators:
    def test_adversary_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "adversary", "greedy", "--k", "3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["instance"]["servers"] == [0, 2, 4]

    def test_adversary_to_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "adv")
        code, out, _ = run_cli(capsys, "adversary", "permutation", "--k", "2", "--out-prefix", prefix)
        assert code == EXIT_OK
        paths = json.loads(out)
        inst = json.loads(open(paths["instance"]).read())
        seq = json.loads(open(paths["sequence"]).read())
        assert len(inst["servers"]) == 4
        assert len(seq["requests"]) == 4

    def test_adversary_into_a_missing_directory_is_one_error_line(self, capsys, tmp_path):
        prefix = str(tmp_path / "missing" / "adv")
        code, out, err = run_cli(capsys, "adversary", "greedy", "--k", "3", "--out-prefix", prefix)
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "lies in a missing directory" in err
        assert not (tmp_path / "missing").exists()

    def test_adversary_with_an_overlong_file_name_is_one_error_line(self, capsys, tmp_path):
        # The system refuses a 300-character name (ENAMETOOLONG) already
        # when the path is checked.
        prefix = str(tmp_path / ("a" * 300))
        code, out, err = run_cli(capsys, "adversary", "greedy", "--k", "2", "--out-prefix", prefix)
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error: --out-prefix file ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_permutation_adversary_input_limits(self, capsys, tmp_path):
        # At epsilon = 1/10, k = 108 is the largest whose files load back.
        prefix = str(tmp_path / "adv")
        code, out, _ = run_cli(capsys, "adversary", "permutation", "--k", "108", "--out-prefix", prefix)
        assert code == EXIT_OK
        paths = json.loads(out)
        assert load_instance(paths["instance"]).k == 216
        assert len(load_sequence(paths["sequence"])) == 216
        for k in ("109", "1000"):
            code, out, err = run_cli(capsys, "adversary", "permutation", "--k", k, "--out-prefix", prefix)
            assert code == EXIT_ERROR, k
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    # Only values the guard refuses before any list is built: 10^30
    # requests, and one pair past ADVERSARY_MAX_REQUESTS.
    @pytest.mark.parametrize("family", ["greedy", "permutation"])
    @pytest.mark.parametrize("capacity", [str(10**30), "500001"])
    def test_oversize_adversary_is_one_error_line(self, capsys, family, capacity):
        code, out, err = run_cli(capsys, "adversary", family, "--k", "2", "--capacity", capacity)
        assert code == EXIT_ERROR
        assert out == "" and err.startswith(f"error: {family} adversary guard:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "k, read_line, unbuffered",
        [("3", True, "1"), ("3", False, ""), ("80", True, ""), ("80", True, "1")],
        ids=["k3-read-unbuffered", "k3-closed-buffered", "k80-read-buffered", "k80-read-unbuffered"],
    )
    def test_closed_stdout_exits_quietly(self, k, read_line, unbuffered):
        # ``| head`` closes the pipe once it has its lines.  At k=80 the
        # output (166 KB) outgrows the pipe, so the command is still writing
        # when the pipe closes.  A pipe closed before anything is read fails
        # a buffered stdout at its flush, and the interpreter's own flush at
        # exit must not fail again.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "ofal.cli", "adversary", "permutation", "--k", k],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        if read_line:
            assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert "Traceback" not in err
        assert err == ""
        # k=3 may be written in full before the pipe closes.
        assert code == EXIT_ERROR or (k == "3" and read_line and code == EXIT_OK)


class TestVerify:
    def test_csv_refused(self, capsys, inst_file, seq_file):
        for argv in (
            ("verify", "ratio"),
            ("tree", inst_file),
            ("simulate", "--alg", "ptcp", inst_file, seq_file),
            ("opt", inst_file, seq_file),
            ("adversary", "greedy", "--k", "3"),
        ):
            code, out, err = run_cli(capsys, "--format", "csv", *argv)
            assert code == EXIT_ERROR, argv
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_random_layout_size_limit(self, capsys):
        # The random layout draws k of 16*8+1 grid points.
        for k in ("200", "-1"):
            code, out, err = run_cli(capsys, "verify", "ratio", "--k", k)
            assert code == EXIT_ERROR, k
            assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_negative_search_depth(self, capsys):
        # Unchecked, the DFS runs until the DP runs out of capacity and the
        # error names the DP instead of the depth.
        code, out, err = run_cli(capsys, "verify", "capacity", "--n-max", "-1")
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "negative" in err

    def test_grid_search_size_limit(self, capsys):
        # 16 candidate points to depth 9 is about 7e10 nodes: refused, not run.
        code, out, err = run_cli(capsys, "verify", "capacity", "--k", "3", "--n-max", "9")
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "grid search guard" in err

    def test_grid_fill_size_limit(self, capsys, tmp_path):
        # 450 random integer servers give 3598 candidate points on a scale
        # of 585 digits: a memo fill of about half a gigabyte, refused
        # before it starts.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"servers": sorted(random.Random(450).sample(range(10**6), 450))}))
        code, out, err = run_cli(capsys, "verify", "capacity", "--instance", str(path), "--n-max", "1")
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "grid search guard: 3598 points x 450 slots x 585 scale digits" in err

    def test_grid_search_depth_limit(self, capsys, tmp_path):
        # One server has one candidate point, so the node guard allows any
        # depth; the memo fill and the walk recurse once per level.
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"servers": [0]}))
        code, out, err = run_cli(
            capsys, "verify", "capacity", "--instance", str(path), "--n-max", "5000", "--capacity", "10000"
        )
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "grid search guard: depth 5000" in err

    def test_capacity_probe_slots_are_bounded_by_the_depth(self, capsys):
        # No sequence of --n-max requests uses more than --n-max units of
        # one server.  A slot table sized by capacity would hold 4 * 10^11
        # entries here.
        details = {}
        for capacity in ("4", "100000000000"):
            code, out, _ = run_cli(capsys, "verify", "capacity", "--n-max", "4", "--capacity", capacity)
            assert code == EXIT_OK
            details[capacity] = json.loads(out)["details"]
        for key in ("heavy_worst_rate", "heavy_worst_sequence"):
            assert details["100000000000"][key] == details["4"][key]

    @pytest.mark.parametrize("check,trials", [("ratio", "-1"), ("faithful", "-5")])
    def test_negative_trials(self, capsys, check, trials):
        # Unchecked, the sweep runs no trial and exits 0.
        code, out, err = run_cli(capsys, "verify", check, "--trials", trials)
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "--trials" in err

    def test_ratio_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ratio", "--alg", "ptcp", "--k", "3", "--trials", "30")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["verdict"] == "within-bound"

    def test_ratio_without_trials(self, capsys):
        code, out, err = run_cli(capsys, "verify", "ratio", "--trials", "0")
        assert code == EXIT_OK and err == ""
        assert json.loads(out) == {"trials": 0}

    @pytest.mark.parametrize("check", ["ratio", "surrounding"])
    def test_rule_built_once_per_command(self, capsys, monkeypatch, check):
        # Every trial runs the one rule; a build per trial would count 3.
        layouts = []
        build = RULE_BUILDERS["ptcp"]

        def counting(layout):
            layouts.append(layout)
            return build(layout)

        monkeypatch.setitem(RULE_BUILDERS, "ptcp", counting)
        code, _, _ = run_cli(capsys, "verify", check, "--alg", "ptcp", "--k", "3", "--trials", "3")
        assert code == EXIT_OK
        assert len(layouts) == 1

    @pytest.mark.parametrize("alg,code", [("ptcp", EXIT_VIOLATION), ("greedy", EXIT_OK)])
    def test_ratio_exit_code_follows_the_bounded_rules(self, capsys, monkeypatch, alg, code):
        # A rule that always takes the rightmost free server breaks the
        # bound; only a rule that carries the bound makes that exit 1.
        rightmost = PriorityRule("rightmost", lambda r, free: free[-1])
        monkeypatch.setitem(RULE_BUILDERS, alg, lambda layout: rightmost)
        got, out, _ = run_cli(capsys, "verify", "ratio", "--alg", alg, "--k", "3", "--trials", "20")
        assert got == code
        assert json.loads(out)["verdict"] == "VIOLATION"

    def test_hybrid_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hybrid", "--alg", "ptcp", "--k", "3", "--trials", "40")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["invariants"]["verdict"] == "ok"
        assert data["threshold"]["verdict"] == "ok"

    def test_capacity_probe(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"servers": [0, 1], "capacities": [1, 1]}))
        code, out, _ = run_cli(
            capsys, "verify", "capacity", "--alg", "greedy", "--instance", str(path), "--capacity", "2"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["details"]["unit_worst_rate"] == "3"

    @pytest.mark.parametrize("check", ["surrounding", "faithful", "ratio", "adx", "capacity", "hybrid"])
    def test_capacitated_instance_refused(self, capsys, tmp_path, check):
        # Every check runs on unit capacities.  Reading only the layout would
        # check these servers at capacity 1 and exit 0.
        path = tmp_path / "caps.json"
        path.write_text(json.dumps({"servers": [0, 1, 3], "capacities": [1, 2, 1]}))
        code, out, err = run_cli(capsys, "verify", check, "--instance", str(path), "--trials", "3")
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "server 1" in err and "capacity 2" in err

    @pytest.mark.parametrize(
        "check,expected",
        [
            ("faithful", {"property": "faithful", "trials": 3, "violations": [], "details": {}, "verdict": "ok"}),
            # Three sequences of three requests, one trial per request.
            ("surrounding", {"property": "surrounding-oriented", "trials": 9, "violations": 0}),
        ],
    )
    def test_unit_capacity_instance(self, capsys, tmp_path, check, expected):
        # Listing all-ones capacities checks what the bare layout checks.
        outputs = []
        for name, data in (("ones", {"servers": [0, 1, 3], "capacities": [1, 1, 1]}), ("bare", {"servers": [0, 1, 3]})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            code, out, err = run_cli(capsys, "verify", check, "--instance", str(path), "--trials", "3")
            assert code == EXIT_OK and err == ""
            outputs.append(out)
        assert outputs[0] == outputs[1] == json.dumps(expected, indent=2) + "\n"

    def test_faithful_and_surrounding_and_adx(self, capsys):
        for check in ("faithful", "surrounding"):
            code, out, _ = run_cli(capsys, "verify", check, "--alg", "ptcp", "--k", "3", "--trials", "20")
            assert code == EXIT_OK
        code, out, _ = run_cli(
            capsys, "verify", "adx", "--alg", "ptcp", "--k", "2", "--trials", "30", "--d", "3", "--x", "1"
        )
        assert code == EXIT_OK


class TestBatch:
    def test_run_and_exit_codes(self, capsys, tmp_path):
        config = {
            "algorithms": ["ptcp", "greedy"],
            "instance_source": {"kind": "adversary", "family": "greedy", "k": 3, "epsilon": "1/10"},
            "sequence_source": {"kind": "adversary"},
            "trials": 1,
            "seed": 0,
            "out_csv": str(tmp_path / "rows.csv"),
            "out_json": str(tmp_path / "summary.json"),
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        assert (tmp_path / "rows.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["violations"] == []

        # A misspelled key, a missing required key, a non-object and
        # invalid JSON are input errors.
        missing = {k: v for k, v in config.items() if k != "algorithms"}
        for text in (json.dumps(dict(config, trails=500)), json.dumps(missing), "[1, 2]", "{"):
            cfg.write_text(text)
            code, _, err = run_cli(capsys, "run", str(cfg))
            assert code == EXIT_ERROR
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["out_csv", "out_json"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_run_refuses_an_unwritable_output_path(self, capsys, tmp_path, key, where):
        # Refused when the config is read, before the first trial runs.
        path = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "algorithms": ["ptcp"],
            "instance_source": {"kind": "adversary", "family": "greedy", "k": 3},
            "sequence_source": {"kind": "adversary"},
            key: str(path),
        }))
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_ERROR
        assert out == "" and err.startswith(f"error: config {key} {path} ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["out_csv", "out_json"])
    def test_run_refuses_an_overlong_output_file_name(self, capsys, tmp_path, key):
        # Refused when the config is read, before the first trial runs.
        path = tmp_path / ("a" * 300)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "algorithms": ["ptcp"],
            "instance_source": {"kind": "adversary", "family": "greedy", "k": 3},
            "sequence_source": {"kind": "adversary"},
            key: str(path),
        }))
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_ERROR
        assert out == "" and err.startswith(f"error: config {key} {path}: ") and err.count("\n") == 1

    def test_run_rate_beyond_float_range(self, capsys, tmp_path):
        # Servers at 0 and 2^1..2^1039, requests at 2^t + 1/10 for t = 0..1039
        # in order: greedy takes 2^(t+1) each time and finally 0, so its rate
        # is about 1.1e+311, past the largest float.
        inst, seq, cfg = tmp_path / "inst.json", tmp_path / "seq.json", tmp_path / "config.json"
        inst.write_text(json.dumps({"servers": [0] + [str(2**t) for t in range(1, 1040)], "capacities": [1] * 1040}))
        seq.write_text(json.dumps({"requests": [f"{10 * 2**t + 1}/10" for t in range(1040)]}))
        cfg.write_text(json.dumps({
            "algorithms": ["greedy"],
            "instance_source": {"kind": "file", "path": str(inst)},
            "sequence_source": {"kind": "file", "path": str(seq)},
        }))
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_OK
        header, row = out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["opt_cost"] == "105" and fields["verdict"] == "above-bound"
        assert fields["rate_decimal"] == "1.12203445035e+311"

    RUN_CONFIG = {
        "algorithms": ["ptcp"],
        "instance_source": {"kind": "random", "k_max": 3},
        "sequence_source": {"kind": "random", "n_max": 3},
        "trials": 2,
    }

    @pytest.mark.parametrize(
        "change",
        [
            {"trials": "2"},
            {"jobs": "2"},
            {"instance_source": "random"},
            {"instance_source": {"kind": "random", "k_max": 0}},
            {"sequence_source": {"kind": "random", "n_max": "many"}},
            {"instance_source": {"kind": "file"}},
            {
                "instance_source": {"kind": "adversary", "family": "greedy", "k": "x"},
                "sequence_source": {"kind": "adversary"},
            },
        ],
        ids=[
            "trials-string",
            "jobs-string",
            "source-string",
            "k_max-0",
            "n_max-string",
            "file-no-path",
            "adversary-k-string",
        ],
    )
    def test_bad_config_values_are_input_errors(self, capsys, tmp_path, change):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(self.RUN_CONFIG, **change)))
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    # Each source is checked when the config is built, so ``trials: 0``
    # still refuses it.
    @pytest.mark.parametrize(
        "change",
        [
            {"instance_source": {"kind": "random", "k_mx": 3}},
            {"sequence_source": {"kind": "random", "n_max": 3, "bias": "left"}},
            {"instance_source": {"kind": "bogus"}},
            {"instance_source": {"kind": "adversary", "family": "zigzag", "k": 3}},
            {"sequence_source": {"kind": "random", "distribution": "gaussian"}},
            {"sequence_source": {"kind": "adversary"}},
            {"instance_source": {"kind": "adversary", "family": "greedy", "k": 2, "capacity": 10**30}},
            {"instance_source": {"kind": "adversary", "family": "permutation", "k": 2, "capacity": 10**30}},
        ],
        ids=[
            "unknown-instance-key",
            "unknown-sequence-key",
            "unknown-kind",
            "unknown-family",
            "unknown-distribution",
            "adversary-sequence-random-instance",
            "oversize-greedy-adversary",
            "oversize-permutation-adversary",
        ],
    )
    def test_config_sources_are_checked_when_built(self, capsys, tmp_path, change):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(self.RUN_CONFIG, trials=0, **change)))
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("epsilon", ["abc", "1" * 1001], ids=["letters", "past-digit-limit"])
    def test_reproduce_bad_epsilon(self, capsys, epsilon):
        code, out, err = run_cli(capsys, "reproduce", "thm46", "--epsilon", epsilon)
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", [("--k", "5"), ("--epsilon", "1/10")], ids=["k", "epsilon"])
    def test_reproduce_tightness_refuses_k_and_epsilon(self, capsys, flag):
        # tightness-k2 runs on the fixed layout (0, 1); a flag it cannot
        # honour is refused rather than ignored.
        code, out, err = run_cli(capsys, "reproduce", "tightness-k2", *flag)
        assert code == EXIT_ERROR
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("k", ["109", "1000", "2000"])
    def test_reproduce_thm47_refuses_a_k_too_large_for_the_files(self, capsys, monkeypatch, k):
        # From k = 1000 at epsilon = 1/10 the leftmost server alone needs
        # more digits than a file may hold, so the refusal comes before the
        # layout is built; at k = 109 only the requests are too long.
        if k != "109":

            def unbuilt(*args):
                raise AssertionError("the layout was built")

            monkeypatch.setattr(adversary, "permutation_geometric_layout", unbuilt)
        code, out, err = run_cli(capsys, "reproduce", "thm47", "--k", k)
        assert code == EXIT_ERROR and out == ""
        assert err == f"error: permutation adversary k={k} exceeds the input limits: number with more than 1000 digits\n"

    def test_reproduce_text(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "reproduce", "thm46", "--k", "3")
        assert code == EXIT_OK
        assert "[ok]" in out

    def test_reproduce_json(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "tightness-k2")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["rows"][0]["ok"]
