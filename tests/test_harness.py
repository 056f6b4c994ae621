import concurrent.futures
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ofal.harness as harness
from ofal.core import (
    ValidationError,
    compute_rate,
    parse_instance,
    parse_sequence,
)
from ofal.harness import (
    ExperimentConfig,
    format_reproduce,
    reproduce,
    run_experiment,
)
from ofal.offline import noncrossing_dp_cost


BASE_CONFIG = dict(
    algorithms=("ptcp", "greedy", "permutation"),
    instance_source={"kind": "random", "k_max": 4, "cap_max": 2},
    sequence_source={"kind": "random", "n_max": 6, "distribution": "uniform"},
    trials=6,
    seed=99,
)


class TestConfig:
    def test_roundtrip(self):
        config = ExperimentConfig(**BASE_CONFIG)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_unknown_algorithm_rejected(self):
        bad = dict(BASE_CONFIG, algorithms=("quantum",))
        with pytest.raises(ValidationError):
            ExperimentConfig(**bad)


class TestRunExperiment:
    def test_byte_identical_reruns(self):
        config = ExperimentConfig(**BASE_CONFIG)
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.csv_text == second.csv_text
        assert first.summary == second.summary

    def test_jobs_do_not_change_output(self):
        serial = run_experiment(ExperimentConfig(**BASE_CONFIG))
        parallel = run_experiment(ExperimentConfig(**dict(BASE_CONFIG, jobs=2)))
        assert serial.csv_text == parallel.csv_text

    def test_worker_pool_is_bounded(self, monkeypatch):
        # A stand-in executor records max_workers and runs the trials
        # in-process, so no worker process is started.
        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        serial = run_experiment(ExperimentConfig(**BASE_CONFIG))
        wide = run_experiment(ExperimentConfig(**dict(BASE_CONFIG, jobs=1000)))
        assert made == [4]
        assert wide.summary["config"]["jobs"] == 1000
        assert wide.csv_text == serial.csv_text
        run_experiment(ExperimentConfig(**dict(BASE_CONFIG, jobs=1000, trials=3)))
        run_experiment(ExperimentConfig(**dict(BASE_CONFIG, jobs=3)))
        assert made == [4, 3, 3]
        # One trial, or one core, runs in-process.
        run_experiment(ExperimentConfig(**dict(BASE_CONFIG, jobs=1000, trials=1)))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        run_experiment(ExperimentConfig(**dict(BASE_CONFIG, jobs=1000)))
        assert made == [4, 3, 3]

    def test_cli_import_loads_no_process_pool(self):
        # The pool is imported only when run_experiment starts one, so no
        # command and no serial run pays for loading multiprocessing.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        code = (
            "import sys, ofal.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_one_config_dict_per_run(self, monkeypatch):
        calls = []
        real = ExperimentConfig.to_dict

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(ExperimentConfig, "to_dict", counting)
        config = ExperimentConfig(**BASE_CONFIG)
        result = run_experiment(config)
        assert len(calls) == 1 and config.trials > 1
        assert result.summary["config"] == real(config)

    def test_rates_recomputable_from_reproducers(self):
        result = run_experiment(ExperimentConfig(**BASE_CONFIG))
        for run in result.summary["runs"]:
            inst = parse_instance(run["instance"])
            seq = parse_sequence(run["sequence"])
            assignment = run["assignment"]
            alg_cost = sum(
                (abs(r - inst.layout[j]) for r, j in zip(seq, assignment)),
                Fraction(0),
            )
            opt = noncrossing_dp_cost(inst, seq)
            assert str(run["rate"]) == _fraction_repr(compute_rate(alg_cost, opt))

    def test_outputs_written(self, tmp_path):
        config = ExperimentConfig(
            **dict(
                BASE_CONFIG,
                trials=2,
                out_csv=str(tmp_path / "rows.csv"),
                out_json=str(tmp_path / "summary.json"),
            )
        )
        result = run_experiment(config)
        assert (tmp_path / "rows.csv").read_text() == result.csv_text
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["max_rate"] == result.summary["max_rate"]

    def test_a_failed_write_is_a_validation_error(self, tmp_path):
        # The directory goes away after the config was checked.
        out = tmp_path / "gone"
        out.mkdir()
        config = ExperimentConfig(**dict(BASE_CONFIG, trials=1, out_csv=str(out / "rows.csv")))
        out.rmdir()
        with pytest.raises(ValidationError, match="cannot write"):
            run_experiment(config)

    def test_greedy_above_bound_is_reported_not_fatal(self):
        config = ExperimentConfig(
            algorithms=("ptcp", "greedy"),
            instance_source={"kind": "adversary", "family": "greedy", "k": 4, "epsilon": "1/10"},
            sequence_source={"kind": "adversary"},
            trials=1,
            seed=0,
        )
        result = run_experiment(config)
        verdicts = {row["algorithm"]: row["verdict"] for row in result.rows}
        assert verdicts["greedy"] == "above-bound"
        assert verdicts["ptcp"] == "within-bound"
        assert result.ok  # greedy carries no guarantee

    def test_violation_wiring(self, monkeypatch):
        # The guarantee holds for the real rule, so exercise the violation
        # path by pretending greedy is also covered by it.
        monkeypatch.setattr(harness, "BOUNDED_ALGORITHMS", ("ptcp", "greedy"))
        config = ExperimentConfig(
            algorithms=("greedy",),
            instance_source={"kind": "adversary", "family": "greedy", "k": 4, "epsilon": "1/10"},
            sequence_source={"kind": "adversary"},
            trials=1,
            seed=0,
        )
        result = run_experiment(config)
        assert not result.ok
        violation = result.summary["violations"][0]
        assert violation["algorithm"] == "greedy"
        assert "instance" in violation and "sequence" in violation

    def test_adversary_sequences_need_adversary_instances(self):
        # The constructor refuses the pair, so a config built in code never
        # reaches a trial, and one with no trials is refused too.
        for trials in (1, 0):
            with pytest.raises(ValidationError, match="adversary sequences require an adversary instance"):
                ExperimentConfig(
                    algorithms=("ptcp",),
                    instance_source={"kind": "random", "k_max": 3},
                    sequence_source={"kind": "adversary"},
                    trials=trials,
                    seed=0,
                )


def _fraction_repr(value) -> str:
    from ofal.core import fraction_str

    return fraction_str(value)


class TestReproduce:
    def test_exponential_table(self):
        result = reproduce("thm46", k=6)
        by_alg = {row["algorithm"]: row for row in result["rows"]}
        assert by_alg["greedy"]["ok"] and by_alg["ptcp"]["ok"]
        assert Fraction(by_alg["greedy"]["rate"]) >= Fraction(63) - Fraction(1, 10)
        assert Fraction(by_alg["ptcp"]["rate"]) <= 5

    def test_geometric_table(self):
        result = reproduce("thm47", k=3, epsilon=Fraction(1, 10))
        by_alg = {row["algorithm"]: row for row in result["rows"]}
        assert Fraction(by_alg["permutation"]["rate"]) >= Fraction(109, 10)
        assert Fraction(by_alg["ptcp"]["rate"]) <= Fraction(31, 10)
        assert all(row["ok"] for row in result["rows"])

    def test_tightness_table(self):
        result = reproduce("tightness-k2")
        (row,) = result["rows"]
        rate = Fraction(row["rate"])
        assert Fraction(299, 100) <= rate <= 3
        assert row["ok"]

    def test_unknown_table(self):
        with pytest.raises(ValidationError):
            reproduce("thm99")

    def test_formatting(self):
        text = format_reproduce(reproduce("thm46", k=3))
        assert "greedy" in text and "[ok]" in text


class TestCsv:
    def test_exact_and_decimal_rates(self):
        config = ExperimentConfig(**dict(BASE_CONFIG, trials=1))
        result = run_experiment(config)
        header = result.csv_text.splitlines()[0].split(",")
        assert "rate" in header and "rate_decimal" in header
        assert header.index("rate_decimal") == header.index("rate") + 1
