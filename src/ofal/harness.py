"""Batch experiment runner: ratio tables, sweeps, reproduction recipes.

A fully-serialized config plus the code version determines every output
byte.  Reports persist complete reproducers (instance, sequence,
assignment) so any anomalous rate can be re-derived offline.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from .alpha import alpha_fast
from .adversary import (
    adversary,
    candidate_points,
    check_adversary_size,
    random_instance,
    random_sequences,
)
from .core import (
    INF,
    Instance,
    ParseError,
    RequestSequence,
    ServerLayout,
    ValidationError,
    check_output_path,
    compute_rate,
    fraction_decimal,
    fraction_str,
    instance_to_dict,
    load_instance,
    load_sequence,
    sequence_to_dict,
    to_coord,
    unit_instance,
    write_output,
)
from .algorithms import RULE_BUILDERS, ptcp_rule
from .engine import simulate
from .offline import noncrossing_dp_cost
from .permutation import permutation_run
from .verify import grid_search_max_rate

#: The rules of ``RULE_BUILDERS``, then the permutation algorithm, which
#: ``permutation_run`` runs on its own.
ALGORITHMS = (*RULE_BUILDERS, "permutation")

#: Algorithms that carry the 2*alpha+1 guarantee; only their above-bound
#: rows count as violations.
BOUNDED_ALGORITHMS = ("ptcp",)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializable and deterministic under a seed."""

    algorithms: tuple[str, ...]
    instance_source: dict
    sequence_source: dict
    trials: int = 1
    seed: int = 0
    out_csv: str | None = None
    out_json: str | None = None
    assert_bounds: bool = True
    jobs: int = 1

    def __post_init__(self) -> None:
        """Check every field's type and range, that each output path can be
        created and that the two sources fit together, once, when the
        config is built."""
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValidationError(f"unknown algorithm {alg!r}")
        _check_int("trials", self.trials, 0)
        _check_int("seed", self.seed, None)
        _check_int("jobs", self.jobs, 1)
        for key in ("out_csv", "out_json"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise ValidationError(f"config {key} must be a path string or null")
            if getattr(self, key):
                check_output_path(getattr(self, key), f"config {key}")
        if not isinstance(self.assert_bounds, bool):
            raise ValidationError("config assert_bounds must be true or false")
        src, seq_src = self.instance_source, self.sequence_source
        for key, source in (("instance_source", src), ("sequence_source", seq_src)):
            if not isinstance(source, dict):
                raise ValidationError(f"config {key} must be an object")
            kinds = _SOURCE_KEYS[key]
            _check_choice(f"{key}.kind", source.get("kind"), kinds)
            unknown = sorted(map(str, source.keys() - kinds[source["kind"]] - {"kind"}))
            if unknown:
                raise ValidationError(f"config {key} of kind {source['kind']} has unknown keys {unknown}")
            if source["kind"] == "file" and not isinstance(source.get("path"), str):
                raise ValidationError(f"config {key} of kind file needs a path string")
        if src["kind"] == "adversary":
            _check_choice("instance_source.family", src.get("family"), ("greedy", "permutation"))
            _check_int("instance_source.k", src.get("k"), 1)
            _check_int("instance_source.capacity", src.get("capacity", 1), 1)
            check_adversary_size(src["family"], src["k"], src.get("capacity", 1))
            to_coord(src.get("epsilon", "1/10"))
        if src["kind"] == "random":
            _check_int("instance_source.k_max", src.get("k_max", 6), 1)
            _check_int("instance_source.cap_max", src.get("cap_max", 1), 1)
        if seq_src["kind"] == "random":
            _check_int("sequence_source.n_max", seq_src.get("n_max", 10), 0)
            distribution = seq_src.get("distribution", "uniform")
            _check_choice("sequence_source.distribution", distribution, ("uniform", "mixture", "opposite"))
        if seq_src["kind"] == "adversary" and src["kind"] != "adversary":
            raise ValidationError("adversary sequences require an adversary instance")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON; unknown or missing keys are input
        errors."""
        try:
            return ExperimentConfig(**data)
        except TypeError as exc:
            raise ParseError(f"bad config: {exc}") from None


#: Per source and kind, the keys a source may give besides ``kind``.
_SOURCE_KEYS = {
    "instance_source": {
        "file": {"path"},
        "random": {"k_max", "cap_max"},
        "adversary": {"family", "k", "epsilon", "capacity"},
    },
    "sequence_source": {"file": {"path"}, "random": {"n_max", "distribution"}, "adversary": set()},
}


def _check_choice(key: str, value, choices) -> None:
    """Refuse a config value that is not one of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ValidationError(f"config {key} must be one of {sorted(choices)}, got {value!r}")


def _check_int(key: str, value, least: int | None) -> None:
    """Refuse a config value that is not an int (bools too) or is below ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        wanted = "an integer" if least is None else f"an integer >= {least}"
        raise ValidationError(f"config {key} must be {wanted}, got {value!r}")


def run_algorithm(name: str, inst: Instance, seq: RequestSequence):
    if name == "permutation":
        return permutation_run(inst, seq)
    return simulate(RULE_BUILDERS[name](inst.layout), inst, seq)


def _materialize_trial(config: ExperimentConfig, trial: int) -> tuple[str, Instance, RequestSequence]:
    """Build the (instance, sequence) pair for one trial, deterministically;
    the config's sources were checked when it was built."""
    src, seq_src = config.instance_source, config.sequence_source
    rng = random.Random(config.seed * 1_000_003 + trial)
    kind = src["kind"]
    if kind == "file":
        inst = load_instance(src["path"])
        label = Path(src["path"]).stem
    elif kind == "adversary":
        family = src["family"]
        k = src["k"]
        epsilon = to_coord(src.get("epsilon", "1/10"))
        inst, adv_seq = adversary(family, k, epsilon, src.get("capacity", 1))
        label = f"{family}-k{k}"
    else:
        k = rng.randint(1, src.get("k_max", 6))
        inst = random_instance(rng, k, cap_max=src.get("cap_max", 1))
        label = f"random-k{k}"

    seq_kind = seq_src["kind"]
    if seq_kind == "file":
        seq = load_sequence(seq_src["path"])
    elif seq_kind == "adversary":
        seq = adv_seq
    else:
        n = rng.randint(0, min(seq_src.get("n_max", 10), inst.total_capacity))
        seq = next(
            random_sequences(
                inst,
                n,
                seed=rng.randint(0, 2**31),
                distribution=seq_src.get("distribution", "uniform"),
                count=1,
            )
        )
    return f"{label}-t{trial:04d}", inst, seq


def _run_trial(payload: tuple[ExperimentConfig, int]) -> list[dict]:
    config, trial = payload
    instance_id, inst, seq = _materialize_trial(config, trial)
    bound = 2 * alpha_fast(inst.layout).alpha + 1
    opt_cost = noncrossing_dp_cost(inst, seq)
    rows = []
    for alg in config.algorithms:
        trace = run_algorithm(alg, inst, seq)
        rate = compute_rate(trace.total_cost, opt_cost)
        within = rate != INF and rate <= bound
        rows.append(
            {
                "trial": trial,
                "instance_id": instance_id,
                "algorithm": alg,
                "n": len(seq),
                "alg_cost": trace.total_cost,
                "opt_cost": opt_cost,
                "rate": rate,
                "bound": bound,
                "verdict": "within-bound" if within else "above-bound",
                "instance": instance_to_dict(inst),
                "sequence": sequence_to_dict(seq),
                "assignment": list(trace.assignment),
            }
        )
    return rows


CSV_COLUMNS = (
    "instance_id",
    "algorithm",
    "n",
    "alg_cost",
    "opt_cost",
    "rate",
    "rate_decimal",
    "bound",
    "bound_decimal",
    "verdict",
)


def rows_to_csv(rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row["instance_id"],
                row["algorithm"],
                row["n"],
                fraction_str(row["alg_cost"]),
                fraction_str(row["opt_cost"]),
                fraction_str(row["rate"]),
                fraction_decimal(row["rate"]),
                fraction_str(row["bound"]),
                fraction_decimal(row["bound"]),
                row["verdict"],
            ]
        )
    return buffer.getvalue()


@dataclass
class ExperimentResult:
    rows: list[dict]
    summary: dict
    csv_text: str

    @property
    def ok(self) -> bool:
        return not self.summary["violations"]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    payloads = [(config, t) for t in range(config.trials)]
    # One worker per trial at most, and no more than the machine's cores:
    # a fork pool may start every worker it is allowed up front.
    workers = min(config.jobs, config.trials, os.cpu_count() or 1)
    if workers > 1:
        # Imported here: multiprocessing is loaded only when a pool starts.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_trial, payloads))
    else:
        chunks = [_run_trial(p) for p in payloads]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["trial"], r["algorithm"]))

    max_rate: dict[str, Fraction | float] = {}
    violations = []
    for row in rows:
        alg, rate = row["algorithm"], row["rate"]
        if alg not in max_rate or rate > max_rate[alg]:
            max_rate[alg] = rate
        if row["verdict"] == "above-bound" and alg in BOUNDED_ALGORITHMS and config.assert_bounds:
            violations.append(
                {
                    "instance_id": row["instance_id"],
                    "algorithm": alg,
                    "rate": fraction_str(rate),
                    "bound": fraction_str(row["bound"]),
                    "instance": row["instance"],
                    "sequence": row["sequence"],
                    "assignment": row["assignment"],
                }
            )
    summary = {
        "config": config.to_dict(),
        "max_rate": {alg: fraction_str(r) for alg, r in max_rate.items()},
        "violations": violations,
        "runs": [
            {
                "instance_id": row["instance_id"],
                "algorithm": row["algorithm"],
                "instance": row["instance"],
                "sequence": row["sequence"],
                "assignment": row["assignment"],
                "rate": fraction_str(row["rate"]),
            }
            for row in rows
        ],
    }
    csv_text = rows_to_csv(rows)
    if config.out_csv:
        write_output(config.out_csv, csv_text)
    if config.out_json:
        write_output(config.out_json, json.dumps(summary, indent=2) + "\n")
    return ExperimentResult(rows=rows, summary=summary, csv_text=csv_text)


# ---------------------------------------------------------------------------
# One-command reproduction recipes
# ---------------------------------------------------------------------------

REPRODUCE_TABLES = ("thm46", "thm47", "tightness-k2")


def reproduce(table: str, k: int | None = None, epsilon: Fraction | None = None) -> dict:
    """Run one of the named headline comparisons and report target checks.

    tightness-k2 runs on the fixed layout (0, 1) and refuses a k or an
    epsilon rather than ignore it.
    """
    if table == "tightness-k2" and (k is not None or epsilon is not None):
        raise ValidationError("reproduce tightness-k2 takes no k or epsilon; its layout is fixed at (0, 1)")
    epsilon = Fraction(1, 10) if epsilon is None else Fraction(epsilon)
    if table in ("thm46", "thm47"):
        if table == "thm46":
            k = 6 if k is None else k
            inst, seq = adversary("greedy", k, epsilon, 1)
            targets = (
                ("greedy", Fraction(2**k - 1) - epsilon, "ge"),
                ("ptcp", Fraction(5), "le"),
            )
        else:
            k = 3 if k is None else k
            inst, seq = adversary("permutation", k, epsilon, 1)
            targets = (
                ("permutation", Fraction(4 * k - 1) - epsilon, "ge"),
                ("ptcp", Fraction(3) + epsilon, "le"),
            )
        opt = noncrossing_dp_cost(inst, seq)
        rows = []
        for alg, target, direction in targets:
            trace = run_algorithm(alg, inst, seq)
            rate = compute_rate(trace.total_cost, opt)
            ok = rate >= target if direction == "ge" else rate <= target
            rows.append(_reproduce_row(alg, rate, target, direction, ok))
        return {"table": table, "k": k, "epsilon": fraction_str(epsilon), "rows": rows}
    if table == "tightness-k2":
        layout = ServerLayout((Fraction(0), Fraction(1)))
        inst = unit_instance(layout)
        result = grid_search_max_rate(ptcp_rule(layout), inst, candidate_points(layout), n_max=2)
        lo, hi = Fraction(3) - Fraction(1, 100), Fraction(3)
        ok = lo <= result.best_rate <= hi
        rows = [
            {
                "algorithm": "ptcp",
                "rate": fraction_str(result.best_rate),
                "rate_decimal": fraction_decimal(result.best_rate),
                "target": f">= {fraction_str(lo)} and <= {fraction_str(hi)}",
                "witness_sequence": [fraction_str(q) for q in result.best_sequence],
                "ok": ok,
            }
        ]
        return {"table": table, "rows": rows}
    raise ValidationError(f"unknown table {table!r}; use one of {REPRODUCE_TABLES}")


def _reproduce_row(alg: str, rate, target: Fraction, direction: str, ok: bool) -> dict:
    sign = ">=" if direction == "ge" else "<="
    return {
        "algorithm": alg,
        "rate": fraction_str(rate),
        "rate_decimal": fraction_decimal(rate),
        "target": f"{sign} {fraction_str(target)}",
        "ok": ok,
    }


def format_reproduce(result: dict) -> str:
    lines = [f"table={result['table']}" + (f" k={result['k']}" if "k" in result else "")]
    for row in result["rows"]:
        status = "ok" if row["ok"] else "FAIL"
        lines.append(
            f"  {row['algorithm']:<12} rate={row['rate_decimal']:<18} target {row['target']:<12} [{status}]"
        )
    return "\n".join(lines)
