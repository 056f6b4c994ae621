"""Command-line harness.

Subcommands: alpha | tree | simulate | opt | adversary | verify | run |
reproduce.  Exit status is 0 on success, 1 when a checked bound or
property was violated, 2 on usage or input errors and when stdout was
closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__
from .alpha import alpha_fast, aspect_ratio, gap_ratio
from .adversary import adversary, random_layout, random_sequences
from .algorithms import RULE_BUILDERS, tree_to_dict
from .core import (
    INF,
    OfalError,
    ParseError,
    check_output_path,
    compute_rate,
    fraction_decimal,
    fraction_str,
    instance_to_dict,
    load_instance,
    load_sequence,
    save_instance,
    save_sequence,
    sequence_to_dict,
    to_coord,
    trace_to_dict,
    unit_instance,
)
from .engine import simulate
from .harness import (
    ALGORITHMS,
    BOUNDED_ALGORITHMS,
    REPRODUCE_TABLES,
    ExperimentConfig,
    format_reproduce,
    reproduce,
    run_experiment,
    run_algorithm,
)
from .hybrid import check_c3, sweep_hybrid_invariants
from .offline import lexmin_assignment, noncrossing_dp_cost
from .verify import (
    capacity_insensitivity_probe,
    check_faithful,
    check_surrounding_oriented,
    sweep_adx,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


def _emit(data: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2))
    else:  # one key,value line per field; lists become space-separated
        for key, value in data.items():
            if isinstance(value, list):
                value = " ".join(map(str, value))
            print(f"{key},{value}")


def cmd_alpha(args) -> int:
    inst = load_instance(args.instance)
    metrics = alpha_fast(inst.layout)
    _emit(
        {
            "alpha": fraction_str(metrics.alpha),
            "l_value": fraction_str(gap_ratio(inst.layout)),
            "witness": list(metrics.witness),
            "bound": fraction_str(2 * metrics.alpha + 1),
            "aspect_ratio": fraction_str(aspect_ratio(inst.layout)),
        },
        args.format,
    )
    return EXIT_OK


def cmd_tree(args) -> int:
    inst = load_instance(args.instance)
    try:
        text = json.dumps(tree_to_dict(inst.layout), indent=2)
    except RecursionError:
        raise OfalError(f"the split tree of {inst.k} servers nests too deep to print as JSON")
    print(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    inst = load_instance(args.instance)
    seq = load_sequence(args.sequence)
    trace = run_algorithm(args.alg, inst, seq)
    print(json.dumps(trace_to_dict(trace), indent=2))
    return EXIT_OK


def cmd_opt(args) -> int:
    inst = load_instance(args.instance)
    seq = load_sequence(args.sequence)
    print(json.dumps(lexmin_assignment(inst, seq).to_dict(), indent=2))
    return EXIT_OK


def cmd_adversary(args) -> int:
    inst, seq = adversary(args.family, args.k, to_coord(args.epsilon), args.capacity)
    if args.out_prefix:
        inst_path = f"{args.out_prefix}.instance.json"
        seq_path = f"{args.out_prefix}.sequence.json"
        for path in (inst_path, seq_path):
            check_output_path(path, "--out-prefix file")
        save_instance(inst, inst_path)
        save_sequence(seq, seq_path)
        print(json.dumps({"instance": inst_path, "sequence": seq_path}))
    else:
        print(json.dumps({"instance": instance_to_dict(inst), "sequence": sequence_to_dict(seq)}, indent=2))
    return EXIT_OK


def _verify_layout(args):
    """The layout to check; every check runs on unit capacities, so an
    instance file with any other capacity is refused, not cut to ones."""
    if args.instance:
        inst = load_instance(args.instance)
        for j, c in enumerate(inst.capacities):
            if c != 1:
                raise OfalError(f"verify runs on unit capacities; server {j} of {args.instance} has capacity {c}")
        return inst.layout
    return random_layout(random.Random(args.seed), args.k)


def cmd_verify(args) -> int:
    rule_builder = RULE_BUILDERS[args.alg]  # --alg takes only their names
    if args.trials < 0:
        raise OfalError(f"--trials must be at least 0, got {args.trials}")
    layout = _verify_layout(args)
    inst = unit_instance(layout)
    if args.check == "surrounding":
        rule = rule_builder(layout)
        bad = total = 0
        for seq in random_sequences(inst, inst.total_capacity, seed=args.seed, count=args.trials):
            report = check_surrounding_oriented(simulate(rule, inst, seq), seq, inst)
            total += report.trials
            bad += len(report.violations)
        payload = {"property": "surrounding-oriented", "trials": total, "violations": bad}
        failed = bad > 0
    elif args.check == "faithful":
        seq = next(random_sequences(inst, inst.total_capacity, seed=args.seed, count=1))
        report = check_faithful(rule_builder, inst, seq, trials=args.trials, seed=args.seed)
        payload = report.to_dict()
        failed = not report.ok
    elif args.check == "ratio":
        rule = rule_builder(layout)
        bound = 2 * alpha_fast(layout).alpha + 1
        worst = None  # (rate, trial, alg_cost, opt_cost) of the first largest rate
        for i, seq in enumerate(
            random_sequences(inst, inst.total_capacity, seed=args.seed, count=args.trials)
        ):
            alg_cost = simulate(rule, inst, seq).total_cost
            opt_cost = noncrossing_dp_cost(inst, seq)
            rate = compute_rate(alg_cost, opt_cost)
            if worst is None or rate > worst[0]:
                worst = rate, i, alg_cost, opt_cost
        payload, failed = {"trials": 0}, False
        if worst is not None:
            rate, i, alg_cost, opt_cost = worst
            # Some trial is above the bound exactly when the largest rate is.
            within = rate != INF and rate <= bound
            failed = not within and args.alg in BOUNDED_ALGORITHMS
            payload = {
                "instance_id": f"trial-{i}",
                "algorithm_id": rule.id,
                "seed": None,
                "alg_cost": fraction_str(alg_cost),
                "opt_cost": fraction_str(opt_cost),
                "rate": fraction_str(rate),
                "rate_decimal": fraction_decimal(rate),
                "bound": fraction_str(bound),
                "verdict": "within-bound" if within else "VIOLATION",
            }
    elif args.check == "adx":
        report = sweep_adx(
            rule_builder,
            layout,
            d=to_coord(args.d),
            x=to_coord(args.x),
            trials=args.trials,
            seed=args.seed,
        )
        payload = report.to_dict()
        failed = not report.ok
    elif args.check == "capacity":
        report = capacity_insensitivity_probe(
            rule_builder, layout, max_capacity=args.capacity, n_max=args.n_max
        )
        payload = report.to_dict()
        failed = not report.ok
    elif args.check == "hybrid":
        rule = rule_builder(layout)
        structural = sweep_hybrid_invariants(rule, layout, trials=args.trials, seed=args.seed)
        threshold = check_c3(rule, layout, trials=args.trials, seed=args.seed)
        payload = {"invariants": structural.to_dict(), "threshold": threshold.to_dict()}
        failed = not (structural.ok and threshold.ok)
    print(json.dumps(payload, indent=2))
    return EXIT_VIOLATION if failed else EXIT_OK


def cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read config {args.config}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("config must be a JSON object")
    if args.seed_provided:
        data["seed"] = args.seed
    if args.jobs is not None:
        data["jobs"] = args.jobs
    config = ExperimentConfig.from_dict(data)
    result = run_experiment(config)
    if not config.out_csv:
        print(result.csv_text, end="")
    print(
        json.dumps({"max_rate": result.summary["max_rate"], "violations": len(result.summary["violations"])}),
        file=sys.stderr,
    )
    return EXIT_OK if result.ok else EXIT_VIOLATION


def cmd_reproduce(args) -> int:
    result = reproduce(args.table, k=args.k, epsilon=None if args.epsilon is None else to_coord(args.epsilon))
    if args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        print(format_reproduce(result))
    return EXIT_OK if all(row["ok"] for row in result["rows"]) else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofal",
        description="Online facility assignment on a line: algorithms, exact optima, and verification sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"ofal {__version__}")
    parser.add_argument("--seed", type=int, default=None, help="global RNG seed (default 0)")
    parser.add_argument("--format", choices=("json", "csv"), default="json", help="csv: alpha, reproduce, run")
    parser.add_argument("--jobs", type=int, default=None, help="worker processes for batch runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="layout stretch metrics and the 2*alpha+1 bound")
    p.add_argument("instance")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("tree", help="dump the split tree of a layout")
    p.add_argument("instance")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("simulate", help="run an online algorithm over a sequence")
    p.add_argument("--alg", choices=ALGORITHMS, required=True)
    p.add_argument("instance")
    p.add_argument("sequence")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("opt", help="exact offline optimum")
    p.add_argument("instance")
    p.add_argument("sequence")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("adversary", help="generate a named adversarial input")
    p.add_argument("family", choices=("greedy", "permutation"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", default="1/10")
    p.add_argument("--capacity", type=int, default=1)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("verify", help="property sweeps and bound checks")
    p.add_argument("check", choices=("surrounding", "faithful", "ratio", "adx", "capacity", "hybrid"))
    p.add_argument("--alg", choices=tuple(RULE_BUILDERS), default="ptcp")
    p.add_argument("--instance", default=None, help="instance JSON (default: random layout)")
    p.add_argument("--k", type=int, default=4, help="random layout size when no instance given")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--d", default="3", help="guard distance for adx")
    p.add_argument("--x", default="1", help="guard offset for adx")
    p.add_argument("--capacity", type=int, default=3, help="capacity for the insensitivity probe")
    p.add_argument("--n-max", type=int, default=4, help="search depth for the insensitivity probe")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="batch experiment from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("reproduce", help="one-command headline comparisons")
    p.add_argument("table", choices=REPRODUCE_TABLES)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.seed_provided = getattr(args, "seed", None) is not None
    if not args.seed_provided:
        args.seed = 0
    try:
        if args.format == "csv" and args.command not in ("alpha", "reproduce", "run"):
            raise OfalError(f"{args.command} has no csv output; use --format json")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, inside the handler
        return code
    except OfalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull so
        # that the interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
