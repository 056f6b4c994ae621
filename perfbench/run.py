"""ofal benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ``ofal`` from ``src/``
there and nowhere else.  The load is one process and one caller in a
closed loop: each item starts after the previous one returns, with
``jobs=1``, no threads and no pool, and the garbage collector left on
because users pay for it.

A run builds the workload's round (a fixed item list) from the seed, then
repeats whole rounds while the next one fits in ``--seconds`` (at least
two), so every run does whole rounds of identical work.  Every item
checks its own output; a failed check or an exception counts toward
``fail_ratio`` and never ends the run.

``setup_s`` is the median of several set-ups, each in a fresh interpreter
from process start to a built round, run one after another before any
item is timed.  End-to-end times are divided by the run's host factor
(``hostspeed.py``).  ``--trace 0`` reports the end-to-end metrics.  ``--trace
1`` runs whole rounds untraced for half the time, then traced for the
other half, and reports the per-layer split (per round) from spans
recorded around every call the benchmark makes into the program, plus the
tracing overhead.  The last stdout line is one JSON object: correct,
attempted, failed, metrics.  Full results and spans go to
``perfbench/out/``.  The benchmark's self-tests:
``python3 perfbench/selftest.py``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
#: Rounds an end-to-end run makes even when one round outlasts ``--seconds``.
MIN_ROUNDS = 2
DEFAULT_SEED = 1
MAX_REPORTED_FAILURES = 5

#: Layers timed from outside: the span names the workloads record.
LAYERS = (
    "engine.simulate.ptcp",
    "engine.simulate.greedy",
    "algorithms.ptcp_rule",
    "alpha.alpha_fast",
    "alpha.alpha_bruteforce",
    "offline.noncrossing_dp_cost",
    "offline.optimal_cost",
    "offline.optimal_bruteforce",
    "permutation.permutation_run",
    "hybrid.run_hybrid",
    "hybrid.check_transition_rules",
    "hybrid.check_chain_monotone",
    "verify.grid_search_max_rate",
    "verify.capacity_insensitivity_probe",
    "adversary.random_sequences.opposite",
    "harness.run_experiment",
    "harness.reproduce.thm46",
    "harness.reproduce.thm47",
    "harness.reproduce.tightness-k2",
    "bench.item",
)
LAYER_FIELDS = (("busy_s", "s"), ("self_s", "s"), ("calls", "count"), ("errors", "count"))
#: Work rates, metric name -> layer: the work the layer's spans report per busy second.
RATES = {
    "engine.simulate.ptcp.requests_per_s": "engine.simulate.ptcp",
    "engine.simulate.greedy.requests_per_s": "engine.simulate.greedy",
    "alpha.alpha_bruteforce.subsets_per_s": "alpha.alpha_bruteforce",
    "permutation.permutation_run.requests_per_s": "permutation.permutation_run",
    "verify.grid_search_max_rate.nodes_per_s": "verify.grid_search_max_rate",
}


def import_program():
    """Import the checkout's ``ofal`` and the benchmark modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ofal
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ofal from {src}: {exc}")
    if Path(ofal.__file__).resolve().parent != src / "ofal":
        raise SystemExit(f"perfbench: imported ofal from {ofal.__file__}, not {src}")
    import tracing
    import workloads

    return tracing, workloads


def git_rev() -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_processes() -> int:
    """Live children of this process, from /proc; the load must have none."""
    count = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        count += int(fields[1]) == os.getpid()
    return count


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ofal").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "src_sha256": src.hexdigest(),
        "threads": len(os.listdir("/proc/self/task")),
        "child_processes": child_processes(),
        "jobs": 1,
        "loop": "closed, one caller",
        "gc_enabled": gc.isenabled(),
    }


def input_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr((item.id, item.args)).encode())
    return h.hexdigest()


class Runner:
    """Runs whole rounds of one item list and keeps the outcome of each."""

    def __init__(self, items):
        self.items = items
        self.reference: list[bytes | None] = [None] * len(items)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Reference samples of the last ``rounds`` call.
        self.clock = HostClock()

    def rounds(
        self, seconds: float, tracer, min_rounds: int = 1
    ) -> tuple[list[list[float]], int, float]:
        """Repeat whole rounds while the next one fits in ``seconds``.

        A round that would end past ``seconds`` (judged by the last round's
        length) is not started once ``min_rounds`` are done.  Returns each
        item's latencies (one per round), rounds completed and elapsed
        seconds.  An item fails when a check reports a problem, it raises,
        or its output differs from the first round's.
        """
        latencies: list[list[float]] = [[] for _ in self.items]
        rounds = 0
        start = perf_counter()
        self.clock = HostClock()
        self.clock.sample()
        while True:
            round_start = perf_counter()
            for index, item in enumerate(self.items):
                tracer.item = f"{rounds}/{item.id}"
                begin = perf_counter()
                try:
                    problems, text = tracer.call("bench.item", item.run, tracer, *item.args)
                except Exception as exc:  # a failed item is counted, never fatal
                    problems, text = [f"{type(exc).__name__}: {exc}"], f"error {type(exc).__name__}"
                latencies[index].append(perf_counter() - begin)
                self.clock.after(latencies[index][-1])
                digest = hashlib.sha256(text.encode()).digest()
                if self.reference[index] is None:
                    self.reference[index] = digest
                elif self.reference[index] != digest:
                    problems = problems + ["output differs from the first round"]
                self.attempted += 1
                if problems:
                    self.failed += 1
                    if len(self.failures) < MAX_REPORTED_FAILURES:
                        self.failures.append(f"{tracer.item}: {'; '.join(problems)}")
            rounds += 1
            now = perf_counter()
            elapsed = now - start
            if rounds >= min_rounds and elapsed + (now - round_start) > seconds:
                return latencies, rounds, elapsed

    def output_digest(self) -> str:
        return hashlib.sha256(b"".join(self.reference)).hexdigest()


def percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def fail_ratio(runner) -> str:
    return f"fail_ratio = {runner.failed / runner.attempted:g} ({runner.failed} of {runner.attempted} items)"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def item_rate(latencies, host: float) -> float:
    """Items over the time spent in them, at nominal host speed."""
    return sum(map(len, latencies)) / sum(map(sum, latencies)) * host


def end_to_end(runner, tracing, workload, seconds: float, setup_s: float):
    """Throughput and latency percentiles over items, at nominal host speed.

    An item's latency is its mean over the run's rounds, which repeat
    identical work; percentiles are taken over items.  ``items_per_s`` is
    items over the time spent in them.  Every time is divided by the run's
    host factor (see ``hostspeed``), so the metrics follow the program and
    not the other tenants of a shared host; the raw values are printed
    beside them.  ``setup_s``, the median of the set-ups that ran just
    before the items, is divided by the same factor: the host's speed
    changes over minutes, and a few reference samples around the set-ups
    alone gave a noisier factor than the run's.
    """
    latencies, rounds, elapsed = runner.rounds(
        seconds, tracing.Tracer(enabled=False), min_rounds=MIN_ROUNDS
    )
    host = runner.clock.factor()
    ordered = sorted(statistics.fmean(runs) for runs in latencies)
    tail, beyond = percentile(ordered, workload.tail_percentile)
    p50 = percentile(ordered, 50)[0]
    metrics = {
        "items_per_s": metric(item_rate(latencies, host), "1/s"),
        "item_p50_ms": metric(p50 * 1000 / host, "ms"),
        "item_tail_ms": metric(tail * 1000 / host, "ms"),
        "setup_s": metric(setup_s / host, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"rounds: {rounds} of {len(runner.items)} items in {elapsed:.3f} s",
        f"item_tail_ms is p{workload.tail_percentile:g} of {len(ordered)} items' mean latencies; "
        f"{beyond} items ({beyond * rounds} item runs) beyond it",
        f"host factor {host:.4f} from {len(runner.clock.samples)} reference samples; "
        f"raw items_per_s {item_rate(latencies, 1.0):.6g}, item_p50_ms {p50 * 1000:.6g}, "
        f"item_tail_ms {tail * 1000:.6g}, setup_s {setup_s:.6g}",
        fail_ratio(runner),
    ]
    return metrics, notes


def per_layer(runner, tracing, seconds: float):
    """Half the time untraced, half traced: per-round layer split and overhead.

    Times and rates are divided by each half's host factor, as end to end.
    """
    untraced, _, _ = runner.rounds(seconds / 2, tracing.Tracer(enabled=False))
    untraced_rate = item_rate(untraced, runner.clock.factor())
    tracer = tracing.Tracer(enabled=True)
    traced, rounds, traced_elapsed = runner.rounds(seconds / 2, tracer)
    host = runner.clock.factor()
    traced_rate = item_rate(traced, host)
    table = tracer.layers()
    empty = {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0, "work": 0}
    metrics = {}
    for layer in LAYERS:
        row = table.get(layer, empty)
        for field, unit in LAYER_FIELDS:
            scale = host if unit == "s" else 1.0
            metrics[f"{layer}.{field}"] = metric(row[field] / rounds / scale, unit)
    for name, layer in RATES.items():
        row = table.get(layer, empty)
        rate = row["work"] / row["busy_s"] * host if row["busy_s"] else 0.0
        metrics[name] = metric(rate, "1/s")
    grid = table.get("verify.grid_search_max_rate", empty)
    metrics["verify.grid_search_max_rate.nodes"] = metric(grid["work"] / rounds, "count")
    counters = tracer.counters
    drawn = counters.get("hybrid.drawn", 0)
    checked = counters.get("hybrid.checked", 0)
    monotone = counters.get("hybrid.monotone_precondition", 0)
    metrics["hybrid.checked_ratio"] = metric(checked / drawn if drawn else 0.0, "ratio")
    metrics["hybrid.monotone_precondition_ratio"] = metric(
        monotone / checked if checked else 0.0, "ratio"
    )
    metrics["trace.items_per_s"] = metric(traced_rate, "1/s")
    metrics["trace.untraced_items_per_s"] = metric(untraced_rate, "1/s")
    metrics["trace.overhead_items_per_s"] = metric(traced_rate - untraced_rate, "1/s")
    notes = [
        f"traced rounds: {rounds} of {len(runner.items)} items in {traced_elapsed:.3f} s; "
        "busy_s, self_s, calls and errors are per round; "
        f"host factor {host:.4f} from {len(runner.clock.samples)} reference samples",
        "no wait time is reported: one thread in a closed loop, so no layer waits on another",
        "spans wrap the benchmark's own calls into the program, so self_s equals busy_s "
        "except for bench.item, whose self time is the benchmark's checks",
        f"hybrids: {checked} checked of {drawn} drawn, {monotone} under the monotone precondition",
        fail_ratio(runner),
    ]
    return metrics, notes, tracer


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the program and build the workload's round; the work ``setup_s`` times."""
    tracing, workloads = import_program()
    items = workloads.WORKLOADS[name].build(seed)
    return tracing, workloads, items


#: A fresh interpreter that sets up and prints its input digest.
SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(run.input_digest(run.set_up(sys.argv[2], int(sys.argv[3]))[2]))"
)


def setup_runs(name: str, seed: int) -> tuple[list[float], set[str]]:
    """Time SETUP_REPEATS set-ups, each from process start to a built round.

    Each runs in its own interpreter, started and awaited one at a time
    before any item is timed.  Returns the times and the input digests.
    """
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        begin = perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(BENCH), name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        times.append(perf_counter() - begin)
        if child.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{child.stderr}")
        digests.add(child.stdout.strip())
    return times, digests


def main(argv=None) -> int:
    tracing, workloads = import_program()
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]

    setup_times, digests = setup_runs(workload.name, args.seed)
    setup_s = statistics.median(setup_times)
    items = workload.build(args.seed)
    digests.add(input_digest(items))

    runner = Runner(items)
    if args.trace:
        metrics, notes, tracer = per_layer(runner, tracing, args.seconds)
    else:
        metrics, notes = end_to_end(runner, tracing, workload, args.seconds, setup_s)
        tracer = None
    correct = runner.failed == 0 and len(digests) == 1

    env = environment()
    summary = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_runs_s": setup_times,
        "input_digest": sorted(digests),
        "output_digest": runner.output_digest(),
        "failures": runner.failures,
        "notes": notes,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**summary, **result}, indent=1) + "\n")

    print(f"workload {workload.name} (seed {args.seed})")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    print(f"  setup: median of {' '.join(f'{t:.4f}' for t in setup_times)} s")
    if len(digests) != 1:
        print("  INPUTS DIFFER between builds of the same seed")
    print(f"  input digest: {sorted(digests)[0]}")
    print(f"  output digest: {runner.output_digest()}")
    for note in notes:
        print(f"  {note}")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
