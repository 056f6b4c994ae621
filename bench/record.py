"""Record a BENCH file: the committed benchmark and tier-1, parent against change.

    python3 bench/record.py --parent REV --change REV --out BENCH_<n>.json

Run it from a git checkout with nothing else running.  Each revision is
exported with ``git archive`` into its own temporary directory, so both
sides run identical benchmark code from their own commits.  The file
records:

* the machine and both revisions;
* ``perfbench/run.py --trace 0`` on each workload in alternating pairs
  (which side runs first alternates), ten pairs on the workloads in
  ``CLAIMED`` and three on the others, at ``BENCHMARK.json``'s run length
  and the seeds in ``SEEDS``, with each side's median and quartiles, the
  pairs the change won and the parent's interquartile range per metric;
* the seed-1 output digest of every workload on both sides;
* tier-1 (``pytest --durations=0``) on both sides: its wall time, its
  summary line and the call time of each acceptance criterion.

It never edits either checkout.  A full record takes about 40 minutes on
a 2-core VM.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Workloads that get ten pairs each, three on every other workload of
#: ``BENCHMARK.json``: those of a claimed gain, or of a metric to watch.
CLAIMED: tuple[str, ...] = ("sweep-small", "oracle-prefix")
#: Seeds of the pairs: none of them was used while the change was written.
SEEDS = range(1001, 1011)
DIGEST_SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=0", "--durations-min=0"]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def export(rev: str, into: Path) -> Path:
    """The committed files of ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def machine() -> dict:
    info = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["memory"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return info


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its last stdout line plus the output digest."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"record: {workload} seed {seed} failed in {checkout}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.strip().startswith("output digest:"):
            result["output_digest"] = line.split(":", 1)[1].strip()
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's spread, pairs the change won, and the claim test."""
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        p, c = spread(parent), spread(change)
        summary[name] = {
            "parent": p,
            "change": c,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_ratio": c["median"] / p["median"],
            "median_gap_exceeds_parent_iqr": sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
        }
    return summary


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    begin = perf_counter()
    done = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    wall = perf_counter() - begin
    lines = done.stdout.splitlines()
    criteria = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 3 and fields[1] == "call" and "test_acceptance.py::" in fields[2]:
            criteria[fields[2].split("::")[-1]] = float(fields[0].rstrip("s"))
    return {"exit": done.returncode, "wall_s": wall, "summary": lines[-1] if lines else "", "criteria": criteria}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    pair_counts = {name: 10 if name in CLAIMED else 3 for name in names}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    revs = {side: git("rev-parse", rev).strip() for side, rev in (("parent", args.parent), ("change", args.change))}
    record = {"machine": machine(), "revs": revs, "run_seconds": seconds, "workloads": {}}

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        record["output_digests"] = {
            side: {w: bench(tree, w, DIGEST_SEED, 1)["output_digest"] for w in pair_counts}
            for side, tree in trees.items()
        }
        for workload, count in pair_counts.items():
            pairs = []
            for i, seed in enumerate(SEEDS[:count]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = {
                "claimed": workload in CLAIMED,
                "pairs": pairs,
                "summary": summarise(pairs, better),
            }
        record["tier1"] = {side: tier1(tree) for side, tree in trees.items()}

    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
