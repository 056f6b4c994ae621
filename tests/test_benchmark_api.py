"""The benchmark in ``perfbench/`` still runs against this package.

The benchmark imports public names of ``ofal`` and calls them with fixed
signatures.  This builds every workload's round and runs a few cheap
items with tracing off, so an API change that breaks the benchmark fails
here, not only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def test_rounds_build_and_cheap_items_pass(bench):
    tracing, workloads = bench
    rounds = {name: w.build(1) for name, w in workloads.WORKLOADS.items()}
    assert all(rounds.values()), [name for name, items in rounds.items() if not items]

    tracer = tracing.Tracer(enabled=False)
    # A hybrid item whose step has no other free server ends its text in
    # " -" without calling run_hybrid; at seed 1 the second one calls it.
    hybrids = [item for item in rounds["sweep-small"] if item.id.startswith("hybrid")][:2]
    texts = {}
    for item in (
        next(item for item in rounds["sweep-small"] if item.id.startswith("ratio")),
        *hybrids,
        *(item for item in rounds["oracle-prefix"] if item.id.startswith(("flow-brute", "alpha"))),
    ):
        problems, texts[item.id] = item.run(tracer, *item.args)
        assert problems == [], (item.id, problems)
    assert not texts[hybrids[-1].id].endswith(" -")
