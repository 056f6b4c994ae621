"""Mutation catalogue: small source edits that the test suite must catch.

Each entry names a file, an exact snippet that occurs once in it, the
snippet's replacement and the test ids expected to fail.  pytest does not
collect this file; run it as

    python tests/mutants.py [NAME ...]

It exports the repository with ``git archive`` into a temporary
directory (the tree of ``git stash create``, so edits to tracked files
count; otherwise HEAD; untracked files are left out), applies each
mutant there in turn, runs that mutant's tests and restores the file.
A mutant is killed when pytest reports a failure (exit status 1); it
survives when every test passes.  Any other pytest status (a collection
error, no such test) is reported as an error.  The script prints one
line per mutant and exits 0 only when every mutant is killed.

``tests/test_mutants.py`` checks, at tier 1, that every snippet occurs
exactly once in the current source, so code that moves must take its
catalogue entries along.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # ptcp and greedy share surrounding_rule's decide: a request exactly
    # at the threshold (ptcp's critical point, greedy's midpoint) goes left.
    Mutant(
        "ptcp-critical-point-goes-right",
        "src/ofal/algorithms.py",
        "return left if r.numerator * den <= num * r.denominator else right",
        "return left if r.numerator * den < num * r.denominator else right",
        (
            "tests/test_algorithms.py::TestSplitRuleDecisions::test_boundary_goes_left",
            "tests/test_algorithms.py::TestSplitRuleDecisions::test_recursive_descent",
            "tests/test_algorithms.py::TestGreedy::test_tie_breaks_left",
        ),
    ),
    # The walk steps past right when a gap reaches exactly right, onto a
    # gap outside the two servers.
    Mutant(
        "ptcp-chain-steps-past-right",
        "src/ofal/algorithms.py",
        "while reach[a] < right:",
        "while reach[a] <= right:",
        (
            "tests/test_online_kernels.py::TestSeparatingBlock::test_every_layout_on_a_small_integer_grid",
            "tests/test_online_kernels.py::TestPtcpDecide::test_matches_the_any_scan_descent",
        ),
    ),
    Mutant(
        "split-at-rightmost-maximum-gap",
        "src/ofal/algorithms.py",
        "while stack and gaps[stack[-1]] < g:",
        "while stack and gaps[stack[-1]] <= g:",
        (
            "tests/test_algorithms.py::TestSplitTree::test_max_gap_tie_breaks_left",
            "tests/test_algorithms.py::TestSplitBlocks::test_every_layout_on_a_nine_point_grid",
        ),
    ),
    # A gap's block starts on the gap left on the stack, one point early.
    Mutant(
        "split-lo-one-short",
        "src/ofal/algorithms.py",
        "lo[i] = stack[-1] + 1",
        "lo[i] = stack[-1]",
        (
            "tests/test_algorithms.py::TestSplitBlocks::test_tie_heavy_layouts",
            "tests/test_alpha.py::TestAlphaFast::test_matches_the_interval_scan",
            "tests/test_line_walk.py::test_split_tree_matches_the_rescanning_build",
        ),
    ),
    Mutant(
        "tree-dump-children-swapped",
        "src/ofal/algorithms.py",
        "node[lo[a], a], node[a + 1, hi[a]]",
        "node[a + 1, hi[a]], node[lo[a], a]",
        (
            "tests/test_algorithms.py::TestSplitTree::test_three_servers_asymmetric",
            "tests/test_line_walk.py::test_split_tree_matches_the_rescanning_build",
        ),
    ),
    # Greedy's midpoint moved one scaled unit left: an exact tie goes right.
    Mutant(
        "greedy-tie-goes-right",
        "src/ofal/algorithms.py",
        "(ints[left] + ints[right], 2 * scale)",
        "(ints[left] + ints[right] - 1, 2 * scale)",
        (
            "tests/test_algorithms.py::TestGreedy::test_tie_breaks_left",
            "tests/test_online_kernels.py::TestScaledLayers::test_literal_boundaries",
        ),
    ),
    # On a list of ints, bisect_left(xs, v + 1) is bisect_right(xs, v);
    # engine.py imports bisect_left alone.
    Mutant(
        "surrounding-bisect-right-of-positions",
        "src/ofal/engine.py",
        "p = bisect_left(ints, -(-rs // rd))",
        "p = bisect_left(ints, -(-rs // rd) + 1)",
        ("tests/test_online_kernels.py::TestScaledLayers::test_literal_boundaries",),
    ),
    Mutant(
        "surrounding-bisect-right-of-free",
        "src/ofal/engine.py",
        "i = bisect_left(free, p)",
        "i = bisect_left(free, p + 1)",
        ("tests/test_online_kernels.py::TestScaledLayers::test_literal_boundaries",),
    ),
    # A spare server settled at the target distance after the first one
    # replaces the target only when it lies further left.
    Mutant(
        "engine-rightmost-spare-target",
        "src/ofal/offline.py",
        "elif j < target:",
        "elif j > target:",
        (
            "tests/test_offline.py::TestHeldRequestLists::test_zero_cost_hop_reveals_a_spare_server_further_left",
            "tests/test_offline.py::TestSettledBookkeeping::test_zero_cost_hop_state_matches_the_reference",
            "tests/test_offline.py::TestSettledBookkeeping::test_every_push_matches_the_settle_all_reference",
        ),
    ),
    # The push settles on past the first spare server only when a
    # zero-cost hop could reach a spare server further left; stopping
    # always misses the hop.
    Mutant(
        "engine-always-stops-at-the-first-spare-server",
        "src/ofal/offline.py",
        "or 2 * hold[0][0] > servers[j - 1] + servers[j]:",
        "or True:",
        (
            "tests/test_offline.py::TestStopAtTheFirstSpareServer::test_hand_set_states_match_the_reference",
            "tests/test_offline.py::TestHeldRequestLists::test_zero_cost_hop_reveals_a_spare_server_further_left",
        ),
    ),
    # A held request exactly on the midpoint is as close to the server on
    # its left, so its hop there costs zero.
    Mutant(
        "engine-stops-at-the-midpoint",
        "src/ofal/offline.py",
        "2 * hold[0][0] > servers[j - 1]",
        "2 * hold[0][0] >= servers[j - 1]",
        (
            "tests/test_offline.py::TestStopAtTheFirstSpareServer::test_hand_set_states_match_the_reference",
            "tests/test_offline.py::TestHeldRequestLists::test_zero_cost_hop_reveals_a_spare_server_further_left",
        ),
    ),
    # The leftmost spare index may only pass full servers; past a spare
    # one, the push stops where a zero-cost hop leads further left.
    Mutant(
        "engine-leftmost-spare-passes-a-spare-server",
        "src/ofal/offline.py",
        "self._spare = spare",
        "self._spare = spare + 1",
        (
            "tests/test_offline.py::TestStopAtTheFirstSpareServer::test_hand_set_states_match_the_reference",
        ),
    ),
    # The push moves potentials less the target distance, a constant common
    # to all; without it the servers settled before the first spare one
    # move by their whole distance, apart from the rest.
    Mutant(
        "engine-potential-keeps-the-target-distance",
        "src/ofal/offline.py",
        "pot[j] += dist[j] - reach",
        "pot[j] += dist[j]",
        ("tests/test_offline.py::TestSettledBookkeeping::test_every_push_matches_the_settle_all_reference",),
    ),
    # The fill's pick keeps the first minimum over the increasing free tuple.
    Mutant(
        "permutation-fill-rightmost-tie",
        "src/ofal/permutation.py",
        "if best is None or cost < best:",
        "if best is None or cost <= best:",
        (
            "tests/test_permutation.py::TestAgainstTheEngine::test_tie_heavy_cases",
            "tests/test_permutation.py::test_golden_tie_breaks",
        ),
    ),
    # One place left is still inside the pick's own run of slots unless
    # its load was 0, and then the slots fall out of order.
    Mutant(
        "permutation-fill-slot-one-left",
        "src/ofal/permutation.py",
        "slots.insert(ends[pick], servers[pick])",
        "slots.insert(ends[pick] - 1, servers[pick])",
        ("tests/test_permutation.py::TestAgainstTheEngine::test_tie_heavy_cases",),
    ),
    Mutant(
        "dp-slot-window-one-short",
        "src/ofal/offline.py",
        "slots[d : d + slack + 1]",
        "slots[d : d + slack]",
        ("tests/test_online_kernels.py::TestDpWindow::test_edge_cases",),
    ),
    Mutant(
        "dp-server-owns-one-slot-too-few",
        "src/ofal/offline.py",
        "range(min(c, n))",
        "range(min(c, n - 1))",
        ("tests/test_online_kernels.py::TestDpWindow::test_edge_cases",),
    ),
    Mutant(
        "dp-last-slot-starts-at-one",
        "src/ofal/offline.py",
        "F = [0] * (slack + 1)",
        "F = [0] * slack + [1]",
        ("tests/test_online_kernels.py::TestDpWindow::test_edge_cases",),
    ),
    # A tying block later in gap order would replace the witness.
    Mutant(
        "alpha-fast-last-maximizer",
        "src/ofal/alpha.py",
        "if cross > 0 or (cross == 0 and (lo, hi) < best):",
        "if cross >= 0 or (cross == 0 and (lo, hi) < best):",
        (
            "tests/test_alpha.py::TestAlphaFast::test_witness_tie_with_a_later_block",
            "tests/test_alpha.py::TestAlphaFast::test_matches_the_interval_scan",
        ),
    ),
    # A tying subset later in the same top-index group would replace the
    # witness of the subset oracle.
    Mutant(
        "alpha-bruteforce-last-maximiser",
        "src/ofal/alpha.py",
        "if span * best_gap > best_span * gap:",
        "if span * best_gap >= best_span * gap:",
        ("tests/test_exhaustive_oracles.py::TestSubsetScan::test_every_layout_on_a_small_integer_grid",),
    ),
    Mutant(
        "alpha-fast-tie-to-larger-interval",
        "src/ofal/alpha.py",
        "if cross > 0 or (cross == 0 and (lo, hi) < best):",
        "if cross > 0 or (cross == 0 and (lo, hi) > best):",
        ("tests/test_alpha.py::TestAlphaFast::test_witness_is_lexicographically_first",),
    ),
    Mutant(
        "scale-over-servers-only",
        "src/ofal/core.py",
        "scale = math.lcm(*{v.denominator for v in (*servers, *points)})",
        "scale = math.lcm(*{v.denominator for v in servers})",
        ("tests/test_core.py::TestScaling::test_scaled_pair_checks_the_pair",),
    ),
    Mutant(
        "chain-precondition-counts-the-ends",
        "src/ofal/hybrid.py",
        "if any(lo0 < j < hi0 for j in free_before(",
        "if any(lo0 <= j < hi0 for j in free_before(",
        ("tests/test_hybrid.py::TestNegativeControls::test_gap_message_lists_stuck_servers_in_index_order",),
    ),
    Mutant(
        "chain-order-flipped",
        "src/ofal/hybrid.py",
        "if a_chain[0] <= h_chain[0]:",
        "if a_chain[0] > h_chain[0]:",
        (
            "tests/test_hybrid.py::TestNegativeControls::test_gap_message_lists_stuck_servers_in_index_order",
            "tests/test_line_walk.py::test_chain_monotone_matches_the_position_check",
        ),
    ),
    Mutant(
        "c3-fallback-keeps-the-chosen-server",
        "src/ofal/hybrid.py",
        "surrounding_servers(layout[chosen], free[:c] + free[c + 1:], layout)",
        "surrounding_servers(layout[chosen], free, layout)",
        ("tests/test_line_walk.py::test_c3_candidates_match_the_list_fallback",),
    ),
    Mutant(
        "c3-fallback-left-only",
        "src/ofal/hybrid.py",
        "candidates = set(surrounding_servers(layout[chosen], free[:c] + free[c + 1:], layout)) - {None}",
        "candidates = {surrounding_servers(layout[chosen], free[:c] + free[c + 1:], layout)[0]} - {None}",
        ("tests/test_line_walk.py::test_c3_candidates_match_the_list_fallback",),
    ),
    Mutant(
        "c3-fallback-on-a-single-free-server",
        "src/ofal/hybrid.py",
        "if not candidates and len(free) > 1:",
        "if not candidates and len(free) > 0:",
        ("tests/test_hybrid.py::TestC3::test_split_rule_satisfies_threshold_condition",),
    ),
    # The memo gives each point its own key weight, so a repeated point
    # would be walked twice: the grid search refuses it.
    Mutant(
        "grid-points-allow-repeats",
        "src/ofal/verify.py",
        "if any(a >= b for a, b in zip(points, points[1:])):",
        "if any(a > b for a, b in zip(points, points[1:])):",
        ("tests/test_exhaustive_oracles.py::TestGridSearch::test_unsorted_and_repeated_points",),
    ),
    Mutant(
        "grid-memo-extension-reads-its-own-slot",
        "src/ofal/offline.py",
        "P = list(accumulate(F, min))",
        "P = list(accumulate(F, min))[1:]",
        ("tests/test_exhaustive_oracles.py::TestMultisetOptima::test_every_multiset_matches_the_dp",),
    ),
    # A request on its online or its optimal server lies between them.
    Mutant(
        "opposite-excludes-endpoints",
        "src/ofal/verify.py",
        "min(s[a], s[b]) <= r",
        "min(s[a], s[b]) < r",
        ("tests/test_verify.py::TestOpposite::test_endpoint_counts_as_between",),
    ),
    # The one batch cut of ptcp and greedy: a point at the threshold (a
    # critical point, an exact midpoint) goes left.
    Mutant(
        "ptcp-batch-critical-cut-goes-right",
        "src/ofal/algorithms.py",
        "c = bisect_right(xs, num * scale // den, c0)",
        "c = bisect_left(xs, num * scale // den, c0)",
        (
            "tests/test_batch_picks.py::test_batch_matches_decide",
            "tests/test_acceptance.py::test_criterion_4_tightness_at_k2",
            "tests/test_acceptance.py::test_criterion_8_capacity_insensitivity",
        ),
    ),
    Mutant(
        "grid-last-maximizer",
        "src/ofal/verify.py",
        "if alg * best_opt > best_alg * opt:",
        "if alg * best_opt >= best_alg * opt:",
        (
            "tests/test_exhaustive_oracles.py::TestGridSearch::test_candidate_grids",
            "tests/test_verify.py::TestGridSearch::test_criterion_3b_grid_pins",
        ),
    ),
)


def run_mutant(mutant: Mutant, tree: Path) -> str:
    """Apply one mutant inside ``tree``, run its tests, restore the file."""
    target = tree / mutant.path
    source = target.read_text(encoding="utf-8")
    if source.count(mutant.snippet) != 1:
        return "error (snippet does not occur exactly once)"
    target.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    # No bytecode is written: two mutants of one file in the same second
    # and of the same size would otherwise share a stale cache entry.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
        )
    finally:
        target.write_text(source, encoding="utf-8")
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"error (pytest exit {proc.returncode})"


def main(argv: list[str]) -> int:
    known = {m.name for m in MUTANTS}
    unknown = sorted(set(argv) - known)
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    rev = subprocess.run(
        ["git", "stash", "create"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip() or "HEAD"
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    bad = 0
    with tempfile.TemporaryDirectory(prefix="ofal-mutants-") as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for mutant in chosen:
            start = time.perf_counter()
            verdict = run_mutant(mutant, Path(tmp))
            bad += verdict != "killed"
            print(f"{verdict:10} {time.perf_counter() - start:5.1f}s  {mutant.name}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
