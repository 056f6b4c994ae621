"""Golden CLI outputs: the command set, an in-process runner, and the
regeneration entry point.

Each command runs through ``ofal.cli.main`` in-process.  Its stdout,
stderr and exit code are stored as ``tests/golden/<name>.stdout``,
``<name>.stderr`` and ``<name>.exit``; ``tests/test_golden_cli.py``
compares a fresh run with them byte for byte.  The input files are the
``tests/test_cli.py`` fixtures, kept as ``tests/golden/inst.json`` and
``tests/golden/seq.json``.

Regenerate with ``PYTHONPATH=src python tests/golden_cli.py``.  A
regenerated file is a changed check: say in CHANGES.md why the output
had to change.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ofal.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INST = str(GOLDEN / "inst.json")
SEQ = str(GOLDEN / "seq.json")

COMMANDS: dict[str, tuple[str, ...]] = {
    "tree": ("tree", INST),
    "simulate-ptcp": ("simulate", "--alg", "ptcp", INST, SEQ),
    "simulate-greedy": ("simulate", "--alg", "greedy", INST, SEQ),
    "simulate-permutation": ("simulate", "--alg", "permutation", INST, SEQ),
    "opt": ("opt", INST, SEQ),
    "verify-surrounding-greedy": ("verify", "surrounding", "--alg", "greedy", "--k", "3", "--trials", "20"),
    "verify-surrounding-ptcp": ("verify", "surrounding", "--alg", "ptcp", "--k", "3", "--trials", "20"),
    "verify-hybrid-ptcp": ("verify", "hybrid", "--alg", "ptcp", "--k", "3", "--trials", "40"),
    "verify-hybrid-greedy": ("verify", "hybrid", "--alg", "greedy", "--k", "3", "--trials", "40"),
    "verify-hybrid-ptcp-k12": ("verify", "hybrid", "--alg", "ptcp", "--k", "12", "--trials", "40"),
    "verify-hybrid-greedy-k12": ("verify", "hybrid", "--alg", "greedy", "--k", "12", "--trials", "40"),
    "verify-capacity-k2": ("verify", "capacity", "--k", "2"),
    "alpha": ("alpha", INST),
    "alpha-csv": ("--format", "csv", "alpha", INST),
    "adversary-greedy-k4": ("adversary", "greedy", "--k", "4"),
    "adversary-permutation-k3": ("adversary", "permutation", "--k", "3"),
    **{
        f"reproduce-{table}{suffix}": (*fmt, "reproduce", table)
        for table in ("thm46", "thm47", "tightness-k2")
        for suffix, fmt in (("", ()), ("-csv", ("--format", "csv")))
    },
    **{
        f"verify-{check}-{alg}": ("verify", check, "--alg", alg, "--k", "3", "--trials", "40")
        for check in ("faithful", "ratio", "adx")
        for alg in ("ptcp", "greedy")
    },
}


def run(argv: tuple[str, ...]) -> tuple[str, str, str]:
    """stdout, stderr and the exit code (as text) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), f"{code}\n"


def expected(name: str) -> tuple[str, str, str]:
    return tuple(
        (GOLDEN / f"{name}.{part}").read_text(encoding="utf-8") for part in ("stdout", "stderr", "exit")
    )


def regenerate() -> None:
    for name, argv in COMMANDS.items():
        for part, text in zip(("stdout", "stderr", "exit"), run(argv)):
            (GOLDEN / f"{name}.{part}").write_text(text, encoding="utf-8")
        print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
