"""The mutation catalogue in ``mutants.py`` still points at the code.

Running the mutants starts one pytest per mutant
(``python tests/mutants.py``).  This check is cheap: every snippet occurs
exactly once in its file, so a refactor that moves or rewrites catalogued
code must update the entry.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    compile(source.replace(mutant.snippet, mutant.replacement), mutant.path, "exec")
    assert mutant.tests and all((ROOT / t.split("::")[0]).is_file() for t in mutant.tests)
