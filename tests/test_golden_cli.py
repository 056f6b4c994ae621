"""Each golden CLI command, run in-process, reproduces its committed
stdout, stderr and exit code byte for byte (see ``golden_cli.py``)."""

import pytest

from golden_cli import COMMANDS, expected, run


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    assert run(COMMANDS[name]) == expected(name)
