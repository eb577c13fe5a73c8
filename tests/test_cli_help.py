"""Every subcommand's -h shows the default of every flag it takes.

``argparse.ArgumentDefaultsHelpFormatter`` prints ``(default: ...)`` only
next to a help string, so a flag without one shows no default.  ``--kind``
is required and has none.
"""

from __future__ import annotations

import re

import pytest

from tsoreach import cli


def _help_entries(capsys, subcommand: str) -> dict[str, str]:
    """Each option's help entry, whitespace collapsed, by its first flag."""
    with pytest.raises(SystemExit) as exc:
        cli.main([subcommand, "-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    entries = re.split(r"\n(?=  -)", text)
    return {e.split()[0]: " ".join(e.split()) for e in entries}


@pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
def test_help_shows_every_default(capsys, subcommand):
    entries = _help_entries(capsys, subcommand)
    for flag in cli._SUBCOMMANDS[subcommand][1].split():
        if flag == "--kind":
            continue
        default = cli._FLAGS[flag].get("default", False)  # store_true defaults to False
        assert f"(default: {default})" in entries[flag], (subcommand, flag, entries[flag])
