"""Malformed DSL inputs: every one exits 3 with a fixed, line-numbered message.

``tests/data/dsl_malformed/`` holds one or more inputs per ``DslError`` site
of ``dsl.py`` (and the model and data-type errors a file can raise through
it), plus files with several errors that pin which one is reported.
``*.tso`` files go through ``check``; ``*.aut`` automata files through
``gen --kind intersection --automata``.  ``expected.json`` maps each file
to its exit code and standard error; every other subcommand that reads a
file must report a ``*.tso`` file the same way.  Regenerate it with

    PYTHONPATH=src python tests/test_dsl_corpus.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from tsoreach import cli

CORPUS = Path(__file__).resolve().parent / "data" / "dsl_malformed"
EXPECTED = CORPUS / "expected.json"


def corpus_files() -> list[Path]:
    return sorted(p for p in CORPUS.iterdir() if p.suffix in (".tso", ".aut"))


def argv_for(path: Path, command: str = "check") -> list[str]:
    if path.suffix == ".aut":
        return ["gen", "--kind", "intersection", "--automata", str(path)]
    return [command, str(path)]


def run(path: Path, command: str = "check") -> tuple[int, str]:
    """Exit code and standard error of the CLI on one corpus file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv_for(path, command))
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def _expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_corpus_and_expectations_list_the_same_files():
    assert sorted(_expected()) == [p.name for p in corpus_files()]


@pytest.mark.parametrize("name", [p.name for p in corpus_files()])
def test_malformed_input_message_and_exit_code(name):
    want = _expected()[name]
    code, err = run(CORPUS / name)
    assert (code, err) == (want["exit"], want["stderr"])
    assert code == 3


@pytest.mark.parametrize("command", ["pivot", "oracle", "crosscheck", "translate", "lower"])
@pytest.mark.parametrize("name", [p.name for p in corpus_files() if p.suffix == ".tso"])
def test_every_file_command_reports_what_check_does(name, command):
    want = _expected()[name]
    assert run(CORPUS / name, command) == (want["exit"], want["stderr"])


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record = {}
    for path in corpus_files():
        code, err = run(path)
        record[path.name] = {"exit": code, "stderr": err}
    EXPECTED.write_text(json.dumps(record, indent=1, ensure_ascii=True) + "\n", encoding="utf-8")
