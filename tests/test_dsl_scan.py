"""The scan path of ``dsl.parse_input`` against the line loop.

``dsl._scan`` reads a program or machine file in the layout the printers
write; ``dsl._parse_lines`` reads any file and is the only path that
reports errors.  On every file of the benchmark suites the scan must take
the file and give what the loop gives, down to the order of each state's
edges.  Any other layout, and any file with an error, must fall back to
the loop.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from tsoreach import dsl
from tsoreach.model import RegisterMachine

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite.py"


def _load_suite():
    spec = importlib.util.spec_from_file_location("perfbench_suite", SUITE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _suite_files():
    suite = _load_suite()
    return [(f"{w}/{seed}/{inst.id}", inst.text)
            for w in suite.GENERATORS for seed in (1, 2)
            for inst in suite.build(w, seed) if inst.kind != "cover"]


SUITE_FILES = _suite_files()


def _assert_same(scanned, looped):
    assert scanned == looped
    if isinstance(looped, RegisterMachine):
        for q in looped.states:
            want = looped.edges_from(q)
            got = scanned.edges_from(q)
            assert [edge for edge, _ in got] == [edge for edge, _ in want]
            assert [edge for edge, _ in got] == [e for e in looped.delta if e[0] == q]
            assert [step is None for _, step in got] == [step is None for _, step in want]


def test_every_suite_file_is_scanned():
    # a silent return to the line loop would show only in timing
    assert len(SUITE_FILES) == 2 * (100 + 100 + 100 - 8)
    assert [name for name, text in SUITE_FILES if dsl._scan(text) is None] == []


@pytest.mark.parametrize("name, text", SUITE_FILES, ids=[name for name, _ in SUITE_FILES])
def test_scan_equals_the_line_loop(name, text):
    _assert_same(dsl._scan(text), dsl._parse_lines(text))


MACHINE = """\
adt stack alphabet a
machine M
registers r bound 1
state q0 init
state q1
state qf target
trans q0 -> q1 : op push a
trans q1 -> q0 : write r 1
trans q1 -> qf : op pop a
trans q0 -> qf : read r 1
"""

PROGRAM = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : wr x 1
trans q1 -> q0 : op inc
trans q1 -> qf : rd x 1
"""


def _states_after_trans(text: str) -> str:
    lines = text.splitlines(keepends=True)
    states = [ln for ln in lines if ln.startswith("state ")]
    return "".join([ln for ln in lines if ln not in states] + states)


# (name, edit of the file text); every edit keeps the file well formed
SCANNED = [
    ("no-final-newline", lambda t: t.rstrip("\n")),
    ("header-comment", lambda t: t.replace("\nstate q0", " # header\nstate q0", 1)),
    ("underscore-state", lambda t: t.replace("q1", "q_1")),
    ("state-line-last", lambda t: t.replace("state qf target\n", "") + "state qf target\n"),
]
FALLS_BACK = [
    ("comment", lambda t: t.replace("state q1\n", "state q1  # a comment\n")),
    ("comment-line", lambda t: t.replace("state q1\n", "state q1\n# a comment\n")),
    ("blank-line", lambda t: t.replace("state q1\n", "state q1\n\n")),
    ("tabs", lambda t: t.replace("trans q0 -> q1", "trans\tq0\t->\tq1")),
    ("crlf", lambda t: t.replace("\n", "\r\n")),
    ("double-space", lambda t: t.replace("-> q1 : ", "-> q1 :  ")),
    ("target-init", lambda t: t.replace("state q0 init\nstate q1\nstate qf target",
                                        "state q0 target init\nstate q1\nstate qf")),
    ("states-after-trans", _states_after_trans),
]


@pytest.mark.parametrize("text", [MACHINE, PROGRAM], ids=["machine", "program"])
@pytest.mark.parametrize("name, edit", SCANNED, ids=[name for name, _ in SCANNED])
def test_layouts_the_scan_takes(text, name, edit):
    edited = edit(text)
    assert edited != text
    scanned = dsl._scan(edited)
    assert scanned is not None
    _assert_same(scanned, dsl._parse_lines(edited))


@pytest.mark.parametrize("text", [MACHINE, PROGRAM], ids=["machine", "program"])
@pytest.mark.parametrize("name, edit", FALLS_BACK, ids=[name for name, _ in FALLS_BACK])
def test_other_layouts_fall_back_to_the_loop(text, name, edit):
    edited = edit(text)
    assert edited != text
    assert dsl._scan(edited) is None
    _assert_same(dsl.parse_input(edited), dsl._parse_lines(edited))
    if name != "target-init":  # the one edit that moves a flag
        assert dsl.parse_input(edited) == dsl.parse_input(text)


# (name, edit, the line loop's message) per file
ERRORS = {
    "machine": [
        ("undeclared-endpoint", lambda t: t.replace("trans q1 -> qf", "trans q1 -> qx"),
         "line 9: transition uses undeclared state: q1 -> qx"),
        ("duplicate-init", lambda t: t.replace("state q1\n", "state q1 init\n"),
         "line 5: duplicate init state"),
        ("undeclared-register", lambda t: t.replace("write r 1", "write s 1"),
         "line 8: undeclared register s"),
        ("literal-outside-bound", lambda t: t.replace("read r 1", "read r 2"),
         "line 10: literal 2 outside 0..1"),
        ("operand-no-integer", lambda t: t.replace("write r 1", "write r x"),
         "line 8: expected integer for value, got 'x'"),
        ("op-invalid-for-adt", lambda t: t.replace("op pop a", "op pop b"),
         "line 9: operation 'pop b' not valid for adt stack"),
        ("duplicate-registers", lambda t: t.replace("registers r ", "registers r,r "),
         "line 3: duplicate register names"),
        ("no-target", lambda t: t.replace("state qf target", "state qf"),
         "line 2: machine needs a state marked target"),
        ("second-section", lambda t: t + "machine N\n",
         "expected exactly one machine section"),
        ("adt-after-section", lambda t: t.replace("state q0", "adt counter\nstate q0"),
         "line 4: unexpected line: 'adt counter'"),
        ("adt-no-parameter", lambda t: t.replace("alphabet a", "extra alphabet a"),
         "line 1: adt stack has no parameter 'extra'"),
    ],
    "program": [
        ("undeclared-endpoint", lambda t: t.replace("trans q1 -> qf", "trans q1 -> qx"),
         "line 9: transition uses undeclared state: q1 -> qx"),
        ("duplicate-init", lambda t: t.replace("state q1\n", "state q1 init\n"),
         "line 5: duplicate init state"),
        ("undeclared-variable", lambda t: t.replace("wr x 1", "wr y 1"),
         "line 7: undeclared variable y in q0->q1"),
        ("value-outside-domain", lambda t: t.replace("rd x 1", "rd x 2"),
         "line 9: value 2 outside domain in q1->qf"),
        ("operand-no-integer", lambda t: t.replace("wr x 1", "wr x one"),
         "line 7: expected integer for value, got 'one'"),
        ("memory-after-section", lambda t: t.replace("state q0", "memory vars y domain 0..1\n"
                                                     "state q0"),
         "line 4: unexpected line: 'memory vars y domain 0..1'"),
        ("adt-no-parameter", lambda t: t.replace("adt counter", "adt counter extra"),
         "line 2: adt counter has no parameter 'extra'"),
    ],
}
ERROR_CASES = [(kind, *case) for kind, cases in ERRORS.items() for case in cases]


@pytest.mark.parametrize("kind, name, edit, message", ERROR_CASES,
                         ids=[f"{kind}-{name}" for kind, name, _, _ in ERROR_CASES])
def test_errors_come_from_the_loop(kind, name, edit, message):
    edited = edit(MACHINE if kind == "machine" else PROGRAM)
    assert dsl._scan(edited) is None
    with pytest.raises(dsl.DslError) as looped:
        dsl._parse_lines(edited)
    with pytest.raises(dsl.DslError) as parsed:
        dsl.parse_input(edited)
    assert str(parsed.value) == str(looped.value) == message
