"""The one reader of ``dsl.parse_input``.

``dsl._ROW`` splits a body line in the printers' layout and hands any other
line raw to the reader's own per-line code.  Every body line of the
benchmark suites must come back split, and the print/parse round trip must
give an equal model down to the order of each state's edges.  Other
layouts must parse equal to the printers' one, errors keep their exact
messages, and seeded mutations of suite and corpus files must give what the
reference reader in ``helpers`` gives.  Run as a script with a count,

    PYTHONPATH=src python tests/test_dsl_scan.py 20000

the differential check runs that many mutations and exits 1 on any
difference.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from helpers import parse_input_reference
from tsoreach import dsl
from tsoreach.automata import CoverabilityInstance
from tsoreach.model import RegisterMachine

ROOT = Path(__file__).resolve().parents[1]
SUITE = ROOT / "perfbench" / "suite.py"
CORPUS = ROOT / "tests" / "data" / "dsl_malformed"


def _load_suite():
    spec = importlib.util.spec_from_file_location("perfbench_suite", SUITE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _suite_files():
    suite = _load_suite()
    return [(f"{w}/{seed}/{inst.id}", inst.kind, inst.text)
            for w in suite.GENERATORS for seed in (1, 2)
            for inst in suite.build(w, seed)]


ALL_SUITE_FILES = _suite_files()
SUITE_FILES = [(name, text) for name, kind, text in ALL_SUITE_FILES if kind != "cover"]


def _assert_same(got, want):
    assert got == want
    if isinstance(want, RegisterMachine):
        for q in want.states:
            edges = got.edges_from(q)
            assert [edge for edge, _ in edges] == [edge for edge, _ in want.edges_from(q)]
            assert [edge for edge, _ in edges] == [e for e in want.delta if e[0] == q]
            assert ([step is None for _, step in edges]
                    == [step is None for _, step in want.edges_from(q)])


def _printed(obj) -> str:
    return (dsl.print_machine if isinstance(obj, RegisterMachine) else dsl.print_program)(obj)


def test_every_suite_body_line_is_split():
    # a body line handed to the per-line code would show only in timing
    assert len(SUITE_FILES) == 2 * (100 + 100 + 100 - 8)
    raw = [(name, line) for name, text in SUITE_FILES
           for *_, line in dsl._ROW.findall(text) if line.startswith(("state", "trans"))]
    assert raw == []


@pytest.mark.parametrize("name, text", SUITE_FILES, ids=[name for name, _ in SUITE_FILES])
def test_suite_file_round_trip(name, text):
    parsed = dsl.parse_input(text)
    assert _printed(parsed) == text
    _assert_same(dsl.parse_input(_printed(parsed)), parsed)
    _assert_same(parsed, parse_input_reference(text))


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


# (name, edit of the file text); every edit keeps the file well formed and
# its model the same
LAYOUTS = [
    ("no-final-newline", lambda t: t.rstrip("\n")),
    ("header-comment", lambda t: t.replace("\nstate q0", " # header\nstate q0", 1)),
    ("state-line-last", lambda t: t.replace("state qf target\n", "") + "state qf target\n"),
    ("comment", lambda t: t.replace("state q1\n", "state q1  # a comment\n")),
    ("trans-comment", lambda t: t.rstrip("\n") + "  # the last trans line\n"),
    ("comment-line", lambda t: t.replace("state q1\n", "state q1\n# a comment\n")),
    ("blank-line", lambda t: t.replace("state q1\n", "state q1\n\n")),
    ("tabs", lambda t: t.replace("trans q0 -> q1", "trans\tq0\t->\tq1")),
    ("no-spaces", lambda t: t.replace("trans q0 -> q1 : ", "trans q0->q1:")),
    ("crlf", lambda t: t.replace("\n", "\r\n")),
    ("cr-only", lambda t: t.replace("\n", "\r")),
    ("line-separator", lambda t: t.replace("\n", "\u2028")),
    ("form-feed", lambda t: t.replace("state q1\n", "state q1\x0c")),
    ("trailing-whitespace", lambda t: t.replace("\n", " \t\n")),
    ("double-space", lambda t: t.replace("-> q1 : ", "-> q1 :  ")),
    ("states-after-trans", _states_after_trans),
]


@pytest.mark.parametrize("text", [MACHINE, PROGRAM], ids=["machine", "program"])
@pytest.mark.parametrize("name, edit", LAYOUTS, ids=[name for name, _ in LAYOUTS])
def test_layouts_parse_equal_to_the_printers(text, name, edit):
    edited = edit(text)
    assert edited != text
    _assert_same(dsl.parse_input(edited), dsl.parse_input(text))
    _assert_same(dsl.parse_input(edited), parse_input_reference(edited))


# (name, edit, whether the edited state and trans lines are split rows);
# every edit keeps the file well formed and changes its model
EDITS = [
    ("underscore-state", lambda t: t.replace("q1", "q_1"), True),
    ("target-init", lambda t: t.replace("state q0 init\nstate q1\nstate qf target",
                                        "state q0 target init\nstate q1\nstate qf"), False),
]


@pytest.mark.parametrize("text", [MACHINE, PROGRAM], ids=["machine", "program"])
@pytest.mark.parametrize("name, edit, split", EDITS, ids=[name for name, _, _ in EDITS])
def test_edits_read_as_the_reference_reads_them(text, name, edit, split):
    edited = edit(text)
    parsed = dsl.parse_input(edited)
    _assert_same(parsed, parse_input_reference(edited))
    assert parsed != dsl.parse_input(text)
    raw = [line for *_, line in dsl._ROW.findall(edited) if line.startswith(("state", "trans"))]
    assert (raw == []) == split


# (name, edit, the message) per file
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
        ("endpoint-before-register", lambda t: t.replace("write r 1", "write s 1")
         .replace("trans q0 -> qf", "trans q0 -> qx"),
         "line 10: transition uses undeclared state: q0 -> qx"),
        ("state-line-outside-body", lambda t: "state q0 init\n" + t,
         "line 1: unexpected line before section: 'state q0 init'"),
        ("bound-too-many-digits", lambda t: t.replace("bound 1", "bound " + "9" * 5000),
         "line 3: registers bound has 5000 digits, too many to read"),
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
        ("trans-line-in-second-section", lambda t: t + "process Q\ntrans a -> b : skip\n",
         "expected exactly one process section"),
        ("crlf-line-numbers", lambda t: t.replace("\n", "\r\n").replace("rd x 1", "rd x 2"),
         "line 9: value 2 outside domain in q1->qf"),
        ("domain-too-many-digits", lambda t: t.replace("0..1", "0.." + "9" * 5000),
         "line 1: memory domain has 5000 digits, too many to read"),
    ],
}
ERROR_CASES = [(kind, *case) for kind, cases in ERRORS.items() for case in cases]


@pytest.mark.parametrize("kind, name, edit, message", ERROR_CASES,
                         ids=[f"{kind}-{name}" for kind, name, _, _ in ERROR_CASES])
def test_error_messages(kind, name, edit, message):
    with pytest.raises(dsl.DslError) as parsed:
        dsl.parse_input(edit(MACHINE if kind == "machine" else PROGRAM))
    assert str(parsed.value) == message


COVER = "adt petri places p,q transitions t: p -> q initial p\ncover q\n"


# a cover line before any process or machine line makes a cover file
@pytest.mark.parametrize("text, message", [
    (COVER + PROGRAM, "line 3: unexpected line: 'memory vars x domain 0..1'"),
    ("fsa F alphabet a\nstate u init\n" + COVER, "line 1: unexpected line: 'fsa F alphabet a'"),
], ids=["cover-then-process", "fsa-then-cover"])
def test_a_cover_file_reports_what_parse_coverability_does(text, message):
    for parse in (dsl.parse_input, dsl.parse_coverability):
        with pytest.raises(dsl.DslError) as e:
            parse(text)
        assert str(e.value) == message


def test_a_cover_file_parses_to_its_instance():
    text = "# a comment\n\n" + COVER.replace("\n", "\r\n")
    assert dsl.parse_input(text) == dsl.parse_coverability(COVER)
    assert isinstance(dsl.parse_input(COVER), CoverabilityInstance)


def test_a_cover_line_after_the_section_is_a_body_line():
    with pytest.raises(dsl.DslError, match="^line 10: unexpected line: 'cover q'$"):
        dsl.parse_input(PROGRAM + "cover q\n")


# ---------------------------------------------------------------------------
# Differential check against the reference reader


# the reference reader raises int()'s ValueError on a number of more
# digits than int() reads, where parse_input reports a DslError
BASES = [text for _, _, text in ALL_SUITE_FILES] + [
    p.read_text(encoding="utf-8") for p in sorted(CORPUS.iterdir())
    if p.suffix in (".tso", ".aut") and "too-many-digits" not in p.name
]

LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = ["\t", "  ", "\xa0", " \t ", "\x0b", ""]
STRAY = [
    "process P", "machine M", "fsa F alphabet a", "pda K alphabet a stack A", "cover p",
    "cover q", "state q0", "state q0 init", "state q target", "state qx accept", "state",
    "memory vars x domain 0..1", "memory vars x", "adt counter", "adt stack alphabet a",
    "registers r bound 1", "registers - bound 0", "registers r", "trans q0 -> q0 : skp",
    "trans q0 -> q0 : skip", "trans q0 q1", "# a comment", "", "   ",
]


def _mutate_line(rng: random.Random, line: str, tokens: list[str]) -> str:
    op = rng.randrange(9)
    toks = line.split(" ")
    k = rng.randrange(len(toks))
    if op == 0:  # one space of another kind
        return " ".join(toks[:k]) + rng.choice(SPACES) + " ".join(toks[k:]) if k else line
    if op == 1:
        return line + rng.choice([" # c", "#", " #x y", "\t# c"])
    if op == 2:  # a '#' or a line end inside the line
        j = rng.randrange(len(line) + 1)
        return line[:j] + rng.choice(["#", *LINE_ENDS]) + line[j:]
    if op == 3:
        del toks[k]
    elif op == 4:
        toks.insert(k, toks[k])
    elif op == 5:
        j = rng.randrange(len(toks))
        toks[k], toks[j] = toks[j], toks[k]
    elif op == 6:
        toks[k] = rng.choice(tokens)
    elif op == 7:
        return line + rng.choice([" ", "\t", " \xa0"])
    else:
        toks[k] = toks[k] + rng.choice(["x", "_", "-", "1", "é"])
    return " ".join(toks)


def mutate(rng: random.Random, text: str) -> str:
    """text under one to three seeded edits of its lines, tokens, spaces,
    comments or line ends."""
    lines = text.split("\n")
    tokens = text.split() or ["x"]
    end = "\n"
    for _ in range(rng.randint(1, 3)):
        lines = lines or [""]
        op = rng.randrange(8)
        k = rng.randrange(len(lines))
        if op == 0:
            lines[k] = _mutate_line(rng, lines[k], tokens)
        elif op == 1:
            lines.insert(k, rng.choice(STRAY))
        elif op == 2:
            del lines[k]
        elif op == 3:
            lines.insert(k, lines[k])
        elif op == 4:
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        elif op == 5:
            end = rng.choice(LINE_ENDS)
        elif op == 6:
            lines[k] = rng.choice(["", "  ", "\t", "# c"]) + lines[k]
        elif lines and lines[-1] == "":
            lines.pop()  # no final line end
    return end.join(lines)


def _outcome(read, text):
    try:
        obj = read(text)
    except Exception as e:  # any difference counts, not only in DslError texts
        return type(e).__name__, str(e)
    edges = None
    if isinstance(obj, RegisterMachine):
        edges = [[(edge, step is None) for edge, step in obj.edges_from(q)] for q in obj.states]
    return obj, edges


def differences(n: int, seed: int) -> tuple[list[str], int]:
    """The mutations of n seeded draws on which parse_input and the
    reference reader differ, and how many of the n are errors."""
    rng = random.Random(seed)
    differ, errors = [], 0
    for k in range(n):
        text = mutate(rng, rng.choice(BASES))
        got = _outcome(dsl.parse_input, text)
        if got != _outcome(parse_input_reference, text):
            differ.append(f"mutation {k}: {text!r}")
        errors += isinstance(got[0], str)
    return differ, errors


def test_mutations_read_as_the_reference_reads_them():
    differ, errors = differences(2000, seed=24)
    assert differ == []
    assert 500 < errors < 1900  # both kinds of outcome are well covered


if __name__ == "__main__":
    n = int(sys.argv[1])
    differ, errors = differences(n, seed=1)
    print(*differ[:20], sep="\n")
    print(f"{len(differ)} of {n} mutations ({errors} errors) differ from the reference reader")
    sys.exit(1 if differ else 0)
