import pytest

from helpers import parse_machine, parse_program, print_automata
from tsoreach.dsl import (
    DslError,
    parse_adt_line,
    parse_automata,
    parse_coverability,
    parse_input,
    print_adt,
    print_coverability,
    print_program,
)

PROG = """\
# three lines of real content
memory vars x domain 0..1
adt trivial
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : wr x 1
trans q1 -> qf : rd x 1
"""


def test_program_roundtrip():
    prog = parse_program(PROG)
    assert prog.proc.q_init == "q0" and prog.proc.q_final == "qf"
    assert parse_program(print_program(prog)) == prog


def test_undeclared_variable_is_named_in_the_error():
    bad = PROG.replace("wr x 1", "wr y 1")
    with pytest.raises(DslError, match="y"):
        parse_program(bad)


def test_unknown_op_for_the_declared_adt():
    bad = PROG.replace("adt trivial", "adt stack alphabet a,b").replace(
        "rd x 1", "op inc"
    )
    with pytest.raises(DslError, match="inc"):
        parse_program(bad)


def test_value_outside_domain():
    bad = PROG.replace("wr x 1", "wr x 7")
    with pytest.raises(DslError, match="7"):
        parse_program(bad)


def test_syntax_error_reports_line():
    bad = PROG + "trans q0 -> : wr x 1\n"
    with pytest.raises(DslError, match="line 10"):
        parse_program(bad)


def test_missing_init_or_target():
    with pytest.raises(DslError, match="init"):
        parse_program(PROG.replace("state q0 init", "state q0"))
    with pytest.raises(DslError, match="target"):
        parse_program(PROG.replace("state qf target", "state qf"))


def test_adt_lines():
    for line, kind in [
        ("trivial", "trivial"),
        ("counter", "counter"),
        ("weakcounter", "weak-counter"),
        ("weak-counter", "weak-counter"),
        ("stack alphabet a,b", "stack"),
        ("hostack level 2 alphabet a", "ho-stack"),
        ("hocounter level 3", "ho-counter"),
        ("howeakcounter level 2", "ho-weak-counter"),
        ("multistack count 2 alphabet a,b", "multi-stack"),
        ("petri places p,q transitions t: p -> q initial p", "petri"),
    ]:
        spec = parse_adt_line(line, 1)
        assert spec.kind == kind
        assert parse_adt_line(print_adt(spec)[len("adt "):], 1) == spec


def test_petri_line_details():
    spec = parse_adt_line(
        "petri places p,q transitions t: p,p -> q ; u: - -> p initial p,p", 1
    )
    assert spec.transitions[0].inputs == (("p", 2),)
    assert spec.transitions[1].inputs == ()
    assert spec.initial_marking == (("p", 2),)
    # an empty transition between two separators is skipped
    assert parse_adt_line(
        "petri places p,q transitions t: p,p -> q ; ; u: - -> p initial p,p", 1
    ) == spec


def test_machine_roundtrip_and_zero_registers():
    text = """\
adt counter
machine M
registers bound 3
state a init
state b target
trans a -> b : op inc
"""
    rm = parse_machine(text)
    assert rm.registers == ()
    from tsoreach.dsl import print_machine

    assert parse_machine(print_machine(rm)) == rm


def test_machine_action_parsing():
    text = """\
adt trivial
machine M
registers r1,r2 bound 3
state a init
state b target
trans a -> b : cke r1 2
trans a -> b : set r1 r2
trans a -> b : ckge 1 r2
"""
    rm = parse_machine(text)
    kinds = [act.kind for _, act, _ in rm.delta]
    assert kinds == ["cke", "set", "ckge"]
    assert rm.delta[0][1].y == 2
    assert rm.delta[2][1].x == 1


def test_parse_input_sniffs_sections():
    assert parse_input(PROG).__class__.__name__ == "Program"
    mtext = "adt trivial\nmachine M\nregisters bound 1\nstate a init target\n"
    assert parse_input(mtext).name == "M"
    with pytest.raises(DslError):
        parse_input("adt trivial\n")


def test_automata_roundtrip():
    text = """\
pda K alphabet a,b stack A,Z
state s init
state f accept
trans s a [-/Z,A] -> s
trans s b [A/-] -> f
fsa F alphabet a,b
state u init accept
trans u a -> u
"""
    pdas, fsas = parse_automata(text)
    assert len(pdas) == 1 and len(fsas) == 1
    assert pdas[0].transitions[0][2] is None
    assert pdas[0].transitions[0][4] == ("Z", "A")
    assert pdas[0].transitions[1][4] == ()
    again = parse_automata(print_automata(pdas, fsas))
    assert again == (pdas, fsas)
    # lines before the first section are ignored
    assert parse_automata("adt stack alphabet A\n" + text) == (pdas, fsas)


def test_coverability_roundtrip():
    text = """\
adt petri places p,q transitions t: p -> q initial p
cover q,q
"""
    inst = parse_coverability(text)
    assert inst.target == (("q", 2),)
    assert parse_coverability(print_coverability(inst)) == inst


def test_comments_and_blank_lines_ignored():
    prog = parse_program("# header\n\n" + PROG + "\n# trailing\n")
    assert prog == parse_program(PROG)


# ---------------------------------------------------------------------------
# print -> parse round trips over every gen kind


def _roundtrip(obj, printer, parser):
    text = printer(obj)
    again = parser(text)
    assert again == obj
    assert printer(again) == text


PROGRAM_ADTS = [
    "trivial", "counter", "weakcounter", "stack alphabet a,b",
    "hostack level 2 alphabet a,b", "hocounter level 3", "howeakcounter level 2",
    "multistack count 2 alphabet a,b",
    "petri places p,q transitions t: p -> q ; u: q -> p,p initial p",
]


@pytest.mark.parametrize("adt_line", PROGRAM_ADTS)
def test_gen_program_roundtrip(adt_line):
    import random

    from tsoreach import gen
    from tsoreach.dsl import Program

    adt = parse_adt_line(adt_line, 0)
    for seed in range(50):
        mem, a, proc = gen.random_program(random.Random(seed), adt=adt, op_weight=40)
        _roundtrip(Program(mem=mem, adt=a, proc=proc), print_program, parse_program)


@pytest.mark.parametrize("tier", [1, 2, 3])
@pytest.mark.parametrize("adt_line", ["trivial", "stack alphabet a,b", "hocounter level 2"])
def test_gen_machine_roundtrip(tier, adt_line):
    import random

    from tsoreach import gen
    from tsoreach.dsl import print_machine

    adt = parse_adt_line(adt_line, 0)
    for seed in range(50):
        rm = gen.random_machine(random.Random(seed), bound=seed % 5, adt=adt, tier=tier,
                                op_weight=40 if adt_line != "trivial" else 0)
        _roundtrip(rm, print_machine, parse_machine)


def test_gen_counter_stack_net_roundtrip():
    import random

    from tsoreach import gen
    from tsoreach.dsl import print_machine

    for seed in range(50):
        _roundtrip(gen.random_counter_machine(random.Random(seed)), print_machine, parse_machine)
        _roundtrip(gen.random_stack_machine(random.Random(seed), 5 + seed),
                   print_machine, parse_machine)
        _roundtrip(gen.random_net(random.Random(seed)), print_coverability, parse_coverability)


@pytest.mark.parametrize("index", range(6))
def test_intersection_fixture_roundtrip(index):
    from tsoreach import gen
    from tsoreach.dsl import print_machine
    from tsoreach.translate import encode_intersection

    _, pda, fsas, _ = gen.intersection_fixtures()[index]
    _roundtrip(encode_intersection(pda, fsas), print_machine, parse_machine)
    _roundtrip(([pda], list(fsas)), lambda a: print_automata(*a), parse_automata)


# ---------------------------------------------------------------------------
# the one-pass reader


MACHINE = """\
adt stack alphabet a,b
machine M
registers r bound 2
state q0 init
state q1
state qf target
trans q0 -> q1 : op push a
trans q1 -> qf : write r 1
"""


def test_equal_action_texts_share_one_object():
    rm = parse_machine(MACHINE + "trans q1 -> q0 : op push a\ntrans q0 -> q0 : write r 1\n")
    acts = [act for _, act, _ in rm.delta]
    assert acts[0] is acts[2] and acts[1] is acts[3]
    prog = parse_program(PROG + "trans q1 -> q0 : wr x 1\n")
    assert prog.proc.delta[0][1] is prog.proc.delta[2][1]


@pytest.mark.parametrize("layout", [
    "trans\tq1\t->\tqf\t:\twrite r 1",
    "trans q1->qf:write r 1",
    "trans q1 -> qf :   write r 1   # a comment",
    "trans q1 ->qf: write\u00a0r\u00a01",
    "trans q1 -> qf : write r \u0661",
], ids=["tabs", "no-spaces", "comment", "nbsp", "arabic-indic-digit"])
def test_trans_line_layouts(layout):
    rm = parse_machine(MACHINE.replace("trans q1 -> qf : write r 1", layout))
    assert rm == parse_machine(MACHINE)


def test_word_state_names_outside_the_name_pattern():
    # trans lines accept any word characters; such a state cannot be declared
    text = MACHINE.replace("trans q0 -> q1", "trans q_0 -> q1")
    with pytest.raises(DslError, match="line 7: transition uses undeclared state: q_0 -> q1"):
        parse_machine(text)
    text = MACHINE.replace("state q1\n", "state q_1\n").replace("-> q1 ", "-> q_1 ")
    text = text.replace("trans q1 ", "trans q_1 ")
    assert parse_machine(text).states == ("q0", "q_1", "qf")


@pytest.mark.parametrize("text, message", [
    (MACHINE.replace("op push a", "op push \u00b2"),
     "line 7: expected integer for op argument, got '\u00b2'"),
    (PROG.replace("adt trivial", "adt hostack level 2 alphabet a").replace(
        "rd x 1", "op pushk \u00b2"),
     "line 9: expected integer for op argument, got '\u00b2'"),
], ids=["machine", "program"])
def test_superscript_op_argument_is_an_input_error(text, message):
    # str.isdigit accepts superscript digits, int() does not
    with pytest.raises(DslError) as e:
        parse_input(text)
    assert str(e.value) == message


@pytest.mark.parametrize("action, message", [
    ("set r --5", "line 8: expected integer for operand, got '--5'"),
    ("cke --1 r", "line 8: expected integer for operand, got '--1'"),
    ("ckl r -\u00b3", "line 8: expected integer for operand, got '-\u00b3'"),
], ids=["set", "cke", "ckl"])
def test_malformed_literal_operand_is_an_input_error(action, message):
    with pytest.raises(DslError) as e:
        parse_machine(MACHINE.replace("write r 1", action))
    assert str(e.value) == message


@pytest.mark.parametrize("text", [
    MACHINE.replace("op push a", "op push \u00b2"),
    MACHINE.replace("write r 1", "set r --5"),
], ids=["op-superscript", "set-double-minus"])
def test_malformed_numbers_exit_three(tmp_path, capsys, text):
    from tsoreach import cli

    path = tmp_path / "m.tso"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["check", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: line ")


def test_coverability_needs_a_cover_line():
    # the CLI reads a file as a cover file only once it has seen a cover line
    with pytest.raises(DslError) as e:
        parse_coverability("adt petri places p\n")
    assert str(e.value) == "coverability file needs a 'cover ...' line"
