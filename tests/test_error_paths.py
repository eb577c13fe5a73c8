"""Error and corner paths of the command line that no other test reaches.

Each case runs ``cli.main`` on a small input and pins the exit code and the
exact standard error, or the exact ``--format lines`` verdict.
"""

from __future__ import annotations

import pytest

from tsoreach.cli import main

MACHINE = """\
adt trivial
machine M
registers r bound 1
state a init
state t target
trans a -> t : write r 1
"""

PROGRAM = """\
memory vars x domain 0..1
process P
state q0 init
state qf target
trans q0 -> qf : rd x 0
"""

# push _btm, then isempty: the stack's bottom marker must not be the
# alphabet's _btm, or b -> t would be taken for an empty stack
BTM_STACK = """\
adt stack alphabet _btm,a
machine M
registers - bound 0
state a init
state b
state c
state t target
trans a -> b : op push _btm
trans b -> t : op isempty
trans b -> c : op pop _btm
trans c -> t : op isempty
"""

# the net's own t_cover keeps its name; the covering transition becomes t_cover_
T_COVER_NET = """\
adt petri places p,q transitions t_cover: p -> q initial p
cover q
"""

# q is pumped by t; v needs four of them.  The closure has two controls
PUMP = """\
adt petri places p,q transitions t: p -> p,q ; u: q -> p ; v: q,q,q,q -> q initial p
machine M
registers - bound 0
state a init
state b target
trans a -> a : op t
trans a -> a : op u
trans a -> b : op v
"""


def _run(tmp_path, capsys, text, *argv):
    path = tmp_path / "in.tso"
    path.write_text(text)
    try:
        code = main([argv[0], str(path), *argv[1:]])
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command", ["oracle", "pivot", "crosscheck"])
def test_program_commands_on_a_machine(tmp_path, capsys, command):
    assert _run(tmp_path, capsys, MACHINE, command) == (
        3, "", f"error: {command} needs a program input\n")


def test_translate_reverse_on_a_program(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys, PROGRAM, "translate", "--reverse")
    assert (code, out) == (4, "")
    assert err.endswith("\ntsoreach: error: unrecognized arguments: --reverse\n")


def test_lower_on_a_program(tmp_path, capsys):
    assert _run(tmp_path, capsys, PROGRAM, "lower") == (
        3, "", "error: lower needs a machine input\n")


@pytest.mark.parametrize("backend, error", [
    ("stack", "solve_stack needs a stack or counter machine"),
    ("counter", "solve_counter needs a counter or weak-counter machine"),
    ("petri", "solve_petri needs a petri machine"),
])
def test_backend_for_another_data_type(tmp_path, capsys, backend, error):
    assert _run(tmp_path, capsys, MACHINE, "check", "--backend", backend) == (
        3, "", f"error: {error}\n")


@pytest.mark.parametrize("budget, code, verdict", [
    # the closure is over budget: nothing is searched
    ("1", 2, "verdict: inconclusive\nexplored: 2\niterations: 0\nclosed: 0\n"),
    # the closure fits and the search stops on the budget
    ("2", 2, "verdict: inconclusive\nexplored: 3\niterations: 3\nclosed: 0\n"),
    ("8", 0, "verdict: reachable\n" + "witness: a -> a : op t\n" * 4
             + "witness: a -> b : op v\nexplored: 8\niterations: 5\nclosed: 1\n"),
])
def test_backward_coverability_budget(tmp_path, capsys, budget, code, verdict):
    assert _run(tmp_path, capsys, PUMP, "check", "--format", "lines", "--budget", budget) == (
        code, verdict, "")


def test_stack_alphabet_holding_the_bottom_marker_name(tmp_path, capsys):
    assert _run(tmp_path, capsys, BTM_STACK, "check", "--format", "lines") == (
        0,
        "verdict: reachable\n"
        "witness: a -> b : op push _btm\n"
        "witness: b -> c : op pop _btm\n"
        "witness: c -> t : op isempty\n"
        "explored: 4\niterations: 6\nclosed: 1\n",
        "",
    )
    unreachable = BTM_STACK.replace("trans b -> c : op pop _btm\n", "")
    assert _run(tmp_path, capsys, unreachable, "check", "--format", "lines") == (
        1, "verdict: unreachable\nexplored: 3\niterations: 3\nclosed: 1\n", "")


def test_net_with_a_transition_named_t_cover(tmp_path, capsys):
    assert _run(tmp_path, capsys, T_COVER_NET, "check", "--format", "lines") == (
        0,
        "verdict: reachable\n"
        "witness: go -> go : op t_cover\n"
        "witness: go -> covered : op t_cover_\n"
        "explored: 2\niterations: 2\nclosed: 1\n",
        "",
    )
