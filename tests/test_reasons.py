"""Every route's inconclusive verdict names the limit that stopped it.

An inconclusive report prints 'reason: budget', 'reason: value_bound' or
'reason: bounds' directly after its verdict line, in both formats; a
conclusive report prints none.
"""

from __future__ import annotations

import random

import pytest

from helpers import parse_machine, parse_program, stack_pre_search_size
from test_error_paths import PUMP
from tsoreach.cli import main
from tsoreach.gen import random_stack_machine
from tsoreach.pivot import pivot_reach
from tsoreach.solvers import explore_bounded, solve_finite, solve_petri, solve_stack
from tsoreach.tso import OracleBounds, bounded_reach
from tsoreach.verdict import BOUNDS, BUDGET, CLOSED, PRUNED, REACHED, Stats, Verdict, conclude


def _assert_reason(v: Verdict, stop: str, reason: str | None) -> None:
    assert v.stop == stop
    for fmt in ("lines", "text"):
        lines = v.report(fmt).splitlines()
        assert lines[0] == f"verdict: {v.outcome}"
        assert [line for line in lines if line.startswith("reason:")] == (
            [] if reason is None else [f"reason: {reason}"])
        if reason is not None:
            assert lines[1] == f"reason: {reason}"


# five incs in a row: a value bound of 3 prunes the fourth, and the
# data-free rerun reaches qf, so it cannot close the search either
INCS = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state q2
state q3
state q4
state qf target
trans q0 -> q1 : op inc
trans q1 -> q2 : op inc
trans q2 -> q3 : op inc
trans q3 -> q4 : op inc
trans q4 -> qf : op inc
"""

# the target is behind a write that the memory must show first
HANDOFF = """\
memory vars x domain 0..1
process P
state q0 init
state q1
state q2
state qf target
trans q0 -> q1 : wr x 1
trans q1 -> q2 : rd x 1
trans q2 -> qf : skip
"""

# two pushes reach the target: a value bound of 1 prunes the second
PUSHES = """\
adt stack alphabet a
machine M
registers - bound 0
state a init
state b
state t target
trans a -> b : op push a
trans b -> t : op push a
"""


def test_pivot_budget():
    prog = parse_program(HANDOFF)
    _assert_reason(pivot_reach(prog.proc, prog.mem, prog.adt, budget=1), BUDGET, "budget")
    _assert_reason(pivot_reach(prog.proc, prog.mem, prog.adt), REACHED, None)


def test_pivot_value_bound():
    prog = parse_program(INCS)
    v = pivot_reach(prog.proc, prog.mem, prog.adt, value_bound=3)
    _assert_reason(v, PRUNED, "value_bound")
    _assert_reason(pivot_reach(prog.proc, prog.mem, prog.adt, value_bound=5), REACHED, None)


def test_finite_bfs_budget():
    rm = parse_machine(PUSHES.replace("adt stack alphabet a", "adt trivial")
                       .replace("op push a", "skp"))
    _assert_reason(solve_finite(rm, budget=1), BUDGET, "budget")
    _assert_reason(solve_finite(rm), REACHED, None)


def test_bounded_bfs_value_bound():
    rm = parse_machine(PUSHES)
    _assert_reason(explore_bounded(rm, value_bound=1), PRUNED, "value_bound")
    _assert_reason(explore_bounded(rm, value_bound=1, budget=1), BUDGET, "budget")
    _assert_reason(explore_bounded(rm, value_bound=2), REACHED, None)


def test_stack_pre_search_and_post_star_budget():
    rm = random_stack_machine(random.Random(1), 40)
    full = solve_stack(rm)
    _assert_reason(full, REACHED, None)
    reach = stack_pre_search_size(rm)
    # the pre-search outgrows the budget before it meets a target control
    v = solve_stack(rm, budget=reach - 1)
    _assert_reason(v, BUDGET, "budget")
    assert v.stats.iterations == 0
    # the pre-search fits, saturation does not
    v = solve_stack(rm, budget=reach)
    _assert_reason(v, BUDGET, "budget")
    assert 0 < v.stats.iterations < full.stats.iterations


def test_stack_without_a_target_control_closes():
    rm = parse_machine(PUSHES.replace("trans b -> t : op push a\n", ""))
    _assert_reason(solve_stack(rm), CLOSED, None)


def test_backward_coverability_closure_and_search_budget():
    rm = parse_machine(PUMP)
    # budget 1: the two-control closure is over budget, nothing is searched
    v = solve_petri(rm, budget=1)
    _assert_reason(v, BUDGET, "budget")
    assert (v.stats.explored, v.stats.iterations) == (1, 0)
    # budget 2: the closure fits and the backward search stops on the budget
    v = solve_petri(rm, budget=2)
    _assert_reason(v, BUDGET, "budget")
    assert v.stats.iterations > 0
    _assert_reason(solve_petri(rm), REACHED, None)
    unpumped = parse_machine(PUMP.replace("trans a -> a : op t\n", ""))
    _assert_reason(solve_petri(unpumped), CLOSED, None)


def test_oracle_bounds():
    prog = parse_program(HANDOFF)
    v = bounded_reach(prog.proc, prog.mem, prog.adt, OracleBounds(step_max=2))
    _assert_reason(v, BOUNDS, "bounds")
    # a witness within the bounds is reachable, but never closed
    v = bounded_reach(prog.proc, prog.mem, prog.adt)
    _assert_reason(v, BOUNDS, None)
    assert v.outcome == "reachable" and not v.closed


@pytest.mark.parametrize("flags, reason", [
    # the initial level-50 stack is already over the value bound
    (["--adt", "hostack level 50 alphabet a"], "value_bound"),
    (["--budget", "1"], "budget"),
])
@pytest.mark.parametrize("fmt", ["lines", "text"])
def test_check_names_each_limit(tmp_path, capsys, flags, reason, fmt):
    path = tmp_path / "g3.tso"
    assert main(["gen", "--kind", "program", "--seed", "3", "--out", str(path)]) == 0
    assert main(["check", str(path), "--format", fmt, *flags]) == 2
    assert capsys.readouterr().out.startswith(f"verdict: inconclusive\nreason: {reason}\n")


@pytest.mark.parametrize("stop, witness", [
    (REACHED, None), (CLOSED, ("a -> b",)), (BUDGET, ("a -> b",)), (PRUNED, ("a -> b",))])
def test_a_stop_that_disagrees_with_the_outcome_is_refused(stop, witness):
    with pytest.raises(AssertionError):
        conclude(stop, Stats(), witness)
