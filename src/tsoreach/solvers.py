"""Reachability backends for register machines, one per data-type family.

solve_finite      explicit search; exact when the value space stays finite
solve_stack       post*-saturation over the controls, built on demand, for
                  stacks and for counters (a stack over one symbol)
solve_counter     solve_stack on a counter or weak-counter machine
solve_petri       backward coverability over the control closure
solve_wsts        the same search, for any kind whose operations are monotone
explore_bounded   value-size-bounded search for the remaining types

_ControlEdges is the one place that flattens registers: it builds the
edges of a control, a (state, registers) pair, the first time the control
is looked up.  _control_closure is the one loop over the controls.
solve_stack runs it as a pre-search that stops at the first control at
the target state, or closes without one; post* then builds the edges of
each further control when saturation first reaches it.  Backward
coverability needs each control's predecessors, so it runs the same loop
with no target, to the whole closure.  solve_finite and explore_bounded
run the breadth-first kernel verdict.explore over rm_step.  Every backend
interprets all instruction tiers directly and replays its reachable
witness under rm_step to the target before returning it; one that does
not replay raises WitnessError.  Each backend hands its stop to
verdict.conclude as its search names it: post* and backward coverability
end in the kernel's own stops, reached, closed or budget.
"""

from __future__ import annotations

import functools
import time

from .adt import (
    KINDS,
    RESET,
    AdtOp,
    pre_upward_element,
    stack_op,
    value_pruner,
    wqo,
)
from .coverability import BackwardResult, backward_reach
from .dsl import print_action
from .model import (
    ModelError,
    RegisterMachine,
    RmEdge,
    replay_rm,
    rm_step,
)
from .pds import RulesOnDemand, post_star

# unused here; perfbench/tracing.py patches this name in this module
from .translate import encode_rm_to_coverability_labelled  # noqa: F401
from .verdict import (
    BUDGET,
    CLOSED,
    DEFAULT_BUDGET,
    DEFAULT_VALUE_BOUND,
    REACHED,
    Stats,
    Verdict,
    WitnessError,
    conclude,
    explore,
)

# perfbench/tracing.py times the saturation under this name in this module
pre_star = post_star


def format_rm_label(edge: RmEdge) -> str:
    q, act, q2 = edge
    return f"{q} -> {q2} : {print_action(act)}"


def _replayed(rm: RegisterMachine, labels, what: str) -> tuple[str, ...]:
    """The witness labels, printed, once they replay to rm's target."""
    try:
        final = replay_rm(rm, labels).state
    except ModelError as e:
        raise WitnessError(f"{what} witness does not replay: {e}") from e
    if final != rm.q_target:
        raise WitnessError(f"{what} witness ends in {final}, not the target")
    return tuple(format_rm_label(l) for l in labels)


def solve_finite(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Explicit-state search; exact whenever it exhausts the space."""
    return explore_bounded(rm, None, budget)


def explore_bounded(
    rm: RegisterMachine, value_bound: int | None, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """explore over rm_step; stats.iterations is the number of layers expanded.

    Configurations whose value is larger than value_bound are pruned, which
    is lost coverage: the search can then only end inconclusive, with reason
    value_bound unless the budget stopped it first.  Reachable verdicts are
    exact, and unreachable is only claimed when no value was pruned.  With
    no bound nothing is pruned.
    """
    t0 = time.monotonic()
    target = rm.q_target
    r = explore(rm.initial_configuration(), functools.partial(rm_step, rm),
                lambda c: c.state == target, budget=budget,
                prune=value_pruner(rm.adt, value_bound))
    witness = None if r.path is None else _replayed(rm, r.path, "search")
    return conclude(r.outcome, Stats(r.explored, r.depth, int((time.monotonic() - t0) * 1000)),
                    witness)


# ---------------------------------------------------------------------------
# Controls, their closure, and post*-saturation over them for stacks and
# counters


class _ControlEdges(dict):
    """Each control's outgoing (edge, control2) pairs, built on first lookup.

    A control is a (state, registers) pair, and init is rm's initial one.
    Its edges are rm's edges from the state whose register action is
    enabled, each leading to the control its action makes; data-type
    operations are treated as free and keep the registers.  This is the one
    place that flattens registers.  The dict holds the controls looked up
    so far, in the order they were first looked up.
    """

    def __init__(self, rm: RegisterMachine) -> None:
        super().__init__()
        self.rm = rm
        self.init = (rm.q_init, (0,) * len(rm.registers))

    def __missing__(self, control):
        q, regs = control
        outs = self[control] = []
        for edge, step in self.rm.edges_from(q):
            regs2 = regs if step is None else step(regs)
            if regs2 is not None:
                outs.append((edge, (edge[2], regs2)))
        return outs


def _control_closure(rm: RegisterMachine, budget: int = DEFAULT_BUDGET,
                     is_target=lambda control: False):
    """Forward closure of (state, registers), treating data ops as free.

    Returns (stop, edges): stop is reached, budget or closed, and edges the
    _ControlEdges of the controls expanded.  The walk is verdict.explore's,
    with the same checks in the same order but no parents.  A closed closure
    overapproximates the truly reachable pairs, which is all backward
    coverability needs: the data type decides which of them a run reaches.
    """
    edges = _ControlEdges(rm)
    if is_target(edges.init):
        return REACHED, edges
    seen = {edges.init}
    order = [edges.init]
    for control in order:  # the list grows as the loop reads it
        for _, control2 in edges[control]:
            if control2 not in seen:
                seen.add(control2)
                order.append(control2)
                if is_target(control2):
                    return REACHED, edges
                if len(order) > budget:
                    return BUDGET, edges
    return CLOSED, edges


def solve_stack(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact reachability for stack and counter machines via post*-saturation.

    A counter is a stack over one symbol above the bottom marker (a
    one-counter automaton): inc pushes it, dec pops it and iszero tests for
    the empty stack.  The moves carry the machine's own edges, so a witness
    is a run of rm whatever its data type.

    Registers are flattened into controls one control at a time, through
    _ControlEdges, and stats.explored counts the controls whose edges were
    built.  A pre-search, _control_closure (also backward coverability's
    closure), first looks for a control at q_target: closed, no run reaches
    the target, which is unreachable with 0 iterations.  Otherwise post*
    saturates forwards from the initial control over the bottom marker and
    stops at the first transition that leaves a target control, one whose
    state is q_target.  It asks for the moves of a (control, symbol) pair
    when it first reaches it, and they are built from that control's edges:
    a register action keeps the symbol, a push puts its symbol above it, a
    pop applies only to its own symbol, isempty only to the bottom marker,
    and reset pushes a fresh bottom marker: no move pops it, so the run goes
    on as from an empty stack.  stats.iterations counts the automaton
    transitions post* holds at the end, the initial one included: at the
    stop for reachable verdicts, at the fixpoint for unreachable ones.
    budget bounds both the controls the pre-search records and the
    transitions saturation adds; hitting it is inconclusive, with reason
    budget.  A reachable witness is replayed under rm_step before it is
    returned.
    """
    if KINDS[rm.adt.kind].backend not in ("stack", "counter"):
        raise ModelError("solve_stack needs a stack or counter machine")
    t0 = time.monotonic()

    def is_target(control):
        return control[0] == rm.q_target

    def stats(iterations=0):
        return Stats(len(edges), iterations, int((time.monotonic() - t0) * 1000))

    stop, edges = _control_closure(rm, budget, is_target)
    if stop != REACHED:
        return conclude(stop, stats())
    bottom = "_btm"
    while bottom in rm.adt.alphabet:  # a counter pushes only COUNTER_SYMBOL
        bottom += "_"

    ops: dict = {}  # each action met -> its stack op, or (None, None)

    def moves_at(control, g):
        moves = []
        for label, control2 in edges[control]:
            act = label[1]
            op = ops.get(act)
            if op is None:
                op = ops[act] = stack_op(act) if isinstance(act, AdtOp) else (None, None)
            name, arg = op
            if name is None:  # a register action
                moves.append((label, control2, (g,)))
            elif name == RESET:  # a fresh bottom marker buries the stack
                moves.append((label, control2, (bottom, g)))
            elif name == "push":
                moves.append((label, control2, (arg, g)))
            elif name == "pop":
                if g == arg:
                    moves.append((label, control2, ()))
            elif name == "isempty":
                if g == bottom:
                    moves.append((label, control2, (bottom,)))
            else:  # pragma: no cover - stack ops are exactly these
                raise ModelError(f"unexpected stack op {act}")
        return moves

    result = pre_star(RulesOnDemand(moves_at), (edges.init, bottom), is_target,
                      budget=budget)
    witness = _replayed(rm, result.witness(), "stack") if result.stop == REACHED else None
    return conclude(result.stop, stats(len(result.transitions)), witness)


def solve_counter(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact reachability for counter and weak-counter machines.

    The counter is a stack over one symbol, which solve_stack decides.
    """
    if KINDS[rm.adt.kind].backend != "counter":
        raise ModelError("solve_counter needs a counter or weak-counter machine")
    return solve_stack(rm, budget=budget)


# ---------------------------------------------------------------------------
# Monotone data types: backward coverability over the control closure


def _backward_cover(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> BackwardResult:
    """Backward coverability over (control, value) for a monotone data type.

    The controls are all of _control_closure, run with no predicate, and
    the values are ordered by the data type's well-quasi-ordering (Abdulla,
    Cerans, Jonsson and Tsay, LICS 1996).  The targets are the closure
    controls at q_target with the least value.  An edge into a control
    contributes, for a data-type operation, the minimal predecessors of the
    value, and for a register action the same value.  Elements compare only
    within one control.  A closure that stops at budget stops the search
    before it starts, with explored the budget, never more.
    """
    spec = rm.adt
    stop, edges_from = _control_closure(rm, budget)
    if stop == BUDGET:
        return BackwardResult(BUDGET, explored=budget)
    into: dict = {}
    for control, outs in edges_from.items():
        for edge, control2 in outs:
            into.setdefault(control2, []).append((edge, control))

    def preds(elem):
        control2, v2 = elem
        out = []
        for edge, control in into.get(control2, ()):
            act = edge[1]
            v = pre_upward_element(spec, act, v2) if isinstance(act, AdtOp) else v2
            if v is not None:
                out.append((edge, (control, v)))
        return out

    leq, bottom, _ = wqo(spec)
    v_init = spec.initial_value()
    return backward_reach(
        targets=[(c, bottom) for c in edges_from if c[0] == rm.q_target],
        preds=preds,
        leq=lambda e1, e2: e1[0] == e2[0] and leq(e1[1], e2[1]),
        covers_initial=lambda e: e[0] == edges_from.init and leq(e[1], v_init),
        max_explored=budget,
        bucket_key=lambda e: e[0],
    )


def _cover_verdict(rm: RegisterMachine, budget: int, what: str) -> Verdict:
    t0 = time.monotonic()
    res = _backward_cover(rm, budget)
    stats = Stats(res.explored, res.iterations, int((time.monotonic() - t0) * 1000))
    return conclude(res.stop, stats,
                    _replayed(rm, res.chain, what) if res.stop == REACHED else None)


def solve_petri(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact reachability for Petri machines of any tier via coverability.

    stats.explored counts the predecessors generated and stats.iterations
    the basis elements expanded.  Exceeding the budget, in the closure or
    in the search, is inconclusive, with reason budget.  A reachable
    witness is a run of rm, replayed under rm_step before it is returned.
    """
    if KINDS[rm.adt.kind].backend != "petri":
        raise ModelError("solve_petri needs a petri machine")
    return _cover_verdict(rm, budget, "petri")


def solve_wsts(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Reachability for any monotone well-structured data type, as solve_petri.

    The strict counter is rejected: iszero breaks monotonicity.
    """
    if not KINDS[rm.adt.kind].monotone:
        raise ModelError(
            f"solve_wsts needs a monotone well-structured data type, not {rm.adt.kind}"
        )
    return _cover_verdict(rm, budget, "wsts")


# ---------------------------------------------------------------------------
# Dispatch


BACKENDS = ("auto", "finite", "counter", "stack", "petri", "wsts", "bounded")


def solve_auto(
    rm: RegisterMachine,
    backend: str = "auto",
    value_bound: int = DEFAULT_VALUE_BOUND,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Route the machine to the backend its data type's row of KINDS names.

    Each backend is called through its module-level name, the one
    perfbench/tracing.py patches.  Every backend interprets all tiers
    directly, so a witness is always a run of rm itself.
    """
    if backend == "auto":
        backend = KINDS[rm.adt.kind].backend
    if backend == "finite":
        return solve_finite(rm, budget=budget)
    if backend == "counter":
        return solve_counter(rm, budget=budget)
    if backend == "stack":
        return solve_stack(rm, budget=budget)
    if backend == "petri":
        return solve_petri(rm, budget=budget)
    if backend == "wsts":
        return solve_wsts(rm, budget=budget)
    if backend == "bounded":
        return explore_bounded(rm, value_bound=value_bound, budget=budget)
    raise ModelError(f"unknown backend {backend}")
