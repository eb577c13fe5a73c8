"""Reachability backends for register machines, one per data-type family.

solve_finite      explicit search; exact when the value space stays finite
solve_stack       post*-saturation over the control closure, for stacks and
                  for counters (a stack over one symbol)
solve_counter     solve_stack on a counter or weak-counter machine
solve_petri       backward coverability over the control closure
solve_wsts        the same search, for any kind whose operations are monotone
explore_bounded   value-size-bounded search for the remaining types

_control_closure is the one place that flattens registers: it builds the
finite control, (state, registers) pairs with their edges, that post* and
backward coverability both read.  post* saturates forwards from the
initial configuration and stops at a target control, so solve_stack's
stats.iterations is the automaton's transitions at that stop, or at the
fixpoint when no target is reached.  solve_finite and explore_bounded run
the breadth-first kernel verdict.explore over rm_step.  Every backend
interprets all instruction tiers directly and replays its reachable
witness under rm_step to the target before returning it; one that does
not replay raises WitnessError.
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
    DEFAULT_BUDGET,
    DEFAULT_VALUE_BOUND,
    INCONCLUSIVE,
    REACHABLE,
    UNREACHABLE,
    Stats,
    Verdict,
    WitnessError,
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


def _bfs(rm: RegisterMachine, budget: int, bound: int | None = None) -> Verdict:
    """explore over rm_step; stats.iterations is the number of layers expanded.

    Configurations whose value is larger than bound are pruned, which is
    lost coverage: the search can then only end inconclusive.
    """
    t0 = time.monotonic()
    target = rm.q_target
    r = explore(rm.initial_configuration(), functools.partial(rm_step, rm),
                lambda c: c.state == target, budget=budget,
                prune=value_pruner(rm.adt, bound))
    witness = None if r.path is None else _replayed(rm, r.path, "search")
    return r.verdict(Stats(r.explored, r.depth, int((time.monotonic() - t0) * 1000)),
                     witness)


def solve_finite(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Explicit-state search; exact whenever it exhausts the space."""
    return _bfs(rm, budget)


def explore_bounded(
    rm: RegisterMachine, value_bound: int, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Sound bounded exploration for any data type.

    Reachable verdicts are exact.  Unreachable is only claimed when no
    value was pruned (closure proven); otherwise the verdict is
    inconclusive.
    """
    return _bfs(rm, budget, bound=value_bound)


# ---------------------------------------------------------------------------
# The control closure, and post*-saturation over it for stacks and counters


def _control_closure(rm: RegisterMachine, budget: int = DEFAULT_BUDGET):
    """Forward closure of (state, registers), treating data ops as free.

    Returns the initial control, the set of controls and each control's
    outgoing (edge, control) pairs.  Overapproximates the truly reachable
    pairs, which is all post* and backward coverability need: the data type
    decides which of them a run reaches.  The search stops once it has
    seen more than budget pairs, so a caller finding more than budget
    controls has no closure.
    """
    init = (rm.q_init, (0,) * len(rm.registers))
    seen = {init}
    queue = [init]
    edges_from: dict = {}
    while queue and len(seen) <= budget:
        q, regs = queue.pop()
        outs = []
        for edge, step in rm.edges_from(q):
            regs2 = regs if step is None else step(regs)
            if regs2 is not None:
                outs.append((edge, (edge[2], regs2)))
        edges_from[(q, regs)] = outs
        for _, c in outs:
            if c not in seen:
                seen.add(c)
                queue.append(c)
    return init, seen, edges_from


def solve_stack(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact reachability for stack and counter machines via post*-saturation.

    A counter is a stack over one symbol above the bottom marker (a
    one-counter automaton): inc pushes it, dec pops it and iszero tests for
    the empty stack.  The moves carry the machine's own edges, so a witness
    is a run of rm whatever its data type.

    Registers are flattened into control states by a forward closure, whose
    size is stats.explored.  post* then saturates forwards from the initial
    control over the bottom marker and stops at the first transition that
    leaves a target control.  It asks for the moves of a (control, symbol)
    pair when it first reaches it, and they are built from that control's
    closure edges: a register action keeps the symbol, a push puts its
    symbol above it, a pop applies only to its own symbol, isempty only to
    the bottom marker, and reset moves to a drain control, one per (control,
    control2) pair, that pops down to the bottom marker and then moves to
    control2.  stats.iterations counts the automaton transitions post*
    holds at the end, the initial one included: at the stop for reachable
    verdicts, at the fixpoint for unreachable ones.  budget bounds both the
    closure size and the transitions saturation adds; hitting it is
    inconclusive.  A reachable witness is replayed under rm_step before it
    is returned.
    """
    if KINDS[rm.adt.kind].backend not in ("stack", "counter"):
        raise ModelError("solve_stack needs a stack or counter machine")
    t0 = time.monotonic()
    init, controls, edges_from = _control_closure(rm, budget)

    def stats(iterations=0):
        return Stats(len(controls), iterations, int((time.monotonic() - t0) * 1000))

    if len(controls) > budget:
        return Verdict(INCONCLUSIVE, stats=stats(), closed=False)
    # edges_from holds every closure control, in an order no string hash sets
    targets = [c for c in edges_from if c[0] == rm.q_target]
    if not targets:
        return Verdict(UNREACHABLE, stats=stats())
    bottom = "_btm"
    while bottom in rm.adt.alphabet:  # a counter pushes only COUNTER_SYMBOL
        bottom += "_"

    def moves_at(control, g):
        outs = edges_from.get(control)
        if outs is None:  # the drain control (control, control2, "reset")
            return [(None, control[1], (bottom,)) if g == bottom else (None, control, ())]
        moves = []
        for label, control2 in outs:
            act = label[1]
            if not isinstance(act, AdtOp):
                moves.append((label, control2, (g,)))
                continue
            if act.name == RESET:
                moves.append((label, (control, control2, "reset"), (g,)))
                continue
            name, arg = stack_op(act)
            if name == "push":
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

    pds = RulesOnDemand(edges_from, moves_at)
    start = (init, (bottom,))
    result = pre_star(pds, start, targets, budget=budget)
    iterations = len(result.transitions)
    if result.exhausted:
        return Verdict(INCONCLUSIVE, stats=stats(iterations), closed=False)
    if not result.accepts(*start):
        return Verdict(UNREACHABLE, stats=stats(iterations))
    witness = _replayed(rm, result.witness(*start), "stack")
    return Verdict(REACHABLE, witness=witness, stats=stats(iterations))


def solve_counter(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact reachability for counter and weak-counter machines.

    The counter is a stack over one symbol, which solve_stack decides.
    """
    if KINDS[rm.adt.kind].backend != "counter":
        raise ModelError("solve_counter needs a counter or weak-counter machine")
    return solve_stack(rm, budget=budget)


# ---------------------------------------------------------------------------
# Monotone data types: backward coverability over the control closure


def _backward_cover(
    rm: RegisterMachine, budget: int = DEFAULT_BUDGET, record_history: bool = False
) -> BackwardResult:
    """Backward coverability over (control, value) for a monotone data type.

    The controls are the (state, registers) pairs of _control_closure and
    the values are ordered by the data type's well-quasi-ordering (Abdulla,
    Cerans, Jonsson and Tsay, LICS 1996).  The targets are the closure
    controls at q_target with the least value.  An edge into a control
    contributes, for a data-type operation, the minimal predecessors of the
    value, and for a register action the same value.  Elements compare only
    within one control.  A closure of more than budget controls is
    exhausted before the search starts, with explored its size.
    """
    spec = rm.adt
    init, controls, edges_from = _control_closure(rm, budget)
    if len(controls) > budget:
        return BackwardResult(coverable=False, explored=len(controls), exhausted=True)
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
        targets=[(c, bottom) for c in controls if c[0] == rm.q_target],
        preds=preds,
        leq=lambda e1, e2: e1[0] == e2[0] and leq(e1[1], e2[1]),
        covers_initial=lambda e: e[0] == init and leq(e[1], v_init),
        record_history=record_history,
        max_explored=budget,
        bucket_key=lambda e: e[0],
    )


def _cover_verdict(rm: RegisterMachine, budget: int, what: str) -> Verdict:
    t0 = time.monotonic()
    res = _backward_cover(rm, budget)
    stats = Stats(res.explored, res.iterations, int((time.monotonic() - t0) * 1000))
    if res.exhausted:
        return Verdict(INCONCLUSIVE, stats=stats, closed=False)
    if not res.coverable:
        return Verdict(UNREACHABLE, stats=stats)
    return Verdict(REACHABLE, witness=_replayed(rm, res.chain, what), stats=stats)


def solve_petri(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact reachability for Petri machines of any tier via coverability.

    stats.explored counts the predecessors generated and stats.iterations
    the basis elements expanded.  Exceeding the budget, in the closure or
    in the search, is inconclusive.  A reachable witness is a run of rm,
    replayed under rm_step before it is returned.
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
