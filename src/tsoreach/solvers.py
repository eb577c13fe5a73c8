"""Reachability backends for register machines, one per data-type family.

solve_finite      explicit search; exact when the value space stays finite
solve_stack       registers into control states + pre*-saturation, for
                  stacks and for counters (a stack over one symbol)
solve_counter     solve_stack on a counter or weak-counter machine
solve_petri       net encoding + backward coverability
solve_wsts        generic backward search over the product well-ordering
explore_bounded   value-size-bounded search for the remaining types

solve_finite and explore_bounded run the breadth-first kernel
verdict.explore over rm_step.  Every backend replays its reachable witness
under rm_step to the target before returning it; one that does not replay
raises WitnessError.
"""

from __future__ import annotations

import functools
import itertools
import time

from .adt import (
    _HO_COUNTER_OPS,
    MONOTONE_KINDS,
    RESET,
    AdtOp,
    PetriTransition,
    marking_leq,
    marking_pre_upward,
    min_value,
    pre_upward_element,
    value_size,
    wqo_leq,
)
from .coverability import BackwardResult, backward_reach
from .model import (
    ModelError,
    RegisterAction,
    RegisterMachine,
    RmEdge,
    apply_action,
    replay_rm,
    rm_step,
)
from .pds import PdsRule, PushdownSystem, pre_star
from .translate import encode_rm_to_coverability_labelled
from .verdict import (
    INCONCLUSIVE,
    REACHABLE,
    UNREACHABLE,
    Stats,
    Verdict,
    WitnessError,
    explore,
)

DEFAULT_BUDGET = 1_000_000


def format_rm_label(edge: RmEdge) -> str:
    from .dsl import print_action

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
    adt = rm.adt
    prune = None
    if bound is not None:
        def prune(c):
            return value_size(adt, c.value) > bound
    target = rm.q_target
    r = explore(rm.initial_configuration(), functools.partial(rm_step, rm),
                lambda c: c.state == target, budget=budget, prune=prune)
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
# Stacks and counters: flatten registers into control states, then saturate


def _control_closure(rm: RegisterMachine, budget: int = DEFAULT_BUDGET):
    """Forward closure of (state, registers), treating data ops as free.

    Overapproximates the truly reachable pairs, which is all the pushdown
    construction needs.  The search stops once it has seen more than budget
    pairs, so a caller finding more than budget controls has no closure.
    """
    by_state = rm.edges_by_state
    init = (rm.q_init, (0,) * len(rm.registers))
    seen = {init}
    queue = [init]
    edges_from: dict = {}
    while queue and len(seen) <= budget:
        q, regs = queue.pop()
        outs = []
        for edge, step in by_state[q]:
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
    """Exact reachability for stack and counter machines via pre*-saturation.

    A counter is a stack over one symbol above the bottom marker (a
    one-counter automaton): inc pushes it, dec pops it and iszero tests for
    the empty stack.  The PDS rules carry the machine's own edges, so a
    witness is a run of rm whatever its data type.

    Registers are flattened into control states by a forward closure, whose
    size is stats.explored.  pre* then saturates from the target controls
    and stops as soon as the initial configuration is accepted;
    stats.iterations counts the automaton transitions it holds at the end,
    the initial ones included: at the fixpoint for unreachable verdicts, at
    the stop for reachable ones.  budget bounds both the closure size and
    the transitions saturation adds; hitting it is inconclusive.  A
    reachable witness is replayed under rm_step before it is returned.
    """
    counter = rm.adt.kind in ("counter", "weak-counter")
    if rm.adt.kind != "stack" and not counter:
        raise ModelError("solve_stack needs a stack or counter machine")
    t0 = time.monotonic()
    init, controls, edges_from = _control_closure(rm, budget)

    def stats(iterations=0):
        return Stats(len(controls), iterations, int((time.monotonic() - t0) * 1000))

    if len(controls) > budget:
        return Verdict(INCONCLUSIVE, stats=stats(), closed=False)
    stack_syms = (_HO_COUNTER_OPS["inc"][1],) if counter else rm.adt.alphabet
    bottom = "_btm"
    while bottom in stack_syms:
        bottom += "_"
    alphabet = stack_syms + (bottom,)

    rules: list[PdsRule] = []
    reset_controls = []
    for control, outs in edges_from.items():
        for label, control2 in outs:
            act = label[1]
            if isinstance(act, AdtOp) and act.name != RESET:
                name, arg = _HO_COUNTER_OPS[act.name] if counter else (act.name, act.arg)
                if name == "push":
                    for g in alphabet:
                        rules.append(PdsRule(control, g, control2, (arg, g), label))
                elif name == "pop":
                    rules.append(PdsRule(control, arg, control2, (), label))
                elif name == "isempty":
                    rules.append(PdsRule(control, bottom, control2, (bottom,), label))
                else:  # pragma: no cover - stack ops are exactly these
                    raise ModelError(f"unexpected stack op {act}")
            elif isinstance(act, AdtOp):  # reset: drain the whole stack
                aux = (control, control2, "reset")
                reset_controls.append(aux)
                for g in alphabet:
                    rules.append(PdsRule(control, g, aux, (g,), label))
                for g in stack_syms:
                    rules.append(PdsRule(aux, g, aux, ()))
                rules.append(PdsRule(aux, bottom, control2, (bottom,)))
            else:
                for g in alphabet:
                    rules.append(PdsRule(control, g, control2, (g,), label))

    targets = sorted((c for c in controls if c[0] == rm.q_target), key=repr)
    if not targets:
        return Verdict(UNREACHABLE, stats=stats())
    pds = PushdownSystem(
        controls=tuple(sorted(controls, key=repr)) + tuple(reset_controls),
        alphabet=alphabet,
        rules=tuple(rules),
    )
    start = (init, (bottom,))
    result = pre_star(pds, targets, stop=start, budget=budget)
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
    if rm.adt.kind not in ("counter", "weak-counter"):
        raise ModelError("solve_counter needs a counter or weak-counter machine")
    return solve_stack(rm, budget=budget)


# ---------------------------------------------------------------------------
# Petri nets: coverability via backward reachability on markings


def _petri_backward(
    rm: RegisterMachine, budget: int | None = None, record_history: bool = False
) -> tuple[BackwardResult, dict]:
    inst, labelmap, invariants = encode_rm_to_coverability_labelled(rm)
    by_output: dict[str, list] = {}
    for t in inst.transitions:
        for p, _ in t.outputs:
            by_output.setdefault(p, []).append(t)

    def violates_invariant(m) -> bool:
        # no reachable marking covers a demand of more than k tokens on an
        # exactly-k place family
        for places, k in invariants:
            if sum(c for p, c in m if p in places) > k:
                return True
        return False

    def preds(m):
        # a transition can only shrink the requirement if it supplies a
        # place m asks for; all others yield m + inputs, subsumed by m
        relevant: dict[str, PetriTransition] = {}
        for p, _ in m:
            for t in by_output.get(p, ()):
                relevant[t.name] = t
        out = []
        for name, t in relevant.items():
            m2 = marking_pre_upward(t, m)
            if m2 is not None and not violates_invariant(m2):
                out.append((name, m2))
        return out

    # the first invariant family is the control places; every surviving
    # demand holds exactly one control token, and only demands sharing it
    # are comparable
    control_places = invariants[0][0]

    def bucket(m):
        return next((p for p, _ in m if p in control_places), None)

    res = backward_reach(
        targets=[inst.target],
        preds=preds,
        leq=marking_leq,
        covers_initial=lambda e: marking_leq(e, inst.initial),
        record_history=record_history,
        max_explored=budget,
        bucket_key=bucket,
    )
    return res, labelmap


def solve_petri(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact reachability for tier-I petri machines via coverability.

    Verdicts are exact unless the basis exploration exceeds the budget,
    which degrades to inconclusive (large encoded machines only; direct
    nets stabilize in a handful of iterations).  A reachable witness is
    replayed under rm_step on rm, the lowered machine when solve_auto
    lowered it.
    """
    t0 = time.monotonic()
    res, labelmap = _petri_backward(rm, budget)
    millis = int((time.monotonic() - t0) * 1000)
    stats = Stats(res.explored, res.iterations, millis)
    if res.exhausted:
        return Verdict(INCONCLUSIVE, stats=stats, closed=False)
    if not res.coverable:
        return Verdict(UNREACHABLE, stats=stats)
    witness = _replayed(rm, [labelmap[name] for name in res.chain], "petri")
    return Verdict(REACHABLE, witness=witness, stats=stats)


# ---------------------------------------------------------------------------
# Generic well-structured backend


_WRITING_KINDS = ("write", "inc", "dec", "set")


def _register_preimages(
    rm: RegisterMachine, act: RegisterAction, regs: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """All register assignments that step to regs under act."""
    candidates = [regs]
    if act.kind in _WRITING_KINDS:
        # only the written register can differ from regs
        i = rm.register_index(act.x)
        candidates = [regs[:i] + (d,) + regs[i + 1 :] for d in range(rm.bound + 1)]
    return [c for c in candidates if apply_action(rm, c, act) == regs]


def _wsts_backward(
    rm: RegisterMachine, budget: int | None = None, record_history: bool = False
) -> BackwardResult:
    spec = rm.adt
    bottom = min_value(spec)
    if budget is not None and (rm.bound + 1) ** len(rm.registers) > budget:
        return BackwardResult(coverable=False, exhausted=True)
    all_regs = list(itertools.product(range(rm.bound + 1), repeat=len(rm.registers)))
    targets = [(rm.q_target, regs, bottom) for regs in all_regs]

    by_target: dict = {}
    for edge in rm.delta:
        by_target.setdefault(edge[2], []).append(edge)

    def preds(elem):
        q2, regs2, v2 = elem
        out = []
        for edge in by_target.get(q2, ()):
            q, act, _ = edge
            if isinstance(act, AdtOp):
                for v in pre_upward_element(spec, act, v2):
                    out.append((edge, (q, regs2, v)))
            else:
                for regs in _register_preimages(rm, act, regs2):
                    out.append((edge, (q, regs, v2)))
        return out

    def leq(e1, e2):
        return e1[0] == e2[0] and e1[1] == e2[1] and wqo_leq(spec, e1[2], e2[2])

    init = rm.initial_configuration()

    def covers_initial(e):
        return (
            e[0] == init.state
            and e[1] == init.regs
            and wqo_leq(spec, e[2], init.value)
        )

    return backward_reach(
        targets=targets,
        preds=preds,
        leq=leq,
        covers_initial=covers_initial,
        record_history=record_history,
        max_explored=budget,
        bucket_key=lambda e: (e[0], e[1]),  # values compare per (q, regs)
    )


def solve_wsts(rm: RegisterMachine, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Backward reachability over (state, registers) x value order.

    Needs a data type whose step relation is monotone w.r.t. its WQO;
    the strict counter is rejected (iszero breaks monotonicity).  Verdicts
    degrade to inconclusive if the register space or the basis exploration
    exceeds the budget.  A reachable witness is replayed under rm_step
    before it is returned.
    """
    if rm.adt.kind not in MONOTONE_KINDS:
        raise ModelError(
            f"solve_wsts needs a monotone well-structured data type, not {rm.adt.kind}"
        )
    t0 = time.monotonic()
    res = _wsts_backward(rm, budget)
    millis = int((time.monotonic() - t0) * 1000)
    stats = Stats(res.explored, res.iterations, millis)
    if res.exhausted:
        return Verdict(INCONCLUSIVE, stats=stats, closed=False)
    if not res.coverable:
        return Verdict(UNREACHABLE, stats=stats)
    return Verdict(REACHABLE, witness=_replayed(rm, res.chain, "wsts"), stats=stats)


# ---------------------------------------------------------------------------
# Dispatch


BACKENDS = ("auto", "finite", "counter", "stack", "petri", "wsts", "bounded")


def solve_auto(
    rm: RegisterMachine,
    backend: str = "auto",
    value_bound: int = 16,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Route the machine to the backend matching its data type.

    The coverability backend needs tier-I actions, so higher-tier machines
    are lowered first; such a verdict's witness then refers to the lowered
    machine.  Every other backend interprets all tiers directly.  For
    petri machines that carry registers, auto prefers the product backend:
    it searches backward through the register semantics directly instead
    of expanding every register value into places.
    """
    if backend == "auto":
        backend = {
            "trivial": "finite",
            "counter": "counter",
            "weak-counter": "counter",
            "stack": "stack",
            "petri": "petri" if not rm.registers else "wsts",
        }.get(rm.adt.kind, "bounded")
    if backend == "petri" and rm.tier() > 1:
        from .model import lower_tier2_to_tier1, lower_tier3_to_tier2

        rm = lower_tier2_to_tier1(lower_tier3_to_tier2(rm))
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
