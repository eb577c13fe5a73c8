"""Independent oracles and test-only helpers used across the test suite.

The oracles deliberately re-implement the semantics they check with the
dumbest possible data structures, so a bug in the library's step functions
cannot hide in the oracle as well.  The helpers (value enumeration,
minimal-predecessor bases, backward-search history, the net-encoding
route for Petri machines, the counter cutoff search and binary encoding,
the worklist pre*-saturation that post* is checked against)
exist only for tests and so live here rather than in the package.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import deque
from collections.abc import Set
from dataclasses import dataclass, field, replace
from functools import cached_property

from tsoreach.adt import (
    RESET,
    AdtError,
    AdtOp,
    AdtSpec,
    AdtValue,
    PetriTransition,
    _ho_size,
    marking_leq,
    marking_pre_upward,
    mk_marking,
    pre_upward_element,
    step_unchecked,
    trivial_spec,
    value_size,
    wqo_leq,
)
from tsoreach.coverability import BackwardResult, backward_reach
from tsoreach.model import (
    MemorySpec,
    Message,
    ModelError,
    ProcessDescription,
    RegisterAction,
    RegisterMachine,
    RmEdge,
    _Gensym,
    lower_tier2_to_tier1,
    lower_tier3_to_tier2,
    read,
    rm_step,
    write,
)
from tsoreach.pds import PushdownSystem
from tsoreach.pivot import (
    PivotLabel,
    UpdateSequence,
    View,
    _replace,
    format_omega,
    initial_view,
)
from tsoreach.solvers import _backward_cover, _replayed
from tsoreach.translate import encode_rm_to_coverability_labelled
from tsoreach.verdict import (
    BUDGET,
    INCONCLUSIVE,
    REACHABLE,
    REACHED,
    UNREACHABLE,
    Stats,
    Verdict,
    explore,
)


def register_successors(rm: RegisterMachine, regs: dict, act) -> list[dict]:
    """Successors of a register dict under a register action of any tier,
    read straight from the action's definition."""
    def val(o):
        return regs[o] if isinstance(o, str) else o

    k = act.kind
    if k == "skp":
        return [regs]
    if k == "write":
        return [{**regs, act.x: act.y}]
    if k == "read":
        return [regs] if regs[act.x] == act.y else []
    if k == "inc":
        return [{**regs, act.x: regs[act.x] + 1}] if regs[act.x] < rm.bound else []
    if k == "dec":
        return [{**regs, act.x: regs[act.x] - 1}] if regs[act.x] > 0 else []
    if k == "ckz":
        return [regs] if regs[act.x] == 0 else []
    if k == "set":
        return [{**regs, act.x: val(act.y)}]
    rel = {
        "cke": lambda a, b: a == b,
        "ckne": lambda a, b: a != b,
        "ckl": lambda a, b: a < b,
        "ckg": lambda a, b: a > b,
        "ckle": lambda a, b: a <= b,
        "ckge": lambda a, b: a >= b,
    }[k]
    return [regs] if rel(val(act.x), val(act.y)) else []


def rm_reachable_brute(rm: RegisterMachine) -> bool:
    """Fixpoint over explicit (state, register dict, value) sets.

    Interprets every action tier directly from its definition; suitable for
    machines whose reachable value space is finite (trivial data type, or
    bounded counters at test scale).
    """
    def freeze(regs: dict):
        return tuple(regs[r] for r in rm.registers)

    init = (rm.q_init, (0,) * len(rm.registers), rm.adt.initial_value())
    seen = {init}
    frontier = [init]
    while frontier:
        nxt = []
        for q, regs_t, v in frontier:
            regs = dict(zip(rm.registers, regs_t))
            for src, act, dst in rm.delta:
                if src != q:
                    continue
                if isinstance(act, AdtOp):
                    succs = [
                        (dst, regs_t, v2) for v2 in step_unchecked(rm.adt, v, act)
                    ]
                else:
                    succs = [(dst, freeze(r2), v) for r2 in register_successors(rm, regs, act)]
                for s in succs:
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
        frontier = nxt
    return any(q == rm.q_target for q, _, _ in seen)


def net_forward_markings(transitions, initial, token_bound: int):
    """All markings reachable without exceeding token_bound total tokens.

    Returns (markings, closed); closed is False when some firing was cut
    off by the bound, i.e. the enumeration may be incomplete.
    """
    def fire(m: dict, t):
        m2 = dict(m)
        for p, c in t.inputs:
            m2[p] = m2.get(p, 0) - c
            if m2[p] < 0:
                return None
        for p in t.resets:
            m2[p] = 0
        for p, c in t.outputs:
            m2[p] = m2.get(p, 0) + c
        return tuple(sorted((p, c) for p, c in m2.items() if c > 0))

    closed = True
    seen = {initial}
    frontier = [initial]
    while frontier:
        nxt = []
        for m in frontier:
            for t in transitions:
                m2 = fire(dict(m), t)
                if m2 is None:
                    continue
                if sum(c for _, c in m2) > token_bound:
                    closed = False
                    continue
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    return seen, closed


def net_coverable_forward(transitions, initial, target, token_bound: int):
    """(coverable, closed) by bounded forward enumeration."""
    markings, closed = net_forward_markings(transitions, initial, token_bound)

    def geq(m, t):
        md = dict(m)
        return all(md.get(p, 0) >= c for p, c in t)

    return any(geq(m, target) for m in markings), closed


def enumerate_small_counter_values(bound: int):
    return list(range(bound + 1))


def product_assignments(registers, bound):
    return [
        dict(zip(registers, vals))
        for vals in itertools.product(range(bound + 1), repeat=len(registers))
    ]


# ---------------------------------------------------------------------------
# Pushdown systems: worklist pre*-saturation, the reference for post*
#
# Saturation is the worklist algorithm of Esparza, Hansel, Rossmanith and
# Schwoon (CAV 2000), backwards from { <p, w> : p in targets, any w }.
# Rules are indexed once by (p2, push[0]).  A pop rule (p, g) -> (q, ())
# adds (p, g, q) up front; every new transition t = (q, a, q1) then meets
# only what it can complete: a rule (p, g) -> (q, (a,)) adds (p, g, q1); a
# rule (p, g) -> (q, (a, b)) becomes a pending push under (q1, b) and adds
# (p, g, q2) for every transition (q1, b, q2), present or later; a pending
# push waiting under (q, a) adds its (p, g, q1).  The successors of each
# (state, symbol) are one bitmask over the states a transition can end in,
# and the worklist holds (state, symbol) keys.  A stop configuration
# (c, (s,)) ends saturation once it is accepted; a budget bounds the
# transitions added.  Each added transition remembers the rule and the
# automaton path that justified it, which lets witness unwind a run.


class _Accepted(Exception):
    """The stop configuration is accepted."""


class _OutOfBudget(Exception):
    """Saturation would add more transitions than its budget."""


def _bits(x: int):
    """Indices of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _Transitions(Set):
    """The automaton's transitions (state, symbol, state), read from post."""

    def __init__(self, post: dict, ends: tuple, index: dict) -> None:
        self._post, self._ends, self._index = post, ends, index
        self._count = sum(succ.bit_count() for succ in post.values())

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for (q, a), succ in self._post.items():
            for i in _bits(succ):
                yield (q, a, self._ends[i])

    def __contains__(self, t) -> bool:
        q, a, q2 = t
        if q2 not in self._index:
            return False
        return bool(self._post.get((q, a), 0) >> self._index[q2] & 1)


def _saturate(pds: PushdownSystem, targets, stop, budget):
    """Saturate the target automaton.

    Returns (post, ends, index, provenance, exhausted).  Automaton states
    are the controls plus one accepting sink.  A transition can only end in
    the sink or in a control some pop rule moves to; these are ends, with
    the sink first, and index maps each to its position.  post maps
    (state, symbol) to the bitmask of its successors, bit i standing for
    ends[i].  The initial automaton accepts every stack word from every
    target control (the sink loops over the full alphabet and target
    controls are accepting, covering the empty stack).  provenance maps
    (state, symbol) to the records (bits, rule, prefix, via) of the
    saturation steps that added its successor bits, in order; see
    PreStarAutomaton.justification.

    The worklist holds (state, symbol) keys whose successor bits grew since
    the key was last taken; taking it passes all those new bits on at once,
    so one bitmask operation stands for one transition per bit.
    """
    sink = ("__any__",)
    ends = tuple(dict.fromkeys([sink] + [r.p2 for r in pds.rules if not r.push]))
    index = {q: i for i, q in enumerate(ends)}
    final = 1  # the sink
    for q in targets:
        if q in index:
            final |= 1 << index[q]
    post: dict = {}
    prov: dict = {}
    fresh: dict = {}  # key -> bits added since it last left the worklist
    worklist: deque = deque()
    added = 0

    def add(key, bits, rule=None, prefix=(), via=None) -> None:
        """Add (key[0], key[1], ends[i]) for every bit i of bits.

        A transition added by rule is justified by the path prefix,
        followed by the transition (via[0], via[1], ends[i]) when via is
        given; one record holds that for all the new bits.
        """
        nonlocal added
        old = post.get(key, 0)
        new = bits & ~old
        if not new:
            return
        if rule is not None:
            added += new.bit_count()
            if budget is not None and added > budget:
                raise _OutOfBudget
            prov.setdefault(key, []).append((new, rule, prefix, via))
        post[key] = old | new
        if key in fresh:
            fresh[key] |= new
        else:
            fresh[key] = new
            worklist.append(key)
        if key == stop and new & final:
            raise _Accepted

    by_head: dict = {}  # (p2, push[0]) -> rules
    for rule in pds.rules:
        if rule.push:
            by_head.setdefault((rule.p2, rule.push[0]), []).append(rule)
    pending: dict = {}  # (q1, push[1]) -> [(rule, first transition)]
    derived: set = set()  # ((p, gamma), (q1, push[1])) of every pending push

    exhausted = False
    try:
        for q in (*targets, sink):
            for g in pds.alphabet:
                add((q, g), 1)
        for rule in pds.rules:
            if not rule.push:
                add((rule.p, rule.gamma), 1 << index[rule.p2], rule)
        while worklist:
            key = worklist.popleft()
            q, a = key
            new = fresh.pop(key)
            for rule in by_head.get(key, ()):
                head = (rule.p, rule.gamma)
                if len(rule.push) == 1:
                    add(head, new, rule, (), key)
                    continue
                for i in _bits(new):
                    key2 = (ends[i], rule.push[1])
                    if (head, key2) in derived:
                        continue
                    derived.add((head, key2))
                    t1 = (q, a, ends[i])
                    pending.setdefault(key2, []).append((rule, t1))
                    add(head, post.get(key2, 0), rule, (t1,), key2)
            for rule, t1 in pending.get(key, ()):
                add((rule.p, rule.gamma), new, rule, (t1,), key)
    except _Accepted:
        pass
    except _OutOfBudget:
        exhausted = True
    return post, ends, index, prov, exhausted


@dataclass
class PreStarAutomaton:
    pds: PushdownSystem
    targets: tuple
    post: dict  # (state, symbol) -> bitmask over ends
    ends: tuple  # the states a transition can end in; ends[0] is the sink
    index: dict  # end state -> its bit in post
    provenance: dict  # (state, symbol) -> [(bits, rule, prefix, via)]
    exhausted: bool = False  # the budget ended saturation early

    @property
    def sink(self):
        return self.ends[0]

    @cached_property
    def transitions(self) -> _Transitions:
        return _Transitions(self.post, self.ends, self.index)

    def justification(self, t):
        """(rule, path) for a saturation-added transition t, else None.

        path lists the transitions that matched the rule's push word; each
        was added before t.
        """
        q, a, q2 = t
        bit = 1 << self.index[q2]
        for bits, rule, prefix, via in self.provenance.get((q, a), ()):
            if bits & bit:
                return rule, prefix if via is None else prefix + ((*via, q2),)
        return None

    def _accepting_path(self, control, word):
        """One accepting run of the automaton on (control, word), or None.

        Target controls are accepting themselves, so a target with an empty
        stack counts as reached (control-state reachability ignores the
        stack entirely).
        """
        final = set(self.targets) | {self.sink}

        def successors(node):
            # a node is (automaton state, symbols of word read so far)
            state, i = node
            if i == len(word):
                return []
            return [((state, word[i], self.ends[j]), (self.ends[j], i + 1))
                    for j in _bits(self.post.get((state, word[i]), 0))]

        r = explore((control, 0), successors,
                    lambda node: node[1] == len(word) and node[0] in final)
        return list(r.path) if r.outcome == REACHED else None

    def accepts(self, control, word) -> bool:
        return self._accepting_path(control, word) is not None

    def witness(self, control, word):
        """A tag sequence driving (control, word) into the target set.

        Each unwinding step rewrites the configuration with the rule that
        justified the first transition of the accepting path; recorded
        paths only mention transitions added earlier, so this terminates.
        """
        target_set = set(self.targets)
        path = self._accepting_path(control, word)
        if path is None:
            raise ValueError("configuration not accepted")
        tags = []
        config = (control, tuple(word))
        while True:
            p, w = config
            if p in target_set:
                return tags
            first = path[0]
            why = self.justification(first)
            if why is None:
                # initial automaton transition from a non-target control
                raise AssertionError("dangling provenance")
            rule, subpath = why
            if rule.tag is not None:
                tags.append(rule.tag)
            config = (rule.p2, rule.push + w[1:])
            path = list(subpath) + path[1:]


def pre_star(
    pds: PushdownSystem, targets, stop=None, budget: int | None = None
) -> PreStarAutomaton:
    """Saturate backwards from { <p, w> : p in targets, any w }.

    stop is an optional configuration (control, (symbol,)): saturation ends
    as soon as it is accepted.  budget bounds the transitions saturation
    adds; past it the result is marked exhausted.
    """
    targets = tuple(targets)
    if not set(targets) <= set(pds.controls):
        raise ValueError("targets must be controls of the system")
    stop_key = None
    if stop is not None:
        control, word = stop
        if len(word) != 1:
            raise ValueError("a stop configuration has a one-symbol stack word")
        stop_key = (control, word[0])
    return PreStarAutomaton(pds, targets, *_saturate(pds, targets, stop_key, budget))


def pre_star_fixpoint(pds, targets, sink):
    """The pre* transition set, re-scanning every rule until a pass adds nothing.

    Automaton states are the controls plus sink; the initial automaton has
    (p, g, sink) for every target control and the sink itself, and every
    symbol g.
    """
    trans = {(p, g, sink) for p in (*targets, sink) for g in pds.alphabet}
    changed = True
    while changed:
        changed = False
        for rule in pds.rules:
            ends = {rule.p2}
            for symbol in rule.push:
                ends = {q2 for q, a, q2 in trans if q in ends and a == symbol}
            new = {(rule.p, rule.gamma, q) for q in ends}
            if not new <= trans:
                trans |= new
                changed = True
    return trans


# ---------------------------------------------------------------------------
# Counter machines: the cutoff search and the binary encoding, references
# for the pre* counter backend


def counter_cutoff(rm: RegisterMachine) -> int:
    """The witness-sufficient counter bound: (|Q| * (N+1)^|R|) squared."""
    n = len(rm.states) * (rm.bound + 1) ** len(rm.registers)
    return n * n


def solve_counter_cutoff(
    rm: RegisterMachine, cap: int | None = None, budget: int = 1_000_000
) -> Verdict:
    """Counter machines: breadth-first search over values up to the cutoff.

    A dec self-loop on the target makes the cutoff argument apply: runs
    that would exceed it can be shortened, so values above it are blocked
    rather than pruned.  A cap below the cutoff turns a closed search into
    inconclusive; reachable verdicts always stand.
    """
    if rm.adt.kind not in ("counter", "weak-counter"):
        raise ModelError("solve_counter_cutoff needs a counter machine")
    bound = counter_cutoff(rm)
    effective = bound if cap is None else min(bound, cap)
    augmented = replace(
        rm, delta=rm.delta + ((rm.q_target, AdtOp("dec"), rm.q_target),))
    r = explore(augmented.initial_configuration(),
                functools.partial(rm_step, augmented),
                lambda c: c.state == rm.q_target, budget=budget,
                prune=lambda c: c.value > effective)
    stats = Stats(r.explored, r.depth)
    if r.outcome == REACHED:
        return Verdict(REACHABLE, witness=_replayed(rm, r.path, "cutoff"), stats=stats)
    if r.outcome == BUDGET or effective < bound:
        return Verdict(INCONCLUSIVE, stats=stats, closed=False)
    return Verdict(UNREACHABLE, stats=stats)


def binarize_counter(rm: RegisterMachine, bound: int) -> RegisterMachine:
    """Replace the counter by ceil(log2(bound+1)) bit registers.

    inc is a ripple-carry over the bits, guarded so the value never
    exceeds bound; dec is the borrow chain, blocking at zero; iszero reads
    every bit as 0.  The result runs over the trivial data type.
    """
    if rm.adt.kind not in ("counter", "weak-counter"):
        raise ModelError("binarize_counter needs a counter machine")
    if bound < 1:
        raise ModelError("bound must be >= 1")
    nbits = max(1, (bound).bit_length())
    reg_gs = _Gensym(rm.registers)
    bits = [reg_gs.fresh() for _ in range(nbits)]
    gs = _Gensym(rm.states)
    new_bound = max(rm.bound, 1)
    edges: list[RmEdge] = []

    def ripple_inc(q: str, q2: str) -> None:
        # allowed only while the current value is strictly below bound
        lt = gs.fresh()
        cur = q
        for j in reversed(range(nbits)):
            if (bound >> j) & 1:
                edges.append((cur, read(bits[j], 0), lt))
                nxt = gs.fresh()
                edges.append((cur, read(bits[j], 1), nxt))
                cur = nxt
            else:
                nxt = gs.fresh()
                edges.append((cur, read(bits[j], 0), nxt))
                cur = nxt
        # falling through means value == bound: no inc edge from cur
        cur = lt
        for j in range(nbits):
            f = gs.fresh()
            edges.append((cur, read(bits[j], 1), f))
            nxt = gs.fresh()
            edges.append((f, write(bits[j], 0), nxt))
            done = gs.fresh()
            edges.append((cur, read(bits[j], 0), done))
            edges.append((done, write(bits[j], 1), q2))
            cur = nxt

    def ripple_dec(q: str, q2: str) -> None:
        cur = q
        for j in range(nbits):
            f = gs.fresh()
            edges.append((cur, read(bits[j], 0), f))
            nxt = gs.fresh()
            edges.append((f, write(bits[j], 1), nxt))
            done = gs.fresh()
            edges.append((cur, read(bits[j], 1), done))
            edges.append((done, write(bits[j], 0), q2))
            cur = nxt
        # all bits borrowed: the value was zero, the chain dead-ends

    for q, act, q2 in rm.delta:
        if isinstance(act, RegisterAction):
            edges.append((q, act, q2))
        elif act.name == "inc":
            ripple_inc(q, q2)
        elif act.name == "dec":
            ripple_dec(q, q2)
        elif act.name == "iszero":
            cur = q
            for j, b in enumerate(bits):
                nxt = q2 if j == nbits - 1 else gs.fresh()
                edges.append((cur, read(b, 0), nxt))
                cur = nxt
        elif act.name == RESET:
            cur = q
            for j, b in enumerate(bits):
                nxt = q2 if j == nbits - 1 else gs.fresh()
                edges.append((cur, write(b, 0), nxt))
                cur = nxt
        else:  # pragma: no cover - counter ops are exactly these
            raise ModelError(f"unexpected counter op {act}")

    states = list(rm.states) + sorted(
        {q for e in edges for q in (e[0], e[2])} - set(rm.states)
    )
    return RegisterMachine(
        name=f"{rm.name}_bin",
        states=tuple(states),
        q_init=rm.q_init,
        q_target=rm.q_target,
        registers=rm.registers + tuple(bits),
        bound=new_bound,
        adt=trivial_spec(),
        delta=tuple(edges),
    )


# ---------------------------------------------------------------------------
# Data-type values and minimal-predecessor bases


def enumerate_values(spec: AdtSpec, max_size: int) -> list:
    """All well-formed values of size <= max_size."""
    kind = spec.kind
    if kind == "trivial":
        return [()]
    if kind in ("counter", "weak-counter"):
        return list(range(max_size + 1))
    if kind == "stack":
        return [
            w
            for n in range(max_size + 1)
            for w in itertools.product(spec.alphabet, repeat=n)
        ]
    if kind == "petri":
        out = []
        places = spec.places
        for counts in itertools.product(range(max_size + 1), repeat=len(places)):
            if sum(counts) <= max_size:
                out.append(mk_marking(dict(zip(places, counts))))
        return sorted(set(out))
    if kind == "multi-stack":
        words = [
            w
            for n in range(max_size + 1)
            for w in itertools.product(spec.alphabet, repeat=n)
        ]
        return [
            v
            for v in itertools.product(words, repeat=spec.count)
            if sum(len(s) for s in v) <= max_size
        ]
    if kind in ("ho-stack", "ho-counter", "ho-weak-counter"):
        return _enumerate_ho(spec.effective_alphabet, spec.level, max_size)
    raise AdtError(kind)


def _enumerate_ho(alphabet: tuple[str, ...], level: int, max_size: int) -> list:
    if level == 1:
        return [
            w
            for n in range(max_size + 1)
            for w in itertools.product(alphabet, repeat=n)
        ]
    out: list = [()]
    elems = _enumerate_ho(alphabet, level - 1, max_size - 1)
    frontier: list[tuple] = [()]
    while frontier:
        nxt = []
        for stack in frontier:
            used = _ho_size(stack, level)
            for e in elems:
                s = used + 1 + _ho_size(e, level - 1)
                if s <= max_size:
                    nxt.append(stack + (e,))
        out += nxt
        frontier = nxt
    return out


@dataclass(frozen=True)
class UpwardBasis:
    """A finite antichain of values denoting its upward closure."""

    elements: frozenset = field(default_factory=frozenset)

    @staticmethod
    def of(spec: AdtSpec, elements) -> "UpwardBasis":
        return UpwardBasis(frozenset(minimize(spec, elements)))

    def contains(self, spec: AdtSpec, v: AdtValue) -> bool:
        return any(wqo_leq(spec, b, v) for b in self.elements)


def minimize(spec: AdtSpec, elements) -> list:
    """Drop elements dominated by another (keep one copy of equals)."""
    elems = sorted(set(elements), key=repr)
    out: list = []
    for e in elems:
        if any(wqo_leq(spec, o, e) for o in out):
            continue
        out = [o for o in out if not wqo_leq(spec, e, o)]
        out.append(e)
    return out


def pre_min_upward(spec: AdtSpec, op: AdtOp, basis: UpwardBasis) -> UpwardBasis:
    """Minimal basis of the predecessors of the basis' upward closure."""
    pres: list = []
    for b in basis.elements:
        pres += pre_upward_element(spec, op, b)
    return UpwardBasis.of(spec, pres)


# ---------------------------------------------------------------------------
# Net-encoding reference for Petri machines: lower to tier I, encode control
# and registers as places, and search backward over the markings of that net


def petri_net_backward(
    rm: RegisterMachine, budget: int | None = None, record_history: bool = False
) -> tuple[BackwardResult, dict]:
    """Backward coverability on encode_rm_to_coverability_labelled(rm).

    rm must be a tier-I Petri machine.  Returns the search result and the
    net-transition -> machine-edge map.  The search keeps the encoding's
    place invariants (exactly one control token, one token per register),
    expands only transitions that supply a demanded place, and compares
    demands only when they share their control place.
    """
    inst, labelmap, invariants = encode_rm_to_coverability_labelled(rm)
    by_output: dict[str, list] = {}
    for t in inst.transitions:
        for p, _ in t.outputs:
            by_output.setdefault(p, []).append(t)

    def violates_invariant(m) -> bool:
        for places, k in invariants:
            if sum(c for p, c in m if p in places) > k:
                return True
        return False

    def preds(m):
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


def petri_net_reference(rm: RegisterMachine, budget: int | None = None) -> Verdict:
    """Verdict of the net-encoding route on a Petri machine of any tier.

    Higher tiers are lowered first, so a reachable witness is a run of the
    lowered machine, replayed there.
    """
    low = lower_tier2_to_tier1(lower_tier3_to_tier2(rm)) if rm.tier() > 1 else rm
    res, labelmap = petri_net_backward(low, budget)
    stats = Stats(res.explored, res.iterations, 0)
    if res.exhausted:
        return Verdict(INCONCLUSIVE, stats=stats, closed=False)
    if not res.coverable:
        return Verdict(UNREACHABLE, stats=stats)
    witness = _replayed(low, [labelmap[name] for name in res.chain], "petri net")
    return Verdict(REACHABLE, witness=witness, stats=stats)


def petri_backward_history(rm: RegisterMachine) -> list:
    """Basis snapshots per backward iteration of the net-encoding route."""
    res, _ = petri_net_backward(rm, record_history=True)
    return res.history


def wsts_backward_history(rm: RegisterMachine) -> list:
    """Basis snapshots per iteration of the package's backward coverability."""
    return _backward_cover(rm, record_history=True).history


# ---------------------------------------------------------------------------
# Pivot semantics over a full omega: the literal rules and one search per
# update sequence, independent of the package's lazy rules and search kernel


def _var_rank(omega: tuple[Message, ...], x: str) -> int | None:
    """Rank of the first message on x in omega (None = never overwritten)."""
    for i, (var, _) in enumerate(omega):
        if var == x:
            return i + 1
    return None


def pivot_step_reference(
    view: View,
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
) -> list[tuple[PivotLabel, View]]:
    """All successor views under the pivot inference rules, read literally
    over the view's full omega."""
    seq = UpdateSequence(view.omega)
    var_index = {x: i for i, x in enumerate(mem.variables)}
    out: list[tuple[PivotLabel, View]] = []
    for q, instr, q2 in proc.delta:
        if q != view.state:
            continue
        if instr.kind == "skip":
            out.append((PivotLabel("skip", instr),
                        View(q2, view.value, view.lw, view.omega,
                             view.phi_e, view.phi_l, view.phi_p)))
        elif instr.kind == "wr":
            i = var_index[instr.var]
            rank = seq.pos((instr.var, instr.val))
            if rank is None:
                continue  # a pivot missing from omega: the write is disabled
            if rank < view.phi_p:
                phl = max(view.phi_l_max, rank)
                out.append((PivotLabel("write1", instr),
                            View(q2, view.value,
                                 _replace(view.lw, i, instr.val), view.omega,
                                 view.phi_e, _replace(view.phi_l, i, phl),
                                 view.phi_p)))
            elif rank == view.phi_p:
                out.append((PivotLabel("write2", instr),
                            initial_view(proc, mem, adt, view.omega, view.phi_p + 1)))
        elif instr.kind == "rd":
            i = var_index[instr.var]
            if view.lw[i] == instr.val:
                out.append((PivotLabel("read1", instr),
                            View(q2, view.value, view.lw, view.omega,
                                 view.phi_e, view.phi_l, view.phi_p)))
            if instr.val == mem.d_init and view.lw[i] is None:
                vr = _var_rank(view.omega, instr.var)
                if vr is None or vr > view.phi_e:
                    out.append((PivotLabel("read2", instr),
                                View(q2, view.value, view.lw, view.omega,
                                     view.phi_e, view.phi_l, view.phi_p)))
            rank = seq.pos((instr.var, instr.val))
            if rank is not None and rank < view.phi_p:
                phe = max(view.phi_e, view.phi_l[i], rank)
                out.append((PivotLabel("read3", instr),
                            View(q2, view.value, view.lw, view.omega,
                                 phe, view.phi_l, view.phi_p)))
        elif instr.kind == "mf":
            out.append((PivotLabel("fence", instr),
                        View(q2, view.value, view.lw, view.omega,
                             max(view.phi_e, view.phi_l_max), view.phi_l,
                             view.phi_p)))
        elif instr.kind == "op":
            for v2 in sorted(step_unchecked(adt, view.value, instr.op), key=repr):
                out.append((PivotLabel("op", instr),
                            View(q2, v2, view.lw, view.omega,
                                 view.phi_e, view.phi_l, view.phi_p)))
    return out


def differentiated_words(messages: tuple[Message, ...], max_len: int | None = None):
    """All differentiated words over the messages, shortest first, each
    length block in lexicographic order."""
    msgs = sorted(messages)
    top = len(msgs) if max_len is None else min(max_len, len(msgs))
    for length in range(top + 1):
        yield from itertools.permutations(msgs, length)


def pivot_reach_enumerated(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    value_bound: int | None = None,
    budget: int = 2_000_000,
) -> Verdict:
    """Reference engine: one explicit search per update sequence, over
    pivot_step_reference."""
    t0 = time.monotonic()
    explored = 0
    iterations = 0
    pruned = False
    for omega in differentiated_words(mem.messages()):
        iterations += 1
        v0 = initial_view(proc, mem, adt, omega, 1)
        parents: dict = {v0: None}
        frontier = [v0]
        if proc.q_final == v0.state:
            return Verdict(REACHABLE, witness=(format_omega(omega),),
                           stats=Stats(explored, iterations, 0))
        while frontier:
            next_frontier = []
            for view in frontier:
                for label, v2 in pivot_step_reference(view, proc, mem, adt):
                    if v2 in parents:
                        continue
                    if value_bound is not None and value_size(adt, v2.value) > value_bound:
                        pruned = True
                        continue
                    parents[v2] = (view, label)
                    explored += 1
                    if explored >= budget:
                        return Verdict(INCONCLUSIVE,
                                       stats=Stats(explored, iterations, 0), closed=False)
                    if v2.state == proc.q_final:
                        labels = []
                        k = v2
                        while parents[k] is not None:
                            k, lab = parents[k]
                            labels.append(lab)
                        labels.reverse()
                        millis = int((time.monotonic() - t0) * 1000)
                        return Verdict(REACHABLE,
                                       witness=(format_omega(omega),)
                                       + tuple(str(l) for l in labels),
                                       stats=Stats(explored, iterations, millis))
                    next_frontier.append(v2)
            frontier = next_frontier
    millis = int((time.monotonic() - t0) * 1000)
    if pruned:
        return Verdict(INCONCLUSIVE, stats=Stats(explored, iterations, millis),
                       closed=False)
    return Verdict(UNREACHABLE, stats=Stats(explored, iterations, millis))
