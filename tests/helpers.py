"""Independent oracles and test-only helpers used across the test suite.

The oracles deliberately re-implement the semantics they check with the
dumbest possible data structures, so a bug in the library's step functions
cannot hide in the oracle as well.  The helpers (value enumeration,
minimal-predecessor bases, backward-search history, the net-encoding
route for Petri machines, the counter cutoff search and binary encoding,
the worklist pre*-saturation that post* is checked against, pushdown
systems given by explicit rules and that of a stack machine with every
rule built up front, the full-omega pivot views, single steps of the TSO
rules and of a register action, and the oracle search without its
symmetry reduction, the checked data-type step, parsers that accept one
kind of file, the line loop the program and machine reader is checked
against, the automata printer, the net encoding without its labels, the
well-quasi-order test and the argparse parser the command line is checked
against) exist only for tests and so live here rather than in the package.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
import time
from collections import deque
from collections.abc import Set
from dataclasses import dataclass, field, replace
from functools import cached_property

from tsoreach import cli
from tsoreach.adt import (
    COUNTER_SYMBOL,
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
    stack_op,
    step_unchecked,
    trivial_spec,
    value_size,
    wqo,
)
from tsoreach.automata import CoverabilityInstance
from tsoreach.coverability import BackwardResult, backward_reach
from tsoreach.dsl import (
    _MEMORY,
    _REGISTERS,
    _SECTIONS,
    _TRANS,
    DslError,
    _at_line,
    _check_name,
    _lines,
    _split_names,
    _state_name,
    parse_action,
    parse_adt_line,
    parse_coverability,
    parse_input,
    parse_instruction,
)
from tsoreach.model import (
    Instruction,
    MemorySpec,
    Message,
    ModelError,
    ProcessDescription,
    Program,
    RegisterAction,
    RegisterMachine,
    RmEdge,
    _decode_action,
    _Gensym,
    lower_tier2_to_tier1,
    lower_tier3_to_tier2,
    read,
    rm_step,
    write,
)
from tsoreach.pds import PdsRule
from tsoreach.pivot import (
    PivotError,
    PivotLabel,
    PivotState,
    _pivot_rules,
    _replace,
    format_omega,
)
from tsoreach.solvers import _backward_cover, _control_closure, _replayed
from tsoreach.translate import encode_rm_to_coverability_labelled
from tsoreach.tso import (
    OracleBounds,
    TsoConfiguration,
    TsoLabel,
    _tso_rules,
    initial_configuration,
    replay_tso,
)
from tsoreach.verdict import (
    BUDGET,
    INCONCLUSIVE,
    REACHABLE,
    REACHED,
    UNREACHABLE,
    Stats,
    Verdict,
    WitnessError,
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


def edges_by_state_reference(rm: RegisterMachine) -> dict[str, list]:
    """The eager index that RegisterMachine.edges_from replaces: every
    state's outgoing edges in delta order, each with its action as a
    function from a register tuple to the successor tuple or None, read from
    register_successors (None for a data-type operation)."""
    def step(act):
        def apply(regs):
            succs = register_successors(rm, dict(zip(rm.registers, regs)), act)
            return tuple(succs[0][r] for r in rm.registers) if succs else None
        return apply

    by_state: dict[str, list] = {q: [] for q in rm.states}
    for edge in rm.delta:
        by_state[edge[0]].append(
            (edge, None if isinstance(edge[1], AdtOp) else step(edge[1])))
    return by_state


def assert_edges_match_reference(rm: RegisterMachine, assignments) -> None:
    """edges_from(q) holds q's own delta edges in delta order for every
    state, and each decoded action agrees with the reference on the given
    register assignments."""
    reference = edges_by_state_reference(rm)
    for q in rm.states:
        got = rm.edges_from(q)
        assert [e for e, _ in got] == [e for e, _ in reference[q]]
        for (edge, step), (ref_edge, ref_step) in zip(got, reference[q]):
            assert edge is ref_edge
            assert (step is None) == (ref_step is None)
            if step is not None:
                for regs in assignments:
                    assert step(regs) == ref_step(regs), (q, edge, regs)


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
                    v2 = step_unchecked(rm.adt, v, act)
                    succs = [] if v2 is None else [(dst, regs_t, v2)]
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


@dataclass(frozen=True)
class PushdownSystem:
    """A pushdown system given by all its rules, validated when it is made:
    the explicit form of pds.RulesOnDemand, read by post_star alike."""

    controls: tuple
    alphabet: tuple[str, ...]  # includes the bottom marker
    rules: tuple[PdsRule, ...]

    def __post_init__(self) -> None:
        declared, symbols = set(self.controls), set(self.alphabet)
        if len(declared) != len(self.controls):
            raise ValueError("controls must be distinct")
        for r in self.rules:
            if r.p not in declared or r.p2 not in declared:
                raise ValueError(f"rule uses undeclared control: {r}")
            if r.gamma not in symbols or not symbols.issuperset(r.push):
                raise ValueError(f"rule uses undeclared symbol: {r}")
            if len(r.push) > 2:
                raise ValueError("normalize rules to |push| <= 2 first")

    @cached_property
    def _by_head(self) -> dict:
        by_head: dict = {}
        for r in self.rules:
            by_head.setdefault((r.p, r.gamma), []).append((r.tag, r.p2, r.push))
        return by_head

    def moves(self, p, gamma):
        """The moves (tag, p2, push) of the rules at (p, gamma), in rule order."""
        return self._by_head.get((p, gamma), ())


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


def stack_pds_reference(rm: RegisterMachine):
    """(pds, start, targets): solve_stack's pushdown system, every rule built.

    The eager form of the moves solve_stack builds on demand: |alphabet|
    rules for every register-only, push and reset edge of the control
    closure, one per symbol, plus the drain rules of each reset control.
    post* over it must give solve_stack's verdict, iterations and witness.
    """
    counter = rm.adt.kind in ("counter", "weak-counter")
    init, _, edges_from = _control_closure(rm)
    stack_syms = (COUNTER_SYMBOL,) if counter else rm.adt.alphabet
    bottom = "_btm"
    while bottom in stack_syms:
        bottom += "_"
    alphabet = stack_syms + (bottom,)
    rules: list[PdsRule] = []
    reset_controls: dict = {}  # a repeated reset edge drains through one control
    for control, outs in edges_from.items():
        for label, control2 in outs:
            act = label[1]
            if isinstance(act, AdtOp) and act.name != RESET:
                name, arg = stack_op(act)
                if name == "push":
                    for g in alphabet:
                        rules.append(PdsRule(control, g, control2, (arg, g), label))
                elif name == "pop":
                    rules.append(PdsRule(control, arg, control2, (), label))
                else:  # isempty
                    rules.append(PdsRule(control, bottom, control2, (bottom,), label))
            elif isinstance(act, AdtOp):  # reset: drain the whole stack
                aux = (control, control2, "reset")
                reset_controls[aux] = None
                for g in alphabet:
                    rules.append(PdsRule(control, g, aux, (g,), label))
                for g in stack_syms:
                    rules.append(PdsRule(aux, g, aux, ()))
                rules.append(PdsRule(aux, bottom, control2, (bottom,)))
            else:
                for g in alphabet:
                    rules.append(PdsRule(control, g, control2, (g,), label))
    pds = PushdownSystem(controls=tuple(edges_from) + tuple(reset_controls),
                         alphabet=alphabet, rules=tuple(rules))
    targets = [c for c in edges_from if c[0] == rm.q_target]
    return pds, (init, (bottom,)), targets


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
        return _enumerate_ho(effective_alphabet(spec), spec.level, max_size)
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


def wqo_leq(spec: AdtSpec, v1: AdtValue, v2: AdtValue) -> bool:
    """v1 <= v2 in the well-quasi-ordering of spec's values."""
    return wqo(spec).leq(v1, v2)


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
    pres = [pre_upward_element(spec, op, b) for b in basis.elements]
    return UpwardBasis.of(spec, [p for p in pres if p is not None])


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
            if not violates_invariant(m2):
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
# update sequence, independent of the package's lazy rules and search kernel,
# and the adapter that runs the package's rules on a full-omega view


@dataclass(frozen=True)
class UpdateSequence:
    """A differentiated word over the message set."""

    omega: tuple[Message, ...]

    def __post_init__(self) -> None:
        if len(set(self.omega)) != len(self.omega):
            raise PivotError("update sequence must be differentiated")

    def pos(self, m: Message) -> int | None:
        """1-based rank of m, or None when m does not occur."""
        try:
            return self.omega.index(m) + 1
        except ValueError:
            return None


@dataclass(frozen=True)
class View:
    """Configuration of the pivot transition system with the full omega."""

    state: str
    value: AdtValue
    lw: tuple[int | None, ...]  # last own write per variable, None = none
    omega: tuple[Message, ...]
    phi_e: int  # external pointer
    phi_l: tuple[int, ...]  # local pointer per variable
    phi_p: int  # progress pointer: rank this provider must supply

    @property
    def phi_l_max(self) -> int:
        return max(self.phi_l, default=0)


def initial_view(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    omega: tuple[Message, ...],
    k: int,
) -> View:
    """The view a fresh rank-k provider starts from."""
    UpdateSequence(omega)
    if not 1 <= k <= len(omega) + 1:
        raise PivotError(f"provider rank {k} outside 1..{len(omega) + 1}")
    nvars = len(mem.variables)
    return View(
        state=proc.q_init,
        value=adt.initial_value(),
        lw=(None,) * nvars,
        omega=omega,
        phi_e=0,
        phi_l=(0,) * nvars,
        phi_p=k,
    )


def pivot_step(
    view: View,
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
) -> list[tuple[PivotLabel, View]]:
    """All successor views under the package's pivot rules, keeping a
    handover only when its pivot is the next message of the view's omega."""
    # the rules see the prefix below phi_p
    s = PivotState(view.state, view.value, view.lw, view.phi_e, view.phi_l,
                   view.omega[:view.phi_p - 1])
    out = []
    for label, s2 in _pivot_rules(proc, mem, adt)(s):
        phi_p = len(s2.prefix) + 1
        if view.omega[:phi_p - 1] == s2.prefix:
            out.append((label, View(s2.state, s2.value, s2.lw, view.omega,
                                    s2.phi_e, s2.phi_l, phi_p)))
    return out


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
            if instr.val == 0 and view.lw[i] is None:
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
            if (v2 := step_unchecked(adt, view.value, instr.op)) is not None:
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


# ---------------------------------------------------------------------------
# Single steps of the package's TSO rules and register semantics, and the
# oracle search without its symmetry reduction


def tso_step(
    cfg: TsoConfiguration,
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
) -> list[tuple[TsoLabel, TsoConfiguration]]:
    """All successors under the six rule families."""
    return _tso_rules(proc, mem, adt)(cfg)


def apply_action(
    rm: RegisterMachine, regs: tuple[int, ...], act: RegisterAction
) -> tuple[int, ...] | None:
    """Successor register assignment under act, a register action over rm's
    registers, or None when act is disabled."""
    return _decode_action(act, rm.register_indices, rm.bound)(regs)


def _canonical_key_repr(cfg: TsoConfiguration):
    return (tuple(sorted(zip(cfg.states, map(repr, cfg.values), cfg.buffers))), cfg.memory)


def bounded_reach_unreduced(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    bounds: OracleBounds = OracleBounds(),
) -> Verdict:
    """tso.bounded_reach without its reductions and its memo: the search
    runs over whole configurations, every process is expanded, every buffer
    and value of every successor is checked against the bounds, and the
    canonical key sorts the repr of the values.  Its report must equal
    bounded_reach's byte for byte."""
    t0 = time.monotonic()
    rules = _tso_rules(proc, mem, adt)

    def successors(cfg: TsoConfiguration):
        return [(label, c2) for label, c2 in rules(cfg)
                if all(len(b) <= bounds.buffer_max for b in c2.buffers)
                and all(value_size(adt, v) <= bounds.adt_size_max for v in c2.values)]

    final = proc.q_final
    explored = 0
    for n in range(1, bounds.n_max + 1):
        r = explore(initial_configuration(proc, mem, adt, n), successors,
                    lambda cfg: final in cfg.states, key=_canonical_key_repr,
                    max_depth=bounds.step_max)
        explored += r.explored
        if r.outcome == REACHED:
            witness = tuple(str(label) for label in r.path)
            try:
                replay_tso(proc, mem, adt, n, witness, require_final=final)
            except ValueError as e:
                raise WitnessError(f"oracle witness does not replay: {e}") from e
            return Verdict(
                REACHABLE, witness=witness,
                stats=Stats(explored, n, int((time.monotonic() - t0) * 1000)),
                closed=False,
            )
    return Verdict(
        INCONCLUSIVE,
        stats=Stats(explored, bounds.n_max, int((time.monotonic() - t0) * 1000)),
        closed=False,
    )


# ---------------------------------------------------------------------------
# Builders of an instruction and a register action that only tests use


def mf() -> Instruction:
    return Instruction("mf")


def inc(r: str) -> RegisterAction:
    return RegisterAction("inc", r)


# ---------------------------------------------------------------------------
# The checked data-type step, parsers that accept one kind of file, the
# automata printer and the net encoding without its labels


def effective_alphabet(spec: AdtSpec) -> tuple[str, ...]:
    # ho-counter variants behave as ho-stacks over one symbol
    if spec.kind in ("ho-counter", "ho-weak-counter"):
        return (COUNTER_SYMBOL,)
    return spec.alphabet


def check_value(spec: AdtSpec, v: AdtValue) -> None:
    """Raise AdtError unless v is well-formed for spec.kind."""
    kind = spec.kind
    if kind == "trivial":
        ok = v == ()
    elif kind in ("counter", "weak-counter"):
        ok = isinstance(v, int) and v >= 0
    elif kind in ("stack", "ho-stack", "ho-counter", "ho-weak-counter"):
        ok = _check_ho(v, spec.level, effective_alphabet(spec))
    elif kind == "multi-stack":
        ok = (isinstance(v, tuple) and len(v) == spec.count
              and all(_check_ho(s, 1, spec.alphabet) for s in v))
    elif kind == "petri":
        ok = (
            isinstance(v, tuple)
            and v == mk_marking(dict(v))
            and all(p in spec.places for p, _ in v)
        )
    else:
        ok = False
    if not ok:
        raise AdtError(f"malformed {kind} value: {v!r}")


def _check_ho(v: AdtValue, level: int, alphabet: tuple[str, ...]) -> bool:
    if level == 1:
        return isinstance(v, tuple) and all(g in alphabet for g in v)
    return isinstance(v, tuple) and all(_check_ho(e, level - 1, alphabet) for e in v)


def adt_step(spec: AdtSpec, v: AdtValue, op: AdtOp) -> AdtValue | None:
    """The successor of v under op, or None when op is disabled at v.

    Every kind is deterministic, so a step is a partial function.  An
    operation spec does not admit, or a malformed v, raises AdtError
    rather than reporting "disabled".
    """
    check_value(spec, v)
    spec.validate_op(op)
    return step_unchecked(spec, v, op)


def parse_program(text: str) -> Program:
    """Parse and fully validate a TSO program file."""
    prog = parse_input(text)
    if not isinstance(prog, Program):
        raise DslError("expected exactly one process section")
    return prog


def parse_machine(text: str) -> RegisterMachine:
    """Parse and fully validate a register machine file."""
    rm = parse_input(text)
    if not isinstance(rm, RegisterMachine):
        raise DslError("expected exactly one machine section")
    return rm


def _parse_lines(text: str) -> Program | RegisterMachine:
    """The reference reader of program and machine files that
    dsl.parse_input is checked against: one loop over the file's lines,
    with no row pattern.
    Errors are kept while the lines are read and raised in the phase order
    of the dsl module docstring."""
    kind = None
    preamble: list[tuple[int, str]] = []
    header: tuple[int, str] | None = None  # line and text of the first section
    n_sections = 0
    body = None  # the first section's keyword while its lines are read
    registers: tuple[str, ...] | None = None
    bound = 0
    states: list[str] = []
    declared: set[str] = set()
    marked: dict[str, str | None] = {"init": None, "target": None}
    delta: list = []
    delta_lines: list[int] = []  # each transition's line
    reg_line = None
    parsed: dict[str, object] = {}  # instruction or action text -> object or DslError
    reg_error = line_error = extra_error = None
    suspect: list[tuple[int, int]] = []  # (edge, line): text failed, or endpoint undeclared yet
    for i, line in _lines(text):
        toks = line.split(None, 5)
        head = toks[0]
        if head in _SECTIONS:
            n_sections += 1
            if kind is None and head in ("process", "machine"):
                kind = head
            body = None
            if n_sections == 1:  # kind is head, or None for an automaton
                header = (i, line)
                body = kind
            continue
        if n_sections == 0:
            preamble.append((i, line))
        elif body is None:
            continue
        elif head == "trans":
            # 'trans Q -> Q : TEXT' with alphanumeric Q: the groups _TRANS gives
            if (len(toks) == 6 and toks[2] == "->" and toks[4] == ":"
                    and toks[1].isalnum() and toks[3].isalnum()):
                _, q, _, q2, _, what = toks
            else:
                m = _TRANS.match(line)
                if m is None:
                    line_error = line_error or DslError(f"bad trans line: {line!r}", i)
                    continue
                q, q2, what = m.groups()
            item = parsed.get(what)
            if item is None:
                try:
                    item = (parse_action if body == "machine" else parse_instruction)(what, i)
                except DslError as e:
                    item = e
                    suspect.append((len(delta), i))
                parsed[what] = item
            if q not in declared or q2 not in declared:
                suspect.append((len(delta), i))
            delta.append((q, item, q2))
            delta_lines.append(i)
        elif head == "state":
            if len(toks) == 6:  # the sixth is the rest of the line
                toks = line.split()
            try:
                name = _state_name(toks, i)
                states.append(name)
                declared.add(name)
                for flag in toks[2:]:
                    if flag not in marked:
                        raise DslError(f"unknown state flag {flag!r}", i)
                    if marked[flag] is not None:
                        raise DslError(f"duplicate {flag} state", i)
                    marked[flag] = name
            except DslError as e:
                line_error = line_error or e
        elif body == "machine" and head == "registers" and (m := _REGISTERS.match(line)):
            try:
                if registers is not None:
                    raise DslError("duplicate registers line", i)
                registers = _split_names(m.group(1) or "-", "register", i)
                bound = int(m.group(2))
                reg_line = i
            except DslError as e:
                reg_error = reg_error or e
        else:
            extra_error = extra_error or DslError(f"unexpected line: {line!r}", i)

    if kind is None:
        raise DslError("no process or machine section found")
    mem = adt = None
    for i, line in preamble:
        head = line.split(None, 1)[0]
        if head == "memory" and kind == "process":
            if mem is not None:
                raise DslError("duplicate memory line", i)
            m = _MEMORY.match(line)
            if not m:
                raise DslError("expected: memory vars x,y domain 0..k", i)
            mem = _at_line(i, MemorySpec, _split_names(m.group(1), "variable", i), int(m.group(2)))
        elif head == "adt":
            if adt is not None:
                raise DslError("duplicate adt line", i)
            adt = _at_line(i, parse_adt_line, line[len("adt") :].strip(), i)
        else:
            raise DslError(f"unexpected line before section: {line!r}", i)
    adt = adt or trivial_spec()
    if n_sections != 1:
        raise DslError(f"expected exactly one {kind} section")
    if kind == "process" and mem is None:
        raise DslError("program needs a memory line")
    i0, header_line = header
    toks = header_line.split()
    if len(toks) != 2:
        raise DslError(f"expected: {kind} NAME", i0)
    name = _check_name(toks[1], kind, i0)
    if reg_error:
        raise reg_error
    if kind == "machine" and registers is None:
        raise DslError("machine needs a 'registers [names] bound N' line", i0)
    if line_error:
        raise line_error
    for flag in marked:
        if marked[flag] is None:
            raise DslError(f"{kind} needs a state marked {flag}", i0)
    if extra_error:
        raise extra_error
    for k, i in suspect:
        q, item, q2 = delta[k]
        if isinstance(item, DslError):
            raise item
        if q not in declared or q2 not in declared:
            raise DslError(f"transition uses undeclared state: {q} -> {q2}", i)
    try:
        if kind == "machine":
            return RegisterMachine(name, tuple(states), marked["init"], marked["target"],
                                   registers, bound, adt, tuple(delta))
        proc = ProcessDescription(name, tuple(states), marked["init"], marked["target"],
                                  tuple(delta))
        return Program(mem=mem, adt=adt, proc=proc)
    except ModelError as e:
        # an error of one transition names its line; the one other error a
        # parsed file can raise here is duplicate register names
        raise DslError(str(e), reg_line if e.edge is None else delta_lines[e.edge]) from e


def parse_input_reference(text: str):
    """What dsl.parse_input gives, by the reference readers: a file whose
    first process, machine or cover line is a cover line is a coverability
    file, any other a program or machine file."""
    kind_line = next(
        (ln.split()[0] for _, ln in _lines(text)
         if ln.split()[0] in ("process", "machine", "cover")),
        None,
    )
    if kind_line == "cover":
        return parse_coverability(text)
    return _parse_lines(text)


def print_automata(pdas, fsas) -> str:
    lines: list[str] = []
    for pda in pdas:
        lines.append(
            f"pda {pda.name} alphabet {','.join(pda.alphabet)} stack {','.join(pda.stack_alphabet)}"
        )
        for q in pda.states:
            flags = " init" if q == pda.initial else ""
            flags += " accept" if q in pda.accepting else ""
            lines.append(f"state {q}{flags}")
        for q, a, g, q2, w in pda.transitions:
            gs = g if g is not None else "-"
            ws = ",".join(w) if w else "-"
            lines.append(f"trans {q} {a} [{gs}/{ws}] -> {q2}")
    for fsa in fsas:
        lines.append(f"fsa {fsa.name} alphabet {','.join(fsa.alphabet)}")
        for q in fsa.states:
            flags = " init" if q == fsa.initial else ""
            flags += " accept" if q in fsa.accepting else ""
            lines.append(f"state {q}{flags}")
        for q, a, q2 in fsa.transitions:
            lines.append(f"trans {q} {a} -> {q2}")
    return "\n".join(lines) + "\n"


def encode_rm_to_coverability(rm: RegisterMachine) -> CoverabilityInstance:
    return encode_rm_to_coverability_labelled(rm)[0]


# ---------------------------------------------------------------------------
# The command line as argparse reads it, the reference cli._parse is checked
# against: one subparser per row of cli._SUBCOMMANDS, gen recording each flag
# it is given in args.given


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code collides with
        self.print_usage(sys.stderr)  # the inconclusive verdict
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(cli.EXIT_USAGE)

    def _get_values(self, action, arg_strings):
        # '--flag=--' gives the flag the value '--'; argparse before 3.13
        # drops that '--' as the end of the options and stores an empty list
        values = super()._get_values(action, list(arg_strings))
        if action.option_strings and values == []:
            return super()._get_values(action, ["--", *arg_strings])
        return values


class _Given(argparse.Action):
    """Stores the value and records the flag in args.given, default or not."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])


def reference_parser() -> argparse.ArgumentParser:
    p = _ReferenceParser(prog="tsoreach", description=cli.__doc__,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True,
                           parser_class=_ReferenceParser)
    for name, (help_, flags) in cli._SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_,
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if name != "gen":
            sp.add_argument("input", help="input file (DSL text)")
        given = {"action": _Given} if name == "gen" else {}
        for flag in flags.split():
            sp.add_argument(flag, **cli._FLAGS[flag], **given)
    return p
