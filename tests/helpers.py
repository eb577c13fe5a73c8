"""Independent oracles used across the test suite.

These deliberately re-implement the semantics they check with the dumbest
possible data structures, so a bug in the library's step functions cannot
hide in the oracle as well.
"""

from __future__ import annotations

import itertools

from tsoreach.adt import AdtOp, step_unchecked
from tsoreach.model import RegisterMachine


def rm_reachable_brute(rm: RegisterMachine) -> bool:
    """Fixpoint over explicit (state, register dict, value) sets.

    Interprets every action tier directly from its definition; suitable for
    machines whose reachable value space is finite (trivial data type, or
    bounded counters at test scale).
    """
    def val(regs: dict, o):
        return regs[o] if isinstance(o, str) else o

    def act_successors(regs: dict, act):
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
            return [{**regs, act.x: val(regs, act.y)}]
        rel = {
            "cke": lambda a, b: a == b,
            "ckne": lambda a, b: a != b,
            "ckl": lambda a, b: a < b,
            "ckg": lambda a, b: a > b,
            "ckle": lambda a, b: a <= b,
            "ckge": lambda a, b: a >= b,
        }[k]
        return [regs] if rel(val(regs, act.x), val(regs, act.y)) else []

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
                    succs = [(dst, freeze(r2), v) for r2 in act_successors(regs, act)]
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
