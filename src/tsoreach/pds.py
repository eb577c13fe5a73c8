"""Pushdown systems and post*-saturation reachability.

Configurations are (control, stack word) with the topmost symbol leftmost.
post_star decides whether a run from one start configuration reaches a
target control, whatever the stack.  It saturates a finite automaton that
accepts configurations reachable from the start, beginning with the
automaton that accepts only the start: the algorithm of Esparza, Hansel,
Rossmanith and Schwoon, "Efficient algorithms for model checking pushdown
systems" (CAV 2000; Schwoon's 2002 thesis, Algorithm 2).

Automaton states are the controls, one state after each start-word
symbol (the last one accepting) and one intermediate state per (p2,
push[0]) of a push rule.  No transition ever enters a control.  Each
transition (p, g, q) leaving a control p in the worklist meets the rules
at (p, g):

- a pop rule (p, g) -> (p2, ()) adds the epsilon transition (p2, eps, q);
- a rule (p, g) -> (p2, (a,)) adds (p2, a, q);
- a rule (p, g) -> (p2, (a, b)) adds (m, b, q) and (p2, a, m), m being
  the intermediate state of (p2, a).

An epsilon transition (p, eps, q) makes p inherit every transition
leaving q, those present when it is taken and those added to q later.
Only intermediate states gain transitions during saturation, so the
(m, b, q) transitions skip the worklist and are combined at once with the
epsilon transitions already entering m.

Saturation stops at the first transition that leaves a target control,
on a symbol or by epsilon: the automaton then accepts a configuration
(target, w) that the start reaches.  A start whose control is a target is
reached with an empty run.  Without a stop it runs to the fixpoint, which
accepts exactly the reachable configurations.  A budget bounds the
transitions saturation adds; a result cut short by it is marked exhausted
and proves nothing.

Every transition records how it was first derived: the rule and the
transition it came from, or the two transitions an epsilon combined.  A
witness unwinds an accepting path of the reached configuration back to
the start (Schwoon's thesis, section 3.3): the first transition of the
path is replaced by what it was derived from, and the rule, if any, is one
step of the run, read backwards.  A push transition into an intermediate
state is unwound together with the transition after it, which names the
rule and the source.  Derivations only mention earlier transitions, so
the unwinding ends, at the start word's own transitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .verdict import REACHED, explore


@dataclass(frozen=True)
class PdsRule:
    """(p, gamma) -> (p2, push); push has length at most 2 after normalization."""

    p: object
    gamma: str
    p2: object
    push: tuple[str, ...]
    tag: object = None  # carried into witnesses; None steps are internal


@dataclass(frozen=True)
class PushdownSystem:
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


class _Reached(Exception):
    """A transition leaves a target control."""


class _OutOfBudget(Exception):
    """Saturation would add more transitions than its budget."""


EPS = None  # the label of an epsilon transition


@dataclass
class PostStarResult:
    """The saturated automaton, and the stop if a target was reached.

    States are ints: controls first, in pds.controls order.  transitions
    maps each transition (state, symbol or EPS, state) to its first
    derivation (rule, sources): (None, ()) for the start word's own,
    (rule, ()) for a push into an intermediate state, (rule, (t,)) for a
    rule applied to t, and (None, (eps, t)) for an epsilon combined with
    the transition after it.  out lists the transitions leaving each
    non-control state.
    """

    pds: PushdownSystem
    start: tuple
    transitions: dict
    out: dict
    final: int  # the accepting state
    found: bool  # a target control was reached
    last: tuple | None  # the stopping transition; None for a target start
    exhausted: bool = False  # the budget ended saturation early

    def _check_start(self, control, word) -> None:
        if (control, tuple(word)) != self.start:
            raise ValueError("post* answers only for its start configuration")

    def accepts(self, control, word) -> bool:
        """Whether the start configuration (control, word) reaches a target."""
        self._check_start(control, word)
        return self.found

    def _path_to_final(self, state) -> list:
        """Transitions from a non-control state to the accepting state."""
        r = explore(state, lambda q: [(t, t[2]) for t in self.out.get(q, ())],
                    lambda q: q == self.final)
        if r.outcome != REACHED:  # pragma: no cover - every target leads on
            raise AssertionError("dead end in the post* automaton")
        return list(r.path)

    def witness(self, control, word):
        """The tags of a run from the start configuration to a target."""
        self._check_start(control, word)
        if not self.found:
            raise ValueError("no target reached")
        if self.last is None:
            return []
        why = self.transitions
        path = [self.last, *self._path_to_final(self.last[2])]
        tags = []
        while True:
            rule, sources = why[path[0]]
            if rule is None and not sources:  # the start word: done
                tags.reverse()
                return tags
            if rule is None:
                path[:1] = sources
                continue
            if not sources:  # a push: the next transition knows its source
                rule, sources = why[path[1]]
                path[:2] = sources
            else:
                path[:1] = sources
            if rule.tag is not None:
                tags.append(rule.tag)


def post_star(
    pds: PushdownSystem, start, targets, budget: int | None = None
) -> PostStarResult:
    """Saturate forwards from start = (control, word) until a target is left.

    budget bounds the transitions saturation adds; past it the result is
    marked exhausted.
    """
    control, word = start
    word = tuple(word)
    if not word:
        raise ValueError("the start configuration needs a nonempty stack")
    ids = {c: i for i, c in enumerate(pds.controls)}
    if control not in ids or not set(targets) <= ids.keys():
        raise ValueError("start and targets must be controls of the system")
    is_target = [False] * len(ids)
    for c in targets:
        is_target[ids[c]] = True
    found = is_target[ids[control]]

    by_head: dict = {}  # (p, gamma) -> [(rule, p2, push, intermediate state)]
    mids: dict = {}  # (p2, push[0]) -> intermediate state
    for r in pds.rules:
        p2 = ids[r.p2]
        m = None
        if len(r.push) == 2:
            m = mids.setdefault((p2, r.push[0]), len(ids) + len(mids))
        by_head.setdefault((ids[r.p], r.gamma), []).append((r, p2, r.push, m))

    why: dict = {}  # transition -> its first derivation
    out: dict = {}  # non-control state -> transitions leaving it
    eps_into: dict = {}  # state -> controls with an epsilon into it, taken
    worklist: deque = deque()
    last = None
    exhausted = False
    # the start word: control -w0-> s1 -w1-> ... -> final
    s = len(ids) + len(mids)
    start_t = (ids[control], word[0], s)
    why[start_t] = (None, ())
    worklist.append(start_t)
    for g in word[1:]:
        t = (s, g, s + 1)
        why[t] = (None, ())
        out[s] = [t]
        s += 1
    final = s
    added = 0

    def add(t, rule, sources) -> None:
        nonlocal added, last
        if t in why:
            return
        added += 1
        if budget is not None and added > budget:
            raise _OutOfBudget
        why[t] = (rule, sources)
        if t[0] < len(ids):
            if is_target[t[0]]:
                last = t
                raise _Reached
            worklist.append(t)
            return
        # a transition leaving an intermediate state: combine it now
        out.setdefault(t[0], []).append(t)
        for p in eps_into.get(t[0], ()):
            add((p, t[1], t[2]), None, ((p, EPS, t[0]), t))

    try:
        while worklist and not found:
            t = worklist.popleft()
            p, g, q = t
            if g is EPS:
                eps_into.setdefault(q, []).append(p)
                for t2 in out.get(q, ()):
                    add((p, t2[1], t2[2]), None, (t, t2))
                continue
            for rule, p2, push, m in by_head.get((p, g), ()):
                if not push:
                    add((p2, EPS, q), rule, (t,))
                elif m is None:
                    add((p2, push[0], q), rule, (t,))
                else:
                    add((m, push[1], q), rule, (t,))
                    add((p2, push[0], m), rule, ())
    except _Reached:
        found = True
    except _OutOfBudget:
        exhausted = True
    return PostStarResult(pds, (control, word), why, out, final, found, last, exhausted)


# perfbench/tracing.py and the tests still name the result class this way
PreStarResult = PostStarResult
