"""Pushdown systems and post*-saturation reachability.

Configurations are (control, stack word) with the topmost symbol leftmost.
post_star decides whether a run from one start configuration reaches a
target control, whatever the stack.  The targets are a predicate on
controls, not a set: a system whose moves are built on demand lists no
controls up front.  post_star saturates a finite automaton that accepts
configurations reachable from the start, beginning with the automaton
that accepts only the start: the algorithm of Esparza, Hansel, Rossmanith
and Schwoon, "Efficient algorithms for model checking pushdown systems"
(CAV 2000; Schwoon's 2002 thesis, Algorithm 2).

post* asks a system for its moves one (control, symbol) pair at a time,
when it first takes a transition leaving that control on that symbol, and
keeps the answer.  A move is (tag, p2, push): the rule (p, gamma) -> (p2,
push).  RulesOnDemand builds the moves of a pair from a function when
asked, so the rules of controls and symbols the start never reaches are
never built, and neither are those controls, when the function builds
them on demand too.

Automaton states are ints, numbered as saturation discovers them: the
controls from 0 up, and below 0 the accepting state, which the start
transition enters, and one intermediate state per (p2, push[0]) of a push
move.  No transition ever enters a control.  Each transition
(p, g, q) leaving a control p in the worklist meets the moves at (p, g):

- a pop (p2, ()) adds the epsilon transition (p2, eps, q);
- a move (p2, (a,)) adds (p2, a, q);
- a move (p2, (a, b)) adds (m, b, q) and (p2, a, m), m being the
  intermediate state of (p2, a).

An epsilon transition (p, eps, q) makes p inherit every transition
leaving q, those present when it is taken and those added to q later.
Only intermediate states gain transitions during saturation, so the
(m, b, q) transitions skip the worklist and are combined at once with the
epsilon transitions already entering m.  post_star adds every transition
inline in its one loop, with no recursion, so it holds no reference cycle:
its automaton is freed as soon as the result is dropped, without the
cyclic garbage collector.

The result names how saturation stopped in the words of verdict.explore,
so verdict.conclude reads it as it is.  It is reached at the first
transition that leaves a target control, on a symbol or by epsilon: the
automaton then accepts a configuration (target, w) that the start
reaches.  A start whose control is a target is reached with an empty run.
It is closed at the fixpoint, which accepts exactly the reachable
configurations.  It is budget when saturation would add more transitions
than its budget, which bounds the transitions, not the moves it asks for;
such a result proves nothing.

Every transition records how it was first derived: the move and the
transition it came from, or the two transitions an epsilon combined.  A
witness unwinds an accepting path of the reached configuration back to
the start (Schwoon's thesis, section 3.3): the first transition of the
path is replaced by what it was derived from, and the move, if any, is one
step of the run, read backwards.  A push transition into an intermediate
state is unwound together with the transition after it, which names the
move and the source.  Derivations only mention earlier transitions, so
the unwinding ends, at the start transition.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from itertools import count

from .verdict import BUDGET, CLOSED, REACHED, explore


@dataclass(frozen=True)
class PdsRule:
    """(p, gamma) -> (p2, push); push has length at most 2 after normalization."""

    p: object
    gamma: str
    p2: object
    push: tuple[str, ...]
    tag: object = None  # carried into witnesses; None steps are internal


@dataclass(repr=False)
class RulesOnDemand:
    """A pushdown system whose moves at (p, gamma) are built when asked.

    moves_at(p, gamma) returns the moves (tag, p2, push) at that pair, each
    push at most two symbols.
    """

    moves_at: object
    built: dict = field(default_factory=dict)  # (p, gamma) -> its moves

    def moves(self, p, gamma):
        """The moves at (p, gamma), built now and recorded in built."""
        moves = self.built[(p, gamma)] = self.moves_at(p, gamma)
        return moves

    @property
    def rules(self) -> tuple[PdsRule, ...]:
        """The rules built so far, in the order their pairs were asked."""
        return tuple(PdsRule(p, g, p2, push, tag)
                     for (p, g), moves in self.built.items()
                     for tag, p2, push in moves)


EPS = None  # the label of an epsilon transition


@dataclass
class PostStarResult:
    """The saturated automaton, and how saturation stopped.

    States are ints: the controls from 0 up, in the order saturation reached
    them, and the other states negative.  transitions maps each transition
    (state, symbol or EPS, state) to its first derivation (move, sources):
    (None, ()) for the start transition, (move, ()) for a push into an
    intermediate state, (move, (t,)) for a move applied to t, and (None,
    (eps, t)) for an epsilon combined with the transition after it.  A
    move's first item is its tag.  out lists the transitions leaving each
    non-control state.
    """

    transitions: dict
    out: dict
    final: int  # the accepting state
    stop: str  # reached, closed or budget
    last: tuple | None = None  # the transition that left a target control, if any

    def _path_to_final(self, state) -> list:
        """Transitions from a non-control state to the accepting state."""
        r = explore(state, lambda q: [(t, t[2]) for t in self.out.get(q, ())],
                    lambda q: q == self.final)
        if r.outcome != REACHED:  # pragma: no cover - every target leads on
            raise AssertionError("dead end in the post* automaton")
        return list(r.path)

    def witness(self):
        """The tags of a run from the start configuration to a target."""
        if self.stop != REACHED:
            raise ValueError("no target reached")
        if self.last is None:
            return []
        why = self.transitions
        path = [self.last, *self._path_to_final(self.last[2])]
        tags = []
        while True:
            move, sources = why[path[0]]
            if move is None and not sources:  # the start transition: done
                tags.reverse()
                return tags
            if move is None:
                path[:1] = sources
                continue
            if not sources:  # a push: the next transition knows its source
                move, sources = why[path[1]]
                path[:2] = sources
            else:
                path[:1] = sources
            if move[0] is not None:
                tags.append(move[0])


def post_star(pds, start, is_target, budget: int | None = None) -> PostStarResult:
    """Saturate forwards from start = (control, symbol), one symbol on the
    stack, until a transition leaves a control where is_target holds.

    pds has moves(p, gamma), as RulesOnDemand does; saturation asks it for
    the moves of each (control, symbol) pair it reaches, once, and calls
    is_target once on each control it reaches.  budget bounds the
    transitions saturation adds; past it saturation stops at budget.
    """
    ids: dict = {}  # control -> state
    names: list = []  # state -> control, for the control states
    target: list = []  # state -> whether its control is a target
    others = count(-1, -1)  # the accepting and intermediate states

    def intern(c) -> int:
        s = ids.get(c)
        if s is None:
            s = ids[c] = len(names)
            names.append(c)
            target.append(is_target(c))
        return s

    # (state, gamma) -> [(move, s2, a, to)]: the move adds (s2, a, q) for a
    # transition (state, gamma, q), or (s2, a, to) if to is not None
    by_head: dict = {}
    mids: dict = {}  # (p2, push[0]) -> intermediate state
    why: dict = {}  # transition -> its first derivation
    out: dict = {}  # non-control state -> transitions leaving it
    eps_into: dict = {}  # state -> controls with an epsilon into it, taken
    worklist: deque = deque()
    control, symbol = start
    final = next(others)
    start_t = (intern(control), symbol, final)
    why[start_t] = (None, ())
    worklist.append(start_t)
    stopped = functools.partial(PostStarResult, why, out, final)
    if target[start_t[0]]:
        return stopped(REACHED)
    # saturation stops at budget rather than add a transition past this many
    limit = len(why) + budget if budget is not None else float("inf")

    # Every transition goes in here, inline: one a move adds leaving a control
    # is checked against the targets and queued (an epsilon was, so what it
    # combines into leaves no target), one leaving an intermediate state is
    # combined at once with the epsilon transitions into that state
    while worklist:
        t = worklist.popleft()
        p, g, q = t
        if g is EPS:
            eps_into.setdefault(q, []).append(p)
            for t2 in out.get(q, ()):
                t3 = (p, t2[1], t2[2])
                if t3 not in why:
                    if len(why) >= limit:
                        return stopped(BUDGET)
                    why[t3] = (None, (t, t2))
                    worklist.append(t3)
            continue
        moves = by_head.get((p, g))
        if moves is None:
            moves = by_head[(p, g)] = []
            for move in pds.moves(names[p], g):
                p2, push = intern(move[1]), move[2]
                if len(push) < 2:
                    moves.append((move, p2, push[0] if push else EPS, None))
                    continue
                m = mids.get((p2, push[0]))
                if m is None:
                    m = mids[(p2, push[0])] = next(others)
                moves.append((move, m, push[1], None))
                moves.append((move, p2, push[0], m))
        for move, s2, a, to in moves:
            if to is None:
                t2, sources = (s2, a, q), (t,)
            else:  # a push's transition into its intermediate state
                t2, sources = (s2, a, to), ()
            if t2 in why:
                continue
            if len(why) >= limit:
                return stopped(BUDGET)
            why[t2] = (move, sources)
            if s2 >= 0:
                if target[s2]:
                    return stopped(REACHED, t2)
                worklist.append(t2)
                continue
            out.setdefault(s2, []).append(t2)
            for p3 in eps_into.get(s2, ()):
                t3 = (p3, a, q)
                if t3 not in why:
                    if len(why) >= limit:
                        return stopped(BUDGET)
                    why[t3] = (None, ((p3, EPS, s2), t2))
                    worklist.append(t3)
    return stopped(CLOSED)


# perfbench/tracing.py still names the result class this way
PreStarResult = PostStarResult
