"""Pushdown systems and post*-saturation reachability.

Configurations are (control, stack word) with the topmost symbol leftmost.
post_star decides whether a run from one start configuration reaches a
target control, whatever the stack.  It saturates a finite automaton that
accepts configurations reachable from the start, beginning with the
automaton that accepts only the start: the algorithm of Esparza, Hansel,
Rossmanith and Schwoon, "Efficient algorithms for model checking pushdown
systems" (CAV 2000; Schwoon's 2002 thesis, Algorithm 2).

post* asks a system for its moves one (control, symbol) pair at a time,
when it first takes a transition leaving that control on that symbol, and
keeps the answer.  A move is (tag, p2, push): the rule (p, gamma) -> (p2,
push).  RulesOnDemand builds the moves of a pair from a function when
asked, so the rules of controls and symbols the start never reaches are
never built.

Automaton states are ints, numbered as saturation discovers them: the
controls from 0 up, and below 0 one state after each start-word symbol
(the last one accepting) and one intermediate state per (p2, push[0]) of
a push move.  No transition ever enters a control.  Each transition
(p, g, q) leaving a control p in the worklist meets the moves at (p, g):

- a pop (p2, ()) adds the epsilon transition (p2, eps, q);
- a move (p2, (a,)) adds (p2, a, q);
- a move (p2, (a, b)) adds (m, b, q) and (p2, a, m), m being the
  intermediate state of (p2, a).

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
transitions saturation adds, not the moves it asks for; a result cut short
by it is marked exhausted and proves nothing.

Every transition records how it was first derived: the move and the
transition it came from, or the two transitions an epsilon combined.  A
witness unwinds an accepting path of the reached configuration back to
the start (Schwoon's thesis, section 3.3): the first transition of the
path is replaced by what it was derived from, and the move, if any, is one
step of the run, read backwards.  A push transition into an intermediate
state is unwound together with the transition after it, which names the
move and the source.  Derivations only mention earlier transitions, so
the unwinding ends, at the start word's own transitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count

from .verdict import REACHED, explore


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
    push at most two symbols.  controls holds the controls a start or a
    target may name; moves may lead to further controls.
    """

    controls: object
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


class _Reached(Exception):
    """A transition leaves a target control."""


class _OutOfBudget(Exception):
    """Saturation would add more transitions than its budget."""


EPS = None  # the label of an epsilon transition


@dataclass
class PostStarResult:
    """The saturated automaton, and the stop if a target was reached.

    States are ints: the controls from 0 up, in the order saturation reached
    them, and the other states negative.  transitions maps each transition
    (state, symbol or EPS, state) to its first derivation (move, sources):
    (None, ()) for the start word's own, (move, ()) for a push into an
    intermediate state, (move, (t,)) for a move applied to t, and (None,
    (eps, t)) for an epsilon combined with the transition after it.  A
    move's first item is its tag.  out lists the transitions leaving each
    non-control state.
    """

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
            move, sources = why[path[0]]
            if move is None and not sources:  # the start word: done
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


def post_star(pds, start, targets, budget: int | None = None) -> PostStarResult:
    """Saturate forwards from start = (control, word) until a target is left.

    pds has controls and moves(p, gamma), as RulesOnDemand does; saturation
    asks it for the moves of each (control, symbol) pair it reaches, once.
    budget bounds the transitions saturation adds; past it the result is
    marked exhausted.
    """
    control, word = start
    word = tuple(word)
    if not word:
        raise ValueError("the start configuration needs a nonempty stack")
    targets = set(targets)
    if control not in pds.controls or not all(c in pds.controls for c in targets):
        raise ValueError("start and targets must be controls of the system")

    ids: dict = {}  # control -> state
    names: list = []  # state -> control, for the control states
    is_target: list = []
    others = count(-1, -1)  # the intermediate and start-word states

    def intern(c) -> int:
        s = ids.get(c)
        if s is None:
            s = ids[c] = len(names)
            names.append(c)
            is_target.append(c in targets)
        return s

    by_head: dict = {}  # (state, gamma) -> [(move, p2, push, intermediate state)]
    mids: dict = {}  # (p2, push[0]) -> intermediate state
    why: dict = {}  # transition -> its first derivation
    out: dict = {}  # non-control state -> transitions leaving it
    eps_into: dict = {}  # state -> controls with an epsilon into it, taken
    worklist: deque = deque()
    last = None
    exhausted = False
    found = control in targets
    # the start word: control -w0-> s1 -w1-> ... -> final
    s = next(others)
    start_t = (intern(control), word[0], s)
    why[start_t] = (None, ())
    worklist.append(start_t)
    for g in word[1:]:
        t = (s, g, next(others))
        why[t] = (None, ())
        out[s] = [t]
        s = t[2]
    final = s
    added = 0

    def add(t, move, sources) -> None:
        nonlocal added, last
        if t in why:
            return
        added += 1
        if budget is not None and added > budget:
            raise _OutOfBudget
        why[t] = (move, sources)
        if t[0] >= 0:
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
            moves = by_head.get((p, g))
            if moves is None:
                moves = by_head[(p, g)] = []
                for move in pds.moves(names[p], g):
                    p2, push = intern(move[1]), move[2]
                    m = None
                    if len(push) == 2:
                        m = mids.get((p2, push[0]))
                        if m is None:
                            m = mids[(p2, push[0])] = next(others)
                    moves.append((move, p2, push, m))
            for move, p2, push, m in moves:
                if not push:
                    add((p2, EPS, q), move, (t,))
                elif m is None:
                    add((p2, push[0], q), move, (t,))
                else:
                    add((m, push[1], q), move, (t,))
                    add((p2, push[0], m), move, ())
    except _Reached:
        found = True
    except _OutOfBudget:
        exhausted = True
    return PostStarResult((control, word), why, out, final, found, last, exhausted)


# perfbench/tracing.py and the tests still name the result class this way
PreStarResult = PostStarResult
