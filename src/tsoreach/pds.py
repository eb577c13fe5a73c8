"""Pushdown systems and pre*-saturation reachability.

Configurations are (control, stack word) with the topmost symbol leftmost.
The target set "control in T, any stack" is represented by a small finite
automaton; saturation adds an automaton transition for every way a rule can
reach an accepted configuration, so acceptance of the initial configuration
decides reachability.  Each added transition remembers the rule and the
automaton path that justified it, which lets us unwind an actual run.

Saturation is the worklist algorithm of Esparza, Hansel, Rossmanith and
Schwoon, "Efficient algorithms for model checking pushdown systems"
(CAV 2000; also Schwoon's 2002 thesis), in O(|P|^2 |rules|) time.  Rules
are indexed once by (p2, push[0]).  A pop rule (p, g) -> (q, ()) adds
(p, g, q) up front; every new transition t = (q, a, q1) then meets only
what it can complete:

- a rule (p, g) -> (q, (a,)) adds (p, g, q1);
- a rule (p, g) -> (q, (a, b)) becomes a pending push under (q1, b) and
  adds (p, g, q2) for every transition (q1, b, q2), present or later;
- a pending push waiting under (q, a) adds its (p, g, q1).

The successors of each (state, symbol) are kept as one bitmask over the
states a transition can end in (the sink and the controls pop rules move
to), and the worklist holds (state, symbol) keys rather than single
transitions: a key waits with all the successor bits it gained since it
last left the worklist, and a single bitmask operation passes them all on.

Without a stop, saturation runs to the (unique) fixpoint.  A stop
configuration (c, (s,)) ends it as soon as a transition (c, s, f) with f
accepting arrives: from then on the partial automaton accepts the stop
configuration and its provenance unwinds exactly like the fixpoint's.  A
budget bounds the transitions saturation adds; a result cut short by it is
marked exhausted and proves nothing about rejected configurations.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property

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
        declared = set(self.controls)
        for r in self.rules:
            if r.p not in declared or r.p2 not in declared:
                raise ValueError(f"rule uses undeclared control: {r}")
            if r.gamma not in self.alphabet or any(
                g not in self.alphabet for g in r.push
            ):
                raise ValueError(f"rule uses undeclared symbol: {r}")
            if len(r.push) > 2:
                raise ValueError("normalize rules to |push| <= 2 first")


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
    PreStarResult.justification.

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
class PreStarResult:
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
) -> PreStarResult:
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
    return PreStarResult(pds, targets, *_saturate(pds, targets, stop_key, budget))
