"""Verdicts, the default resource limits, and the breadth-first search
kernel.  The kernel serves the searches of the oracle, the pivot semantics
and the solvers, and, through follow_labels, the replays of oracle and
pivot witnesses by their printed labels.

conclude makes every verdict from how its search stopped: one of the
kernel's stops (see Search), or bounds, the oracle's, which is reachable
with a witness and otherwise inconclusive.  An inconclusive report names
the limit on a reason line: budget, value_bound (for pruned) or bounds."""

from __future__ import annotations

from dataclasses import dataclass, field

REACHABLE = "reachable"
UNREACHABLE = "unreachable"
INCONCLUSIVE = "inconclusive"

# how a search stopped
REACHED = "reached"
CLOSED = "closed"
BUDGET = "budget"
PRUNED = "pruned"
BOUNDS = "bounds"

# each stop's outcomes, and the limit an inconclusive report names for it
_OUTCOMES = {REACHED: (REACHABLE,), CLOSED: (UNREACHABLE,), BUDGET: (INCONCLUSIVE,),
             PRUNED: (INCONCLUSIVE,), BOUNDS: (REACHABLE, INCONCLUSIVE)}
_REASONS = {BUDGET: "budget", PRUNED: "value_bound", BOUNDS: "bounds"}

# the one default of each limit, for the library and the CLI alike
DEFAULT_BUDGET = 1_000_000  # explored states
DEFAULT_VALUE_BOUND = 8  # data value size


class WitnessError(RuntimeError):
    """A reachable witness that does not replay under its own semantics.

    This is a fault of the program, never of its input.
    """


@dataclass(frozen=True)
class Stats:
    explored: int = 0
    iterations: int = 0
    millis: int = 0


@dataclass(frozen=True)
class Verdict:
    """Outcome of a reachability query, as conclude makes it.

    stop is how the search stopped, and agrees with the outcome; witness
    holds printable labels and is present exactly when reachable.
    """

    outcome: str
    stop: str
    witness: tuple[str, ...] | None = None
    stats: Stats = field(default_factory=Stats)

    def __post_init__(self) -> None:
        assert (self.outcome == REACHABLE) == (self.witness is not None)
        assert self.outcome in _OUTCOMES[self.stop]

    @property
    def closed(self) -> bool:
        """True when no limit stopped the search."""
        return self.stop in (REACHED, CLOSED)

    @property
    def conclusive(self) -> bool:
        return self.outcome in (REACHABLE, UNREACHABLE)

    def exit_code(self) -> int:
        return {REACHABLE: 0, UNREACHABLE: 1, INCONCLUSIVE: 2}[self.outcome]

    def report(self, fmt: str) -> str:
        """The verdict as text, for reading, or as lines, one 'key: value'
        per line with no timing, for comparing runs byte for byte."""
        lines = [f"verdict: {self.outcome}"]
        if self.outcome == INCONCLUSIVE:
            lines.append(f"reason: {_REASONS[self.stop]}")
        s = self.stats
        if fmt == "lines":
            lines += [f"witness: {step}" for step in self.witness or ()]
            lines += [f"explored: {s.explored}", f"iterations: {s.iterations}",
                      f"closed: {1 if self.closed else 0}"]
        else:
            if self.witness is not None:
                lines += ["witness:", *(f"  {step}" for step in self.witness)]
            lines += ["stats:", f"  explored: {s.explored}", f"  iterations: {s.iterations}",
                      f"  millis: {s.millis}"]
        return "\n".join(lines) + "\n"


def conclude(stop: str, stats: Stats, witness: tuple[str, ...] | None = None) -> Verdict:
    """Reachable with the printed witness, unreachable when the search
    closed, and otherwise inconclusive."""
    outcome = REACHABLE if witness is not None else {CLOSED: UNREACHABLE}.get(stop, INCONCLUSIVE)
    return Verdict(outcome, stop, witness, stats)


# ---------------------------------------------------------------------------
# Breadth-first search kernel


@dataclass(frozen=True)
class Search:
    """What explore found.

    outcome is one of
      reached  final is a target and path lists the labels leading to it;
      budget   the state budget or max_depth stopped the search while
               states were left unexpanded;
      pruned   every kept state was expanded, but prune dropped some;
      closed   every reachable state was expanded and none is a target.
    explored counts the states recorded after the initial one, and depth
    the layers expanded.
    """

    outcome: str
    path: tuple | None
    final: object
    explored: int
    depth: int


def explore(init, successors, is_target, budget=None, prune=None, key=None,
            max_depth=None) -> Search:
    """Breadth-first search from init, layer by layer.

    successors(s) lists (label, s2) pairs in a fixed order, so the search
    and its witness are deterministic.  States with equal key(s) (the state
    itself by default) are one state.  Each successor is checked in this
    order: already seen, skipped; pruned (prune(s2) true), dropped, and the
    search can no longer be closed; recorded with its parent; a target,
    reached; the budget-th recorded state, budget.  max_depth bounds the
    number of layers expanded.
    """
    # parents maps a key to (parent state, label); the witness unwinds
    # through the parents' keys
    parents: dict = {init if key is None else key(init): None}
    explored = depth = 0
    pruned = False
    if is_target(init):
        return Search(REACHED, (), init, 0, 0)
    frontier = [init]
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier = []
        for s in frontier:
            for label, s2 in successors(s):
                k2 = s2 if key is None else key(s2)
                if k2 in parents:
                    continue
                if prune is not None and prune(s2):
                    pruned = True
                    continue
                parents[k2] = (s, label)
                explored += 1
                if is_target(s2):
                    labels = []
                    entry = parents[k2]
                    while entry is not None:
                        parent, label = entry
                        labels.append(label)
                        entry = parents[parent if key is None else key(parent)]
                    labels.reverse()
                    return Search(REACHED, tuple(labels), s2, explored, depth)
                if budget is not None and explored >= budget:
                    return Search(BUDGET, None, None, explored, depth)
                next_frontier.append(s2)
        frontier = next_frontier
    outcome = BUDGET if frontier else PRUNED if pruned else CLOSED
    return Search(outcome, None, None, explored, depth)


def follow_labels(init, successors, lines, is_final):
    """The last state of a run from init whose labels print as lines, one
    per step, and that ends where is_final holds; None when there is none.

    explore searches over (state, steps done) and keeps a successor only
    when its label prints as the next line.  More than one successor can
    match a line (two transitions may carry the same instruction), so
    following a witness may need search.
    """
    def step(node):
        s, i = node
        if i == len(lines):
            return []
        return [(None, (s2, i + 1)) for label, s2 in successors(s)
                if str(label) == lines[i]]

    r = explore((init, 0), step, lambda node: node[1] == len(lines) and is_final(node[0]))
    return r.final[0] if r.outcome == REACHED else None
