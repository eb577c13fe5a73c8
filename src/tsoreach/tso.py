"""Concrete TSO operational semantics for n identical processes.

Each process owns a FIFO store buffer: writes enqueue on the left, memory
updates dequeue on the right.  Reads consult the buffer first (most recent
pending write on the variable) and fall back to memory.  This module is a
bounded-exploration oracle: it can only find witnesses or report
not-found-within-bounds, never prove unreachability.

The six rule families are written once, as the local step of one process
(``_local_moves``): a process's moves depend only on its own state, data
value and buffer and on the shared memory.  ``_tso_rules`` lifts the local
step over every process index into configurations and labels; the search
kernel ``verdict.explore`` runs it, through ``verdict.follow_labels``, to
replay a witness by its printed labels (``replay_tso``).

The bounded search (``bounded_reach``) runs over interned process states.
Within one call it numbers each (state, value, buffer) it meets, so a
configuration is a tuple of process ids, in process order, and the memory.
It keeps the local moves of each (id, memory) the first time it asks for
them, with only the moves whose new buffer and value are within the
bounds; the numbering and this memo serve every n of the call and nothing
outlives it.  The processes are identical, so the search keys a
configuration by its multiset of ids, the ids sorted, and the memory (the
symmetry reduction of Emerson and Sistla, "Symmetry and model checking",
FMSD 1996).  A configuration carries its key, and a step, which replaces
one id, derives its key from its parent's without sorting.  The search
expands one process per group of equal ids: the steps of a later copy are
index permutations of the first copy's, which come earlier in the
successor list and have the same key, so the kernel would skip them as
already seen.  Since no step it would have recorded is lost,
``explored``, the witness and the report are those of expanding every
process.  Configurations are not sorted, so successors come in process
order and the witness names the indices of the run that replay follows.
Replay expands every process, because a valid witness may step any copy.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .adt import AdtOp, AdtSpec, AdtValue, step_unchecked, value_size
from .model import MemorySpec, Message, ProcessDescription
from .verdict import (
    DEFAULT_VALUE_BOUND,
    INCONCLUSIVE,
    REACHABLE,
    REACHED,
    Stats,
    Verdict,
    WitnessError,
    explore,
    follow_labels,
)


class TsoConfiguration(NamedTuple):
    """Per-process states, data values and buffers, plus the shared memory."""

    states: tuple[str, ...]
    values: tuple[AdtValue, ...]
    buffers: tuple[tuple[Message, ...], ...]
    memory: tuple[int, ...]  # aligned with MemorySpec.variables

    @property
    def n(self) -> int:
        return len(self.states)


class TsoLabel(NamedTuple):
    """An annotated step: which process did what."""

    proc: int
    kind: str  # rd | wr | skip | mf | op | upd
    var: str | None = None
    val: int | None = None
    op: AdtOp | None = None

    def __str__(self) -> str:
        if self.kind in ("rd", "wr", "upd"):
            return f"{self.proc}: {self.kind} {self.var} {self.val}"
        if self.kind == "op":
            return f"{self.proc}: op {self.op}"
        return f"{self.proc}: {self.kind}"


def initial_configuration(
    proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec, n: int
) -> TsoConfiguration:
    return TsoConfiguration(
        states=(proc.q_init,) * n,
        values=(adt.initial_value(),) * n,
        buffers=((),) * n,
        memory=(0,) * len(mem.variables),
    )


def lval(buffer: tuple[Message, ...], x: str) -> int | None:
    """Value of the most recently enqueued pending message on x, if any."""
    for var, val in buffer:  # leftmost entry is the newest
        if var == x:
            return val
    return None


def rval(buffer: tuple[Message, ...], memory_value: int, x: str) -> int:
    """Buffer value if pending, else the memory value."""
    v = lval(buffer, x)
    return memory_value if v is None else v


def _replace(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1 :]


def _local_moves(proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec):
    """The six rule families of one program, indexed once: a function from
    one process's state, value and buffer and the memory to that process's
    moves, in ``delta`` order with the memory update last.  A move is its
    label without a process index, as the tuple (kind, var, val, op) of the
    instruction or the update, the process's new (state, value, buffer)
    and the new memory.  A step
    changes only the process that takes it and the memory, so nothing else
    of the configuration enters."""
    var_index = {x: i for i, x in enumerate(mem.variables)}
    by_state: dict[str, list] = {q: [] for q in proc.states}
    for q, instr, q2 in proc.delta:
        by_state[q].append(((instr.kind, instr.var, instr.val, instr.op), q2))

    def moves(state: str, value: AdtValue, buf: tuple[Message, ...],
              memory: tuple[int, ...]) -> list:
        out = []
        for label, q2 in by_state[state]:
            kind, x, d, op = label
            # skip, and a fence once the buffer is empty, only move the state
            if kind == "skip" or (kind == "mf" and not buf):
                out.append((label, (q2, value, buf), memory))
            elif kind == "wr":
                out.append((label, (q2, value, ((x, d),) + buf), memory))
            elif kind == "rd":
                if rval(buf, memory[var_index[x]], x) == d:
                    out.append((label, (q2, value, buf), memory))
            elif kind == "op":
                if (v2 := step_unchecked(adt, value, op)) is not None:
                    out.append((label, (q2, v2, buf), memory))
        if buf:
            # memory update: dequeue the oldest message, write it to memory
            x, d = buf[-1]
            out.append((("upd", x, d, None), (state, value, buf[:-1]),
                        _replace(memory, var_index[x], d)))
        return out

    return moves


def _tso_rules(proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec):
    """The TSO rules of one program as a function from a configuration to
    the (label, successor) pairs of every process, process 0 first."""
    local = _local_moves(proc, mem, adt)

    def successors(cfg: TsoConfiguration) -> list[tuple[TsoLabel, TsoConfiguration]]:
        states, values, buffers, memory = cfg
        return [(TsoLabel(i, *label),
                 TsoConfiguration(_replace(states, i, q2), _replace(values, i, v2),
                                  _replace(buffers, i, b2), memory2))
                for i in range(cfg.n)
                for label, (q2, v2, b2), memory2 in local(states[i], values[i], buffers[i],
                                                          memory)]

    return successors


@dataclass(frozen=True)
class OracleBounds:
    n_max: int = 3
    step_max: int = 12
    buffer_max: int = 4
    adt_size_max: int = DEFAULT_VALUE_BOUND

    def __post_init__(self) -> None:
        if min(self.n_max, self.step_max, self.buffer_max) < 1 or self.adt_size_max < 0:
            raise ValueError("oracle bounds must be positive")


def bounded_reach(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    bounds: OracleBounds = OracleBounds(),
) -> Verdict:
    """Breadth-first search of the concrete semantics within the bounds.

    The verdict is reachable-with-witness or inconclusive; it never claims
    unreachability because the bounds truncate the space.  A witness is
    replayed with replay_tso before it is returned.
    """
    t0 = time.monotonic()
    local = _local_moves(proc, mem, adt)
    buffer_max, size_max = bounds.buffer_max, bounds.adt_size_max
    final = proc.q_final
    # a search state is (ids, memory): ids[i] numbers process i's (state,
    # value, buffer) in triples, in process order; the numbering, the
    # final ids and the memo of local moves serve every n of this call
    ids: dict = {}
    triples: list = []
    final_ids: set[int] = set()
    memo: dict = {}

    def intern(p) -> int:
        pid = ids.get(p)
        if pid is None:
            pid = ids[p] = len(triples)
            triples.append(p)
            if p[0] == final:
                final_ids.add(pid)
        return pid

    def moves(pid: int, memory: tuple[int, ...]) -> list:
        # a step changes only its own process, so from a configuration
        # within the bounds only the moved process needs checking.  An
        # initial value over the bound leaves every process but the moved
        # one over it, so with n >= 2 nothing is kept.
        m = memo.get((pid, memory))
        if m is None:
            m = memo[pid, memory] = [
                (label, intern(p2), memory2)
                for label, p2, memory2 in local(*triples[pid], memory)
                if len(p2[2]) <= buffer_max and value_size(adt, p2[1]) <= size_max]
        return m

    def successors(cfg):
        # one representative per group of identical processes: the steps of
        # a later copy are index permutations of the first copy's steps,
        # which come earlier in the list and share their key.  A step
        # replaces one id, so the successor's sorted ids are the parent's
        # without one copy of it, with the new id inserted by bisection
        pids, (ranked, memory) = cfg
        out = []
        for i, pid in enumerate(pids):
            if pids.index(pid) != i:
                continue
            j = ranked.index(pid)
            rest = ranked[:j] + ranked[j + 1:]
            for label, pid2, memory2 in moves(pid, memory):
                j = bisect_right(rest, pid2)
                out.append(((i, label), (pids[:i] + (pid2,) + pids[i + 1:],
                                         (rest[:j] + (pid2,) + rest[j:], memory2))))
        return out

    initial_over = value_size(adt, adt.initial_value()) > size_max
    start = intern((proc.q_init, adt.initial_value(), ()))
    memory0 = (0,) * len(mem.variables)
    explored = 0
    for n in range(1, bounds.n_max + 1):
        if initial_over and n > 1:
            continue
        r = explore(((start,) * n, ((start,) * n, memory0)), successors,
                    lambda cfg: not final_ids.isdisjoint(cfg[0]),
                    key=itemgetter(1), max_depth=bounds.step_max)
        explored += r.explored
        if r.outcome == REACHED:
            witness = tuple(str(TsoLabel(i, *label)) for i, label in r.path)
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


def replay_tso(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    n: int,
    labels,
    require_final: str | None = None,
) -> TsoConfiguration:
    """Replay a witness of n processes, one printed label per step, under the
    TSO rules with follow_labels; returns the final configuration and raises
    ValueError when no run of the rules prints the labels.  With
    require_final set, only completions where some process sits in that
    state count.
    """
    final = follow_labels(
        initial_configuration(proc, mem, adt, n), _tso_rules(proc, mem, adt),
        tuple(map(str, labels)),
        lambda cfg: require_final is None or require_final in cfg.states)
    if final is None:
        raise ValueError("witness does not replay under the TSO rules")
    return final
