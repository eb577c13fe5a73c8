"""Concrete TSO operational semantics for n identical processes.

Each process owns a FIFO store buffer: writes enqueue on the left, memory
updates dequeue on the right.  Reads consult the buffer first (most recent
pending write on the variable) and fall back to memory.  This module is a
bounded-exploration oracle: it can only find witnesses or report
not-found-within-bounds, never prove unreachability.

The six rule families are written once, as the steps of one process
(``_tso_moves``), and the search kernel ``verdict.explore`` runs them both
for the bounded search (``bounded_reach``) and, through
``verdict.follow_labels``, for the replay of a witness by its printed
labels (``replay_tso``).

The processes are identical, so the search keys a configuration by its
multiset of (state, value, buffer) triples and the memory (the symmetry
reduction of Emerson and Sistla, "Symmetry and model checking", FMSD
1996).  It expands one process per group of identical processes: the steps
of a later copy are index permutations of the first copy's, which come
earlier in the successor list and have the same key, so the kernel would
skip them as already seen.  Since no step it would have recorded is lost,
``explored``, the witness and the report are those of expanding every
process.  A step changes only its own process, so the search checks the
buffer and value bounds on that process alone.  Replay expands every
process, because a valid witness may step any copy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
        memory=(mem.d_init,) * len(mem.variables),
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


def _tso_moves(proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec):
    """The six rule families of one program, indexed once: a function from
    a configuration and a process index to the (label, successor) pairs of
    that process's steps.  A step changes only the state, value and buffer
    of the process that takes it, and the memory."""
    var_index = {x: i for i, x in enumerate(mem.variables)}
    by_state: dict[str, list] = {q: [] for q in proc.states}
    for q, instr, q2 in proc.delta:
        by_state[q].append((instr.kind, instr.var, instr.val, instr.op, q2))

    def moves(cfg: TsoConfiguration, i: int) -> list[tuple[TsoLabel, TsoConfiguration]]:
        out: list[tuple[TsoLabel, TsoConfiguration]] = []
        states, values, buffers, memory = cfg
        buf = buffers[i]
        before, after = states[:i], states[i + 1:]
        for kind, x, d, op, q2 in by_state[states[i]]:
            states2 = before + (q2,) + after
            # skip, and a fence once the buffer is empty, only move process i
            if kind == "skip" or (kind == "mf" and not buf):
                out.append((TsoLabel(i, kind),
                            TsoConfiguration(states2, values, buffers, memory)))
            elif kind == "wr":
                out.append((TsoLabel(i, kind, x, d),
                            TsoConfiguration(states2, values,
                                             _replace(buffers, i, ((x, d),) + buf), memory)))
            elif kind == "rd":
                if rval(buf, memory[var_index[x]], x) == d:
                    out.append((TsoLabel(i, kind, x, d),
                                TsoConfiguration(states2, values, buffers, memory)))
            elif kind == "op":
                if (v2 := step_unchecked(adt, values[i], op)) is not None:
                    out.append((TsoLabel(i, kind, op=op),
                                TsoConfiguration(states2, _replace(values, i, v2),
                                                 buffers, memory)))
        if buf:
            # memory update: dequeue the oldest message, write it to memory
            x, d = buf[-1]
            out.append((TsoLabel(i, "upd", x, d),
                        TsoConfiguration(states, values, _replace(buffers, i, buf[:-1]),
                                         _replace(memory, var_index[x], d))))
        return out

    return moves


def _tso_rules(proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec):
    """The TSO rules of one program as a function from a configuration to
    the (label, successor) pairs of every process, process 0 first."""
    moves = _tso_moves(proc, mem, adt)

    def successors(cfg: TsoConfiguration) -> list[tuple[TsoLabel, TsoConfiguration]]:
        return [m for i in range(cfg.n) for m in moves(cfg, i)]

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


def _canonical_key(cfg: TsoConfiguration):
    # processes share one description, so configurations equal up to index
    # permutation are interchangeable; the values of one data type are all
    # ints or all tuples of one shape, so they sort among themselves
    return (tuple(sorted(zip(cfg.states, cfg.values, cfg.buffers))), cfg.memory)


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
    moves = _tso_moves(proc, mem, adt)
    buffer_max, size_max = bounds.buffer_max, bounds.adt_size_max
    # a configuration is within the bounds when every buffer and value is;
    # a step changes only its own process, so from a configuration within
    # the bounds only that process needs checking.  An initial value over
    # the bound leaves every process but the moved one over it, so with
    # n >= 2 nothing is kept.
    initial_over = value_size(adt, adt.initial_value()) > size_max

    def successors(cfg: TsoConfiguration):
        # one representative per group of identical processes: the steps of
        # a later copy are index permutations of the first copy's steps,
        # which come earlier in the list and share their canonical key
        out = []
        expanded = set()
        for i, p in enumerate(zip(cfg.states, cfg.values, cfg.buffers)):
            if p in expanded:
                continue
            expanded.add(p)
            for label, c2 in moves(cfg, i):
                if (len(c2.buffers[i]) <= buffer_max
                        and value_size(adt, c2.values[i]) <= size_max):
                    out.append((label, c2))
        return out

    final = proc.q_final
    explored = 0
    for n in range(1, bounds.n_max + 1):
        if initial_over and n > 1:
            continue
        r = explore(initial_configuration(proc, mem, adt, n), successors,
                    lambda cfg: final in cfg.states, key=_canonical_key,
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
