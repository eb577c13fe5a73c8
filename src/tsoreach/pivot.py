"""The pivot abstraction for parameterized TSO reachability.

Instead of unboundedly many processes with unbounded buffers, a single
abstract process (the provider) is simulated at a time.  A differentiated
word omega fixes the order in which distinct messages first reach memory;
the rank-k provider replays the process that supplies the rank-k message
and then hands over to the next provider.  A state records the provider's
control state, data value, last writes, and three pointers into omega.

Only the already-provided prefix of omega (ranks below the progress
pointer) is ever consulted by a rule, so a state carries just that prefix
and extends it when a provider finishes (``PivotState``).  The rules are
written once, over that prefix (``_pivot_rules``), and the search kernel
``verdict.explore`` runs them both for the search (``pivot_search``) and,
through ``verdict.follow_labels``, for the replay of a witness by its
printed labels (``replay_pivot``).  A label carries the index of the
process transition it takes, which the lift to the translated machine
reads; the reachable verdict keeps the search path as its run.

``pivot_reach``, which the ``pivot`` and ``crosscheck`` commands call, is
the search followed by the replay of its witness.  ``check`` calls
``pivot_search`` alone and lifts the search path; the lift's walk of the
translated machine's gadgets is the replay of the witness ``check``
prints.  The literal all-omega rules and search that this engine is
validated against live in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .adt import AdtSpec, AdtValue, step_unchecked, trivial_spec, value_pruner
from .model import Instruction, MemorySpec, Message, ProcessDescription
from .verdict import (
    CLOSED,
    DEFAULT_BUDGET,
    DEFAULT_VALUE_BOUND,
    PRUNED,
    REACHED,
    Stats,
    Verdict,
    WitnessError,
    explore,
    follow_labels,
)


class PivotError(ValueError):
    pass


@dataclass(frozen=True)
class PivotLabel:
    """A pivot step: its rule, its instruction, and the index in the
    process's delta of the transition it takes (not printed)."""

    rule: str  # skip | write1 | write2 | read1 | read2 | read3 | fence | op
    instr: Instruction
    k: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.rule}: {self.instr}"


def _replace(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1 :]


@dataclass(frozen=True)
class PivotState:
    """Configuration of the pivot transition system: the provider's state,
    data value, last own write per variable (None = none), external and
    local pointers, and the provided prefix of omega.  The progress pointer
    is len(prefix) + 1."""

    state: str
    value: AdtValue
    lw: tuple[int | None, ...]
    phi_e: int
    phi_l: tuple[int, ...]
    prefix: tuple[Message, ...]


def _fresh_provider(proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec,
                    prefix: tuple[Message, ...]) -> PivotState:
    nvars = len(mem.variables)
    return PivotState(proc.q_init, adt.initial_value(), (None,) * nvars, 0,
                      (0,) * nvars, prefix)


def _pivot_rules(proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec):
    """The pivot inference rules of one program, indexed once.

    Returns a function from a state to its (label, successor) pairs.
    Every rule consults only the ranks of the provided prefix: a write of a
    message already in it is write1, and a write of any other message is
    write2, which makes that message the next pivot and hands over to a
    fresh provider with the extended prefix.
    """
    var_index = {x: i for i, x in enumerate(mem.variables)}
    by_state: dict[str, list] = {q: [] for q in proc.states}
    for k, (q, instr, q2) in enumerate(proc.delta):
        by_state[q].append((k, instr, q2))

    def successors(s: PivotState) -> list[tuple[PivotLabel, PivotState]]:
        phi_l_max = max(s.phi_l, default=0)
        rank = {m: i + 1 for i, m in enumerate(s.prefix)}
        out: list[tuple[PivotLabel, PivotState]] = []
        for k, instr, q2 in by_state[s.state]:
            # skip, read1 and read2 only move the provider to q2
            moved = PivotState(q2, s.value, s.lw, s.phi_e, s.phi_l, s.prefix)
            if instr.kind == "skip":
                out.append((PivotLabel("skip", instr, k), moved))
            elif instr.kind == "wr":
                m = (instr.var, instr.val)
                i = var_index[instr.var]
                if m in rank:
                    phl = max(phi_l_max, rank[m])
                    out.append((PivotLabel("write1", instr, k),
                                PivotState(q2, s.value, _replace(s.lw, i, instr.val),
                                           s.phi_e, _replace(s.phi_l, i, phl), s.prefix)))
                else:
                    out.append((PivotLabel("write2", instr, k),
                                _fresh_provider(proc, mem, adt, s.prefix + (m,))))
            elif instr.kind == "rd":
                m = (instr.var, instr.val)
                i = var_index[instr.var]
                if s.lw[i] == instr.val:
                    out.append((PivotLabel("read1", instr, k), moved))
                if instr.val == 0 and s.lw[i] is None:
                    # the first message on x; one beyond the prefix also lies
                    # beyond phi_e, which never reaches the progress pointer
                    vr = min((r for mm, r in rank.items() if mm[0] == instr.var),
                             default=None)
                    if vr is None or vr > s.phi_e:
                        out.append((PivotLabel("read2", instr, k), moved))
                if m in rank:
                    phe = max(s.phi_e, s.phi_l[i], rank[m])
                    out.append((PivotLabel("read3", instr, k),
                                PivotState(q2, s.value, s.lw, phe, s.phi_l, s.prefix)))
            elif instr.kind == "mf":
                out.append((PivotLabel("fence", instr, k),
                            PivotState(q2, s.value, s.lw,
                                       max(s.phi_e, phi_l_max), s.phi_l, s.prefix)))
            elif instr.kind == "op":
                if (v2 := step_unchecked(adt, s.value, instr.op)) is not None:
                    out.append((PivotLabel("op", instr, k),
                                PivotState(q2, v2, s.lw, s.phi_e, s.phi_l, s.prefix)))
        return out

    return successors


# ---------------------------------------------------------------------------
# Reachability search


def format_omega(omega: tuple[Message, ...]) -> str:
    return "omega: " + "; ".join(f"{x}={d}" for x, d in omega)


def parse_omega(line: str) -> tuple[Message, ...]:
    """The messages of an omega line as format_omega prints it."""
    head, _, body = line.partition(":")
    if head != "omega":
        raise PivotError(f"not an omega line: {line!r}")
    if not body.strip():
        return ()
    try:
        return tuple((x.strip(), int(d)) for x, d in (p.split("=") for p in body.split(";")))
    except ValueError as e:
        raise PivotError(f"malformed omega line: {line!r}") from e


def pivot_search(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    value_bound: int | None = DEFAULT_VALUE_BOUND,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Decide pivot reachability of the process target state, without
    replaying the witness; a reachable verdict's run is the search path,
    whose labels carry their transition indices.

    Exact unless data values were pruned (value_bound; None prunes none)
    or the budget ran out, in which case the verdict degrades to
    inconclusive.  Every rule only consults ranks below the progress
    pointer, so a branch carries the provided prefix of omega instead of a
    full guessed sequence; a finished provider extends the prefix with its
    pivot.

    A search that pruned values is followed by a data-free one with the
    budget left, every op a skip under the trivial type.  Data operations
    only guard the provider's own steps, so dropping them only adds runs:
    if that search closes, the target is unreachable.  Counts add up both.
    """
    t0 = time.monotonic()
    final = proc.q_final

    def search(process, spec, limit, prune=None):
        return explore(_fresh_provider(process, mem, spec, ()), _pivot_rules(process, mem, spec),
                       lambda s: s.state == final, budget=limit, prune=prune)

    r = search(proc, adt, budget, value_pruner(adt, value_bound))
    explored, iterations = r.explored, r.explored + 1
    if r.outcome == PRUNED:
        free = replace(proc, delta=tuple((q, Instruction("skip") if i.kind == "op" else i, q2)
                                         for q, i, q2 in proc.delta))
        free_r = search(free, trivial_spec(), budget - r.explored)
        explored, iterations = explored + free_r.explored, iterations + free_r.explored + 1
        if free_r.outcome == CLOSED:
            r = free_r
    witness = None
    if r.outcome == REACHED:
        witness = (format_omega(r.final.prefix),) + tuple(str(l) for l in r.path)
    return r.verdict(Stats(explored, iterations, int((time.monotonic() - t0) * 1000)),
                     witness, r.path)


def pivot_reach(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    value_bound: int | None = DEFAULT_VALUE_BOUND,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """pivot_search, with a reachable witness replayed by replay_pivot
    before it is returned."""
    v = pivot_search(proc, mem, adt, value_bound, budget)
    if v.witness is not None:
        try:
            replay_pivot(proc, mem, adt, v.witness, require_final=proc.q_final)
        except PivotError as e:
            raise WitnessError(f"pivot witness does not replay: {e}") from e
    return v


def replay_pivot(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    witness: tuple[str, ...],
    require_final: str | None = None,
) -> PivotState:
    """Replay a pivot witness, its omega line and then one printed label per
    step, under the pivot rules; returns the final state.

    The run is found with follow_labels, and a handover counts only when
    the provided prefix stays a prefix of the witness's omega.  With
    require_final set, only completions ending in that state count.
    """
    omega = parse_omega(witness[0] if witness else "")
    if len(set(omega)) != len(omega):
        raise PivotError("update sequence must be differentiated")
    rules = _pivot_rules(proc, mem, adt)

    def successors(s: PivotState) -> list[tuple[PivotLabel, PivotState]]:
        return [(label, s2) for label, s2 in rules(s)
                if s2.prefix == omega[:len(s2.prefix)]]

    final = follow_labels(_fresh_provider(proc, mem, adt, ()), successors, witness[1:],
                          lambda s: require_final is None or s.state == require_final)
    if final is None:
        raise PivotError("witness does not replay under the pivot rules")
    return final


