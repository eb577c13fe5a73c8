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
reads.

A state is a named tuple, so the search hashes and compares it in C.
One rules function keeps a rank table per distinct prefix it meets, and
builds the fresh provider a handover starts from once, so a state's
expansion costs the same whatever the length of its prefix (the prefix's
own hash and extension aside).  Over 60 ``gen.random_program`` programs
(12-16 states, 4-5 variables, seeds 0-19; budget 200,000) this took
``pivot_search`` from 5.2-5.7 s to 3.0 s in all (Python 3.11, 2-core
Xeon), with the same outcomes, counts and paths.

``pivot_search`` returns the search that decided and its stats.
``pivot_reach``, which the ``pivot`` and ``crosscheck`` commands call,
makes the verdict: it prints the witness, the omega line and the labels,
and replays it.  ``check`` calls ``pivot_search`` alone and lifts the
search's final prefix and path; the lift's walk of the translated
machine's gadgets is the replay of the witness ``check`` prints.  The
literal all-omega rules and search that this engine is validated against
live in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import NamedTuple

from .adt import AdtSpec, AdtValue, step_unchecked, trivial_spec, value_pruner
from .model import Instruction, MemorySpec, Message, ProcessDescription
from .verdict import (
    CLOSED,
    DEFAULT_BUDGET,
    DEFAULT_VALUE_BOUND,
    PRUNED,
    REACHED,
    Search,
    Stats,
    Verdict,
    WitnessError,
    conclude,
    explore,
    follow_labels,
)


class PivotError(ValueError):
    pass


class PivotLabel(NamedTuple):
    """A pivot step: its rule, its instruction, and the index in the
    process's delta of the transition it takes (not printed)."""

    rule: str  # skip | write1 | write2 | read1 | read2 | read3 | fence | op
    instr: Instruction
    k: int

    def __str__(self) -> str:
        return f"{self.rule}: {self.instr}"


def _replace(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1 :]


class PivotState(NamedTuple):
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

    The returned function keeps, per distinct prefix it meets, the rank of
    each message and the first rank of each variable, so a state pays for
    them once per prefix rather than once per expansion.  The tables live
    as long as the function: one search, or one replay.
    """
    var_index = {x: i for i, x in enumerate(mem.variables)}
    # per transition its index, instruction, target, message and variable
    # index (None for an instruction that names no variable)
    by_state: dict[str, list] = {q: [] for q in proc.states}
    for k, (q, instr, q2) in enumerate(proc.delta):
        by_state[q].append((k, instr, q2, (instr.var, instr.val), var_index.get(instr.var)))
    q0, v0, lw0, _, phl0, _ = _fresh_provider(proc, mem, adt, ())
    tables: dict[tuple[Message, ...], tuple[dict, dict]] = {}

    def ranks(prefix: tuple[Message, ...]) -> tuple[dict, dict]:
        rank = {m: r for r, m in enumerate(prefix, 1)}
        first: dict[str, int] = {}
        for (x, _), r in rank.items():
            first.setdefault(x, r)
        tables[prefix] = rank, first
        return rank, first

    def successors(s: PivotState) -> list[tuple[PivotLabel, PivotState]]:
        state, value, lw, phi_e, phi_l, prefix = s
        rank, first = tables.get(prefix) or ranks(prefix)
        out: list[tuple[PivotLabel, PivotState]] = []
        for k, instr, q2, m, i in by_state[state]:
            kind = instr.kind
            if kind == "skip":
                out.append((PivotLabel("skip", instr, k),
                            PivotState(q2, value, lw, phi_e, phi_l, prefix)))
            elif kind == "wr":
                if m in rank:
                    phl = max(*phi_l, rank[m])
                    out.append((PivotLabel("write1", instr, k),
                                PivotState(q2, value, _replace(lw, i, instr.val), phi_e,
                                           _replace(phi_l, i, phl), prefix)))
                else:
                    out.append((PivotLabel("write2", instr, k),
                                PivotState(q0, v0, lw0, 0, phl0, prefix + (m,))))
            elif kind == "rd":
                if lw[i] == instr.val:
                    out.append((PivotLabel("read1", instr, k),
                                PivotState(q2, value, lw, phi_e, phi_l, prefix)))
                if instr.val == 0 and lw[i] is None:
                    # the first message on x; one beyond the prefix also lies
                    # beyond phi_e, which never reaches the progress pointer
                    vr = first.get(instr.var)
                    if vr is None or vr > phi_e:
                        out.append((PivotLabel("read2", instr, k),
                                    PivotState(q2, value, lw, phi_e, phi_l, prefix)))
                if m in rank:
                    phe = max(phi_e, phi_l[i], rank[m])
                    out.append((PivotLabel("read3", instr, k),
                                PivotState(q2, value, lw, phe, phi_l, prefix)))
            elif kind == "mf":
                out.append((PivotLabel("fence", instr, k),
                            PivotState(q2, value, lw, max(phi_e, max(phi_l, default=0)),
                                       phi_l, prefix)))
            elif kind == "op":
                if (v2 := step_unchecked(adt, value, instr.op)) is not None:
                    out.append((PivotLabel("op", instr, k),
                                PivotState(q2, v2, lw, phi_e, phi_l, prefix)))
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
) -> tuple[Search, Stats]:
    """Decide pivot reachability of the process target state: the search
    that decided, and the stats of the call.  A search that reached the
    target ends in a state whose prefix is the update sequence omega, and
    its path is the run's labels, which carry their transition indices.

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
    return r, Stats(explored, iterations, int((time.monotonic() - t0) * 1000))


def pivot_reach(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    value_bound: int | None = DEFAULT_VALUE_BOUND,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """The verdict of pivot_search, with a reachable witness, the omega
    line and then one label per step, replayed by replay_pivot before it
    is returned."""
    r, stats = pivot_search(proc, mem, adt, value_bound, budget)
    witness = None
    if r.outcome == REACHED:
        witness = (format_omega(r.final.prefix),) + tuple(map(str, r.path))
        try:
            replay_pivot(proc, mem, adt, witness, require_final=proc.q_final)
        except PivotError as e:
            raise WitnessError(f"pivot witness does not replay: {e}") from e
    return conclude(r.outcome, stats, witness)


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


