"""The pivot abstraction for parameterized TSO reachability.

Instead of unboundedly many processes with unbounded buffers, a single
abstract process (the provider) is simulated at a time.  A differentiated
word omega fixes the order in which distinct messages first reach memory;
the rank-k provider replays the process that supplies the rank-k message
and then hands over to the next provider.  A view records the provider's
state, data value, last writes, and three pointers into omega.

The search builds omega lazily as it runs: only the already-provided
prefix (ranks below the progress pointer) is ever consulted by a rule, so
each branch carries just that prefix and extends it when a provider
finishes.  The rules are written once, over that prefix (``_pivot_rules``);
``pivot_step`` applies them to a view with a full omega by keeping a
handover only when its pivot is the next message of omega.  The literal
all-omega rules and search that the lazy engine is validated against live
in the test suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .adt import AdtSpec, AdtValue, step_unchecked, value_size
from .model import Instruction, MemorySpec, Message, ProcessDescription
from .verdict import REACHED, Stats, Verdict, WitnessError, explore


class PivotError(ValueError):
    pass


@dataclass(frozen=True)
class UpdateSequence:
    """A differentiated word over the message set."""

    omega: tuple[Message, ...]

    def __post_init__(self) -> None:
        if len(set(self.omega)) != len(self.omega):
            raise PivotError("update sequence must be differentiated")

    def pos(self, m: Message) -> int | None:
        """1-based rank of m, or None when m does not occur."""
        try:
            return self.omega.index(m) + 1
        except ValueError:
            return None


@dataclass(frozen=True)
class View:
    """Configuration of the pivot transition system."""

    state: str
    value: AdtValue
    lw: tuple[int | None, ...]  # last own write per variable, None = none
    omega: tuple[Message, ...]
    phi_e: int  # external pointer
    phi_l: tuple[int, ...]  # local pointer per variable
    phi_p: int  # progress pointer: rank this provider must supply

    @property
    def phi_l_max(self) -> int:
        return max(self.phi_l, default=0)


@dataclass(frozen=True)
class PivotLabel:
    rule: str  # skip | write1 | write2 | read1 | read2 | read3 | fence | op
    instr: Instruction

    def __str__(self) -> str:
        return f"{self.rule}: {self.instr}"


def initial_view(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    omega: tuple[Message, ...],
    k: int,
) -> View:
    """The view a fresh rank-k provider starts from."""
    UpdateSequence(omega)
    if not 1 <= k <= len(omega) + 1:
        raise PivotError(f"provider rank {k} outside 1..{len(omega) + 1}")
    nvars = len(mem.variables)
    return View(
        state=proc.q_init,
        value=adt.initial_value(),
        lw=(None,) * nvars,
        omega=omega,
        phi_e=0,
        phi_l=(0,) * nvars,
        phi_p=k,
    )


def _replace(t: tuple, i: int, v) -> tuple:
    return t[:i] + (v,) + t[i + 1 :]


@dataclass(frozen=True)
class _LazyState:
    state: str
    value: AdtValue
    lw: tuple[int | None, ...]
    phi_e: int
    phi_l: tuple[int, ...]
    prefix: tuple[Message, ...]  # pivots already provided; phi_p = len + 1


def _pivot_rules(proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec):
    """The pivot inference rules of one program, indexed once.

    Returns a function from a lazy state to its (label, successor) pairs.
    Every rule consults only the ranks of the provided prefix: a write of a
    message already in it is write1, and a write of any other message is
    write2, which makes that message the next pivot and hands over to a
    fresh provider with the extended prefix.
    """
    var_index = {x: i for i, x in enumerate(mem.variables)}
    nvars = len(mem.variables)
    by_state: dict[str, list] = {q: [] for q in proc.states}
    for q, instr, q2 in proc.delta:
        by_state[q].append((instr, q2))

    def successors(s: _LazyState) -> list[tuple[PivotLabel, _LazyState]]:
        phi_l_max = max(s.phi_l, default=0)
        rank = {m: i + 1 for i, m in enumerate(s.prefix)}
        out: list[tuple[PivotLabel, _LazyState]] = []
        for instr, q2 in by_state[s.state]:
            # skip, read1 and read2 only move the provider to q2
            moved = _LazyState(q2, s.value, s.lw, s.phi_e, s.phi_l, s.prefix)
            if instr.kind == "skip":
                out.append((PivotLabel("skip", instr), moved))
            elif instr.kind == "wr":
                m = (instr.var, instr.val)
                i = var_index[instr.var]
                if m in rank:
                    phl = max(phi_l_max, rank[m])
                    out.append((PivotLabel("write1", instr),
                                _LazyState(q2, s.value, _replace(s.lw, i, instr.val),
                                           s.phi_e, _replace(s.phi_l, i, phl), s.prefix)))
                else:
                    out.append((PivotLabel("write2", instr),
                                _LazyState(proc.q_init, adt.initial_value(),
                                           (None,) * nvars, 0, (0,) * nvars,
                                           s.prefix + (m,))))
            elif instr.kind == "rd":
                m = (instr.var, instr.val)
                i = var_index[instr.var]
                if s.lw[i] == instr.val:
                    out.append((PivotLabel("read1", instr), moved))
                if instr.val == mem.d_init and s.lw[i] is None:
                    # the first message on x; one beyond the prefix also lies
                    # beyond phi_e, which never reaches the progress pointer
                    vr = min((r for mm, r in rank.items() if mm[0] == instr.var),
                             default=None)
                    if vr is None or vr > s.phi_e:
                        out.append((PivotLabel("read2", instr), moved))
                if m in rank:
                    phe = max(s.phi_e, s.phi_l[i], rank[m])
                    out.append((PivotLabel("read3", instr),
                                _LazyState(q2, s.value, s.lw, phe, s.phi_l, s.prefix)))
            elif instr.kind == "mf":
                out.append((PivotLabel("fence", instr),
                            _LazyState(q2, s.value, s.lw,
                                       max(s.phi_e, phi_l_max), s.phi_l, s.prefix)))
            elif instr.kind == "op":
                if (v2 := step_unchecked(adt, s.value, instr.op)) is not None:
                    out.append((PivotLabel("op", instr),
                                _LazyState(q2, v2, s.lw, s.phi_e, s.phi_l, s.prefix)))
        return out

    return successors


def _view_successors(rules, view: View) -> list[tuple[PivotLabel, View]]:
    # the rules see the prefix below phi_p; a write2 stays only when the
    # pivot it provides is omega[phi_p - 1]
    s = _LazyState(view.state, view.value, view.lw, view.phi_e, view.phi_l,
                   view.omega[:view.phi_p - 1])
    out = []
    for label, s2 in rules(s):
        phi_p = len(s2.prefix) + 1
        if view.omega[:phi_p - 1] == s2.prefix:
            out.append((label, View(s2.state, s2.value, s2.lw, view.omega,
                                    s2.phi_e, s2.phi_l, phi_p)))
    return out


def pivot_step(
    view: View,
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
) -> list[tuple[PivotLabel, View]]:
    """All successor views under the pivot inference rules."""
    return _view_successors(_pivot_rules(proc, mem, adt), view)


# ---------------------------------------------------------------------------
# Reachability search


def format_omega(omega: tuple[Message, ...]) -> str:
    return "omega: " + "; ".join(f"{x}={d}" for x, d in omega)


def parse_omega(line: str) -> tuple[Message, ...]:
    body = line.split(":", 1)[1].strip()
    if not body:
        return ()
    out = []
    for part in body.split(";"):
        x, d = part.strip().split("=")
        out.append((x.strip(), int(d)))
    return tuple(out)


def pivot_reach(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    value_bound: int | None = None,
    budget: int = 2_000_000,
) -> Verdict:
    """Decide pivot reachability of the process target state.

    Exact unless data values were pruned (value_bound) or the budget ran
    out, in which case the verdict degrades to inconclusive.  Every rule
    only consults ranks below the progress pointer, so a branch carries the
    provided prefix of omega instead of a full guessed sequence; a finished
    provider extends the prefix with its pivot.  A reachable witness is
    replayed with replay_pivot before it is returned.
    """
    t0 = time.monotonic()
    nvars = len(mem.variables)
    init = _LazyState(proc.q_init, adt.initial_value(), (None,) * nvars,
                      0, (0,) * nvars, ())
    prune = None
    if value_bound is not None:
        def prune(s: _LazyState) -> bool:
            return value_size(adt, s.value) > value_bound
    final = proc.q_final
    r = explore(init, _pivot_rules(proc, mem, adt), lambda s: s.state == final,
                budget=budget, prune=prune)
    witness = None
    if r.outcome == REACHED:
        witness = (format_omega(r.final.prefix),) + tuple(str(l) for l in r.path)
        try:
            replay_pivot(proc, mem, adt, witness, require_final=final)
        except PivotError as e:
            raise WitnessError(f"pivot witness does not replay: {e}") from e
    return r.verdict(Stats(r.explored, r.seen, int((time.monotonic() - t0) * 1000)),
                     witness)


def parse_pivot_witness(witness: tuple[str, ...]):
    """Split a pivot witness into (omega, [(rule, instruction)])."""
    from .dsl import parse_instruction

    omega = parse_omega(witness[0])
    steps = []
    for line in witness[1:]:
        rule, instr_text = line.split(":", 1)
        steps.append((rule.strip(), parse_instruction(instr_text.strip(), 0)))
    return omega, steps


def replay_pivot(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    witness: tuple[str, ...],
    require_final: str | None = None,
) -> View:
    """Replay a pivot witness under the pivot rules with its full omega.

    Backtracks over successors sharing the same rule and instruction (two
    process transitions may carry identical instructions); with
    require_final set, only completions ending in that state count.
    """
    omega, steps = parse_pivot_witness(witness)
    rules = _pivot_rules(proc, mem, adt)
    init = initial_view(proc, mem, adt, omega, 1)
    stack = [(init, 0)]
    while stack:
        view, i = stack.pop()
        if i == len(steps):
            if require_final is None or view.state == require_final:
                return view
            continue
        rule, instr = steps[i]
        for lab, v2 in reversed(_view_successors(rules, view)):
            if lab.rule == rule and lab.instr == instr:
                stack.append((v2, i + 1))
    raise PivotError("witness does not replay under the pivot rules")
