"""Syntactic models: TSO process descriptions and register machines.

A process is a finite transition system over read/write/skip/fence
instructions plus data-type operations.  A register machine is a finite
control with finitely many registers over a bounded domain {0..N} and one
attached data type.  Register actions come in three tiers.
``ACTION_SHAPES`` is the one place where the action kinds live, each with
its tier and the role of each operand; the parser, the generator, the tier
lowerings and ``RegisterAction.tier`` read it.

Solvers interpret all tiers directly, so their witnesses are runs of the
machine they were given.  ``lower_tier3_to_tier2`` and
``lower_tier2_to_tier1`` are reachability-preserving rewritings down to
the smaller instruction sets, for the ``lower`` command and for the
reductions that need tier I (``build_tso_from_rm``,
``encode_rm_to_coverability_labelled``).  Both enumerate the bounded
domain through ``_decode_action``: each action becomes read/write paths,
one per assignment of the registers it reads that the action enables, so
the register semantics is written once and lowering adds no registers.

A machine's constructor makes one pass over its transitions: it checks
each edge's endpoints and each distinct action object once, and groups the
edges by source state.  The machine decodes a state's outgoing edges when a
search first asks for them (``RegisterMachine.edges_from``), each distinct
action object once, and keeps them, so no step rescans the machine and
unreached states are never decoded.
``_decode_action`` is the one definition of the register semantics, and
``fire`` the one step over decoded edges: ``rm_step`` applies it to a
machine's, and check's lift to the gadget branches it decodes itself.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .adt import AdtError, AdtOp, AdtSpec, AdtValue, step_unchecked

Message = tuple[str, int]


class ModelError(ValueError):
    """Malformed model: undeclared names, out-of-domain values.  edge is the
    position in delta of the transition at fault, when there is one."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


@dataclass(frozen=True)
class MemorySpec:
    """Shared variables X over the finite domain {0..d_max}; initial value 0."""

    variables: tuple[str, ...]
    d_max: int

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ModelError("duplicate variable names")

    @property
    def domain(self) -> range:
        return range(self.d_max + 1)

    def messages(self) -> tuple[Message, ...]:
        """The message set M = X x D in a fixed order."""
        return tuple((x, d) for x in self.variables for d in self.domain)


@dataclass(frozen=True)
class Instruction:
    """A process instruction: rd(x,d), wr(x,d), skip, mf, or a data op."""

    kind: str  # rd | wr | skip | mf | op
    var: str | None = None
    val: int | None = None
    op: AdtOp | None = None

    def __str__(self) -> str:
        if self.kind in ("rd", "wr"):
            return f"{self.kind} {self.var} {self.val}"
        if self.kind == "op":
            return f"op {self.op}"
        return self.kind


def rd(x: str, d: int) -> Instruction:
    return Instruction("rd", var=x, val=d)


def wr(x: str, d: int) -> Instruction:
    return Instruction("wr", var=x, val=d)


def skip() -> Instruction:
    return Instruction("skip")


ProcEdge = tuple[str, Instruction, str]


@dataclass(frozen=True)
class ProcessDescription:
    """Finite-state process with a designated target state."""

    name: str
    states: tuple[str, ...]
    q_init: str
    q_final: str
    delta: tuple[ProcEdge, ...]

    def __post_init__(self) -> None:
        declared = set(self.states)
        if self.q_init not in declared:
            raise ModelError(f"initial state {self.q_init} undeclared")
        if self.q_final not in declared:
            raise ModelError(f"target state {self.q_final} undeclared")
        for q, _, q2 in self.delta:
            if q not in declared or q2 not in declared:
                raise ModelError(f"transition endpoint undeclared: {q} -> {q2}")


def validate_program(mem: MemorySpec, adt: AdtSpec, proc: ProcessDescription) -> None:
    """Cross-checks instruction payloads against memory and data type; an
    instruction object shared by several edges is checked once, at the first."""
    checked: set[int] = set()
    for k, (q, instr, q2) in enumerate(proc.delta):
        if id(instr) in checked:
            continue
        checked.add(id(instr))
        if instr.kind in ("rd", "wr"):
            if instr.var not in mem.variables:
                raise ModelError(f"undeclared variable {instr.var} in {q}->{q2}", k)
            if instr.val not in mem.domain:
                raise ModelError(f"value {instr.val} outside domain in {q}->{q2}", k)
        elif instr.kind == "op":
            _validate_op(adt, instr.op, k)


def _validate_op(adt: AdtSpec, op: AdtOp, edge: int) -> None:
    try:
        adt.validate_op(op)
    except AdtError as e:
        raise ModelError(str(e), edge) from e


@dataclass(frozen=True)
class Program:
    """A parameterized TSO program: shared memory, data type, process."""

    mem: MemorySpec
    adt: AdtSpec
    proc: ProcessDescription

    def __post_init__(self) -> None:
        validate_program(self.mem, self.adt, self.proc)


# ---------------------------------------------------------------------------
# Register machines


# action kind -> (tier, the role of each operand, in order): R a register
# the action reads, W one it writes, U one it reads and writes, N a literal,
# V a register or a literal that it reads
ACTION_SHAPES = {
    "skp": (1, ""), "write": (1, "WN"), "read": (1, "RN"),
    "inc": (2, "U"), "dec": (2, "U"), "ckz": (2, "R"),
    "set": (3, "WV"), "cke": (3, "VV"), "ckne": (3, "VV"), "ckl": (3, "VV"),
    "ckg": (3, "VV"), "ckle": (3, "VV"), "ckge": (3, "VV"),
}


@dataclass(frozen=True)
class RegisterAction:
    """One action of the register machine; operands are registers or values."""

    kind: str  # a key of ACTION_SHAPES
    x: str | int | None = None
    y: str | int | None = None

    @property
    def tier(self) -> int:
        if self.kind not in ACTION_SHAPES:
            raise ModelError(f"unknown action kind {self.kind}")
        return ACTION_SHAPES[self.kind][0]

    def __str__(self) -> str:
        if self.kind == "skp":
            return "skp"
        if self.y is None:
            return f"{self.kind} {self.x}"
        return f"{self.kind} {self.x} {self.y}"


def skp() -> RegisterAction:
    return RegisterAction("skp")


def write(r: str, d: int) -> RegisterAction:
    return RegisterAction("write", r, d)


def read(r: str, d: int) -> RegisterAction:
    return RegisterAction("read", r, d)


RmEdge = tuple[str, "RegisterAction | AdtOp", str]


@dataclass(frozen=True)
class RegisterMachine:
    name: str
    states: tuple[str, ...]
    q_init: str
    q_target: str
    registers: tuple[str, ...]
    bound: int  # register domain is {0..bound}
    adt: AdtSpec
    delta: tuple[RmEdge, ...]

    def __post_init__(self) -> None:
        regs = set(self.registers)
        if len(regs) != len(self.registers):
            raise ModelError("duplicate register names")
        # keyed by the declared states: the endpoint check and the grouping
        by_state: dict[str, list[RmEdge]] = {q: [] for q in self.states}
        if self.q_init not in by_state or self.q_target not in by_state:
            raise ModelError("initial/target state undeclared")
        if self.bound < 0:
            raise ModelError("register bound must be >= 0")
        checked: set[int] = set()
        for k, edge in enumerate(self.delta):
            q, act, q2 = edge
            if q not in by_state or q2 not in by_state:
                raise ModelError(f"transition endpoint undeclared: {q} -> {q2}", k)
            by_state[q].append(edge)
            if id(act) in checked:
                continue
            checked.add(id(act))
            if isinstance(act, AdtOp):
                _validate_op(self.adt, act, k)
                continue
            for operand in (act.x, act.y):
                if isinstance(operand, str) and operand not in regs:
                    raise ModelError(f"undeclared register {operand}", k)
                if isinstance(operand, int) and not 0 <= operand <= self.bound:
                    raise ModelError(f"literal {operand} outside 0..{self.bound}", k)
        # a state's edges, as a list until edges_from decodes them, and the
        # decoded actions by id: delta holds every action decoded there, so
        # no other object takes the id of one while the machine lives
        object.__setattr__(self, "_edges", by_state)
        object.__setattr__(self, "_steps", {})

    def tier(self) -> int:
        """Highest instruction tier that occurs syntactically."""
        tiers = [1]
        for _, act, _ in self.delta:
            if isinstance(act, RegisterAction):
                tiers.append(act.tier)
        return max(tiers)

    def initial_configuration(self) -> "RmConfiguration":
        return RmConfiguration(
            self.q_init, (0,) * len(self.registers), self.adt.initial_value()
        )

    @functools.cached_property
    def register_indices(self) -> dict[str, int]:
        return {r: i for i, r in enumerate(self.registers)}

    def edges_from(self, q: str) -> tuple[tuple[RmEdge, ActionStep | None], ...]:
        """q's outgoing edges in delta order, each with its decoded action
        (None for a data-type operation).  They are decoded the first time q
        is asked for, each distinct action object once, and kept on the
        instance."""
        edges = self._edges.get(q, ())
        if type(edges) is list:
            edges = self._edges[q] = decode_edges(edges, self._steps,
                                                  self.register_indices, self.bound)
        return edges


class RmConfiguration(NamedTuple):
    """State, total register assignment, and current data-type value."""

    state: str
    regs: tuple[int, ...]
    value: AdtValue


# A decoded action: the successor register assignment, or None if disabled.
ActionStep = Callable[[tuple[int, ...]], "tuple[int, ...] | None"]

_COMPARE = {
    "cke": operator.eq,
    "ckne": operator.ne,
    "ckl": operator.lt,
    "ckg": operator.gt,
    "ckle": operator.le,
    "ckge": operator.ge,
}


def _decode_action(act: RegisterAction, idx: dict[str, int], bound: int) -> ActionStep:
    """act as a function of the register assignment, operands resolved."""
    kind, x, y = act.kind, act.x, act.y
    # read, ckz and write are cke and set against a literal
    if kind == "read":
        kind = "cke"
    elif kind == "ckz":
        kind, y = "cke", 0
    elif kind == "write":
        kind = "set"
    if kind == "skp":
        return lambda regs: regs
    if kind in _COMPARE:
        test = _COMPARE[kind]
        if isinstance(x, str) and isinstance(y, str):
            i, j = idx[x], idx[y]
            return lambda regs: regs if test(regs[i], regs[j]) else None
        if isinstance(x, str):
            i = idx[x]
            return lambda regs: regs if test(regs[i], y) else None
        if isinstance(y, str):
            j = idx[y]
            return lambda regs: regs if test(x, regs[j]) else None
        holds = test(x, y)
        return lambda regs: regs if holds else None
    if kind not in ("set", "inc", "dec"):
        raise ModelError(f"unknown action kind {act.kind}")
    i = idx[x]
    if kind == "set":
        if isinstance(y, str):
            j = idx[y]
            return lambda regs: regs[:i] + (regs[j],) + regs[i + 1 :]
        return lambda regs: regs[:i] + (y,) + regs[i + 1 :]
    if kind == "inc":
        return lambda regs: regs[:i] + (regs[i] + 1,) + regs[i + 1 :] if regs[i] < bound else None
    return lambda regs: regs[:i] + (regs[i] - 1,) + regs[i + 1 :] if regs[i] > 0 else None


def decode_edges(edges, steps: dict, idx: dict[str, int],
                 bound: int) -> tuple[tuple[RmEdge, ActionStep | None], ...]:
    """edges, each with its decoded action (None for a data-type
    operation).  steps holds the actions decoded so far by id, so each
    distinct action object is decoded once; the caller keeps every such
    action alive while steps lives."""
    decoded = []
    for edge in edges:
        act = edge[1]
        if isinstance(act, AdtOp):
            step = None
        elif (step := steps.get(id(act))) is None:
            step = steps[id(act)] = _decode_action(act, idx, bound)
        decoded.append((edge, step))
    return tuple(decoded)


def rm_step(rm: RegisterMachine, c: RmConfiguration) -> list[tuple[RmEdge, RmConfiguration]]:
    """All enabled transitions from c; disabled ones are simply absent."""
    return fire(rm.edges_from(c.state), rm.adt, c)


def fire(edges, adt: AdtSpec, c: RmConfiguration) -> list[tuple[RmEdge, RmConfiguration]]:
    """The enabled ones of c's outgoing edges, given in edges_from's form
    (each with its decoded action, None for a data-type operation), with
    their successors under the data type adt."""
    out: list[tuple[RmEdge, RmConfiguration]] = []
    regs, value = c.regs, c.value
    for edge, step in edges:
        if step is None:
            if (v2 := step_unchecked(adt, value, edge[1])) is not None:
                out.append((edge, RmConfiguration(edge[2], regs, v2)))
            continue
        regs2 = step(regs)
        if regs2 is not None:
            out.append((edge, RmConfiguration(edge[2], regs2, value)))
    return out


def replay_rm(rm: RegisterMachine, labels) -> RmConfiguration:
    """Replay a witness (a sequence of delta triples) under rm_step.

    Raises ModelError if any step is not enabled; returns the final
    configuration on success.
    """
    c = rm.initial_configuration()
    for label in labels:
        successors = [c2 for lab, c2 in rm_step(rm, c) if lab == label]
        if not successors:
            raise ModelError(f"witness step not enabled: {label}")
        c = successors[0]
    return c


# ---------------------------------------------------------------------------
# Tier lowerings


class _Gensym:
    """Fresh state/register names that cannot collide with declared ones."""

    def __init__(self, taken) -> None:
        self.prefix = "g"
        taken = set(taken)
        while any(t.startswith(self.prefix) for t in taken):
            self.prefix += "g"
        self.n = 0

    def fresh(self) -> str:
        self.n += 1
        return f"{self.prefix}{self.n}"


def _lower(rm: RegisterMachine, tiers: tuple[int, ...]) -> RegisterMachine:
    """Replace every register action of the given tiers by tier-I paths.

    An action is a finite relation on the registers it reads, so it becomes
    one path per assignment of those registers over {0..bound} that
    ``_decode_action`` enables: read each of them, then write the register
    the action sets (a bare ``skp`` if the path would be empty).  Paths of
    one edge with a common prefix share its states; no register is added.
    """
    gs = _Gensym(rm.states)
    edges: list[RmEdge] = []
    for q, act, q2 in rm.delta:
        if isinstance(act, AdtOp) or act.tier not in tiers:
            edges.append((q, act, q2))
            continue
        shape = tuple(zip(ACTION_SHAPES[act.kind][1], (act.x, act.y)))
        sets = next((r for role, r in shape if role in "WU"), None)
        reads = tuple(dict.fromkeys(
            r for role, r in shape if role in "RUV" and isinstance(r, str)))
        regs = reads + ((sets,) if sets is not None and sets not in reads else ())
        idx = {r: i for i, r in enumerate(regs)}
        step = _decode_action(act, idx, rm.bound)
        pad = (0,) * (len(regs) - len(reads))
        prefix: dict[tuple[str, RegisterAction], str] = {}
        for vals in itertools.product(range(rm.bound + 1), repeat=len(reads)):
            out = step(vals + pad)
            if out is None:
                continue
            path = [read(r, d) for r, d in zip(reads, vals)]
            if sets is not None:
                path.append(write(sets, out[idx[sets]]))
            cur = q
            for lab in path[:-1]:
                if (cur, lab) not in prefix:
                    prefix[cur, lab] = gs.fresh()
                    edges.append((cur, lab, prefix[cur, lab]))
                cur = prefix[cur, lab]
            edges.append((cur, path[-1] if path else skp(), q2))
    states = list(rm.states) + sorted(
        {q for e in edges for q in (e[0], e[2])} - set(rm.states)
    )
    return RegisterMachine(
        name=rm.name,
        states=tuple(states),
        q_init=rm.q_init,
        q_target=rm.q_target,
        registers=rm.registers,
        bound=rm.bound,
        adt=rm.adt,
        delta=tuple(edges),
    )


def lower_tier3_to_tier2(rm: RegisterMachine) -> RegisterMachine:
    """Expand set and the comparisons into read/write paths over the domain."""
    if rm.tier() <= 2:
        return rm
    return _lower(rm, (3,))


def lower_tier2_to_tier1(rm: RegisterMachine) -> RegisterMachine:
    """Expand inc/dec/ckz into read/write fans over the whole domain."""
    if rm.tier() > 2:
        raise ModelError("lower tier III first")
    return _lower(rm, (2,))
