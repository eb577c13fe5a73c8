"""Abstract data types attached to processes and register machines.

Each data type is a labelled transition system over a (possibly infinite)
value space: a counter, a stack over a finite alphabet, a Petri net marking,
higher-order stacks and counters, or an ordered multi-stack.  Values are
plain hashable Python structures.  Every kind is deterministic, so each
operation is a partial function: a step gives the one successor value, or
None when the operation is disabled at that value.  An operation the
instance does not admit is an AdtError, never a disabled step.

Each kind is declared once, as a row of KINDS (see Kind).  AdtSpec's
checks, op_universe, the DSL's adt line parser and printer, the value
functions and the solvers' routing read it; none branches on a kind name.

A stack is the level-1 nested stack, and the ho-counters are nested stacks
over the one symbol COUNTER_SYMBOL with renamed operations, so the four
nested kinds share one initial value, step and size.

Every kind additionally supports the distinguished operation ``reset``,
which jumps back to the initial value.  It is used by the translation to
register machines, where a fresh simulated process must start from a fresh
data-type value.
"""

from __future__ import annotations

import functools
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

# A marking is a canonical multiset over place names: sorted, zero-free.
Marking = tuple[tuple[str, int], ...]

AdtValue = object  # int | tuple | Marking depending on the kind

RESET = "reset"

# The nested kinds' level-k operations add "k" to a name, and the
# ho-counters push and pop COUNTER_SYMBOL.
COUNTER_SYMBOL = "a"
_STACK_NAMES = dict(zip(("inc", "dec", "iszero", "inck", "deck", "iszerok"),
                        ("push", "pop", "isempty", "pushk", "popk", "isemptyk")))

# Values of a level-n stack nest n deep, and their size, step and check
# walks recurse once per level; this cap keeps them far below Python's
# default recursion limit of 1000 under a caller as deep as a test runner.
MAX_LEVEL = 100


class AdtError(ValueError):
    """Structural misuse: unknown operation, kind mismatch, malformed value."""


class UnsupportedOrderError(AdtError):
    """The kind carries no well-quasi-ordering."""


@dataclass(frozen=True)
class AdtOp:
    """A data-type operation: a symbolic name plus an optional finite argument."""

    name: str
    arg: str | int | None = None

    def __str__(self) -> str:
        return self.name if self.arg is None else f"{self.name} {self.arg}"


@dataclass(frozen=True)
class PetriTransition:
    """A named net transition with input/output multisets."""

    name: str
    inputs: Marking
    outputs: Marking


def mk_marking(counts: dict[str, int]) -> Marking:
    for p, c in counts.items():
        if c < 0:
            raise AdtError(f"negative token count for place {p}")
    return tuple(sorted((p, c) for p, c in counts.items() if c > 0))


def marking_total(m: Marking) -> int:
    return sum(c for _, c in m)


def marking_leq(m1: Marking, m2: Marking) -> bool:
    # merge scan; both markings are sorted by place
    i = 0
    n2 = len(m2)
    for p, c in m1:
        while i < n2 and m2[i][0] < p:
            i += 1
        if i == n2 or m2[i][0] != p or m2[i][1] < c:
            return False
    return True


def marking_add(m1: Marking, m2: Marking) -> Marking:
    counts = dict(m1)
    for p, c in m2:
        counts[p] = counts.get(p, 0) + c
    return mk_marking(counts)


def marking_sub_clamped(m1: Marking, m2: Marking) -> Marking:
    """Componentwise max(m1 - m2, 0)."""
    counts = dict(m1)
    for p, c in m2:
        counts[p] = max(counts.get(p, 0) - c, 0)
    return mk_marking(counts)


def marking_sub(m1: Marking, m2: Marking) -> Marking | None:
    """Exact componentwise difference, or None if it would go negative."""
    counts = dict(m1)
    for p, c in m2:
        counts[p] = counts.get(p, 0) - c
        if counts[p] < 0:
            return None
    return mk_marking(counts)


@dataclass(frozen=True)
class AdtSpec:
    """Declaration of one abstract data type instance.

    kind          one of KINDS
    alphabet      stack symbols (stack-like kinds)
    level         nesting level n (ho-* kinds)
    count         number of stacks n (multi-stack)
    places        net places (petri)
    transitions   net transitions (petri)
    initial_marking  declared initial marking (petri)
    """

    kind: str
    alphabet: tuple[str, ...] = ()
    level: int = 1
    count: int = 1
    places: tuple[str, ...] = ()
    transitions: tuple[PetriTransition, ...] = ()
    initial_marking: Marking = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise AdtError(f"unknown ADT kind: {self.kind}")
        params = KINDS[self.kind][0]
        if "alphabet" in params and not self.alphabet:
            raise AdtError(f"{self.kind} requires a nonempty alphabet")
        if "alphabet" not in params and self.alphabet:
            raise AdtError(f"{self.kind} takes no alphabet")
        if "level" not in params and self.level != 1:
            raise AdtError(f"{self.kind} level must be 1")
        if self.level < 1:
            raise AdtError("level must be >= 1")
        if self.level > MAX_LEVEL:
            raise AdtError(f"level must be <= {MAX_LEVEL}")
        if "count" not in params and self.count != 1:
            raise AdtError(f"{self.kind} count must be 1")
        if self.count < 1:
            raise AdtError(f"{self.kind} count must be >= 1")
        # a net is petri's declaration, written in its own syntax, not a
        # parameter of its row
        if self.kind != "petri" and (self.places or self.transitions or self.initial_marking):
            raise AdtError(f"{self.kind} takes no places, transitions or initial marking")
        declared = set(self.places)
        for t in self.transitions:
            for p, _ in t.inputs + t.outputs:
                if p not in declared:
                    raise AdtError(f"transition {t.name} uses undeclared place {p}")
        for p, _ in self.initial_marking:
            if p not in declared:
                raise AdtError(f"initial marking uses undeclared place {p}")

    def initial_value(self) -> AdtValue:
        return KINDS[self.kind].initial(self)

    def net_transition(self, name: str) -> PetriTransition:
        t = self._transition_map.get(name)
        if t is None:
            raise AdtError(f"unknown net transition: {name}")
        return t

    def op_universe(self) -> tuple[AdtOp, ...]:
        """Every operation this instance admits: per stack (stacks 1..count
        of a multi-stack, else one unnumbered), push and pop of every
        symbol, then the tests; then the level-k operations, the net
        transitions and reset."""
        return self._ops

    # built once per instance, on first use
    @functools.cached_property
    def _ops(self) -> tuple[AdtOp, ...]:
        params, names = KINDS[self.kind][:2]
        ops: list[AdtOp] = []
        if names:
            push, pop, *tests = names
            for i in map(str, range(1, self.count + 1)) if "count" in params else ("",):
                for g in self.alphabet if push == "push" else (None,):
                    ops += AdtOp(push + i, g), AdtOp(pop + i, g)
                ops += [AdtOp(name + i) for name in tests]
            for k in range(2, self.level + 1):
                ops += [AdtOp(name + "k", k) for name in names]
        ops += [AdtOp(t.name) for t in self.transitions]
        ops.append(AdtOp(RESET))
        return tuple(ops)

    def validate_op(self, op: AdtOp) -> None:
        if op not in self._op_set:
            raise AdtError(f"operation '{op}' not valid for adt {self.kind}")

    @functools.cached_property
    def _op_set(self) -> frozenset:
        return frozenset(self._ops)

    @functools.cached_property
    def _transition_map(self) -> dict[str, PetriTransition]:
        return {t.name: t for t in self.transitions}


def trivial_spec() -> AdtSpec:
    return AdtSpec(kind="trivial")


def _ho_initial(level: int) -> AdtValue:
    # A level-k stack initially holds a single initial level-(k-1) stack;
    # a completely empty outer stack would disable every operation.
    v: AdtValue = ()
    for _ in range(level - 1):
        v = (v,)
    return v


def stack_op(op: AdtOp) -> tuple[str, str | int]:
    """The nested-stack operation (name, arg) that op names: a counter name
    becomes its stack name, and an operation without an argument gets
    COUNTER_SYMBOL, which only push and pop read."""
    return _STACK_NAMES.get(op.name, op.name), COUNTER_SYMBOL if op.arg is None else op.arg


def _ho_step(v: tuple, level: int, name: str, arg: str | int) -> tuple | None:
    """One step of the level-n stack; None when disabled.

    pop/push of a symbol recurse to the level-1 top; the _k variants
    copy/remove/inspect the top element once the current level is k.
    """
    if name == "push" and level == 1:
        return v + (arg,)
    if name == "pop" and level == 1:
        return v[:-1] if v and v[-1] == arg else None
    if name == "isempty" and level == 1:
        return v if v == () else None
    if name == "pushk" and level == arg:
        return v + (v[-1],) if v else None
    if name == "popk" and level == arg:
        return v[:-1] if v else None
    if name == "isemptyk" and level == arg:
        return v if v and v[-1] == () else None
    if level == 1 or not v:
        return None
    inner = _ho_step(v[-1], level - 1, name, arg)
    return None if inner is None else v[:-1] + (inner,)


def _ho_size(v: tuple, level: int) -> int:
    # symbols plus nested sub-stacks, so that bounded size means finitely
    # many values (symbol count alone admits unboundedly many empty nests)
    if level == 1:
        return len(v)
    return len(v) + sum(_ho_size(e, level - 1) for e in v)


def _counter_step(spec: AdtSpec, v: int, op: AdtOp) -> int | None:
    if op.name == "inc":
        return v + 1
    if op.name == "dec":
        return v - 1 if v > 0 else None
    return v if v == 0 else None  # iszero


_MULTI_INDEX = re.compile(r"^(push|pop|isempty)(\d+)$")


def _multi_step(spec: AdtSpec, v: tuple, op: AdtOp) -> tuple | None:
    m = _MULTI_INDEX.match(op.name)
    verb, i = m.group(1), int(m.group(2))
    # ordered discipline: popping stack i needs stacks 1..i-1 empty
    if verb == "pop" and any(v[: i - 1]):
        return None
    stack = _ho_step(v[i - 1], 1, verb, op.arg)
    return None if stack is None else v[: i - 1] + (stack,) + v[i:]


def _petri_step(spec: AdtSpec, v: Marking, op: AdtOp) -> Marking | None:
    t = spec.net_transition(op.name)
    after_inputs = marking_sub(v, t.inputs)
    if after_inputs is None:
        return None
    return marking_add(after_inputs, t.outputs)


def _counter_pre(spec: AdtSpec, op: AdtOp, v: int) -> int | None:
    if op.name == "inc":
        return max(v - 1, 0)
    if op.name == "dec":
        return v + 1
    return 0 if v == 0 else None  # iszero


def marking_pre_upward(t: PetriTransition, m: Marking) -> Marking:
    """Minimal marking whose t-successor covers m: max(m - outputs, 0) + inputs."""
    return marking_add(marking_sub_clamped(m, t.outputs), t.inputs)


class Order(NamedTuple):
    """A well-quasi-ordering: leq(v1, v2), the least value, and pre(spec,
    op, v), the minimal u from which op, other than reset, reaches some
    value >= v, or None when none does; no pre when reset is the only op."""

    leq: Callable[[AdtValue, AdtValue], bool]
    least: AdtValue
    pre: Callable[[AdtSpec, AdtOp, AdtValue], AdtValue | None] | None


class Kind(NamedTuple):
    """A row of KINDS: how one data-type kind is declared and behaves.

    params and names are the declaration's parameters, in order, and the
    names of push, pop and the emptiness test (a counter's name no symbol).
    initial(spec) is the initial value; step(spec, v, op) the successor
    under an op other than reset, None when disabled (no step when reset is
    the only op); size(spec, v) what bounded searches prune on.  backend is
    the --backend auto picks.  monotone: every op is monotone for order, the
    well-quasi-ordering if any, so backward coverability is exact (Abdulla,
    Cerans, Jonsson and Tsay, LICS 1996); iszero, enabled at 0 only, is not.
    """

    params: tuple[str, ...]
    names: tuple[str, ...]
    initial: Callable[[AdtSpec], AdtValue]
    step: Callable[[AdtSpec, AdtValue, AdtOp], AdtValue | None] | None
    size: Callable[[AdtSpec, AdtValue], int]
    backend: str = "bounded"
    monotone: bool = False
    order: Order | None = None


_NESTED = (lambda spec: _ho_initial(spec.level),
           lambda spec, v, op: _ho_step(v, spec.level, *stack_op(op)),
           lambda spec, v: _ho_size(v, spec.level))
_COUNTER = (lambda spec: 0, _counter_step, lambda spec, v: v)
_COUNTER_ORDER = Order(operator.le, 0, _counter_pre)
_PETRI_ORDER = Order(marking_leq, (), lambda spec, op, m: marking_pre_upward(
    spec.net_transition(op.name), m))

KINDS = {
    "trivial": Kind((), (), lambda spec: (), None, lambda spec, v: 0,
                    backend="finite", monotone=True, order=Order(operator.eq, (), None)),
    "counter": Kind((), ("inc", "dec", "iszero"), *_COUNTER,
                    backend="counter", order=_COUNTER_ORDER),
    "weak-counter": Kind((), ("inc", "dec"), *_COUNTER,
                         backend="counter", monotone=True, order=_COUNTER_ORDER),
    "stack": Kind(("alphabet",), ("push", "pop", "isempty"), *_NESTED, backend="stack"),
    "ho-stack": Kind(("level", "alphabet"), ("push", "pop", "isempty"), *_NESTED),
    "ho-counter": Kind(("level",), ("inc", "dec", "iszero"), *_NESTED),
    "ho-weak-counter": Kind(("level",), ("inc", "dec"), *_NESTED),
    "multi-stack": Kind(("count", "alphabet"), ("push", "pop", "isempty"),
                        lambda spec: ((),) * spec.count, _multi_step,
                        lambda spec, v: sum(len(s) for s in v)),
    "petri": Kind((), (), lambda spec: spec.initial_marking, _petri_step,
                  lambda spec, v: marking_total(v),
                  backend="petri", monotone=True, order=_PETRI_ORDER),
}


def step_unchecked(spec: AdtSpec, v: AdtValue, op: AdtOp) -> AdtValue | None:
    """The successor of v under op, or None when op is disabled at v.

    Nothing is checked: op must be one spec admits and v well-formed for
    spec.kind, as the parsed model guarantees.  The tests compare this
    step with a checked one in tests/helpers.py.
    """
    if op.name == RESET:
        return spec.initial_value()
    return KINDS[spec.kind].step(spec, v, op)


def value_size(spec: AdtSpec, v: AdtValue) -> int:
    """Size measure used by bounded exploration to prune large values."""
    return KINDS[spec.kind].size(spec, v)


def value_pruner(spec: AdtSpec, bound: int | None):
    """explore's prune test for a value larger than bound; None for no bound."""
    def prune(c) -> bool:
        return value_size(spec, c.value) > bound
    return None if bound is None else prune


def wqo(spec: AdtSpec) -> Order:
    """The well-quasi-ordering of spec's values: numeric order for
    counters, componentwise order for markings, equality for the trivial
    type."""
    order = KINDS[spec.kind].order
    if order is None:
        raise UnsupportedOrderError(f"no well-quasi-ordering for kind {spec.kind}")
    return order


def pre_upward_element(spec: AdtSpec, op: AdtOp, v: AdtValue) -> AdtValue | None:
    """The minimal element of { u | exists u' >= v with u -op-> u' }, or None
    when that set is empty; on the ordered kinds it has at most one."""
    spec.validate_op(op)
    order = wqo(spec)
    if op.name == RESET:
        return order.least if order.leq(v, spec.initial_value()) else None
    return order.pre(spec, op, v)
