"""Abstract data types attached to processes and register machines.

Each data type is a labelled transition system over a (possibly infinite)
value space: a counter, a stack over a finite alphabet, a Petri net marking,
higher-order stacks and counters, or an ordered multi-stack.  Values are
plain hashable Python structures.  Every kind is deterministic, so each
operation is a partial function: a step gives the one successor value, or
None when the operation is disabled at that value.  An operation the
instance does not admit is an AdtError, never a disabled step.

A stack is the level-1 nested stack, and the ho-counters are nested stacks
over the one symbol COUNTER_SYMBOL with renamed operations, so the four
nested-stack kinds share one initial value, operation set, well-formedness
check, step and size.

Every kind additionally supports the distinguished operation ``reset``,
which jumps back to the initial value.  It is used by the translation to
register machines, where a fresh simulated process must start from a fresh
data-type value.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

# A marking is a canonical multiset over place names: sorted, zero-free.
Marking = tuple[tuple[str, int], ...]

AdtValue = object  # int | tuple | Marking depending on the kind

KINDS = (
    "trivial",
    "counter",
    "weak-counter",
    "stack",
    "ho-stack",
    "ho-counter",
    "ho-weak-counter",
    "multi-stack",
    "petri",
)

WELL_STRUCTURED_KINDS = ("trivial", "counter", "weak-counter", "petri")

# Kinds the generic backward (WSTS) solver accepts.  The strict counter is
# excluded: iszero is enabled at 0 but at no larger value, so the step
# relation is not monotone w.r.t. numeric order.
MONOTONE_KINDS = ("trivial", "weak-counter", "petri")

RESET = "reset"

# The nested-stack kinds with the names of their push, pop and emptiness
# test; the level-k operations add "k" to a name.  The ho-counters push and
# pop COUNTER_SYMBOL, and the weak one has no test.
_NESTED_OPS = {
    "stack": ("push", "pop", "isempty"),
    "ho-stack": ("push", "pop", "isempty"),
    "ho-counter": ("inc", "dec", "iszero"),
    "ho-weak-counter": ("inc", "dec"),
}
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
    """A named net transition with input/output multisets.

    ``resets`` lists places emptied before the outputs are added; it is only
    produced by the register-machine encoding (never by user nets).
    """

    name: str
    inputs: Marking
    outputs: Marking
    resets: tuple[str, ...] = ()


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
        if self.kind in ("stack", "ho-stack", "multi-stack") and not self.alphabet:
            raise AdtError(f"{self.kind} requires a nonempty alphabet")
        if self.kind == "stack" and self.level != 1:
            raise AdtError("stack level must be 1")
        if self.kind.startswith("ho-") and self.level < 1:
            raise AdtError("level must be >= 1")
        if self.kind.startswith("ho-") and self.level > MAX_LEVEL:
            raise AdtError(f"level must be <= {MAX_LEVEL}")
        if self.kind == "multi-stack" and self.count < 1:
            raise AdtError("multi-stack count must be >= 1")
        if self.kind == "petri":
            declared = set(self.places)
            for t in self.transitions:
                for p, _ in t.inputs + t.outputs:
                    if p not in declared:
                        raise AdtError(f"transition {t.name} uses undeclared place {p}")
            for p, _ in self.initial_marking:
                if p not in declared:
                    raise AdtError(f"initial marking uses undeclared place {p}")

    def initial_value(self) -> AdtValue:
        if self.kind == "trivial":
            return ()
        if self.kind in ("counter", "weak-counter"):
            return 0
        if self.kind in _NESTED_OPS:
            return _ho_initial(self.level)
        if self.kind == "multi-stack":
            return ((),) * self.count
        if self.kind == "petri":
            return self.initial_marking
        raise AdtError(self.kind)

    def net_transition(self, name: str) -> PetriTransition:
        t = self._transition_map.get(name)
        if t is None:
            raise AdtError(f"unknown net transition: {name}")
        return t

    def op_universe(self) -> tuple[AdtOp, ...]:
        """Every operation this instance admits (reset included)."""
        ops: list[AdtOp] = []
        if self.kind in ("counter", "weak-counter"):
            ops = [AdtOp("inc"), AdtOp("dec")]
            if self.kind == "counter":
                ops.append(AdtOp("iszero"))
        elif self.kind in _NESTED_OPS:
            push, pop, *test = _NESTED_OPS[self.kind]
            # a counter's push and pop name no symbol
            for g in self.alphabet if push == "push" else (None,):
                ops += [AdtOp(push, g), AdtOp(pop, g)]
            ops += [AdtOp(name) for name in test]
            for k in range(2, self.level + 1):
                ops += [AdtOp(name + "k", k) for name in _NESTED_OPS[self.kind]]
        elif self.kind == "multi-stack":
            for i in range(1, self.count + 1):
                for g in self.alphabet:
                    ops += [AdtOp(f"push{i}", g), AdtOp(f"pop{i}", g)]
                ops.append(AdtOp(f"isempty{i}"))
        elif self.kind == "petri":
            ops = [AdtOp(t.name) for t in self.transitions]
        ops.append(AdtOp(RESET))
        return tuple(ops)

    def validate_op(self, op: AdtOp) -> None:
        if op not in self._op_set:
            raise AdtError(f"operation '{op}' not valid for adt {self.kind}")

    # built once per instance, on first use
    @functools.cached_property
    def _op_set(self) -> frozenset:
        return frozenset(self.op_universe())

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


_MULTI_INDEX = re.compile(r"^(push|pop|isempty)(\d+)$")


def step_unchecked(spec: AdtSpec, v: AdtValue, op: AdtOp) -> AdtValue | None:
    """The successor of v under op, or None when op is disabled at v.

    Nothing is checked: op must be one spec admits and v well-formed for
    spec.kind, as the parsed model guarantees.  The tests compare this
    step with a checked one in tests/helpers.py.
    """
    if op.name == RESET:
        return spec.initial_value()
    kind = spec.kind

    if kind in ("counter", "weak-counter"):
        if op.name == "inc":
            return v + 1
        if op.name == "dec":
            return v - 1 if v > 0 else None
        if op.name == "iszero":
            return v if v == 0 else None

    if kind in _NESTED_OPS:
        return _ho_step(v, spec.level, *stack_op(op))

    if kind == "multi-stack":
        m = _MULTI_INDEX.match(op.name)
        verb, i = m.group(1), int(m.group(2))
        # ordered discipline: popping stack i needs stacks 1..i-1 empty
        if verb == "pop" and any(v[: i - 1]):
            return None
        stack = _ho_step(v[i - 1], 1, verb, op.arg)
        return None if stack is None else v[: i - 1] + (stack,) + v[i:]

    if kind == "petri":
        t = spec.net_transition(op.name)
        after_inputs = marking_sub(v, t.inputs)
        if after_inputs is None:
            return None
        if t.resets:
            after_inputs = mk_marking(
                {p: c for p, c in after_inputs if p not in t.resets}
            )
        return marking_add(after_inputs, t.outputs)

    raise AdtError(f"no step relation for kind {kind}")


def value_size(spec: AdtSpec, v: AdtValue) -> int:
    """Size measure used by bounded exploration to prune large values."""
    kind = spec.kind
    if kind == "trivial":
        return 0
    if kind in ("counter", "weak-counter"):
        return v
    if kind in _NESTED_OPS:
        return _ho_size(v, spec.level)
    if kind == "multi-stack":
        return sum(len(s) for s in v)
    if kind == "petri":
        return marking_total(v)
    raise AdtError(kind)


def value_pruner(spec: AdtSpec, bound: int | None):
    """explore's prune test for a value larger than bound; None for no bound."""
    def prune(c) -> bool:
        return value_size(spec, c.value) > bound
    return None if bound is None else prune


def _ho_size(v: tuple, level: int) -> int:
    # symbols plus nested sub-stacks, so that bounded size means finitely
    # many values (symbol count alone admits unboundedly many empty nests)
    if level == 1:
        return len(v)
    return len(v) + sum(_ho_size(e, level - 1) for e in v)


# ---------------------------------------------------------------------------
# Well-quasi-ordering machinery for well-structured kinds


def wqo_leq(spec: AdtSpec, v1: AdtValue, v2: AdtValue) -> bool:
    """Decidable WQO on values: numeric order for counters, componentwise
    order for markings, equality for the trivial type."""
    if spec.kind in ("counter", "weak-counter"):
        return v1 <= v2
    if spec.kind == "petri":
        return marking_leq(v1, v2)
    if spec.kind == "trivial":
        return v1 == v2
    raise UnsupportedOrderError(f"no well-quasi-ordering for kind {spec.kind}")


def min_value(spec: AdtSpec) -> AdtValue:
    """Bottom of the WQO (the least element of the value space)."""
    if spec.kind in ("counter", "weak-counter"):
        return 0
    if spec.kind == "petri":
        return ()
    if spec.kind == "trivial":
        return ()
    raise UnsupportedOrderError(f"no well-quasi-ordering for kind {spec.kind}")


def marking_pre_upward(t: PetriTransition, m: Marking) -> Marking | None:
    """Minimal marking whose t-successor covers m, or None if impossible.

    For ordinary transitions this is max(m - outputs, 0) + inputs; places
    the transition resets come out empty and so cannot supply tokens.
    """
    need = marking_sub_clamped(m, t.outputs)
    if t.resets:
        if any(p in t.resets for p, _ in need):
            return None
        need = mk_marking({p: c for p, c in need if p not in t.resets})
    return marking_add(need, t.inputs)


def pre_upward_element(spec: AdtSpec, op: AdtOp, v: AdtValue) -> AdtValue | None:
    """The minimal element of { u | exists u' >= v with u -op-> u' }, or None
    when that set is empty; on the well-structured kinds it has at most one."""
    spec.validate_op(op)
    if spec.kind not in WELL_STRUCTURED_KINDS:
        raise UnsupportedOrderError(
            f"minimal predecessor bases unsupported for kind {spec.kind}"
        )

    if op.name == RESET:
        return min_value(spec) if wqo_leq(spec, v, spec.initial_value()) else None

    if spec.kind in ("counter", "weak-counter"):
        if op.name == "inc":
            return max(v - 1, 0)
        if op.name == "dec":
            return v + 1
        if op.name == "iszero":
            return 0 if v == 0 else None

    if spec.kind == "petri":
        return marking_pre_upward(spec.net_transition(op.name), v)

    raise AdtError(f"cannot compute predecessors of {op} for {spec.kind}")
