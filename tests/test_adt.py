import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    UpwardBasis,
    adt_step,
    check_value,
    enumerate_values,
    minimize,
    pre_min_upward,
    wqo_leq,
)
from tsoreach.adt import (
    AdtError,
    AdtOp,
    AdtSpec,
    PetriTransition,
    UnsupportedOrderError,
    mk_marking,
    step_unchecked,
    trivial_spec,
    value_size,
)

COUNTER = AdtSpec(kind="counter")
WEAK = AdtSpec(kind="weak-counter")
STACK = AdtSpec(kind="stack", alphabet=("a", "b"))
PETRI = AdtSpec(
    kind="petri",
    places=("p", "q"),
    transitions=(PetriTransition("t", mk_marking({"p": 1}), mk_marking({"q": 1})),),
    initial_marking=mk_marking({"p": 1}),
)


def test_counter_steps():
    assert adt_step(COUNTER, 0, AdtOp("inc")) == 1
    assert adt_step(COUNTER, 0, AdtOp("dec")) is None
    assert adt_step(COUNTER, 3, AdtOp("dec")) == 2
    assert adt_step(COUNTER, 0, AdtOp("iszero")) == 0
    assert adt_step(COUNTER, 1, AdtOp("iszero")) is None


def test_weak_counter_has_no_zero_test():
    with pytest.raises(AdtError):
        adt_step(WEAK, 0, AdtOp("iszero"))


def test_stack_steps():
    assert adt_step(STACK, ("a", "b"), AdtOp("pop", "b")) == ("a",)
    assert adt_step(STACK, ("a", "b"), AdtOp("pop", "a")) is None
    assert adt_step(STACK, (), AdtOp("push", "a")) == ("a",)
    assert adt_step(STACK, (), AdtOp("isempty")) == ()
    assert adt_step(STACK, ("a",), AdtOp("isempty")) is None


def test_ho_stack_push2_copies_top():
    h = AdtSpec(kind="ho-stack", level=2, alphabet=("a",))
    assert adt_step(h, (("a",),), AdtOp("pushk", 2)) == (("a",), ("a",))
    assert adt_step(h, (("a",), ("a",)), AdtOp("popk", 2)) == (("a",),)
    # push of a symbol recurses into the top level-1 stack
    assert adt_step(h, ((),), AdtOp("push", "a")) == (("a",),)
    assert adt_step(h, ((),), AdtOp("isempty")) == ((),)
    assert adt_step(h, (("a",),), AdtOp("isempty")) is None


def test_ho_stack_isemptyk():
    h = AdtSpec(kind="ho-stack", level=2, alphabet=("a",))
    assert adt_step(h, ((),), AdtOp("isemptyk", 2)) == ((),)
    assert adt_step(h, (("a",),), AdtOp("isemptyk", 2)) is None


def test_ho_counter_is_singleton_alphabet_stack():
    h = AdtSpec(kind="ho-counter", level=2)
    v0 = h.initial_value()
    v1 = adt_step(h, v0, AdtOp("inc"))
    assert v1 == (("a",),)
    assert adt_step(h, v1, AdtOp("iszero")) is None
    assert adt_step(h, v0, AdtOp("iszero")) == v0
    v2 = adt_step(h, v1, AdtOp("inck", 2))
    assert v2 == (("a",), ("a",))


def test_multistack_pop_requires_lower_stacks_empty():
    m = AdtSpec(kind="multi-stack", count=2, alphabet=("a", "b"))
    v = (("a",), ("b",))
    assert adt_step(m, v, AdtOp("pop2", "b")) is None
    assert adt_step(m, ((), ("b",)), AdtOp("pop2", "b")) == ((), ())
    # pushes are not order-restricted
    assert adt_step(m, v, AdtOp("push2", "a")) == (("a",), ("b", "a"))
    assert adt_step(m, v, AdtOp("isempty1")) is None
    assert adt_step(m, ((), ("b",)), AdtOp("isempty1")) == ((), ("b",))


def test_petri_step():
    assert adt_step(PETRI, mk_marking({"p": 1}), AdtOp("t")) == mk_marking({"q": 1})
    assert adt_step(PETRI, mk_marking({"q": 1}), AdtOp("t")) is None


def test_reset_is_universal():
    for spec, v in [
        (COUNTER, 5),
        (STACK, ("a", "b")),
        (PETRI, mk_marking({"q": 2})),
        (trivial_spec(), ()),
    ]:
        assert adt_step(spec, v, AdtOp("reset")) == spec.initial_value()


def test_kind_mismatch_is_an_error_not_disabled():
    with pytest.raises(AdtError):
        adt_step(COUNTER, 0, AdtOp("push", "a"))
    with pytest.raises(AdtError):
        adt_step(STACK, 0, AdtOp("push", "a"))  # malformed value
    with pytest.raises(AdtError):
        adt_step(PETRI, mk_marking({"p": 1}), AdtOp("nosuch"))
    with pytest.raises(AdtError, match="^unknown net transition: nosuch$"):
        PETRI.net_transition("nosuch")
    with pytest.raises(AdtError, match="^unknown ADT kind: queue$"):
        AdtSpec(kind="queue")
    with pytest.raises(AdtError, match="^negative token count for place p$"):
        mk_marking({"p": -1})


def _all_specs():
    return [
        trivial_spec(),
        COUNTER,
        WEAK,
        STACK,
        AdtSpec(kind="ho-stack", level=2, alphabet=("a",)),
        AdtSpec(kind="ho-counter", level=2),
        AdtSpec(kind="ho-weak-counter", level=2),
        AdtSpec(kind="multi-stack", count=2, alphabet=("a",)),
        PETRI,
    ]


def test_determinism_over_sampled_values():
    # every step is a partial function: one checked successor or None
    rng = random.Random(0)
    for spec in _all_specs():
        values = enumerate_values(spec, 3)
        ops = spec.op_universe()
        for _ in range(200):
            v = rng.choice(values)
            op = rng.choice(ops)
            v2 = adt_step(spec, v, op)
            assert v2 == step_unchecked(spec, v, op)
            if v2 is not None:
                check_value(spec, v2)


def test_stack_is_the_level_one_ho_stack():
    stack = AdtSpec(kind="stack", alphabet=("a", "b"))
    ho = AdtSpec(kind="ho-stack", level=1, alphabet=("a", "b"))
    assert stack.initial_value() == ho.initial_value()
    assert stack.op_universe() == ho.op_universe()
    values = enumerate_values(stack, 3)
    assert values == enumerate_values(ho, 3)
    for v in values:
        check_value(stack, v)
        check_value(ho, v)
        assert value_size(stack, v) == value_size(ho, v)
        for op in stack.op_universe():
            assert step_unchecked(stack, v, op) == step_unchecked(ho, v, op)
    for bad in [("c",), (("a",),), 0]:
        for spec in (stack, ho):
            with pytest.raises(AdtError):
                check_value(spec, bad)


def test_stack_level_other_than_one_is_rejected():
    with pytest.raises(AdtError, match="stack level must be 1"):
        AdtSpec(kind="stack", alphabet=("a",), level=2)


def test_monotonicity_of_well_structured_kinds():
    # weak counter and petri: v1 <= v2 and v1 -op-> v3 imply some v4 >= v3
    for spec in (WEAK, PETRI):
        values = enumerate_values(spec, 3)
        for v1, v2 in itertools.product(values, repeat=2):
            if not wqo_leq(spec, v1, v2):
                continue
            for op in spec.op_universe():
                v3 = adt_step(spec, v1, op)
                if v3 is not None:
                    v4 = adt_step(spec, v2, op)
                    assert v4 is not None and wqo_leq(spec, v3, v4), (
                        spec.kind, op, v1, v2, v3,
                    )


def test_strict_counter_not_monotone():
    # iszero fires at 0 but not at 1, so the counter cannot feed the
    # generic well-structured backend
    assert adt_step(COUNTER, 0, AdtOp("iszero")) is not None
    assert adt_step(COUNTER, 1, AdtOp("iszero")) is None


def test_wqo_examples():
    assert wqo_leq(COUNTER, 2, 5)
    assert not wqo_leq(COUNTER, 5, 2)
    assert wqo_leq(PETRI, mk_marking({"p": 1}), mk_marking({"p": 1, "q": 3}))
    assert not wqo_leq(PETRI, mk_marking({"p": 2}), mk_marking({"p": 1, "q": 9}))
    with pytest.raises(UnsupportedOrderError):
        wqo_leq(STACK, (), ("a",))


@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
def test_wqo_counter_is_a_partial_order(a, b, c):
    assert wqo_leq(COUNTER, a, a)
    if wqo_leq(COUNTER, a, b) and wqo_leq(COUNTER, b, c):
        assert wqo_leq(COUNTER, a, c)


@settings(max_examples=200)
@given(
    st.dictionaries(st.sampled_from(["p", "q"]), st.integers(0, 4)),
    st.dictionaries(st.sampled_from(["p", "q"]), st.integers(0, 4)),
)
def test_wqo_marking_matches_componentwise_definition(d1, d2):
    m1, m2 = mk_marking(d1), mk_marking(d2)
    expected = all(d1.get(p, 0) <= d2.get(p, 0) for p in ("p", "q"))
    assert wqo_leq(PETRI, m1, m2) == expected


def test_pre_min_upward_examples():
    assert pre_min_upward(COUNTER, AdtOp("dec"), UpwardBasis.of(COUNTER, [3])).elements == {4}
    assert pre_min_upward(COUNTER, AdtOp("inc"), UpwardBasis.of(COUNTER, [3])).elements == {2}
    assert pre_min_upward(COUNTER, AdtOp("inc"), UpwardBasis.of(COUNTER, [0])).elements == {0}
    assert pre_min_upward(COUNTER, AdtOp("iszero"), UpwardBasis.of(COUNTER, [0])).elements == {0}
    assert pre_min_upward(COUNTER, AdtOp("iszero"), UpwardBasis.of(COUNTER, [1])).elements == set()
    got = pre_min_upward(PETRI, AdtOp("t"), UpwardBasis.of(PETRI, [mk_marking({"q": 2})]))
    assert got.elements == {mk_marking({"p": 1, "q": 1})}


def _pre_min_matches_bruteforce(spec, op, basis_elems, size_bound):
    basis = UpwardBasis.of(spec, basis_elems)
    pre = pre_min_upward(spec, op, basis)
    for v in enumerate_values(spec, size_bound):
        claimed = pre.contains(spec, v)
        v2 = adt_step(spec, v, op)
        actual = v2 is not None and basis.contains(spec, v2)
        assert claimed == actual, (spec.kind, op, v, claimed, actual)


def test_pre_min_upward_sound_and_complete_counter():
    for op in (AdtOp("inc"), AdtOp("dec"), AdtOp("reset")):
        for k in range(4):
            _pre_min_matches_bruteforce(COUNTER, op, [k], size_bound=8)


def test_pre_min_upward_iszero_is_complete_but_not_upward_tight():
    # iszero is not monotone, so pre(up(0)) = {0} is not upward closed;
    # the returned basis still contains every true predecessor
    basis = UpwardBasis.of(COUNTER, [0])
    pre = pre_min_upward(COUNTER, AdtOp("iszero"), basis)
    assert pre.elements == {0}
    for v in range(8):
        v2 = adt_step(COUNTER, v, AdtOp("iszero"))
        if v2 is not None and basis.contains(COUNTER, v2):
            assert pre.contains(COUNTER, v)


def test_pre_min_upward_sound_and_complete_petri():
    # includes the DERIVED example: enumerate all markings with <= 3 tokens
    markings = enumerate_values(PETRI, 2)
    for op in (AdtOp("t"), AdtOp("reset")):
        for b in markings:
            _pre_min_matches_bruteforce(PETRI, op, [b], size_bound=3)


def test_pre_min_upward_rejects_unordered_kinds():
    with pytest.raises(UnsupportedOrderError):
        pre_min_upward(STACK, AdtOp("push", "a"), UpwardBasis(frozenset([()])))


def test_basis_minimality_preserved():
    b = UpwardBasis.of(COUNTER, [5, 2, 9, 2])
    assert b.elements == {2}
    b2 = UpwardBasis.of(PETRI, [mk_marking({"p": 1}), mk_marking({"p": 1, "q": 1})])
    assert b2.elements == {mk_marking({"p": 1})}
    for op in (AdtOp("t"),):
        out = pre_min_upward(PETRI, op, b2)
        elems = list(out.elements)
        for e1, e2 in itertools.permutations(elems, 2):
            assert not wqo_leq(PETRI, e1, e2)


def test_minimize_keeps_incomparable_elements():
    elems = [mk_marking({"p": 2}), mk_marking({"q": 2}), mk_marking({"p": 1, "q": 1})]
    assert set(minimize(PETRI, elems)) == set(elems)


def test_value_size_measures():
    assert value_size(COUNTER, 7) == 7
    assert value_size(STACK, ("a", "b")) == 2
    assert value_size(PETRI, mk_marking({"p": 2, "q": 1})) == 3
    assert value_size(trivial_spec(), ()) == 0
    h = AdtSpec(kind="ho-stack", level=2, alphabet=("a",))
    # nested structure counts sub-stacks, so growth without symbols is seen
    assert value_size(h, ((),)) < value_size(h, ((), ()))


def test_initial_values():
    assert COUNTER.initial_value() == 0
    assert STACK.initial_value() == ()
    assert PETRI.initial_value() == mk_marking({"p": 1})
    assert AdtSpec(kind="ho-stack", level=3, alphabet=("a",)).initial_value() == (((),),)
    assert AdtSpec(kind="multi-stack", count=2, alphabet=("a",)).initial_value() == ((), ())
