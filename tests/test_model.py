import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_action,
    assert_edges_match_reference,
    parse_machine,
    register_successors,
    rm_reachable_brute,
)
from tsoreach.adt import AdtOp, AdtSpec, trivial_spec
from tsoreach.dsl import print_machine
from tsoreach.gen import intersection_fixtures, random_machine
from tsoreach.model import (
    MemorySpec,
    ModelError,
    ProcessDescription,
    RegisterAction,
    RegisterMachine,
    RmConfiguration,
    lower_tier2_to_tier1,
    lower_tier3_to_tier2,
    rd,
    read,
    replay_rm,
    rm_step,
    skp,
    validate_program,
    wr,
    write,
)
from tsoreach.solvers import _control_closure, solve_auto
from tsoreach.translate import encode_intersection
from tsoreach.verdict import INCONCLUSIVE, REACHABLE


def mk(states, delta, regs=("r",), bound=2, adt=None, target=None):
    return RegisterMachine(
        name="m",
        states=tuple(states),
        q_init=states[0],
        q_target=target or states[-1],
        registers=tuple(regs),
        bound=bound,
        adt=adt or trivial_spec(),
        delta=tuple(delta),
    )


def test_rm_step_write_and_read():
    rm = mk(["q0", "q1"], [("q0", write("r", 2), "q1")])
    c = rm.initial_configuration()
    [(label, c2)] = rm_step(rm, c)
    assert c2 == RmConfiguration("q1", (2,), ())

    rm2 = mk(["q0", "q1"], [("q0", read("r", 1), "q1")])
    assert rm_step(rm2, rm2.initial_configuration()) == []


def test_rm_step_comparisons():
    rm = mk(
        ["q0", "q1"],
        [("q0", RegisterAction("cke", "r1", "r2"), "q1")],
        regs=("r1", "r2"),
        bound=3,
    )
    c = RmConfiguration("q0", (3, 3), ())
    [(label, c2)] = rm_step(rm, c)
    assert c2.state == "q1" and c2.regs == (3, 3)
    assert rm_step(rm, RmConfiguration("q0", (3, 2), ())) == []


def test_rm_step_only_write_changes_registers():
    rng = random.Random(3)
    for _ in range(40):
        rm = random_machine(rng, n_states=4, n_regs=2, bound=2, tier=3)
        c = rm.initial_configuration()
        for _ in range(6):
            succs = rm_step(rm, c)
            if not succs:
                break
            label, c2 = succs[rng.randrange(len(succs))]
            act = label[1]
            if isinstance(act, AdtOp) or act.kind in ("skp", "read", "ckz",
                                                      "cke", "ckne", "ckl",
                                                      "ckg", "ckle", "ckge"):
                assert c2.regs == c.regs
            elif act.kind in ("write", "set"):
                diff = [i for i in range(len(c.regs)) if c.regs[i] != c2.regs[i]]
                assert len(diff) <= 1
            c = c2


def test_inc_blocks_at_ceiling_and_dec_at_zero():
    rm = mk(["q0", "q1"], [("q0", RegisterAction("inc", "r"), "q1")], bound=1)
    c = RmConfiguration("q0", (1,), ())
    assert rm_step(rm, c) == []
    rm2 = mk(["q0", "q1"], [("q0", RegisterAction("dec", "r"), "q1")], bound=1)
    assert rm_step(rm2, rm2.initial_configuration()) == []


def test_validation_rejects_bad_models():
    with pytest.raises(ModelError):
        mk(["q0"], [("q0", skp(), "nope")])
    with pytest.raises(ModelError):
        mk(["q0", "q1"], [("q0", write("bad", 1), "q1")])
    with pytest.raises(ModelError):
        mk(["q0", "q1"], [("q0", write("r", 9), "q1")], bound=2)
    with pytest.raises(ModelError):
        MemorySpec(variables=("x", "x"), d_max=1)


def test_validation_errors_name_the_first_edge_at_fault():
    push, bad_op = AdtOp("push", "a"), AdtOp("inc")
    stack = AdtSpec(kind="stack", alphabet=("a",))
    delta = [("q0", push, "q1"), ("q1", skp(), "q0"), ("q0", bad_op, "q1"),
             ("q1", bad_op, "q0"), ("q0", write("r", 9), "q1")]
    with pytest.raises(ModelError, match="^operation 'inc' not valid for adt stack$") as e:
        mk(["q0", "q1"], delta, adt=stack)
    assert e.value.edge == 2
    with pytest.raises(ModelError, match="^literal 9 outside 0..2$") as e:
        mk(["q0", "q1"], delta[:2] + delta[4:], adt=stack)
    assert e.value.edge == 2
    with pytest.raises(ModelError, match="^duplicate register names$") as e:
        mk(["q0", "q1"], delta, regs=("r", "r"), adt=stack)
    assert e.value.edge is None
    prog_delta = (("q0", wr("x", 1), "q1"), ("q1", rd("y", 0), "q0"))
    proc = ProcessDescription("P", ("q0", "q1"), "q0", "q1", prog_delta)
    with pytest.raises(ModelError, match="^undeclared variable y in q1->q0$") as e:
        validate_program(MemorySpec(("x",), 1), trivial_spec(), proc)
    assert e.value.edge == 1


def test_tier_scan():
    rm = mk(["q0", "q1"], [("q0", RegisterAction("cke", "r", 1), "q1")])
    assert rm.tier() == 3
    assert lower_tier3_to_tier2(rm).tier() <= 2
    assert lower_tier2_to_tier1(lower_tier3_to_tier2(rm)).tier() == 1


def test_lower_tier2_examples():
    # ckz becomes a single read of zero
    rm = mk(["q0", "q1"], [("q0", RegisterAction("ckz", "r"), "q1")])
    low = lower_tier2_to_tier1(rm)
    assert low.delta == (("q0", read("r", 0), "q1"),)
    # inc at the ceiling has no enabled expansion
    rm2 = mk(["q0", "q1"], [("q0", RegisterAction("inc", "r"), "q1")], bound=1)
    low2 = lower_tier2_to_tier1(rm2)
    c = RmConfiguration("q0", (1,), ())
    assert all(c2.state != "q1" for _, c2 in rm_step(low2, c))


def test_lower_tier2_inc_dec_fans_exact():
    # one read/write path per enabled value, each with its own middle state
    rm = mk(["q0", "q1"], [("q0", RegisterAction("inc", "r"), "q1"),
                           ("q0", RegisterAction("dec", "r"), "q1")], bound=2)
    low = lower_tier2_to_tier1(rm)
    assert low.delta == (
        ("q0", read("r", 0), "g1"), ("g1", write("r", 1), "q1"),
        ("q0", read("r", 1), "g2"), ("g2", write("r", 2), "q1"),
        ("q0", read("r", 1), "g3"), ("g3", write("r", 0), "q1"),
        ("q0", read("r", 2), "g4"), ("g4", write("r", 1), "q1"),
    )
    assert low.states == ("q0", "q1", "g1", "g2", "g3", "g4")


def test_lower_tier3_exact():
    # paths that read the same first register share the state after it
    rm = mk(["q0", "q1"], [("q0", RegisterAction("ckle", "r1", "r2"), "q1"),
                           ("q0", RegisterAction("set", "r2", "r1"), "q1"),
                           ("q0", RegisterAction("ckle", 1, 0), "q1"),
                           ("q0", RegisterAction("ckle", 0, 1), "q1")],
            regs=("r1", "r2"), bound=1)
    low = lower_tier3_to_tier2(rm)
    assert low.delta == (
        ("q0", read("r1", 0), "g1"), ("g1", read("r2", 0), "q1"),
        ("g1", read("r2", 1), "q1"),
        ("q0", read("r1", 1), "g2"), ("g2", read("r2", 1), "q1"),
        ("q0", read("r1", 0), "g3"), ("g3", write("r2", 0), "q1"),
        ("q0", read("r1", 1), "g4"), ("g4", write("r2", 1), "q1"),
        ("q0", skp(), "q1"),
    )
    assert low.registers == rm.registers


@pytest.mark.parametrize("seed", range(20))
def test_lower_tier3_adds_no_registers(seed):
    rng = random.Random(300 + seed)
    rm = random_machine(rng, n_states=4, n_regs=1 + seed % 3, bound=seed % 4, tier=3)
    low2 = lower_tier3_to_tier2(rm)
    assert low2.registers == lower_tier2_to_tier1(low2).registers == rm.registers


def test_lower_tier3_requires_tier2_input_for_stage_two():
    rm = mk(["q0", "q1"], [("q0", RegisterAction("set", "r", 1), "q1")])
    with pytest.raises(ModelError):
        lower_tier2_to_tier1(rm)


def test_lowering_identity_on_low_tiers():
    rm = mk(["q0", "q1"], [("q0", write("r", 1), "q1")])
    assert lower_tier3_to_tier2(rm) is rm


def test_set_literal_reaches_value():
    rm = mk(["q0", "q1"], [("q0", RegisterAction("set", "r", 3), "q1")], bound=5)
    low = lower_tier3_to_tier2(rm)
    assert low.tier() <= 2
    # explicit search: q1 reachable with r == 3
    frontier = [low.initial_configuration()]
    seen = set(frontier)
    hit = False
    while frontier:
        nxt = []
        for c in frontier:
            for _, c2 in rm_step(low, c):
                if c2 not in seen:
                    seen.add(c2)
                    nxt.append(c2)
                    if c2.state == "q1":
                        assert c2.regs[low.register_indices["r"]] == 3
                        hit = True
        frontier = nxt
    assert hit


def test_cke_gadget_equivalence():
    # q_target reachable iff regs equal at the comparison point
    for v1, v2, expected in [(2, 2, True), (2, 1, False), (0, 0, True)]:
        rm = RegisterMachine(
            "m", ("q0", "a", "b", "qt"), "q0", "qt", ("r1", "r2"), 3, trivial_spec(),
            (
                ("q0", write("r1", v1), "a"),
                ("a", write("r2", v2), "b"),
                ("b", RegisterAction("cke", "r1", "r2"), "qt"),
            ),
        )
        low = lower_tier3_to_tier2(rm)
        assert rm_reachable_brute(low) == expected
        assert rm_reachable_brute(rm) == expected


def _lowering_cases():
    # the plain seed ids are the original bound-3 trivial-type cases
    for seed in range(12):
        for bound in range(6):
            for adt in ("trivial", "stack"):
                case_id = str(seed) if (bound, adt) == (3, "trivial") else f"{seed}-bound{bound}-{adt}"
                yield pytest.param(seed, bound, adt, id=case_id)


@pytest.mark.parametrize("seed,bound,adt", _lowering_cases())
def test_lowering_preserves_reachability_randomized(seed, bound, adt):
    rng = random.Random(seed)
    if adt == "trivial":
        rm = random_machine(rng, n_states=4, n_regs=2, bound=bound, tier=3)
        reachable = rm_reachable_brute
    else:
        stack = AdtSpec(kind="stack", alphabet=("a",))
        rm = random_machine(rng, n_states=4, n_regs=2, bound=bound, adt=stack, tier=3,
                            op_weight=30)

        def reachable(m):
            v = solve_auto(m)
            assert v.outcome != INCONCLUSIVE
            return v.outcome == REACHABLE
    expected = reachable(rm)
    low2 = lower_tier3_to_tier2(rm)
    assert reachable(low2) == expected
    low1 = lower_tier2_to_tier1(low2)
    assert reachable(low1) == expected
    # syntactic scan: only permitted tiers remain
    assert low2.tier() <= 2 and low1.tier() == 1


@pytest.mark.parametrize("seed", range(8))
def test_lowering_preserves_reachable_register_sets(seed):
    # random tier-II machines: identical reachable (q, regs) projections
    rng = random.Random(100 + seed)
    rm = random_machine(rng, n_states=4, n_regs=2, bound=2, tier=2)
    low = lower_tier2_to_tier1(rm)

    def reachable_pairs(m):
        seen = {m.initial_configuration()}
        frontier = list(seen)
        while frontier:
            nxt = []
            for c in frontier:
                for _, c2 in rm_step(m, c):
                    if c2 not in seen:
                        seen.add(c2)
                        nxt.append(c2)
            frontier = nxt
        return {(c.state, c.regs[: len(rm.registers)]) for c in seen
                if c.state in m.states and c.state in rm.states}

    assert reachable_pairs(rm) == reachable_pairs(low)


def test_replay_rm_rejects_disabled_steps():
    rm = mk(["q0", "q1"], [("q0", read("r", 1), "q1")])
    with pytest.raises(ModelError):
        replay_rm(rm, [rm.delta[0]])


@pytest.mark.parametrize("seed", range(6))
def test_machine_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    adt = rng.choice([None, AdtSpec(kind="counter"),
                      AdtSpec(kind="stack", alphabet=("a", "b"))])
    rm = random_machine(rng, n_states=4, n_regs=2, bound=2, tier=3,
                        adt=adt, op_weight=30 if adt else 0)
    text = print_machine(rm)
    rm2 = parse_machine(text)
    assert rm2 == rm
    assert print_machine(rm2) == text


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), bound=st.integers(0, 2),
       n_regs=st.integers(0, 3))
def test_register_semantics_agree(rng, bound, n_regs):
    """apply_action, the actions' definitions, the control closure and
    rm_step all describe the same register steps."""
    rm = random_machine(rng, n_states=4, n_regs=n_regs, bound=bound, tier=3)
    assignments = list(itertools.product(range(bound + 1), repeat=n_regs))
    for act in {act for _, act, _ in rm.delta}:
        for regs in assignments:
            succs = register_successors(rm, dict(zip(rm.registers, regs)), act)
            expected = [tuple(r[x] for x in rm.registers) for r in succs]
            got = apply_action(rm, regs, act)
            assert ([] if got is None else [got]) == expected

    # the machines carry no data-type operations: every edge is a register edge
    _, _, edges_from = _control_closure(rm)
    for (q, regs), outs in edges_from.items():
        c = RmConfiguration(q, regs, rm.adt.initial_value())
        assert outs == [(edge, (c2.state, c2.regs)) for edge, c2 in rm_step(rm, c)]


def _all_assignments(rm):
    return list(itertools.product(range(rm.bound + 1), repeat=len(rm.registers)))


@pytest.mark.parametrize("tier", [1, 2, 3])
@pytest.mark.parametrize("adt", [
    trivial_spec(), AdtSpec(kind="counter"), AdtSpec(kind="stack", alphabet=("a", "b")),
], ids=lambda adt: adt.kind)
def test_edges_from_equals_the_eager_reference(tier, adt):
    # the machines of gen --kind machine --tier T --adt A --seed 0..29, parsed
    # back so that equal actions share one object as in any DSL input
    for seed in range(30):
        rm = parse_machine(print_machine(random_machine(
            random.Random(seed), n_states=4, n_regs=2, bound=1, adt=adt, tier=tier,
            op_weight=0 if adt.kind == "trivial" else 40)))
        assignments = _all_assignments(rm)
        assert_edges_match_reference(rm, assignments)
        for act in {act for _, act, _ in rm.delta if isinstance(act, RegisterAction)}:
            for regs in assignments:
                succs = register_successors(rm, dict(zip(rm.registers, regs)), act)
                expected = tuple(succs[0][r] for r in rm.registers) if succs else None
                assert apply_action(rm, regs, act) == expected


def test_edges_from_equals_the_eager_reference_on_intersection_fixtures():
    for _, pda, fsas, _ in intersection_fixtures():
        rm = encode_intersection(pda, fsas)
        assert_edges_match_reference(rm, _all_assignments(rm))


def test_edges_from_a_state_without_edges_and_the_target():
    rm = mk(["q0", "q1", "q2"], [("q0", write("r", 1), "q1"), ("q1", AdtOp("reset"), "q0")])
    assert rm.edges_from("q2") == ()  # the target, with no outgoing edge
    (edge, step), = rm.edges_from("q0")
    assert edge is rm.delta[0] and step((0,)) == (1,)
    assert rm.edges_from("q1") == ((rm.delta[1], None),)
    assert_edges_match_reference(rm, _all_assignments(rm))


def test_equal_actions_of_a_machine_decode_once():
    act = write("r", 1)
    rm = mk(["q0", "q1"], [("q0", act, "q1"), ("q1", act, "q0"), ("q1", write("r", 1), "q1")])
    (_, step0), = rm.edges_from("q0")
    (_, step1), (_, step2) = rm.edges_from("q1")
    assert step0 is step1  # one object, decoded once
    assert step2 is not step1 and step2((0,)) == step1((0,))
    assert rm.edges_from("q1") is rm.edges_from("q1")
