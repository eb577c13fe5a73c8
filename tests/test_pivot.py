import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    UpdateSequence,
    differentiated_words,
    initial_view,
    mf,
    parse_program,
    pivot_reach_enumerated,
    pivot_step,
    pivot_step_reference,
)
from tsoreach.adt import trivial_spec
from tsoreach.gen import random_program
from tsoreach.model import MemorySpec, ProcessDescription, rd, wr
from tsoreach.cli import main
from tsoreach.pivot import (
    PivotError,
    PivotState,
    _pivot_rules,
    parse_omega,
    pivot_reach,
    pivot_search,
    replay_pivot,
)
from tsoreach.tso import OracleBounds, bounded_reach
from tsoreach.verdict import conclude


def _proc(delta, states=("q0", "q1", "qf"), vars_=("x",), d_max=1):
    mem = MemorySpec(variables=vars_, d_max=d_max)
    proc = ProcessDescription(
        name="P", states=states, q_init=states[0], q_final=states[-1], delta=delta
    )
    return proc, mem, trivial_spec()


def test_update_sequence_must_be_differentiated():
    UpdateSequence((("x", 1), ("x", 0)))
    with pytest.raises(PivotError):
        UpdateSequence((("x", 1), ("x", 1)))
    assert UpdateSequence((("x", 1),)).pos(("x", 1)) == 1
    assert UpdateSequence((("x", 1),)).pos(("x", 0)) is None


def test_initial_view_definition():
    proc, mem, adt = _proc((("q0", wr("x", 1), "q1"),))
    v = initial_view(proc, mem, adt, (("x", 1),), 1)
    assert v.state == "q0" and v.value == ()
    assert v.lw == (None,) and v.phi_e == 0 and v.phi_l == (0,) and v.phi_p == 1
    # empty omega: the only provider has rank 1
    v2 = initial_view(proc, mem, adt, (), 1)
    assert v2.phi_p == 1
    # rank |omega|+1 is the final provider
    omega2 = (("x", 1), ("x", 0))
    v3 = initial_view(proc, mem, adt, omega2, 3)
    assert v3.phi_p == 3
    with pytest.raises(PivotError):
        initial_view(proc, mem, adt, omega2, 4)
    with pytest.raises(PivotError):
        initial_view(proc, mem, adt, omega2, 0)


def test_read1_from_own_last_write():
    proc, mem, adt = _proc((("q0", rd("x", 1), "q1"),), states=("q0", "q1"))
    v = initial_view(proc, mem, adt, (("x", 1),), 2)
    v = v.__class__(**{**v.__dict__, "lw": (1,)})
    succs = pivot_step(v, proc, mem, adt)
    rules = {lab.rule for lab, _ in succs}
    assert "read1" in rules
    read1 = [v2 for lab, v2 in succs if lab.rule == "read1"][0]
    assert read1.lw == v.lw and read1.phi_e == v.phi_e and read1.state == "q1"


def test_write2_initiates_next_provider():
    proc, mem, adt = _proc((("q0", wr("x", 1), "q1"),), states=("q0", "q1"))
    omega = (("x", 1),)
    v = initial_view(proc, mem, adt, omega, 1)
    [(lab, v2)] = pivot_step(v, proc, mem, adt)
    assert lab.rule == "write2"
    assert v2 == initial_view(proc, mem, adt, omega, 2)


def test_write1_updates_lw_and_phi_l():
    proc, mem, adt = _proc((("q0", wr("x", 1), "q1"),), states=("q0", "q1"))
    omega = (("x", 1), ("x", 0))
    v = initial_view(proc, mem, adt, omega, 2)
    succs = dict((lab.rule, v2) for lab, v2 in pivot_step(v, proc, mem, adt))
    assert set(succs) == {"write1"}
    w = succs["write1"]
    assert w.lw == (1,) and w.phi_l == (1,) and w.phi_p == 2


def test_write_of_message_absent_from_omega_is_disabled():
    proc, mem, adt = _proc((("q0", wr("x", 1), "q1"),), states=("q0", "q1"))
    v = initial_view(proc, mem, adt, (("x", 0),), 2)
    assert pivot_step(v, proc, mem, adt) == []


def test_read2_initial_value_guard():
    # LW(x) none and the first message on x sits beyond phi_e
    proc, mem, adt = _proc((("q0", rd("x", 0), "q1"),), states=("q0", "q1"))
    omega = (("x", 1),)
    v = initial_view(proc, mem, adt, omega, 2)
    rules = {lab.rule for lab, _ in pivot_step(v, proc, mem, adt)}
    assert "read2" in rules  # pos 1 > phi_e 0
    v_hi = v.__class__(**{**v.__dict__, "phi_e": 1})
    rules_hi = {lab.rule for lab, _ in pivot_step(v_hi, proc, mem, adt)}
    assert "read2" not in rules_hi  # initial value overwritten by rank 1
    # a variable never pivoted keeps its initial value forever
    v_no = initial_view(proc, mem, adt, (), 1)
    assert {lab.rule for lab, _ in pivot_step(v_no, proc, mem, adt)} == {"read2"}


def test_read3_needs_earlier_provider_and_raises_phi_e():
    proc, mem, adt = _proc((("q0", rd("x", 1), "q1"),), states=("q0", "q1"))
    omega = (("x", 1),)
    v1 = initial_view(proc, mem, adt, omega, 1)
    assert all(lab.rule != "read3" for lab, _ in pivot_step(v1, proc, mem, adt))
    v2 = initial_view(proc, mem, adt, omega, 2)
    [(lab, w)] = [s for s in pivot_step(v2, proc, mem, adt) if s[0].rule == "read3"]
    assert w.phi_e == 1


def test_fence_raises_phi_e_to_local_max():
    proc, mem, adt = _proc((("q0", mf(), "q1"),), states=("q0", "q1"))
    omega = (("x", 1),)
    v = initial_view(proc, mem, adt, omega, 2)
    v = v.__class__(**{**v.__dict__, "phi_l": (1,)})
    [(lab, w)] = pivot_step(v, proc, mem, adt)
    assert lab.rule == "fence" and w.phi_e == 1


def test_single_process_write_read_reachable():
    proc, mem, adt = _proc(
        (("q0", wr("x", 1), "q1"), ("q1", rd("x", 1), "qf"))
    )
    v = pivot_reach(proc, mem, adt)
    assert v.outcome == "reachable"
    assert ("x", 1) in parse_omega(v.witness[0])
    final = replay_pivot(proc, mem, adt, v.witness, require_final="qf")
    assert final.state == "qf"


def test_no_writer_unreachable():
    proc, mem, adt = _proc((("q0", rd("x", 1), "qf"),), states=("q0", "qf"))
    assert pivot_reach(proc, mem, adt).outcome == "unreachable"
    assert pivot_reach_enumerated(proc, mem, adt).outcome == "unreachable"


def test_differentiated_words_order_and_count():
    msgs = (("x", 0), ("x", 1))
    words = list(differentiated_words(msgs))
    assert words[0] == ()
    assert len(words) == 1 + 2 + 2  # eps, two singletons, two orderings
    assert len(set(words)) == len(words)


def _witness_invariants(witness):
    """phi_p advances exactly at write2 and stays within omega."""
    omega = parse_omega(witness[0])
    phi_p = 1 + sum(line.startswith("write2: ") for line in witness[1:])
    assert phi_p <= len(omega) + 1


@pytest.mark.parametrize("seed", range(25))
def test_lazy_engine_matches_enumerated_reference(seed):
    rng = random.Random(seed)
    mem, adt, proc = random_program(rng, n_states=3, n_vars=2, d_max=1)
    lazy = pivot_reach(proc, mem, adt)
    ref = pivot_reach_enumerated(proc, mem, adt)
    assert lazy.outcome == ref.outcome
    if lazy.outcome == "reachable":
        replay_pivot(proc, mem, adt, lazy.witness, require_final=proc.q_final)
        replay_pivot(proc, mem, adt, ref.witness, require_final=proc.q_final)
        _witness_invariants(lazy.witness)


@pytest.mark.parametrize("seed,n_vars,d_max", [
    (0, 1, 2), (1, 1, 2), (2, 1, 2), (3, 1, 2),
    (4, 2, 2), (5, 2, 2),
])
def test_lazy_engine_matches_reference_larger_domains(seed, n_vars, d_max):
    rng = random.Random(5000 + seed)
    mem, adt, proc = random_program(rng, n_states=3, n_vars=n_vars, d_max=d_max)
    assert pivot_reach(proc, mem, adt).outcome == pivot_reach_enumerated(
        proc, mem, adt
    ).outcome


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_lazy_engine_matches_reference_hypothesis(seed):
    rng = random.Random(seed)
    mem, adt, proc = random_program(rng, n_states=3, n_vars=1, d_max=1,
                                    edge_factor=2.5)
    assert pivot_reach(proc, mem, adt).outcome == pivot_reach_enumerated(
        proc, mem, adt
    ).outcome


@pytest.mark.parametrize("seed", range(20))
def test_oracle_soundness_sampled(seed):
    # anything the bounded concrete search reaches is pivot-reachable
    rng = random.Random(1000 + seed)
    mem, adt, proc = random_program(rng, n_states=4, n_vars=2, d_max=1)
    o = bounded_reach(proc, mem, adt, OracleBounds(n_max=3, step_max=9))
    if o.outcome == "reachable":
        assert pivot_reach(proc, mem, adt).outcome == "reachable"


def test_view_run_invariants_along_replayed_witness():
    proc, mem, adt = _proc(
        (
            ("q0", wr("x", 1), "q1"),
            ("q1", rd("x", 1), "q2"),
            ("q2", mf(), "qf"),
        ),
        states=("q0", "q1", "q2", "qf"),
    )
    v = pivot_reach(proc, mem, adt)
    assert v.outcome == "reachable"
    omega = parse_omega(v.witness[0])
    view = initial_view(proc, mem, adt, omega, 1)
    seen = [view]
    for line in v.witness[1:]:
        matches = [w for lab, w in pivot_step(view, proc, mem, adt) if str(lab) == line]
        view = matches[0]
        seen.append(view)
    for a, b in zip(seen, seen[1:]):
        assert b.omega == a.omega  # omega constant along the run
        if b.phi_p == a.phi_p:
            assert b.phi_e >= a.phi_e
        else:
            assert b.phi_p == a.phi_p + 1 and b.phi_e == 0


def test_counter_program_with_value_bound_conclusive():
    text = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : op inc
trans q1 -> qf : op iszero
"""
    prog = parse_program(text)
    v = pivot_reach(prog.proc, prog.mem, prog.adt, value_bound=4)
    assert v.outcome == "unreachable" and v.closed


def test_counter_program_pruned_is_inconclusive():
    # the path to the target takes the counter to 5, above the bound; without
    # the counter the target is reachable, so pruning never yields unreachable
    text = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state q2
state q3
state q4
state qf target
trans q0 -> q1 : op inc
trans q1 -> q2 : op inc
trans q2 -> q3 : op inc
trans q3 -> q4 : op inc
trans q4 -> qf : op inc
"""
    prog = parse_program(text)
    v = pivot_reach(prog.proc, prog.mem, prog.adt, value_bound=3)
    assert v.outcome == "inconclusive" and not v.closed


def test_the_default_value_bound_closes_a_stack_program(tmp_path, capsys):
    # gen --kind program --adt "stack alphabet a,b" --seed 17 pushes without
    # bound; with no value bound the search grew past 2 GB at budget 50,000
    path = tmp_path / "p.tso"
    assert main(["gen", "--kind", "program", "--adt", "stack alphabet a,b", "--seed", "17",
                 "--out", str(path)]) == 0
    prog = parse_program(path.read_text())
    r, stats = pivot_search(prog.proc, prog.mem, prog.adt, budget=50_000)
    for v in (pivot_reach(prog.proc, prog.mem, prog.adt, budget=50_000), conclude(r.outcome, stats)):
        assert (v.outcome, v.stats.explored) == ("unreachable", 18)


def test_trivial_adt_never_inconclusive():
    rng = random.Random(4)
    for _ in range(20):
        mem, adt, proc = random_program(rng, n_states=4, n_vars=2, d_max=1)
        assert pivot_reach(proc, mem, adt).outcome in ("reachable", "unreachable")


def test_write_rule_guards_sampled():
    # write1 only below the progress pointer, write2 exactly at it
    rng = random.Random(8)
    for _ in range(30):
        mem, adt, proc = random_program(rng, n_states=3, n_vars=2, d_max=1)
        msgs = mem.messages()
        omega = tuple(rng.sample(msgs, rng.randrange(len(msgs) + 1)))
        k = rng.randrange(1, len(omega) + 2)
        view = initial_view(proc, mem, adt, omega, k)
        seq = UpdateSequence(omega)
        for lab, _succ in pivot_step(view, proc, mem, adt):
            if lab.rule in ("write1", "write2"):
                rank = seq.pos((lab.instr.var, lab.instr.val))
                assert rank is not None
                if lab.rule == "write1":
                    assert rank < view.phi_p
                else:
                    assert rank == view.phi_p


def _reference_views(proc, mem, adt, omega) -> list:
    """Every view the literal rules reach over omega, from the rank-1
    provider, in the order they are found."""
    views = [initial_view(proc, mem, adt, omega, 1)]
    seen = set(views)
    for view in views:
        for _, v2 in pivot_step_reference(view, proc, mem, adt):
            if v2 not in seen:
                seen.add(v2)
                views.append(v2)
    return views


@pytest.mark.parametrize("seed", range(15))
def test_pivot_step_matches_the_full_omega_reference(seed):
    # the lazy rules filtered to a full omega are the literal rules, on every
    # view the literal rules reach
    rng = random.Random(300 + seed)
    mem, adt, proc = random_program(rng, n_states=3, n_vars=2, d_max=1)
    for omega in differentiated_words(mem.messages(), max_len=3):
        for view in _reference_views(proc, mem, adt, omega):
            assert pivot_step(view, proc, mem, adt) == pivot_step_reference(view, proc, mem, adt)


@pytest.mark.parametrize("seed", range(15))
def test_one_rules_function_keeps_its_prefix_tables_fresh(seed):
    # one rules function keeps a rank table per prefix it meets; run it over
    # every view of every omega, taking the omegas in turn, so that its
    # tables are reused across omegas that share a prefix and any stale
    # entry shows against fresh rules and against the literal rules
    rng = random.Random(300 + seed)
    mem, adt, proc = random_program(rng, n_states=3, n_vars=2, d_max=1)
    per_omega = [_reference_views(proc, mem, adt, omega)
                 for omega in differentiated_words(mem.messages(), max_len=3)]
    shared = _pivot_rules(proc, mem, adt)
    for views in itertools.zip_longest(*per_omega):
        for view in filter(None, views):
            s = PivotState(view.state, view.value, view.lw, view.phi_e, view.phi_l,
                           view.omega[:view.phi_p - 1])
            assert shared(s) == _pivot_rules(proc, mem, adt)(s)
            assert (pivot_step(view, proc, mem, adt, shared)
                    == pivot_step_reference(view, proc, mem, adt))
