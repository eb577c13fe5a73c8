import dataclasses
import random

import pytest

from helpers import (
    assert_edges_match_reference,
    encode_rm_to_coverability,
    net_coverable_forward,
    parse_program,
)
from tsoreach.adt import AdtOp, AdtSpec, PetriTransition, mk_marking, trivial_spec
from tsoreach.automata import (
    AutomatonError,
    CoverabilityInstance,
    FiniteAutomaton,
    PushdownAutomaton,
)
from tsoreach.gen import (
    anbnc_pda,
    intersection_fixtures,
    random_machine,
    random_net,
    random_program,
)
from tsoreach.model import (
    ModelError,
    RegisterAction,
    RegisterMachine,
    read,
    skp,
    write,
)
from tsoreach import model, translate
from tsoreach.cli import main
from tsoreach.pivot import pivot_reach, pivot_search
from tsoreach.solvers import solve_counter, solve_finite, solve_stack
from tsoreach.translate import (
    build_register_machine,
    build_tso_from_rm,
    encode_coverability_to_rm,
    encode_intersection,
    encode_rm_to_coverability_labelled,
    lift_pivot_witness,
)
from tsoreach.verdict import REACHED


def test_register_set_and_domain_formulas():
    rng = random.Random(0)
    for _ in range(10):
        n_vars = rng.randrange(1, 3)
        d_max = rng.randrange(1, 3)
        mem, adt, proc = random_program(rng, n_states=3, n_vars=n_vars, d_max=d_max)
        rm = build_register_machine(proc, mem, adt)
        n_msgs = len(mem.messages())
        assert len(rm.registers) == 2 * n_vars + n_msgs + 4
        assert rm.bound == n_msgs + 1


def test_two_state_one_var_example_counts():
    mem, adt, proc = random_program(random.Random(1), n_states=2, n_vars=1, d_max=1)
    rm = build_register_machine(proc, mem, adt)
    assert len(rm.registers) == 8  # lw, phl, two ranks, phe, phlmax, php, rknxt
    assert rm.bound == 3


def test_empty_omega_branch():
    # stopping the rank initializer immediately leaves every rank 0, so no
    # write is ever enabled and a write-guarded target is unreachable
    text = """\
memory vars x domain 0..1
adt trivial
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : wr x 1
trans q1 -> qf : rd x 1
"""
    prog = parse_program(text)
    rm = build_register_machine(prog.proc, prog.mem, prog.adt)
    # the machine can still reach the target by ranking the message first
    assert solve_finite(rm).outcome == "reachable"
    proc2 = prog.proc
    # a target needing only the initial value is reachable with omega = eps
    text2 = text.replace("trans q1 -> qf : rd x 1", "trans q1 -> qf : rd x 0").replace(
        "trans q0 -> q1 : wr x 1", "trans q0 -> q1 : skip"
    )
    prog2 = parse_program(text2)
    rm2 = build_register_machine(prog2.proc, prog2.mem, prog2.adt)
    assert solve_finite(rm2).outcome == "reachable"


@pytest.mark.parametrize("seed", range(30))
def test_forward_reduction_agrees_with_pivot(seed):
    rng = random.Random(seed)
    mem, adt, proc = random_program(rng, n_states=4, n_vars=2, d_max=1)
    pv = pivot_reach(proc, mem, adt)
    rm = build_register_machine(proc, mem, adt)
    sv = solve_finite(rm)
    assert pv.outcome == sv.outcome


def test_forward_reduction_with_counter_reset_semantics():
    # provider boundaries hand a fresh counter to the next provider; the
    # machine must mirror that with its reset step
    text = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state q2
state q3
state qf target
trans q0 -> q1 : op inc
trans q1 -> q2 : wr x 1
trans q0 -> q3 : rd x 1
trans q3 -> qf : op iszero
"""
    prog = parse_program(text)
    assert pivot_reach(prog.proc, prog.mem, prog.adt, value_bound=6).outcome == "reachable"
    rm = build_register_machine(prog.proc, prog.mem, prog.adt)
    assert solve_counter(rm).outcome == "reachable"


def _role_proc(rm):
    return build_tso_from_rm(rm)


def test_reverse_reduction_shape():
    rm = RegisterMachine(
        "m", ("a", "b", "t"), "a", "t", ("r",), 2, trivial_spec(),
        (("a", write("r", 1), "b"), ("b", read("r", 1), "t")),
    )
    gen = _role_proc(rm)
    assert set(gen.mem.variables) == {"xr_r", "xs", "xc"}
    # three skip edges out of the fresh initial state: the role choice
    roles = [e for e in gen.proc.delta if e[0] == gen.proc.q_init]
    assert len(roles) == 3 and all(e[1].kind == "skip" for e in roles)


def test_reverse_reduction_zero_registers():
    rm = RegisterMachine("m", ("a", "t"), "a", "t", (), 1, trivial_spec(),
                         (("a", skp(), "t"),))
    gen = _role_proc(rm)
    # verifier checks only xs then writes xc
    ver_edges = [e for e in gen.proc.delta if e[0].startswith("ver")]
    kinds = [(e[1].kind, e[1].var) for e in ver_edges]
    assert kinds == [("rd", "xs"), ("wr", "xc")]
    assert pivot_reach(gen.proc, gen.mem, gen.adt).outcome == "reachable"


def test_reverse_reduction_of_a_state_named_wait(tmp_path, capsys):
    # the simulator's copy of wait stays apart from the state that waits for
    # the verifier, so the unreachable target stays unreachable
    machine = tmp_path / "m.tso"
    machine.write_text("machine M\nregisters - bound 0\nstate a init\nstate wait\n"
                       "state b target\ntrans a -> wait : skp\n")
    translated = tmp_path / "t.tso"
    assert main(["check", str(machine)]) == 1
    assert main(["translate", str(machine), "--out", str(translated)]) == 0
    assert main(["check", str(translated)]) == 1
    assert main(["crosscheck", str(translated)]) == 1
    capsys.readouterr()


def test_reverse_reduction_rejects_higher_tiers():
    rm = RegisterMachine(
        "m", ("a", "t"), "a", "t", ("r",), 2, trivial_spec(),
        (("a", RegisterAction("inc", "r"), "t"),),
    )
    with pytest.raises(ModelError):
        build_tso_from_rm(rm)


@pytest.mark.parametrize("seed", range(15))
def test_reverse_reduction_agrees_with_direct_reachability(seed):
    rng = random.Random(200 + seed)
    rm = random_machine(rng, n_states=4, n_regs=2, bound=2, tier=1)
    direct = solve_finite(rm)
    gen = _role_proc(rm)
    pv = pivot_reach(gen.proc, gen.mem, gen.adt, budget=5_000_000)
    assert direct.outcome == pv.outcome


# ---------------------------------------------------------------------------
# Intersection encoding


def test_intersection_fixture_verdicts():
    for name, pda, fsas, nonempty in intersection_fixtures():
        rm = encode_intersection(pda, fsas)
        v = solve_stack(rm)
        expected = "reachable" if nonempty else "unreachable"
        assert v.outcome == expected, name


def test_intersection_zero_fsas_is_pda_emptiness():
    rm = encode_intersection(anbnc_pda(), ())
    assert solve_stack(rm).outcome == "reachable"


def test_intersection_requires_shared_alphabet():
    fsa = FiniteAutomaton("f", ("u",), "u", ("u",), ("a",), ())
    with pytest.raises(ModelError):
        encode_intersection(anbnc_pda(), (fsa,))


@pytest.mark.parametrize("make,error", [
    (lambda: FiniteAutomaton("f", ("u",), "v", (), ("a",), ()), "^initial state v undeclared$"),
    (lambda: FiniteAutomaton("f", ("u",), "u", ("v",), ("a",), ()),
     "^accepting state v undeclared$"),
    (lambda: PushdownAutomaton("k", ("s",), "v", (), ("a",), ("Z",), ()),
     "^initial state v undeclared$"),
    (lambda: PushdownAutomaton("k", ("s",), "s", ("v",), ("a",), ("Z",), ()),
     "^accepting state v undeclared$"),
    (lambda: CoverabilityInstance(("p",), (PetriTransition("t", (("q", 1),), ()),), (), ()),
     "^transition t uses undeclared q$"),
])
def test_automata_reject_undeclared_names(make, error):
    with pytest.raises(AutomatonError, match=error):
        make()


def test_intersection_size_is_linear():
    # documented constant: output states+edges <= 12x input size
    for name, pda, fsas, _ in intersection_fixtures():
        input_size = (
            len(pda.states) + len(pda.transitions) + len(pda.alphabet)
            + len(pda.stack_alphabet)
            + sum(len(f.states) + len(f.transitions) for f in fsas)
        )
        rm = encode_intersection(pda, fsas)
        output_size = len(rm.states) + len(rm.delta)
        assert output_size <= 12 * input_size, (name, input_size, output_size)


# ---------------------------------------------------------------------------
# Coverability encoding


def test_coverability_place_counts():
    rm = RegisterMachine(
        "m", ("a", "b"), "a", "b", ("r",), 1,
        AdtSpec(kind="petri", places=(), transitions=()),
        (("a", write("r", 1), "b"),),
    )
    inst = encode_rm_to_coverability(rm)
    # 2 state places + 2 register-value places
    assert len(inst.places) == 4
    assert inst.target == mk_marking({"at_b": 1})
    assert mk_marking(dict(inst.initial)) == mk_marking({"at_a": 1, "reg_r_0": 1})
    # a net place that starts with a prefix pushes that prefix past it
    rm = dataclasses.replace(rm, adt=AdtSpec(kind="petri", places=("at_x",)))
    inst = encode_rm_to_coverability(rm)
    assert inst.places[:3] == ("at_x", "at__a", "at__b")
    assert inst.target == mk_marking({"at__b": 1})


@pytest.mark.parametrize("adt,act,error", [
    (trivial_spec(), skp(), "^encode_rm_to_coverability needs a petri data type$"),
    (AdtSpec(kind="petri"), RegisterAction("inc", "r"), "^lower the machine to tier I first$"),
    (AdtSpec(kind="petri"), AdtOp("reset"), "^the net encoding has no reset operation$"),
])
def test_coverability_encoding_rejects_what_it_cannot_encode(adt, act, error):
    rm = RegisterMachine("m", ("a", "b"), "a", "b", ("r",), 1, adt, (("a", act, "b"),))
    with pytest.raises(ModelError, match=error):
        encode_rm_to_coverability_labelled(rm)


def test_coverability_write_expands_per_value():
    rm = RegisterMachine(
        "m", ("a", "b"), "a", "b", ("r",), 2,
        AdtSpec(kind="petri", places=(), transitions=()),
        (("a", write("r", 1), "b"),),
    )
    inst, labels, _ = encode_rm_to_coverability_labelled(rm)
    assert len(inst.transitions) == 3  # one per current value 0..2
    assert all(lab == rm.delta[0] for lab in labels.values())


def test_coverability_read_is_consume_and_restore():
    rm = RegisterMachine(
        "m", ("a", "b"), "a", "b", ("r",), 1,
        AdtSpec(kind="petri", places=(), transitions=()),
        (("a", read("r", 0), "b"),),
    )
    inst = encode_rm_to_coverability(rm)
    (t,) = inst.transitions
    assert mk_marking(dict(t.inputs)) == mk_marking({"at_a": 1, "reg_r_0": 1})
    assert mk_marking(dict(t.outputs)) == mk_marking({"at_b": 1, "reg_r_0": 1})


@pytest.mark.parametrize("seed", range(12))
def test_coverability_agrees_with_bounded_search(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    rm = encode_coverability_to_rm(net)
    inst, _, _ = encode_rm_to_coverability_labelled(rm)
    cov, closed = net_coverable_forward(
        inst.transitions, inst.initial, inst.target, token_bound=8
    )
    if closed:
        from tsoreach.solvers import solve_petri

        assert (solve_petri(rm).outcome == "reachable") == cov


def test_coverability_roundtrip_through_rm():
    inst = CoverabilityInstance(
        places=("p", "q"),
        transitions=(
            PetriTransition("t", mk_marking({"p": 1}), mk_marking({"q": 1})),
        ),
        initial=mk_marking({"p": 1}),
        target=mk_marking({"q": 1}),
    )
    rm = encode_coverability_to_rm(inst)
    assert rm.states == ("go", "covered")
    from tsoreach.solvers import solve_petri

    assert solve_petri(rm).outcome == "reachable"


def _gen_program(seed):
    # gen --kind program --seed seed
    return random_program(random.Random(seed), n_states=4, n_vars=2)


@pytest.mark.parametrize("seed", range(30))
def test_translated_edges_from_equals_the_eager_reference(seed):
    mem, adt, proc = _gen_program(seed)
    rm = build_register_machine(proc, mem, adt)
    rng = random.Random(seed)
    assignments = [(0,) * len(rm.registers)] + [
        tuple(rng.randrange(rm.bound + 1) for _ in rm.registers) for _ in range(40)]
    assert_edges_match_reference(rm, assignments)


def test_lift_decodes_only_the_states_it_reaches(monkeypatch):
    # the lift builds no machine: each step of its walk decodes the
    # piece's edges from the walk's state, each distinct action once per
    # lift, with the whole machine's registers and bound
    pieces, decoded = [], []
    decode_edges, decode_action = translate.decode_edges, model._decode_action
    monkeypatch.setattr(translate, "decode_edges",
                        lambda edges, *args: pieces.append(edges) or decode_edges(edges, *args))
    monkeypatch.setattr(model, "_decode_action",
                        lambda act, idx, bound: decoded.append((act, idx, bound))
                        or decode_action(act, idx, bound))
    lifted = 0
    for seed in range(30):
        mem, adt, proc = _gen_program(seed)
        r, _ = pivot_search(proc, mem, adt)
        if r.outcome != REACHED:
            continue
        rm = build_register_machine(proc, mem, adt)
        pieces.clear()
        decoded.clear()
        run = lift_pivot_witness(proc, mem, adt, r.final.prefix, r.path)
        # each call decodes one state's edges in a piece, and the states
        # decoded are exactly the sources of the run's edges
        sources = [{q for q, _, _ in edges} for edges in pieces]
        assert all(len(qs) == 1 for qs in sources)
        visited = {q for q, _, _ in run}
        assert set().union(*sources) == visited
        assert 0 < len(visited) < len(rm.states)
        # the decoded actions are exactly those of the decoded edges, each
        # once, and those are edges of the whole machine
        acts = [act for act, _, _ in decoded]
        assert len(acts) == len(set(acts))
        assert set(acts) == {act for edges in pieces for _, act, _ in edges
                             if isinstance(act, RegisterAction)}
        assert {e for edges in pieces for e in edges} <= set(rm.delta)
        assert all(idx == rm.register_indices and bound == rm.bound
                   for _, idx, bound in decoded)
        lifted += 1
    assert lifted >= 5


def test_a_path_step_is_one_edge_or_a_list_of_parallel_edges():
    edges = []
    a, b, c = skp(), read("r", 0), read("r", 1)
    assert translate._path(edges, translate._names("p"), "s", [a, [b, c], a], "t") == "t"
    assert edges == [("s", a, "p_1"), ("p_1", b, "p_2"), ("p_1", c, "p_2"), ("p_2", a, "t")]
