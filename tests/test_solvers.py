import dataclasses
import random

import pytest

from helpers import (
    binarize_counter,
    counter_cutoff,
    encode_rm_to_coverability,
    inc,
    net_coverable_forward,
    parse_program,
    petri_backward_history,
    petri_net_reference,
    pre_star,
    rm_reachable_brute,
    solve_counter_cutoff,
    stack_pds_reference,
    wsts_backward_history,
    wqo_leq,
)
from tsoreach.adt import AdtOp, AdtSpec, trivial_spec
from tsoreach.gen import (
    random_counter_machine,
    random_machine,
    random_net,
    random_stack_machine,
)
from tsoreach.model import (
    ModelError,
    RegisterAction,
    RegisterMachine,
    read,
    replay_rm,
    write,
)
from tsoreach.solvers import (
    DEFAULT_BUDGET,
    _control_closure,
    explore_bounded,
    format_rm_label,
    solve_auto,
    solve_counter,
    solve_finite,
    solve_petri,
    solve_stack,
    solve_wsts,
)
from tsoreach.pds import PostStarResult, post_star
from tsoreach.translate import encode_coverability_to_rm
from tsoreach.cli import main
from tsoreach.dsl import parse_action, print_machine
from tsoreach.verdict import WitnessError


def _parse_witness_labels(rm, witness):
    labels = []
    for line in witness:
        head, act_text = line.split(":", 1)
        q, _, q2 = head.split()
        labels.append((q, parse_action(act_text.strip(), 0), q2))
    return labels


def _assert_witness_replays(rm, verdict):
    assert verdict.outcome == "reachable"
    labels = _parse_witness_labels(rm, verdict.witness)
    final = replay_rm(rm, labels)
    assert final.state == rm.q_target


def test_solve_finite_examples():
    rm = RegisterMachine(
        "m", ("q0", "q1", "qt"), "q0", "qt", ("r",), 1, trivial_spec(),
        (("q0", write("r", 1), "q1"), ("q1", read("r", 1), "qt")),
    )
    v = solve_finite(rm)
    assert v.outcome == "reachable" and len(v.witness) == 2
    _assert_witness_replays(rm, v)
    rm2 = RegisterMachine(
        "m", ("q0", "qt"), "q0", "qt", ("r",), 1, trivial_spec(),
        (("q0", read("r", 1), "qt"),),
    )
    assert solve_finite(rm2).outcome == "unreachable"


@pytest.mark.parametrize("seed", range(20))
def test_solve_finite_matches_bruteforce(seed):
    rng = random.Random(seed)
    rm = random_machine(rng, n_states=4, n_regs=2, bound=2, tier=3)
    v = solve_finite(rm)
    assert (v.outcome == "reachable") == rm_reachable_brute(rm)
    if v.outcome == "reachable":
        _assert_witness_replays(rm, v)


def test_solve_finite_budget_inconclusive():
    rm = RegisterMachine(
        "m", ("q0", "q1", "qt"), "q0", "qt", ("r", "s"), 3, trivial_spec(),
        (
            ("q0", write("r", 1), "q0"),
            ("q0", write("r", 2), "q0"),
            ("q0", write("s", 1), "q0"),
            ("q0", write("s", 2), "q0"),
        ),
    )
    v = solve_finite(rm, budget=2)
    assert v.outcome == "inconclusive" and not v.closed


def test_solve_counter_count_up_and_down():
    c = AdtSpec(kind="counter")
    states = tuple(f"q{i}" for i in range(7)) + ("qt",)
    delta = []
    for i in range(3):
        delta.append((states[i], AdtOp("inc"), states[i + 1]))
    for i in range(3):
        delta.append((states[3 + i], AdtOp("dec"), states[4 + i]))
    delta.append((states[6], AdtOp("iszero"), "qt"))
    rm = RegisterMachine("c", states, "q0", "qt", (), 0, c, tuple(delta))
    v = solve_counter(rm)
    assert v.outcome == "reachable" and len(v.witness) == 7
    _assert_witness_replays(rm, v)


def test_solve_counter_iszero_blocked():
    c = AdtSpec(kind="counter")
    rm = RegisterMachine(
        "c", ("q0", "q1", "qt"), "q0", "qt", (), 0, c,
        (("q0", AdtOp("inc"), "q1"), ("q1", AdtOp("iszero"), "qt")),
    )
    assert solve_counter(rm).outcome == "unreachable"


def test_solve_counter_cap_gives_inconclusive():
    c = AdtSpec(kind="counter")
    # must count to 5; any cap below cuts off the only path (the cap is a
    # parameter of the cutoff search reference only)
    states = tuple(f"q{i}" for i in range(6)) + ("qt",)
    delta = [(states[i], AdtOp("inc"), states[i + 1]) for i in range(5)]
    delta.append((states[5], AdtOp("dec"), "qt"))
    rm = RegisterMachine("c", states, "q0", "qt", (), 0, c, tuple(delta))
    assert solve_counter(rm).outcome == "reachable"
    assert solve_counter_cutoff(rm).outcome == "reachable"
    assert solve_counter_cutoff(rm, cap=3).outcome == "inconclusive"


def _small_counter_programs(adt_line, count):
    from tsoreach.dsl import parse_adt_line
    from tsoreach.gen import random_program
    from tsoreach.translate import build_register_machine

    rng = random.Random(f"counter pre* vs cutoff {adt_line}")
    adt = parse_adt_line(adt_line, 0)
    for _ in range(count):
        mem, adt_, proc = random_program(rng, n_states=rng.randint(3, 4), n_vars=1,
                                         adt=adt, op_weight=40)
        yield build_register_machine(proc, mem, adt_)


def test_counter_pre_star_agrees_with_the_cutoff_search():
    # pre* over the one-symbol stack against the cutoff search kept as the
    # reference: random counter machines, whose cutoff the search reaches,
    # and small translated programs, where it is conclusive only sometimes
    random_machines = [random_counter_machine(random.Random(seed)) for seed in range(200)]
    machines = random_machines + [*_small_counter_programs("counter", 20),
                                  *_small_counter_programs("weakcounter", 20)]
    outcomes = {"reachable": 0, "unreachable": 0}
    for i, rm in enumerate(machines):
        v = solve_counter(rm)
        assert v.conclusive
        outcomes[v.outcome] += 1
        ref = solve_counter_cutoff(rm, budget=20_000)
        assert ref.conclusive or i >= len(random_machines)
        if ref.conclusive:
            assert v.outcome == ref.outcome
        if v.outcome == "reachable":
            _assert_witness_replays(rm, v)  # a run of the counter machine itself
    assert min(outcomes.values()) >= len(machines) // 5


def test_counter_cutoff_formula():
    rng = random.Random(0)
    for _ in range(10):
        rm = random_counter_machine(rng)
        n = len(rm.states) * (rm.bound + 1) ** len(rm.registers)
        assert counter_cutoff(rm) == n * n


def test_binarize_increments():
    c = AdtSpec(kind="counter")
    # inc three times, then iszero must fail; dec three times, then iszero
    states = ("a", "b", "c", "d", "e", "f", "g", "qt")
    delta = (
        ("a", AdtOp("inc"), "b"),
        ("b", AdtOp("inc"), "c"),
        ("c", AdtOp("inc"), "d"),
        ("d", AdtOp("dec"), "e"),
        ("e", AdtOp("dec"), "f"),
        ("f", AdtOp("dec"), "g"),
        ("g", AdtOp("iszero"), "qt"),
    )
    rm = RegisterMachine("c", states, "a", "qt", (), 0, c, delta)
    binary = binarize_counter(rm, 7)
    assert binary.adt.kind == "trivial"
    v = solve_finite(binary)
    assert v.outcome == "reachable"
    _assert_witness_replays(binary, v)


def test_binarize_blocks_at_bound():
    c = AdtSpec(kind="counter")
    rm = RegisterMachine(
        "c", ("a", "b", "c", "qt"), "a", "qt", (), 0, c,
        (
            ("a", AdtOp("inc"), "b"),
            ("b", AdtOp("inc"), "c"),
            ("c", AdtOp("dec"), "qt"),
        ),
    )
    # bound 1 blocks the second inc
    assert solve_finite(binarize_counter(rm, 1)).outcome == "unreachable"
    assert solve_finite(binarize_counter(rm, 2)).outcome == "reachable"


@pytest.mark.parametrize("seed", range(15))
def test_counter_backends_agree(seed):
    rng = random.Random(seed)
    rm = random_counter_machine(rng)
    bound = counter_cutoff(rm)
    if bound > 64:
        pytest.skip("cutoff beyond the suite's bound")
    eb = explore_bounded(rm, bound + 1)
    if not eb.closed:
        pytest.skip("counter not value-closed")
    vc = solve_counter(rm)
    vb = solve_finite(binarize_counter(rm, bound))
    assert vc.outcome == vb.outcome == eb.outcome
    for v, machine in ((vc, rm), (eb, rm)):
        if v.outcome == "reachable":
            _assert_witness_replays(machine, v)


def test_solve_stack_balanced_pushes():
    s = AdtSpec(kind="stack", alphabet=("a",))
    states = ("q0", "q1", "q2", "q3", "q4", "qt")
    delta = (
        ("q0", AdtOp("push", "a"), "q1"),
        ("q1", AdtOp("push", "a"), "q2"),
        ("q2", AdtOp("pop", "a"), "q3"),
        ("q3", AdtOp("pop", "a"), "q4"),
        ("q4", AdtOp("isempty"), "qt"),
    )
    rm = RegisterMachine("s", states, "q0", "qt", (), 0, s, delta)
    v = solve_stack(rm)
    assert v.outcome == "reachable"
    _assert_witness_replays(rm, v)


def test_solve_stack_pop_on_empty_unreachable():
    s = AdtSpec(kind="stack", alphabet=("a",))
    rm = RegisterMachine(
        "s", ("q0", "q1", "qt"), "q0", "qt", (), 0, s,
        (("q0", AdtOp("pop", "a"), "q1"), ("q1", AdtOp("push", "a"), "qt")),
    )
    assert solve_stack(rm).outcome == "unreachable"


def test_solve_stack_handles_reset():
    s = AdtSpec(kind="stack", alphabet=("a", "b"))
    rm = RegisterMachine(
        "s", ("q0", "q1", "q2", "qt"), "q0", "qt", (), 0, s,
        (
            ("q0", AdtOp("push", "a"), "q1"),
            ("q1", AdtOp("reset"), "q2"),
            ("q2", AdtOp("isempty"), "qt"),
        ),
    )
    v = solve_stack(rm)
    assert v.outcome == "reachable"
    _assert_witness_replays(rm, v)


def _repeated_reset_machine(kind):
    # inc or push, then the same reset edge twice, then iszero or isempty
    if kind == "counter":
        s, up, empty = AdtSpec(kind="counter"), AdtOp("inc"), AdtOp("iszero")
    else:
        s = AdtSpec(kind="stack", alphabet=("a",))
        up, empty = AdtOp("push", "a"), AdtOp("isempty")
    return RegisterMachine(
        "s", ("q0", "q1", "q2", "qt"), "q0", "qt", (), 0, s,
        (
            ("q0", up, "q1"),
            ("q1", AdtOp("reset"), "q2"),
            ("q1", AdtOp("reset"), "q2"),
            ("q2", empty, "qt"),
        ),
    )


@pytest.mark.parametrize("kind", ["counter", "stack"])
def test_solve_stack_handles_a_repeated_reset_edge(kind):
    # both copies of the edge drain through one reset control
    rm = _repeated_reset_machine(kind)
    if kind == "counter":
        assert rm_reachable_brute(rm)
    v = solve_stack(rm)
    assert v.outcome == "reachable"
    _assert_witness_replays(rm, v)


@pytest.mark.parametrize("seed", range(20))
def test_stack_backend_matches_bounded_closure(seed):
    rng = random.Random(300 + seed)
    rm = random_stack_machine(rng)
    eb = explore_bounded(rm, 6)
    if not eb.closed:
        pytest.skip("stack depth not closed at 6")
    v = solve_stack(rm)
    assert v.outcome == eb.outcome
    if v.outcome == "reachable":
        _assert_witness_replays(rm, v)


def test_solve_stack_budget_is_inconclusive(tmp_path, capsys):
    rm = random_stack_machine(random.Random(1), 40)
    full = solve_stack(rm)
    assert full.outcome == "reachable"
    _assert_witness_replays(rm, full)
    closure = full.stats.explored
    # the control closure alone outgrows the budget
    v = solve_stack(rm, budget=closure - 1)
    assert (v.outcome, v.closed, v.stats.iterations) == ("inconclusive", False, 0)
    assert v.stats.explored == closure
    # the closure fits, saturation does not
    v = solve_stack(rm, budget=closure)
    assert (v.outcome, v.closed, v.stats.explored) == ("inconclusive", False, closure)
    assert v.stats.iterations < full.stats.iterations
    assert solve_auto(rm, budget=closure).outcome == "inconclusive"
    path = tmp_path / "stack.rm"
    path.write_text(print_machine(rm))
    assert main(["check", str(path), "--budget", str(closure)]) == 2
    assert capsys.readouterr().out.startswith("verdict: inconclusive")
    assert main(["check", str(path)]) == 0


@pytest.mark.parametrize("seed,outcome", [
    (0, "unreachable"), (1, "reachable"), (4, "reachable"), (6, "unreachable"),
])
def test_solve_stack_640_states_matches_pre_star(monkeypatch, seed, outcome):
    # post* on the pushdown system solve_stack builds, against the worklist
    # pre* reference on the same system with every rule built
    import tsoreach.solvers as solvers

    real = solvers.pre_star
    seen = []

    def both(pds, start, targets, budget=None):
        res = real(pds, start, targets, budget=budget)
        eager, eager_start, eager_targets = stack_pds_reference(rm)
        assert (eager_start, eager_targets) == (start, targets)
        ref = pre_star(eager, eager_targets, stop=start, budget=budget)
        seen.append((res.accepts(*start), ref.accepts(*start)))
        return res

    monkeypatch.setattr(solvers, "pre_star", both)
    rm = random_stack_machine(random.Random(seed), 640)
    v = solve_stack(rm)
    assert seen == [(outcome == "reachable",) * 2]
    assert v.outcome == outcome
    if outcome == "reachable":
        _assert_witness_replays(rm, v)


def _small_stack_machines():
    # every fifth machine gets a reset edge, to exercise the drain controls
    for i in range(50):
        rm = random_stack_machine(random.Random(500 + i), 5 + 5 * (i % 4))
        if i % 5 == 0:
            reset = (rm.states[1], AdtOp("reset"), rm.states[-1])
            rm = dataclasses.replace(rm, delta=rm.delta + (reset,))
        yield rm


def _small_counter_machines():
    for i in range(25):
        yield random_counter_machine(random.Random(600 + i))
    for i in range(25):
        rng = random.Random(700 + i)
        yield random_machine(rng, n_states=rng.randint(3, 6), n_regs=1, bound=1,
                             adt=AdtSpec(kind="weak-counter"), edge_factor=2.2,
                             op_weight=55)


_REFERENCE_CASES = {
    "640-states": lambda: (random_stack_machine(random.Random(s), 640) for s in range(10)),
    "small-stack": _small_stack_machines,
    "small-counter": _small_counter_machines,
    "repeated-reset": lambda: map(_repeated_reset_machine, ["counter", "stack"]),
}


@pytest.mark.parametrize("cases", sorted(_REFERENCE_CASES))
def test_solve_stack_matches_post_star_on_the_eager_rules(cases):
    # the moves built on demand give what post* gives over every rule of the
    # closure built up front: verdict, iterations and witness
    outcomes = set()
    for rm in _REFERENCE_CASES[cases]():
        v = solve_stack(rm)
        outcomes.add(v.outcome)
        pds, start, targets = stack_pds_reference(rm)
        if not targets:
            assert (v.outcome, v.stats.iterations) == ("unreachable", 0)
            continue
        ref = post_star(pds, start, targets, budget=DEFAULT_BUDGET)
        assert not ref.exhausted
        assert v.stats.iterations == len(ref.transitions)
        assert v.outcome == ("reachable" if ref.accepts(*start) else "unreachable")
        if v.outcome == "reachable":
            assert v.witness == tuple(format_rm_label(l) for l in ref.witness(*start))
            _assert_witness_replays(rm, v)
    assert "reachable" in outcomes
    assert cases == "repeated-reset" or "unreachable" in outcomes


def test_solve_stack_builds_only_the_rules_post_star_reaches(monkeypatch):
    # the initial control of this machine has only pop edges, so post* is
    # stuck at once and asks for the moves of that control alone
    import tsoreach.solvers as solvers

    real = solvers.pre_star
    systems = []

    def spy(pds, *args, **kwargs):
        systems.append(pds)
        return real(pds, *args, **kwargs)

    monkeypatch.setattr(solvers, "pre_star", spy)
    rm = random_stack_machine(random.Random(0), 640)
    assert solve_stack(rm).outcome == "unreachable"
    init, _, edges_from = _control_closure(rm)
    (pds,) = systems
    assert list(pds.built) == [(init, "_btm")]
    # one rule per edge and stack symbol, the bottom marker included
    assert len(pds.rules) <= len(edges_from[init]) * (len(rm.adt.alphabet) + 1)
    assert len(stack_pds_reference(rm)[0].rules) == 5192


def test_solve_stack_rejects_a_witness_that_fails_replay(tmp_path, capsys, monkeypatch):
    rm = random_stack_machine(random.Random(1), 40)
    monkeypatch.setattr(PostStarResult, "witness", lambda self, control, word: [])
    with pytest.raises(WitnessError):
        solve_stack(rm)
    path = tmp_path / "stack.rm"
    path.write_text(print_machine(rm))
    assert main(["check", str(path)]) == 6
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("internal error: ")


@pytest.mark.parametrize("seed", range(20))
def test_petri_backends_agree_and_match_forward(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    rm = encode_coverability_to_rm(net)
    vp = petri_net_reference(rm)
    vw = solve_wsts(rm)
    assert vp.outcome == vw.outcome
    inst = encode_rm_to_coverability(rm)
    cov, closed = net_coverable_forward(
        inst.transitions, inst.initial, inst.target, token_bound=6
    )
    if closed:
        assert (vp.outcome == "reachable") == cov
    for v in (vp, vw):
        if v.outcome == "reachable":
            _assert_witness_replays(rm, v)


def _is_antichain(spec, basis):
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if i != j and wqo_leq(spec, a, b):
                return False
    return True


@pytest.mark.parametrize("seed", range(10))
def test_backward_bases_are_antichains_every_iteration(seed):
    rng = random.Random(50 + seed)
    net = random_net(rng)
    rm = encode_coverability_to_rm(net)
    spec = encode_rm_to_coverability(rm).adt_spec()
    for basis in petri_backward_history(rm):
        assert _is_antichain(spec, basis)


def test_wsts_rejects_strict_counter():
    rm = RegisterMachine(
        "c", ("a", "qt"), "a", "qt", (), 0, AdtSpec(kind="counter"),
        (("a", AdtOp("inc"), "qt"),),
    )
    with pytest.raises(ModelError):
        solve_wsts(rm)


def test_wsts_weak_counter_agrees_with_solve_counter():
    w = AdtSpec(kind="weak-counter")
    rng = random.Random(9)
    for _ in range(10):
        rm = random_machine(rng, n_states=4, n_regs=1, bound=1, adt=w,
                            tier=1, op_weight=50)
        vw = solve_wsts(rm)
        vc = solve_counter(rm)
        assert vw.outcome == vc.outcome
        if vw.outcome == "reachable":
            _assert_witness_replays(rm, vw)


def test_wsts_empty_delta():
    w = AdtSpec(kind="weak-counter")
    rm = RegisterMachine("c", ("a", "qt"), "a", "qt", (), 0, w, ())
    assert solve_wsts(rm).outcome == "unreachable"
    rm2 = RegisterMachine("c", ("a",), "a", "a", (), 0, w, ())
    assert solve_wsts(rm2).outcome == "reachable"
    assert wsts_backward_history(rm2) is not None


def test_explore_bounded_multistack_ordering():
    m = AdtSpec(kind="multi-stack", count=2, alphabet=("a",))
    # pop2 before emptying stack 1 never fires
    rm = RegisterMachine(
        "m", ("q0", "q1", "q2", "qt"), "q0", "qt", (), 0, m,
        (
            ("q0", AdtOp("push1", "a"), "q1"),
            ("q1", AdtOp("push2", "a"), "q2"),
            ("q2", AdtOp("pop2", "a"), "qt"),
        ),
    )
    assert explore_bounded(rm, 5).outcome == "unreachable"
    # popping stack 1 first unblocks stack 2
    rm2 = RegisterMachine(
        "m", ("q0", "q1", "q2", "q3", "qt"), "q0", "qt", (), 0, m,
        (
            ("q0", AdtOp("push1", "a"), "q1"),
            ("q1", AdtOp("push2", "a"), "q2"),
            ("q2", AdtOp("pop1", "a"), "q3"),
            ("q3", AdtOp("pop2", "a"), "qt"),
        ),
    )
    v = explore_bounded(rm2, 5)
    assert v.outcome == "reachable"
    _assert_witness_replays(rm2, v)


def test_explore_bounded_ho_stack_checkpoint():
    h = AdtSpec(kind="ho-stack", level=2, alphabet=("a",))
    rm = RegisterMachine(
        "h", ("q0", "q1", "q2", "q3", "q4", "qt"), "q0", "qt", (), 0, h,
        (
            ("q0", AdtOp("push", "a"), "q1"),
            ("q1", AdtOp("pushk", 2), "q2"),   # checkpoint the level-1 stack
            ("q2", AdtOp("pop", "a"), "q3"),
            ("q3", AdtOp("popk", 2), "q4"),    # restore it
            ("q4", AdtOp("pop", "a"), "qt"),
        ),
    )
    v = explore_bounded(rm, 8)
    assert v.outcome == "reachable"
    _assert_witness_replays(rm, v)


def test_explore_bounded_zero_bound_inconclusive():
    c = AdtSpec(kind="counter")
    rm = RegisterMachine(
        "c", ("q0", "qt"), "q0", "qt", (), 0, c,
        (("q0", AdtOp("inc"), "qt"),),
    )
    assert explore_bounded(rm, 0).outcome == "inconclusive"


def test_solve_auto_dispatch():
    c = AdtSpec(kind="counter")
    rm = RegisterMachine("c", ("a", "qt"), "a", "qt", (), 0, c,
                         (("a", AdtOp("inc"), "qt"),))
    assert solve_auto(rm).outcome == "reachable"
    h = AdtSpec(kind="ho-stack", level=2, alphabet=("a",))
    rm2 = RegisterMachine("h", ("a", "qt"), "a", "qt", (), 0, h,
                          (("a", AdtOp("push", "a"), "qt"),))
    assert solve_auto(rm2).outcome == "reachable"
    with pytest.raises(ModelError):
        solve_auto(rm, backend="nosuch")


PETRI_GROWTH = """\
memory vars x,y domain 0..1
adt petri places p,q,r transitions t: p -> p,q; u: q -> p; v: r -> r initial p
process P
state q0 init
state q1
state qf target
trans q0 -> q0 : op t
trans q0 -> q1 : op u
trans q1 -> q0 : wr x 1
trans q0 -> q0 : wr y 1
trans q1 -> q1 : rd y 1
trans q1 -> qf : op v
"""


def _count_hashes(monkeypatch):
    """Count every hash of a RegisterMachine or an AdtSpec from now on."""
    counts = {"calls": 0}
    for cls in (RegisterMachine, AdtSpec):
        original = cls.__hash__

        def counting(self, original=original):
            counts["calls"] += 1
            return original(self)

        monkeypatch.setattr(cls, "__hash__", counting)
    return counts


def _hashes_per_search(monkeypatch, search, sizes):
    """(explored, machine and data-type hashes) of search(size) per size."""
    counts = _count_hashes(monkeypatch)
    out = []
    for size in sizes:
        counts["calls"] = 0
        v = search(size)
        out.append((v.stats.explored, counts["calls"]))
    return out


# hashing a machine or a data type costs time in its size, so a search
# may hash either only a bounded number of times, however far it gets
HASHES_PER_SEARCH = 5


def test_finite_search_hashes_no_machine_per_step(monkeypatch):
    from tsoreach.gen import random_program
    from tsoreach.translate import build_register_machine

    def search(budget):
        mem, adt, proc = random_program(random.Random(0), n_states=4, n_vars=3, d_max=1)
        return solve_finite(build_register_machine(proc, mem, adt), budget=budget)

    (small, h_small), (large, h_large) = _hashes_per_search(
        monkeypatch, search, (1_000, 4_000))
    assert small >= 1_000 and large > small
    assert h_small == h_large <= HASHES_PER_SEARCH


def test_petri_pivot_search_hashes_no_spec_per_step(monkeypatch):
    from tsoreach.pivot import pivot_reach

    def search(value_bound):
        prog = parse_program(PETRI_GROWTH)
        return pivot_reach(prog.proc, prog.mem, prog.adt, value_bound=value_bound)

    (small, h_small), (large, h_large) = _hashes_per_search(
        monkeypatch, search, (8, 16))
    assert large > small > 0
    assert h_small == h_large <= HASHES_PER_SEARCH


# a machine per backend whose target is reachable only through its last step
_PETRI_COVER = """\
adt petri places p,q transitions t: p -> q ; u: - -> p initial p
cover q
"""


def _witness_machines():
    trivial = RegisterMachine(
        "m", ("a", "b", "t"), "a", "t", ("r",), 1, trivial_spec(),
        (("a", write("r", 1), "b"), ("b", read("r", 1), "t")),
    )
    counter = RegisterMachine(
        "c", ("a", "b", "t"), "a", "t", (), 0, AdtSpec(kind="counter"),
        (("a", AdtOp("inc"), "b"), ("b", AdtOp("dec"), "t")),
    )
    weak = RegisterMachine(
        "w", ("a", "t"), "a", "t", (), 0, AdtSpec(kind="weak-counter"),
        (("a", AdtOp("inc"), "t"),),
    )
    return {"finite": trivial, "counter": counter, "bounded": counter, "wsts": weak}


@pytest.mark.parametrize("backend", ["finite", "counter", "bounded", "petri", "wsts"])
def test_backend_witness_that_fails_replay_is_an_internal_error(
        tmp_path, capsys, monkeypatch, backend):
    import dataclasses

    import tsoreach.solvers as solvers
    from tsoreach.dsl import parse_coverability
    from tsoreach.verdict import REACHED

    if backend == "petri":
        rm = encode_coverability_to_rm(parse_coverability(_PETRI_COVER))
    else:
        rm = _witness_machines()[backend]
    path = tmp_path / "m.tso"
    path.write_text(print_machine(rm))
    assert main(["check", str(path), "--backend", backend]) == 0
    _assert_witness_replays(rm, solve_auto(rm, backend=backend))
    capsys.readouterr()

    # the search loses the last step of its witness
    real_explore, real_backward = solvers.explore, solvers.backward_reach
    real_witness = PostStarResult.witness

    def explore(*args, **kwargs):
        r = real_explore(*args, **kwargs)
        return dataclasses.replace(r, path=r.path[:-1]) if r.outcome == REACHED else r

    def backward_reach(*args, **kwargs):
        res = real_backward(*args, **kwargs)
        res.chain = res.chain[:-1]
        return res

    def witness(self, control, word):
        return real_witness(self, control, word)[:-1]

    monkeypatch.setattr(solvers, "explore", explore)
    monkeypatch.setattr(solvers, "backward_reach", backward_reach)
    monkeypatch.setattr(PostStarResult, "witness", witness)
    with pytest.raises(WitnessError):
        solve_auto(rm, backend=backend)
    assert main(["check", str(path), "--backend", backend]) == 6
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("internal error: WitnessError: ")


def test_wsts_closure_size_limit_is_the_budget(tmp_path, capsys):
    # (a, r1) for r1 in 0..3, the same at b, and (t, 3): 9 closure controls
    rm = RegisterMachine(
        "w", ("a", "b", "t"), "a", "t", ("r1", "r2"), 3,
        AdtSpec(kind="weak-counter"),
        (("a", inc("r1"), "a"), ("a", AdtOp("inc"), "b"),
         ("b", read("r1", 3), "t")),
    )
    n = len(_control_closure(rm)[1])
    assert n == 9
    small = solve_wsts(rm, budget=n - 1)
    assert (small.outcome, small.closed) == ("inconclusive", False)
    assert small.stats.iterations == 0  # gave up before searching
    large = solve_wsts(rm, budget=n)
    assert large.outcome == "reachable"
    _assert_witness_replays(rm, large)
    path = tmp_path / "w.tso"
    path.write_text(print_machine(rm))
    assert main(["check", str(path), "--backend", "wsts", "--budget", str(n - 1)]) == 2
    assert capsys.readouterr().out.startswith("verdict: inconclusive")
    assert main(["check", str(path), "--backend", "wsts", "--budget", str(n)]) == 0


def _random_monotone_machine(rng, kind, tier):
    if kind == "petri":
        net = random_net(rng)
        adt = AdtSpec(kind="petri", places=net.places, transitions=net.transitions,
                      initial_marking=net.initial)
    else:
        adt = AdtSpec(kind=kind)
    return random_machine(rng, n_states=rng.randint(3, 5), n_regs=rng.randrange(3),
                          bound=rng.randint(1, 2), adt=adt, tier=tier,
                          op_weight=0 if kind == "trivial" else 50)


@pytest.mark.parametrize("kind", ["petri", "weak-counter", "trivial"])
def test_backward_cover_campaign(kind):
    """solve_petri and solve_wsts against the net-encoding route and bounded
    search on random machines of every tier, witnesses on the input machine."""
    rng = random.Random(f"cover/{kind}")
    for i in range(90):
        rm = _random_monotone_machine(rng, kind, tier=1 + i % 3)
        verdicts = [solve_wsts(rm)]
        if kind == "petri":
            verdicts.append(solve_petri(rm))
            # every machine here is small enough for the reference to finish
            assert petri_net_reference(rm, budget=200_000).outcome == verdicts[0].outcome
        bounded = explore_bounded(rm, value_bound=6, budget=20_000)
        for v in verdicts:
            assert v.conclusive
            assert v.outcome == verdicts[0].outcome
            if bounded.conclusive:
                assert v.outcome == bounded.outcome
            if v.outcome == "reachable":
                _assert_witness_replays(rm, v)


def test_check_petri_witness_names_input_edges(tmp_path, capsys):
    rng = random.Random(5)
    for _ in range(100):  # a tier-3 machine whose run takes a tier-3 action
        rm = _random_monotone_machine(rng, "petri", tier=3)
        v = solve_petri(rm)
        if v.outcome == "reachable" and any(
            isinstance(act, RegisterAction) and act.tier == 3
            for _, act, _ in _parse_witness_labels(rm, v.witness)
        ):
            break
    else:
        pytest.fail("no reachable tier-3 Petri machine among 100")
    path = tmp_path / "p.tso"
    path.write_text(print_machine(rm))
    assert main(["check", str(path), "--backend", "petri", "--format", "lines"]) == 0
    steps = [ln[len("witness: "):] for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("witness: ")]
    labels = _parse_witness_labels(rm, steps)
    assert labels and all(edge in rm.delta for edge in labels)
    assert replay_rm(rm, labels).state == rm.q_target
