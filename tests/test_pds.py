import random

import pytest

from helpers import PushdownSystem, pre_star, pre_star_fixpoint
from tsoreach.pds import PdsRule, post_star


def _pds(rules, controls=("p", "q", "t"), alphabet=("a", "b", "_btm")):
    return PushdownSystem(controls=controls, alphabet=alphabet, rules=tuple(rules))


def test_rules_validated():
    with pytest.raises(ValueError):
        _pds([PdsRule("p", "a", "nope", ())])
    with pytest.raises(ValueError):
        _pds([PdsRule("p", "a", "q", ("a", "a", "a"))])
    with pytest.raises(ValueError):
        _pds([PdsRule("p", "z", "q", ())])
    with pytest.raises(ValueError):
        _pds([], controls=("p", "q", "p", "t"))


def test_pre_star_direct_target():
    res = pre_star(_pds([]), ["t"])
    assert res.accepts("t", ("a", "_btm"))
    assert res.accepts("t", ("_btm",))
    assert not res.accepts("p", ("_btm",))
    assert res.witness("t", ("_btm",)) == []


def test_pre_star_pop_and_push():
    rules = [
        PdsRule("p", "a", "q", (), tag="pop_a"),
        PdsRule("q", "_btm", "t", ("_btm",), tag="check"),
    ]
    res = pre_star(_pds(rules), ["t"])
    assert res.accepts("p", ("a", "_btm"))
    assert not res.accepts("p", ("b", "_btm"))
    assert res.witness("p", ("a", "_btm")) == ["pop_a", "check"]


def test_pre_star_growing_stack():
    # p pushes an a on anything, q consumes exactly two and succeeds
    rules = (
        [PdsRule("p", g, "q", ("a", g), tag="push") for g in ("a", "b", "_btm")]
        + [PdsRule("q", "a", "q", (), tag="pop"), PdsRule("q", "_btm", "t", ("_btm",), tag="done")]
    )
    res = pre_star(_pds(rules), ["t"])
    assert res.accepts("p", ("a", "_btm"))
    trace = res.witness("p", ("a", "_btm"))
    assert trace == ["push", "pop", "pop", "done"]
    assert res.accepts("q", ("a", "a", "_btm"))
    assert not res.accepts("q", ("b", "_btm"))


def test_pre_star_unreachable_control():
    rules = [PdsRule("p", "a", "p", ("a",), tag="loop")]
    res = pre_star(_pds(rules), ["t"])
    assert not res.accepts("p", ("a", "_btm"))
    with pytest.raises(ValueError):
        res.witness("p", ("a", "_btm"))


def _forward_reachable_controls(pds, init_control, init_word, depth_bound):
    """(controls, closed) by explicit forward search of the PDS."""
    seen = {(init_control, init_word)}
    frontier = [(init_control, init_word)]
    closed = True
    while frontier:
        nxt = []
        for p, w in frontier:
            if not w:
                continue
            for r in pds.rules:
                if r.p == p and r.gamma == w[0]:
                    w2 = r.push + w[1:]
                    if len(w2) > depth_bound:
                        closed = False
                        continue
                    c = (r.p2, w2)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return {p for p, _ in seen}, closed


def _random_pds(seed, n_controls=3, max_rules=7):
    rng = random.Random(seed)
    controls = tuple(f"p{i}" for i in range(n_controls))
    alphabet = ("a", "b", "_btm")
    rules = []
    for _ in range(rng.randrange(2, max_rules + 1)):
        p, p2 = rng.choice(controls), rng.choice(controls)
        g = rng.choice(alphabet)
        push = tuple(
            rng.choice(alphabet[:2]) for _ in range(rng.randrange(0, 3))
        )
        if g == "_btm" and rng.random() < 0.7:
            push = push[:1] + ("_btm",)  # usually keep the marker in place
        rules.append(PdsRule(p, g, p2, push, tag=len(rules)))
    return _pds(rules, controls=controls, alphabet=alphabet)


def _replay(pds, cfg, trace):
    """The configuration the rules tagged in trace drive cfg to."""
    for tag in trace:
        rule = pds.rules[tag]
        assert cfg[0] == rule.p and cfg[1][0] == rule.gamma
        cfg = (rule.p2, rule.push + cfg[1][1:])
    return cfg


@pytest.mark.parametrize("seed", range(25))
def test_pre_star_matches_forward_search_randomized(seed):
    pds = _random_pds(seed)
    init = ("p0", ("_btm",))
    forward, fwd_closed = _forward_reachable_controls(pds, *init, depth_bound=7)
    for target in pds.controls:
        res = pre_star(pds, [target])
        claimed = res.accepts(*init)
        if claimed:
            # the witness trace must drive the forward semantics to target
            assert _replay(pds, init, res.witness(*init))[0] == target
            if fwd_closed:
                assert target in forward
        elif fwd_closed:
            assert target not in forward


@pytest.mark.parametrize(
    "seed,n_controls,max_rules",
    [(s, 3, 7) for s in range(25)] + [(s, 8, 30) for s in range(25)],
)
def test_worklist_matches_rescan_fixpoint(seed, n_controls, max_rules):
    pds = _random_pds(seed, n_controls, max_rules)
    init = ("p0", ("_btm",))
    for target in pds.controls:
        res = pre_star(pds, [target])
        ref = pre_star_fixpoint(pds, [target], res.sink)
        assert set(res.transitions) == ref
        assert len(res.transitions) == len(ref)
        assert not res.exhausted
        # stopping early decides the initial configuration the same way
        stopped = pre_star(pds, [target], stop=init)
        accepted = any(
            t[:2] == ("p0", "_btm") and t[2] in (target, res.sink) for t in ref
        )
        assert stopped.accepts(*init) == accepted
        assert set(stopped.transitions) <= ref
        if accepted:
            assert _replay(pds, init, stopped.witness(*init))[0] == target
        else:
            assert set(stopped.transitions) == ref


def test_pre_star_budget_marks_exhausted():
    rules = [
        PdsRule("p", "a", "q", (), tag="pop_a"),
        PdsRule("q", "_btm", "t", ("_btm",), tag="check"),
    ]
    full = pre_star(_pds(rules), ["t"])
    assert full.accepts("p", ("a", "_btm")) and not full.exhausted
    cut = pre_star(_pds(rules), ["t"], budget=1)
    assert cut.exhausted and len(cut.transitions) == len(full.transitions) - 1
    assert not cut.accepts("p", ("a", "_btm"))


def test_pre_star_stop_needs_one_symbol():
    with pytest.raises(ValueError):
        pre_star(_pds([]), ["t"], stop=("p", ("a", "_btm")))


def test_witness_terminates_on_recursive_rules():
    # mutual push/pop loops must not send the unwinding in circles
    rules = [
        PdsRule("p", "a", "p", ("b", "a"), tag="push_b"),
        PdsRule("p", "b", "p", (), tag="pop_b"),
        PdsRule("p", "a", "t", ("a",), tag="jump"),
    ]
    res = pre_star(_pds(rules), ["t"])
    rng = random.Random(0)
    for depth in range(1, 5):
        word = ("a",) * depth + ("_btm",)
        assert res.accepts("p", word)
        trace = res.witness("p", word)
        assert trace[-1] == "jump"


# ---------------------------------------------------------------------------
# post* from one start configuration, against the pre* references


def _fixpoint_accepts(pds, target, control, word):
    """Whether the re-scanned pre* fixpoint accepts a one-symbol configuration."""
    sink = ("__any__",)
    ref = pre_star_fixpoint(pds, [target], sink)
    return any(t == (control, word[0], q) for q in (target, sink) for t in ref)


@pytest.mark.parametrize(
    "seed,n_controls,max_rules",
    [(s, 3, 7) for s in range(25)] + [(s, 8, 30) for s in range(25)],
)
def test_post_star_matches_pre_star_fixpoint(seed, n_controls, max_rules):
    pds = _random_pds(seed, n_controls, max_rules)
    init = ("p0", ("_btm",))
    forward, fwd_closed = _forward_reachable_controls(pds, *init, depth_bound=7)
    for target in pds.controls:
        res = post_star(pds, init, [target])
        assert not res.exhausted
        reached = res.accepts(*init)
        assert reached == _fixpoint_accepts(pds, target, *init)
        if fwd_closed:
            assert reached == (target in forward)
        if reached:
            assert _replay(pds, init, res.witness(*init))[0] == target
        else:
            with pytest.raises(ValueError):
                res.witness(*init)


@pytest.mark.parametrize("seed", range(25))
def test_post_star_multi_symbol_start(seed):
    pds = _random_pds(seed, 4, 12)
    for word in [("a", "_btm"), ("b", "a", "_btm"), ("a", "b")]:
        init = ("p0", word)
        for target in pds.controls:
            res = post_star(pds, init, [target])
            assert res.accepts(*init) == pre_star(pds, [target]).accepts(*init)
            if res.accepts(*init):
                assert _replay(pds, init, res.witness(*init))[0] == target


def test_post_star_growing_stack():
    # p pushes an a on anything, q consumes exactly two and succeeds
    rules = (
        [PdsRule("p", g, "q", ("a", g), tag="push") for g in ("a", "b", "_btm")]
        + [PdsRule("q", "a", "q", (), tag="pop"), PdsRule("q", "_btm", "t", ("_btm",), tag="done")]
    )
    pds = _pds(rules)
    res = post_star(pds, ("p", ("a", "_btm")), ["t"])
    assert res.witness("p", ("a", "_btm")) == ["push", "pop", "pop", "done"]
    start = ("q", ("a", "a", "_btm"))
    assert post_star(pds, start, ["t"]).witness(*start) == ["pop", "pop", "done"]
    assert not post_star(pds, ("q", ("b", "_btm")), ["t"]).accepts("q", ("b", "_btm"))
    # an answer is only for the start configuration
    with pytest.raises(ValueError):
        res.accepts("q", ("a", "_btm"))


def test_post_star_pop_inherits_later_transitions():
    # p3 pops into the intermediate state of (p2, a) before the second push
    # onto (p2, a) gives that state a b-transition; p3 must inherit it
    rules = [
        PdsRule("p", "_btm", "p2", ("a", "_btm"), tag=0),
        PdsRule("p2", "a", "p3", (), tag=1),
        PdsRule("p3", "_btm", "p5", ("b", "_btm"), tag=2),
        PdsRule("p5", "b", "p2", ("a", "b"), tag=3),
        PdsRule("p3", "b", "t", ("b",), tag=4),
    ]
    pds = _pds(rules, controls=("p", "p2", "p3", "p5", "t"))
    start = ("p", ("_btm",))
    res = post_star(pds, start, ["t"])
    assert res.witness(*start) == [0, 1, 2, 3, 1, 4]
    assert _replay(pds, start, res.witness(*start))[0] == "t"


def test_post_star_keeps_pushes_of_different_symbols_apart():
    # q is entered with a over _btm or with b over b; only the latter lets
    # r see a b after popping, and q has no rule for b
    rules = [
        PdsRule("p", "_btm", "q", ("a", "_btm")),
        PdsRule("p", "_btm", "q", ("b", "b")),
        PdsRule("q", "a", "r", ()),
        PdsRule("r", "b", "t", ("b",)),
    ]
    pds = _pds(rules, controls=("p", "q", "r", "t"))
    assert not post_star(pds, ("p", ("_btm",)), ["t"]).accepts("p", ("_btm",))
    assert post_star(pds, ("p", ("_btm",)), ["r"]).accepts("p", ("_btm",))


def test_post_star_start_is_a_target():
    res = post_star(_pds([PdsRule("t", "a", "p", ())]), ("t", ("a", "_btm")), ["t", "q"])
    assert res.accepts("t", ("a", "_btm"))
    assert res.witness("t", ("a", "_btm")) == []
    assert len(res.transitions) == 2  # the start word's own


def test_post_star_stops_on_an_epsilon_from_a_target():
    # the target is only ever entered by a pop that empties the stack
    rules = [PdsRule("p", "_btm", "t", (), tag="drop")]
    res = post_star(_pds(rules), ("p", ("_btm",)), ["t"])
    assert res.accepts("p", ("_btm",))
    assert res.witness("p", ("_btm",)) == ["drop"]


def test_post_star_budget_marks_exhausted():
    rules = [
        PdsRule("p", "_btm", "q", ("a", "_btm"), tag="push_a"),
        PdsRule("q", "a", "t", (), tag="pop_a"),
    ]
    full = post_star(_pds(rules), ("p", ("_btm",)), ["t"])
    assert full.accepts("p", ("_btm",)) and not full.exhausted
    assert full.witness("p", ("_btm",)) == ["push_a", "pop_a"]
    cut = post_star(_pds(rules), ("p", ("_btm",)), ["t"], budget=1)
    assert cut.exhausted and not cut.accepts("p", ("_btm",))
    assert len(cut.transitions) == 2  # the start transition and one added


def test_post_star_rejects_bad_starts():
    with pytest.raises(ValueError):
        post_star(_pds([]), ("p", ()), ["t"])
    with pytest.raises(ValueError):
        post_star(_pds([]), ("nope", ("_btm",)), ["t"])


def test_post_star_witness_terminates_on_recursive_rules():
    # the push/pop loops of test_witness_terminates_on_recursive_rules
    # (tags are rule indices, for _replay)
    rules = [
        PdsRule("p", "a", "p", ("b", "a"), tag=0),  # push b
        PdsRule("p", "b", "p", (), tag=1),  # pop b
        PdsRule("p", "a", "t", ("a",), tag=2),  # jump
        PdsRule("p", "b", "q", ("b",), tag=3),  # q needs a pushed b
    ]
    pds = _pds(rules)
    for depth in range(1, 5):
        for word in [("a",) * depth + ("_btm",), ("b",) * depth + ("a", "_btm")]:
            start = ("p", word)
            for target, last in [("t", 2), ("q", 3)]:
                res = post_star(pds, start, [target])
                trace = res.witness(*start)
                assert trace[-1] == last
                assert _replay(pds, start, trace)[0] == target
    # with no target the saturation reaches its fixpoint and stops
    res = post_star(pds, ("p", ("a", "_btm")), [])
    assert not res.accepts("p", ("a", "_btm")) and not res.exhausted
