import random

import pytest

from helpers import pre_star_fixpoint
from tsoreach.pds import PdsRule, PushdownSystem, pre_star


def _pds(rules, controls=("p", "q", "t"), alphabet=("a", "b", "_btm")):
    return PushdownSystem(controls=controls, alphabet=alphabet, rules=tuple(rules))


def test_rules_validated():
    with pytest.raises(ValueError):
        _pds([PdsRule("p", "a", "nope", ())])
    with pytest.raises(ValueError):
        _pds([PdsRule("p", "a", "q", ("a", "a", "a"))])
    with pytest.raises(ValueError):
        _pds([PdsRule("p", "z", "q", ())])


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
