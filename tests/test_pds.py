import hashlib
import random

import pytest

from helpers import PushdownSystem, pre_star, pre_star_fixpoint
from tsoreach.pds import PdsRule, post_star
from tsoreach.verdict import BUDGET, CLOSED, REACHED


def _pds(rules, controls=("p", "q", "t"), alphabet=("a", "b", "_btm")):
    return PushdownSystem(controls=controls, alphabet=alphabet, rules=tuple(rules))


def _among(*targets):
    """post_star's target predicate for the controls listed."""
    return lambda c: c in targets


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


def _from_word(pds, control, word):
    """(pds2, start): pds plus untagged rules at fresh controls that build
    word on the stack one symbol at a time from the one-symbol start, and
    then hand over to control; post* over pds2 from start runs as over pds
    from (control, word), with the same tags in its witness."""
    chain = [f"_w{i}" for i in range(len(word) - 1)] + [control]
    rules = [PdsRule(chain[i], word[-1 - i], chain[i + 1], (word[-2 - i], word[-1 - i]))
             for i in range(len(word) - 1)]
    pds2 = _pds(pds.rules + tuple(rules), controls=pds.controls + tuple(chain[:-1]),
                alphabet=pds.alphabet)
    return pds2, (chain[0], word[-1])


@pytest.mark.parametrize(
    "seed,n_controls,max_rules",
    [(s, 3, 7) for s in range(25)] + [(s, 8, 30) for s in range(25)],
)
def test_post_star_matches_pre_star_fixpoint(seed, n_controls, max_rules):
    pds = _random_pds(seed, n_controls, max_rules)
    init = ("p0", ("_btm",))
    forward, fwd_closed = _forward_reachable_controls(pds, *init, depth_bound=7)
    for target in pds.controls:
        res = post_star(pds, ("p0", "_btm"), _among(target))
        reached = res.stop == REACHED
        assert res.stop == (REACHED if _fixpoint_accepts(pds, target, *init) else CLOSED)
        if fwd_closed:
            assert reached == (target in forward)
        if reached:
            assert _replay(pds, init, res.witness())[0] == target
        else:
            with pytest.raises(ValueError):
                res.witness()


@pytest.mark.parametrize("seed", range(25))
def test_post_star_multi_symbol_start(seed):
    pds = _random_pds(seed, 4, 12)
    for word in [("a", "_btm"), ("b", "a", "_btm"), ("a", "b")]:
        init = ("p0", word)
        pds2, start = _from_word(pds, *init)
        for target in pds.controls:
            res = post_star(pds2, start, _among(target))
            assert res.stop == (REACHED if pre_star(pds, [target]).accepts(*init) else CLOSED)
            if res.stop == REACHED:
                assert _replay(pds, init, res.witness())[0] == target


def test_post_star_growing_stack():
    # p pushes an a on anything, q consumes exactly two and succeeds
    rules = (
        [PdsRule("p", g, "q", ("a", g), tag="push") for g in ("a", "b", "_btm")]
        + [PdsRule("q", "a", "q", (), tag="pop"), PdsRule("q", "_btm", "t", ("_btm",), tag="done")]
    )
    pds = _pds(rules)
    res = post_star(*_from_word(pds, "p", ("a", "_btm")), _among("t"))
    assert res.witness() == ["push", "pop", "pop", "done"]
    res = post_star(*_from_word(pds, "q", ("a", "a", "_btm")), _among("t"))
    assert res.witness() == ["pop", "pop", "done"]
    assert post_star(*_from_word(pds, "q", ("b", "_btm")), _among("t")).stop == CLOSED


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
    res = post_star(pds, ("p", "_btm"), _among("t"))
    assert res.witness() == [0, 1, 2, 3, 1, 4]
    assert _replay(pds, ("p", ("_btm",)), res.witness())[0] == "t"


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
    assert post_star(pds, ("p", "_btm"), _among("t")).stop == CLOSED
    assert post_star(pds, ("p", "_btm"), _among("r")).stop == REACHED


def test_post_star_start_is_a_target():
    res = post_star(_pds([PdsRule("t", "a", "p", ())]), ("t", "a"), _among("t", "q"))
    assert res.stop == REACHED
    assert res.witness() == []
    assert len(res.transitions) == 1  # the start transition


def test_post_star_stops_on_an_epsilon_from_a_target():
    # the target is only ever entered by a pop that empties the stack
    rules = [PdsRule("p", "_btm", "t", (), tag="drop")]
    res = post_star(_pds(rules), ("p", "_btm"), _among("t"))
    assert res.stop == REACHED
    assert res.witness() == ["drop"]


def test_post_star_budget_stops_at_budget():
    rules = [
        PdsRule("p", "_btm", "q", ("a", "_btm"), tag="push_a"),
        PdsRule("q", "a", "t", (), tag="pop_a"),
    ]
    full = post_star(_pds(rules), ("p", "_btm"), _among("t"))
    assert full.stop == REACHED
    assert full.witness() == ["push_a", "pop_a"]
    cut = post_star(_pds(rules), ("p", "_btm"), _among("t"), budget=1)
    assert cut.stop == BUDGET
    assert len(cut.transitions) == 2  # the start transition and one added
    with pytest.raises(ValueError):
        cut.witness()


def test_post_star_asks_the_targets_only_about_controls_it_reaches():
    # q is never reached, and t only as the stop
    rules = [PdsRule("p", "_btm", "p", ("a", "_btm")), PdsRule("p", "a", "t", ())]
    asked = []

    def is_target(c):
        asked.append(c)
        return c == "t"

    assert post_star(_pds(rules), ("p", "_btm"), is_target).stop == REACHED
    assert asked == ["p", "t"]


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
                res = post_star(*_from_word(pds, *start), _among(target))
                trace = res.witness()
                assert trace[-1] == last
                assert _replay(pds, start, trace)[0] == target
    # with no target the saturation reaches its fixpoint and stops
    assert post_star(*_from_word(pds, "p", ("a", "_btm")), _among()).stop == CLOSED


# sha256 over every post* run below from one start word: its stop, its last
# transition and its transitions with their first derivations, in the order
# they went in; a longer word is pushed by _from_word's rules first
POST_STAR_DERIVATIONS = {
    "_btm": "3032cf405f9b2dd64504d583702e1086995382c918b60070066cd1e55be52faa",
    "a,_btm": "3fb01eb2018f99a4225d7fa2fafe1863d4c897b0c958f04a8656e50f17bee678",
    "b,a,_btm": "85464d815b0f24ee7b9c1144d0a1fa9f4d3972649ca31d83151881b85e335b5e",
}


@pytest.mark.parametrize("word", sorted(POST_STAR_DERIVATIONS))
def test_post_star_derivations_are_pinned(word):
    # the random systems above, towards each control and towards none; the
    # runs with no target again at every budget below their fixpoint's, so
    # the budget stops are pinned too
    digest = hashlib.sha256()

    def record(res):
        digest.update(repr((res.stop, res.last, list(res.transitions.items()))).encode())
        return res

    for seed, n_controls, max_rules in [(s, 3, 7) for s in range(25)] + [(s, 8, 30) for s in range(25)]:
        pds = _random_pds(seed, n_controls, max_rules)
        pds2, start = _from_word(pds, "p0", tuple(word.split(",")))
        for target in pds.controls:
            record(post_star(pds2, start, _among(target)))
        full = record(post_star(pds2, start, _among()))
        for budget in range(len(full.transitions) - 1):
            record(post_star(pds2, start, _among(), budget=budget))
    assert digest.hexdigest() == POST_STAR_DERIVATIONS[word]
