"""The breadth-first search kernel shared by check, pivot and oracle, and
the verdict reports."""

from tsoreach.verdict import (
    BUDGET,
    CLOSED,
    INCONCLUSIVE,
    PRUNED,
    REACHABLE,
    REACHED,
    Stats,
    Verdict,
    explore,
)


def _graph(edges):
    """successors over a dict state -> [state], labelled 'a->b'."""
    return lambda s: [(f"{s}->{t}", t) for t in edges.get(s, ())]


CHAIN = _graph({0: [1], 1: [2], 2: [3], 3: [4]})
TREE = _graph({s: [2 * s + 1, 2 * s + 2] for s in range(50)})


def test_initial_state_is_the_target():
    r = explore(0, CHAIN, lambda s: s == 0)
    assert (r.outcome, r.path, r.final) == (REACHED, (), 0)
    assert (r.explored, r.depth) == (0, 0)


def test_reached_path_is_a_shortest_one():
    succ = _graph({0: [1, 2], 1: [3], 2: [4], 3: [5], 4: [5]})
    r = explore(0, succ, lambda s: s == 5)
    assert r.outcome == REACHED and r.final == 5
    assert r.path == ("0->1", "1->3", "3->5")
    assert r.depth == 3


def test_budget_stops_with_states_left():
    r = explore(0, TREE, lambda s: s == -1, budget=3)
    assert (r.outcome, r.explored) == (BUDGET, 3)
    assert r.path is None
    # the tree goes on: without the budget the search records far more
    assert explore(0, TREE, lambda s: s == -1).explored > 3


def test_target_found_as_the_budget_th_state_is_reached():
    r = explore(0, CHAIN, lambda s: s == 2, budget=2)
    assert (r.outcome, r.explored, r.path) == (REACHED, 2, ("0->1", "1->2"))
    assert explore(0, CHAIN, lambda s: s == 3, budget=2).outcome == BUDGET


def test_exhausted_search_that_pruned_is_pruned_not_closed():
    succ = _graph({0: [1, 2], 1: [3], 2: [3]})
    r = explore(0, succ, lambda s: s == -1, prune=lambda s: s == 2)
    assert (r.outcome, r.explored) == (PRUNED, 2)
    r = explore(0, succ, lambda s: s == -1)
    assert (r.outcome, r.explored, r.depth) == (CLOSED, 3, 3)


def test_prune_comes_after_dedupe_and_before_the_target():
    succ = _graph({0: [1, 2]})
    # a pruned target is never reached, and a seen state is never pruned
    assert explore(0, succ, lambda s: s == 2, prune=lambda s: s == 2).outcome == PRUNED
    assert explore(0, _graph({0: [0]}), lambda s: False,
                   prune=lambda s: s == 0).outcome == CLOSED


def test_max_depth_limits_the_layers_expanded():
    r = explore(0, CHAIN, lambda s: s == 4, max_depth=2)
    assert (r.outcome, r.depth, r.explored) == (BUDGET, 2, 2)
    r = explore(0, CHAIN, lambda s: s == 4, max_depth=4)
    assert (r.outcome, r.depth, r.final) == (REACHED, 4, 4)
    # a search that runs out of states before max_depth is closed
    r = explore(0, CHAIN, lambda s: s == -1, max_depth=10)
    assert (r.outcome, r.depth) == (CLOSED, 5)


def test_states_with_one_key_are_expanded_once():
    # states are (name, tag); the key forgets the tag
    expanded = []

    def succ(s):
        expanded.append(s)
        name = s[0]
        return {"a": [("x", ("b", 1)), ("y", ("b", 2))],
                "b": [("z", ("c", 0))]}.get(name, [])

    r = explore(("a", 0), succ, lambda s: s[0] == "c", key=lambda s: s[0])
    assert r.outcome == REACHED and r.final == ("c", 0)
    assert r.path == ("x", "z")
    assert [s[0] for s in expanded] == ["a", "b"]
    assert r.explored == 2


def test_report_formats():
    v = Verdict(REACHABLE, witness=("a -> b", "b -> c"), stats=Stats(5, 2, 17))
    assert v.report("text") == ("verdict: reachable\nwitness:\n  a -> b\n  b -> c\n"
                                "stats:\n  explored: 5\n  iterations: 2\n  millis: 17\n")
    assert v.report("lines") == ("verdict: reachable\nwitness: a -> b\nwitness: b -> c\n"
                                 "explored: 5\niterations: 2\nclosed: 1\n")
    u = Verdict(INCONCLUSIVE, stats=Stats(3, 0, 1), closed=False)
    assert u.report("text") == ("verdict: inconclusive\nstats:\n  explored: 3\n"
                                "  iterations: 0\n  millis: 1\n")
    assert u.report("lines") == "verdict: inconclusive\nexplored: 3\niterations: 0\nclosed: 0\n"
