import pytest

from helpers import backward_bases
from tsoreach.coverability import backward_reach
from tsoreach.verdict import BUDGET, CLOSED, REACHED


def _counter_system(target_value, initial=0):
    """Plain counter with inc/dec as a backward-reachability instance."""

    def preds(v):
        out = [("inc", max(v - 1, 0))]
        out.append(("dec", v + 1))
        return out

    return dict(
        targets=[target_value],
        preds=preds,
        leq=lambda a, b: a <= b,
        covers_initial=lambda v: v <= initial,
    )


def test_counter_coverable_and_chain_order():
    res = backward_reach(**_counter_system(3))
    assert res.stop == REACHED
    # chain fires forward from the initial value up to the target basis
    assert list(res.chain) == ["inc", "inc", "inc"]
    for basis in backward_bases(lambda budget: backward_reach(**_counter_system(3),
                                                              max_explored=budget)):
        assert all(
            not (a < b) for a in basis for b in basis if a != b
        )  # antichain: minimal element only


def test_target_already_covered():
    res = backward_reach(**_counter_system(0))
    assert res.stop == REACHED and res.chain == ()


def test_not_coverable_fixpoint():
    # a system whose only predecessor steps go upward never reaches 0
    def preds(v):
        return [("dec", v + 1)]

    res = backward_reach(
        targets=[2],
        preds=preds,
        leq=lambda a, b: a <= b,
        covers_initial=lambda v: v == 0,
    )
    assert res.stop == CLOSED and res.chain == ()
    # the basis stabilizes at the minimum
    assert res.basis == {2}


def test_subsumption_prunes_dominated_elements():
    seen = []

    def preds(v):
        seen.append(v)
        return [("down", max(v - 1, 0))]

    res = backward_reach(
        targets=[5, 7],  # 7 is dominated once 5 arrives... already at start
        preds=preds,
        leq=lambda a, b: a <= b,
        covers_initial=lambda v: v == 0,
    )
    assert res.stop == REACHED
    assert 7 not in seen  # dominated target never expanded


def test_budget_stops_before_the_basis_stabilizes():
    # the target 3 needs three inc steps back to the initial value 0
    full = backward_reach(**_counter_system(3))
    assert full.stop == REACHED
    res = backward_reach(**_counter_system(3), max_explored=1)
    assert res.stop == BUDGET and res.chain == ()


@pytest.mark.parametrize("budget", range(4))
def test_budget_stop_never_reports_more_than_the_budget(budget):
    # the full search records 6 predecessors, so each of these budgets stops
    # it, at the predecessor that would be one past the budget
    assert backward_reach(**_counter_system(3)).explored == 6
    res = backward_reach(**_counter_system(3), max_explored=budget)
    assert (res.stop, res.explored, res.chain) == (BUDGET, budget, ())
