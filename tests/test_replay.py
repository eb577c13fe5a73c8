"""Witness replays reject every tampered witness and accept one that needs search.

A replay follows the printed labels of a witness under the rules that found
it, so a changed, reordered, missing or extra line must make it fail.
"""

import pytest

from tsoreach.adt import trivial_spec
from tsoreach.model import MemorySpec, ProcessDescription, rd, skip, wr
from tsoreach.pivot import PivotError, pivot_reach, replay_pivot
from tsoreach.tso import OracleBounds, bounded_reach, replay_tso


def _proc(delta, states, vars_=("x",)):
    mem = MemorySpec(variables=vars_, d_max=1)
    proc = ProcessDescription(
        name="P", states=states, q_init=states[0], q_final=states[-1], delta=delta
    )
    return proc, mem, trivial_spec()


# two pivots, x=1 then y=1, and a third provider that reads its own y write
TWO_PIVOTS = _proc(
    (("q0", wr("x", 1), "q1"), ("q1", wr("y", 1), "q2"), ("q2", rd("y", 1), "qf")),
    states=("q0", "q1", "q2", "qf"), vars_=("x", "y"),
)
PIVOT_WITNESS = (
    "omega: x=1; y=1",
    "write2: wr x 1",
    "write1: wr x 1",
    "write2: wr y 1",
    "write1: wr x 1",
    "write1: wr y 1",
    "read1: rd y 1",
)

# reachable only with two processes: one writes x=1, the other reads it
TWO_PROCESSES = _proc(
    (("q0", wr("x", 1), "q1"), ("q0", rd("x", 1), "qf")), states=("q0", "q1", "qf"),
)
ORACLE_WITNESS = ("0: wr x 1", "0: upd x 1", "1: rd x 1")

# two skips out of q0; the first listed leads to a dead end
DEAD_END_FIRST = _proc(
    (("q0", skip(), "qd"), ("q0", skip(), "q1"), ("q1", skip(), "qf")),
    states=("q0", "qd", "q1", "qf"),
)


def _replay_pivot(witness, require_final="qf"):
    return replay_pivot(*TWO_PIVOTS, witness, require_final=require_final)


def _replay_tso(witness, n=2, require_final="qf"):
    return replay_tso(*TWO_PROCESSES, n, witness, require_final=require_final)


def test_the_untampered_witnesses_are_found_and_replay():
    assert pivot_reach(*TWO_PIVOTS).witness == PIVOT_WITNESS
    assert _replay_pivot(PIVOT_WITNESS).state == "qf"
    v = bounded_reach(*TWO_PROCESSES, OracleBounds(n_max=2))
    assert v.witness == ORACLE_WITNESS and v.stats.iterations == 2
    assert "qf" in _replay_tso(ORACLE_WITNESS).states


@pytest.mark.parametrize("witness", [
    # omega reordered against the order of the write2 steps
    ("omega: y=1; x=1",) + PIVOT_WITNESS[1:],
    # a repeated message: omega is not differentiated
    ("omega: x=1; y=1; x=1",) + PIVOT_WITNESS[1:],
    # a changed rule name
    PIVOT_WITNESS[:2] + ("write2: wr x 1",) + PIVOT_WITNESS[3:],
    # a changed instruction
    PIVOT_WITNESS[:-1] + ("read1: rd y 0",),
    # truncated: the last step is missing, so the target is not reached
    PIVOT_WITNESS[:-1],
    # an extra step after the target
    PIVOT_WITNESS + ("read1: rd y 1",),
], ids=["omega-reordered", "omega-repeated", "rule-changed", "instruction-changed",
        "truncated", "extra-step"])
def test_a_tampered_pivot_witness_is_rejected(witness):
    with pytest.raises(PivotError):
        _replay_pivot(witness)


def test_a_truncated_pivot_witness_replays_without_require_final():
    assert _replay_pivot(PIVOT_WITNESS[:-1], require_final=None).state == "q2"


def test_an_oracle_witness_may_step_any_copy_of_identical_processes():
    # the search expands only the first of identical processes, but replay
    # accepts a run that steps a later copy while they are still identical
    assert "qf" in _replay_tso(("1: wr x 1", "1: upd x 1", "0: rd x 1")).states
    assert "qf" in _replay_tso(("2: wr x 1", "2: upd x 1", "1: rd x 1"), n=3).states
    for n_max in (2, 3):
        for steps in (3, 12):
            v = bounded_reach(*TWO_PROCESSES, OracleBounds(n_max=n_max, step_max=steps))
            assert v.witness == ORACLE_WITNESS  # the writer is process 0


@pytest.mark.parametrize("witness,n", [
    (("0: wr x 1", "0: upd x 1", "0: rd x 1"), 2),  # wrong process index
    (("0: wr x 1", "0: upd x 1", "1: rd x 0"), 2),  # wrong value
    (("0: wr x 1", "0: upd x 0", "1: rd x 1"), 2),  # wrong value of an update
    (ORACLE_WITNESS, 1),  # wrong n: process 1 does not exist
    (ORACLE_WITNESS[:-1], 2),  # truncated
], ids=["process", "value", "update-value", "n", "truncated"])
def test_a_tampered_oracle_witness_is_rejected(witness, n):
    with pytest.raises(ValueError):
        _replay_tso(witness, n=n)


def test_a_pivot_witness_that_needs_search_is_accepted():
    # the first skip out of q0 matches the first line and dead-ends in qd;
    # only the second one completes the witness
    assert replay_pivot(*DEAD_END_FIRST, ("omega: ", "skip: skip", "skip: skip"),
                        require_final="qf").state == "qf"


def test_an_oracle_witness_that_needs_search_is_accepted():
    cfg = replay_tso(*DEAD_END_FIRST, 1, ("0: skip", "0: skip"), require_final="qf")
    assert cfg.states == ("qf",)


def test_a_malformed_step_is_a_replay_error():
    # a step that no rule prints is rejected like any other mismatch, with
    # the replay's own error type
    for line in ("write2: wr x", "write2 wr x 1", ""):
        with pytest.raises(PivotError):
            _replay_pivot(PIVOT_WITNESS[:1] + (line,) + PIVOT_WITNESS[2:])
    for omega_line in ("omega x=1; y=1", "omega: x=a; y=1", "omega: x=1; y"):
        with pytest.raises(PivotError):
            _replay_pivot((omega_line,) + PIVOT_WITNESS[1:])
    with pytest.raises(PivotError):
        _replay_pivot(())
    for line in ("0: wr x", "wr x 1", ""):
        with pytest.raises(ValueError):
            _replay_tso((line,) + ORACLE_WITNESS[1:])
