import random

import pytest

import tsoreach.tso
from helpers import bounded_reach_unreduced, mf, parse_program, tso_step
from tsoreach.adt import step_unchecked, trivial_spec
from tsoreach.dsl import parse_adt_line
from tsoreach.gen import random_program
from tsoreach.model import MemorySpec, ProcessDescription, rd, skip, wr
from tsoreach.tso import (
    OracleBounds,
    TsoConfiguration,
    bounded_reach,
    initial_configuration,
    lval,
    rval,
)
from tsoreach.verdict import explore


def test_lval_picks_most_recent_pending_write():
    buf = (("x", 2), ("x", 1))  # left entry is the newest
    assert lval(buf, "x") == 2
    assert lval((), "x") is None
    assert lval((("y", 3),), "x") is None


def test_rval_falls_back_to_memory():
    assert rval((("x", 2),), 0, "x") == 2
    assert rval((), 0, "x") == 0
    assert rval((("y", 5),), 7, "x") == 7


def _simple(delta, states=("q0", "q1", "qf"), vars_=("x",)):
    mem = MemorySpec(variables=vars_, d_max=1)
    proc = ProcessDescription(
        name="P", states=states, q_init=states[0], q_final=states[-1], delta=delta
    )
    return proc, mem, trivial_spec()


def test_write_buffers_then_update_hits_memory():
    proc, mem, adt = _simple((("q0", wr("x", 1), "q1"),))
    cfg = initial_configuration(proc, mem, adt, 1)
    [(label, cfg2)] = tso_step(cfg, proc, mem, adt)
    assert label.kind == "wr"
    assert cfg2.buffers[0] == (("x", 1),)
    assert cfg2.memory == (0,)  # untouched until the update
    succs = tso_step(cfg2, proc, mem, adt)
    upd = [c for lab, c in succs if lab.kind == "upd"]
    assert len(upd) == 1
    assert upd[0].buffers[0] == () and upd[0].memory == (1,)


def test_fence_blocks_on_nonempty_buffer():
    proc, mem, adt = _simple((("q0", wr("x", 1), "q1"), ("q1", mf(), "qf")))
    cfg = initial_configuration(proc, mem, adt, 1)
    [(_, cfg2)] = tso_step(cfg, proc, mem, adt)
    kinds = [lab.kind for lab, _ in tso_step(cfg2, proc, mem, adt)]
    assert "mf" not in kinds
    # after the update the fence fires
    cfg3 = [c for lab, c in tso_step(cfg2, proc, mem, adt) if lab.kind == "upd"][0]
    assert "mf" in [lab.kind for lab, _ in tso_step(cfg3, proc, mem, adt)]


def test_read_own_write_before_propagation():
    proc, mem, adt = _simple((("q0", wr("x", 1), "q1"), ("q1", rd("x", 1), "qf")))
    v = bounded_reach(proc, mem, adt, OracleBounds(n_max=1, step_max=4))
    assert v.outcome == "reachable"
    assert list(v.witness) == ["0: wr x 1", "0: rd x 1"]


def test_reachable_only_with_two_processes():
    proc, mem, adt = _simple(
        (("q0", wr("x", 1), "q1"), ("q0", rd("x", 1), "qf"))
    )
    assert bounded_reach(proc, mem, adt, OracleBounds(n_max=1)).outcome == "inconclusive"
    v = bounded_reach(proc, mem, adt, OracleBounds(n_max=2))
    assert v.outcome == "reachable"


def test_skip_only_program_one_step():
    proc, mem, adt = _simple((("q0", skip(), "qf"),), states=("q0", "qf"))
    v = bounded_reach(proc, mem, adt, OracleBounds(n_max=1, step_max=1))
    assert v.outcome == "reachable" and len(v.witness) == 1


def test_guarded_read_with_no_writer_never_found():
    proc, mem, adt = _simple((("q0", rd("x", 1), "qf"),), states=("q0", "qf"))
    v = bounded_reach(proc, mem, adt, OracleBounds(n_max=3, step_max=12))
    assert v.outcome == "inconclusive"


def _replay_path(proc, mem, adt, n, witness):
    """The configurations and labels of a run of n processes that prints the
    witness and ends with the target reached, found by DFS (a printed label
    does not pin down the target state)."""
    init = initial_configuration(proc, mem, adt, n)
    stack = [(init, 0, [init], [])]
    while stack:
        cfg, i, path, labels = stack.pop()
        if i == len(witness):
            if proc.q_final in cfg.states:
                return path, labels
            continue
        for lab, c2 in tso_step(cfg, proc, mem, adt):
            if str(lab) == witness[i]:
                stack.append((c2, i + 1, path + [c2], labels + [lab]))
    raise AssertionError("witness does not replay")


def _replay_and_check_fifo(proc, mem, adt, n, witness):
    """Replay; additionally check per-process FIFO update discipline and
    read coherence along the way."""
    path, labels = _replay_path(proc, mem, adt, n, witness)
    pending: dict[int, list] = {i: [] for i in range(n)}
    var_index = {x: i for i, x in enumerate(mem.variables)}
    for cfg, label in zip(path, labels):
        if label.kind == "wr":
            pending[label.proc].insert(0, (label.var, label.val))
        elif label.kind == "upd":
            assert pending[label.proc], "update with an empty queue"
            assert pending[label.proc].pop() == (label.var, label.val), "FIFO order broken"
        elif label.kind == "rd":
            got = rval(cfg.buffers[label.proc],
                       cfg.memory[var_index[label.var]], label.var)
            assert got == label.val, "read incoherent with the pre-configuration"
    return path[-1]


@pytest.mark.parametrize("seed", range(15))
def test_witnesses_replay_with_fifo_and_coherence(seed):
    rng = random.Random(seed)
    mem, adt, proc = random_program(rng, n_states=4, n_vars=2, d_max=1)
    v = bounded_reach(proc, mem, adt, OracleBounds(n_max=3, step_max=10))
    if v.outcome == "reachable":
        cfg = _replay_and_check_fifo(proc, mem, adt, v.stats.iterations, v.witness)
        assert proc.q_final in cfg.states


def test_symmetry_of_successors_under_process_permutation():
    rng = random.Random(1)
    mem, adt, proc = random_program(rng, n_states=3, n_vars=1, d_max=1)
    cfg = initial_configuration(proc, mem, adt, 2)
    # walk a few steps, then compare successor sets under index swap
    for _ in range(4):
        succs = tso_step(cfg, proc, mem, adt)
        if not succs:
            break
        cfg = succs[rng.randrange(len(succs))][1]
    def swap(c):
        return TsoConfiguration(
            states=c.states[::-1], values=c.values[::-1],
            buffers=c.buffers[::-1], memory=c.memory,
        )
    swapped = swap(cfg)
    got = {(lab.kind, lab.var, lab.val, 1 - lab.proc, swap(c2))
           for lab, c2 in tso_step(cfg, proc, mem, adt)}
    expected = {(lab.kind, lab.var, lab.val, lab.proc, c2)
                for lab, c2 in tso_step(swapped, proc, mem, adt)}
    assert got == expected


COUNTER_INC_ISZERO = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : op inc
trans q1 -> qf : op iszero
"""


def test_counter_values_tracked_per_process():
    prog = parse_program(COUNTER_INC_ISZERO)
    v = bounded_reach(prog.proc, prog.mem, prog.adt, OracleBounds(n_max=1))
    assert v.outcome == "inconclusive"  # own counter is 1, iszero blocked
    v2 = bounded_reach(prog.proc, prog.mem, prog.adt, OracleBounds(n_max=2))
    assert v2.outcome == "inconclusive"  # every process must inc first


def test_adt_size_pruning_bound_respected():
    text = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state qf target
trans q0 -> q0 : op inc
trans q0 -> qf : rd x 1
"""
    prog = parse_program(text)
    v = bounded_reach(prog.proc, prog.mem, prog.adt,
                      OracleBounds(n_max=1, step_max=10, adt_size_max=2))
    assert v.outcome == "inconclusive"


def test_bounds_validation():
    with pytest.raises(ValueError):
        OracleBounds(n_max=0)


# the data types of the crosscheck smoke in CI
SMOKE_ADTS = (
    "counter", "weakcounter", "stack alphabet a,b", "trivial", "hostack level 2 alphabet a",
    "hocounter level 2", "howeakcounter level 2", "multistack count 2 alphabet a",
    "petri places p,q transitions t: p -> q ; u: q -> p initial p",
)


def _gen_program(adt_line, seed):
    """The program of `gen --kind program [--adt adt_line] --seed seed`."""
    adt = None if adt_line is None else parse_adt_line(adt_line, None)
    return random_program(random.Random(seed), adt=adt,
                          op_weight=40 if adt and adt.kind != "trivial" else 0)


@pytest.mark.parametrize("adt_line,bounds", [
    *(pytest.param(adt_line, bounds, id=f"{adt_line}-{name}")
      for name, bounds in (("default", OracleBounds()), ("3-10-4-4", OracleBounds(3, 10, 4, 4)),
                           ("4-8-2-4", OracleBounds(4, 8, 2, 4)))
      for adt_line in SMOKE_ADTS),
    # at value bound 0 every process starts over it, and a pop of the
    # level-2 stack brings the moved process back under it; the unmoved
    # processes stay over the bound, so from n = 2 on nothing is kept
    pytest.param("hostack level 2 alphabet a", OracleBounds(3, 10, 4, 0),
                 id="hostack level 2 alphabet a-value-bound-0"),
])
def test_oracle_report_equals_the_unreduced_search(adt_line, bounds):
    # the symmetry reduction, the bound check on the moved process only, the
    # memo of local moves and the counting walk at each process count, with
    # the kernel only where the walk meets a target, change neither the
    # verdict, nor explored, nor the witness
    for seed in range(30):
        mem, adt, proc = _gen_program(adt_line, seed)
        assert (bounded_reach(proc, mem, adt, bounds).report("lines")
                == bounded_reach_unreduced(proc, mem, adt, bounds).report("lines")), seed


@pytest.mark.parametrize("n_max", [1, 3])
def test_an_initial_value_over_the_bound_keeps_no_successor(n_max):
    # every process starts over the value bound, and a program without data
    # operations never leaves it
    mem, _, proc = _gen_program(None, 3)
    adt = parse_adt_line("hostack level 50 alphabet a", None)
    bounds = OracleBounds(n_max=n_max)
    report = bounded_reach(proc, mem, adt, bounds).report("lines")
    assert report == bounded_reach_unreduced(proc, mem, adt, bounds).report("lines")
    assert "explored: 0\n" in report


def test_local_moves_are_kept_per_call():
    # the same states, variable and initial value, but other transitions: a
    # memo of local moves kept from the first call would give the second
    # program the first one's skip to qf
    bounds = OracleBounds()
    for delta in ((("q0", skip(), "qf"),), (("q0", rd("x", 1), "qf"),)):
        proc, mem, adt = _simple(delta, states=("q0", "qf"))
        assert (bounded_reach(proc, mem, adt, bounds).report("lines")
                == bounded_reach_unreduced(proc, mem, adt, bounds).report("lines"))


def test_the_oracle_steps_data_through_its_module_global(monkeypatch):
    # the benchmark's tracer counts data-type steps by patching
    # tsoreach.tso.step_unchecked, so the oracle must look the name up there
    calls = []

    def counting(*args):
        calls.append(args)
        return step_unchecked(*args)

    monkeypatch.setattr(tsoreach.tso, "step_unchecked", counting)
    prog = parse_program(COUNTER_INC_ISZERO)
    bounded_reach(prog.proc, prog.mem, prog.adt, OracleBounds(n_max=2))
    assert calls


# a target that needs exactly three processes: the first writes x, the
# second reads it and writes y, the third reads y; the writers are dead ends
THREE_PROCESSES = (("q0", wr("x", 1), "qw"), ("q0", rd("x", 1), "q1"),
                   ("q1", wr("y", 1), "qw2"), ("q0", rd("y", 1), "qf"))


def _three_processes():
    return _simple(THREE_PROCESSES, states=("q0", "qw", "q1", "qw2", "qf"), vars_=("x", "y"))


def _checked_report(proc, mem, adt, bounds):
    """bounded_reach's report, after checking it against the unreduced search."""
    report = bounded_reach(proc, mem, adt, bounds).report("lines")
    assert report == bounded_reach_unreduced(proc, mem, adt, bounds).report("lines")
    return report


def test_a_target_of_three_processes_is_searched_after_two_counted_ones():
    proc, mem, adt = _three_processes()
    assert "verdict: inconclusive\n" in _checked_report(proc, mem, adt, OracleBounds(n_max=2))
    report = _checked_report(proc, mem, adt, OracleBounds(n_max=3))
    assert "verdict: reachable\n" in report and "iterations: 3\n" in report


@pytest.mark.parametrize("length", [1, 5])
def test_a_target_exactly_step_max_steps_away(length):
    # every process walks the chain; the target lies in the last layer
    states = tuple(f"q{i}" for i in range(length)) + ("qf",)
    delta = tuple(zip(states, (wr("x", 1), skip()) * length, states[1:]))
    proc, mem, adt = _simple(delta, states=states)
    report = _checked_report(proc, mem, adt, OracleBounds(n_max=3, step_max=length))
    assert "verdict: reachable\n" in report and "iterations: 1\n" in report
    if length > 1:
        report = _checked_report(proc, mem, adt, OracleBounds(n_max=3, step_max=length - 1))
        assert "verdict: inconclusive\n" in report


def test_an_initial_state_at_the_target_is_reached_in_no_steps():
    prog = parse_program("memory vars x domain 0..1\nadt trivial\nprocess P\n"
                         "state q0 init target\nstate q1\ntrans q0 -> q1 : skip\n")
    report = _checked_report(prog.proc, prog.mem, prog.adt, OracleBounds())
    assert report == "verdict: reachable\nexplored: 0\niterations: 1\nclosed: 0\n"


def test_a_space_that_closes_before_step_max_is_counted_once():
    # q0 -> q1 -> q2 and no further: the multisets of n processes over three
    # states, less the initial one, at n = 1, 2 and 3
    proc, mem, adt = _simple((("q0", skip(), "q1"), ("q1", skip(), "q2")),
                             states=("q0", "q1", "q2", "qf"))
    report = _checked_report(proc, mem, adt, OracleBounds(n_max=3, step_max=12))
    assert "verdict: inconclusive\n" in report and "explored: 16\n" in report


def test_the_kernel_runs_only_at_a_process_count_that_reaches_the_target(monkeypatch):
    # replay_tso reaches explore through verdict, so replays are not counted
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return explore(*args, **kwargs)

    monkeypatch.setattr(tsoreach.tso, "explore", counting)
    proc, mem, adt = _simple((("q0", rd("x", 1), "qf"),), states=("q0", "qf"))
    assert bounded_reach(proc, mem, adt, OracleBounds(n_max=3)).outcome == "inconclusive"
    assert calls == []
    assert bounded_reach(*_three_processes(), OracleBounds(n_max=3)).outcome == "reachable"
    assert len(calls) == 1
