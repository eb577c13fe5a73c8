"""check's lift: a reachable pivot run becomes a run of the translated
machine gadget by gadget, without translating the whole program.

On the benchmark's program suites and on ``gen --kind program`` over every
data type, every lifted edge is an edge of ``build_register_machine``, the
run replays to its target there, and the lift builds the gadgets of the
transitions the pivot run takes and no other.  The whole machine is the
ordered concatenation of the pieces the lift builds one at a time.

The lift's walk is the only replay of check's witness: a search path with
a rule swapped, a transition index moved, a step dropped, or an omega
short of a message fails the walk, and check then prints no verdict; and
check never replays the pivot witness, while pivot and crosscheck do.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tsoreach import cli, dsl, pivot, translate
from tsoreach.cli import main
from tsoreach.model import RegisterAction, RmConfiguration, fire, replay_rm, rm_step
from tsoreach.pivot import pivot_search
from tsoreach.translate import build_register_machine, lift_pivot_witness
from tsoreach.verdict import DEFAULT_VALUE_BOUND, REACHED, WitnessError

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite.py"
BUDGET = 50_000

# three providers: the first writes x=1, the second reads it and writes
# y=1, and the third reads y=1 into the target; the search path is write2,
# read3, write2, read3
HANDSHAKE_TWICE = """\
memory vars x,y domain 0..1
adt trivial
process P
state q0 init
state q1
state q2
state q3
state qf target
trans q0 -> q1 : wr x 1
trans q0 -> q2 : rd x 1
trans q2 -> q3 : wr y 1
trans q0 -> qf : rd y 1
"""

# the data types of CI's crosscheck smoke
ADTS = ["counter", "weakcounter", "stack alphabet a,b", "trivial",
        "hostack level 2 alphabet a", "hocounter level 2", "howeakcounter level 2",
        "multistack count 2 alphabet a",
        "petri places p,q transitions t: p -> q ; u: q -> p initial p"]


def _load_suite():
    spec = importlib.util.spec_from_file_location("perfbench_suite", SUITE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _suite_programs():
    suite = _load_suite()
    return [(f"{w}/{seed}/{inst.id}", inst.text)
            for w in ("program-trivial", "program-adt") for seed in (1, 2)
            for inst in suite.build(w, seed)]


def _gen_programs(tmp_path, capsys):
    out = []
    for adt in ADTS:
        for seed in range(30):
            path = tmp_path / "gen.tso"
            assert main(["gen", "--kind", "program", "--adt", adt, "--seed", str(seed),
                         "--out", str(path)]) == 0
            out.append((f"{adt}/{seed}", path.read_text()))
    capsys.readouterr()
    return out


def _lift_and_check(name, prog, built) -> bool:
    """Lift prog's pivot search path, if it is reachable, and check the run
    against the whole machine; whether there was one to lift.  built
    collects the transition index of each gadget built."""
    proc, mem, adt = prog.proc, prog.mem, prog.adt
    r, _ = pivot_search(proc, mem, adt, value_bound=DEFAULT_VALUE_BOUND, budget=BUDGET)
    if r.outcome != REACHED:
        return False
    rm = build_register_machine(proc, mem, adt)
    built.clear()
    run = lift_pivot_witness(proc, mem, adt, r.final.prefix, r.path)
    assert sorted(built) == sorted({label.k for label in r.path}), name
    assert set(run) <= set(rm.delta), name
    assert replay_rm(rm, run).state == rm.q_target, name
    return True


def test_lifted_runs_replay_on_the_whole_machine(tmp_path, capsys, monkeypatch):
    built = []
    gadget = translate._gadget
    monkeypatch.setattr(translate, "_gadget", lambda k, *args: built.append(k) or gadget(k, *args))
    lifted = {"suite": 0, "gen": 0}
    for source, programs in (("suite", _suite_programs()),
                             ("gen", _gen_programs(tmp_path, capsys))):
        for name, text in programs:
            lifted[source] += _lift_and_check(name, dsl.parse_input(text), built)
    # 191 and 154 when this test was written
    assert lifted["suite"] >= 180 and lifted["gen"] >= 140, lifted


def test_a_witness_whose_omega_lacks_a_message_is_rejected():
    # the guess phase does not rank the missing message, so the step that
    # provides it, and any read3 that reads it, finds no enabled edge
    tampered = read = 0
    for name, text in _suite_programs():
        prog = dsl.parse_input(text)
        r, _ = pivot_search(prog.proc, prog.mem, prog.adt, value_bound=DEFAULT_VALUE_BOUND,
                            budget=BUDGET)
        if r.outcome != REACHED:
            continue
        omega = r.final.prefix
        for m in omega:
            without = tuple(m2 for m2 in omega if m2 != m)
            with pytest.raises(WitnessError):
                lift_pivot_witness(prog.proc, prog.mem, prog.adt, without, r.path)
            tampered += 1
            read += f"read3: rd {m[0]} {m[1]}" in map(str, r.path)
    assert tampered >= 70 and read >= 2, (tampered, read)


def test_the_machine_is_the_ordered_concatenation_of_its_pieces():
    for name, text in _suite_programs():
        prog = dsl.parse_input(text)
        proc, mem = prog.proc, prog.mem
        s_init = f"s_{proc.q_init}"
        pieces = [("boot", RegisterAction("set", "rknxt", 1), "guess")]
        for j, m in enumerate(mem.messages()):
            pieces += translate._guess_chain(j, m)
        pieces.append(("guess", RegisterAction("set", "php", 1), s_init))
        pieces += translate._ptrinit_chain(mem.variables, s_init)
        for k, transition in enumerate(proc.delta):
            for branch in translate._gadget(k, transition, mem.domain).values():
                pieces += branch
        assert build_register_machine(proc, mem, prog.adt).delta == tuple(pieces), name


# ---------------------------------------------------------------------------
# The lift as the only replay on check's reachable route

# a rule whose branch is disabled wherever the original's is enabled, or
# that the transition's gadget does not have
SWAPPED = {"write1": "write2", "write2": "write1", "read1": "read2", "read2": "read1",
           "read3": "skip", "skip": "fence", "fence": "skip", "op": "skip"}


def _tampered_runs(prog, run):
    """(what, run) pairs of broken variants of a reachable search path:
    each label's rule swapped, each label's k moved to a transition from
    another state, and each step dropped.  Every step of a breadth-first
    path is needed, so dropping any of them breaks the run."""
    delta = prog.proc.delta
    for i, label in enumerate(run):
        yield "rule", run[:i] + (label._replace(rule=SWAPPED[label.rule]),) + run[i + 1:]
        other = next((k for k, (q, _, _) in enumerate(delta) if q != delta[label.k][0]), None)
        if other is not None:
            yield "k", run[:i] + (label._replace(k=other),) + run[i + 1:]
        yield "dropped", run[:i] + run[i + 1:]


def test_a_tampered_search_path_does_not_lift():
    kinds = {"rule": 0, "k": 0, "dropped": 0}
    for name, text in _suite_programs():
        prog = dsl.parse_input(text)
        r, _ = pivot_search(prog.proc, prog.mem, prog.adt, budget=BUDGET)
        if r.outcome != REACHED:
            continue
        omega = r.final.prefix
        for what, run in _tampered_runs(prog, r.path):
            with pytest.raises(WitnessError):
                lift_pivot_witness(prog.proc, prog.mem, prog.adt, omega, run)
            kinds[what] += 1
    assert min(kinds.values()) >= 400, kinds  # 408 each when this test was written


def test_check_on_a_tampered_search_path_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # the lift's walk is check's replay: a broken path stops it, and check
    # prints no verdict
    path = tmp_path / "p.tso"
    path.write_text(HANDSHAKE_TWICE)
    prog = dsl.parse_input(HANDSHAKE_TWICE)
    real, stats = pivot_search(prog.proc, prog.mem, prog.adt)
    final = real.final
    variants = {"omega": (replace(real, final=final._replace(prefix=final.prefix[1:])), stats)}
    for what, run in _tampered_runs(prog, real.path):
        variants.setdefault(what, (replace(real, path=run), stats))
    assert list(variants) == ["omega", "rule", "k", "dropped"]
    for what, v in variants.items():
        monkeypatch.setattr(cli, "pivot_search", lambda *args, v=v, **kwargs: v)
        code = main(["check", str(path), "--format", "lines"])
        out, err = capsys.readouterr()
        assert (code, out) == (6, ""), what
        assert err.startswith("internal error: WitnessError: lifted witness"), what


def test_check_replays_only_by_the_lift(tmp_path, capsys, monkeypatch):
    # pivot and crosscheck replay the pivot witness; check replays the
    # lifted run by its walk alone
    calls = []
    real = pivot.replay_pivot
    monkeypatch.setattr(pivot, "replay_pivot",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    oracle = ["--steps", "6", "--buffer", "2", "--n-max", "2"]
    reachable = 0
    for name, text in _suite_programs()[:40]:
        path = tmp_path / "p.tso"
        path.write_text(text)
        counts = {}
        for command, flags in (("check", []), ("pivot", []), ("crosscheck", oracle)):
            calls.clear()
            code = main([command, str(path), "--budget", str(BUDGET), *flags])
            capsys.readouterr()
            counts[command] = (code, len(calls))
        if counts["pivot"][0] == 0:
            reachable += 1
            assert counts["check"] == (0, 0), name
            assert counts["pivot"] == (0, 1), name
            assert counts["crosscheck"][1] == 1, name
        else:
            assert counts["check"][1] == counts["pivot"][1] == counts["crosscheck"][1] == 0
    assert reachable >= 15, reachable


def test_rm_step_is_fire_over_the_decoded_edges():
    # the lift walks its branches with fire, the loop of rm_step: on every
    # state of each benchmark program's machine, under the zero registers
    # and random ones, both give the same successors in the same order
    rng = random.Random(0)
    enabled = 0
    for name, text in _suite_programs():
        prog = dsl.parse_input(text)
        rm = build_register_machine(prog.proc, prog.mem, prog.adt)
        value = rm.adt.initial_value()
        assignments = [(0,) * len(rm.registers)] + [
            tuple(rng.randrange(rm.bound + 1) for _ in rm.registers) for _ in range(2)]
        for q in rm.states:
            for regs in assignments:
                c = RmConfiguration(q, regs, value)
                steps = rm_step(rm, c)
                assert steps == fire(rm.edges_from(q), rm.adt, c), (name, q, regs)
                enabled += len(steps)
    assert enabled > 10_000, enabled
