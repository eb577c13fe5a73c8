"""check's lift: a reachable pivot run becomes a run of the translated
machine gadget by gadget, without translating the whole program.

On the benchmark's program suites and on ``gen --kind program`` over every
data type, every lifted edge is an edge of ``build_register_machine``, the
run replays to its target there, and the lift builds the gadgets of the
transitions the pivot run takes and no other.  The whole machine is the
ordered concatenation of the pieces the lift builds one at a time.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from tsoreach import dsl, translate
from tsoreach.cli import main
from tsoreach.model import RegisterAction, replay_rm
from tsoreach.pivot import parse_omega, pivot_reach
from tsoreach.translate import build_register_machine, lift_pivot_witness
from tsoreach.verdict import DEFAULT_VALUE_BOUND, REACHABLE, WitnessError

SUITE = Path(__file__).resolve().parents[1] / "perfbench" / "suite.py"
BUDGET = 50_000

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
    """Lift prog's pivot witness, if it is reachable, and check the run
    against the whole machine; whether there was one to lift.  built
    collects the transition index of each gadget built."""
    proc, mem, adt = prog.proc, prog.mem, prog.adt
    v = pivot_reach(proc, mem, adt, value_bound=DEFAULT_VALUE_BOUND, budget=BUDGET)
    if v.outcome != REACHABLE:
        return False
    built.clear()
    run = lift_pivot_witness(proc, mem, adt, parse_omega(v.witness[0]), v.run)
    assert sorted(built) == sorted({label.k for label in v.run}), name

    rm = build_register_machine(proc, mem, adt)
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
        v = pivot_reach(prog.proc, prog.mem, prog.adt, value_bound=DEFAULT_VALUE_BOUND,
                        budget=BUDGET)
        if v.outcome != REACHABLE:
            continue
        omega = parse_omega(v.witness[0])
        for m in omega:
            without = tuple(m2 for m2 in omega if m2 != m)
            with pytest.raises(WitnessError):
                lift_pivot_witness(prog.proc, prog.mem, prog.adt, without, v.run)
            tampered += 1
            read += f"read3: rd {m[0]} {m[1]}" in v.witness
    assert tampered >= 70 and read >= 2, (tampered, read)


def test_the_machine_is_the_ordered_concatenation_of_its_pieces():
    for name, text in _suite_programs():
        prog = dsl.parse_input(text)
        proc, mem = prog.proc, prog.mem
        act = functools.cache(RegisterAction)
        s_init = f"s_{proc.q_init}"
        pieces = [("boot", act("set", "rknxt", 1), "guess")]
        for j, m in enumerate(mem.messages()):
            pieces += translate._guess_chain(j, m, act)
        pieces.append(("guess", act("set", "php", 1), s_init))
        pieces += translate._ptrinit_chain(mem.variables, act, s_init)
        for k, transition in enumerate(proc.delta):
            for branch in translate._gadget(k, transition, mem.domain, act).values():
                pieces += branch
        assert build_register_machine(proc, mem, prog.adt).delta == tuple(pieces), name
