"""check on a program: the pivot search first, the machine route otherwise.

check decides a program with pivot_search and lifts a reachable search path
to the translated register machine; an inconclusive pivot search, an
explicit --backend and crosscheck go through translate + solve_auto.  The
seeded campaign below compares the two routes on random programs of every
data type that has an exact machine backend.
"""

import random

import pytest

import tsoreach.cli
from helpers import parse_program
from tsoreach.cli import main
from tsoreach.dsl import Program, parse_adt_line, print_program
from tsoreach.gen import random_program
from tsoreach.model import replay_rm
from tsoreach.pivot import pivot_reach
from tsoreach.solvers import format_rm_label, solve_auto
from tsoreach.translate import build_register_machine, lift_pivot_witness
from tsoreach.verdict import WitnessError

PROGRAMS = 30  # per data type
BUDGET = 20_000
ADTS = ["trivial", "counter", "weakcounter", "stack alphabet a,b"]


def _programs(adt_line):
    rng = random.Random(f"check-pivot-first {adt_line}")
    adt = parse_adt_line(adt_line, 0)
    for _ in range(PROGRAMS):
        mem, adt_, proc = random_program(
            rng, n_states=rng.randint(3, 5), n_vars=rng.randint(1, 2), adt=adt,
            op_weight=0 if adt.kind == "trivial" else 40)
        yield Program(mem=mem, adt=adt_, proc=proc)


def _lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    fields = [line.split(": ", 1) for line in out.splitlines()]
    report = {key: value for key, value in fields if key != "witness"}
    report["witness"] = [value for key, value in fields if key == "witness"]
    return code, report


def _assert_replays(rm, witness):
    edges = {format_rm_label(e): e for e in rm.delta}
    assert replay_rm(rm, [edges[label] for label in witness]).state == rm.q_target


@pytest.mark.parametrize("adt_line", ADTS)
def test_check_agrees_with_the_machine_route(tmp_path, capsys, monkeypatch, adt_line):
    flags = ["--format", "lines", "--budget", str(BUDGET)]
    decided_by_both = 0
    for i, prog in enumerate(_programs(adt_line)):
        path = tmp_path / f"p{i}.tso"
        path.write_text(print_program(prog))
        rm = build_register_machine(prog.proc, prog.mem, prog.adt)
        rm_v = solve_auto(rm, budget=BUDGET)

        _, report = _lines(capsys, ["check", str(path), *flags])
        verdict = report["verdict"]
        if verdict != "inconclusive" and rm_v.conclusive:
            assert verdict == rm_v.outcome, f"program {i}"
            decided_by_both += 1
        if verdict == "reachable":
            _assert_replays(rm, report["witness"])

        # an explicit backend takes the machine route
        _, finite = _lines(capsys, ["check", str(path), "--backend", "finite", *flags])
        assert int(finite["explored"]) == solve_auto(
            rm, backend="finite", budget=BUDGET).stats.explored

        # so does crosscheck's check line
        seen = []

        def spy(machine, **kwargs):
            v = solve_auto(machine, **kwargs)
            seen.append((machine, v))
            return v

        monkeypatch.setattr(tsoreach.cli, "solve_auto", spy)
        main(["crosscheck", str(path), "--budget", str(BUDGET),
              "--steps", "6", "--buffer", "2", "--n-max", "2"])
        out = capsys.readouterr().out
        monkeypatch.undo()
        assert [(m, v.stats.explored) for m, v in seen] == [(rm, rm_v.stats.explored)]
        assert f"check: {rm_v.outcome}" in out.splitlines()
    assert decided_by_both >= PROGRAMS // 2


HANDSHAKE = """\
memory vars x domain 0..1
adt trivial
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : wr x 1
trans q0 -> qf : rd x 1
"""


def test_check_prints_the_pivot_stats_and_a_machine_witness(tmp_path, capsys):
    path = tmp_path / "p.tso"
    path.write_text(HANDSHAKE)
    _, pivot = _lines(capsys, ["pivot", str(path), "--format", "lines"])
    code, check = _lines(capsys, ["check", str(path), "--format", "lines"])
    assert code == 0
    assert (check["explored"], check["iterations"]) == (pivot["explored"], pivot["iterations"])
    # guess phase: rank x=1 first, then start the first provider
    witness = check["witness"]
    assert witness[0] == "boot -> guess : set rknxt 1"
    assert witness[1].startswith("guess -> ") and witness[1].endswith(" : cke rk_x_1 0")
    assert witness[2].endswith(" : set rk_x_1 rknxt")
    assert witness[3].endswith(" -> guess : inc rknxt")
    assert witness[4] == "guess -> s_q0 : set php 1"
    assert witness[-1].split(" -> ")[1].startswith("s_qf ")


def test_lift_rejects_ranks_under_which_the_target_is_unreachable():
    prog = parse_program(HANDSHAKE)
    labels = pivot_reach(prog.proc, prog.mem, prog.adt).run
    assert len(lift_pivot_witness(prog.proc, prog.mem, prog.adt, (("x", 1),), labels)) > 5
    # without x=1 in the update sequence no provider can read it
    with pytest.raises(WitnessError):
        lift_pivot_witness(prog.proc, prog.mem, prog.adt, (), labels)


def test_check_keeps_a_reachable_pivot_verdict_at_every_budget(tmp_path, capsys):
    # the lift used to stop at --budget and check then ran the machine
    # route, which ran out of the same budget: inconclusive at budgets 3-18
    path = tmp_path / "p.tso"
    path.write_text(HANDSHAKE)
    prog = parse_program(HANDSHAKE)
    rm = build_register_machine(prog.proc, prog.mem, prog.adt)
    reachable = 0
    for budget in range(1, 31):
        flags = ["--format", "lines", "--budget", str(budget)]
        _, pivot = _lines(capsys, ["pivot", str(path), *flags])
        if pivot["verdict"] != "reachable":
            continue
        code, check = _lines(capsys, ["check", str(path), *flags])
        assert (code, check["verdict"]) == (0, "reachable"), f"budget {budget}"
        assert (check["explored"], check["iterations"]) == (pivot["explored"], pivot["iterations"])
        _assert_replays(rm, check["witness"])
        reachable += 1
    assert reachable == 28  # every budget from 3 on
