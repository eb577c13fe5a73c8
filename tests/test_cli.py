import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tsoreach
import tsoreach.cli
import tsoreach.pivot
import tsoreach.tso
from helpers import parse_program
from tsoreach.adt import MAX_LEVEL
from tsoreach.cli import main
from tsoreach.dsl import print_machine
from tsoreach.gen import random_stack_machine
from tsoreach.pivot import pivot_reach
from tsoreach.tso import bounded_reach
from tsoreach.verdict import REACHED, WitnessError

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

NO_WRITER = """\
memory vars x domain 0..1
adt trivial
process P
state q0 init
state qf target
trans q0 -> qf : rd x 1
"""

COUNTER_PUMP = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state qf target
trans q0 -> q0 : op inc
trans q0 -> q1 : op dec
trans q1 -> qf : rd x 1
"""

# the counter never returns to zero after the first inc
COUNTER_NEVER_ZERO = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state q2
state qf target
trans q0 -> q1 : op inc
trans q1 -> q1 : op inc
trans q1 -> q2 : wr x 1
trans q2 -> qf : op iszero
"""

# reachable only once the counter has been 2
COUNT_TO_TWO = """\
adt counter
machine M
registers - bound 0
state q0 init
state q1
state q2
state qt target
trans q0 -> q1 : op inc
trans q1 -> q2 : op inc
trans q2 -> qt : op dec
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_reachable_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    code, out, _ = _run(capsys, "check", path)
    assert code == 0
    assert out.startswith("verdict: reachable")
    assert "witness:" in out


def test_check_unreachable_exit_one(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", NO_WRITER)
    code, out, _ = _run(capsys, "check", path)
    assert code == 1 and out.startswith("verdict: unreachable")


def test_check_capped_counter_exit_two(tmp_path, capsys):
    # pre* proves COUNTER_PUMP unreachable within a budget of 30; a tiny
    # budget forces the honest inconclusive
    path = _write(tmp_path, "p.tso", COUNTER_PUMP)
    code, out, _ = _run(capsys, "check", path, "--budget", "5")
    assert code == 2 and out.startswith("verdict: inconclusive")


@pytest.mark.parametrize("text, pivot_verdict",
                         [(COUNTER_PUMP, "unreachable"), (COUNTER_NEVER_ZERO, "inconclusive")],
                         ids=["pump", "never-zero"])
def test_check_pumping_counter_is_unreachable(tmp_path, capsys, text, pivot_verdict):
    # the pivot search prunes the pumped counter at the value bound.  Without
    # the counter, no write makes x=1 in pump, so the data-free search
    # decides it; never-zero's answer depends on the counter, and pre* over
    # the translated machine decides it
    path = _write(tmp_path, "p.tso", text)
    code, out, _ = _run(capsys, "pivot", path, "--format", "lines")
    assert out.startswith(f"verdict: {pivot_verdict}")
    assert code == {"unreachable": 1, "inconclusive": 2}[pivot_verdict]
    code, out, _ = _run(capsys, "check", path, "--format", "lines")
    assert code == 1 and out.startswith("verdict: unreachable")
    assert "closed: 1" in out.splitlines()


def test_value_limits_on_a_counter_machine(tmp_path, capsys):
    path = _write(tmp_path, "m.tso", COUNT_TO_TWO)
    # a value bound below the witness's values prunes: inconclusive, never
    # unreachable
    code, out, _ = _run(capsys, "check", path, "--backend", "bounded",
                        "--value-bound", "1", "--format", "lines")
    assert code == 2 and out.startswith("verdict: inconclusive")
    for backend in ("finite", "counter"):
        code, out, _ = _run(capsys, "check", path, "--backend", backend,
                            "--format", "lines")
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("witness: ")] == [
            "witness: q0 -> q1 : op inc", "witness: q1 -> q2 : op inc",
            "witness: q2 -> qt : op dec"]
    # --cap, which blocked values above it and so claimed unreachable here,
    # is gone
    code, out, _ = _run(capsys, "check", path, "--backend", "finite", "--cap", "1")
    assert code == 4 and out == ""


def test_oracle_and_pivot_subcommands(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    code, out, _ = _run(capsys, "oracle", path, "--format", "lines")
    assert code == 0 and out.splitlines()[0] == "verdict: reachable"
    code, out, _ = _run(capsys, "pivot", path, "--format", "lines")
    assert code == 0 and "witness: omega: x=1" in out.splitlines()


@pytest.mark.parametrize("command,module", [("pivot", tsoreach.pivot), ("oracle", tsoreach.tso)])
def test_witness_that_fails_replay_is_an_internal_error(tmp_path, capsys, monkeypatch,
                                                        command, module):
    # a search that loses its last step must not print a verdict
    real = module.explore

    def explore(*args, **kwargs):
        r = real(*args, **kwargs)
        return dataclasses.replace(r, path=r.path[:-1]) if r.outcome == REACHED else r

    monkeypatch.setattr(module, "explore", explore)
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    prog = parse_program(HANDSHAKE)
    search = {"pivot": pivot_reach, "oracle": bounded_reach}[command]
    with pytest.raises(WitnessError):
        search(prog.proc, prog.mem, prog.adt)
    code, out, err = _run(capsys, command, path, "--format", "lines")
    assert (code, out) == (6, "")
    assert err.startswith("internal error: WitnessError: ")


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ZeroDivisionError("boom")

    # check decides this program with the pivot search, its first solver call
    monkeypatch.setattr(tsoreach.cli, "pivot_search", boom)
    code, out, err = _run(capsys, "check", _write(tmp_path, "p.tso", HANDSHAKE))
    assert (code, out) == (6, "")
    assert err.startswith("internal error: ZeroDivisionError: boom")


def test_lines_format_is_deterministic_and_millis_free(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    _, out1, _ = _run(capsys, "check", path, "--format", "lines")
    _, out2, _ = _run(capsys, "check", path, "--format", "lines")
    assert out1 == out2
    assert "millis" not in out1
    for line in out1.strip().splitlines():
        assert ": " in line


def test_parse_error_exit_three(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", HANDSHAKE.replace("wr x 1", "wr y 1"))
    code, _, err = _run(capsys, "check", path)
    assert code == 3 and "y" in err


def test_usage_error_exit_four(capsys):
    code, _, _ = _run(capsys, "check", "--no-such-flag")
    assert code == 4


def test_adt_override(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    code, out, _ = _run(capsys, "check", path, "--adt", "counter")
    assert code == 0
    # overriding with an adt that rejects the ops fails cleanly
    path2 = _write(tmp_path, "c.tso", COUNTER_PUMP)
    code2, _, err = _run(capsys, "check", path2, "--adt", "stack alphabet a")
    assert code2 == 3


def test_translate_roundtrip(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    code, out, _ = _run(capsys, "translate", path)
    assert code == 0 and out.startswith("adt trivial\nmachine")
    mpath = _write(tmp_path, "m.tso", out)
    code2, out2, _ = _run(capsys, "check", mpath, "--format", "lines")
    assert code2 == 0


def test_translate_reverse(tmp_path, capsys):
    mtext = """\
adt trivial
machine M
registers r bound 2
state a init
state b
state t target
trans a -> b : write r 1
trans b -> t : read r 1
"""
    path = _write(tmp_path, "m.tso", mtext)
    assert _run(capsys, "translate", path, "--reverse")[0] == 4
    code, out, _ = _run(capsys, "translate", path)
    assert code == 0 and "process" in out
    ppath = _write(tmp_path, "p.tso", out)
    code2, out2, _ = _run(capsys, "pivot", ppath, "--format", "lines")
    assert code2 == 0


def test_lower_tiers(tmp_path, capsys):
    mtext = """\
adt trivial
machine M
registers r1,r2 bound 2
state a init
state t target
trans a -> t : cke r1 r2
"""
    path = _write(tmp_path, "m.tso", mtext)
    code, out, _ = _run(capsys, "lower", path, "--to", "2")
    assert code == 0
    for word in ("set", "cke", "ckne", "ckl", "ckg", "ckle", "ckge"):
        assert f": {word} " not in out
    lowered = _write(tmp_path, "low2.tso", out)
    code_in, verdict_in, _ = _run(capsys, "check", path, "--format", "lines")
    code_low, verdict_low, _ = _run(capsys, "check", lowered, "--format", "lines")
    assert code_in == code_low == 0
    assert verdict_in.splitlines()[0] == verdict_low.splitlines()[0]
    code, out, _ = _run(capsys, "lower", path, "--to", "1")
    assert code == 0
    for word in ("cke", "inc", "dec", "ckz", "set"):
        assert f": {word} " not in out


def test_gen_deterministic_per_seed(capsys):
    _, out1, _ = _run(capsys, "gen", "--kind", "program", "--seed", "11")
    _, out2, _ = _run(capsys, "gen", "--kind", "program", "--seed", "11")
    _, out3, _ = _run(capsys, "gen", "--kind", "program", "--seed", "12")
    assert out1[0] == "m"  # memory line first
    assert out1 == out2
    assert out1 != out3
    # gen emits exactly one instance; no subcommand reads several joined
    code, out, err = _run(capsys, "gen", "--kind", "program", "--count", "2")
    assert (code, out) == (4, "")
    assert "unrecognized arguments: --count 2" in err


# gen --kind -> the flags it reads besides --kind and --out; intersection
# reads --fixture or --automata, not both
GEN_KIND_FLAGS = {
    "program": "--adt --seed --states --vars",
    "machine": "--adt --seed --states --regs --bound --tier",
    "counter-machine": "--seed",
    "stack-machine": "--seed --states",
    "net": "--seed",
    "intersection": "--fixture --automata",
}
# a value for each of those flags, its default where it has one: a flag a
# kind does not read is rejected whatever its value
GEN_DEFAULTS = {"--adt": "trivial", "--seed": "0", "--states": "4", "--vars": "2",
                "--regs": "2", "--bound": "1", "--tier": "1", "--fixture": "0",
                "--automata": "missing.aut"}


def _with_defaults(flags):
    return [word for flag in flags for word in (flag, GEN_DEFAULTS[flag])]


@pytest.mark.parametrize("kind", GEN_KIND_FLAGS)
def test_gen_output_is_checkable(tmp_path, capsys, kind):
    # every flag of the kind's row but --automata, which excludes --fixture
    flags = [f for f in GEN_KIND_FLAGS[kind].split() if f != "--automata"]
    code, out, _ = _run(capsys, "gen", "--kind", kind, *_with_defaults(flags))
    assert code == 0
    path = _write(tmp_path, "g.tso", out)
    code, body, _ = _run(capsys, "check", path, "--format", "lines")
    assert code in (0, 1, 2)
    assert body.splitlines()[0].startswith("verdict:")


def test_adt_on_a_cover_file_is_an_input_error(tmp_path, capsys):
    # a cover file used to be read before the override was looked at, so
    # even a malformed declaration gave a verdict
    _, out, _ = _run(capsys, "gen", "--kind", "net", "--seed", "3")
    path = _write(tmp_path, "net.tso", out)
    code, body, err = _run(capsys, "check", path, "--adt", "stack alphabet")
    assert (code, body) == (3, "")
    assert err == "error: --adt does not apply to a cover file\n"


def test_a_malformed_cover_file_reports_its_own_error_first(tmp_path, capsys):
    # the file is read before --adt is looked at
    path = _write(tmp_path, "bad.tso", "cover p\ncover q\n")
    code, body, err = _run(capsys, "check", path, "--adt", "counter")
    assert (code, body, err) == (3, "", "error: line 2: duplicate cover line\n")


# (kind, flags after it, the error)
GEN_STRAY = [
    (kind, _with_defaults([flag]), f"error: {flag} does not apply to --kind {kind}")
    for kind in GEN_KIND_FLAGS
    for flag in GEN_DEFAULTS
    if flag not in GEN_KIND_FLAGS[kind].split()
] + [
    ("counter-machine", ["--tier", "3", "--regs", "5", "--states", "9"],
     "error: --tier does not apply to --kind counter-machine"),
    ("program", ["--fixture", "3"], "error: --fixture does not apply to --kind program"),
    ("intersection", ["--fixture", "1", "--automata", "F"],
     "error: --fixture and --automata exclude each other"),
]


@pytest.mark.parametrize("kind,flags,error", GEN_STRAY,
                         ids=["-".join([k, *f]) for k, f, _ in GEN_STRAY])
def test_gen_flags_a_kind_does_not_read_are_usage_errors(capsys, kind, flags, error):
    # gen used to ignore all of these but --adt and --automata
    code, out, err = _run(capsys, "gen", "--kind", kind, *flags)
    assert (code, out, err) == (4, "", error + "\n")


@pytest.mark.parametrize("fixture", ["-1", "9"])
def test_gen_fixture_out_of_range_is_a_usage_error(capsys, fixture):
    # no input file is involved, yet this used to exit 3, an input error
    code, out, err = _run(capsys, "gen", "--kind", "intersection", "--fixture", fixture)
    assert (code, out) == (4, "")
    assert err == "error: --fixture must be in 0..5\n"


def test_gen_intersection_fixture_checkable(tmp_path, capsys):
    _, out, _ = _run(capsys, "gen", "--kind", "intersection", "--fixture", "0")
    path = _write(tmp_path, "i.tso", out)
    code, _, _ = _run(capsys, "check", path)
    assert code == 0  # fixture 0 is a nonempty intersection


def test_crosscheck_agreement(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    code, out, _ = _run(capsys, "crosscheck", path)
    assert code == 0
    assert "disagreement" not in out
    path2 = _write(tmp_path, "u.tso", NO_WRITER)
    code2, out2, _ = _run(capsys, "crosscheck", path2)
    assert code2 == 1  # agreed unreachable


def test_crosscheck_seeded_programs(tmp_path, capsys):
    # generated programs round-tripped through the CLI never disagree
    from tsoreach.dsl import Program, print_program
    from tsoreach.gen import random_program
    import random

    rng = random.Random(99)
    for i in range(15):
        mem, adt, proc = random_program(rng, n_states=3, n_vars=2, d_max=1)
        path = _write(tmp_path, f"g{i}.tso",
                      print_program(Program(mem=mem, adt=adt, proc=proc)))
        code, out, _ = _run(capsys, "crosscheck", path, "--steps", "8")
        assert code in (0, 1, 2), out
        assert "disagreement" not in out


PETRI_PROG = """\
memory vars x domain 0..0
adt petri places p,q transitions t: p -> q initial p
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : op t
trans q1 -> qf : rd x 0
"""

STACK_PROG = """\
memory vars x domain 0..1
adt stack alphabet a
process P
state q0 init
state q1
state q2
state qf target
trans q0 -> q1 : op push a
trans q1 -> q2 : op pop a
trans q2 -> qf : op isempty
"""

HO_PROG = """\
memory vars x domain 0..1
adt hostack level 2 alphabet a
process P
state q0 init
state q1
state q2
state qf target
trans q0 -> q1 : op push a
trans q1 -> q2 : op pushk 2
trans q2 -> qf : op popk 2
"""


@pytest.mark.parametrize("text,expected", [
    (PETRI_PROG, 0),
    (STACK_PROG, 0),
    (HO_PROG, 0),
])
def test_crosscheck_data_type_programs(tmp_path, capsys, text, expected):
    path = _write(tmp_path, "dt.tso", text)
    code, out, _ = _run(capsys, "crosscheck", path)
    assert "disagreement" not in out
    assert code == expected


def test_check_petri_program_unreachable(tmp_path, capsys):
    # the net holds a single token; firing t twice is impossible
    text = PETRI_PROG.replace(
        "trans q1 -> qf : rd x 0", "trans q1 -> qf : op t"
    )
    path = _write(tmp_path, "p2.tso", text)
    code, out, _ = _run(capsys, "check", path)
    assert code == 1 and out.startswith("verdict: unreachable")


def test_out_flag_writes_file(tmp_path, capsys):
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    target = tmp_path / "report.txt"
    code, out, _ = _run(capsys, "check", path, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("verdict: reachable")


def _write_bytes(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


@pytest.mark.parametrize("make_path", [
    lambda tmp_path: str(tmp_path / "missing.tso"),
    lambda tmp_path: str(tmp_path),
    lambda tmp_path: _write_bytes(tmp_path, "bad.tso", b"memory vars x domain 0..1\n\xff\xfe\n"),
], ids=["missing", "directory", "undecodable"])
def test_unreadable_input_exit_three(tmp_path, capsys, make_path):
    code, out, err = _run(capsys, "check", make_path(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("make_argv", [
    lambda tmp_path: ["gen", "--kind", "program", "--adt", "bogus"],
    lambda tmp_path: ["check", _write(tmp_path, "p.tso", HANDSHAKE),
                      "--out", str(tmp_path / "missing" / "report")],
], ids=["gen-bad-adt", "unwritable-out"])
def test_errors_outside_the_input_file_exit_three(tmp_path, capsys, make_argv):
    # these used to escape as a traceback with exit 1, the unreachable code
    code, out, err = _run(capsys, *make_argv(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("error: ")


AUTOMATA_UNDECLARED_STACK_SYMBOL = """\
pda K alphabet a stack Z
state s init accept
trans s a [-/B] -> s
fsa F alphabet a
state u init accept
trans u a -> u
"""


@pytest.mark.parametrize("make_path", [
    lambda tmp_path: str(tmp_path / "missing.aut"),
    lambda tmp_path: _write(tmp_path, "bad.aut", AUTOMATA_UNDECLARED_STACK_SYMBOL),
], ids=["missing", "undeclared-stack-symbol"])
def test_gen_bad_automata_exit_three(tmp_path, capsys, make_path):
    code, out, err = _run(capsys, "gen", "--kind", "intersection",
                          "--automata", make_path(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith("error: ")


def test_gen_automata_nameless_state_line_exit_three(tmp_path, capsys):
    # used to escape as an IndexError with exit 6
    path = _write(tmp_path, "a.txt", "pda P alphabet a stack A\nstate\n")
    code, out, err = _run(capsys, "gen", "--kind", "intersection", "--automata", path)
    assert code == 3 and out == ""
    assert err == "error: line 2: state line needs a name\n"


@pytest.mark.parametrize("command", ["check", "pivot", "oracle"])
def test_higher_order_level_cap(tmp_path, capsys, command):
    # deeper levels used to overflow the recursion limit (exit 6)
    _, text, _ = _run(capsys, "gen", "--kind", "program", "--seed", "3")
    path = _write(tmp_path, "p.tso", text)
    code, out, _ = _run(capsys, command, path, "--adt", f"hocounter level {MAX_LEVEL}",
                        "--value-bound", str(MAX_LEVEL + 20), "--format", "lines")
    assert code == 0 and out.startswith("verdict: reachable")
    code, out, err = _run(capsys, command, path, "--adt", f"hocounter level {MAX_LEVEL + 1}")
    assert code == 3 and out == ""
    assert err == f"error: level must be <= {MAX_LEVEL}\n"


def test_higher_order_level_cap_on_a_machine(tmp_path, capsys):
    _, text, _ = _run(capsys, "gen", "--kind", "machine", "--seed", "3",
                      "--adt", f"hostack level {MAX_LEVEL} alphabet a")
    path = _write(tmp_path, "m.tso", text)
    code, _, _ = _run(capsys, "check", path, "--format", "lines")
    assert code in (0, 1, 2)
    deep = _write(tmp_path, "deep.tso", text.replace(f"level {MAX_LEVEL}", f"level {MAX_LEVEL + 1}"))
    code, out, err = _run(capsys, "check", deep)
    assert code == 3 and out == ""
    assert err == f"error: line 1: level must be <= {MAX_LEVEL}\n"


@pytest.mark.parametrize("command", ["check", "pivot", "gen"])
@pytest.mark.parametrize("adt,message", [
    ("foo", "unknown adt kind: foo"),
    ("stack alphabet a,", "bad symbol name: ''"),
])
def test_bad_adt_flag_names_no_line(tmp_path, capsys, command, adt, message):
    # the flag is not a line of any file; these used to print "line 0: "
    if command == "gen":
        argv = ["gen", "--kind", "program", "--adt", adt]
    else:
        argv = [command, _write(tmp_path, "p.tso", HANDSHAKE), "--adt", adt]
    code, out, err = _run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("seed,verdict", [(10, "reachable"), (0, "unreachable")])
def test_stack_check_output_independent_of_hash_seed(tmp_path, seed, verdict):
    # string hashing differs per process; the pre* saturation order must not
    path = _write(tmp_path, "stack.rm",
                  print_machine(random_stack_machine(random.Random(seed), 40)))
    src = str(Path(tsoreach.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "tsoreach", "check", path, "--format", "lines"],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == (0 if verdict == "reachable" else 1)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(f"verdict: {verdict}\n".encode())


@pytest.mark.parametrize("kind,flag,value,rule", [
    ("program", "--states", "0", "positive"),
    ("program", "--vars", "0", "positive"),
    ("machine", "--bound", "-1", ">= 0"),
    ("machine", "--regs", "-1", ">= 0"),
    ("stack-machine", "--states", "0", "positive"),
])
def test_gen_bad_sizes_are_usage_errors(capsys, kind, flag, value, rule):
    code, out, err = _run(capsys, "gen", "--kind", kind, flag, value)
    assert (code, out, err) == (4, "", f"error: {flag} must be {rule}\n")


@pytest.mark.parametrize("command,flag,value,rule", [
    ("check", "--budget", "0", "positive"),
    ("pivot", "--value-bound", "-1", ">= 0"),
    ("oracle", "--n-max", "0", "positive"),
    ("oracle", "--steps", "0", "positive"),
    ("oracle", "--buffer", "0", "positive"),
    ("crosscheck", "--budget", "0", "positive"),
])
def test_bad_bounds_are_usage_errors(tmp_path, capsys, command, flag, value, rule):
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    code, out, err = _run(capsys, command, path, flag, value)
    assert (code, out, err) == (4, "", f"error: {flag} must be {rule}\n")


SUBCOMMAND_FLAGS = {
    "check": "--adt --backend --value-bound --budget --format --out",
    "pivot": "--adt --value-bound --budget --format --out",
    "oracle": "--adt --n-max --steps --buffer --value-bound --format --out",
    "crosscheck": "--adt --backend --n-max --steps --buffer --value-bound --budget --out",
    "translate": "--adt --out",
    "lower": "--adt --out --to",
    "gen": "--adt --seed --out --kind --states --vars --regs --bound --tier "
           "--fixture --automata",
}


# a valid value for every flag some subcommand does not take
FLAG_VALUES = {"--backend": "stack", "--n-max": "2", "--steps": "2", "--buffer": "2",
                "--value-bound": "2", "--budget": "1", "--seed": "1", "--format": "lines"}
REMOVED = [
    (command, flag)
    for command in SUBCOMMAND_FLAGS
    for flag in FLAG_VALUES
    if flag not in SUBCOMMAND_FLAGS[command].split()
]


def _takes(command, flag):
    """Whether the parser accepts flag, with a valid value, under command."""
    head = ["gen", "--kind", "net"] if command == "gen" else [command, "p.tso"]
    value = {"--kind": "net", "--to": "1", "--tier": "1"}.get(flag, FLAG_VALUES.get(flag, "1"))
    try:
        tsoreach.cli._parse([*head, flag, value])
    except tsoreach.cli._ArgvError:
        return False
    return True


def test_each_subcommand_takes_exactly_its_flags():
    taken = {name: {flag for flag in tsoreach.cli._FLAGS if _takes(name, flag)}
             for name in tsoreach.cli._SUBCOMMANDS}
    assert taken == {name: set(flags.split()) for name, flags in SUBCOMMAND_FLAGS.items()}
    assert sum(map(len, taken.values())) == 42
    assert len(REMOVED) == 37  # of the 81 settings accepted before


def _readme_table(header):
    """{first cell: the flags in the second} for the README table with header."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name] = flags.strip("`")
    return rows


def test_readme_flag_tables_match_the_parser():
    assert _readme_table("| subcommand | flags |") == {
        name: flags for name, (_, flags) in tsoreach.cli._SUBCOMMANDS.items()}
    assert _readme_table("| kind | flags it reads |") == tsoreach.cli._GEN_KINDS


@pytest.mark.parametrize("command,flag", REMOVED)
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, command, flag):
    # the flag used to be accepted and silently ignored
    head = ["gen", "--kind", "net"] if command == "gen" else [
        command, _write(tmp_path, "p.tso", HANDSHAKE)]
    code, out, err = _run(capsys, *head, flag, FLAG_VALUES[flag])
    assert (code, out) == (4, "")
    assert "unrecognized arguments" in err


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # two calls with different subcommands in one process behave like two
    # fresh processes
    path = _write(tmp_path, "p.tso", HANDSHAKE)
    calls = [["check", path, "--format", "lines"],
             ["gen", "--kind", "net", "--seed", "3"]]
    src = str(Path(tsoreach.__file__).resolve().parents[1])
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "tsoreach", *argv],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        fresh.append((proc.returncode, proc.stdout))

    in_process = [_run(capsys, *argv)[:2] for argv in calls]
    assert in_process == fresh
    assert fresh[0][0] == 0 and "\ncover " in fresh[1][1]
