"""No file and no argv makes the command line crash or exit with a code it
does not document.

Seeded mutations of ``gen`` output (programs over several data types,
machines of tiers 1-3, stack machines, counter machines and nets), and a
smaller campaign over mutations of the malformed-input corpus, run under
every file subcommand with small limits: ``check`` under each
``--backend``, ``pivot``, ``oracle``, ``crosscheck``, ``translate`` and
``lower``.  The argv that ``test_cli_argv``'s campaign draws and
``cli._parse`` accepts run through ``cli.main`` on a small program.  Every
exit is one of 0-4, 5 only from ``crosscheck``, and never 6, an internal
error.  A mutant that the reference reader ``helpers.parse_input_reference``
rejects exits 3 under every file subcommand: it never gets a verdict.  The
two campaigns are also crossed: accepted argv of the file subcommands run
on such mutants and exit 3, or 4 when a limit is out of range.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter

from helpers import parse_input_reference
from test_cli_argv import random_argv
from test_dsl_scan import CORPUS, mutate
from tsoreach import cli
from tsoreach.solvers import BACKENDS

PETRI = "petri places p,q transitions t: p -> q ; u: q -> p initial p"
SOURCES = [
    *(["--kind", "program", "--adt", adt]
      for adt in ("trivial", "counter", "weakcounter", "stack alphabet a,b", PETRI)),
    *(["--kind", "machine", "--tier", tier] for tier in ("1", "2", "3")),
    ["--kind", "stack-machine"], ["--kind", "counter-machine"], ["--kind", "net"],
]

LIMITS = ["--budget", "300", "--value-bound", "3"]
ORACLE = ["--n-max", "2", "--steps", "8", "--buffer", "2"]
COMMANDS = [
    *(["check", *LIMITS, "--backend", backend] for backend in BACKENDS),
    ["pivot", *LIMITS], ["oracle", *ORACLE, "--value-bound", "3"],
    ["crosscheck", *LIMITS, *ORACLE], ["translate"], ["lower"],
]

# reachable at once: every search of every subcommand stops within a few
# states, whatever limits an argv sets
PROGRAM = """\
memory vars x domain 0..1
process P
state q0 init
state qf target
trans q0 -> qf : wr x 1
trans q0 -> q0 : rd x 0
"""

def _main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _documented(code: int, command: str) -> bool:
    return code in (0, 1, 2, 3, cli.EXIT_USAGE) or (
        code == cli.EXIT_DISAGREEMENT and command == "crosscheck")


def _rejected(path) -> bool:
    """Whether the reference reader rejects the file."""
    try:  # the text as the command line reads it, line ends translated
        parse_input_reference(path.read_text(encoding="utf-8"))
    except ValueError:  # DslError, AdtError, ModelError, or an oversized int
        return True
    return False


def _campaign(path, bases, rng, mutants):
    """Run mutants of bases under every command; return the exit codes
    counted, how many runs had a mutant the reference reader rejects, and
    the runs that exit undocumented or, on such a mutant, other than 3."""
    codes, rejected, bad = Counter(), 0, []
    for k in range(mutants):
        text = mutate(rng, rng.choice(bases))
        path.write_text(text, encoding="utf-8")
        valid = not _rejected(path)
        for command, *flags in COMMANDS:
            code = _main([command, str(path), *flags])
            codes[code] += 1
            rejected += not valid
            if not _documented(code, command) or (not valid and code != cli.EXIT_INPUT_ERROR):
                bad.append(f"mutant {k} {command} {flags}: exit {code}: {text!r}")
    return codes, rejected, bad


def test_mutated_files_exit_with_documented_codes(tmp_path):
    bases = []
    for source in SOURCES:
        for seed in ("0", "1"):
            out = tmp_path / "base.tso"
            assert _main(["gen", *source, "--seed", seed, "--out", str(out)]) == 0
            bases.append(out.read_text(encoding="utf-8"))
    codes, rejected, bad = _campaign(tmp_path / "mutant.tso", bases, random.Random(29), 400)
    assert bad == []
    assert codes[0] + codes[1] > 500 and codes[2] > 150 and codes[3] > 1000, codes
    assert rejected > 2000, rejected


def test_mutated_corpus_files_exit_with_documented_codes(tmp_path):
    bases = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.tso"))]
    codes, rejected, bad = _campaign(tmp_path / "mutant.tso", bases, random.Random(31), 300)
    assert bad == []
    assert rejected > 3000, (codes, rejected)


def test_accepted_campaign_argv_exit_with_documented_codes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the campaign's input is p.tso and its --out values are names
    rng = random.Random(29)
    codes, bad = Counter(), []
    for k in range(2000):
        argv = random_argv(rng)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                args = cli._parse(argv)
            except (cli._ArgvError, SystemExit):  # rejected, or -h
                continue
        if args.subcommand == "gen" and max(args.states, args.vars, args.regs, args.bound) > 50:
            continue  # a gen of a million states only takes long
        # an earlier argv may have written its output to p.tso
        (tmp_path / "p.tso").write_text(PROGRAM, encoding="utf-8")
        code = _main(argv)
        codes[code] += 1
        if not _documented(code, args.subcommand):
            bad.append(f"argv {k}: {argv!r}: exit {code}")
    assert bad == []
    assert sum(codes.values()) > 400 and codes[0] > 100 and codes[3] > 20, codes


def test_accepted_argv_on_rejected_mutants_exit_3_or_4(tmp_path, monkeypatch):
    # the two campaigns crossed: each accepted argv of a file subcommand
    # runs on a fresh mutant that the reference reader rejects, so no
    # search runs; it exits 4 when a limit is out of range, else 3, and
    # never prints a verdict
    monkeypatch.chdir(tmp_path)
    bases = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.tso"))]
    path = tmp_path / "p.tso"
    rng = random.Random(37)
    codes, bad = Counter(), []
    while sum(codes.values()) < 300:
        argv = random_argv(rng)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                args = cli._parse(argv)
            except (cli._ArgvError, SystemExit):  # rejected, or -h
                continue
        if args.subcommand == "gen" or args.input != path.name:
            continue
        try:
            cli._check_ranges(args)
            want = cli.EXIT_INPUT_ERROR
        except cli._UsageError:
            want = cli.EXIT_USAGE
        while True:
            text = mutate(rng, rng.choice(bases))
            path.write_text(text, encoding="utf-8")
            if _rejected(path):
                break
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        codes[code] += 1
        if code != want or out.getvalue():
            bad.append(f"{argv!r} on {text!r}: exit {code}, stdout {out.getvalue()!r}")
    assert bad == []
    assert codes[cli.EXIT_INPUT_ERROR] > 150 and codes[cli.EXIT_USAGE] > 10, codes
