"""Command-line front end.

Subcommands: check (decide a program or a machine), oracle (bounded
concrete search), pivot (pivot-semantics search), translate (either
reduction), lower (tier lowerings), gen (one benchmark instance), crosscheck
(all three pipelines on one input, flagging any disagreement).  Each
subcommand, and each gen --kind, takes only the flags it reads; any other
flag is a usage error.

check decides a program with the lazy pivot search first: a closed search
is an exact unreachable, and a reached target is lifted to a run of the
translated register machine, replayed before it is printed.  When the
pivot search is inconclusive, under an explicit --backend, and on machine
inputs, check translates the program and solves the machine.

Exit codes: 0 reachable, 1 unreachable, 2 inconclusive, 3 input error,
4 usage error, 5 crosscheck disagreement, 6 internal error (a fault of the
program, such as a witness that fails its replay; no verdict is printed).
"""

from __future__ import annotations

import argparse
import random
import sys
import traceback
from dataclasses import replace

from . import dsl, gen
from .adt import AdtError
from .model import (
    ModelError,
    Program,
    lower_tier2_to_tier1,
    lower_tier3_to_tier2,
    validate_program,
)
from .pivot import parse_omega, pivot_reach
from .solvers import BACKENDS, format_rm_label, solve_auto
from .translate import (
    build_register_machine,
    build_tso_from_rm,
    encode_coverability_to_rm,
    encode_intersection,
    lift_pivot_witness,
)
from .tso import OracleBounds, bounded_reach
from .verdict import DEFAULT_BUDGET, DEFAULT_VALUE_BOUND, REACHABLE, UNREACHABLE, Verdict

EXIT_INPUT_ERROR = 3
EXIT_USAGE = 4
EXIT_DISAGREEMENT = 5
EXIT_INTERNAL = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code collides with
        self.print_usage(sys.stderr)  # the inconclusive verdict
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter,
                     argparse.RawDescriptionHelpFormatter):
    pass


class _Given(argparse.Action):
    """Stores the value and records the flag in args.given, default or not."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])


# gen --kind -> the flags it reads besides --kind and --out; intersection
# reads --fixture or --automata, not both
_GEN_KINDS = {
    "program": "--adt --seed --states --vars",
    "machine": "--adt --seed --states --regs --bound --tier",
    "counter-machine": "--seed",
    "stack-machine": "--seed --states",
    "net": "--seed",
    "intersection": "--fixture --automata",
}

# every flag with its argparse settings; a subcommand takes only the flags
# its handler reads
_FLAGS = {
    "--adt": dict(default=None, metavar="DECL",
                  help="override the declared adt, e.g. 'counter'"),
    "--backend": dict(default="auto", choices=BACKENDS,
                      help="machine backend: auto picks by data type (finite "
                           "search, post* for stacks and counters, backward "
                           "coverability for Petri machines, bounded search "
                           "for the rest); wsts runs that coverability search "
                           "on any monotone type"),
    "--n-max": dict(type=int, default=OracleBounds.n_max, help="oracle: max processes"),
    "--steps": dict(type=int, default=OracleBounds.step_max, help="oracle: max run length"),
    "--buffer": dict(type=int, default=OracleBounds.buffer_max, help="oracle: max buffer length"),
    "--value-bound": dict(type=int, default=DEFAULT_VALUE_BOUND,
                          help="data value size bound for bounded exploration"),
    "--budget": dict(type=int, default=DEFAULT_BUDGET,
                     help="max explored states before giving up"),
    "--format": dict(default="text", choices=["text", "lines"]),
    "--out": dict(default=None, help="write the report/output here"),
    "--reverse": dict(action="store_true",
                      help="machine -> TSO program instead of program -> machine"),
    "--to": dict(type=int, default=1, choices=[1, 2]),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--kind": dict(required=True, choices=list(_GEN_KINDS)),
    "--states": dict(type=int, default=4, help="control states"),
    "--vars": dict(type=int, default=2, help="shared variables"),
    "--regs": dict(type=int, default=2, help="registers"),
    "--bound": dict(type=int, default=1, help="register value bound"),
    "--tier": dict(type=int, default=1, choices=[1, 2, 3], help="highest action tier"),
    "--fixture": dict(type=int, default=0,
                      help="intersection: use built-in fixture 0..5"),
    "--automata": dict(default=None,
                       help="intersection: read pda/fsa sections from this file"),
}

# subcommand -> (help, flags), in the order help lists them; every
# subcommand but gen reads one input file
_SUBCOMMANDS = {
    "check": ("decide reachability: pivot search first on a program, else "
              "translate to a register machine and solve it (post* decides "
              "counters and stacks)",
              "--adt --backend --value-bound --budget --format --out"),
    "oracle": ("bounded concrete-semantics search",
               "--adt --n-max --steps --buffer --value-bound --format --out"),
    "pivot": ("pivot-semantics search",
              "--adt --value-bound --budget --format --out"),
    "translate": ("emit the translated model", "--adt --out --reverse"),
    "lower": ("lower machine instruction tiers", "--adt --out --to"),
    "gen": ("emit one benchmark instance",
            "--adt --seed --out --kind --states --vars --regs --bound --tier "
            "--fixture --automata"),
    "crosscheck": ("run oracle, pivot and check; fail on disagreement",
                   "--adt --backend --n-max --steps --buffer --value-bound "
                   "--budget --out"),
}

# (flag, least value) in the order they are checked, each only where the
# subcommand takes it
_LEAST = (("--n-max", 1), ("--steps", 1), ("--buffer", 1), ("--budget", 1),
          ("--states", 1), ("--vars", 1), ("--value-bound", 0), ("--regs", 0), ("--bound", 0))


def _build_parser() -> _Parser:
    p = _Parser(prog="tsoreach", description=__doc__,
                formatter_class=_HelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True,
                           parser_class=_Parser)
    for name, (help_, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_, formatter_class=_HelpFormatter)
        if name != "gen":
            sp.add_argument("input", help="input file (DSL text)")
        given = {"action": _Given} if name == "gen" else {}
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag], **given)
    return p


def _check_ranges(args) -> None:
    for flag, least in _LEAST:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and value < least:
            rule = "positive" if least else ">= 0"
            print(f"error: {flag} must be {rule}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)


# what a bad input file raises while it is read, parsed or translated
_INPUT_ERRORS = (dsl.DslError, AdtError, ModelError, OSError, UnicodeDecodeError)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(args):
    """Returns ('program', Program) | ('machine', rm) | ('cover', rm)."""
    try:
        text = _read(args.input)
        kind_line = next(
            (ln.split()[0] for _, ln in dsl._lines(text)
             if ln.split()[0] in ("process", "machine", "cover")),
            None,
        )
        if kind_line == "cover":
            if args.adt is not None:
                raise dsl.DslError("--adt does not apply to a cover file")
            inst = dsl.parse_coverability(text)
            return "cover", encode_coverability_to_rm(inst)
        obj = dsl.parse_input(text)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)
    if args.adt is not None:
        try:
            new_adt = dsl.parse_adt_line(args.adt, None)
            if isinstance(obj, Program):
                validate_program(obj.mem, new_adt, obj.proc)
            obj = replace(obj, adt=new_adt)
        except (dsl.DslError, AdtError, ModelError) as e:
            print(f"error: {e}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT_ERROR)
    return ("program" if isinstance(obj, Program) else "machine"), obj


def _report(v: Verdict, args) -> int:
    _emit(v.report(args.format), args.out)
    return v.exit_code()


def _pivot(prog, args) -> Verdict:
    return pivot_reach(prog.proc, prog.mem, prog.adt,
                       value_bound=args.value_bound, budget=args.budget)


def _oracle(prog, args) -> Verdict:
    bounds = OracleBounds(n_max=args.n_max, step_max=args.steps,
                          buffer_max=args.buffer, adt_size_max=args.value_bound)
    return bounded_reach(prog.proc, prog.mem, prog.adt, bounds)


def _solve_rm(rm, args) -> Verdict:
    return solve_auto(rm, backend=args.backend,
                      value_bound=args.value_bound, budget=args.budget)


def _rm_route(prog, args) -> Verdict:
    """Translate the program and solve the register machine."""
    return _solve_rm(build_register_machine(prog.proc, prog.mem, prog.adt), args)


def _check_program(prog, args) -> Verdict:
    """The pivot search, with the machine route when it is inconclusive.

    The verdict keeps the pivot search's stats; a reachable one carries the
    pivot run lifted to the translated machine, in the machine route's
    witness form.
    """
    v = _pivot(prog, args)
    if v.outcome == UNREACHABLE:
        return v
    rm = build_register_machine(prog.proc, prog.mem, prog.adt)
    if v.outcome == REACHABLE:
        run = lift_pivot_witness(rm, parse_omega(v.witness[0]), value_bound=args.value_bound)
        return replace(v, witness=tuple(format_rm_label(e) for e in run))
    return _solve_rm(rm, args)


def _need_program(kind, obj, what: str):
    if kind != "program":
        print(f"error: {what} needs a program input", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)
    return obj


def cmd_check(args) -> int:
    kind, obj = _load(args)
    if kind != "program":
        v = _solve_rm(obj, args)
    elif args.backend == "auto":
        v = _check_program(obj, args)
    else:
        v = _rm_route(obj, args)
    return _report(v, args)


def cmd_oracle(args) -> int:
    prog = _need_program(*_load(args), "oracle")
    return _report(_oracle(prog, args), args)


def cmd_pivot(args) -> int:
    prog = _need_program(*_load(args), "pivot")
    return _report(_pivot(prog, args), args)


def cmd_translate(args) -> int:
    kind, obj = _load(args)
    if args.reverse:
        if kind == "program":
            print("error: --reverse needs a machine input", file=sys.stderr)
            return EXIT_INPUT_ERROR
        text = dsl.print_program(build_tso_from_rm(obj))
    else:
        prog = _need_program(kind, obj, "translate")
        text = dsl.print_machine(build_register_machine(prog.proc, prog.mem, prog.adt))
    _emit(text, args.out)
    return 0


def cmd_lower(args) -> int:
    kind, obj = _load(args)
    if kind == "program":
        print("error: lower needs a machine input", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rm = lower_tier3_to_tier2(obj)
    if args.to == 1:
        rm = lower_tier2_to_tier1(rm)
    _emit(dsl.print_machine(rm), args.out)
    return 0


def cmd_gen(args) -> int:
    reads = ("--kind", "--out", *_GEN_KINDS[args.kind].split())
    stray = [flag for flag in args.given if flag not in reads]
    if stray:
        print(f"error: {stray[0]} does not apply to --kind {args.kind}", file=sys.stderr)
        return EXIT_USAGE
    if "--fixture" in args.given and "--automata" in args.given:
        print("error: --fixture and --automata exclude each other", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    adt = dsl.parse_adt_line(args.adt, None) if args.adt else None
    op_weight = 40 if adt and adt.kind != "trivial" else 0
    if args.kind == "program":
        text = dsl.print_program(Program(*gen.random_program(
            rng, n_states=args.states, n_vars=args.vars, adt=adt, op_weight=op_weight)))
    elif args.kind == "machine":
        text = dsl.print_machine(gen.random_machine(
            rng, n_states=args.states, n_regs=args.regs, bound=args.bound,
            adt=adt, tier=args.tier, op_weight=op_weight))
    elif args.kind == "counter-machine":
        text = dsl.print_machine(gen.random_counter_machine(rng))
    elif args.kind == "stack-machine":
        text = dsl.print_machine(gen.random_stack_machine(rng, args.states))
    elif args.kind == "net":
        text = dsl.print_coverability(gen.random_net(rng))
    elif args.automata:
        pdas, fsas = dsl.parse_automata(_read(args.automata))
        if len(pdas) != 1:
            raise dsl.DslError("need exactly one pda section")
        text = dsl.print_machine(encode_intersection(pdas[0], tuple(fsas)))
    else:
        fixtures = gen.intersection_fixtures()
        if not 0 <= args.fixture < len(fixtures):
            print(f"error: --fixture must be in 0..{len(fixtures) - 1}", file=sys.stderr)
            return EXIT_USAGE
        _, pda, fsas, _ = fixtures[args.fixture]
        text = dsl.print_machine(encode_intersection(pda, fsas))
    _emit(text, args.out)
    return 0


def cmd_crosscheck(args) -> int:
    prog = _need_program(*_load(args), "crosscheck")
    oracle_v = _oracle(prog, args)
    pivot_v = _pivot(prog, args)
    check_v = _rm_route(prog, args)  # independent of the pivot search above

    problems = []
    if oracle_v.outcome == "reachable":
        for name, v in (("pivot", pivot_v), ("check", check_v)):
            if v.outcome == "unreachable":
                problems.append(f"oracle found a witness but {name} says unreachable")
    if pivot_v.conclusive and check_v.conclusive and pivot_v.outcome != check_v.outcome:
        problems.append(
            f"pivot says {pivot_v.outcome} but check says {check_v.outcome}"
        )
    lines = [
        f"oracle: {oracle_v.outcome}",
        f"pivot: {pivot_v.outcome}",
        f"check: {check_v.outcome}",
    ]
    for prob in problems:
        lines.append(f"disagreement: {prob}")
    _emit("\n".join(lines) + "\n", args.out)
    if problems:
        return EXIT_DISAGREEMENT
    return check_v.exit_code()


_HANDLERS = {
    "check": cmd_check,
    "oracle": cmd_oracle,
    "pivot": cmd_pivot,
    "translate": cmd_translate,
    "lower": cmd_lower,
    "gen": cmd_gen,
    "crosscheck": cmd_crosscheck,
}


# built by the first main call of a process and reused by every later one;
# importing the module builds nothing
_PARSER: _Parser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    _check_ranges(args)
    try:
        return _HANDLERS[args.subcommand](args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as e:  # a fault of the program must not look like a verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
