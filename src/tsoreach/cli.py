"""Command-line front end.

Subcommands: check (decide a program or a machine), oracle (bounded
concrete search), pivot (pivot-semantics search), translate (a program to
a register machine, a machine or a cover file to a TSO program), lower
(tier lowerings), gen (one benchmark instance), crosscheck (all three
pipelines on one input, flagging any disagreement).  Each subcommand, and
each gen --kind, takes only the flags it reads; any other flag is a usage
error.

check decides a program with the lazy pivot search first: a closed search
is an exact unreachable, and the search path to a reached target is lifted
to a run of the translated register machine, whose walk replays it before
it is printed.  When the pivot search is inconclusive, under an explicit
--backend, and on machine inputs, check translates the program and solves
the machine.

Exit codes: 0 reachable, 1 unreachable, 2 inconclusive, 3 input error,
4 usage error, 5 crosscheck disagreement, 6 internal error (a fault of the
program, such as a witness that fails its replay; no verdict is printed).
main reports every input and usage error as one 'error: ...' line; an
argv the parser rejects gets the usage line first, and its error line names
the parser that rejects it ('tsoreach: error: ...').

An argv of the subcommand, its input and its own flags by full name, each
with a valid value, is read without argparse.  argparse reads every other
argv: -h, unique prefixes of a flag, '--', negative values and every usage
error.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import replace
from types import SimpleNamespace

from . import dsl, gen
from .adt import AdtError
from .automata import CoverabilityInstance
from .model import ModelError, Program, lower_tier2_to_tier1, lower_tier3_to_tier2
from .pivot import pivot_reach, pivot_search
from .solvers import BACKENDS, format_rm_label, solve_auto
from .translate import (
    build_register_machine,
    build_tso_from_rm,
    encode_coverability_to_rm,
    encode_intersection,
    lift_pivot_witness,
)
from .tso import OracleBounds, bounded_reach
from .verdict import CLOSED, DEFAULT_BUDGET, DEFAULT_VALUE_BOUND, REACHED, Verdict, conclude

EXIT_INPUT_ERROR = 3
EXIT_USAGE = 4
EXIT_DISAGREEMENT = 5
EXIT_INTERNAL = 6


class _UsageError(Exception):
    """A flag value or combination that the command does not accept."""


class _ArgvError(_UsageError):
    """An argv the parser rejects: its usage line and its error line."""


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

# every flag: its value's type and choices, its default or that it is
# required, and its help; a subcommand takes only the flags its handler reads
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
    "--format": dict(default="text", choices=["text", "lines"],
                     help="lines: one 'key: value' per line, no timing"),
    "--out": dict(default=None, help="write the report/output here"),
    "--to": dict(type=int, default=1, choices=[1, 2], help="tier to lower to"),
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
    "translate": ("emit the translated model: a program as a register machine, "
                  "a machine or a cover file as a TSO program", "--adt --out"),
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


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """argv as argparse reads it when argv is the subcommand, its input
    (gen has none) and its own flags by full name, each with a valid value
    joined by '=' or in the next arg, which does not start with '-'; None
    for any other argv.

    A flag given twice keeps its last value; gen records each flag it is
    given, and needs --kind.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    sub = argv[0]
    flags = _SUBCOMMANDS[sub][1].split()
    attrs = {"subcommand": sub, **{_dest(f): _FLAGS[f].get("default") for f in flags}}
    given, inputs = [], []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            inputs.append(arg)
            continue
        flag, eq, text = arg.partition("=")
        if flag not in flags:
            return None
        if not eq:
            text = next(rest, "-")
            if text.startswith("-"):
                return None
        spec = _FLAGS[flag]
        try:
            value = spec["type"](text) if "type" in spec else text
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        attrs[_dest(flag)] = value
        given.append(flag)
    if sub == "gen" and not inputs and "--kind" in given:
        attrs["given"] = tuple(given)
    elif sub != "gen" and len(inputs) == 1:
        attrs["input"] = inputs[0]
    else:
        return None
    return SimpleNamespace(**attrs)


_ARGPARSE = None  # built for the first argv _parse_exact does not read


def _argparse():
    """The argparse parser of _SUBCOMMANDS and _FLAGS: one subparser per
    subcommand, gen recording each flag it is given in args.given.

    A rejected argv raises _ArgvError with the usage and error lines; -h
    prints the help, with every flag's default, and exits 0.
    """
    global _ARGPARSE
    if _ARGPARSE is not None:
        return _ARGPARSE
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse's own exit 2 is the inconclusive verdict
            raise _ArgvError(f"{self.format_usage()}{self.prog}: error: {message}")

        def _get_values(self, action, arg_strings):
            # '--flag=--' gives the flag the value '--'; argparse before 3.13
            # drops that '--' as the end of the options and stores an empty list
            values = super()._get_values(action, list(arg_strings))
            if action.option_strings and values == []:
                return super()._get_values(action, ["--", *arg_strings])
            return values

    class Given(argparse.Action):
        """Stores the value and records the flag in args.given."""

        def __call__(self, parser, namespace, values, option_string=None):
            setattr(namespace, self.dest, values)
            namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])

    p = Parser(prog="tsoreach", description=__doc__,
               formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True, parser_class=Parser)
    for name, (help_, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_,
                            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        if name != "gen":
            sp.add_argument("input", help="input file (DSL text)")
        given = {"action": Given} if name == "gen" else {}
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag], **given)
    _ARGPARSE = p
    return p


def _parse(argv: list[str]):
    """The subcommand, its input and its flags' values, each flag's default
    when it is not given; argparse reads what _parse_exact does not."""
    args = _parse_exact(argv)
    return args if args is not None else _argparse().parse_args(argv)


def _check_ranges(args) -> None:
    for flag, least in _LEAST:
        value = getattr(args, _dest(flag), None)
        if value is not None and value < least:
            raise _UsageError(f"{flag} must be {'positive' if least else '>= 0'}")


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
    """The input file as a Program or a RegisterMachine, under --adt when
    given; a cover file comes back as its coverability machine."""
    obj = dsl.parse_input(_read(args.input))
    if isinstance(obj, CoverabilityInstance):
        if args.adt is not None:
            raise dsl.DslError("--adt does not apply to a cover file")
        return encode_coverability_to_rm(obj)
    if args.adt is not None:
        obj = replace(obj, adt=dsl.parse_adt_line(args.adt, None))
    return obj


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

    A verdict the pivot search decides keeps its stats, and one from the
    machine route carries the machine's; a reachable pivot verdict carries
    the search's final prefix and path lifted to the translated machine, in
    the machine route's witness form, built without translating the whole
    program.  The lift's walk replays that witness, so no pivot witness is
    printed or replayed.
    """
    r, stats = pivot_search(prog.proc, prog.mem, prog.adt,
                            value_bound=args.value_bound, budget=args.budget)
    if r.outcome == REACHED:
        run = lift_pivot_witness(prog.proc, prog.mem, prog.adt, r.final.prefix, r.path)
        return conclude(REACHED, stats, tuple(map(format_rm_label, run)))
    return conclude(CLOSED, stats) if r.outcome == CLOSED else _rm_route(prog, args)


def _need_program(obj, what: str) -> Program:
    if not isinstance(obj, Program):
        raise ModelError(f"{what} needs a program input")
    return obj


def cmd_check(args) -> int:
    obj = _load(args)
    if not isinstance(obj, Program):
        v = _solve_rm(obj, args)
    elif args.backend == "auto":
        v = _check_program(obj, args)
    else:
        v = _rm_route(obj, args)
    return _report(v, args)


def cmd_oracle(args) -> int:
    prog = _need_program(_load(args), "oracle")
    return _report(_oracle(prog, args), args)


def cmd_pivot(args) -> int:
    prog = _need_program(_load(args), "pivot")
    return _report(_pivot(prog, args), args)


def cmd_translate(args) -> int:
    obj = _load(args)
    if isinstance(obj, Program):
        text = dsl.print_machine(build_register_machine(obj.proc, obj.mem, obj.adt))
    else:
        text = dsl.print_program(build_tso_from_rm(obj))
    _emit(text, args.out)
    return 0


def cmd_lower(args) -> int:
    obj = _load(args)
    if isinstance(obj, Program):
        raise ModelError("lower needs a machine input")
    rm = lower_tier3_to_tier2(obj)
    if args.to == 1:
        rm = lower_tier2_to_tier1(rm)
    _emit(dsl.print_machine(rm), args.out)
    return 0


def cmd_gen(args) -> int:
    reads = ("--kind", "--out", *_GEN_KINDS[args.kind].split())
    stray = [flag for flag in args.given if flag not in reads]
    if stray:
        raise _UsageError(f"{stray[0]} does not apply to --kind {args.kind}")
    if "--fixture" in args.given and "--automata" in args.given:
        raise _UsageError("--fixture and --automata exclude each other")
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
            raise _UsageError(f"--fixture must be in 0..{len(fixtures) - 1}")
        _, pda, fsas, _ = fixtures[args.fixture]
        text = dsl.print_machine(encode_intersection(pda, fsas))
    _emit(text, args.out)
    return 0


def cmd_crosscheck(args) -> int:
    prog = _need_program(_load(args), "crosscheck")
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


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        _check_ranges(args)
        return _HANDLERS[args.subcommand](args)
    except _ArgvError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as e:  # a fault of the program must not look like a verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
