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
"""

from __future__ import annotations

import random
import re
import sys
import traceback
from dataclasses import replace
from types import SimpleNamespace

from . import dsl, gen
from .adt import AdtError
from .automata import CoverabilityInstance
from .model import ModelError, Program, lower_tier2_to_tier1, lower_tier3_to_tier2
from .pivot import parse_omega, pivot_reach, pivot_search
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


class _UsageError(Exception):
    """A flag value or combination that the command does not accept."""


class _ArgvError(_UsageError):
    """An argv the parser of sub rejects, None for the top level."""

    def __init__(self, sub: str | None, message: str):
        super().__init__(message)
        self.sub = sub


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


# the option strings of each parser, None for the top level, in the order
# an ambiguous prefix lists its matches
_HELP = ("-h", "--help")
_OPTIONS = {None: _HELP, **{name: _HELP + tuple(flags.split())
                            for name, (_, flags) in _SUBCOMMANDS.items()}}
# a negative number is a value, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")
_WIDTH = 79  # columns of the help text


def _prog(sub: str | None) -> str:
    return "tsoreach" if sub is None else f"tsoreach {sub}"


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _option(arg: str, sub: str | None):
    """None when arg is a value; else (option, the text after '=' or after
    '-h', or None), with option None for one the parser does not take.

    A long option may be given by a unique prefix; a prefix of several is a
    usage error.  A negative number, or an arg with a space that names no
    option, is a value.
    """
    options = _OPTIONS[sub]
    if not arg.startswith("-"):
        return None
    if arg in options:
        return arg, None
    if len(arg) == 1:
        return None
    name, eq, value = arg.partition("=")
    if eq and name in options:
        return name, value
    if arg[1] == "-":
        matches = [(o, value if eq else None) for o in options if o.startswith(name)]
    else:
        matches = [(o, arg[2:]) for o in options if o == arg[:2]]
    if len(matches) > 1:
        raise _ArgvError(sub, f"ambiguous option: {arg} could match "
                              f"{', '.join(o for o, _ in matches)}")
    if matches:
        return matches[0]
    return None if _NEGATIVE.match(arg) or " " in arg else (None, None)


def _print_help(sub: str | None, option: str, value: str | None):
    """Print the help of sub's parser and exit 0; '-hh' is -h twice, and
    any other value given to -h or --help is a usage error."""
    while value is not None:
        if option == "--help" or value[:1] != "h":
            raise _ArgvError(sub, f"argument -h/--help: ignored explicit argument {value!r}")
        value = value[1:] or None
    print(_help_text(sub))
    raise SystemExit(0)


def _value(sub: str, flag: str, text: str):
    spec = _FLAGS[flag]
    value = text
    if "type" in spec:
        try:
            value = spec["type"](text)
        except ValueError:
            raise _ArgvError(sub, f"argument {flag}: invalid int value: {text!r}") from None
    choices = spec.get("choices")
    if choices is not None and value not in choices:
        raise _ArgvError(sub, f"argument {flag}: invalid choice: {value!r} "
                              f"(choose from {', '.join(map(repr, choices))})")
    return value


def _parse_sub(sub: str, argv: list[str]):
    """The attributes sub's argv sets and the args it leaves unread.

    The input is the first value no flag takes; one '--' before or after
    it is dropped, and every arg after the first '--' is a value.  A flag
    given twice keeps its last value; gen records each flag it is given.
    """
    readings = []  # per arg: _option's reading, or "--" for the first '--'
    for k, arg in enumerate(argv):
        if arg == "--":
            readings += ["--"] + [None] * (len(argv) - k - 1)
            break
        readings.append(_option(arg, sub))
    flags = _SUBCOMMANDS[sub][1].split()
    attrs = {"subcommand": sub, **{_dest(f): _FLAGS[f].get("default") for f in flags}}
    need_input = sub != "gen"
    given, unread = [], []
    i, n = 0, len(argv)
    while i < n:
        reading = readings[i]
        if isinstance(reading, tuple):
            option, value = reading
            i += 1
            if option is None:
                unread.append(argv[i - 1])
                continue
            if option in _HELP:
                _print_help(sub, option, value)
            if value is None:
                if i == n or readings[i] is not None:
                    raise _ArgvError(sub, f"argument {option}: expected one argument")
                value = argv[i]
                i += 1
            attrs[_dest(option)] = _value(sub, option, value)
            given.append(option)
        elif need_input and (j := i + (reading == "--")) < n:
            attrs["input"] = argv[j]
            need_input = False
            i = j + 1 + (j + 1 < n and readings[j + 1] == "--")
        else:
            unread.append(argv[i])
            i += 1
    if need_input:
        raise _ArgvError(sub, "the following arguments are required: input")
    if sub == "gen":
        if "--kind" not in given:
            raise _ArgvError(sub, "the following arguments are required: --kind")
        attrs["given"] = tuple(given)
    return attrs, unread


def _parse(argv: list[str]) -> SimpleNamespace:
    """The subcommand, its input and its flags' values, each flag's default
    when it is not given, read from argv by _SUBCOMMANDS and _FLAGS.

    Before the subcommand only -h is taken.  A rejected argv raises
    _ArgvError; -h or --help prints the help of the parser that reads it
    and raises SystemExit(0).  The tests check this reading against the
    reference parser in tests/helpers.py.
    """
    i, unread = 0, []
    while i < len(argv) and argv[i] != "--" and (reading := _option(argv[i], None)):
        if reading[0] is not None:
            _print_help(None, *reading)
        unread.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        raise _ArgvError(None, "the following arguments are required: subcommand")
    sub = argv[i]
    if sub not in _SUBCOMMANDS:
        raise _ArgvError(None, f"argument subcommand: invalid choice: {sub!r} "
                               f"(choose from {', '.join(map(repr, _SUBCOMMANDS))})")
    attrs, sub_unread = _parse_sub(sub, argv[i + 1:])
    unread += sub_unread
    if unread:
        raise _ArgvError(None, f"unrecognized arguments: {' '.join(unread)}")
    return SimpleNamespace(**attrs)


def _wrap(first: str, words, indent: int) -> str:
    """first followed by words, wrapped at _WIDTH columns; each later line
    starts with indent spaces."""
    lines = [[]]
    room = _WIDTH - len(first) + 1
    for word in words:
        if lines[-1] and len(word) + 1 > room:
            lines.append([])
            room = _WIDTH - indent + 1
        lines[-1].append(word)
        room -= len(word) + 1
    return "\n".join([first + " ".join(lines[0])]
                     + [" " * indent + " ".join(line) for line in lines[1:]])


def _entry(head: str, text: str) -> str:
    """A help entry: head from column 2, text wrapped from column 24."""
    if len(head) > 20:
        return f"  {head}\n" + _wrap(" " * 24, text.split(), 24)
    return _wrap(f"  {head:<22}", text.split(), 24)


def _flag_usage(flag: str) -> str:
    spec = _FLAGS[flag]
    choices = spec.get("choices")
    metavar = spec.get("metavar") or (
        "{" + ",".join(map(str, choices)) + "}" if choices else _dest(flag).upper())
    return f"{flag} {metavar}"


def _usage(sub: str | None) -> str:
    if sub is None:
        parts = ["[-h]", "{" + ",".join(_SUBCOMMANDS) + "}", "..."]
    else:
        parts = ["[-h]"]
        for flag in _SUBCOMMANDS[sub][1].split():
            usage = _flag_usage(flag)
            parts.append(usage if _FLAGS[flag].get("required") else f"[{usage}]")
        parts += [] if sub == "gen" else ["input"]
    first = f"usage: {_prog(sub)} "
    return _wrap(first, parts, len(first))


def _help_text(sub: str | None) -> str:
    """The help of sub's parser, None for the top level: usage, what it
    does, then every option with its default."""
    if sub is None:
        what = __doc__.strip()
        args = [_entry(name, help_) for name, (help_, _) in _SUBCOMMANDS.items()]
        title = "subcommands"
    else:
        what = _wrap("", _SUBCOMMANDS[sub][0].split(), 0)
        args = [] if sub == "gen" else [_entry("input", "input file (DSL text)")]
        title = "positional arguments"
    options = [_entry("-h, --help", "show this help message and exit")]
    for flag in _OPTIONS[sub][2:]:
        spec = _FLAGS[flag]
        text = spec.get("help", "")
        text += " (required)" if spec.get("required") else f" (default: {spec['default']})"
        options.append(_entry(_flag_usage(flag), text))
    args = [f"{title}:", *args, ""] if args else []
    return "\n".join([_usage(sub), "", what, "", *args, "options:", *options])


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

    The verdict keeps the pivot search's stats; a reachable one carries the
    search path lifted to the translated machine, in the machine route's
    witness form, built without translating the whole program.  The lift's
    walk replays that witness, so the pivot witness is not replayed too.
    """
    v = pivot_search(prog.proc, prog.mem, prog.adt,
                     value_bound=args.value_bound, budget=args.budget)
    if v.outcome == UNREACHABLE:
        return v
    if v.outcome == REACHABLE:
        run = lift_pivot_witness(prog.proc, prog.mem, prog.adt, parse_omega(v.witness[0]), v.run)
        return replace(v, witness=tuple(format_rm_label(e) for e in run))
    return _rm_route(prog, args)


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
        print(_usage(e.sub), f"{_prog(e.sub)}: error: {e}", sep="\n", file=sys.stderr)
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
