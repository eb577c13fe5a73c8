"""Command-line front end.

Subcommands: check (decide a program or a machine), oracle (bounded
concrete search), pivot (pivot-semantics search), translate (either
reduction), lower (tier lowerings), gen (benchmark instances), crosscheck
(all three pipelines on one input, flagging any disagreement).

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
from dataclasses import dataclass, replace

from . import dsl, gen
from .adt import AdtError
from .model import ModelError, lower_tier2_to_tier1, lower_tier3_to_tier2
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
from .verdict import REACHABLE, UNREACHABLE, Verdict

EXIT_INPUT_ERROR = 3
EXIT_USAGE = 4
EXIT_DISAGREEMENT = 5
EXIT_INTERNAL = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code collides with
        self.print_usage(sys.stderr)  # the inconclusive verdict
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs shared by every subcommand."""

    subcommand: str
    input: str | None
    adt_override: str | None
    n_max: int
    step_max: int
    buffer_max: int
    value_bound: int
    budget: int
    backend: str
    seed: int
    out_format: str
    out: str | None

    @staticmethod
    def from_args(args) -> "RunConfig":
        cfg = RunConfig(
            subcommand=args.subcommand,
            input=getattr(args, "input", None),
            adt_override=args.adt,
            n_max=args.n_max,
            step_max=args.steps,
            buffer_max=args.buffer,
            value_bound=args.value_bound,
            budget=args.budget,
            backend=args.backend,
            seed=args.seed,
            out_format=args.out_format,
            out=args.out,
        )
        positives = {
            "--n-max": cfg.n_max,
            "--steps": cfg.step_max,
            "--buffer": cfg.buffer_max,
            "--budget": cfg.budget,
        }
        non_negatives = {"--value-bound": cfg.value_bound}
        if cfg.subcommand == "gen":
            positives.update({"--count": args.count, "--states": args.states,
                              "--vars": args.vars})
            non_negatives.update({"--regs": args.regs, "--bound": args.bound})
        for flag, value in positives.items():
            if value < 1:
                print(f"error: {flag} must be positive", file=sys.stderr)
                raise SystemExit(EXIT_USAGE)
        for flag, value in non_negatives.items():
            if value < 0:
                print(f"error: {flag} must be >= 0", file=sys.stderr)
                raise SystemExit(EXIT_USAGE)
        return cfg


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter,
                     argparse.RawDescriptionHelpFormatter):
    pass


def _build_parser() -> _Parser:
    p = _Parser(prog="tsoreach", description=__doc__,
                formatter_class=_HelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True,
                           parser_class=_Parser)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("input", help="input file (DSL text)")
        sp.add_argument("--adt", default=None, metavar="DECL",
                        help="override the declared adt, e.g. 'counter'")
        sp.add_argument("--backend", default="auto", choices=BACKENDS,
                        help="machine backend: auto picks by data type (finite "
                             "search, pre* for stacks and counters, backward "
                             "coverability for Petri machines, bounded search "
                             "for the rest); wsts runs that coverability search "
                             "on any monotone type")
        sp.add_argument("--n-max", type=int, default=3, help="oracle: max processes")
        sp.add_argument("--steps", type=int, default=12, help="oracle: max run length")
        sp.add_argument("--buffer", type=int, default=4, help="oracle: max buffer length")
        sp.add_argument("--value-bound", type=int, default=8,
                        help="data value size bound for bounded exploration")
        sp.add_argument("--budget", type=int, default=1_000_000,
                        help="max explored states before giving up")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", dest="out_format", default="text",
                        choices=["text", "lines"])
        sp.add_argument("--out", default=None, help="write the report/output here")

    def cmd(name, help_):
        return sub.add_parser(name, help=help_, formatter_class=_HelpFormatter)

    common(cmd("check", "decide reachability: pivot search first on a program, "
                        "else translate to a register machine and solve it "
                        "(pre* decides counters and stacks)"))
    common(cmd("oracle", "bounded concrete-semantics search"))
    common(cmd("pivot", "pivot-semantics search"))
    tr = cmd("translate", "emit the translated model")
    common(tr)
    tr.add_argument("--reverse", action="store_true",
                    help="machine -> TSO program instead of program -> machine")
    lo = cmd("lower", "lower machine instruction tiers")
    common(lo)
    lo.add_argument("--to", type=int, default=1, choices=[1, 2])
    g = cmd("gen", "emit benchmark instances")
    common(g, with_input=False)
    g.add_argument("--kind", required=True,
                   choices=["program", "machine", "counter-machine",
                            "stack-machine", "net", "intersection"])
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--states", type=int, default=4)
    g.add_argument("--vars", type=int, default=2)
    g.add_argument("--regs", type=int, default=2)
    g.add_argument("--bound", type=int, default=1)
    g.add_argument("--tier", type=int, default=1, choices=[1, 2, 3])
    g.add_argument("--fixture", type=int, default=None,
                   help="intersection: use built-in fixture 0..5")
    g.add_argument("--automata", default=None,
                   help="intersection: read pda/fsa sections from this file")
    common(cmd("crosscheck", "run oracle, pivot and check; fail on disagreement"))
    return p


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


def _load(path: str, adt_override: str | None):
    """Returns ('program', Program) | ('machine', rm) | ('cover', rm)."""
    try:
        text = _read(path)
        kind_line = next(
            (ln.split()[0] for _, ln in dsl._lines(text)
             if ln.split()[0] in ("process", "machine", "cover")),
            None,
        )
        if kind_line == "cover":
            inst = dsl.parse_coverability(text)
            return "cover", encode_coverability_to_rm(inst)
        obj = dsl.parse_input(text)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)
    if adt_override is not None:
        try:
            new_adt = dsl.parse_adt_line(adt_override, 0)
            if isinstance(obj, dsl.Program):
                from .model import validate_program

                validate_program(obj.mem, new_adt, obj.proc)
                obj = dsl.Program(mem=obj.mem, adt=new_adt, proc=obj.proc)
            else:
                from .model import RegisterMachine

                obj = RegisterMachine(
                    obj.name, obj.states, obj.q_init, obj.q_target,
                    obj.registers, obj.bound, new_adt, obj.delta,
                )
        except (dsl.DslError, AdtError, ModelError) as e:
            print(f"error: {e}", file=sys.stderr)
            raise SystemExit(EXIT_INPUT_ERROR)
    if isinstance(obj, dsl.Program):
        return "program", obj
    return "machine", obj


def _report(v: Verdict, fmt: str, out: str | None) -> int:
    if fmt == "text":
        _emit(v.report(include_millis=True), out)
    else:
        lines = [f"verdict: {v.outcome}"]
        for step in v.witness or ():
            lines.append(f"witness: {step}")
        lines.append(f"explored: {v.stats.explored}")
        lines.append(f"iterations: {v.stats.iterations}")
        lines.append(f"closed: {1 if v.closed else 0}")
        _emit("\n".join(lines) + "\n", out)
    return v.exit_code()


def _solve_rm(rm, cfg: RunConfig) -> Verdict:
    return solve_auto(
        rm,
        backend=cfg.backend,
        value_bound=cfg.value_bound,
        budget=cfg.budget,
    )


def _rm_route(prog, cfg: RunConfig) -> Verdict:
    """Translate the program and solve the register machine."""
    return _solve_rm(build_register_machine(prog.proc, prog.mem, prog.adt), cfg)


def _check_program(prog, cfg: RunConfig) -> Verdict:
    """The pivot search, with the machine route when it is inconclusive.

    The verdict keeps the pivot search's stats; a reachable one carries the
    pivot run lifted to the translated machine, in the machine route's
    witness form.
    """
    v = pivot_reach(prog.proc, prog.mem, prog.adt,
                    value_bound=cfg.value_bound, budget=cfg.budget)
    if v.outcome == UNREACHABLE:
        return v
    rm = build_register_machine(prog.proc, prog.mem, prog.adt)
    if v.outcome == REACHABLE:
        run = lift_pivot_witness(rm, parse_omega(v.witness[0]),
                                 value_bound=cfg.value_bound, budget=cfg.budget)
        if run is not None:
            return replace(v, witness=tuple(format_rm_label(e) for e in run))
    return _solve_rm(rm, cfg)


def _solve_input(kind, obj, cfg: RunConfig) -> Verdict:
    if kind != "program":
        return _solve_rm(obj, cfg)
    if cfg.backend == "auto":
        return _check_program(obj, cfg)
    return _rm_route(obj, cfg)


def _need_program(kind, obj, what: str):
    if kind != "program":
        print(f"error: {what} needs a program input", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)
    return obj


def cmd_check(cfg: RunConfig, args) -> int:
    kind, obj = _load(cfg.input, cfg.adt_override)
    return _report(_solve_input(kind, obj, cfg), cfg.out_format, cfg.out)


def cmd_oracle(cfg: RunConfig, args) -> int:
    kind, obj = _load(cfg.input, cfg.adt_override)
    prog = _need_program(kind, obj, "oracle")
    bounds = OracleBounds(
        n_max=cfg.n_max,
        step_max=cfg.step_max,
        buffer_max=cfg.buffer_max,
        adt_size_max=cfg.value_bound,
    )
    v = bounded_reach(prog.proc, prog.mem, prog.adt, bounds)
    return _report(v, cfg.out_format, cfg.out)


def cmd_pivot(cfg: RunConfig, args) -> int:
    kind, obj = _load(cfg.input, cfg.adt_override)
    prog = _need_program(kind, obj, "pivot")
    v = pivot_reach(
        prog.proc, prog.mem, prog.adt,
        value_bound=cfg.value_bound, budget=cfg.budget,
    )
    return _report(v, cfg.out_format, cfg.out)


def cmd_translate(cfg: RunConfig, args) -> int:
    kind, obj = _load(cfg.input, cfg.adt_override)
    if args.reverse:
        if kind == "program":
            print("error: --reverse needs a machine input", file=sys.stderr)
            return EXIT_INPUT_ERROR
        gen_prog = build_tso_from_rm(obj)
        text = dsl.print_program(
            dsl.Program(mem=gen_prog.mem, adt=gen_prog.adt, proc=gen_prog.proc)
        )
    else:
        prog = _need_program(kind, obj, "translate")
        text = dsl.print_machine(build_register_machine(prog.proc, prog.mem, prog.adt))
    _emit(text, cfg.out)
    return 0


def cmd_lower(cfg: RunConfig, args) -> int:
    kind, obj = _load(cfg.input, cfg.adt_override)
    if kind == "program":
        print("error: lower needs a machine input", file=sys.stderr)
        return EXIT_INPUT_ERROR
    rm = lower_tier3_to_tier2(obj)
    if args.to == 1:
        rm = lower_tier2_to_tier1(rm)
    _emit(dsl.print_machine(rm), cfg.out)
    return 0


def cmd_gen(cfg: RunConfig, args) -> int:
    rng = random.Random(cfg.seed)
    chunks: list[str] = []
    for _ in range(args.count):
        if args.kind == "program":
            adt = dsl.parse_adt_line(cfg.adt_override, 0) if cfg.adt_override else None
            mem, a, proc = gen.random_program(
                rng, n_states=args.states, n_vars=args.vars, adt=adt,
                op_weight=40 if adt and adt.kind != "trivial" else 0,
            )
            chunks.append(dsl.print_program(dsl.Program(mem=mem, adt=a, proc=proc)))
        elif args.kind == "machine":
            adt = dsl.parse_adt_line(cfg.adt_override, 0) if cfg.adt_override else None
            rm = gen.random_machine(
                rng, n_states=args.states, n_regs=args.regs, bound=args.bound,
                adt=adt, tier=args.tier,
                op_weight=40 if adt and adt.kind != "trivial" else 0,
            )
            chunks.append(dsl.print_machine(rm))
        elif args.kind == "counter-machine":
            chunks.append(dsl.print_machine(gen.random_counter_machine(rng)))
        elif args.kind == "stack-machine":
            chunks.append(dsl.print_machine(gen.random_stack_machine(rng, args.states)))
        elif args.kind == "net":
            chunks.append(dsl.print_coverability(gen.random_net(rng)))
        else:  # intersection
            if args.automata:
                try:
                    pdas, fsas = dsl.parse_automata(_read(args.automata))
                    if len(pdas) != 1:
                        print("error: need exactly one pda section", file=sys.stderr)
                        return EXIT_INPUT_ERROR
                    rm = encode_intersection(pdas[0], tuple(fsas))
                except _INPUT_ERRORS as e:
                    print(f"error: {e}", file=sys.stderr)
                    return EXIT_INPUT_ERROR
            else:
                fixtures = gen.intersection_fixtures()
                idx = args.fixture if args.fixture is not None else 0
                if not 0 <= idx < len(fixtures):
                    print(f"error: fixture index 0..{len(fixtures)-1}", file=sys.stderr)
                    return EXIT_INPUT_ERROR
                _, pda, fsas, _ = fixtures[idx]
                rm = encode_intersection(pda, fsas)
            chunks.append(dsl.print_machine(rm))
    _emit("# ---\n".join(chunks), cfg.out)
    return 0


def cmd_crosscheck(cfg: RunConfig, args) -> int:
    kind, obj = _load(cfg.input, cfg.adt_override)
    prog = _need_program(kind, obj, "crosscheck")
    bounds = OracleBounds(
        n_max=cfg.n_max, step_max=cfg.step_max,
        buffer_max=cfg.buffer_max, adt_size_max=cfg.value_bound,
    )
    oracle_v = bounded_reach(prog.proc, prog.mem, prog.adt, bounds)
    pivot_v = pivot_reach(prog.proc, prog.mem, prog.adt,
                          value_bound=cfg.value_bound, budget=cfg.budget)
    check_v = _rm_route(prog, cfg)  # independent of the pivot search above

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
    _emit("\n".join(lines) + "\n", cfg.out)
    if problems:
        return EXIT_DISAGREEMENT
    return check_v.exit_code()


# built by the first main call of a process and reused by every later one;
# importing the module builds nothing
_PARSER: _Parser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    cfg = RunConfig.from_args(args)
    handler = {
        "check": cmd_check,
        "oracle": cmd_oracle,
        "pivot": cmd_pivot,
        "translate": cmd_translate,
        "lower": cmd_lower,
        "gen": cmd_gen,
        "crosscheck": cmd_crosscheck,
    }[cfg.subcommand]
    try:
        return handler(cfg, args)
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as e:  # a fault of the program must not look like a verdict
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
