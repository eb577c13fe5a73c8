"""Benchmark of the tsoreach check, pivot and oracle commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--suite-seed K]

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads, their solver flags and the suite seeds are defined in
``perfbench/workloads.json``.  Set-up imports the package, generates the
workload's suite from the suite seed and writes it as DSL files (median of
several set-ups).  The load is a closed loop in one process and one thread:
each instance's commands go through ``tsoreach.cli.main`` in-process, one
call at a time, in rounds over the suite whose orders are drawn from
``--seed``, until ``--seconds`` have passed and every instance has run.
Each instance's time is the median of its calls.  Wall times are scaled to
a reference machine speed measured by a probe between calls (see
``Meter``).  Afterwards every verdict is checked against
``perfbench/expected/`` and every reachable witness is replayed under its
own semantics; each command's report must repeat byte for byte on every
call of the same instance.

``--trace 1`` instead runs, per instance, one untraced ``check`` and every
command traced, in an order drawn from ``--seed``, and reports per-layer
self times and counters (see ``tracing.py``) plus the tracing overhead,
the traced ``check`` time over the untraced one; the spans are written to
``perfbench/work/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 9
PROBE_KEYS = 10_000
PROBE_REF_S = 0.0014  # about what probe() takes on a quiet 2-core Intel Xeon
WINDOW_S = 0.5
VERDICT_CODES = {"reachable": 0, "unreachable": 1, "inconclusive": 2}

sys.path.insert(0, str(HERE))
import suite  # noqa: E402
import tracing  # noqa: E402


def _fresh_cli():
    """Import tsoreach.cli from src/, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "tsoreach" or m.startswith("tsoreach.")]:
        del sys.modules[name]
    import tsoreach.cli

    return tsoreach.cli


def setup(workload: str, suite_seed: int, workdir: Path):
    """Import the package, build the suite and write its files; timed."""
    t0 = perf_counter()
    cli = _fresh_cli()
    instances = suite.build(workload, suite_seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for inst in instances:
        (workdir / f"{inst.id}.tso").write_text(inst.text, encoding="utf-8")
    return perf_counter() - t0, cli, instances


def probe() -> float:
    """Wall seconds of a fixed piece of work: a dict keyed by tuples, the
    kind of work the solvers spend their time on."""
    gc.disable()
    try:
        t0 = perf_counter()
        d = {}
        for i in range(PROBE_KEYS):
            d[(i, i & 7)] = i
        return perf_counter() - t0
    finally:
        gc.enable()


class Meter:
    """Scales wall times to the reference speed, at which probe() takes
    PROBE_REF_S.

    The speed of a shared machine drifts by a third within a minute, and
    the drift moves every timing of a run together.  A probe runs after
    every measured interval; the speed during an interval is read from the
    median of the probes within WINDOW_S of it.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (when, probe seconds)
        self.tick()

    def tick(self) -> None:
        self.probes.append((perf_counter(), probe()))

    def scale(self, start: float, wall: float) -> float:
        near = [p for t, p in self.probes if start - WINDOW_S <= t <= start + wall + WINDOW_S]
        return wall * PROBE_REF_S / statistics.median(near)


def clear_caches() -> None:
    """Empty every functools cache in tsoreach, as each call would find
    them in a fresh process.  Kept across calls, a cache keyed by an equal
    but new machine turns every lookup into a deep comparison, which slows
    a second pass over the suite by about 1.7x."""
    for name, module in list(sys.modules.items()):
        if name == "tsoreach" or name.startswith("tsoreach."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


class Call:
    """One command call: exit code (None if it raised), stdout, start and
    wall seconds, and (once scaled) seconds at the reference speed."""

    __slots__ = ("rc", "start", "wall", "seconds", "out")

    def __init__(self, main, argv, meter: Meter):
        clear_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            self.start = perf_counter()
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:
                rc = None
                err = traceback.format_exc()
            self.wall = perf_counter() - self.start
        meter.tick()
        if rc is None:
            print(f"error: {' '.join(argv)} raised\n{err}", file=sys.stderr)
        self.rc = rc
        self.out = out.getvalue()

    def parsed(self):
        """(verdict, witness lines) from the --format lines report."""
        verdict, witness = None, []
        for line in self.out.splitlines():
            key, _, value = line.partition(": ")
            if key == "verdict":
                verdict = value
            elif key == "witness":
                witness.append(value)
        return verdict, tuple(witness)

    @property
    def ok(self) -> bool:
        verdict, _ = self.parsed()
        return self.rc in (0, 1, 2) and VERDICT_CODES.get(verdict) == self.rc


def argv_for(command: str, flags: list, path: Path) -> list:
    return [command, str(path), "--format", "lines", *flags]


def run_calls(main, inst, commands, workdir, calls, meter) -> None:
    """Every command of one instance, in the workload's order."""
    path = workdir / f"{inst.id}.tso"
    for command, flags in commands.items():
        calls.setdefault((inst.id, command), []).append(
            Call(main, argv_for(command, flags, path), meter))


# ---------------------------------------------------------------------------
# Correctness


def replay(inst: suite.Instance, command: str, call: Call, span) -> None:
    """Replay a reachable witness under the semantics it claims; raises on failure."""
    from tsoreach import dsl
    from tsoreach.model import replay_rm
    from tsoreach.pivot import replay_pivot
    from tsoreach.solvers import format_rm_label
    from tsoreach.translate import build_register_machine, encode_coverability_to_rm
    from tsoreach.tso import replay_tso

    _, witness = call.parsed()
    if inst.kind == "cover":
        obj = encode_coverability_to_rm(dsl.parse_coverability(inst.text))
    else:
        obj = dsl.parse_input(inst.text)
    if command == "pivot":
        span("pivot.replay_pivot", replay_pivot)(
            obj.proc, obj.mem, obj.adt, witness, require_final=obj.proc.q_final)
        return
    if command == "oracle":
        n = int(call.out.split("iterations: ")[1].split()[0])  # processes used
        span("tso.replay_tso", replay_tso)(
            obj.proc, obj.mem, obj.adt, n, witness, require_final=obj.proc.q_final)
        return
    # solve_auto lowers no machine of these suites, so the witness names
    # edges of the parsed (or translated) machine itself
    rm = obj if inst.kind != "program" else build_register_machine(obj.proc, obj.mem, obj.adt)
    edges = {format_rm_label(e): e for e in rm.delta}
    final = span("model.replay_rm", replay_rm)(rm, [edges[label] for label in witness])
    if final.state != rm.q_target:
        raise ValueError("witness does not end in the target state")


def check_verdicts(instances, calls, known, span):
    """Count verdicts that contradict the known answer or fail to replay."""
    by_id = {inst.id: inst for inst in instances}
    wrong = 0
    for (inst_id, command), runs in sorted(calls.items()):
        call = runs[0]  # later calls must repeat its report exactly
        verdict, _ = call.parsed()
        if not call.ok:
            continue  # counted as a failed call
        answer = known.get(inst_id, "unknown")
        if verdict in ("reachable", "unreachable") and answer not in (verdict, "unknown"):
            print(f"wrong: {command} {inst_id} says {verdict}, known {answer}",
                  file=sys.stderr)
            wrong += 1
        elif verdict == "reachable":
            try:
                replay(by_id[inst_id], command, call, span)
            except Exception as e:  # any replay error means a bad witness
                print(f"wrong: {command} {inst_id} witness does not replay: {e}",
                      file=sys.stderr)
                wrong += 1
    return wrong


def counter_mismatches(calls) -> int:
    """Calls whose report (verdict, witness, explored, iterations) differs
    from the first call of the same command on the same instance."""
    bad = 0
    for (inst_id, command), runs in calls.items():
        for call in runs[1:]:
            if call.out != runs[0].out:
                print(f"counters differ: {command} {inst_id}", file=sys.stderr)
                bad += 1
    return bad


# ---------------------------------------------------------------------------
# Metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def smoothed_percentile(values, pct: int, half_width: int = 4) -> float:
    """The mean of the percentiles pct - half_width .. pct + half_width.

    On a shared 2-core machine a single call varies by about 10% from round
    to round even after scaling, and one order statistic inherits all of
    it; averaging the neighbouring percentiles damps that, where most
    instances get only one or two calls in a run.
    """
    cuts = statistics.quantiles(values, n=100, method="inclusive")  # cuts[k - 1] is the k-th
    return statistics.fmean(cuts[pct - half_width - 1:pct + half_width])


def end_to_end(instances, commands, calls, setup_s):
    """Suite totals and check latency percentiles over per-instance medians."""
    median = {key: statistics.median(c.seconds for c in runs) for key, runs in calls.items()}
    m = {"setup_s": _metric(setup_s, "s")}
    for command in commands:
        m[f"{command}_s"] = _metric(sum(median[(i.id, command)] for i in instances), "s")
    m["suite_s"] = _metric(sum(median.values()), "s")
    check_ms = [1000 * median[(inst.id, "check")] for inst in instances]
    m["check_ms.p50"] = _metric(smoothed_percentile(check_ms, 50), "ms")
    m["check_ms.p90"] = _metric(smoothed_percentile(check_ms, 90), "ms")
    for command in ("check", "pivot"):
        if command in commands:
            # every call of an instance must repeat the first one's report
            decided = sum(calls[(inst.id, command)][0].parsed()[0] in ("reachable", "unreachable")
                          for inst in instances)
            m[f"{command}_decided_frac"] = _metric(decided / len(instances), "ratio")
    return m


# per-layer time metrics: name -> the spans whose self times are summed
LAYER_TIMES = {
    "cli.self_ms": ["cli.main"],
    "dsl.parse_ms": ["dsl.parse_input", "dsl.parse_coverability"],
    "translate.build_ms": ["translate.build_register_machine",
                           "translate.encode_coverability_to_rm",
                           "translate.encode_rm_to_coverability"],
    "model.rm_step_ms": ["model.rm_step"],
    "model.lower_ms": ["model.lower_tier3_to_tier2", "model.lower_tier2_to_tier1"],
    "model.replay_ms": ["model.replay_rm"],
    "solvers.finite_ms": ["solvers.finite"],
    "solvers.counter_ms": ["solvers.counter"],
    "solvers.stack_self_ms": ["solvers.stack"],
    "solvers.petri_self_ms": ["solvers.petri"],
    "solvers.wsts_self_ms": ["solvers.wsts"],
    "pds.pre_star_ms": ["pds.pre_star"],
    "pds.witness_ms": ["pds.witness"],
    "coverability.backward_ms": ["coverability.backward_reach"],
    "pivot.reach_ms": ["pivot.pivot_reach"],
    "pivot.replay_ms": ["pivot.replay_pivot"],
    "tso.oracle_ms": ["tso.bounded_reach"],
    "tso.replay_ms": ["tso.replay_tso"],
}
LAYER_COUNTS = [
    "translate.rm_registers", "translate.rm_edges", "solvers.explored",
    "solvers.inconclusive", "pds.rules", "pds.transitions", "coverability.explored",
    "coverability.iterations", "pivot.explored", "pivot.states", "pivot.value_pruned",
    "pivot.budget_hits", "tso.explored", "tso.witnesses",
]


def per_layer(tracer, overhead, speed):
    """Layer metrics of the traced pass; times are scaled by the pass's
    mean speed relative to the reference (see Meter)."""
    m = {name: _metric(1000 * speed * sum(tracer.self_s[s] for s in spans), "ms")
         for name, spans in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        m[name] = _metric(tracer.counts[name], "count")
    m["model.rm_step_calls"] = _metric(tracer.calls["model.rm_step"], "count")
    m["adt.step_calls"] = _metric(
        sum(n for s, n in tracer.calls.items() if s.startswith("adt.")), "count")
    m["dsl.input_kb"] = _metric(tracer.counts["dsl.input_bytes"] / 1024, "KiB")
    rules = tracer.counts["pds.rules"]
    m["pds.transitions_per_rule"] = _metric(
        tracer.counts["pds.transitions"] / rules if rules else 0.0, "ratio")
    m["trace.overhead"] = _metric(overhead, "ratio")
    return dict(sorted(m.items()))


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="orders the closed loop")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite-seed", type=int, default=None,
                    help="instance suite seed (default: suite_seed of workloads.json)")
    args = ap.parse_args(argv)

    if not (SRC / "tsoreach" / "__init__.py").is_file():
        print(f"error: no tsoreach sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    commands = config["workloads"][args.workload]["commands"]
    suite_seed = config["suite_seed"] if args.suite_seed is None else args.suite_seed
    expected_path = HERE / "expected" / f"{args.workload}.json"
    expected = (json.loads(expected_path.read_text(encoding="utf-8")).get(str(suite_seed))
                if expected_path.is_file() else None)
    workdir = WORK / f"{args.workload}-{suite_seed}-{args.seed}"

    meter = Meter()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        wall, cli, instances = setup(args.workload, suite_seed, workdir)
        meter.tick()
        setups.append((start, wall))
    setup_s = statistics.median(meter.scale(start, wall) for start, wall in setups)
    digest = suite.digest(instances)
    print(f"workload {args.workload}: {len(instances)} instances, suite seed {suite_seed} "
          f"(held-out seed {config['holdout_seed']}), order seed {args.seed}, "
          f"inputs sha256 {digest}")
    inputs_match = expected is not None and expected["digest"] == digest
    if not inputs_match:
        print("error: the generated inputs are not the ones the expected file covers",
              file=sys.stderr)
    known = expected["known"] if inputs_match else {}

    rng = random.Random(args.seed)
    calls: dict = {}
    gc.collect()
    try:
        if args.trace:
            tracer, untraced_checks, traced_checks = traced_run(
                cli, instances, commands, workdir, rng, calls, meter)
            span = tracer.span
        else:
            rounds = timed_loop(cli, instances, commands, workdir, rng, calls, meter,
                                args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            span = lambda name, fn: fn  # noqa: E731
        wrong = check_verdicts(instances, calls, known, span)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for runs in calls.values():
        for call in runs:
            call.seconds = meter.scale(call.start, call.wall)
    attempted = sum(len(runs) for runs in calls.values())
    bad_calls = sum(not c.ok for runs in calls.values() for c in runs)
    mismatches = counter_mismatches(calls)
    failed = bad_calls + mismatches
    if args.trace:
        overhead = (sum(c.seconds for c in traced_checks)
                    / sum(c.seconds for c in untraced_checks))
        traced = [runs[-1] for runs in calls.values()]
        speed = sum(c.seconds for c in traced) / sum(c.wall for c in traced)
        metrics = per_layer(tracer, overhead, speed)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"trace-{args.workload}-{suite_seed}.jsonl"
        tracer.write_jsonl(str(spans_path))
        print(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(instances, commands, calls, setup_s)
        metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB")
        wall = sum(c.wall for runs in calls.values() for c in runs)
        scaled = sum(c.seconds for runs in calls.values() for c in runs)
        print(f"rounds: {rounds}; {attempted} calls; check_ms percentiles over "
              f"{len(instances)} instances; calls ran {wall:.3f} s at "
              f"{scaled / wall:.3f}x the reference speed")
    report = dict(metrics)
    report["wrong_verdicts"] = _metric(wrong, "count")
    report["failed_frac"] = _metric(bad_calls / attempted, "ratio")
    report["counter_mismatches"] = _metric(mismatches, "count")
    for name, m in report.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    # the result carries the metrics BENCHMARK.json lists for this kind of
    # run; pivot_s, oracle_s and pivot_decided_frac exist only on the
    # program workloads, so they are printed above but not listed there
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in listed["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"correct": inputs_match and wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": {n: metrics[n] for n in names}}))
    return 0


def timed_loop(cli, instances, commands, workdir, rng, calls, meter, seconds) -> int:
    """Rounds over the suite, each in a new order, until the time is up.

    Every instance runs in the first round; later rounds stop where the
    time runs out.  Returns the number of rounds begun.
    """
    t_end = perf_counter() + seconds
    rounds = 0
    while perf_counter() < t_end or not rounds:
        order = list(instances)
        rng.shuffle(order)
        rounds += 1
        for inst in order:
            if rounds > 1 and perf_counter() >= t_end:
                break
            run_calls(cli.main, inst, commands, workdir, calls, meter)
    return rounds


def traced_run(cli, instances, commands, workdir, rng, calls, meter):
    """Per instance, an untraced check and every command traced.

    Whether the untraced check runs before or after the traced commands is
    drawn from rng per instance, so that neither side of the overhead
    ratio always gets the second, warmer call.  Returns the tracer and the
    untraced and traced check calls.
    """
    tracer = tracing.Tracer()
    main = tracer.span("cli.main", cli.main)
    order = list(instances)
    rng.shuffle(order)
    untraced, traced = [], []
    for inst in order:
        path = workdir / f"{inst.id}.tso"
        untraced_first = rng.random() < 0.5
        if untraced_first:
            untraced.append(Call(cli.main, argv_for("check", commands["check"], path), meter))
        with tracer.patched():
            for command, flags in commands.items():
                tracer.request = f"{inst.id} {command}"
                call = Call(main, argv_for(command, flags, path), meter)
                calls.setdefault((inst.id, command), []).append(call)
        tracer.request = None
        traced.append(calls[(inst.id, "check")][-1])
        if not untraced_first:
            untraced.append(Call(cli.main, argv_for("check", commands["check"], path), meter))
        calls[(inst.id, "check")].insert(0, untraced[-1])
    return tracer, untraced, traced


if __name__ == "__main__":
    sys.exit(main())
