"""Write perfbench/expected/<workload>.json: the known answer per instance.

    python3 perfbench/make_expected.py [WORKLOAD ...]

For the suite seed and the held-out seed of workloads.json, every instance
runs through the workload's own commands and flags plus independent
cross-checks, all via ``tsoreach.cli.main``:

- programs: ``pivot`` and ``check`` at twice the workload's ``check``
  budget and value bound; every oracle witness must be confirmed reachable
  by both;
- stack machines: value-bounded explicit search (``--backend bounded``),
  which confirms reachable verdicts; an unreachable one it can only fail
  to contradict, since the search prunes every pushing loop;
- nets and petri machines: the other of the ``petri`` and ``wsts`` backends;
- intersection fixtures: the fixture's known emptiness.

Conclusive verdicts must all agree and every reachable witness must replay
(see ``run.replay``), otherwise the script stops without writing.  The
known answer is the agreed verdict, or "unknown" when nothing decided.
"""

from __future__ import annotations

import json
import sys

import run


def doubled(flags: list) -> list:
    """flags with the --budget and --value-bound values doubled."""
    out = list(flags)
    for i, flag in enumerate(flags[:-1]):
        if flag in ("--budget", "--value-bound"):
            out[i + 1] = str(2 * int(flags[i + 1]))
    return out


def cross_checks(inst, rm_kind_registers, commands):
    """Extra (command, flags) pairs for one instance."""
    if inst.kind == "program":
        flags = doubled(commands["check"])
        return [("pivot", flags), ("check", flags)]
    kind, has_registers = rm_kind_registers
    if kind == "stack":
        return [("check", ["--backend", "bounded", "--value-bound", "6",
                           "--budget", "200000"])]
    if kind == "petri":
        other = "petri" if has_registers else "wsts"
        return [("check", ["--backend", other, "--budget", "1000000"])]
    return []


def fixture_answers(gen):
    return {f"{i:03d}-fixture-{name.replace('_', '-')}": "reachable" if nonempty
            else "unreachable"
            for i, (name, _, _, nonempty) in enumerate(gen.intersection_fixtures())}


def known_answers(name: str, commands: dict, seed: int) -> dict:
    workdir = run.WORK / f"expected-{name}-{seed}"
    _, cli, instances = run.setup(name, seed, workdir)
    from tsoreach import dsl, gen

    fixtures = fixture_answers(gen) if name == "machines" else {}
    known = {}
    meter = run.Meter()
    try:
        for inst in instances:
            path = workdir / f"{inst.id}.tso"
            shape = None
            if inst.kind == "machine":
                rm = dsl.parse_input(inst.text)
                shape = (rm.adt.kind, bool(rm.registers))
            elif inst.kind == "cover":
                shape = ("petri", False)
            verdicts = {}
            if inst.id in fixtures:
                verdicts["fixture"] = fixtures[inst.id]
            runs = list(commands.items()) + cross_checks(inst, shape, commands)
            for command, flags in runs:
                call = run.Call(cli.main, run.argv_for(command, flags, path), meter)
                label = f"{command} {' '.join(flags)}"
                if not call.ok:
                    raise SystemExit(f"{inst.id}: {label} failed (exit {call.rc})")
                verdict, _ = call.parsed()
                if verdict == "reachable":
                    run.replay(inst, command, call, lambda _, fn: fn)
                if verdict != "inconclusive":
                    verdicts[label] = verdict
            if len(set(verdicts.values())) > 1:
                raise SystemExit(f"{inst.id}: pipelines disagree: {verdicts}")
            known[inst.id] = next(iter(verdicts.values()), "unknown")
            print(f"{name} seed {seed} {inst.id}: {known[inst.id]} ({len(verdicts)} decided)",
                  flush=True)
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)
    return {"digest": run.suite.digest(instances), "known": known}


def main(argv) -> int:
    sys.path.insert(0, str(run.SRC))
    config = json.loads((run.HERE / "workloads.json").read_text(encoding="utf-8"))
    names = argv or list(config["workloads"])
    for name in names:
        commands = config["workloads"][name]["commands"]
        out = {str(seed): known_answers(name, commands, seed)
               for seed in (config["suite_seed"], config["holdout_seed"])}
        path = run.HERE / "expected" / f"{name}.json"
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
