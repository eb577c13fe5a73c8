"""Seeded instance suites for the three benchmark workloads.

Each workload is a list of instances built from ``tsoreach.gen`` with one
``random.Random`` seeded by the workload name and the suite seed, so the
same seed always gives byte-identical DSL files.  The solver flags of each
command are part of the workload and live in ``workloads.json``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

INSTANCES = 100  # per workload: enough for a check_ms.p90 with ten beyond it
ADTS = ("counter", "weakcounter", "stack alphabet a,b")  # program-adt, in turn


@dataclass(frozen=True)
class Instance:
    id: str  # also the file stem
    kind: str  # "program", "machine" or "cover"
    text: str


def _programs_trivial(rng, gen, dsl):
    # a quarter of the programs get 3 variables: that quarter is where
    # check's translated machine is large
    out = []
    for i in range(INSTANCES):
        n_vars = 3 if i % 4 == 3 else 2
        mem, adt, proc = gen.random_program(
            rng, n_states=rng.randint(4, 6), n_vars=n_vars, d_max=1)
        text = dsl.print_program(dsl.Program(mem=mem, adt=adt, proc=proc))
        out.append(Instance(f"{i:03d}-trivial-v{n_vars}", "program", text))
    return out


def _programs_adt(rng, gen, dsl):
    out = []
    for i in range(INSTANCES):
        adt = dsl.parse_adt_line(ADTS[i % len(ADTS)], 0)
        n_vars = rng.randint(1, 2)
        mem, adt, proc = gen.random_program(
            rng, n_states=rng.randint(4, 5), n_vars=n_vars, d_max=1,
            adt=adt, op_weight=40)
        text = dsl.print_program(dsl.Program(mem=mem, adt=adt, proc=proc))
        out.append(Instance(f"{i:03d}-{adt.kind}-v{n_vars}", "program", text))
    return out


# random_stack_machine sizes, weighted toward the small ones (5:3:1:1)
_STACK_SIZES = (40,) * 5 + (80,) * 3 + (160, 320)


def _machines(rng, gen, dsl):
    from tsoreach.adt import AdtSpec
    from tsoreach.translate import encode_intersection

    out = []
    for name, pda, fsas, _ in gen.intersection_fixtures():
        rm = encode_intersection(pda, fsas)
        out.append(("fixture-" + name.replace("_", "-"), "machine", dsl.print_machine(rm)))
    n_nets = n_petri = INSTANCES // 12
    for _ in range(n_nets):
        out.append(("net", "cover", dsl.print_coverability(gen.random_net(rng))))
    for _ in range(n_petri):
        net = gen.random_net(rng)
        adt = AdtSpec(kind="petri", places=net.places, transitions=net.transitions,
                      initial_marking=net.initial)
        rm = gen.random_machine(rng, n_states=rng.randint(3, 5), n_regs=rng.randrange(0, 2),
                                bound=1, adt=adt, tier=1, op_weight=50)
        out.append(("petri-rm", "machine", dsl.print_machine(rm)))
    for k in range(INSTANCES - len(out)):
        n = _STACK_SIZES[k % len(_STACK_SIZES)]
        rm = gen.random_stack_machine(rng, n)
        out.append((f"stack{n}", "machine", dsl.print_machine(rm)))
    return [Instance(f"{i:03d}-{stem}", kind, text)
            for i, (stem, kind, text) in enumerate(out)]


GENERATORS = {
    "program-trivial": _programs_trivial,
    "program-adt": _programs_adt,
    "machines": _machines,
}


def build(workload: str, suite_seed: int) -> list[Instance]:
    """The instances of one workload."""
    import tsoreach.dsl as dsl
    import tsoreach.gen as gen

    rng = random.Random(f"{workload}/{suite_seed}")
    return GENERATORS[workload](rng, gen, dsl)


def digest(instances: list[Instance]) -> str:
    """sha256 over every file name and file text, in suite order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.id.encode() + b"\0" + inst.text.encode() + b"\0")
    return h.hexdigest()
