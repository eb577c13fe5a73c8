"""Pins the generator's draws and the lowering and print/parse outputs.

One sha256 over 9,600 texts: for each random machine of tiers 1-3 over
the data types trivial, counter, stack and petri at seeds 0-199 (with
``n_regs`` and ``bound`` equal to the seed mod 4), its printed form, its
``lower_tier3_to_tier2`` output, its ``lower --to 1`` output, and its
print/parse round trip.  A change to how an action kind is drawn,
parsed, printed or lowered moves the digest.  The benchmark's suite
digests in ``perfbench/expected`` pin only tier-1 draws.

Run as a script (``PYTHONPATH=src python tests/test_output_pin.py``) it
prints the count and the digest, and exits 1 when they differ from the pin.
"""

from __future__ import annotations

import hashlib
import random
import sys

from tsoreach.adt import AdtSpec, trivial_spec
from tsoreach.dsl import parse_adt_line, parse_input, print_machine
from tsoreach.gen import random_machine
from tsoreach.model import lower_tier2_to_tier1, lower_tier3_to_tier2

ADTS = {
    "trivial": trivial_spec(),
    "counter": AdtSpec(kind="counter"),
    "stack": AdtSpec(kind="stack", alphabet=("a", "b")),
    "petri": parse_adt_line("petri places p,q transitions t: p -> q ; u: q -> p,p initial p", None),
}

DIGEST = "3dcf4bc5f5a3e713151f38e714068284733484055293fb01542dae506fa14af9"


def pinned_texts():
    for tier in (1, 2, 3):
        for name, adt in ADTS.items():
            for seed in range(200):
                rm = random_machine(random.Random(seed), n_regs=seed % 4, bound=seed % 4,
                                    adt=adt, tier=tier, op_weight=0 if name == "trivial" else 40)
                text = print_machine(rm)
                tier2 = lower_tier3_to_tier2(rm)
                yield text
                yield print_machine(tier2)
                yield print_machine(lower_tier2_to_tier1(tier2))
                yield print_machine(parse_input(text))


def digest() -> tuple[int, str]:
    h = hashlib.sha256()
    n = 0
    for text in pinned_texts():
        h.update(text.encode() + b"\0")
        n += 1
    return n, h.hexdigest()


def test_generator_lowering_and_round_trip_outputs_are_pinned():
    assert digest() == (9600, DIGEST)


if __name__ == "__main__":
    n, h = digest()
    print(n, h)
    sys.exit(0 if (n, h) == (9600, DIGEST) else 1)
