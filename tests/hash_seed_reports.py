"""The benchmark's reports do not depend on the hash seed.

For both suites (seeds 1 and 2) of every workload in
``perfbench/workloads.json``, each instance goes through each of its
workload's commands with ``--format lines``: 1,400 reports in all.  The
reports are made twice, in child processes under PYTHONHASHSEED 0 and 1,
and compared byte for byte, and then with DIGEST, the sha256 of the
reports as the DIR form prints them, header lines included.  A change
that alters a report on purpose updates DIGEST.

    python tests/hash_seed_reports.py        compare the two hash seeds
    python tests/hash_seed_reports.py DIR    print every report of this
                                             process, writing the instance
                                             files to DIR

Exit 1 when the reports differ, there are not 1,400 of them, or their
sha256 is not DIGEST.  Only the
standard library and tsoreach are imported, so no test runner is needed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPORTS = 1400
DIGEST = "20b69909623b303ff1d5cf00cf130752639d3a81b9797484ca573a6cb932839c"


def print_reports(workdir: Path) -> int:
    """Print every report, each under an '== ...: exit CODE' header line;
    return how many there were."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import suite
    from tsoreach.cli import main

    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text())["workloads"]
    n = 0
    for w, spec in workloads.items():
        for seed in (1, 2):
            for inst in suite.build(w, seed):
                path = workdir / f"{w}-{seed}-{inst.id}.tso"
                path.write_text(inst.text)
                for command, flags in spec["commands"].items():
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main([command, str(path), "--format", "lines", *flags])
                    print(f"== {w} suite seed {seed} {inst.id} {command}: exit {code}")
                    print(out.getvalue() + err.getvalue(), end="")
                    n += 1
    return n


def compare() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        texts = {}
        for seed in ("0", "1"):
            child = subprocess.run([sys.executable, __file__, workdir], capture_output=True,
                                   text=True, env={**os.environ, "PYTHONHASHSEED": seed})
            if child.returncode != 0:
                print(f"hash seed {seed}: exit {child.returncode}\n{child.stderr}", end="")
                return 1
            texts[seed] = child.stdout
    if texts["0"] != texts["1"]:
        lines = zip_longest(texts["0"].splitlines(True), texts["1"].splitlines(True))
        i, (a, b) = next((i, p) for i, p in enumerate(lines, 1) if p[0] != p[1])
        print(f"the reports differ under hash seeds 0 and 1, first at line {i}: {a!r} {b!r}")
        return 1
    digest = hashlib.sha256(texts["0"].encode()).hexdigest()
    if digest != DIGEST:
        print(f"the reports' sha256 is {digest}, not the pinned {DIGEST}")
        return 1
    print(f"every one of {REPORTS} reports is the same under hash seeds 0 and 1, sha256 {DIGEST}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1:
        n = print_reports(Path(sys.argv[1]))
        print(f"{n} reports", file=sys.stderr)
        sys.exit(0 if n == REPORTS else 1)
    sys.exit(compare())
