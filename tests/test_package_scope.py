"""``src/tsoreach`` holds only what the command line runs.

The test runs ``cli.main`` in-process under ``sys.setprofile`` over fixed
inputs that reach every subcommand, every ``--backend``, every ``gen``
kind and tiers 1-3, plus one malformed file, one usage error and one -h.
Every function defined in ``src/tsoreach/*.py`` must be called, except for the
entries of ``ALLOWED``, each with its reason.  A test-only oracle or entry
point belongs in ``tests/helpers.py`` instead.

Called code objects are matched to the AST by file and first line; for a
decorated ``def`` that line is its first decorator's (``co_qualname``,
which would name them directly, needs Python 3.11).
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import tsoreach
from tsoreach import cli

PACKAGE = Path(tsoreach.__file__).parent

# function -> why the command line never calls it
ALLOWED = {
    "translate.encode_rm_to_coverability_labelled":
        "perfbench/tracing.py patches this name in solvers, and "
        "tests/helpers.py's petri_net_backward builds on it",
    "translate.encode_rm_to_coverability_labelled.add":
        "the inner helper of encode_rm_to_coverability_labelled",
    "translate._fresh_prefix":
        "called only by encode_rm_to_coverability_labelled",
    "pds.RulesOnDemand.rules":
        "read only by perfbench/tracing.py's pds.rules counter",
    "coverability.backward_reach.snapshot":
        "records the antichain history the acceptance tests check",
}

# a trivial program, reachable with two processes: one writes x, the other
# reads it after a fence and a skip
PROGRAM = """\
memory vars x,y domain 0..1
process P
state q0 init
state q1
state q2
state qf target
trans q0 -> q1 : wr x 1
trans q1 -> q2 : mf
trans q2 -> q2 : skip
trans q0 -> q2 : rd y 0
trans q2 -> qf : rd x 1
"""

COUNTER_PROGRAM = """\
memory vars x domain 0..1
adt counter
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : op inc
trans q1 -> q0 : wr x 1
trans q1 -> qf : op dec
trans q0 -> qf : op iszero
"""

# the counter program over a weak counter, which has no iszero: the
# backward coverability search of --backend wsts computes a counter's
# pre-images only on this type
WEAK_COUNTER_PROGRAM = COUNTER_PROGRAM.replace("adt counter", "adt weakcounter").replace(
    "trans q0 -> qf : op iszero\n", "")

PETRI_PROGRAM = """\
memory vars x domain 0..1
adt petri places p,q transitions t: p -> q ; u: q -> p,p initial p
process P
state q0 init
state qf target
trans q0 -> q0 : op t
trans q0 -> q0 : op u
trans q0 -> qf : rd x 1
trans q0 -> q0 : wr x 1
"""

# every tier-III action, and a comparison of two literals; the comment
# makes the last line a raw row of dsl's reader, not a split one
TIER3_MACHINE = """\
machine M
registers r,s bound 2
state a init
state b
state c target
trans a -> b : set r 2
trans b -> c : cke r s
trans b -> b : inc s
trans b -> a : ckz r
trans a -> c : ckl 1 2  # two literals
"""

AUTOMATA = """\
pda K alphabet a,b stack A
state k0 init accept
trans k0 a [-/A] -> k0
trans k0 b [A/-] -> k0
fsa F alphabet a,b
state f0 init accept
trans f0 a -> f0
trans f0 b -> f0
"""

# a register the machine does not declare
MALFORMED = """\
machine M
registers r bound 1
state a init
state b target
trans a -> b : write s 1
"""

ADTS = ["stack alphabet a,b", "hostack level 2 alphabet a", "hocounter level 2",
        "howeakcounter level 2", "multistack count 2 alphabet a", "weakcounter"]

INPUTS = {"p.tso": PROGRAM, "pc.tso": COUNTER_PROGRAM, "pw.tso": WEAK_COUNTER_PROGRAM,
          "pp.tso": PETRI_PROGRAM,
          "m3.tso": TIER3_MACHINE, "a.aut": AUTOMATA, "bad.tso": MALFORMED}

OK = (0,)
VERDICT = (0, 1, 2)


def _runs(d: Path):
    """(argv, the exit codes allowed) in order; a run may read a file an
    earlier one wrote."""
    def f(name):
        return str(d / name)

    lines = ["--format", "lines"]
    yield ["gen", "--kind", "machine", "--out", f("m1.tso")], OK
    yield ["gen", "--kind", "machine", "--tier", "2"], OK
    yield ["gen", "--kind", "machine", "--tier", "3", "--seed", "1"], OK
    yield ["gen", "--kind", "counter-machine", "--out", f("cm.tso")], OK
    yield ["gen", "--kind", "stack-machine", "--states", "8", "--out", f("sm.tso")], OK
    yield ["gen", "--kind", "net", "--out", f("net.tso")], OK
    yield ["gen", "--kind", "intersection", "--out", f("i0.tso")], OK
    yield ["gen", "--kind", "intersection", "--automata", f("a.aut"), "--out", f("ia.tso")], OK
    for i, adt in enumerate(ADTS):
        yield ["gen", "--kind", "program", "--adt", adt, "--seed", str(i),
               "--out", f(f"g{i}.tso")], OK
        yield ["check", f(f"g{i}.tso"), *lines], VERDICT
    yield ["check", f("p.tso")], OK
    yield ["pivot", f("p.tso"), *lines], OK
    yield ["oracle", f("p.tso"), *lines], OK
    yield ["crosscheck", f("p.tso")], OK
    yield ["translate", f("p.tso")], OK
    yield ["check", f("pc.tso"), "--backend", "counter"], VERDICT
    yield ["check", f("pw.tso"), "--backend", "wsts"], VERDICT
    for backend in ("petri", "wsts", "bounded"):
        yield ["check", f("pp.tso"), "--backend", backend], VERDICT
    yield ["check", f("m1.tso"), "--backend", "finite"], VERDICT
    yield ["check", f("sm.tso"), "--backend", "stack"], VERDICT
    for name in ("cm.tso", "net.tso", "i0.tso", "ia.tso"):
        yield ["check", f(name), *lines], VERDICT
    yield ["lower", f("m3.tso"), "--to", "2"], OK
    yield ["lower", f("m3.tso"), "--out", f("low.tso")], OK
    yield ["translate", f("low.tso")], OK
    yield ["check", f("bad.tso")], (3,)
    yield ["check", f("p.tso"), "--no-such-flag"], (4,)
    yield ["check", "-h"], OK


def _functions():
    """(file, first line) -> dotted name of every def in the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        real = os.path.realpath(path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[real, line] = prefix + child.name
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, path.stem + ".")
    return out


def _called(runs):
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv, _ in runs:
            sys.setprofile(profile)
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
            finally:
                sys.setprofile(None)
            codes.append(code)
    return {(os.path.realpath(filename), line) for filename, line in seen}, codes


def test_every_package_function_runs_under_the_cli(tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    runs = list(_runs(tmp_path))
    called, codes = _called(runs)
    for (argv, allowed), code in zip(runs, codes):
        assert code in allowed, argv
    uncalled = {name for key, name in _functions().items() if key not in called}
    assert uncalled == set(ALLOWED)
