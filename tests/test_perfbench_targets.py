"""The benchmark's per-layer tracer must find every function it wraps.

``perfbench/tracing.py`` patches entry points by module and attribute name
(``PATCHES``); a refactor that renames or inlines one of them would
silently drop that layer from the ``--trace 1`` report.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tsoreach.cli  # noqa: F401  (imports every module the tracer patches)
from tsoreach.dsl import parse_program, print_machine
from tsoreach.translate import build_register_machine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("span", sorted(tracing.PATCHES))
def test_patch_target_resolves(span):
    module, attr = tracing.PATCHES[span]
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_check_counts_rm_steps(tmp_path, capsys):
    # the search must step through the name the tracer patches; check on a
    # program runs the pivot search first, so it is fed the translated machine
    prog = parse_program("""\
memory vars x domain 0..1
adt trivial
process P
state q0 init
state q1
state qf target
trans q0 -> q1 : wr x 1
trans q0 -> qf : rd x 1
""")
    path = tmp_path / "m.tso"
    path.write_text(print_machine(build_register_machine(prog.proc, prog.mem, prog.adt)))
    tracer = tracing.Tracer()
    with tracer.patched():
        assert tsoreach.cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert tracer.calls["model.rm_step"] > 0
    assert tracer.calls["solvers.finite"] == 1


def test_traced_check_times_the_stack_saturation(tmp_path, capsys):
    # solve_stack must saturate and unwind its witness through the names the
    # tracer patches, so pds.pre_star_ms and pds.witness_ms keep their spans
    import random

    from tsoreach.gen import random_stack_machine

    path = tmp_path / "stack.rm"
    path.write_text(print_machine(random_stack_machine(random.Random(1), 40)))
    tracer = tracing.Tracer()
    with tracer.patched():
        assert tsoreach.cli.main(["check", str(path)]) == 0
    capsys.readouterr()
    assert tracer.calls["pds.pre_star"] == 1
    assert tracer.calls["pds.witness"] == 1
    assert tracer.counts["pds.transitions"] > 0
