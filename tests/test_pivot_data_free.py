"""The pivot search's data-free level on generated programs.

A pivot search that pruned values runs again without data; each search
counts explored + 1 iterations, so a verdict with iterations equal to
explored + 2 was decided by the data-free search."""

import pytest

from tsoreach.cli import main


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("adt", ["counter", "weakcounter", "stack alphabet a,b"])
def test_data_free_level_agrees_with_crosscheck(tmp_path, capsys, adt):
    path = tmp_path / "p.tso"
    decided = 0
    for seed in range(30):
        _run(capsys, "gen", "--kind", "program", "--adt", adt, "--seed", seed, "--out", path)
        code, out = _run(capsys, "crosscheck", path)
        assert code != 5, (seed, out)
        _, out = _run(capsys, "pivot", path, "--format", "lines")
        report = dict(line.split(": ", 1) for line in out.splitlines())
        decided += (report["verdict"] == "unreachable"
                    and int(report["iterations"]) == int(report["explored"]) + 2)
    assert decided >= 1
