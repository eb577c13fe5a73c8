"""``cli._parse`` reads every argv as argparse reads it.

The reference is the argparse parser in ``helpers``, built from the same
``cli._SUBCOMMANDS`` and ``cli._FLAGS`` tables.  Seeded argv over every
subcommand mix the subcommand's own flags with other subcommands' flags,
``--flag=value``, unique and ambiguous prefixes, missing values, bad ints
and bad choices, negative numbers, ``--``, stray values and ``-h`` in
various places.  An argv both accept must give equal attributes; one both
reject must make ``cli.main`` exit 4 with the reference's last stderr
line; ``-h`` must print the help of the same parser and exit 0.  Run as a
script with a count,

    PYTHONPATH=src python tests/test_cli_argv.py 20000

the campaign runs that many argv and exits 1 on any difference.  The
reference is argparse as Python 3.10-3.12 ship it; 3.13 reads ``-h`` with
an attached value otherwise (``-hx`` prints help, ``-h=h`` is an error).
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from collections import Counter

import pytest

from helpers import reference_parser
from tsoreach import cli

SUBCOMMANDS = list(cli._SUBCOMMANDS)
OWN = {name: flags.split() for name, (_, flags) in cli._SUBCOMMANDS.items()}
GOOD_INTS = ["0", "1", "2", "7", "-1", "-0", "1000000", "+3", " 4", "1_0"]
BAD_INTS = ["x", "1.5", "", "0x1", "-.5", "1e3", "--", "- 1"]
STRAYS = ["f", "g", "-", "", "x y", "-x y", "--bud 3", "-3x", "-1", "-.5", "-2.5"]
UNKNOWN = ["--no-such", "-x", "--=x", "---", "--bogus=1", "-=", "--count", "--reverse"]
HELPS = ["-h", "--help", "--he", "--h", "-hh", "-hx", "-h=h", "-h=", "--help=", "--help=h"]
# every usage error the parsers give
MESSAGES = ("ambiguous option", "expected one argument", "invalid int value", "invalid choice",
            "unrecognized arguments", "arguments are required", "ignored explicit argument")


def _good(flag: str) -> list[str]:
    spec = cli._FLAGS[flag]
    if "choices" in spec:
        return [str(c) for c in spec["choices"]]
    if "type" in spec:
        return GOOD_INTS
    return ["counter", "o.txt", "stack alphabet a", "-1", "--"]


def _bad(flag: str) -> list[str]:
    spec = cli._FLAGS[flag]
    bad = BAD_INTS if "type" in spec else []
    return bad + (["nope", "Text", "3", "0"] if "choices" in spec else [])


def _prefix(rng: random.Random, flag: str) -> str:
    return flag[:rng.randint(3, len(flag))]


def _given(rng: random.Random, flag: str, value: str) -> list[str]:
    """flag and value as one arg or two, the flag perhaps a prefix."""
    if rng.random() < 0.3:
        flag = _prefix(rng, flag)
    return [f"{flag}={value}"] if rng.random() < 0.3 else [flag, value]


def _token(rng: random.Random, own: list[str]) -> list[str]:
    r = rng.random()
    if r < 0.45:
        flag = rng.choice(own)
        return _given(rng, flag, rng.choice(_good(flag)))
    if r < 0.55:
        flag = rng.choice([f for f in own if _bad(f)] or own)
        return _given(rng, flag, rng.choice(_bad(flag) or ["x"]))
    if r < 0.63:
        flag = rng.choice([f for f in cli._FLAGS if f not in own])
        return _given(rng, flag, rng.choice(_good(flag)))
    if r < 0.70:
        return [rng.choice(own)]  # a value missing unless a value follows
    if r < 0.80:
        return [rng.choice(STRAYS + ["--"])]
    if r < 0.88:
        return [rng.choice(UNKNOWN)]
    if r < 0.93:
        return [rng.choice(HELPS)]
    return [_prefix(rng, rng.choice(own))]


def random_argv(rng: random.Random) -> list[str]:
    argv: list[str] = []
    if rng.random() < 0.06:
        argv += rng.choice([["-h"], ["--x"], ["--x", "3"], ["--"], ["-hx"], [], ["nope"], ["-5"]])
    if rng.random() < 0.98:
        argv.append(rng.choice(SUBCOMMANDS))
    sub = argv[-1] if argv and argv[-1] in OWN else rng.choice(SUBCOMMANDS)
    own = OWN[sub]
    clean = rng.random() < 0.4  # only the subcommand's own flags, good values
    body: list[str] = []
    for _ in range(rng.randint(0, 5)):
        if clean:
            flag = rng.choice(own)
            body += _given(rng, flag, rng.choice(_good(flag)))
        else:
            body += _token(rng, own)
    needed = ["--kind", rng.choice(_good("--kind"))] if sub == "gen" else ["p.tso"]
    if rng.random() < 0.92:
        k = rng.randint(0, len(body))
        body[k:k] = needed
    return argv + body


def _outcome(parse, argv: list[str]):
    """('accepted', attributes), ('help', the parser's name) or ('exit',
    code, the last line of stderr); a rejected argv runs cli.main when
    parse is cli._parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "accepted", vars(parse(argv))
        except SystemExit as e:
            if e.code == 0:
                words = out.getvalue().split()
                return "help", words[2] if words[2] in OWN else None
            return "exit", e.code, err.getvalue().splitlines()[-1]
        except cli._ArgvError:
            code = cli.main(argv)
    return "exit", code, err.getvalue().splitlines()[-1]


def differences(n: int, seed: int):
    """The argv of n seeded draws that cli._parse reads otherwise than the
    reference, and how many it accepted, helped with and rejected, and with
    each of MESSAGES."""
    rng = random.Random(seed)
    reference = reference_parser().parse_args
    differ, counts = [], Counter()
    for k in range(n):
        argv = random_argv(rng)
        got = _outcome(cli._parse, argv)
        if got != _outcome(reference, argv) or got[0] == "exit" and got[1] != cli.EXIT_USAGE:
            differ.append(f"argv {k}: {argv!r}: {got!r}")
        counts[got[0]] += 1
        if got[0] == "exit":
            counts.update(m for m in MESSAGES if m in got[2])
    return differ, counts


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 reads -hx otherwise")
def test_argv_read_as_argparse_reads_it():
    differ, counts = differences(2000, seed=28)
    assert differ == []
    assert counts["accepted"] > 400 and counts["exit"] > 400 and counts["help"] > 40, counts
    assert all(counts[m] > 10 for m in MESSAGES), counts


if __name__ == "__main__":
    n = int(sys.argv[1])
    differ, counts = differences(n, seed=1)
    print(*differ[:20], sep="\n")
    print(f"{len(differ)} of {n} argv differ from the argparse reference "
          f"({counts['accepted']} accepted, {counts['help']} help, {counts['exit']} rejected)")
    sys.exit(1 if differ else 0)
