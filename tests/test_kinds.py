"""The table of data-type kinds, adt.KINDS: each row drives the adt line's
parser and printer, the spec's parameter checks and the operation set."""

import pytest

from tsoreach import dsl
from tsoreach.adt import KINDS, AdtSpec, PetriTransition
from tsoreach.dsl import DslError, parse_adt_line, print_adt

# one spec per kind, naming every parameter of its row, with its operations
# in op_universe order: gen draws from that order
SPECS = {
    "trivial": (AdtSpec("trivial"), ["reset"]),
    "counter": (AdtSpec("counter"), ["inc", "dec", "iszero", "reset"]),
    "weak-counter": (AdtSpec("weak-counter"), ["inc", "dec", "reset"]),
    "stack": (AdtSpec("stack", alphabet=("a", "b")),
              ["push a", "pop a", "push b", "pop b", "isempty", "reset"]),
    "ho-stack": (AdtSpec("ho-stack", alphabet=("a", "b"), level=3),
                 ["push a", "pop a", "push b", "pop b", "isempty",
                  "pushk 2", "popk 2", "isemptyk 2", "pushk 3", "popk 3", "isemptyk 3",
                  "reset"]),
    "ho-counter": (AdtSpec("ho-counter", level=2),
                   ["inc", "dec", "iszero", "inck 2", "deck 2", "iszerok 2", "reset"]),
    "ho-weak-counter": (AdtSpec("ho-weak-counter", level=3),
                        ["inc", "dec", "inck 2", "deck 2", "inck 3", "deck 3", "reset"]),
    "multi-stack": (AdtSpec("multi-stack", alphabet=("a", "b"), count=2),
                    ["push1 a", "pop1 a", "push1 b", "pop1 b", "isempty1",
                     "push2 a", "pop2 a", "push2 b", "pop2 b", "isempty2", "reset"]),
    "petri": (AdtSpec("petri", places=("p", "q"),
                      transitions=(PetriTransition("t", (("p", 1),), (("q", 2),)),
                                   PetriTransition("u", (("q", 1),), ()))),
              ["t", "u", "reset"]),
}

PARAMS = [(kind, p) for kind, (params, _) in KINDS.items() for p in params]


def _declaration(kind: str) -> list[str]:
    """The tokens of kind's adt line after 'adt'."""
    return print_adt(SPECS[kind][0]).split()[1:]


def _error(text: str) -> str:
    with pytest.raises(DslError) as e:
        parse_adt_line(text, 1)
    return str(e.value)


def test_every_kind_has_a_spec():
    assert list(SPECS) == list(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_declaration_round_trips(kind):
    assert parse_adt_line(" ".join(_declaration(kind)), 1) == SPECS[kind][0]


def test_weak_counter_keeps_its_hyphenated_keyword():
    assert parse_adt_line("weak-counter", 1) == AdtSpec("weak-counter")


@pytest.mark.parametrize("kind, param", PARAMS)
def test_missing_parameter_is_named(kind, param):
    toks = _declaration(kind)
    i = toks.index(param)
    word = toks[0]
    assert _error(" ".join(toks[:i] + toks[i + 2:])) == f"line 1: adt {word} needs '{param} ...'"


@pytest.mark.parametrize("kind, param", [(k, p) for k, p in PARAMS if p != "alphabet"])
def test_parameter_that_is_no_integer(kind, param):
    toks = _declaration(kind)
    toks[toks.index(param) + 1] = "x"
    assert _error(" ".join(toks)) == f"line 1: expected integer for {param}, got 'x'"


@pytest.mark.parametrize("kind", KINDS)
def test_operations_in_draw_order(kind):
    spec, ops = SPECS[kind]
    assert [str(op) for op in spec.op_universe()] == ops


def test_dsl_docstring_lists_the_table():
    # the KIND alternatives of the grammar, NAMES for an alphabet and N for
    # a level or count; petri's adt line has a grammar of its own
    block = dsl.__doc__.split("    KIND ", 1)[1].split("\n\n", 1)[0]
    alternatives = [" ".join(alt.split()) for alt in block.split("|")]
    want = [" ".join([kind.replace("-", ""),
                      *(f"{p} {'NAMES' if p == 'alphabet' else 'N'}" for p in params)])
            for kind, (params, _) in KINDS.items()]
    assert alternatives[:-1] == want[:-1]
    assert alternatives[-1].startswith("petri places NAMES")


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "petri"])
def test_token_that_names_no_parameter(kind):
    word, *params = _declaration(kind)
    assert _error(" ".join([word, "extra", *params])) == (
        f"line 1: adt {word} has no parameter 'extra'")


@pytest.mark.parametrize("kind", [k for k, (params, _) in KINDS.items() if len(params) == 2])
def test_parameters_out_of_order(kind):
    word, *toks = _declaration(kind)
    first, second = KINDS[kind][0]
    i = toks.index(second)
    order = f"{first} ... {second} ..."
    assert _error(" ".join([word, *toks[i:], *toks[:i]])) == (
        f"line 1: adt {word} parameters out of order: want '{order}'")
