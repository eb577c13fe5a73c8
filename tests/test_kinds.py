"""The table of data-type kinds, adt.KINDS: each row drives the adt line's
parser and printer, the spec's parameter checks, the operation set and the
backends that accept the kind's machines."""

import dataclasses

import pytest

from tsoreach import dsl, solvers
from tsoreach.adt import KINDS, AdtError, AdtSpec, PetriTransition
from tsoreach.dsl import DslError, parse_adt_line, print_adt
from tsoreach.model import ModelError, RegisterMachine

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

PARAMS = [(kind, p) for kind, row in KINDS.items() for p in row.params]


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
                      *(f"{p} {'NAMES' if p == 'alphabet' else 'N'}" for p in row.params)])
            for kind, row in KINDS.items()]
    assert alternatives[:-1] == want[:-1]
    assert alternatives[-1].startswith("petri places NAMES")


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "petri"])
def test_token_that_names_no_parameter(kind):
    word, *params = _declaration(kind)
    assert _error(" ".join([word, "extra", *params])) == (
        f"line 1: adt {word} has no parameter 'extra'")


@pytest.mark.parametrize("kind", [k for k, row in KINDS.items() if len(row.params) == 2])
def test_parameters_out_of_order(kind):
    word, *toks = _declaration(kind)
    first, second = KINDS[kind][0]
    i = toks.index(second)
    order = f"{first} ... {second} ..."
    assert _error(" ".join([word, *toks[i:], *toks[:i]])) == (
        f"line 1: adt {word} parameters out of order: want '{order}'")


# a value of every field a spec may carry besides its kind; the last three
# declare a net, which only petri takes
FIELDS = {"alphabet": ("a",), "level": 2, "count": 2, "places": ("p",),
          "transitions": (PetriTransition("t", (), ()),), "initial_marking": (("p", 1),)}
FOREIGN = [(kind, field) for kind, row in KINDS.items() for field in FIELDS
           if field not in row.params and (kind != "petri" or field in ("alphabet", "level", "count"))]


@pytest.mark.parametrize("kind, field", FOREIGN)
def test_a_field_the_row_does_not_name_is_rejected(kind, field):
    # a net's fields would otherwise add its transitions to op_universe
    with pytest.raises(AdtError, match=f"^{kind} (takes no|{field} must be 1$)"):
        dataclasses.replace(SPECS[kind][0], **{field: FIELDS[field]})


# kind -> the solve_* functions solve_auto calls on it, in order
AUTO = {
    "trivial": ["solve_finite"],
    "counter": ["solve_counter", "solve_stack"],
    "weak-counter": ["solve_counter", "solve_stack"],
    "stack": ["solve_stack"],
    "ho-stack": ["explore_bounded"],
    "ho-counter": ["explore_bounded"],
    "ho-weak-counter": ["explore_bounded"],
    "multi-stack": ["explore_bounded"],
    "petri": ["solve_petri"],
}

# --backend -> the kinds it accepts
ACCEPTS = {
    "finite": ["trivial", "counter", "weak-counter", "stack", "ho-stack", "ho-counter",
               "ho-weak-counter", "multi-stack", "petri"],
    "counter": ["counter", "weak-counter"],
    "stack": ["counter", "weak-counter", "stack"],
    "petri": ["petri"],
    "wsts": ["trivial", "weak-counter", "petri"],
    "bounded": ["trivial", "counter", "weak-counter", "stack", "ho-stack", "ho-counter",
                "ho-weak-counter", "multi-stack", "petri"],
}

# --backend -> how it rejects the other kinds
REJECTS = {
    "counter": "solve_counter needs a counter or weak-counter machine",
    "stack": "solve_stack needs a stack or counter machine",
    "petri": "solve_petri needs a petri machine",
    "wsts": "solve_wsts needs a monotone well-structured data type, not {kind}",
}

SOLVERS = ["solve_finite", "solve_counter", "solve_stack", "solve_petri", "solve_wsts",
           "explore_bounded"]


def _one_edge(kind: str) -> RegisterMachine:
    """A machine whose one edge, into the target, is kind's first operation."""
    spec = SPECS[kind][0]
    return RegisterMachine("M", ("a", "t"), "a", "t", (), 0, spec,
                           (("a", spec.op_universe()[0], "t"),))


def test_the_backend_table_names_every_backend():
    assert ["auto", *ACCEPTS] == list(solvers.BACKENDS)


@pytest.mark.parametrize("backend", solvers.BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_backend_accepts_or_rejects_the_kind(kind, backend):
    rm = _one_edge(kind)
    if backend == "auto" or kind in ACCEPTS[backend]:
        # the net of SPECS starts with no token, so its transition t never
        # fires; every other first operation is enabled at the initial value
        want = "unreachable" if kind == "petri" else "reachable"
        assert solvers.solve_auto(rm, backend=backend).outcome == want
    else:
        with pytest.raises(ModelError) as e:
            solvers.solve_auto(rm, backend=backend)
        assert str(e.value) == REJECTS[backend].format(kind=kind)


@pytest.mark.parametrize("kind", KINDS)
def test_auto_routes_the_kind(kind, monkeypatch):
    calls = []

    def spy(name):
        real = getattr(solvers, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in SOLVERS:
        monkeypatch.setattr(solvers, name, spy(name))
    solvers.solve_auto(_one_edge(kind))
    assert calls == AUTO[kind]
