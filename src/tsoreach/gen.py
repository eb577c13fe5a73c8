"""Seeded random families and fixed fixtures for benchmarks and tests.

All generators draw from a caller-supplied random.Random so identical
seeds give identical instances.
"""

from __future__ import annotations

import random

from .adt import AdtOp, AdtSpec, PetriTransition, mk_marking, trivial_spec
from .automata import CoverabilityInstance, FiniteAutomaton, PushdownAutomaton
from .model import (
    ACTION_SHAPES,
    Instruction,
    MemorySpec,
    ProcessDescription,
    RegisterAction,
    RegisterMachine,
)


def _pick_op(rng: random.Random, adt: AdtSpec) -> AdtOp | None:
    ops = [op for op in adt.op_universe() if op.name != "reset"]
    if not ops:
        return None
    return rng.choice(ops)


def random_program(
    rng: random.Random,
    n_states: int = 4,
    n_vars: int = 2,
    d_max: int = 1,
    adt: AdtSpec | None = None,
    edge_factor: float = 2.0,
    op_weight: int = 0,
) -> tuple[MemorySpec, AdtSpec, ProcessDescription]:
    """A random process over fresh memory; the last state is the target."""
    adt = adt or trivial_spec()
    mem = MemorySpec(
        variables=tuple(f"x{i}" for i in range(n_vars)), d_max=d_max
    )
    states = tuple(f"q{i}" for i in range(n_states))
    n_edges = max(1, int(edge_factor * n_states))
    weights = [30, 30, 20, 10, op_weight]  # wr, rd, skip, mf, op
    delta = []
    for _ in range(n_edges):
        q = rng.choice(states)
        q2 = rng.choice(states)
        kind = rng.choices(["wr", "rd", "skip", "mf", "op"], weights=weights)[0]
        if kind in ("wr", "rd"):
            instr = Instruction(
                kind, var=rng.choice(mem.variables), val=rng.randrange(d_max + 1)
            )
        elif kind == "op":
            op = _pick_op(rng, adt)
            if op is None:
                instr = Instruction("skip")
            else:
                instr = Instruction("op", op=op)
        else:
            instr = Instruction(kind)
        delta.append((q, instr, q2))
    proc = ProcessDescription(
        name="P",
        states=states,
        q_init=states[0],
        q_final=states[-1],
        delta=tuple(delta),
    )
    return mem, adt, proc


def random_machine(
    rng: random.Random,
    n_states: int = 5,
    n_regs: int = 2,
    bound: int = 2,
    adt: AdtSpec | None = None,
    tier: int = 1,
    edge_factor: float = 2.0,
    op_weight: int = 0,
) -> RegisterMachine:
    """A random register machine; the last state is the target."""
    adt = adt or trivial_spec()
    states = tuple(f"q{i}" for i in range(n_states))
    registers = tuple(f"r{i}" for i in range(n_regs))
    n_edges = max(1, int(edge_factor * n_states))
    kinds = [kind for kind, (t, _) in ACTION_SHAPES.items() if t <= tier]

    def draw(role: str) -> str | int:
        if role == "V":
            role = "R" if rng.random() < 0.5 else "N"
        return rng.randrange(bound + 1) if role == "N" else rng.choice(registers)

    delta = []
    for _ in range(n_edges):
        q, q2 = rng.choice(states), rng.choice(states)
        if op_weight and rng.randrange(100) < op_weight:
            op = _pick_op(rng, adt)
            if op is not None:
                delta.append((q, op, q2))
                continue
        kind = rng.choice(kinds if registers else ("skp",))
        act = RegisterAction(kind, *[draw(role) for role in ACTION_SHAPES[kind][1]])
        delta.append((q, act, q2))
    return RegisterMachine(
        name="M",
        states=states,
        q_init=states[0],
        q_target=states[-1],
        registers=registers,
        bound=bound,
        adt=adt,
        delta=tuple(delta),
    )


def random_counter_machine(rng: random.Random) -> RegisterMachine:
    """Small tier-I counter machines: states times register assignments,
    |Q| * (bound+1)^|R|, stays at or below 8.
    """
    shapes = [(rng.randrange(2, 9), 0, 0), (rng.randrange(2, 5), 1, 1), (2, 2, 1)]
    n_states, n_regs, bound = rng.choice(shapes)
    return random_machine(
        rng,
        n_states=n_states,
        n_regs=n_regs,
        bound=bound,
        adt=AdtSpec(kind="counter"),
        tier=1,
        edge_factor=2.2,
        op_weight=55,
    )


def random_stack_machine(rng: random.Random, n_states: int = 5) -> RegisterMachine:
    return random_machine(
        rng,
        n_states=n_states,
        n_regs=rng.randrange(0, 2),
        bound=1,
        adt=AdtSpec(kind="stack", alphabet=("a", "b")),
        tier=1,
        edge_factor=2.4,
        op_weight=65,
    )


def random_net(rng: random.Random) -> CoverabilityInstance:
    """A small random net, 1-3 places and 1-3 transitions, with a random
    coverability target of 1-2 tokens."""
    places = tuple(f"p{i}" for i in range(rng.randrange(1, 4)))
    transitions = []
    for i in range(rng.randrange(1, 4)):
        ins = {p: rng.randrange(0, 2) for p in places}
        outs = {p: rng.randrange(0, 2) for p in places}
        if rng.random() < 0.2:
            outs[rng.choice(places)] = 2
        transitions.append(
            PetriTransition(f"t{i}", mk_marking(ins), mk_marking(outs))
        )
    initial = mk_marking({p: rng.randrange(0, 2) for p in places})
    target = mk_marking({rng.choice(places): rng.randrange(1, 3)})
    return CoverabilityInstance(
        places=places,
        transitions=tuple(transitions),
        initial=initial,
        target=target,
    )


# ---------------------------------------------------------------------------
# Intersection fixtures: L(K) = { a^n b^n c : n >= 1 } against six FSAs


def anbnc_pda() -> PushdownAutomaton:
    return PushdownAutomaton(
        name="anbnc",
        states=("s", "p", "q", "f"),
        initial="s",
        accepting=("f",),
        alphabet=("a", "b", "c"),
        stack_alphabet=("A", "Z"),
        transitions=(
            ("s", "a", None, "p", ("Z", "A")),
            ("p", "a", None, "p", ("A",)),
            ("p", "b", "A", "q", ()),
            ("q", "b", "A", "q", ()),
            ("q", "c", "Z", "f", ()),
        ),
    )


def _fsa_all() -> FiniteAutomaton:
    sigma = ("a", "b", "c")
    return FiniteAutomaton(
        "all", ("u",), "u", ("u",), sigma, tuple(("u", s, "u") for s in sigma)
    )


def _fsa_no_b() -> FiniteAutomaton:
    return FiniteAutomaton(
        "nob", ("u",), "u", ("u",), ("a", "b", "c"), (("u", "a", "u"), ("u", "c", "u"))
    )


def _fsa_max_one_a() -> FiniteAutomaton:
    sigma = ("a", "b", "c")
    return FiniteAutomaton(
        "onea",
        ("u", "v"),
        "u",
        ("u", "v"),
        sigma,
        (
            ("u", "a", "v"),
            ("u", "b", "u"), ("u", "c", "u"),
            ("v", "b", "v"), ("v", "c", "v"),
        ),
    )


def _fsa_ends_in_a() -> FiniteAutomaton:
    sigma = ("a", "b", "c")
    trans = [("u", "a", "v"), ("u", "b", "u"), ("u", "c", "u"),
             ("v", "a", "v"), ("v", "b", "u"), ("v", "c", "u")]
    return FiniteAutomaton("endsa", ("u", "v"), "u", ("v",), sigma, tuple(trans))


def _fsa_even_length() -> FiniteAutomaton:
    sigma = ("a", "b", "c")
    trans = [("e", s, "o") for s in sigma] + [("o", s, "e") for s in sigma]
    return FiniteAutomaton("even", ("e", "o"), "e", ("e",), sigma, tuple(trans))


def intersection_fixtures():
    """Six fixtures: three nonempty and three empty intersections.

    Every fixture intersects { a^n b^n c : n >= 1 } with one FSA; a^1 b^1 c
    has odd length 3 and a^2 b^2 c has length 5, which decides the length
    based fixtures.
    """
    return (
        ("all_words", anbnc_pda(), (_fsa_all(),), True),
        ("at_most_one_a", anbnc_pda(), (_fsa_max_one_a(),), True),  # abc
        ("two_fsas", anbnc_pda(), (_fsa_all(), _fsa_max_one_a()), True),
        ("no_b", anbnc_pda(), (_fsa_no_b(),), False),
        ("ends_in_a", anbnc_pda(), (_fsa_ends_in_a(),), False),  # all end in c
        ("even_length", anbnc_pda(), (_fsa_even_length(),), False),  # 2n+1 is odd
    )
