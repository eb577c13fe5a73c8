"""Finite and pushdown automata, plus coverability instances.

These are the input/output shapes of the benchmark encodings: language
intersection emptiness feeds the stack backend, coverability instances feed
the Petri backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adt import AdtSpec, Marking, PetriTransition


class AutomatonError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteAutomaton:
    name: str
    states: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    alphabet: tuple[str, ...]
    # (q, sigma, q')
    transitions: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        declared = set(self.states)
        if self.initial not in declared:
            raise AutomatonError(f"initial state {self.initial} undeclared")
        for f in self.accepting:
            if f not in declared:
                raise AutomatonError(f"accepting state {f} undeclared")
        for q, a, q2 in self.transitions:
            if q not in declared or q2 not in declared:
                raise AutomatonError(f"endpoint undeclared: {q} -{a}-> {q2}")
            if a not in self.alphabet:
                raise AutomatonError(f"symbol {a} undeclared")


@dataclass(frozen=True)
class PushdownAutomaton:
    """PDA accepting by final state.

    A transition (q1, sigma, gamma, q2, w) reads sigma, pops gamma (or
    nothing when gamma is None) and pushes the symbols of w left to right,
    so the last symbol of w ends up topmost.
    """

    name: str
    states: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    alphabet: tuple[str, ...]
    stack_alphabet: tuple[str, ...]
    transitions: tuple[tuple[str, str, str | None, str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        declared = set(self.states)
        if self.initial not in declared:
            raise AutomatonError(f"initial state {self.initial} undeclared")
        for f in self.accepting:
            if f not in declared:
                raise AutomatonError(f"accepting state {f} undeclared")
        for q, a, g, q2, w in self.transitions:
            if q not in declared or q2 not in declared:
                raise AutomatonError(f"endpoint undeclared: {q} -> {q2}")
            if a not in self.alphabet:
                raise AutomatonError(f"symbol {a} undeclared")
            if g is not None and g not in self.stack_alphabet:
                raise AutomatonError(f"stack symbol {g} undeclared")
            for s in w:
                if s not in self.stack_alphabet:
                    raise AutomatonError(f"stack symbol {s} undeclared")


@dataclass(frozen=True)
class CoverabilityInstance:
    """A net, an initial marking, and a target marking to cover."""

    places: tuple[str, ...]
    transitions: tuple[PetriTransition, ...]
    initial: Marking
    target: Marking

    def __post_init__(self) -> None:
        declared = set(self.places)
        for t in self.transitions:
            for p, _ in t.inputs + t.outputs:
                if p not in declared:
                    raise AutomatonError(f"transition {t.name} uses undeclared {p}")
        for p, _ in self.initial + self.target:
            if p not in declared:
                raise AutomatonError(f"marking uses undeclared place {p}")

    def adt_spec(self) -> AdtSpec:
        return AdtSpec(
            kind="petri",
            places=self.places,
            transitions=self.transitions,
            initial_marking=self.initial,
        )
