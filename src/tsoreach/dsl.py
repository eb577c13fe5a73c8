"""Line-oriented text format for programs, machines, automata and nets.

Every construct sits on one line; '#' starts a comment.  A program file
holds a `memory` line, an `adt` line and one `process` section; a machine
file holds an `adt` line and one `machine` section with a `registers` line.
Automata files hold `fsa`/`pda` sections; a net plus a `cover` line forms a
coverability instance.
"""

from __future__ import annotations

import re

from .adt import AdtOp, AdtSpec, Marking, PetriTransition, mk_marking, trivial_spec
from .automata import CoverabilityInstance, FiniteAutomaton, PushdownAutomaton
from .model import (
    Instruction,
    MemorySpec,
    ProcessDescription,
    Program,
    RegisterAction,
    RegisterMachine,
    validate_program,
)

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class DslError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _check_name(tok: str, what: str, line: int) -> str:
    if not _NAME.match(tok):
        raise DslError(f"bad {what} name: {tok!r}", line)
    return tok


def _split_names(tok: str, what: str, line: int) -> tuple[str, ...]:
    if tok == "-" or tok == "":
        return ()
    return tuple(_check_name(t.strip(), what, line) for t in tok.split(","))


def _int(tok: str, what: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise DslError(f"expected integer for {what}, got {tok!r}", line)


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


# ---------------------------------------------------------------------------
# ADT declarations


def _parse_marking_tokens(tok: str, line: int) -> Marking:
    counts: dict[str, int] = {}
    for name in _split_names(tok, "place", line):
        counts[name] = counts.get(name, 0) + 1
    return mk_marking(counts)


def parse_adt_line(rest: str, line: int) -> AdtSpec:
    toks = rest.split()
    if not toks:
        raise DslError("adt line needs a kind", line)
    kind = toks[0]
    args = toks[1:]

    def kw(name: str, upto: str | None = None) -> str:
        if name not in args:
            raise DslError(f"adt {kind} needs '{name} ...'", line)
        i = args.index(name)
        j = len(args)
        if upto and upto in args[i + 1 :]:
            j = args.index(upto, i + 1)
        return " ".join(args[i + 1 : j])

    if kind == "trivial":
        return trivial_spec()
    if kind in ("counter", "weak-counter", "weakcounter"):
        k = "weak-counter" if kind != "counter" else "counter"
        return AdtSpec(kind=k)
    if kind == "stack":
        return AdtSpec(kind="stack", alphabet=_split_names(kw("alphabet"), "symbol", line))
    if kind == "hostack":
        return AdtSpec(
            kind="ho-stack",
            level=_int(kw("level", "alphabet"), "level", line),
            alphabet=_split_names(kw("alphabet"), "symbol", line),
        )
    if kind in ("hocounter", "howeakcounter"):
        k = "ho-counter" if kind == "hocounter" else "ho-weak-counter"
        return AdtSpec(kind=k, level=_int(kw("level"), "level", line))
    if kind == "multistack":
        return AdtSpec(
            kind="multi-stack",
            count=_int(kw("count", "alphabet"), "count", line),
            alphabet=_split_names(kw("alphabet"), "symbol", line),
        )
    if kind == "petri":
        return _parse_petri(rest, line)
    raise DslError(f"unknown adt kind: {kind}", line)


def _parse_petri(rest: str, line: int) -> AdtSpec:
    m = re.match(
        r"^petri\s+places\s+(?P<places>\S+)"
        r"(?:\s+transitions\s+(?P<trans>.*?))?"
        r"(?:\s+initial\s+(?P<init>\S+))?$",
        rest,
    )
    if not m:
        raise DslError("expected: petri places p,q [transitions t: p -> q ; ...] [initial p,p]", line)
    places = _split_names(m.group("places"), "place", line)
    transitions: list[PetriTransition] = []
    if m.group("trans"):
        for part in m.group("trans").split(";"):
            part = part.strip()
            if not part:
                continue
            tm = re.match(r"^(\w+)\s*:\s*(\S+)\s*->\s*(\S+)$", part)
            if not tm:
                raise DslError(f"bad net transition: {part!r}", line)
            transitions.append(
                PetriTransition(
                    name=_check_name(tm.group(1), "transition", line),
                    inputs=_parse_marking_tokens(tm.group(2), line),
                    outputs=_parse_marking_tokens(tm.group(3), line),
                )
            )
    initial = _parse_marking_tokens(m.group("init"), line) if m.group("init") else ()
    return AdtSpec(
        kind="petri", places=places, transitions=tuple(transitions), initial_marking=initial
    )


def print_adt(adt: AdtSpec) -> str:
    if adt.kind == "trivial":
        return "adt trivial"
    if adt.kind == "counter":
        return "adt counter"
    if adt.kind == "weak-counter":
        return "adt weakcounter"
    if adt.kind == "stack":
        return f"adt stack alphabet {','.join(adt.alphabet)}"
    if adt.kind == "ho-stack":
        return f"adt hostack level {adt.level} alphabet {','.join(adt.alphabet)}"
    if adt.kind == "ho-counter":
        return f"adt hocounter level {adt.level}"
    if adt.kind == "ho-weak-counter":
        return f"adt howeakcounter level {adt.level}"
    if adt.kind == "multi-stack":
        return f"adt multistack count {adt.count} alphabet {','.join(adt.alphabet)}"
    parts = [f"adt petri places {','.join(adt.places)}"]
    if adt.transitions:
        ts = " ; ".join(
            f"{t.name}: {_print_marking(t.inputs)} -> {_print_marking(t.outputs)}"
            for t in adt.transitions
        )
        parts.append(f"transitions {ts}")
    if adt.initial_marking:
        parts.append(f"initial {_print_marking(adt.initial_marking)}")
    return " ".join(parts)


def _print_marking(m: Marking) -> str:
    names = [p for p, c in m for _ in range(c)]
    return ",".join(names) if names else "-"


# ---------------------------------------------------------------------------
# Instructions and actions


def _parse_op_tokens(toks: list[str], line: int) -> AdtOp:
    if len(toks) == 1:
        return AdtOp(toks[0])
    if len(toks) == 2:
        arg: str | int = int(toks[1]) if toks[1].isdigit() else toks[1]
        return AdtOp(toks[0], arg)
    raise DslError("op takes a name and at most one argument", line)


def parse_instruction(text: str, line: int) -> Instruction:
    toks = text.split()
    if toks[0] == "skip" and len(toks) == 1:
        return Instruction("skip")
    if toks[0] == "mf" and len(toks) == 1:
        return Instruction("mf")
    if toks[0] in ("rd", "wr") and len(toks) == 3:
        return Instruction(
            toks[0],
            var=_check_name(toks[1], "variable", line),
            val=_int(toks[2], "value", line),
        )
    if toks[0] == "op" and len(toks) >= 2:
        return Instruction("op", op=_parse_op_tokens(toks[1:], line))
    raise DslError(f"bad instruction: {text!r}", line)


_ACTION_ARITY = {
    "skp": 0, "write": 2, "read": 2, "inc": 1, "dec": 1, "ckz": 1,
    "set": 2, "cke": 2, "ckne": 2, "ckl": 2, "ckg": 2, "ckle": 2, "ckge": 2,
}


def parse_action(text: str, line: int):
    toks = text.split()
    if toks[0] == "op" and len(toks) >= 2:
        return _parse_op_tokens(toks[1:], line)
    kind = toks[0]
    if kind not in _ACTION_ARITY:
        raise DslError(f"bad machine action: {text!r}", line)
    if len(toks) - 1 != _ACTION_ARITY[kind]:
        raise DslError(f"{kind} takes {_ACTION_ARITY[kind]} operand(s)", line)

    def operand(tok: str) -> str | int:
        return int(tok) if tok.lstrip("-").isdigit() else tok

    if kind == "skp":
        return RegisterAction("skp")
    if kind in ("write", "read"):
        return RegisterAction(kind, _check_name(toks[1], "register", line),
                              _int(toks[2], "value", line))
    if kind in ("inc", "dec", "ckz"):
        return RegisterAction(kind, _check_name(toks[1], "register", line))
    if kind == "set":
        return RegisterAction(kind, _check_name(toks[1], "register", line), operand(toks[2]))
    return RegisterAction(kind, operand(toks[1]), operand(toks[2]))


def print_action(act) -> str:
    if isinstance(act, AdtOp):
        return f"op {act}"
    return str(act)


# ---------------------------------------------------------------------------
# Section scanners


def _scan_sections(text: str):
    """Group lines into (header_line, header, [(lineno, line), ...])."""
    sections = []
    preamble: list[tuple[int, str]] = []
    current = None
    for i, line in _lines(text):
        head = line.split()[0]
        if head in ("process", "machine", "fsa", "pda"):
            current = (i, line, [])
            sections.append(current)
        elif current is None:
            preamble.append((i, line))
        else:
            current[2].append((i, line))
    return preamble, sections


def _parse_states(body, line0: int, section: str):
    states: list[str] = []
    q_init = None
    q_final = None
    edges = []
    extra = []
    for i, line in body:
        toks = line.split()
        if toks[0] == "state":
            if len(toks) < 2:
                raise DslError("state line needs a name", i)
            name = _check_name(toks[1], "state", i)
            states.append(name)
            for flag in toks[2:]:
                if flag == "init":
                    if q_init is not None:
                        raise DslError("duplicate init state", i)
                    q_init = name
                elif flag == "target":
                    if q_final is not None:
                        raise DslError("duplicate target state", i)
                    q_final = name
                else:
                    raise DslError(f"unknown state flag {flag!r}", i)
        elif toks[0] == "trans":
            m = re.match(r"^trans\s+(\w+)\s*->\s*(\w+)\s*:\s*(.+)$", line)
            if not m:
                raise DslError(f"bad trans line: {line!r}", i)
            edges.append((i, m.group(1), m.group(2), m.group(3)))
        else:
            extra.append((i, line))
    if q_init is None:
        raise DslError(f"{section} needs a state marked init", line0)
    if q_final is None:
        raise DslError(f"{section} needs a state marked target", line0)
    return states, q_init, q_final, edges, extra


def parse_program(text: str) -> Program:
    """Parse and fully validate a TSO program file."""
    preamble, sections = _scan_sections(text)
    mem = None
    adt = trivial_spec()
    for i, line in preamble:
        toks = line.split()
        if toks[0] == "memory":
            m = re.match(r"^memory\s+vars\s+(\S+)\s+domain\s+0\.\.(\d+)$", line)
            if not m:
                raise DslError("expected: memory vars x,y domain 0..k", i)
            mem = MemorySpec(
                variables=_split_names(m.group(1), "variable", i),
                d_max=int(m.group(2)),
            )
        elif toks[0] == "adt":
            adt = parse_adt_line(line[len("adt") :].strip(), i)
        else:
            raise DslError(f"unexpected line before section: {line!r}", i)
    if len(sections) != 1 or not sections[0][1].startswith("process"):
        raise DslError("expected exactly one process section")
    if mem is None:
        raise DslError("program needs a memory line")
    i0, header, body = sections[0]
    toks = header.split()
    if len(toks) != 2:
        raise DslError("expected: process NAME", i0)
    name = _check_name(toks[1], "process", i0)
    states, q_init, q_final, raw_edges, extra = _parse_states(body, i0, "process")
    if extra:
        raise DslError(f"unexpected line: {extra[0][1]!r}", extra[0][0])
    declared = set(states)
    delta = []
    for i, q, q2, instr_text in raw_edges:
        instr = parse_instruction(instr_text, i)
        if q not in declared or q2 not in declared:
            raise DslError(f"transition uses undeclared state: {q} -> {q2}", i)
        delta.append((q, instr, q2))
    proc = ProcessDescription(
        name=name, states=tuple(states), q_init=q_init, q_final=q_final, delta=tuple(delta)
    )
    try:
        validate_program(mem, adt, proc)
    except ValueError as e:
        raise DslError(str(e)) from e
    return Program(mem=mem, adt=adt, proc=proc)


def parse_machine(text: str) -> RegisterMachine:
    """Parse and fully validate a register machine file."""
    preamble, sections = _scan_sections(text)
    adt = trivial_spec()
    for i, line in preamble:
        if line.split()[0] == "adt":
            adt = parse_adt_line(line[len("adt") :].strip(), i)
        else:
            raise DslError(f"unexpected line before section: {line!r}", i)
    if len(sections) != 1 or not sections[0][1].startswith("machine"):
        raise DslError("expected exactly one machine section")
    i0, header, body = sections[0]
    toks = header.split()
    if len(toks) != 2:
        raise DslError("expected: machine NAME", i0)
    name = _check_name(toks[1], "machine", i0)

    registers: tuple[str, ...] | None = None
    bound = None
    rest = []
    for i, line in body:
        m = re.match(r"^registers(?:\s+(\S+))?\s+bound\s+(\d+)$", line)
        if m:
            if registers is not None:
                raise DslError("duplicate registers line", i)
            registers = _split_names(m.group(1) or "-", "register", i)
            bound = int(m.group(2))
        else:
            rest.append((i, line))
    if registers is None or bound is None:
        raise DslError("machine needs a 'registers [names] bound N' line", i0)

    states, q_init, q_target, raw_edges, extra = _parse_states(rest, i0, "machine")
    if extra:
        raise DslError(f"unexpected line: {extra[0][1]!r}", extra[0][0])
    declared = set(states)
    delta = []
    for i, q, q2, act_text in raw_edges:
        act = parse_action(act_text, i)
        if q not in declared or q2 not in declared:
            raise DslError(f"transition uses undeclared state: {q} -> {q2}", i)
        delta.append((q, act, q2))
    try:
        return RegisterMachine(
            name=name,
            states=tuple(states),
            q_init=q_init,
            q_target=q_target,
            registers=registers,
            bound=bound,
            adt=adt,
            delta=tuple(delta),
        )
    except ValueError as e:
        raise DslError(str(e)) from e


def parse_input(text: str):
    """Sniff the section keyword and parse a program or a machine."""
    for _, line in _lines(text):
        head = line.split()[0]
        if head == "process":
            return parse_program(text)
        if head == "machine":
            return parse_machine(text)
    raise DslError("no process or machine section found")


def print_program(prog: Program) -> str:
    lines = [
        f"memory vars {','.join(prog.mem.variables)} domain 0..{prog.mem.d_max}",
        print_adt(prog.adt),
        f"process {prog.proc.name}",
    ]
    for q in prog.proc.states:
        flags = ""
        if q == prog.proc.q_init:
            flags += " init"
        if q == prog.proc.q_final:
            flags += " target"
        lines.append(f"state {q}{flags}")
    for q, instr, q2 in prog.proc.delta:
        lines.append(f"trans {q} -> {q2} : {instr}")
    return "\n".join(lines) + "\n"


def print_machine(rm: RegisterMachine) -> str:
    lines = [print_adt(rm.adt), f"machine {rm.name}"]
    regs = ",".join(rm.registers) if rm.registers else "-"
    lines.append(f"registers {regs} bound {rm.bound}")
    for q in rm.states:
        flags = ""
        if q == rm.q_init:
            flags += " init"
        if q == rm.q_target:
            flags += " target"
        lines.append(f"state {q}{flags}")
    for q, act, q2 in rm.delta:
        lines.append(f"trans {q} -> {q2} : {print_action(act)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Automata and coverability files


def parse_automata(text: str) -> tuple[list[PushdownAutomaton], list[FiniteAutomaton]]:
    _, sections = _scan_sections(text)
    pdas: list[PushdownAutomaton] = []
    fsas: list[FiniteAutomaton] = []
    for i0, header, body in sections:
        toks = header.split()
        if toks[0] == "fsa":
            m = re.match(r"^fsa\s+(\w+)\s+alphabet\s+(\S+)$", header)
            if not m:
                raise DslError("expected: fsa NAME alphabet a,b", i0)
            fsas.append(_parse_fsa(m.group(1), _split_names(m.group(2), "symbol", i0), body, i0))
        elif toks[0] == "pda":
            m = re.match(r"^pda\s+(\w+)\s+alphabet\s+(\S+)\s+stack\s+(\S+)$", header)
            if not m:
                raise DslError("expected: pda NAME alphabet a,b stack A,Z", i0)
            pdas.append(
                _parse_pda(
                    m.group(1),
                    _split_names(m.group(2), "symbol", i0),
                    _split_names(m.group(3), "stack symbol", i0),
                    body,
                    i0,
                )
            )
        else:
            raise DslError(f"unexpected section {toks[0]!r}", i0)
    return pdas, fsas


def _parse_automaton_states(body, line0: int):
    states: list[str] = []
    initial = None
    accepting: list[str] = []
    edges = []
    for i, line in body:
        toks = line.split()
        if toks[0] == "state":
            if len(toks) < 2:
                raise DslError("state line needs a name", i)
            name = _check_name(toks[1], "state", i)
            states.append(name)
            for flag in toks[2:]:
                if flag == "init":
                    initial = name
                elif flag == "accept":
                    accepting.append(name)
                else:
                    raise DslError(f"unknown state flag {flag!r}", i)
        elif toks[0] == "trans":
            edges.append((i, line))
        else:
            raise DslError(f"unexpected line: {line!r}", i)
    if initial is None:
        raise DslError("automaton needs a state marked init", line0)
    return states, initial, accepting, edges


def _parse_fsa(name, alphabet, body, i0) -> FiniteAutomaton:
    states, initial, accepting, edges = _parse_automaton_states(body, i0)
    transitions = []
    for i, line in edges:
        m = re.match(r"^trans\s+(\w+)\s+(\w+)\s*->\s*(\w+)$", line)
        if not m:
            raise DslError(f"bad fsa trans: {line!r}", i)
        transitions.append((m.group(1), m.group(2), m.group(3)))
    try:
        return FiniteAutomaton(
            name, tuple(states), initial, tuple(accepting), alphabet, tuple(transitions)
        )
    except ValueError as e:
        raise DslError(str(e), i0) from e


def _parse_pda(name, alphabet, stack_alphabet, body, i0) -> PushdownAutomaton:
    states, initial, accepting, edges = _parse_automaton_states(body, i0)
    transitions = []
    for i, line in edges:
        m = re.match(r"^trans\s+(\w+)\s+(\w+)\s+\[([^/\]]+)/([^/\]]+)\]\s*->\s*(\w+)$", line)
        if not m:
            raise DslError(f"bad pda trans (want: trans q a [g/w] -> q'): {line!r}", i)
        gamma = None if m.group(3).strip() == "-" else m.group(3).strip()
        push = _split_names(m.group(4).strip(), "stack symbol", i)
        transitions.append((m.group(1), m.group(2), gamma, m.group(5), push))
    try:
        return PushdownAutomaton(
            name,
            tuple(states),
            initial,
            tuple(accepting),
            alphabet,
            stack_alphabet,
            tuple(transitions),
        )
    except ValueError as e:
        raise DslError(str(e), i0) from e


def print_automata(pdas, fsas) -> str:
    lines: list[str] = []
    for pda in pdas:
        lines.append(
            f"pda {pda.name} alphabet {','.join(pda.alphabet)} stack {','.join(pda.stack_alphabet)}"
        )
        for q in pda.states:
            flags = " init" if q == pda.initial else ""
            flags += " accept" if q in pda.accepting else ""
            lines.append(f"state {q}{flags}")
        for q, a, g, q2, w in pda.transitions:
            gs = g if g is not None else "-"
            ws = ",".join(w) if w else "-"
            lines.append(f"trans {q} {a} [{gs}/{ws}] -> {q2}")
    for fsa in fsas:
        lines.append(f"fsa {fsa.name} alphabet {','.join(fsa.alphabet)}")
        for q in fsa.states:
            flags = " init" if q == fsa.initial else ""
            flags += " accept" if q in fsa.accepting else ""
            lines.append(f"state {q}{flags}")
        for q, a, q2 in fsa.transitions:
            lines.append(f"trans {q} {a} -> {q2}")
    return "\n".join(lines) + "\n"


def parse_coverability(text: str) -> CoverabilityInstance:
    adt = None
    target = None
    for i, line in _lines(text):
        toks = line.split()
        if toks[0] == "adt":
            adt = parse_adt_line(line[len("adt") :].strip(), i)
        elif toks[0] == "cover":
            if len(toks) != 2:
                raise DslError("expected: cover p,p,q", i)
            target = _parse_marking_tokens(toks[1], i)
        else:
            raise DslError(f"unexpected line: {line!r}", i)
    if adt is None or adt.kind != "petri":
        raise DslError("coverability file needs an 'adt petri ...' line")
    if target is None:
        raise DslError("coverability file needs a 'cover ...' line")
    try:
        return CoverabilityInstance(
            places=adt.places,
            transitions=adt.transitions,
            initial=adt.initial_marking,
            target=target,
        )
    except ValueError as e:
        raise DslError(str(e)) from e


def print_coverability(inst: CoverabilityInstance) -> str:
    return print_adt(inst.adt_spec()) + f"\ncover {_print_marking(inst.target)}\n"
