"""Line-oriented text format for programs, machines, automata and nets.

One construct per line; '#' starts a comment, blank lines are skipped and
tokens are separated by whitespace.  NAME is [A-Za-z_][A-Za-z0-9_]*, Q a
state (word characters), N an integer, NAMES 'a,b,...' or '-' for none.

    program   memory vars NAMES domain 0..N
              [adt KIND]                      (default: adt trivial)
              process NAME
              state NAME [init] [target]      (one init, one target)
              trans Q -> Q : skip | mf | rd NAME N | wr NAME N | OP
    machine   [adt KIND]
              machine NAME
              registers [NAMES] bound N
              state NAME [init] [target]
              trans Q -> Q : ACTION | OP
    cover     adt petri ...
              cover NAMES
    automata  fsa NAME alphabet NAMES  or  pda NAME alphabet NAMES stack NAMES,
              each followed by state NAME [init] [accept] and
              trans Q A -> Q (fsa)  or  trans Q A [G/NAMES] -> Q (pda, G or -)

    OP        op NAME [ARG]                   (ARG an integer or a name)
    ACTION    skp | write R N | read R N | inc R | dec R | ckz R | set R V
              | cke|ckne|ckl|ckg|ckle|ckge V V (V a register or an integer)
    KIND      trivial | counter | weakcounter | stack alphabet NAMES
              | hostack level N alphabet NAMES | hocounter level N
              | howeakcounter level N | multistack count N alphabet NAMES
              | petri places NAMES [transitions T: NAMES -> NAMES ; ...]
                [initial NAMES]

parse_input reads a program or machine file in one pass, and a file with
a cover line before any process or machine line as a cover file.  Lines
end where str.splitlines ends them: a file with a line end other than a
newline (a carriage return, a form feed, U+2028 ...) is read as its lines
joined by newlines.  Each distinct instruction or action text is parsed
once.

A second adt, memory, registers or cover line is an error.  Every error
names its line, if it has one; an error the data type or model finds
names its adt, memory or registers line, or the first trans line at
fault.  Of several errors the one reported is in the first of these
phases, and the first in file order within it: (1) no process or machine
section; (2) a line before the section that is no adt (or memory) line,
or a second or malformed one; (3) not exactly one section of the kind;
(4) no memory line; (5) the header; (6) registers lines, then none; (7)
state lines and the shape of trans lines; (8) no init, then no target
state; (9) any other line; (10) per transition, its instruction or
action, then its endpoints; (11) duplicate register names, then names,
values and data-type operations, in transition order.  Automata sections
are finished one by one: header, state and other lines, init state,
trans lines, symbols.  A cover file reports its lines in file order, then
a missing adt petri or cover line, then undeclared places in the cover.
"""

from __future__ import annotations

import re

from .adt import KINDS, AdtError, AdtOp, AdtSpec, Marking, PetriTransition, mk_marking, trivial_spec
from .automata import AutomatonError, CoverabilityInstance, FiniteAutomaton, PushdownAutomaton
from .model import (
    ACTION_SHAPES,
    Instruction,
    MemorySpec,
    ModelError,
    ProcessDescription,
    Program,
    RegisterAction,
    RegisterMachine,
)

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEMORY = re.compile(r"^memory\s+vars\s+(\S+)\s+domain\s+0\.\.(\d+)$")
_REGISTERS = re.compile(r"^registers(?:\s+(\S+))?\s+bound\s+(\d+)$")
_TRANS = re.compile(r"^trans\s+(\w+)\s*->\s*(\w+)\s*:\s*(.+)$")
_PETRI = re.compile(
    r"^petri\s+places\s+(?P<places>\S+)"
    r"(?:\s+transitions\s+(?P<trans>.*?))?"
    r"(?:\s+initial\s+(?P<init>\S+))?$"
)
_NET_TRANSITION = re.compile(r"^(\w+)\s*:\s*(\S+)\s*->\s*(\S+)$")
_FSA_HEADER = re.compile(r"^fsa\s+(\w+)\s+alphabet\s+(\S+)$")
_PDA_HEADER = re.compile(r"^pda\s+(\w+)\s+alphabet\s+(\S+)\s+stack\s+(\S+)$")
_FSA_TRANS = re.compile(r"^trans\s+(\w+)\s+(\w+)\s*->\s*(\w+)$")
_PDA_TRANS = re.compile(r"^trans\s+(\w+)\s+(\w+)\s+\[([^/\]]+)/([^/\]]+)\]\s*->\s*(\w+)$")

_SECTIONS = ("process", "machine", "fsa", "pda")

# one row per line of a program or machine file: a body line in the layout
# the printers write comes back split, as a state line with its flags in
# this order or a trans line whose text has no '#' and no leading, trailing
# or doubled whitespace; any other line comes back raw
_ROW = re.compile(
    r"^(?:state ([A-Za-z_][A-Za-z0-9_]*)((?: init)?(?: target)?)\n"
    r"|trans (\w+) -> (\w+) : ([^\s#]+(?: [^\s#]+)*)\n"
    r"|(.*)\n?)",
    re.M,
)
# the line ends of str.splitlines other than '\n'; only a raw row holds one
_LINE_ENDS = frozenset("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")

# adt line keyword -> kind: the kind's name without hyphens, and weak-counter
_ADT_KEYWORDS = {kind.replace("-", ""): kind for kind in KINDS} | {"weak-counter": "weak-counter"}


class DslError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _check_name(tok: str, what: str, line: int | None) -> str:
    if not _NAME.match(tok):
        raise DslError(f"bad {what} name: {tok!r}", line)
    return tok


def _split_names(tok: str, what: str, line: int | None) -> tuple[str, ...]:
    if tok == "-" or tok == "":
        return ()
    return tuple(_check_name(t.strip(), what, line) for t in tok.split(","))


def _int(tok: str, what: str, line: int | None) -> int:
    try:
        return int(tok)
    except ValueError:
        if tok.isdecimal():  # int() reads any decimal string up to its digit limit
            raise DslError(f"{what} has {len(tok)} digits, too many to read", line) from None
        raise DslError(f"expected integer for {what}, got {tok!r}", line)


def _at_line(line: int, build, *args, **kwargs):
    """build(*args, **kwargs), with a model, data-type or automaton error
    reported as a DslError of line."""
    try:
        return build(*args, **kwargs)
    except (AdtError, AutomatonError, ModelError) as e:
        raise DslError(str(e), line) from e


def _lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if line:
            yield i, line


def _state_name(toks: list[str], line: int) -> str:
    if len(toks) < 2:
        raise DslError("state line needs a name", line)
    return _check_name(toks[1], "state", line)


# ---------------------------------------------------------------------------
# ADT declarations


def _parse_marking_tokens(tok: str, line: int | None) -> Marking:
    counts: dict[str, int] = {}
    for name in _split_names(tok, "place", line):
        counts[name] = counts.get(name, 0) + 1
    return mk_marking(counts)


def parse_adt_line(rest: str, line: int | None) -> AdtSpec:
    """The spec of an adt line after 'adt': the keyword, then the parameters
    of its row in KINDS in row order, each up to the next one's keyword or
    the line end.  A token where a parameter's keyword belongs is an error."""
    toks = rest.split()
    if not toks:
        raise DslError("adt line needs a kind", line)
    word, args = toks[0], toks[1:]
    if word == "petri":
        return _parse_petri(rest, line)
    kind = _ADT_KEYWORDS.get(word)
    if kind is None:
        raise DslError(f"unknown adt kind: {word}", line)
    params = KINDS[kind][0]
    values = {}
    i = 0  # where the next parameter's keyword belongs
    for p, upto in zip(params, params[1:] + (None,)):
        if p not in args:
            raise DslError(f"adt {word} needs '{p} ...'", line)
        if args[i] != p:
            break
        end = args.index(upto, i + 1) if upto in args[i + 1 :] else len(args)
        text = " ".join(args[i + 1 : end])
        values[p] = _split_names(text, "symbol", line) if p == "alphabet" else _int(text, p, line)
        i = end
    if i < len(args):  # a token where a keyword belongs
        if args[i] in params:
            order = " ".join(f"{p} ..." for p in params)
            raise DslError(f"adt {word} parameters out of order: want '{order}'", line)
        raise DslError(f"adt {word} has no parameter {args[i]!r}", line)
    return AdtSpec(kind, **values)


def _parse_petri(rest: str, line: int | None) -> AdtSpec:
    m = _PETRI.match(rest)
    if not m:
        raise DslError("expected: petri places p,q [transitions t: p -> q ; ...] [initial p,p]", line)
    places = _split_names(m.group("places"), "place", line)
    transitions: list[PetriTransition] = []
    if m.group("trans"):
        for part in m.group("trans").split(";"):
            part = part.strip()
            if not part:
                continue
            tm = _NET_TRANSITION.match(part)
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
    if adt.kind != "petri":
        parts = ["adt", adt.kind.replace("-", "")]
        for p in KINDS[adt.kind][0]:
            value = getattr(adt, p)
            parts += [p, ",".join(value) if p == "alphabet" else str(value)]
        return " ".join(parts)
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
        # isdigit also holds for digits int() rejects, such as superscripts
        arg: str | int = _int(toks[1], "op argument", line) if toks[1].isdigit() else toks[1]
        return AdtOp(toks[0], arg)
    raise DslError("op takes a name and at most one argument", line)


def parse_instruction(text: str, line: int) -> Instruction:
    toks = text.split()
    if toks[0] == "skip" and len(toks) == 1:
        return Instruction("skip")
    if toks[0] == "mf" and len(toks) == 1:
        return Instruction("mf")
    if toks[0] in ("rd", "wr") and len(toks) == 3:
        return Instruction(toks[0], var=_check_name(toks[1], "variable", line),
                           val=_int(toks[2], "value", line))
    if toks[0] == "op" and len(toks) >= 2:
        return Instruction("op", op=_parse_op_tokens(toks[1:], line))
    raise DslError(f"bad instruction: {text!r}", line)


def _operand(role: str, tok: str, line: int) -> str | int:
    """One operand of an action, by its role in ACTION_SHAPES."""
    if role == "N":
        return _int(tok, "value", line)
    if role != "V":
        return _check_name(tok, "register", line)
    # a register name, or a literal with any number of leading minus signs
    return _int(tok, "operand", line) if tok.lstrip("-").isdigit() else tok


def parse_action(text: str, line: int):
    toks = text.split()
    if toks[0] == "op" and len(toks) >= 2:
        return _parse_op_tokens(toks[1:], line)
    kind = toks[0]
    if kind not in ACTION_SHAPES:
        raise DslError(f"bad machine action: {text!r}", line)
    roles = ACTION_SHAPES[kind][1]
    if len(toks) - 1 != len(roles):
        raise DslError(f"{kind} takes {len(roles)} operand(s)", line)
    operands = [_operand(role, tok, line) for role, tok in zip(roles, toks[1:])]
    return RegisterAction(kind, *operands)


def print_action(act) -> str:
    return f"op {act}" if isinstance(act, AdtOp) else str(act)


# ---------------------------------------------------------------------------
# Program and machine files


def parse_input(text: str) -> Program | RegisterMachine | CoverabilityInstance:
    """Parse and fully validate a program or a machine, whichever section
    comes first, in one pass over the rows of _ROW; a file with a cover
    line before any process or machine line is read by parse_coverability.
    Errors are kept while the lines are read and raised in the phase order
    of the module docstring."""
    kind = None
    preamble: list[tuple[int, str]] = []
    header: tuple[int, str] | None = None  # line and text of the first section
    n_sections = 0
    body = None  # the first section's keyword while its lines are read
    parse = None  # the body's instruction or action reader
    registers: tuple[str, ...] | None = None
    bound = 0
    states: list[str] = []
    marked: dict[str, str | None] = {"init": None, "target": None}
    delta: list = []
    delta_lines: list[int] = []  # each transition's line
    reg_line = None
    parsed: dict[str, object] = {}  # instruction or action text -> object or DslError
    reg_error = line_error = extra_error = None
    bad_text = False  # some instruction or action text failed to parse
    i = 0
    for q, flags, src, dst, what, line in _ROW.findall(text):
        i += 1
        if src and body:  # a trans row _ROW split
            pass
        elif q and body:  # a state row _ROW split
            flags = flags.split()
        else:  # a raw row, or a split one outside the body
            if q or src:
                line = f"state {q}{flags}" if q else f"trans {src} -> {dst} : {what}"
            else:
                if not line.isprintable() and not _LINE_ENDS.isdisjoint(line):
                    return parse_input("\n".join(text.splitlines()))
                line = (line.split("#", 1)[0] if "#" in line else line).strip()
                if not line:
                    continue
            toks = line.split()
            head = toks[0]
            if head in _SECTIONS:
                n_sections += 1
                if kind is None and head in ("process", "machine"):
                    kind = head
                body = None
                if n_sections == 1:  # kind is head, or None for an automaton
                    header = (i, line)
                    body = kind
                    parse = parse_action if body == "machine" else parse_instruction
                continue
            if head == "cover" and kind is None:
                return parse_coverability(text)
            if n_sections == 0:
                preamble.append((i, line))
                continue
            if body is None:
                continue
            if head == "trans":
                m = _TRANS.match(line)
                if m is None:
                    line_error = line_error or DslError(f"bad trans line: {line!r}", i)
                    continue
                src, dst, what = m.groups()
            elif head == "state":
                try:
                    q = _state_name(toks, i)
                except DslError as e:
                    line_error = line_error or e
                    continue
                flags = toks[2:]
            elif body == "machine" and head == "registers" and (m := _REGISTERS.match(line)):
                try:
                    if registers is not None:
                        raise DslError("duplicate registers line", i)
                    registers = _split_names(m.group(1) or "-", "register", i)
                    bound = _int(m.group(2), "registers bound", i)
                    reg_line = i
                except DslError as e:
                    reg_error = reg_error or e
                continue
            else:
                extra_error = extra_error or DslError(f"unexpected line: {line!r}", i)
                continue
        if src:
            item = parsed.get(what)
            if item is None:
                try:
                    item = parse(what, i)
                except DslError as e:
                    item = e
                    bad_text = True
                parsed[what] = item
            delta.append((src, item, dst))
            delta_lines.append(i)
            continue
        states.append(q)
        for flag in flags:
            if flag not in marked:
                line_error = line_error or DslError(f"unknown state flag {flag!r}", i)
            elif marked[flag] is not None:
                line_error = line_error or DslError(f"duplicate {flag} state", i)
            else:
                marked[flag] = q

    if kind is None:
        raise DslError("no process or machine section found")
    mem = adt = None
    for i, line in preamble:
        head = line.split(None, 1)[0]
        if head == "memory" and kind == "process":
            if mem is not None:
                raise DslError("duplicate memory line", i)
            m = _MEMORY.match(line)
            if not m:
                raise DslError("expected: memory vars x,y domain 0..k", i)
            names = _split_names(m.group(1), "variable", i)
            mem = _at_line(i, MemorySpec, names, _int(m.group(2), "memory domain", i))
        elif head == "adt":
            if adt is not None:
                raise DslError("duplicate adt line", i)
            adt = _at_line(i, parse_adt_line, line[len("adt") :].strip(), i)
        else:
            raise DslError(f"unexpected line before section: {line!r}", i)
    adt = adt or trivial_spec()
    if n_sections != 1:
        raise DslError(f"expected exactly one {kind} section")
    if kind == "process" and mem is None:
        raise DslError("program needs a memory line")
    i0, header_line = header
    toks = header_line.split()
    if len(toks) != 2:
        raise DslError(f"expected: {kind} NAME", i0)
    name = _check_name(toks[1], kind, i0)
    if reg_error:
        raise reg_error
    if kind == "machine" and registers is None:
        raise DslError("machine needs a 'registers [names] bound N' line", i0)
    if line_error:
        raise line_error
    for flag in marked:
        if marked[flag] is None:
            raise DslError(f"{kind} needs a state marked {flag}", i0)
    if extra_error:
        raise extra_error
    error = None
    if not bad_text:
        try:
            if kind == "machine":
                return RegisterMachine(name, tuple(states), marked["init"], marked["target"],
                                       registers, bound, adt, tuple(delta))
            proc = ProcessDescription(name, tuple(states), marked["init"], marked["target"],
                                      tuple(delta))
            return Program(mem=mem, adt=adt, proc=proc)
        except ModelError as e:
            error = e
    # a bad text or an undeclared endpoint comes before the model's errors
    declared = set(states)
    for (q, item, q2), i in zip(delta, delta_lines):
        if isinstance(item, DslError):
            raise item
        if q not in declared or q2 not in declared:
            raise DslError(f"transition uses undeclared state: {q} -> {q2}", i)
    # an error of one transition names its line; the one other error a
    # parsed file can raise here is duplicate register names
    raise DslError(str(error), reg_line if error.edge is None else delta_lines[error.edge]) from error


def _state_lines(states, q_init: str, q_target: str) -> list[str]:
    return [f"state {q}{' init' if q == q_init else ''}{' target' if q == q_target else ''}"
            for q in states]


def print_program(prog: Program) -> str:
    proc = prog.proc
    lines = [
        f"memory vars {','.join(prog.mem.variables)} domain 0..{prog.mem.d_max}",
        print_adt(prog.adt),
        f"process {proc.name}",
        *_state_lines(proc.states, proc.q_init, proc.q_final),
    ]
    lines += [f"trans {q} -> {q2} : {instr}" for q, instr, q2 in proc.delta]
    return "\n".join(lines) + "\n"


def print_machine(rm: RegisterMachine) -> str:
    lines = [
        print_adt(rm.adt),
        f"machine {rm.name}",
        f"registers {','.join(rm.registers) if rm.registers else '-'} bound {rm.bound}",
        *_state_lines(rm.states, rm.q_init, rm.q_target),
    ]
    lines += [f"trans {q} -> {q2} : {print_action(act)}" for q, act, q2 in rm.delta]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Automata and coverability files


def parse_automata(text: str) -> tuple[list[PushdownAutomaton], list[FiniteAutomaton]]:
    """One pass; each section is finished (and its errors raised) before the
    next header is read.  Lines before the first section are ignored."""
    pdas: list[PushdownAutomaton] = []
    fsas: list[FiniteAutomaton] = []
    section = None
    for i, line in _lines(text):
        toks = line.split()
        if toks[0] in _SECTIONS:
            _finish_automaton(section, pdas, fsas)
            section = _automaton_header(toks[0], line, i)
        elif section is None:
            continue
        elif toks[0] == "state":
            name = _state_name(toks, i)
            section["states"].append(name)
            for flag in toks[2:]:
                if flag == "init":
                    section["initial"] = name
                elif flag == "accept":
                    section["accepting"].append(name)
                else:
                    raise DslError(f"unknown state flag {flag!r}", i)
        elif toks[0] == "trans":
            section["edges"].append((i, line))
        else:
            raise DslError(f"unexpected line: {line!r}", i)
    _finish_automaton(section, pdas, fsas)
    return pdas, fsas


def _automaton_header(head: str, line: str, i0: int) -> dict:
    if head not in ("fsa", "pda"):
        raise DslError(f"unexpected section {head!r}", i0)
    m = (_FSA_HEADER if head == "fsa" else _PDA_HEADER).match(line)
    if not m:
        want = "fsa NAME alphabet a,b" if head == "fsa" else "pda NAME alphabet a,b stack A,Z"
        raise DslError(f"expected: {want}", i0)
    alphabet = _split_names(m.group(2), "symbol", i0)
    stack = _split_names(m.group(3), "stack symbol", i0) if head == "pda" else ()
    return {"kind": head, "line": i0, "name": m.group(1), "alphabet": alphabet,
            "stack": stack, "states": [], "initial": None, "accepting": [], "edges": []}


def _finish_automaton(s: dict | None, pdas: list, fsas: list) -> None:
    if s is None:
        return
    i0 = s["line"]
    if s["initial"] is None:
        raise DslError("automaton needs a state marked init", i0)
    transitions = []
    for i, line in s["edges"]:
        if s["kind"] == "fsa":
            m = _FSA_TRANS.match(line)
            if not m:
                raise DslError(f"bad fsa trans: {line!r}", i)
            transitions.append(m.groups())
            continue
        m = _PDA_TRANS.match(line)
        if not m:
            raise DslError(f"bad pda trans (want: trans q a [g/w] -> q'): {line!r}", i)
        gamma = None if m.group(3).strip() == "-" else m.group(3).strip()
        push = _split_names(m.group(4).strip(), "stack symbol", i)
        transitions.append((m.group(1), m.group(2), gamma, m.group(5), push))
    parts = (s["name"], tuple(s["states"]), s["initial"], tuple(s["accepting"]), s["alphabet"])
    if s["kind"] == "fsa":
        fsas.append(_at_line(i0, FiniteAutomaton, *parts, tuple(transitions)))
    else:
        pdas.append(_at_line(i0, PushdownAutomaton, *parts, s["stack"], tuple(transitions)))


def parse_coverability(text: str) -> CoverabilityInstance:
    adt = target = None
    for i, line in _lines(text):
        toks = line.split()
        if toks[0] == "adt":
            if adt is not None:
                raise DslError("duplicate adt line", i)
            adt = _at_line(i, parse_adt_line, line[len("adt") :].strip(), i)
        elif toks[0] == "cover":
            if target is not None:
                raise DslError("duplicate cover line", i)
            if len(toks) != 2:
                raise DslError("expected: cover p,p,q", i)
            target = _parse_marking_tokens(toks[1], i)
            cover_line = i
        else:
            raise DslError(f"unexpected line: {line!r}", i)
    if adt is None or adt.kind != "petri":
        raise DslError("coverability file needs an 'adt petri ...' line")
    if target is None:
        raise DslError("coverability file needs a 'cover ...' line")
    # the adt line checked the net, so an undeclared place is in the target
    return _at_line(cover_line, CoverabilityInstance, adt.places, adt.transitions,
                    adt.initial_marking, target)


def print_coverability(inst: CoverabilityInstance) -> str:
    return print_adt(inst.adt_spec()) + f"\ncover {_print_marking(inst.target)}\n"
