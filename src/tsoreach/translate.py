"""Reductions between the process, register-machine and net worlds.

build_register_machine   pivot semantics of a TSO program, as one register
                         machine over the same data type
lift_pivot_witness       a pivot run to the process target, as a run of that
                         machine to its target, built gadget by gadget
build_tso_from_rm        a register machine, as a parameterized TSO program
                         (simulator / scheduler / verifier roles)
encode_intersection      PDA-and-FSAs language intersection emptiness, as a
                         stack register machine
encode_rm_to_coverability_labelled
                         tier-I Petri register machine without reset, as a net
                         coverability instance with the machine edge of
                         each net transition
encode_coverability_to_rm
                         net coverability instance, as a register machine

The translated machines are built from two gadget shapes: _path, a chain
of steps through fresh states, and _max_update, the diamond a := max(a, b)
that every pointer update of the pivot rules is.  The pivot machine is
the rank guess (one chain per message, _guess_chain), the pointer
initializer (_ptrinit_chain) and one gadget per process transition
(_gadget), which holds one branch of edges per pivot rule that can take
the transition.  Interior states are named by their chain or transition
and their step, so a piece comes out the same whether it is built alone
or within the whole machine: the lift builds only the pieces a pivot run
uses and follows them, with no search over the machine.
"""

from __future__ import annotations

import itertools

from .adt import (
    RESET,
    AdtOp,
    AdtSpec,
    Marking,
    PetriTransition,
    marking_add,
    mk_marking,
)
from .automata import CoverabilityInstance, FiniteAutomaton, PushdownAutomaton
from .model import (
    MemorySpec,
    ModelError,
    ProcEdge,
    ProcessDescription,
    Program,
    RegisterMachine,
    RmConfiguration,
    RmEdge,
    _Gensym,
    decode_edges,
    fire,
    rd,
    read,
    skip,
    wr,
    write,
)
from .model import Instruction, Message, RegisterAction
from .verdict import WitnessError

act = RegisterAction  # builds the actions of the pivot machine's pieces


def _rank_register(m: Message) -> str:
    return f"rk_{m[0]}_{m[1]}"


def _path(edges: list[RmEdge], fresh, src: str, steps, dst: str | None = None) -> str:
    """Append steps in a row from src through fresh() states, the last one
    into dst (a fresh state when None), and return that last state.  A step
    is one action, or a list of actions that become parallel edges."""
    last = len(steps) - 1
    for i, step in enumerate(steps):
        nxt = dst if dst and i == last else fresh()
        for a in step if isinstance(step, list) else [step]:
            edges.append((src, a, nxt))
        src = nxt
    return src


def _max_update(edges: list[RmEdge], fresh, src: str, a: str, b: str,
                dst: str | None = None) -> str:
    """Append a := max(a, b) from src to dst (a fresh() state when None) and
    return dst: ckge a b straight there, or ckl a b and then set a b through
    a fresh branch state, allocated first."""
    branch, join = fresh(), dst or fresh()
    edges += [(src, act("ckge", a, b), join), (src, act("ckl", a, b), branch),
              (branch, act("set", a, b), join)]
    return join


# ---------------------------------------------------------------------------
# TSO program -> register machine (the pivot simulation)


def _names(tag: str):
    """The interior state names of one piece: tag_1, tag_2, ... in the
    order they are allocated."""
    return map(f"{tag}_{{}}".format, itertools.count(1)).__next__


def _guess_chain(j: int, m: Message) -> list[RmEdge]:
    """Rank m, the j-th message of the memory, next: guess -> guessj_1 ->
    guessj_2 -> guess."""
    edges: list[RmEdge] = []
    r = _rank_register(m)
    _path(edges, _names(f"guess{j}"), "guess",
          [act("cke", r, 0), act("set", r, "rknxt"), act("inc", "rknxt")], "guess")
    return edges


def _ptrinit_chain(variables: tuple[str, ...], dst: str) -> list[RmEdge]:
    """The pointer initializer, from ptrinit to dst: reset every pointer
    except the progress pointer, advance the progress pointer, and hand a
    fresh data value to the next provider."""
    edges: list[RmEdge] = []
    resets = [act("set", reg, 0) for reg in
              ("phe", *(f"phl_{x}" for x in variables), "phlmax",
               *(f"lw_{x}" for x in variables))]
    _path(edges, _names("ptrinit"), "ptrinit", [*resets, act("inc", "php"), AdtOp(RESET)], dst)
    return edges


def _gadget(k: int, transition: ProcEdge, domain: range) -> dict[str, list[RmEdge]]:
    """The edges that simulate process transition k, one branch per pivot
    rule that can take it, in build order; interior states are tk_1, tk_2,
    ..."""
    q, instr, q2 = transition
    src, dst = f"s_{q}", f"s_{q2}"
    fresh = _names(f"t{k}")
    if instr.kind == "skip":
        return {"skip": [(src, act("skp"), dst)]}
    if instr.kind == "op":
        return {"op": [(src, instr.op, dst)]}
    if instr.kind == "mf":
        fence: list[RmEdge] = []
        _max_update(fence, fresh, src, "phe", "phlmax", dst)
        return {"fence": fence}
    x, d = instr.var, instr.val
    r, lw, phl = _rank_register((x, d)), f"lw_{x}", f"phl_{x}"
    if instr.kind == "wr":
        # write2, the provider's own pivot: hand over to the next provider;
        # write1, an already provided message: record the own write
        write1: list[RmEdge] = []
        u = _path(write1, fresh, src,
                  [act("ckge", r, 1), act("ckl", r, "php"), act("set", lw, d + 1)])
        u = _max_update(write1, fresh, u, "phlmax", r)
        write1.append((u, act("set", phl, "phlmax"), dst))
        return {"write2": [(src, act("cke", r, "php"), "ptrinit")], "write1": write1}
    # read1, the own last write; read3, a message some earlier provider
    # propagated
    read3: list[RmEdge] = []
    v = _path(read3, fresh, src, [act("ckge", r, 1), act("ckl", r, "php")])
    v = _max_update(read3, fresh, v, "phe", phl)
    _max_update(read3, fresh, v, "phe", r, dst)
    branches = {"read1": [(src, act("cke", lw, d + 1), dst)], "read3": read3}
    if d == 0:
        # read2, the initial value: no own write, and no message on x
        # ranked at or below the external pointer
        checks = [[act("cke", rk, 0), act("ckg", rk, "phe")]
                  for rk in (_rank_register((x, d2)) for d2 in domain)]
        branches["read2"] = []
        _path(branches["read2"], fresh, src, [act("cke", lw, 0), *checks], dst)
    return branches


def _pivot_registers(mem: MemorySpec) -> tuple[str, ...]:
    """The registers of the pivot machine, in order."""
    return (
        tuple(f"lw_{x}" for x in mem.variables)
        + tuple(f"phl_{x}" for x in mem.variables)
        + tuple(_rank_register(m) for m in mem.messages())
        + ("phe", "phlmax", "php", "rknxt")
    )


def build_register_machine(
    proc: ProcessDescription, mem: MemorySpec, adt: AdtSpec
) -> RegisterMachine:
    """Compile the pivot semantics of (proc, mem, adt) into one machine.

    Registers: a last-write and a local pointer per variable, a rank per
    message, and the external/max-local/progress pointers plus the next-rank
    counter -- 2|X| + |M| + 4 registers over {0..|M|+1}.

    Conventions: rank 0 means "not in the update sequence" (such messages
    can be neither written nor read from memory); last-write registers store
    memory value d as d+1 so 0 means "no own write yet".  The rank
    initializer guesses the update sequence: it repeatedly picks an unranked
    message, gives it the next rank, and nondeterministically stops into
    the first provider.  The pointer initializer starts each new provider
    (including a data-type reset, since a provider is a fresh process).
    Then comes one gadget per process transition.
    """
    s_init = f"s_{proc.q_init}"
    edges: list[RmEdge] = [("boot", act("set", "rknxt", 1), "guess")]
    for j, m in enumerate(mem.messages()):
        edges += _guess_chain(j, m)
    edges.append(("guess", act("set", "php", 1), s_init))
    edges += _ptrinit_chain(mem.variables, s_init)
    for k, transition in enumerate(proc.delta):
        for branch in _gadget(k, transition, mem.domain).values():
            edges += branch
    # the fixed states, the process states, then the interior states in the
    # order they first occur
    states = dict.fromkeys(["boot", "guess", "ptrinit", *(f"s_{q}" for q in proc.states)])
    for q, _, q2 in edges:
        states[q] = states[q2] = None
    return RegisterMachine(
        name=f"{proc.name}_pivot",
        states=tuple(states),
        q_init="boot",
        q_target=f"s_{proc.q_final}",
        registers=_pivot_registers(mem),
        bound=len(mem.messages()) + 1,
        adt=adt,
        delta=tuple(edges),
    )


def lift_pivot_witness(
    proc: ProcessDescription,
    mem: MemorySpec,
    adt: AdtSpec,
    omega: tuple[Message, ...],
    labels,
) -> tuple[RmEdge, ...]:
    """A run of build_register_machine(proc, mem, adt) to its target that
    simulates a pivot run to the process target, given its update sequence
    omega and its labels, each with its transition index (the final prefix
    and the path of a pivot_search that reached the target), built without
    the whole machine.

    The run ranks the messages of omega in order, sets the progress
    pointer to 1, and then takes, for each pivot step, the branch of its
    transition's gadget that simulates its rule; a write2 step goes on
    through the pointer initializer to the next provider.  Inside a branch
    the registers pick each side of a max-update diamond, and they mirror
    the pivot state's pointers (lw_x = d + 1, phl_x, phe, phlmax = max
    phl, php = |prefix| + 1).

    Only the guess chains of omega, the pointer initializer and the
    gadgets of the transitions the run takes are built, each once, and the
    run is walked once under model.fire.  Each step fires the edges of its
    own piece that leave the walk's state, decoded with the machine's
    registers and bound; each distinct action is decoded once per lift.
    This walk is the replay of the lifted run: a step with no enabled
    edge, or a run that ends away from the target, raises WitnessError.
    Every edge is an edge of the whole machine, named as there.
    """
    messages = mem.messages()
    idx = {r: i for i, r in enumerate(_pivot_registers(mem))}
    bound = len(messages) + 1
    s_init = f"s_{proc.q_init}"
    # the run in segments: the piece a segment walks, and its last state
    segments = [([("boot", act("set", "rknxt", 1), "guess")], "guess")]
    segments += [(_guess_chain(messages.index(m), m), "guess") for m in omega]
    segments.append(([("guess", act("set", "php", 1), s_init)], s_init))
    ptrinit = None  # built at the first write2 step
    gadgets: dict[int, dict[str, list[RmEdge]]] = {}
    for label in labels:
        k, rule = label.k, label.rule
        if k not in gadgets:
            gadgets[k] = _gadget(k, proc.delta[k], mem.domain)
        if rule not in gadgets[k]:
            raise WitnessError(f"lifted witness: transition {k} has no {rule} branch")
        if rule == "write2":
            ptrinit = ptrinit or (_ptrinit_chain(mem.variables, s_init), s_init)
            segments += [(gadgets[k][rule], "ptrinit"), ptrinit]
        else:
            segments.append((gadgets[k][rule], f"s_{proc.delta[k][2]}"))
    c = RmConfiguration("boot", (0,) * len(idx), adt.initial_value())
    steps: dict = {}  # each action decoded so far, to its step
    run = []
    for edges, last in segments:
        while True:
            step = fire(decode_edges([e for e in edges if e[0] == c.state], steps, idx, bound),
                        adt, c)
            if not step:
                raise WitnessError(f"lifted witness: no edge of the pivot step enabled "
                                   f"at {c.state}")
            edge, c = step[0]
            run.append(edge)
            if c.state == last:
                break
    if c.state != f"s_{proc.q_final}":
        raise WitnessError(f"lifted witness ends in {c.state}, not the target")
    return tuple(run)


# ---------------------------------------------------------------------------
# Register machine -> TSO program


def build_tso_from_rm(rm: RegisterMachine) -> Program:
    """Wrap a tier-I machine into a parameterized TSO program.

    One shared variable mirrors each register, plus the two flags xs and
    xc.  Every process picks a role: the simulator runs the machine on the
    memory (reading only its own buffered writes or initial values), the
    scheduler raises xs, and the verifier -- after seeing xs -- checks that
    every register variable still holds its initial value and raises xc.
    The simulator may finish only if xs is still unset when it reaches the
    machine target, which forces the verification to happen after the
    whole simulation.
    """
    if rm.tier() > 1:
        raise ModelError("build_tso_from_rm needs a tier-I machine; lower it first")
    xvar = {r: f"xr_{r}" for r in rm.registers}
    mem = MemorySpec(
        variables=tuple(xvar[r] for r in rm.registers) + ("xs", "xc"),
        d_max=max(rm.bound, 1),
    )
    sim = {q: f"sim_{q}" for q in rm.states}
    states = ["start"] + [sim[q] for q in rm.states] + ["wait", "final", "sch0", "sch1"]
    ver = [f"ver{i}" for i in range(len(rm.registers) + 2)]
    states += ver

    delta: list = [
        ("start", skip(), sim[rm.q_init]),
        ("start", skip(), "sch0"),
        ("start", skip(), "ver0"),
    ]
    for q, act, q2 in rm.delta:
        if isinstance(act, AdtOp):
            instr = Instruction("op", op=act)
        elif act.kind == "skp":
            instr = skip()
        elif act.kind == "write":
            instr = wr(xvar[act.x], act.y)
        elif act.kind == "read":
            instr = rd(xvar[act.x], act.y)
        else:  # pragma: no cover - tier guard above
            raise ModelError(act.kind)
        delta.append((sim[q], instr, sim[q2]))
    delta += [
        (sim[rm.q_target], rd("xs", 0), "wait"),
        ("wait", rd("xc", 1), "final"),
        ("sch0", wr("xs", 1), "sch1"),
        ("ver0", rd("xs", 1), "ver1"),
    ]
    for i, r in enumerate(rm.registers):
        delta.append((ver[i + 1], rd(xvar[r], 0), ver[i + 2]))
    delta.append((ver[len(rm.registers) + 1], wr("xc", 1), "ver_done"))
    states.append("ver_done")

    proc = ProcessDescription(
        name=f"{rm.name}_tso",
        states=tuple(states),
        q_init="start",
        q_final="final",
        delta=tuple(delta),
    )
    return Program(mem=mem, adt=rm.adt, proc=proc)


# ---------------------------------------------------------------------------
# Language intersection emptiness -> stack register machine


def encode_intersection(
    pda: PushdownAutomaton, fsas: tuple[FiniteAutomaton, ...]
) -> RegisterMachine:
    """Guess an input word letter by letter and run all automata on it.

    Registers hold the current state of the PDA and of each FSA plus the
    guessed letter; the machine stack mirrors the PDA stack.  The target is
    reachable iff some word is accepted by every automaton, i.e. iff the
    intersection is nonempty.  States and symbols are numbered from 1, so
    0 never collides with an automaton state.
    """
    for fsa in fsas:
        if set(fsa.alphabet) != set(pda.alphabet):
            raise ModelError("all automata must share the input alphabet")
    sigma = {a: i + 1 for i, a in enumerate(pda.alphabet)}
    pda_num = {q: i + 1 for i, q in enumerate(pda.states)}
    fsa_nums = [{q: i + 1 for i, q in enumerate(f.states)} for f in fsas]
    bound = max(
        [len(pda.states), len(pda.alphabet)] + [len(f.states) for f in fsas] + [1]
    )
    r_k = "rK"
    r_s = "rsym"
    r_f = [f"rf{i + 1}" for i in range(len(fsas))]
    registers = (r_k, r_s) + tuple(r_f)

    n = len(fsas)
    stages = ["stage0"] + [f"stage{i + 1}" for i in range(n)]
    gs = _Gensym(["boot", "loop", "found"] + stages)
    edges: list[RmEdge] = []

    # initialize the state registers with the numbered initial states
    inits = [write(r_k, pda_num[pda.initial])]
    inits += [write(r_f[i], fsa_nums[i][f.initial]) for i, f in enumerate(fsas)]
    _path(edges, gs.fresh, "boot", inits, "loop")

    # guess the next input letter
    for a in pda.alphabet:
        edges.append(("loop", write(r_s, sigma[a]), "stage0"))

    def stage_target(i: int) -> str:
        return "loop" if i == n else stages[i + 1]

    # one PDA move on the guessed letter
    for q1, a, gamma, q2, w in pda.transitions:
        chain: list = [read(r_k, pda_num[q1]), read(r_s, sigma[a])]
        if gamma is not None:
            chain.append(AdtOp("pop", gamma))
        chain += [AdtOp("push", g) for g in w]
        chain.append(write(r_k, pda_num[q2]))
        _path(edges, gs.fresh, "stage0", chain, stage_target(0))

    # one move of each FSA on the same letter
    for i, fsa in enumerate(fsas):
        for p, a, p2 in fsa.transitions:
            _path(edges, gs.fresh, stages[i + 1],
                  [read(r_f[i], fsa_nums[i][p]), read(r_s, sigma[a]),
                   write(r_f[i], fsa_nums[i][p2])],
                  stage_target(i + 1))

    # stop guessing and check that every automaton accepts
    acc = ["loop"] + [gs.fresh() for _ in range(n)] + ["found"]
    for f_state in pda.accepting:
        edges.append((acc[0], read(r_k, pda_num[f_state]), acc[1]))
    for i, fsa in enumerate(fsas):
        for f_state in fsa.accepting:
            edges.append((acc[i + 1], read(r_f[i], fsa_nums[i][f_state]), acc[i + 2]))

    states = ["boot", "loop", "found"] + stages + acc[1:-1]
    states += sorted({q for e in edges for q in (e[0], e[2])} - set(states))
    return RegisterMachine(
        name="intersection",
        states=tuple(states),
        q_init="boot",
        q_target="found",
        registers=registers,
        bound=bound,
        adt=AdtSpec(kind="stack", alphabet=pda.stack_alphabet),
        delta=tuple(edges),
    )


# ---------------------------------------------------------------------------
# Petri register machine <-> coverability


def _fresh_prefix(base: str, taken) -> str:
    prefix = base
    while any(t.startswith(prefix) for t in taken):
        prefix += "_"
    return prefix


def encode_rm_to_coverability_labelled(
    rm: RegisterMachine,
) -> tuple[CoverabilityInstance, dict[str, RmEdge], tuple[tuple[frozenset, int], ...]]:
    """Coverability instance, a net-transition -> machine-edge map, and the
    place invariants the construction guarantees, for a tier-I Petri
    machine with no reset edge.

    Each invariant (places, k) states that every reachable marking carries
    exactly k tokens across those places: one control token, and one token
    per register among its value places.  A backward coverability search
    can use them to discard demand markings no reachable marking can cover;
    the reference search ``tests/helpers.py::petri_net_backward`` does.
    """
    if rm.adt.kind != "petri":
        raise ModelError("encode_rm_to_coverability needs a petri data type")
    if rm.tier() > 1:
        raise ModelError("lower the machine to tier I first")
    adt_places = rm.adt.places
    at = _fresh_prefix("at_", adt_places)
    regp = _fresh_prefix("reg_", adt_places)
    p_state = {q: f"{at}{q}" for q in rm.states}
    p_reg = {(r, d): f"{regp}{r}_{d}" for r in rm.registers for d in range(rm.bound + 1)}

    transitions: list[PetriTransition] = []
    labels: dict[str, RmEdge] = {}

    def add(name: str, inputs: Marking, outputs: Marking, edge: RmEdge) -> None:
        transitions.append(PetriTransition(name, inputs, outputs))
        labels[name] = edge

    for i, edge in enumerate(rm.delta):
        q, act, q2 = edge
        base_in = {p_state[q]: 1}
        base_out = {p_state[q2]: 1}
        if isinstance(act, AdtOp):
            if act.name == RESET:
                raise ModelError("the net encoding has no reset operation", i)
            t = rm.adt.net_transition(act.name)
            add(
                f"t{i}",
                marking_add(mk_marking(base_in), t.inputs),
                marking_add(mk_marking(base_out), t.outputs),
                edge,
            )
        elif act.kind == "skp":
            add(f"t{i}", mk_marking(base_in), mk_marking(base_out), edge)
        elif act.kind == "read":
            ins = dict(base_in)
            ins[p_reg[(act.x, act.y)]] = 1
            outs = dict(base_out)
            outs[p_reg[(act.x, act.y)]] = 1
            add(f"t{i}", mk_marking(ins), mk_marking(outs), edge)
        elif act.kind == "write":
            for d2 in range(rm.bound + 1):
                ins = dict(base_in)
                ins[p_reg[(act.x, d2)]] = ins.get(p_reg[(act.x, d2)], 0) + 1
                outs = dict(base_out)
                outs[p_reg[(act.x, act.y)]] = outs.get(p_reg[(act.x, act.y)], 0) + 1
                add(f"t{i}_d{d2}", mk_marking(ins), mk_marking(outs), edge)
        else:  # pragma: no cover - tier guard above
            raise ModelError(act.kind)

    initial = dict(rm.adt.initial_marking)
    initial[p_state[rm.q_init]] = 1
    for r in rm.registers:
        initial[p_reg[(r, 0)]] = 1
    instance = CoverabilityInstance(
        places=adt_places + tuple(p_state[q] for q in rm.states)
        + tuple(p_reg[k] for k in sorted(p_reg)),
        transitions=tuple(transitions),
        initial=mk_marking(initial),
        target=mk_marking({p_state[rm.q_target]: 1}),
    )
    invariants = [(frozenset(p_state.values()), 1)]
    for r in rm.registers:
        invariants.append(
            (frozenset(p_reg[(r, d)] for d in range(rm.bound + 1)), 1)
        )
    return instance, labels, tuple(invariants)


def encode_coverability_to_rm(inst: CoverabilityInstance) -> RegisterMachine:
    """The hardness direction: cover the target iff the machine target is
    reachable.  The net runs in self-loops; one extra net transition
    consumes the target marking."""
    taken = {t.name for t in inst.transitions}
    cover_name = "t_cover"
    while cover_name in taken:
        cover_name += "_"
    adt = AdtSpec(
        kind="petri",
        places=inst.places,
        transitions=inst.transitions
        + (PetriTransition(cover_name, inst.target, ()),),
        initial_marking=inst.initial,
    )
    delta: list[RmEdge] = [("go", AdtOp(t.name), "go") for t in inst.transitions]
    delta.append(("go", AdtOp(cover_name), "covered"))
    return RegisterMachine(
        name="coverability",
        states=("go", "covered"),
        q_init="go",
        q_target="covered",
        registers=(),
        bound=0,
        adt=adt,
        delta=tuple(delta),
    )
