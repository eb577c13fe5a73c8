"""Reductions between the process, register-machine and net worlds.

build_register_machine   pivot semantics of a TSO program, as one register
                         machine over the same data type
lift_pivot_witness       a pivot run to the process target, as a run of that
                         machine to its target
build_tso_from_rm        a register machine, as a parameterized TSO program
                         (simulator / scheduler / verifier roles)
encode_intersection      PDA-and-FSAs language intersection emptiness, as a
                         stack register machine
encode_rm_to_coverability_labelled
                         tier-I Petri register machine, as a net
                         coverability instance with the machine edge of
                         each net transition
encode_coverability_to_rm
                         net coverability instance, as a register machine
"""

from __future__ import annotations

import functools

from .adt import (
    RESET,
    AdtOp,
    AdtSpec,
    Marking,
    PetriTransition,
    marking_add,
    mk_marking,
    value_pruner,
)
from .automata import CoverabilityInstance, FiniteAutomaton, PushdownAutomaton
from .model import (
    MemorySpec,
    ModelError,
    ProcessDescription,
    Program,
    RegisterMachine,
    RmEdge,
    _Gensym,
    rd,
    read,
    replay_rm,
    rm_step,
    skip,
    wr,
    write,
)
from .model import Instruction, Message, RegisterAction
from .verdict import REACHED, WitnessError, explore


def _rank_register(m: Message) -> str:
    return f"rk_{m[0]}_{m[1]}"


# ---------------------------------------------------------------------------
# TSO program -> register machine (the pivot simulation)


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
    initializer guesses the update sequence, the pointer initializer starts
    each new provider (including a data-type reset, since a provider is a
    fresh process).  Equal actions are one object within one build, and only
    within it, so the machine decodes each of them once.
    """
    messages = mem.messages()
    n_msgs = len(messages)
    bound = n_msgs + 1

    lw = {x: f"lw_{x}" for x in mem.variables}
    phl = {x: f"phl_{x}" for x in mem.variables}
    rk = {m: _rank_register(m) for m in messages}
    phe, phlmax, php, rknxt = "phe", "phlmax", "php", "rknxt"
    registers = (
        tuple(lw[x] for x in mem.variables)
        + tuple(phl[x] for x in mem.variables)
        + tuple(rk[m] for m in messages)
        + (phe, phlmax, php, rknxt)
    )

    s = {q: f"s_{q}" for q in proc.states}
    gs = _Gensym(list(s.values()) + ["boot", "guess", "ptrinit"])
    edges: list[RmEdge] = []
    _act = functools.cache(RegisterAction)  # one object per distinct action

    # rank initializer: repeatedly pick an unranked message, give it the
    # next rank, and nondeterministically stop into the first provider
    edges.append(("boot", _act("set", rknxt, 1), "guess"))
    for m in messages:
        a, b = gs.fresh(), gs.fresh()
        edges += [
            ("guess", _act("cke", rk[m], 0), a),
            (a, _act("set", rk[m], rknxt), b),
            (b, _act("inc", rknxt), "guess"),
        ]
    edges.append(("guess", _act("set", php, 1), s[proc.q_init]))

    # pointer initializer: reset every pointer except the progress pointer,
    # advance the progress pointer, and hand a fresh data value to the
    # next provider
    cur = "ptrinit"
    steps: list[RegisterAction | AdtOp] = [_act("set", phe, 0)]
    steps += [_act("set", phl[x], 0) for x in mem.variables]
    steps.append(_act("set", phlmax, 0))
    steps += [_act("set", lw[x], 0) for x in mem.variables]
    steps.append(_act("inc", php))
    steps.append(AdtOp(RESET))
    for i, step in enumerate(steps):
        nxt = s[proc.q_init] if i == len(steps) - 1 else gs.fresh()
        edges.append((cur, step, nxt))
        cur = nxt

    # the simulator: one gadget per process transition
    for q, instr, q2 in proc.delta:
        src, dst = s[q], s[q2]
        if instr.kind == "skip":
            edges.append((src, _act("skp"), dst))
        elif instr.kind == "op":
            edges.append((src, instr.op, dst))
        elif instr.kind == "mf":
            u = gs.fresh()
            edges += [
                (src, _act("ckge", phe, phlmax), dst),
                (src, _act("ckl", phe, phlmax), u),
                (u, _act("set", phe, phlmax), dst),
            ]
        elif instr.kind == "wr":
            x, d = instr.var, instr.val
            r = rk[(x, d)]
            # the provider's own pivot: hand over to the next provider
            edges.append((src, _act("cke", r, php), "ptrinit"))
            # an already provided message: record the own write
            u1, u2, u3, u4, u5 = (gs.fresh() for _ in range(5))
            edges += [
                (src, _act("ckge", r, 1), u1),
                (u1, _act("ckl", r, php), u2),
                (u2, _act("set", lw[x], d + 1), u3),
                (u3, _act("ckge", phlmax, r), u5),
                (u3, _act("ckl", phlmax, r), u4),
                (u4, _act("set", phlmax, r), u5),
                (u5, _act("set", phl[x], phlmax), dst),
            ]
        elif instr.kind == "rd":
            x, d = instr.var, instr.val
            r = rk[(x, d)]
            # read own last write
            edges.append((src, _act("cke", lw[x], d + 1), dst))
            # read a message some earlier provider propagated
            v1, v2, v4, v5 = (gs.fresh() for _ in range(4))
            v3 = gs.fresh()
            edges += [
                (src, _act("ckge", r, 1), v1),
                (v1, _act("ckl", r, php), v2),
                (v2, _act("ckge", phe, phl[x]), v4),
                (v2, _act("ckl", phe, phl[x]), v3),
                (v3, _act("set", phe, phl[x]), v4),
                (v4, _act("ckge", phe, r), dst),
                (v4, _act("ckl", phe, r), v5),
                (v5, _act("set", phe, r), dst),
            ]
            if d == mem.d_init:
                # read the initial value: no own write, and no message on x
                # ranked at or below the external pointer
                cur = gs.fresh()
                edges.append((src, _act("cke", lw[x], 0), cur))
                for j, d2 in enumerate(mem.domain):
                    nxt = dst if j == len(mem.domain) - 1 else gs.fresh()
                    r2 = rk[(x, d2)]
                    edges += [
                        (cur, _act("cke", r2, 0), nxt),
                        (cur, _act("ckg", r2, phe), nxt),
                    ]
                    cur = nxt

    states = ["boot", "guess", "ptrinit"] + [s[q] for q in proc.states]
    states += sorted({q for e in edges for q in (e[0], e[2])} - set(states))
    return RegisterMachine(
        name=f"{proc.name}_pivot",
        states=tuple(states),
        q_init="boot",
        q_target=s[proc.q_final],
        registers=registers,
        bound=bound,
        adt=adt,
        delta=tuple(edges),
    )


def lift_pivot_witness(
    rm: RegisterMachine,
    omega: tuple[Message, ...],
    value_bound: int | None = None,
) -> tuple[RmEdge, ...]:
    """A run of rm = build_register_machine(proc, mem, adt) to its target,
    given that the pivot search reaches the process target providing the
    messages of omega in that order.

    The run's guess phase ranks the messages of omega in order, then sets
    the progress pointer to 1.  The rank registers never change after
    that, so a breadth-first search over rm_step from there, with values
    above value_bound pruned as in the pivot search, only has to find a
    pivot run for this one update sequence.  With the ranks fixed and the
    values bounded that space is finite and holds the run that simulates
    the pivot run, so the search needs no budget.  The whole run is
    replayed with replay_rm before it is returned; a search that ends
    without the target, or a run that does not replay to it, raises
    WitnessError.
    """
    def edge_from(q: str, act=None) -> RmEdge:
        # the guess-phase edges from q, or the one among them carrying act
        for edge, _ in rm.edges_from(q):
            if act is None or edge[1] == act:
                return edge
        raise WitnessError(f"no guess-phase edge from {q}")

    run = [edge_from(rm.q_init)]  # set rknxt 1
    for m in omega:
        check = edge_from("guess", RegisterAction("cke", _rank_register(m), 0))
        give = edge_from(check[2])
        run += [check, give, edge_from(give[2])]
    run.append(edge_from("guess", RegisterAction("set", "php", 1)))
    try:
        start = replay_rm(rm, run)
    except ModelError as e:
        raise WitnessError(f"guess phase does not replay: {e}") from e
    target = rm.q_target
    r = explore(start, functools.partial(rm_step, rm), lambda c: c.state == target,
                prune=value_pruner(rm.adt, value_bound))
    if r.outcome != REACHED:
        raise WitnessError("the machine does not reach its target under the ranks "
                           "of the pivot witness")
    run += r.path
    try:
        final = replay_rm(rm, run).state
    except ModelError as e:
        raise WitnessError(f"lifted witness does not replay: {e}") from e
    if final != target:
        raise WitnessError(f"lifted witness ends in {final}, not the target")
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
    states = ["start"] + [sim[q] for q in rm.states] + ["sim_wait", "final", "sch0", "sch1"]
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
        (sim[rm.q_target], rd("xs", 0), "sim_wait"),
        ("sim_wait", rd("xc", 1), "final"),
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
    cur = "boot"
    inits: list[tuple[str, int]] = [(r_k, pda_num[pda.initial])]
    inits += [(r_f[i], fsa_nums[i][f.initial]) for i, f in enumerate(fsas)]
    for j, (reg, val) in enumerate(inits):
        nxt = "loop" if j == len(inits) - 1 else gs.fresh()
        edges.append((cur, write(reg, val), nxt))
        cur = nxt

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
        cur = "stage0"
        for j, step in enumerate(chain):
            nxt = stage_target(0) if j == len(chain) - 1 else gs.fresh()
            edges.append((cur, step, nxt))
            cur = nxt

    # one move of each FSA on the same letter
    for i, fsa in enumerate(fsas):
        for p, a, p2 in fsa.transitions:
            m1, m2 = gs.fresh(), gs.fresh()
            edges += [
                (stages[i + 1], read(r_f[i], fsa_nums[i][p]), m1),
                (m1, read(r_s, sigma[a]), m2),
                (m2, write(r_f[i], fsa_nums[i][p2]), stage_target(i + 1)),
            ]

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
    place invariants the construction guarantees.

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

    def add(name: str, inputs: Marking, outputs: Marking, resets, edge: RmEdge) -> None:
        transitions.append(PetriTransition(name, inputs, outputs, tuple(resets)))
        labels[name] = edge

    for i, edge in enumerate(rm.delta):
        q, act, q2 = edge
        base_in = {p_state[q]: 1}
        base_out = {p_state[q2]: 1}
        if isinstance(act, AdtOp):
            if act.name == RESET:
                add(
                    f"t{i}",
                    mk_marking(base_in),
                    marking_add(mk_marking(base_out), rm.adt.initial_marking),
                    adt_places,
                    edge,
                )
            else:
                t = rm.adt.net_transition(act.name)
                add(
                    f"t{i}",
                    marking_add(mk_marking(base_in), t.inputs),
                    marking_add(mk_marking(base_out), t.outputs),
                    t.resets,
                    edge,
                )
        elif act.kind == "skp":
            add(f"t{i}", mk_marking(base_in), mk_marking(base_out), (), edge)
        elif act.kind == "read":
            ins = dict(base_in)
            ins[p_reg[(act.x, act.y)]] = 1
            outs = dict(base_out)
            outs[p_reg[(act.x, act.y)]] = 1
            add(f"t{i}", mk_marking(ins), mk_marking(outs), (), edge)
        elif act.kind == "write":
            for d2 in range(rm.bound + 1):
                ins = dict(base_in)
                ins[p_reg[(act.x, d2)]] = ins.get(p_reg[(act.x, d2)], 0) + 1
                outs = dict(base_out)
                outs[p_reg[(act.x, act.y)]] = outs.get(p_reg[(act.x, act.y)], 0) + 1
                add(f"t{i}_d{d2}", mk_marking(ins), mk_marking(outs), (), edge)
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
