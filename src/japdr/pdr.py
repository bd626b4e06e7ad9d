"""Property-directed reachability over a constrained transition relation.

Frames F_0 .. F_K over-approximate the states reachable in as many steps
when every step is taken from a frame satisfying the constraint section
and all constraint properties (and the target itself). F_0 is the reset
state, handled as solver assumptions; later frames are clause sets in
delta encoding, each clause owned by the highest level it holds at plus
an extra level for clauses proven inductive outright.

Cubes and clauses over latches are tuples of packed ints: 2*pos says
"latch pos is 1", 2*pos+1 says "latch pos is 0". A clause is the
disjunction of its literals, a cube the conjunction.

Bad outputs may read primary inputs, so "the property holds in a state"
means no input valuation fires bad there; the final frame of a
counterexample is exempt from every constraint.

`check_property` owns the proof rule. It first asks `_reset_inputs`
whether the target's bad fires in the reset state, the one reset query
of a check: the circuit's ternary reset values answer 0 and 1, and only
an X asks a solver. A hit is a one-frame counterexample, and nothing
else is built. Then it asks whether target and seeds are inductive as
they stand on the certificate holder, which no engine touches: a yes is
proof and certificate at once, and no engine is built. Otherwise
`certify` asks both questions of the engine's proof there; a rejected
proof drops its seeds and runs once more, or is a `PdrError` if it had
none, so clause re-use never manufactures a verdict. A run's
certificates share its solver, each behind an activation literal it
retires. The inductive half is one `houdini_round` (the seed filter,
`clausedb.filter_invariant`, runs them to their fixpoint).
Engine solvers are built for the queries they serve (see `PdrEngine`);
lifting needs none, since a model fixes every latch and input and one
pass over the gate table finds the latches that justify the goal.

A check's one `PdrStats` carries its deadline and every count. Every SAT
query goes through `ask`, which counts it there and raises `Exhausted`
(a `PdrError`) once the deadline passes; every caller lets `Exhausted`
through to `orchestrator._check_one`.
"""

from __future__ import annotations

import enum
import heapq
import time
from dataclasses import dataclass
from functools import cached_property

from .circuit import Circuit, Counterexample, PropertySpec, TraceFrame, eval_transition
from .encode import StepEncoding, const_true, constrained_step
from .sat import Solver, Status, pos


class PdrError(Exception):
    pass


class Exhausted(PdrError):
    """The deadline passed before a SAT query had its answer."""


# ----------------------------------------------------------- latch literals


def latch_literal(latch_pos: int, value: int) -> int:
    return 2 * latch_pos + (0 if value else 1)


def negate_lits(lits) -> tuple[int, ...]:
    """A cube's negation as a clause (and the other way round)."""
    return tuple(sorted(l ^ 1 for l in lits))


def clause_holds(state, clause) -> bool:
    """Whether the latch values `state` satisfy the clause."""
    return any(state[l >> 1] == 1 - (l & 1) for l in clause)


# ------------------------------------------------------------------- types


class PdrStatus(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"


@dataclass
class PdrStats:
    """The budget of one check: its absolute deadline (`time.monotonic()`)
    and what the engine, the seed filter and `certify` spent, counted into
    the record they are given, so a check cut by an error keeps its counts."""

    deadline: float | None = None
    frames_opened: int = 0
    sat_calls: int = 0
    clauses_learned: int = 0


@dataclass
class PdrOutcome:
    status: PdrStatus
    stats: PdrStats
    invariant: tuple[tuple[int, ...], ...] | None = None  # on HOLDS
    cex: Counterexample | None = None  # on FAILS
    seeds_used: int = 0  # seeds behind the outcome; 0 once they are dropped


@dataclass
class ProofObligation:
    """A cube to block; its level and queue order live in its heap entry."""

    cube: tuple[int, ...]
    succ: "ProofObligation | None"  # toward the bad frame
    inputs: tuple[int, ...]


class _CexFound(Exception):
    def __init__(self, ob: ProofObligation):
        self.ob = ob


# ------------------------------------------------------------------ engine


class _Frames:
    """One solver's image of the frames: a circuit copy, one activation
    literal per level and one for the inductive clauses. The reset frame
    F_0 is assumed latch by latch, never a clause set. Each
    `houdini_round` uses one with no levels for its candidates."""

    def __init__(self, enc: StepEncoding, levels: int):
        self.enc = enc
        self.solver = enc.solver
        self.inf_act = pos(self.solver.new_var())
        self.acts = [0]
        self.open(levels)

    def open(self, level: int) -> None:
        while len(self.acts) <= level:
            self.acts.append(pos(self.solver.new_var()))

    def add(self, clause, level: int | None) -> None:
        act = self.inf_act if level is None else self.acts[level]
        lits = [self.enc.latch_lit(l >> 1, 1 - (l & 1)) for l in clause]
        self.solver.add_clause([act ^ 1, *lits])

    def retire(self) -> None:
        """Switch every clause added here off for good (unit ¬act), so a
        solver shared with later engines carries none of them."""
        for act in (self.inf_act, *self.acts[1:]):
            self.solver.add_clause([act ^ 1])


class PdrEngine:
    """One property, one context, one solver per kind of SAT query, each
    built when the first query of its kind comes. The caller has ruled
    out a failure at reset (`check_property` asks `_reset_inputs` first),
    so the engine asks no reset query and starts at frame 1.

    The bad solver is built with the engine; the frontier queries go to
    it. It holds one present-state copy of the target's bad cone plus every
    latch (frame clauses name them all), with bad forced; a primary
    input outside that cone reads as 0 in its models. The step
    solver carries the transition relation over the cone of the latches,
    their next-state functions, the constraints and the bads of the
    target and every constraint property, with the constraint section
    and those bads forced clean on the present-state copy; gates feeding
    none of these are not encoded, and inputs outside the cone read as 0.
    It comes from `steps`, which hands one solver to consecutive checks
    of one property set (without a holder the engine gets a fresh one).
    The engine's seeds and frames sit there behind activation literals
    of its own, which `run` retires however it ends.

    Lifting a model to a cube is a simulation pass over the gates
    (`_lift`), so it needs no solver. A lifted predecessor keeps the
    constraint section, the target and every constraint property clean,
    so no counterexample brushes a state that violates an assumed
    property before its final frame. The engine counts into `stats` (a
    fresh record without one); past its deadline `run` raises `Exhausted`.
    """

    def __init__(
        self,
        circuit: Circuit,
        target: PropertySpec,
        constraint_props=(),
        seed_clauses=(),
        *,
        stats: PdrStats | None = None,
        steps: StepHolder | None = None,
    ):
        self.circuit = circuit
        self.target = target
        self.constraint_props = tuple(constraint_props)
        self._inf = _checked(circuit, target, self.constraint_props, seed_clauses, seeds=True)
        self.stats = stats or PdrStats()
        self.stats.frames_opened = 1
        self.init = circuit.init_state()
        self._nl = circuit.num_latches
        self._steps = steps or StepHolder()

        bad = Solver()
        enc_bad = StepEncoding(bad, circuit, cone_roots=[target.bad, *circuit.latch_vars])
        bad.add_clause([enc_bad.lit(target.bad)])
        self._bad = _Frames(enc_bad, 1)
        for clause in self._inf:
            self._bad.add(clause, None)

        # owned[j] for j >= 1; level 0 is the reset cube, never a clause set
        self._owned: list[list[tuple[int, ...]]] = [[], []]
        self.frontier = 1

        self._obq: list[tuple[int, int, ProofObligation]] = []
        self._obseq = 0
        self._ran = False

    # ------------------------------------------------------------- plumbing

    def _cube_holds_init(self, cube) -> bool:
        """Whether the reset state lies inside the cube."""
        return not clause_holds(self.init, (l ^ 1 for l in cube))

    def _frame_assumps(self, frames: _Frames, level: int) -> list[int]:
        if level == 0:
            return [frames.enc.latch_lit(i, v) for i, v in enumerate(self.init)]
        return frames.acts[level : self.frontier + 1] + [frames.inf_act]

    def _store_clause(self, clause: tuple[int, ...], level: int) -> None:
        """Record a clause at `level` and add it to both frame solvers.
        Older copies of it below `level` leave the frame lists; the
        solvers keep them, implied. Only seeds sit at the inductive level."""
        for frames in (self._bad, self._step):
            frames.add(clause, level)
        for j in range(1, level):
            if clause in self._owned[j]:
                self._owned[j].remove(clause)
        self._owned[level].append(clause)

    def _open_level(self, level: int) -> None:
        while len(self._owned) <= level:
            self._owned.append([])
        for frames in (self._bad, self._step):
            frames.open(level)

    @cached_property
    def _step(self) -> _Frames:
        step = self._steps.step(self.circuit, (self.target, *self.constraint_props))
        frames = _Frames(step, len(self._owned) - 1)
        for clause in self._inf:
            frames.add(clause, None)
        return frames

    # -------------------------------------------------------------- queries

    def _consecution(self, cube, frame_level: int, exclude_cube: bool):
        """SAT query for a constrained step from F_frame_level into `cube`.

        Returns (result, pairs) where pairs maps each next-state
        assumption literal back to its cube literal for core extraction.
        With exclude_cube the query is restricted to predecessors outside
        the cube, which is what relative induction asks for.
        """
        step = self._step
        enc, solver = step.enc, step.solver
        assumps = self._frame_assumps(step, frame_level)
        act = None
        if exclude_cube:
            act = pos(solver.new_var())
            solver.add_clause([act ^ 1, *(enc.latch_lit(l >> 1, l & 1) for l in cube)])
            assumps.append(act)
        pairs = [(enc.next_lit(l >> 1) ^ (l & 1), l) for l in cube]
        assumps.extend(sl for sl, _ in pairs)
        try:
            result = ask(solver, assumps, self.stats)
        finally:
            if act is not None:
                solver.add_clause([act ^ 1])
        return result, pairs

    def _core_cube(self, result, pairs, base_cube) -> tuple[int, ...]:
        """Cube literals the unsat core kept, patched to stay off reset."""
        kept = {cl for sl, cl in pairs if sl in result.core}
        if self._cube_holds_init(kept):
            for l in sorted(base_cube):
                if not clause_holds(self.init, (l,)) and l not in kept:
                    kept.add(l)
                    break
            else:
                raise PdrError("cannot separate cube from the reset state")
        return tuple(sorted(kept))

    # -------------------------------------------------------------- lifting

    def _lift(self, state, inputs, goals) -> tuple[int, ...]:
        """The latches of `state` that fix every goal literal true under
        `inputs`, found by one simulation pass. Each variable carries a
        bit mask of the latches that fix its value: an AND gate at 1
        needs both operands, one at 0 only a 0 operand (the one with
        fewer bits, the left on a tie)."""
        val = [1, *inputs, *state]
        mask = [0] * (1 + len(inputs)) + [1 << i for i in range(self._nl)]
        for l, lm, r, rm in self.circuit.gate_table:
            a, b = (val[l] ^ lm) & 1, (val[r] ^ rm) & 1
            val.append(a & b)
            if a and b:
                mask.append(mask[l] | mask[r])
            elif not a and (b or mask[l].bit_count() <= mask[r].bit_count()):
                mask.append(mask[l])
            else:
                mask.append(mask[r])
        kept = 0
        for goal in goals:
            if not val[goal.var] ^ goal.negated:
                raise PdrError("lifting goal is false in the model; encoding is broken")
            kept |= mask[goal.var]
        return tuple(latch_literal(i, state[i]) for i in range(self._nl) if kept >> i & 1)

    def _lift_final(self, state, inputs) -> tuple[int, ...]:
        # every state of the cube fires bad under these inputs
        return self._lift(state, inputs, [self.target.bad])

    def _lift_pred(self, state, inputs, succ_cube) -> tuple[int, ...]:
        # every state of the cube steps into the successor cube from a
        # frame the constraint section and every assumed property allow
        nxt = [(self.circuit.latches[l >> 1].next, l & 1) for l in succ_cube]
        goals = [~n if neg else n for n, neg in nxt]
        goals.extend(self.circuit.constraints)
        goals.extend(~p.bad for p in (self.target, *self.constraint_props))
        return self._lift(state, inputs, goals)

    # ------------------------------------------------------- generalization

    def generalize(self, cube, level: int) -> tuple[int, ...]:
        """Drop literals while the negation stays inductive relative to
        F_{level-1}: one pass over the cube's literals in index order, each
        UNSAT answer shrinking the cube to its core."""
        if not 1 <= level <= self.frontier:
            raise ValueError(f"level {level} outside 1..{self.frontier}")
        cur = set(cube)
        if self._cube_holds_init(cur):
            raise ValueError("cube covers the reset state")
        for lit in sorted(cube):
            if lit not in cur or len(cur) == 1:
                continue
            cand = tuple(sorted(cur - {lit}))
            if self._cube_holds_init(cand):
                continue
            result, pairs = self._consecution(cand, level - 1, exclude_cube=True)
            if result.status is Status.UNSAT:
                cur = set(self._core_cube(result, pairs, cand))
        return tuple(sorted(cur))

    # ------------------------------------------------------------ main loop

    def run(self) -> PdrOutcome:
        """Decide the target from frame 1 on; the caller has ruled out a
        failure at reset."""
        if self._ran:
            raise PdrError("engine instances are single-use")
        self._ran = True
        try:
            bad = self._bad
            while True:
                result = ask(
                    bad.solver, self._frame_assumps(bad, self.frontier), self.stats
                )
                if result.status is Status.SAT:
                    state = bad.enc.read_latches(result)
                    inputs = bad.enc.read_inputs(result)
                    cube = self._lift_final(state, inputs)
                    self._enqueue(ProofObligation(cube, None, inputs), self.frontier)
                    self._discharge()
                else:
                    self.frontier += 1
                    self._open_level(self.frontier)
                    self.stats.frames_opened = self.frontier
                    invariant = self._propagate_clauses()
                    if invariant is not None:
                        return PdrOutcome(
                            PdrStatus.HOLDS, self.stats, invariant=invariant
                        )
        except _CexFound as found:
            cex = self._reconstruct(found.ob)
            return PdrOutcome(PdrStatus.FAILS, self.stats, cex=cex)
        finally:
            if "_step" in self.__dict__:
                self._step.retire()

    def _enqueue(self, ob: ProofObligation, level: int) -> None:
        if self._cube_holds_init(ob.cube):
            raise _CexFound(ob)
        self._obseq += 1
        heapq.heappush(self._obq, (level, self._obseq, ob))

    def _is_blocked(self, cube, level: int) -> bool:
        cube_set = set(cube)
        for j in range(level, self.frontier + 1):
            for clause in self._owned[j]:
                if all((l ^ 1) in cube_set for l in clause):
                    return True
        return False

    def _discharge(self) -> None:
        while self._obq:
            level, seq, ob = heapq.heappop(self._obq)
            if self._is_blocked(ob.cube, level):
                if level < self.frontier:
                    heapq.heappush(self._obq, (level + 1, seq, ob))
                continue
            result, pairs = self._consecution(ob.cube, level - 1, exclude_cube=True)
            if result.status is Status.SAT:
                state = self._step.enc.read_latches(result)
                inputs = self._step.enc.read_inputs(result)
                pred_cube = self._lift_pred(state, inputs, ob.cube)
                self._enqueue(ProofObligation(pred_cube, ob, inputs), level - 1)
                heapq.heappush(self._obq, (level, seq, ob))
            else:
                kept = self._core_cube(result, pairs, ob.cube)
                gen = self.generalize(kept, level)
                top = level
                while top < self.frontier:
                    push, _ = self._consecution(gen, top, exclude_cube=True)
                    if push.status is not Status.UNSAT:
                        break
                    top += 1
                self._store_clause(negate_lits(gen), top)
                self.stats.clauses_learned += 1
                if level < self.frontier:
                    heapq.heappush(self._obq, (level + 1, seq, ob))

    def _propagate_clauses(self):
        """Push clauses outward after the frontier moves; a level left
        empty is a fixpoint and its outer union is the invariant. No
        clause sits at two levels, so the union holds each clause once."""
        for j in range(1, self.frontier):
            for clause in list(self._owned[j]):
                cube = negate_lits(clause)
                result, _ = self._consecution(cube, j, exclude_cube=False)
                if result.status is Status.UNSAT:
                    self._store_clause(clause, j + 1)
            if not self._owned[j]:
                outer = self._owned[j + 1 : self.frontier + 1]
                return (*(c for level in outer for c in level), *self._inf)
        return None

    def _reconstruct(self, ob: ProofObligation) -> Counterexample:
        chain = [ob]
        while chain[-1].succ is not None:
            chain.append(chain[-1].succ)
        frames = [TraceFrame(self.init, ob.inputs)]
        for link in chain[1:]:
            frames.append(TraceFrame(eval_transition(self.circuit, frames[-1]), link.inputs))
        return Counterexample(tuple(frames), self.target.index)


# -------------------------------------------------------------- module ops


def check_property(
    circuit: Circuit,
    target: PropertySpec,
    constraint_props=(),
    seed_clauses=(),
    *,
    stats: PdrStats | None = None,
    steps: StepHolder | None = None,
    certs: StepHolder | None = None,
) -> PdrOutcome:
    """Prove or refute one property under the given constraint context.

    An empty context is a global check; passing the other properties
    makes it a local one. Holds outcomes carry the strengthening clause
    set, Fails outcomes a counterexample whose final frame violates the
    target and whose earlier frames keep the constraint section, the
    target and the context clean. Past the deadline it raises
    `Exhausted`, and `stats` keeps the count. `stats` and `steps` are
    those of `PdrEngine`. Every Holds is certified on `certs` (without
    it, a fresh holder). A bad that fires at reset is a one-frame Fails, and nothing
    else is built. Seeds and target inductive as they stand are a Holds
    with the seeds, each once, as the invariant, and no engine is built.
    An engine proof must pass `certify`; a rejected one runs once more
    without seeds, or is a `PdrError` if it used none. The reset query
    is asked once, before either try. `seeds_used` counts the seeds
    behind the outcome.
    """
    seeds = _checked(circuit, target, constraint_props, seed_clauses, seeds=True)
    stats, steps, certs = stats or PdrStats(), steps or StepHolder(), certs or StepHolder()
    stats.frames_opened = 1
    inputs = _reset_inputs(circuit, target, stats)
    if inputs is not None:
        cex = Counterexample((TraceFrame(circuit.init_state(), inputs),), target.index)
        return PdrOutcome(PdrStatus.FAILS, stats, cex=cex, seeds_used=len(seeds))
    while True:
        if _inductive(circuit, constraint_props, seeds, target, stats, certs):
            return PdrOutcome(PdrStatus.HOLDS, stats, seeds, seeds_used=len(seeds))
        out = PdrEngine(circuit, target, constraint_props, seeds, stats=stats, steps=steps).run()
        if out.status is PdrStatus.FAILS or certify(
            circuit, constraint_props, out.invariant, target, stats=stats, steps=certs
        ):
            out.seeds_used = len(seeds)
            return out
        if not seeds:
            raise PdrError(f"certification rejected the proof of property {target.index}")
        seeds = ()


def _checked(circuit: Circuit, target: PropertySpec, constraint_props, clauses, seeds=False):
    """The clauses, each sorted and kept once; ValueError on a target
    among its own constraints, an empty clause, a non-latch literal or,
    for `seeds`, a clause false at reset."""
    if any(p.index == target.index for p in constraint_props):
        raise ValueError("target cannot appear among its own constraints")
    bound, init = 2 * circuit.num_latches, circuit.init_state()
    out = {}
    for clause in clauses:
        cl = tuple(clause)
        if not cl or not all(isinstance(l, int) and 0 <= l < bound for l in cl):
            raise ValueError(f"clause out of range: {clause}")
        if seeds and not clause_holds(init, cl):
            raise ValueError(f"seed clause violates the reset state: {clause}")
        out[tuple(sorted(cl))] = None
    return tuple(out)


def ask(solver: Solver, assumptions, stats: PdrStats):
    """The one gate of every SAT query the engine, the seed filter and
    `certify` ask: counts the call in `stats` and raises `Exhausted`
    when its deadline passes before the answer."""
    deadline = stats.deadline
    if deadline is None or time.monotonic() <= deadline:
        result = solver.solve(assumptions, deadline=deadline)
        stats.sat_calls += 1
        if result.status is not Status.UNKNOWN:
            return result
    raise Exhausted("SAT query ran out of budget")


def houdini_round(enc: StepEncoding, clauses, bad, stats: PdrStats):
    """One Houdini round: the clauses behind one activation literal on
    `enc`, then `bad` (a next-state literal, or None) and each clause's
    next-state negation asked under it, and the literal retired however
    the round ends; the retired clauses stay in the solver, satisfied at
    level 0. Returns the clauses that cannot break, in input order, or
    None once `bad` can fire."""
    solver = enc.solver
    frames = _Frames(enc, 0)
    act = frames.inf_act
    try:
        for clause in clauses:
            frames.add(clause, None)
        if bad is not None and ask(solver, [act, bad], stats).status is Status.SAT:
            return None
        kept = []
        for c in clauses:
            nxt = [enc.next_lit(l >> 1) ^ (1 - (l & 1)) for l in c]
            if ask(solver, [act, *nxt], stats).status is Status.UNSAT:
                kept.append(c)
        return kept
    finally:
        frames.retire()


def certify(
    circuit: Circuit,
    constraint_props,
    invariant_clauses,
    target: PropertySpec,
    *,
    stats: PdrStats | None = None,
    steps: StepHolder | None = None,
) -> bool:
    """Independent check of an engine's proof: `_inductive` asks whether
    target plus strengthening hold at reset and are inductive on `steps`,
    a holder no engine touches (without one, a fresh holder), so engine
    state cannot leak in, then `_reset_inputs` whether the bad fires at
    reset. `check_property` runs it on every engine proof, and checks the
    clauses as it checks seeds. Each query is an `ask` on `stats`;
    `Exhausted` goes through.
    """
    clauses = _checked(circuit, target, constraint_props, invariant_clauses)
    stats, steps = stats or PdrStats(), steps or StepHolder()
    return (
        _inductive(circuit, constraint_props, clauses, target, stats, steps)
        and _reset_inputs(circuit, target, stats) is None
    )


def _inductive(circuit, constraint_props, clauses, target, stats, steps) -> bool:
    """Whether the reset state satisfies the clauses, and from any
    constrained frame satisfying target and clauses the successor
    satisfies both again: one `houdini_round` with the target's
    next-state bad on the step of `steps`, after no query at all if a
    clause is false at reset. Whether the bad fires at reset is
    `_reset_inputs`'s question, not this one's."""
    init = circuit.init_state()
    if not all(clause_holds(init, c) for c in clauses):
        return False
    enc = steps.step(circuit, (target, *constraint_props))
    bad = steps.next_bad(target).lit(target.bad)
    kept = houdini_round(enc, clauses, bad, stats)
    return kept is not None and len(kept) == len(clauses)


def _reset_inputs(circuit: Circuit, target: PropertySpec, stats: PdrStats):
    """The inputs under which the target's bad fires in the reset state,
    or None. The bad's ternary reset value answers 0 and 1 (any inputs,
    all 0); only an X asks a small solver of its own over the target's
    reset cone: a step whose level-0 units contradict each other answers
    every query UNSAT, and must not answer this one."""
    value = circuit.reset_values[target.bad.var]
    if value is not None:
        return (0,) * circuit.num_inputs if value ^ target.bad.negated else None
    reset = Solver()
    init = [const_true(reset) ^ v ^ 1 for v in circuit.init_state()]
    enc = StepEncoding(reset, circuit, latch_lits=init, cone_roots=[target.bad])
    result = ask(reset, [enc.lit(target.bad)], stats)
    return enc.read_inputs(result) if result.status is Status.SAT else None


class StepHolder:
    """The constrained step of the last property set asked for, on one
    solver that consecutive users over that set share. In JA mode every
    expected-to-hold check assumes all the others, so one solver serves
    the whole pass. A run keeps two: one its engines share, each keeping
    its frames behind activation literals of its own and retiring them
    when its run ends, and one for `_inductive`, which no engine touches
    and alone gets next-state bad cones; the seed filter takes a fresh
    one per call."""

    def __init__(self):
        self._circuit: Circuit | None = None
        self._key: tuple | None = None
        self._enc: StepEncoding | None = None
        self._next_bad: dict[int, StepEncoding] = {}

    def step(self, circuit: Circuit, props) -> StepEncoding:
        key = tuple(sorted((p.index, p.bad) for p in props))
        if self._enc is None or self._circuit is not circuit or self._key != key:
            self._circuit, self._key, self._next_bad = circuit, key, {}
            self._enc = constrained_step(Solver(), circuit, props)
        return self._enc

    def next_bad(self, target: PropertySpec) -> StepEncoding:
        """The target's bad cone on the next state of the last step,
        added to its solver on first use."""
        nxt = self._next_bad.get(target.bad.var)
        if nxt is None:
            enc = self._enc
            latches = [enc.next_lit(i) for i in range(enc.circuit.num_latches)]
            nxt = StepEncoding(enc.solver, enc.circuit, latches, cone_roots=[target.bad])
            self._next_bad[target.bad.var] = nxt
        return nxt
