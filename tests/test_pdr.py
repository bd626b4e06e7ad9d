import dataclasses
import random
import time

import pytest

from japdr.aiger import build_counter, gen_counter, gen_random_circuit
from japdr import pdr
from japdr.circuit import (
    FALSE,
    CircuitBuilder,
    Literal,
    PropertySpec,
    TraceFrame,
    eval_transition,
    property_violated,
    replay_trace,
)
from japdr.oracle import CheckMode, ExplicitModel
from japdr.pdr import (
    PdrEngine,
    PdrError,
    PdrStats,
    PdrStatus,
    StepHolder,
    certify,
    check_property,
    clause_holds,
    latch_literal,
)
from japdr.sat import Solver, Status, pos

from explicit import property_inductive
from frames import constraints_hold, frame_satisfies
from test_encode import _with_dead_gates


def cube_of_state(state):
    return tuple(latch_literal(i, v) for i, v in enumerate(state))


def test_counter3_threshold_holds_locally_without_clauses():
    # with req assumed, the threshold is inductive as stated: the initial
    # frames already close, nothing is learned; the counter resets to 0,
    # so the bad is 0 at reset and the induction query is the only one
    c, props = gen_counter(3)
    out = check_property(c, props[1], constraint_props=[props[0]])
    assert out.status is PdrStatus.HOLDS
    assert out.invariant == ()
    assert out.stats.sat_calls == 1
    assert out.stats.clauses_learned == 0


def test_counter3_req_fails_locally_at_reset():
    c, props = gen_counter(3)
    out = check_property(c, props[0], constraint_props=[props[1]])
    assert out.status is PdrStatus.FAILS
    assert len(out.cex.frames) == 1
    assert replay_trace(c, out.cex, props[0]).valid


def test_counter3_global_verdicts():
    c, props = gen_counter(3)
    out0 = check_property(c, props[0])
    assert out0.status is PdrStatus.FAILS and len(out0.cex.frames) == 1

    out1 = check_property(c, props[1])
    assert out1.status is PdrStatus.FAILS
    assert len(out1.cex.frames) == 6
    assert replay_trace(c, out1.cex, props[1]).valid
    assert property_violated(c, out1.cex.frames[-1], props[1])


def test_larger_counter_holds_locally_fast():
    c, props = gen_counter(10)
    out = check_property(c, props[1], constraint_props=[props[0]])
    assert out.status is PdrStatus.HOLDS and out.invariant == ()


def test_verdicts_agree_with_oracle_on_random_systems():
    rng = random.Random(31337)
    for trial in range(70):
        c, props = gen_random_circuit(
            rng,
            num_inputs=rng.randint(1, 2),
            num_latches=rng.randint(2, 5),
            num_gates=rng.randint(4, 12),
            num_props=rng.randint(1, 3),
            mutate=rng.random() < 0.5,
        )
        for target in props:
            others = [p for p in props if p.index != target.index]
            for ctx in ([], others):
                out = check_property(c, target, ctx)
                mode = CheckMode.GLOBAL if not ctx else CheckMode.LOCAL
                want = ExplicitModel(c).brute_check(props, target.index, mode).holds
                assert (out.status is PdrStatus.HOLDS) == want, (trial, target.index)
                if out.status is PdrStatus.HOLDS:
                    assert certify(c, ctx, out.invariant, target), (trial, target.index)
                else:
                    rep = replay_trace(c, out.cex, target, ctx)
                    assert rep.valid and not rep.spurious


def test_invariants_hold_each_clause_once():
    # a clause re-learned at a higher level leaves its older copy below
    # it, and both used to reach the invariant
    rng = random.Random(0)
    for _ in range(10):
        c, props = gen_random_circuit(
            rng, num_inputs=2, num_latches=8, num_gates=40, num_props=4
        )
        for p in props:
            ctx = [q for q in props if q is not p]
            out = check_property(c, p, ctx)
            if out.status is PdrStatus.HOLDS:
                assert len(set(out.invariant)) == len(out.invariant), out.invariant
                assert certify(c, ctx, out.invariant, p)


def constraint_section_systems():
    """Seeded random systems with one input pinned high through the
    constraint section; in two of them lifting that ignores the assumed
    properties yields a local trace breaking one before its last frame."""
    rng = random.Random(9)
    for _ in range(60):
        base, props = gen_random_circuit(
            rng,
            num_inputs=2,
            num_latches=rng.randint(2, 4),
            num_gates=rng.randint(4, 10),
            num_props=2,
            mutate=True,
        )
        yield dataclasses.replace(base, constraints=[Literal(1)]), props


def test_constraint_sections_leave_no_trace_spurious():
    deep_local = 0  # local traces past reset, the ones that could be spurious
    for trial, (c, props) in enumerate(constraint_section_systems()):
        for target in props:
            others = [p for p in props if p.index != target.index]
            for ctx in ([], others):
                out = check_property(c, target, ctx)
                mode = CheckMode.GLOBAL if not ctx else CheckMode.LOCAL
                want = ExplicitModel(c).brute_check(props, target.index, mode).holds
                assert (out.status is PdrStatus.HOLDS) == want, (trial, target.index)
                if out.status is PdrStatus.FAILS:
                    rep = replay_trace(c, out.cex, target, ctx)
                    assert rep.valid and not rep.spurious, (trial, target.index)
                    deep_local += bool(ctx) and len(out.cex.frames) > 1
    assert deep_local


def test_seed_clause_validation():
    c, props = gen_counter(3)
    with pytest.raises(ValueError, match="out of range"):
        PdrEngine(c, props[1], seed_clauses=[(6,)])
    with pytest.raises(ValueError, match="out of range"):
        PdrEngine(c, props[1], seed_clauses=[()])
    # reset state is val=0; a clause forcing latch 0 high contradicts it
    with pytest.raises(ValueError, match="reset"):
        PdrEngine(c, props[1], seed_clauses=[(latch_literal(0, 1),)])
    with pytest.raises(ValueError, match="reset"):
        check_property(c, props[1], seed_clauses=[(latch_literal(0, 1),)])
    # P0 is X at reset and fires there; the seed is still checked first
    assert c.reset_values[props[0].bad.var] is None
    with pytest.raises(ValueError, match="reset"):
        check_property(c, props[0], seed_clauses=[(latch_literal(0, 1),)])
    # the one-step check before the engine and the certificate take the
    # same clauses: a negative literal used to alias the last latch there
    # (a Holds with invariant ((-1,),)), and one past the latches to die
    # with an IndexError
    thr = build_counter(3, thresholds=2)
    p = thr.props[-1]
    for clause in ((-1,), (6,), (), (1, 0.5)):
        with pytest.raises(ValueError, match="out of range"):
            PdrEngine(thr.circuit, p, seed_clauses=[clause])
        with pytest.raises(ValueError, match="out of range"):
            check_property(thr.circuit, p, seed_clauses=[clause])
        with pytest.raises(ValueError, match="out of range"):
            certify(thr.circuit, (), [clause], p)


def test_target_cannot_constrain_itself():
    c, props = gen_counter(3)
    with pytest.raises(ValueError, match="constraints"):
        PdrEngine(c, props[1], constraint_props=[props[1]])


def test_engine_is_single_use():
    c, props = gen_counter(3)
    eng = PdrEngine(c, props[1], constraint_props=[props[0]])
    eng.run()
    with pytest.raises(PdrError, match="single-use"):
        eng.run()


def test_sound_seeds_do_not_change_the_verdict():
    c, props = gen_counter(4)
    # val <= 8 needs strengthening globally? no: it fails globally. Use the
    # local check and seed an unrelated invariant-true clause.
    seed = (latch_literal(0, 0), latch_literal(0, 1))  # tautology on latch 0
    out = check_property(c, props[1], [props[0]], seed_clauses=[seed])
    assert out.status is PdrStatus.HOLDS


def test_timeout_reports_exhausted():
    c, props = gen_counter(14)
    out = check_property(c, props[1], stats=PdrStats(deadline=time.monotonic() + 1e-4))
    assert out.status is PdrStatus.EXHAUSTED
    assert out.invariant is None and out.cex is None


def test_certify_rejects_non_inductive_strengthening():
    c, props = gen_counter(3)
    # globally the threshold is not inductive on its own
    assert not certify(c, [], (), props[1])
    # relative to req it is
    assert certify(c, [props[0]], (), props[1])


def test_certify_rejects_clause_broken_at_reset():
    c, props = gen_counter(3)
    assert not certify(c, [props[0]], [(latch_literal(0, 1),)], props[1])


def test_check_property_certifies_every_proof_it_returns(monkeypatch):
    # an engine proof is certified on a holder no engine touches, a fresh
    # one when the call passes none; a rejected proof built on seeds runs
    # once more without them, and one built on none is an engine error.
    # the first clause of P1's global proof is true on every reachable
    # state but inductive only beside P1, so the seeded proof of P5 fails
    # its certificate for real
    thr = build_counter(5, thresholds=6)
    p = thr.props[-1]
    seeds = check_property(thr.circuit, thr.props[1]).invariant[:1]
    engines, holders, verdicts = [], [], []
    engine_init, real_certify = PdrEngine.__init__, pdr.certify

    def recording_engine(self, circuit, target, ctx=(), seed_clauses=(), **kwargs):
        engines.append((len(seed_clauses), kwargs["steps"]))
        engine_init(self, circuit, target, ctx, seed_clauses, **kwargs)

    def scripted_certify(*args, **kwargs):
        holders.append(kwargs["steps"])
        return verdicts.pop(0) if verdicts else real_certify(*args, **kwargs)

    monkeypatch.setattr(PdrEngine, "__init__", recording_engine)
    monkeypatch.setattr(pdr, "certify", scripted_certify)
    out = check_property(thr.circuit, p, seed_clauses=seeds)
    assert out.status is PdrStatus.HOLDS and out.seeds_used == 0 < len(seeds)
    assert certify(thr.circuit, (), out.invariant, p)
    assert [n for n, _ in engines] == [len(seeds), 0] and len(holders) == 2
    assert holders[0] is holders[1] and all(holders[0] is not h for _, h in engines)

    engines.clear()
    verdicts[:] = [False]
    with pytest.raises(PdrError, match=f"certification rejected the proof of property {p.index}"):
        check_property(thr.circuit, p)
    assert [n for n, _ in engines] == [0]

    engines.clear()
    verdicts[:] = [True]
    out = check_property(thr.circuit, p, seed_clauses=seeds)
    assert out.status is PdrStatus.HOLDS and out.seeds_used == len(seeds)
    assert [n for n, _ in engines] == [len(seeds)]


def test_certify_accepts_engine_invariants():
    rng = random.Random(4242)
    accepted = 0
    for _ in range(40):
        c, props = gen_random_circuit(
            rng,
            num_inputs=1,
            num_latches=rng.randint(2, 4),
            num_gates=rng.randint(3, 8),
            num_props=1,
        )
        out = check_property(c, props[0])
        if out.status is PdrStatus.HOLDS:
            assert certify(c, [], out.invariant, props[0])
            accepted += 1
    assert accepted >= 10


def test_lift_produces_a_sufficient_predecessor_cube():
    c, props = gen_counter(3)
    eng = PdrEngine(c, props[1])
    # val=4, enable high, req low steps to val=5
    pred = TraceFrame((0, 0, 1), (1, 0))
    succ = cube_of_state((1, 0, 1))
    cube = eng._lift_pred(pred.latch_values, pred.input_values, succ)
    assert set(cube) <= set(cube_of_state(pred.latch_values))
    # every state matching the lifted cube steps into the successor cube
    # under the same inputs
    for s in range(8):
        state = (s & 1, (s >> 1) & 1, (s >> 2) & 1)
        if all(state[l >> 1] == 1 - (l & 1) for l in cube):
            nxt = eval_transition(c, TraceFrame(state, pred.input_values))
            assert all(nxt[l >> 1] == 1 - (l & 1) for l in succ)


def bits(n, width):
    return tuple((n >> i) & 1 for i in range(width))


def all_frames(c):
    for s in range(1 << c.num_latches):
        for x in range(1 << c.num_inputs):
            yield TraceFrame(bits(s, c.num_latches), bits(x, c.num_inputs))


def states_in(c, cube):
    for s in range(1 << c.num_latches):
        state = bits(s, c.num_latches)
        if all(state[l >> 1] == 1 - (l & 1) for l in cube):
            yield state


def constrained_systems(seed, count):
    """Seeded random systems whose constraint section reads a gate."""
    rng = random.Random(seed)
    while count:
        c, props = gen_random_circuit(
            rng,
            num_inputs=2,
            num_latches=rng.randint(3, 5),
            num_gates=rng.randint(10, 24),
            num_props=3,
            mutate=rng.random() < 0.5,
        )
        if c.ands:
            gate = rng.choice(c.ands).out
            yield dataclasses.replace(
                c, constraints=(Literal(gate, rng.random() < 0.5),)
            ), props
            count -= 1


def test_lifted_final_cubes_fire_bad_in_every_state():
    lifted = dropped = 0
    for c, props in constrained_systems(21, 20):
        eng = PdrEngine(c, props[0], props[1:])
        for frame in all_frames(c):
            if not property_violated(c, frame, props[0]):
                continue
            cube = eng._lift_final(frame.latch_values, frame.input_values)
            assert set(cube) <= set(cube_of_state(frame.latch_values))
            for state in states_in(c, cube):
                assert property_violated(c, TraceFrame(state, frame.input_values), props[0])
            lifted += 1
            dropped += c.num_latches - len(cube)
    assert lifted and dropped


@pytest.mark.parametrize("with_context", [False, True])
def test_lifted_predecessor_cubes_step_into_the_successor_in_every_state(
    with_context,
):
    # the cube must also keep the constraint section, the target and its
    # context clean; without a context only the target is assumed
    rng = random.Random(13)
    lifted = dropped = 0
    for c, all_props in constrained_systems(12, 15):
        props = all_props if with_context else all_props[:1]
        eng = PdrEngine(c, props[0], props[1:])
        for frame in all_frames(c):
            if not (constraints_hold(c, frame) and frame_satisfies(c, frame, props)):
                continue
            nxt = cube_of_state(eval_transition(c, frame))
            succ = tuple(sorted(rng.sample(nxt, rng.randint(1, len(nxt)))))
            cube = eng._lift_pred(frame.latch_values, frame.input_values, succ)
            assert set(cube) <= set(cube_of_state(frame.latch_values))
            for state in states_in(c, cube):
                here = TraceFrame(state, frame.input_values)
                assert constraints_hold(c, here) and frame_satisfies(c, here, props)
                there = eval_transition(c, here)
                assert all(there[l >> 1] == 1 - (l & 1) for l in succ)
            lifted += 1
            dropped += c.num_latches - len(cube)
    assert lifted and dropped


def test_a_goal_the_model_falsifies_is_an_engine_error():
    c, props = gen_counter(3)
    eng = PdrEngine(c, props[1])
    # val=0 is below the bound, and with enable low it stays 0
    with pytest.raises(PdrError, match="lifting goal"):
        eng._lift_final((0, 0, 0), (0, 0))
    with pytest.raises(PdrError, match="lifting goal"):
        eng._lift_pred((0, 0, 0), (0, 0), cube_of_state((1, 0, 0)))


def test_generalize_keeps_relative_induction():
    c, props = gen_counter(3)
    eng = PdrEngine(c, props[1], constraint_props=[props[0]])
    cube = cube_of_state((1, 0, 1))  # val=5
    smaller = eng.generalize(cube, 1)
    assert set(smaller) <= set(cube) and smaller

    # inductive relative to F_0: the reset state lies outside the cube, and
    # no constrained step from it with target and context clean enters it
    def in_cube(state):
        return all(state[l >> 1] == 1 - (l & 1) for l in smaller)

    init = c.init_state()
    assert not in_cube(init)
    steps = 0
    for x in range(1 << c.num_inputs):
        frame = TraceFrame(init, tuple((x >> i) & 1 for i in range(c.num_inputs)))
        if constraints_hold(c, frame) and frame_satisfies(c, frame, props):
            assert not in_cube(eval_transition(c, frame))
            steps += 1
    assert steps


def test_generalized_cubes_stay_inductive_relative_to_their_frame(monkeypatch):
    """Every cube `generalize` returns during a check, at any level,
    excludes reset, and no constrained step from F_{level-1} outside the
    cube enters it, by the explicit tables: F_0 is the reset state, a
    later F_j the clauses owned at j or above plus the inductive ones."""
    levels = []
    generalize = PdrEngine.generalize

    def checked(eng, cube, level):
        gen = generalize(eng, cube, level)
        levels.append(level)
        states = [model.frame_of(s, 0).latch_values for s in range(model.n_states)]
        inside = [all(st[l >> 1] == 1 - (l & 1) for l in gen) for st in states]
        assert not inside[model.init_int]
        if level == 1:
            frame = [model.init_int]
        else:
            clauses = [*(cl for owned in eng._owned[level - 1 :] for cl in owned), *eng._inf]
            frame = [
                s for s, st in enumerate(states) if all(clause_holds(st, cl) for cl in clauses)
            ]
        clean = model.prop_mask((eng.target, *eng.constraint_props))
        for s in frame:
            for x, t in enumerate(model.next_table[s]):
                if model.constr_table[s][x] and not model.bad_table[s][x] & clean:
                    assert inside[s] or not inside[t], (cube, level, gen, s, x)
        return gen

    monkeypatch.setattr(PdrEngine, "generalize", checked)
    rng = random.Random(2718)
    for _ in range(30):
        c, props = gen_random_circuit(
            rng,
            num_inputs=rng.randint(1, 2),
            num_latches=rng.randint(3, 6),
            num_gates=rng.randint(8, 24),
            num_props=rng.randint(1, 3),
            mutate=rng.random() < 0.5,
        )
        model = ExplicitModel(c)
        for target in props:
            others = [p for p in props if p.index != target.index]
            for ctx in ([], others):
                check_property(c, target, ctx)
    assert sum(level >= 2 for level in levels) >= 10, levels


def test_generalize_rejects_the_reset_cube():
    c, props = gen_counter(3)
    eng = PdrEngine(c, props[1])
    with pytest.raises(ValueError, match="reset"):
        eng.generalize(cube_of_state((0, 0, 0)), 1)
    with pytest.raises(ValueError, match="level"):
        eng.generalize(cube_of_state((1, 0, 1)), 5)


def test_no_clause_sits_in_two_frame_levels():
    # a clause learned at a higher level replaces its copies below; only
    # the solvers keep them, implied
    rng = random.Random(0)
    seen_clauses = 0
    for _ in range(10):
        c, props = gen_random_circuit(
            rng, num_inputs=2, num_latches=8, num_gates=40, num_props=4
        )
        for p in props:
            eng = PdrEngine(c, p, [q for q in props if q is not p])

            def checked(eng=eng, propagate=eng._propagate_clauses):
                nonlocal seen_clauses
                owned = [cl for level in eng._owned for cl in level]
                assert len(owned) == len(set(owned)), eng._owned
                seen_clauses += len(owned)
                return propagate()

            eng._propagate_clauses = checked
            eng.run()
    assert seen_clauses


def unsat_of(solver, assumptions):
    return solver.solve(assumptions).status is Status.UNSAT


def test_seeds_do_not_leak_between_engines_on_one_step_solver():
    # a seeded check proves the threshold before any engine; the seedless
    # one after it on the same step solver must find its own clauses
    thr = build_counter(5, thresholds=6)
    c, props = thr.circuit, thr.props
    model = ExplicitModel(c)
    steps = StepHolder()
    tested = 0
    for p in props:
        if property_inductive(model, [p], p.index):
            continue
        seeds = check_property(c, p).invariant
        seeded = check_property(c, p, seed_clauses=seeds, steps=steps)
        assert seeded.status is PdrStatus.HOLDS
        out = check_property(c, p, steps=steps)
        assert out.status is PdrStatus.HOLDS and out.invariant
        assert certify(c, (), out.invariant, p)
        tested += 1
    assert tested


def test_shared_step_solver_answers_like_a_fresh_one():
    # JA checks of one system share a step solver; one engine is cut
    # after taking it, holding a seed that need not be invariant, and
    # must leave every literal it added there retired
    rng = random.Random(77)
    cut = 0
    for _ in range(10):
        c, props = gen_random_circuit(
            rng, num_inputs=2, num_latches=6, num_gates=30, num_props=3
        )
        steps = StepHolder()
        init = c.init_state()
        for n, p in enumerate(props * 2):
            ctx = [q for q in props if q is not p]
            if n == 1:
                junk = [(latch_literal(0, init[0]),)]
                eng = PdrEngine(
                    c, p, ctx, junk, steps=steps,
                    stats=PdrStats(deadline=time.monotonic() - 1.0),
                )
                frames = eng._step
                assert eng.run().status is PdrStatus.EXHAUSTED
                for act in (frames.inf_act, *frames.acts[1:]):
                    assert unsat_of(frames.solver, [act])
                cut += 1
            shared = check_property(c, p, ctx, steps=steps)
            fresh = check_property(c, p, ctx)
            want = ExplicitModel(c).brute_check(props, p.index, CheckMode.LOCAL).holds
            assert (shared.status is PdrStatus.HOLDS) == want
            assert shared.status is fresh.status
            for out in (shared, fresh):
                if out.status is PdrStatus.FAILS:
                    rep = replay_trace(c, out.cex, p, ctx)
                    assert rep.valid and not rep.spurious
    assert cut == 10


def test_an_engine_builds_no_solver_but_its_bad_and_step_solvers(monkeypatch):
    # lifting simulates the model, so a run that learns clauses builds
    # the bad solver and the holder's step and nothing else. The
    # certificate holder builds its own step once, and a check given none
    # gets a fresh one; a check refuted at reset builds no step and no
    # engine
    built = []
    real_init = Solver.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "__init__", counting)
    thr = build_counter(5, thresholds=6)
    certs = StepHolder()
    for expected in (3, 2):  # the certificate step comes with the first check only
        built.clear()
        out = check_property(thr.circuit, thr.props[-1], steps=StepHolder(), certs=certs)
        assert out.status is PdrStatus.HOLDS and out.stats.clauses_learned
        assert len(built) == expected
    built.clear()
    check_property(thr.circuit, thr.props[-1], steps=StepHolder())
    assert len(built) == 3

    built.clear()
    c, props = gen_counter(3)
    # the reset state fires req's bad, which is X there: the reset solver
    # alone decides it
    out = check_property(c, props[0], [props[1]])
    assert out.status is PdrStatus.FAILS and len(out.cex.frames) == 1
    assert len(built) == 1


def test_seeded_check_replays_its_seeds_into_the_step_solver():
    # in JA every check steps through the same relation, so one property's
    # invariant is a sound seed set for another; the engine takes its step
    # solver after the seeds are in and must replay them into it
    rng = random.Random(5)
    reached = 0
    for _ in range(20):
        c, props = gen_random_circuit(
            rng, num_inputs=2, num_latches=6, num_gates=30, num_props=3
        )
        proofs = {}
        for p in props:
            out = check_property(c, p, [q for q in props if q is not p])
            if out.status is PdrStatus.HOLDS:
                proofs[p.index] = out.invariant
        for p in props:
            ctx = [q for q in props if q is not p]
            seeds = [cl for i, inv in proofs.items() if i != p.index for cl in inv]
            eng = PdrEngine(c, p, ctx, seeds)
            if seeds:
                # no present state of the step solver breaks a seed
                step = eng._step
                for cl in seeds:
                    broken = [step.enc.latch_lit(l >> 1, l & 1) for l in cl]
                    assert unsat_of(step.solver, [step.inf_act, *broken])
                reached += 1
            out = eng.run()
            want = ExplicitModel(c).brute_check(props, p.index, CheckMode.LOCAL).holds
            assert (out.status is PdrStatus.HOLDS) == want
            if want:
                assert certify(c, ctx, out.invariant, p)
    assert reached


def certify_on(steps, circuit, ctx, clauses, target, **kwargs):
    """`certify` on a shared holder, checking that the call left nothing
    active there: every variable it added is fixed at level 0."""
    solver = steps.step(circuit, (target, *ctx)).solver
    steps.next_bad(target)
    before = solver.n_vars
    try:
        return certify(circuit, ctx, clauses, target, steps=steps, **kwargs)
    finally:
        assert all(solver.vals[pos(v)] >= 0 for v in range(before, solver.n_vars))


def test_strengthenings_do_not_leak_between_certificates_on_one_holder():
    # a threshold that needs strengthening passes with it and must fail
    # without it right after, on the same solver, in either order
    thr = build_counter(5, thresholds=6)
    c, props = thr.circuit, thr.props
    model = ExplicitModel(c)
    steps = StepHolder()
    tested = 0
    for p in props:
        if property_inductive(model, [p], p.index):
            continue
        strengthening = check_property(c, p).invariant
        assert certify_on(steps, c, (), strengthening, p)
        assert not certify_on(steps, c, (), (), p)
        assert not certify_on(steps, c, (), (), p)
        assert certify_on(steps, c, (), strengthening, p)
        tested += 1
    assert tested


def test_a_certificate_cut_by_its_deadline_leaves_the_holder_clean():
    thr = build_counter(5, thresholds=6)
    c, props = thr.circuit, thr.props
    model = ExplicitModel(c)
    tested = 0
    for p in props:
        if property_inductive(model, [p], p.index):
            continue
        strengthening = check_property(c, p).invariant
        steps = StepHolder()
        with pytest.raises(PdrError, match="budget"):
            certify_on(
                steps, c, (), strengthening, p,
                stats=PdrStats(deadline=time.monotonic() - 1.0),
            )
        assert certify_on(steps, c, (), (), p) == certify(c, (), (), p)
        assert certify_on(steps, c, (), strengthening, p) == certify(
            c, (), strengthening, p
        )
        tested += 1
    assert tested


def test_a_shared_certificate_holder_answers_like_a_fresh_one():
    # besides the engine's proofs, each target gets two wrong ones, asked
    # first: a clause false at reset, and a unit a reachable state breaks;
    # in the JA half all three targets share one step
    rng = random.Random(2718)
    answers = {True: 0, False: 0}
    for _ in range(10):
        c, props = gen_random_circuit(
            rng, num_inputs=2, num_latches=6, num_gates=30, num_props=3
        )
        model = ExplicitModel(c)
        init = c.init_state()
        steps = StepHolder()
        for ja in (True, False):
            for p in props:
                ctx = [q for q in props if q is not p] if ja else []
                out = check_property(c, p, ctx)
                proof = out.invariant if out.status is PdrStatus.HOLDS else ()
                wrong = [(latch_literal(0, 1 - init[0]),)]
                reached = model.reachable([p, *ctx]).states()
                moved = [
                    i for i in range(c.num_latches)
                    if any(s[i] != init[i] for s in reached)
                ]
                if moved:
                    wrong.append((latch_literal(moved[0], init[moved[0]]),))
                # a clause false at reset costs no query; otherwise one
                # round: the next-state bad and every clause
                for w, cap in zip(wrong, (0, len(proof) + 2)):
                    assert not certify_on(steps, c, ctx, (*proof, w), p)
                    stats = PdrStats()
                    assert not certify(c, ctx, (*proof, w), p, stats=stats)
                    assert stats.sat_calls <= cap
                for clauses in (proof, ()):
                    got = certify_on(steps, c, ctx, clauses, p)
                    assert got == certify(c, ctx, clauses, p)
                    answers[got] += 1
    assert answers[True] and answers[False]


def test_gates_nothing_reads_change_no_step_and_no_verdict():
    # the step copy covers latches, next-state functions, the bads of
    # its property set and the constraints; appended dead gates fall
    # outside that cone, so every query and every answer stays the same
    rng = random.Random(23)
    thresholds = build_counter(5, thresholds=4)
    systems = [(thresholds.circuit, thresholds.props), gen_counter(4)]
    for _ in range(8):
        systems.append(gen_random_circuit(
            rng, num_inputs=2, num_latches=6, num_gates=30, num_props=3,
            mutate=rng.random() < 0.5,
        ))
    seen = set()
    for c, props in systems:
        padded = _with_dead_gates(c, rng, 25)
        assert len(padded.ands) == len(c.ands) + 25
        for p in props:
            for ctx in ([], [q for q in props if q is not p]):
                sizes = [
                    StepHolder().step(circ, (p, *ctx)).solver.n_vars
                    for circ in (c, padded)
                ]
                assert sizes[0] == sizes[1]
                base = check_property(c, p, ctx)
                pad = check_property(padded, p, ctx)
                assert pad.status is base.status
                assert pad.invariant == base.invariant
                assert pad.cex == base.cex
                assert pad.stats.sat_calls == base.stats.sat_calls
                seen.add((base.status, bool(base.invariant)))
    assert {(PdrStatus.HOLDS, True), (PdrStatus.FAILS, False)} <= seen


# --------------------------------------------------- ternary reset values


def _reset_encodings(monkeypatch) -> list:
    """Record, for every circuit copy `pdr` builds, whether its latches
    were pinned (only the reset query, `_reset_inputs`, pins them)."""
    built = []
    real = pdr.StepEncoding

    def recording(*args, **kwargs):
        built.append("latch_lits" in kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(pdr, "StepEncoding", recording)
    return built


def _latch_reset_to_1(bad_of):
    """Two inputs and a latch that is 1 at reset and 0 ever after, with
    one property whose bad is `bad_of(builder, in0, in1, latch)`: it can
    fire at reset only, so induction alone never refutes it."""
    b = CircuitBuilder(2, 1, init=[1])
    b.set_next(0, FALSE)
    b.bads = [bad_of(b, b.input_lit(0), b.input_lit(1), b.latch_lit(0))]
    c = b.build()
    prop = PropertySpec(0, c.bads[0])
    assert c.reset_values[prop.bad.var] is None  # X: the reset solver decides
    return c, prop


def test_an_x_bad_that_cannot_fire_at_reset_certifies_on_the_reset_solver(monkeypatch):
    c, prop = _latch_reset_to_1(lambda b, x, y, l: b.and_(x, b.and_(~x, l)))
    built = _reset_encodings(monkeypatch)
    out = check_property(c, prop)
    assert out.status is PdrStatus.HOLDS and out.invariant == ()
    assert out.stats.sat_calls == 2  # the reset query and the induction query
    assert certify(c, (), (), prop)
    assert built.count(True) == 2


def test_an_x_bad_that_fires_for_one_input_valuation_is_refuted(monkeypatch):
    c, prop = _latch_reset_to_1(lambda b, x, y, l: b.conj([x, y, l]))
    built = _reset_encodings(monkeypatch)
    assert not certify(c, (), (), prop)
    assert built.count(True) == 1
    out = check_property(c, prop)
    assert out.status is PdrStatus.FAILS
    assert out.cex.frames == (TraceFrame((1,), (1, 1)),)


def test_a_target_0_at_reset_builds_no_reset_encoding(monkeypatch):
    c, props = gen_counter(3)  # the counter resets to 0, below P1's bound
    assert c.reset_values[props[1].bad.var] ^ props[1].bad.negated == 0
    built = _reset_encodings(monkeypatch)
    assert check_property(c, props[1], constraint_props=[props[0]]).status is PdrStatus.HOLDS
    assert certify(c, [props[0]], (), props[1])
    out = check_property(c, props[1])  # globally the engine runs, no reset query
    assert out.status is PdrStatus.FAILS and out.cex.depth == 5
    assert not any(built)


def reset_reading_systems(rng, count):
    """Random systems whose bads are gates over inputs, latches and
    other gates, so a bad may be 0, 1 or X at reset (the bads of
    `gen_random_circuit` are 0 there)."""
    for _ in range(count):
        ni, nl = rng.randint(1, 2), rng.randint(1, 4)
        b = CircuitBuilder(ni, nl, init=[rng.randint(0, 1) for _ in range(nl)])
        pool = [*map(b.input_lit, range(ni)), *map(b.latch_lit, range(nl))]

        def rand_lit():
            lit = rng.choice(pool)
            return ~lit if rng.random() < 0.5 else lit

        for _ in range(rng.randint(2, 8)):
            pool.append(b.and_(rand_lit(), rand_lit()))
        for i in range(nl):
            b.set_next(i, rand_lit())
        b.bads = [b.and_(rand_lit(), rand_lit()) for _ in range(rng.randint(1, 3))]
        c = b.build()
        yield c, [PropertySpec(i, bad) for i, bad in enumerate(c.bads)]


def test_bads_that_read_inputs_at_reset_agree_with_the_oracle():
    # every verdict matches the oracle in the global and the local
    # context, no trace is longer than the oracle's shortest, and every
    # proof passes `certify`; the sweep must reach bads X at reset that
    # fire there and bads X at reset that hold
    x_at_reset = {PdrStatus.HOLDS: 0, PdrStatus.FAILS: 0}
    for trial, (c, props) in enumerate(reset_reading_systems(random.Random(5), 600)):
        model = ExplicitModel(c)
        for target in props:
            others = [p for p in props if p.index != target.index]
            for ctx in ([], others):
                out = check_property(c, target, ctx)
                mode = CheckMode.GLOBAL if not ctx else CheckMode.LOCAL
                want = model.brute_check(props, target.index, mode)
                assert (out.status is PdrStatus.HOLDS) == want.holds, (trial, target.index)
                if out.status is PdrStatus.HOLDS:
                    assert certify(c, ctx, out.invariant, target), (trial, target.index)
                else:
                    rep = replay_trace(c, out.cex, target, ctx)
                    assert rep.valid and not rep.spurious, (trial, target.index)
                    assert len(out.cex.frames) <= len(want.cex.frames), (trial, target.index)
                if c.reset_values[target.bad.var] is None:
                    x_at_reset[out.status] += 1
    assert min(x_at_reset.values()) >= 40, x_at_reset
