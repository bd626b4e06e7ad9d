import random
import time
from dataclasses import replace

import pytest

from japdr.aiger import build_counter, circuit_fingerprint, gen_counter, gen_random_circuit
from japdr.circuit import (
    SIM_FRAMES,
    TRUE,
    Circuit,
    Counterexample,
    Latch,
    Literal,
    PropertyKind,
    PropertySpec,
    TraceFrame,
    property_violated,
    replay_trace,
)
from japdr import clausedb, encode, orchestrator, pdr
from japdr.clausedb import ClauseRecord, append, load
from japdr.oracle import CheckMode, ExplicitModel
from japdr.orchestrator import (
    Mode,
    TaskOptions,
    VerdictStatus as S,
    VerificationTask,
    aggregate_bad,
    run,
)
from test_pdr import constraint_section_systems


def verdict_for(report, index):
    return next(v for v in report.verdicts if v.property_index == index)


def without_simulation(monkeypatch):
    """Runs whose simulation from reset finds nothing, so every check,
    failing or not, goes to an engine."""
    monkeypatch.setattr(orchestrator, "first_failures", lambda *args: iter([{}]))


def test_counter3_ja_verdicts():
    c, props = gen_counter(3)
    rep = run(VerificationTask(c, tuple(props), Mode.JA))
    v0, v1 = rep.verdicts
    assert v0.status is S.FAILS_LOCAL and v0.evidence.depth == 0
    assert v1.status is S.HOLDS_LOCAL and v1.evidence == 0  # zero clauses
    assert rep.debugging_set == (0,)


def test_counter3_separate_global_verdicts():
    c, props = gen_counter(3)
    rep = run(VerificationTask(c, tuple(props), Mode.SEPARATE_GLOBAL))
    v0, v1 = rep.verdicts
    assert v0.status is S.FAILS_GLOBAL and v0.evidence.depth == 0
    assert v1.status is S.FAILS_GLOBAL and v1.evidence.depth == 5
    assert rep.debugging_set == ()


def test_counter3_joint_verdicts_and_attribution():
    c, props = gen_counter(3)
    rep = run(VerificationTask(c, tuple(props), Mode.JOINT))
    v0, v1 = rep.verdicts
    assert v0.status is S.FAILS_GLOBAL and v0.evidence.depth == 0
    assert v1.status is S.FAILS_GLOBAL and v1.evidence.depth == 5
    assert v1.evidence.violated_property == 1
    # joint traces replay on the original circuit, not the gated one
    for v in rep.verdicts:
        r = replay_trace(c, v.evidence, props[v.property_index], ())
        assert r.valid and not r.spurious


def test_run_dispatches_on_mode():
    c, props = gen_counter(3)
    for mode in Mode:
        rep = run(VerificationTask(c, tuple(props), mode))
        assert rep.task.mode is mode and len(rep.verdicts) == 2


def test_aggregate_bad_is_the_disjunction():
    c, props = gen_counter(3)
    ext, agg = aggregate_bad(c, props)
    assert agg.index == 2
    assert ext.num_inputs == c.num_inputs
    for s in range(8):
        state = (s & 1, (s >> 1) & 1, (s >> 2) & 1)
        for x in range(4):
            frame = TraceFrame(state, (x & 1, (x >> 1) & 1))
            want = any(property_violated(c, frame, p) for p in props)
            assert property_violated(ext, frame, agg) == want, (state, frame)


def planted_pair():
    """l0 rises after one step and l1 shadows it one step later.

    Each bad is a latch, so the first property fails on its own while the
    second is protected exactly as long as the first is assumed."""
    latches = [
        Latch(1, TRUE, 0),
        Latch(2, Literal(1), 0),
    ]
    c = Circuit(
        num_inputs=0,
        latches=latches,
        ands=[],
        bads=[Literal(1), Literal(2)],
        constraints=[],
    )
    props = (PropertySpec(0, Literal(1)), PropertySpec(1, Literal(2)))
    return c, props


def test_planted_pair_holds_locally_without_upgrade():
    c, props = planted_pair()
    assert ExplicitModel(c).brute_debug_set(props) == {0}
    rep = run(VerificationTask(c, props, Mode.JA))
    v0, v1 = rep.verdicts
    assert v0.status is S.FAILS_LOCAL and v0.evidence.depth == 1
    # holds under assumption, fails globally: no upgrade may fire
    assert v1.status is S.HOLDS_LOCAL
    assert rep.debugging_set == (0,)
    rep_g = run(VerificationTask(c, props, Mode.SEPARATE_GLOBAL))
    assert verdict_for(rep_g, 1).status is S.FAILS_GLOBAL
    assert verdict_for(rep_g, 1).evidence.depth == 2


def test_all_true_system_upgrades_to_global():
    r = random.Random(5)
    for _ in range(50):
        seed = r.randrange(1 << 30)
        rr = random.Random(seed)
        circ, props = gen_random_circuit(
            rr, num_inputs=2, num_latches=4, num_gates=10, num_props=3
        )
        if ExplicitModel(circ).brute_debug_set(props):
            continue
        rep = run(VerificationTask(circ, tuple(props), Mode.JA))
        assert all(v.status is S.HOLDS_GLOBAL for v in rep.verdicts), seed
        assert rep.debugging_set == ()
        return
    raise AssertionError("no all-true system in the sweep")


def test_modes_agree_with_the_oracle():
    r = random.Random(99)
    for _ in range(50):
        seed = r.randrange(1 << 30)
        rr = random.Random(seed)
        circ, props = gen_random_circuit(
            rr,
            num_inputs=rr.randint(1, 2),
            num_latches=rr.randint(3, 6),
            num_gates=rr.randint(5, 20),
            num_props=rr.randint(2, 3),
            mutate=rr.random() < 0.5,
        )
        model = ExplicitModel(circ)
        rep_ja = run(VerificationTask(circ, tuple(props), Mode.JA))
        assert set(rep_ja.debugging_set) == model.brute_debug_set(props), seed
        for v in rep_ja.verdicts:
            o_local = model.brute_check(props, v.property_index, CheckMode.LOCAL)
            o_global = model.brute_check(props, v.property_index, CheckMode.GLOBAL)
            if v.status is S.FAILS_LOCAL:
                assert not o_local.holds and not o_global.holds, seed
                others = [p for p in props if p.index != v.property_index]
                rr2 = replay_trace(circ, v.evidence, props[v.property_index], others)
                assert rr2.valid and not rr2.spurious, seed
            elif v.status is S.HOLDS_LOCAL:
                assert o_local.holds, seed
            elif v.status is S.HOLDS_GLOBAL:
                assert o_global.holds, seed
            else:
                raise AssertionError((seed, v.status))

        rep_g = run(
            VerificationTask(circ, tuple(props), Mode.SEPARATE_GLOBAL)
        )
        for v in rep_g.verdicts:
            o_global = model.brute_check(props, v.property_index, CheckMode.GLOBAL)
            assert (v.status is S.HOLDS_GLOBAL) == o_global.holds, seed

        rep_j = run(VerificationTask(circ, tuple(props), Mode.JOINT))
        for v in rep_j.verdicts:
            o_global = model.brute_check(props, v.property_index, CheckMode.GLOBAL)
            assert (v.status is S.HOLDS_GLOBAL) == o_global.holds, (seed, v)
            if v.status is S.FAILS_GLOBAL:
                assert replay_trace(circ, v.evidence, props[v.property_index], ()).valid


def test_joint_single_property_degenerates_cleanly():
    c, props = gen_counter(3)
    rep = run(VerificationTask(c, (props[0],), Mode.JOINT))
    v = rep.verdicts[0]
    assert v.status is S.FAILS_GLOBAL and v.evidence.depth == 0


def test_joint_verdicts_report_the_aggregate_check_cost():
    # one aggregate proof decides all three; its cost is not split up
    thr = build_counter(4, thresholds=3)
    rep = run(VerificationTask(thr.circuit, thr.props, Mode.JOINT))
    assert all(v.status is S.HOLDS_GLOBAL for v in rep.verdicts)
    assert rep.totals.sat_calls > 0
    assert all(v.sat_calls == rep.totals.sat_calls for v in rep.verdicts)
    assert len({v.wall_s for v in rep.verdicts}) == 1


def test_etf_that_holds_is_flagged():
    c, props = gen_counter(3)
    etf_props = (props[0], PropertySpec(1, props[1].bad, PropertyKind.ETF))
    rep = run(VerificationTask(c, etf_props, Mode.JA))
    ve = verdict_for(rep, 1)
    assert ve.status is S.ETF_HOLDS_LOCAL
    assert verdict_for(rep, 0).status is S.FAILS_LOCAL
    assert rep.debugging_set == (0,)


def test_etf_confirmation_respects_the_eth_context():
    c, props = gen_counter(3)
    etf = PropertySpec(2, TRUE, PropertyKind.ETF)
    rep = run(VerificationTask(c, (props[0], props[1], etf), Mode.JA))
    vt = verdict_for(rep, 2)
    assert vt.status is S.ETF_CONFIRMED and vt.evidence.depth == 0
    rr = replay_trace(c, vt.evidence, etf, [props[0], props[1]])
    assert rr.valid and not rr.spurious


def test_totals_report_the_clauses_the_engine_learned(tmp_path, monkeypatch):
    learned = []
    original = orchestrator.check_property

    def counting(*args, **kwargs):
        out = original(*args, **kwargs)
        learned.append(out.stats.clauses_learned)
        return out

    monkeypatch.setattr(orchestrator, "check_property", counting)
    c, props = gen_random_circuit(
        random.Random(3), num_inputs=2, num_latches=6, num_gates=20, num_props=3
    )
    for mode in Mode:
        learned.clear()
        rep = run(VerificationTask(c, tuple(props), mode))
        assert sum(learned) > 0
        assert rep.totals.clauses_learned == sum(learned), mode

    # over a warm store every proof is made of seeds: the invariants are
    # not empty, yet the engine learns nothing
    thr = build_counter(5, thresholds=6)
    opts = TaskOptions(reuse_clauses=True, clause_db=str(tmp_path / "clauses.db"))
    task = VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL, opts)
    run(task)
    learned.clear()
    warm = run(task)
    assert sum(v.evidence for v in warm.verdicts) > 0
    assert warm.totals.clauses_learned == sum(learned) == 0


def test_a_negative_timeout_is_rejected():
    c, props = gen_counter(3)
    with pytest.raises(ValueError, match="total_timeout_s must be positive"):
        VerificationTask(c, tuple(props), Mode.JA, TaskOptions(total_timeout_s=-1))


@pytest.mark.parametrize("name", ["per_prop_timeout_s", "total_timeout_s"])
def test_a_nan_timeout_is_rejected(name):
    c, props = gen_counter(3)
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        VerificationTask(c, tuple(props), Mode.JA, TaskOptions(**{name: float("nan")}))


def test_a_repeated_property_index_is_rejected():
    # the two would share one verdict and one simulated trace
    c, props = gen_counter(3)
    twins = (props[0], PropertySpec(0, props[1].bad))
    for mode in Mode:
        with pytest.raises(ValueError, match="property index 0 is repeated"):
            VerificationTask(c, twins, mode)


def test_a_negative_property_index_is_rejected():
    # the clause store would write an origin its own reader refuses
    c, props = gen_counter(3)
    with pytest.raises(ValueError, match="property index -1 is repeated or negative"):
        VerificationTask(c, (PropertySpec(-1, props[0].bad), props[1]), Mode.JA)


def test_a_bad_literal_outside_the_circuit_is_rejected():
    c, props = gen_counter(3)
    stray = PropertySpec(1, Literal(c.num_vars + 5))
    with pytest.raises(ValueError, match="not in the circuit"):
        VerificationTask(c, (props[0], stray), Mode.JA)


@pytest.mark.parametrize("mode", list(Mode))
def test_property_indices_need_not_be_consecutive(mode):
    c, props = gen_counter(3)
    spaced = (PropertySpec(3, props[0].bad), PropertySpec(7, props[1].bad))
    rep = run(VerificationTask(c, spaced, mode))
    dense = run(VerificationTask(c, tuple(props), mode))
    assert [v.property_index for v in rep.verdicts] == [3, 7]
    assert [v.status for v in rep.verdicts] == [v.status for v in dense.verdicts]
    assert rep.debugging_set == tuple({0: 3, 1: 7}[i] for i in dense.debugging_set)


@pytest.mark.parametrize("mode", list(Mode))
def test_the_check_order_changes_no_verdict(tmp_path, mode):
    # every check assumes the same context whichever runs first, and
    # re-used clauses are certified: reversing the properties may change
    # the work, never a status or the debugging set
    systems = [
        gen_random_circuit(random.Random(s), 2, 6, 30, 4, mutate=s % 2 == 1)
        for s in range(30)
    ]
    thr = build_counter(9, thresholds=12)
    systems.append((thr.circuit, thr.props))
    for k, (circ, props) in enumerate(systems):
        reports = []
        for name, ordered in (("given", tuple(props)), ("reversed", tuple(props)[::-1])):
            db = str(tmp_path / f"{k}-{name}.db") if mode is Mode.JA else None
            opts = TaskOptions(reuse_clauses=True, clause_db=db)
            reports.append(run(VerificationTask(circ, ordered, mode, opts)))
        given, backwards = reports
        assert [(v.property_index, v.status) for v in given.verdicts] == [
            (v.property_index, v.status) for v in backwards.verdicts
        ], k
        assert given.debugging_set == backwards.debugging_set, k


def test_a_clause_db_without_clause_reuse_is_rejected(tmp_path):
    # the path would be dropped without a word: no store, no file
    c, props = gen_counter(3)
    db = tmp_path / "clauses.db"
    opts = TaskOptions(reuse_clauses=False, clause_db=str(db))
    with pytest.raises(ValueError, match="clause re-use"):
        VerificationTask(c, tuple(props), Mode.JA, opts)
    assert not db.exists()


def test_a_run_of_expected_to_fail_properties_only():
    c, props = gen_counter(3)
    etf = tuple(replace(p, kind=PropertyKind.ETF) for p in props)
    rep = run(VerificationTask(c, etf, Mode.JA))
    assert [v.status for v in rep.verdicts] == [S.ETF_CONFIRMED, S.ETF_CONFIRMED]
    assert rep.debugging_set == ()
    assert rep.conclusion == "no expected-to-hold properties (2 EtfConfirmed)"


def test_clause_reuse_saves_work_and_keeps_verdicts(tmp_path):
    # constrained counter family: same empty context end to end, so each
    # proof can seed the next and a second pass starts warm
    thr = build_counter(5, thresholds=6)
    base = VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL)
    rep_off = run(base)
    assert all(v.status is S.HOLDS_GLOBAL for v in rep_off.verdicts)
    assert any(v.evidence > 0 for v in rep_off.verdicts[1:])

    db = tmp_path / "clauses.db"
    opts = TaskOptions(reuse_clauses=True, clause_db=str(db))
    rep_on = run(
        VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL, opts)
    )
    assert db.exists()
    for voff, von in zip(rep_off.verdicts, rep_on.verdicts):
        assert voff.status is von.status
    assert sum(v.seeds_used for v in rep_on.verdicts) > 0
    assert rep_on.totals.sat_calls <= rep_off.totals.sat_calls

    rep_on2 = run(
        VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL, opts)
    )
    assert rep_on2.totals.sat_calls <= rep_on.totals.sat_calls


def test_clause_store_holds_each_record_once(tmp_path):
    # later proofs re-use the seeds they were given; harvesting them again
    # must not grow the store, in memory or on disk
    thr = build_counter(5, thresholds=6)
    db = tmp_path / "clauses.db"
    opts = TaskOptions(reuse_clauses=True, clause_db=str(db))
    task = VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL, opts)
    fingerprint = circuit_fingerprint(thr.circuit)
    sizes = []
    for _ in range(3):
        run(task)
        records = load(str(db), fingerprint)
        assert len({(r.clause, r.context) for r in records}) == len(records)
        sizes.append(len(records))
    assert sizes == [4, 4, 4]


def _expected_status(circ, props, index, mode):
    """The oracle's verdict status for one property of a run."""
    eth = [p for p in props if p.kind is PropertyKind.ETH]
    model = ExplicitModel(circ)
    if props[index].kind is PropertyKind.ETF:
        confirmed = not model.brute_check(props, index, CheckMode.LOCAL).holds
        return S.ETF_CONFIRMED if confirmed else S.ETF_HOLDS_LOCAL
    if mode is Mode.SEPARATE_GLOBAL:
        holds = model.brute_check(eth, index, CheckMode.GLOBAL).holds
        return S.HOLDS_GLOBAL if holds else S.FAILS_GLOBAL
    if not model.brute_check(eth, index, CheckMode.LOCAL).holds:
        return S.FAILS_LOCAL
    return S.HOLDS_LOCAL if model.brute_debug_set(eth) else S.HOLDS_GLOBAL


def test_reuse_is_verdict_neutral_in_ja_mode(tmp_path, monkeypatch):
    thr = build_counter(5, thresholds=4)
    rep_off = run(VerificationTask(thr.circuit, thr.props, Mode.JA))
    db = tmp_path / "clauses.db"
    rep_on = run(
        VerificationTask(
            thr.circuit,
            thr.props,
            Mode.JA,
            TaskOptions(reuse_clauses=True, clause_db=str(db)),
        )
    )
    for voff, von in zip(rep_off.verdicts, rep_on.verdicts):
        assert voff.status is von.status
    assert all(v.status is S.HOLDS_GLOBAL for v in rep_on.verdicts)

    # random systems with an expected-to-fail property: a JA run warms the
    # store, then JA and separate-global runs seed from it; every seed must
    # hold wherever its check can go, and every verdict is the oracle's
    offered = []
    real_seeds = clausedb.seeds_for_context

    def recording(records, circuit, target, ctx, **kwargs):
        seeds = real_seeds(records, circuit, target, ctx, **kwargs)
        offered.append((target, tuple(ctx), seeds))
        return seeds

    monkeypatch.setattr(clausedb, "seeds_for_context", recording)
    r = random.Random(8)
    seeded = 0
    for k in range(16):
        rr = random.Random(r.randrange(1 << 30))
        circ, props = gen_random_circuit(
            rr,
            num_inputs=rr.randint(1, 2),
            num_latches=rr.randint(3, 6),
            num_gates=rr.randint(8, 20),
            num_props=3,
            mutate=rr.random() < 0.5,
        )
        etf = rr.randrange(3)
        props = tuple(
            replace(p, kind=PropertyKind.ETF) if p.index == etf else p for p in props
        )
        opts = TaskOptions(reuse_clauses=True, clause_db=str(tmp_path / f"{k}.db"))
        run(VerificationTask(circ, props, Mode.JA, opts))
        for mode in (Mode.JA, Mode.SEPARATE_GLOBAL):
            offered.clear()
            rep = run(VerificationTask(circ, props, mode, opts))
            for v in rep.verdicts:
                expected = _expected_status(circ, props, v.property_index, mode)
                assert v.status is expected, (k, mode, v)
            for target, ctx, seeds in offered:
                states = ExplicitModel(circ).reachable([target, *ctx]).states()
                for cl in seeds:
                    assert all(any(st[l >> 1] == 1 - (l & 1) for l in cl) for st in states), (
                        k, mode, target.index, cl)
                seeded += len(seeds)
    assert seeded > 0


def test_a_rejected_seeded_proof_reruns_once_without_seeds(tmp_path, monkeypatch):
    # certification rejects the first engine proof built on seeds; inside
    # the check's one `check_property` call the seeds are dropped and the
    # engine runs again, and the verdict reports no seeds. The store
    # holds one clause of a global proof: true on every reachable state
    # and trusted by every check, but too weak to make a threshold that
    # needs strengthening inductive, so its check runs the engine seeded
    thr = build_counter(5, thresholds=6)
    db = tmp_path / "clauses.db"
    clause = pdr.check_property(thr.circuit, thr.props[1]).invariant[0]
    append([ClauseRecord(clause, 1, ())], str(db), circuit_fingerprint(thr.circuit))
    checks, engines, rejected, reset_queries = [], [], [], []
    real_check, real_certify = orchestrator.check_property, pdr.certify
    real_reset = pdr._reset_inputs
    engine_init = pdr.PdrEngine.__init__

    def recording_check(circuit, target, ctx, seeds=(), **kwargs):
        checks.append(target.index)
        return real_check(circuit, target, ctx, seeds, **kwargs)

    def recording_engine(self, circuit, target, ctx=(), seeds=(), **kwargs):
        engines.append((target.index, len(seeds)))
        engine_init(self, circuit, target, ctx, seeds, **kwargs)

    def reject_first_seeded(*args, **kwargs):
        if engines[-1][1] and not rejected:
            rejected.append(engines[-1][0])
            return False
        return real_certify(*args, **kwargs)

    def recording_reset(circuit, target, stats):
        reset_queries.append(target.index)
        return real_reset(circuit, target, stats)

    monkeypatch.setattr(orchestrator, "check_property", recording_check)
    monkeypatch.setattr(pdr.PdrEngine, "__init__", recording_engine)
    monkeypatch.setattr(pdr, "certify", reject_first_seeded)
    monkeypatch.setattr(pdr, "_reset_inputs", recording_reset)
    opts = TaskOptions(reuse_clauses=True, clause_db=str(db))
    rep = run(VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL, opts))
    assert len(rejected) == 1
    i = rejected[0]
    assert checks.count(i) == 1
    # one reset query before the seeded try, one in the retry's certify;
    # the retry does not ask it again before its engine runs
    assert reset_queries.count(i) == 2
    n = engines.index((i, 0))
    assert engines[n - 1][0] == i and engines[n - 1][1] > 0
    v = verdict_for(rep, i)
    assert v.status is _expected_status(thr.circuit, thr.props, i, Mode.SEPARATE_GLOBAL)
    assert v.seeds_used == 0
    assert any(u.seeds_used for u in rep.verdicts)  # the other checks kept theirs

    # a rejected proof that used no seeds has nothing to drop: an engine
    # error, reported on its property alone; P0 is inductive as it
    # stands, so its check certifies it before any engine is built
    monkeypatch.setattr(pdr, "certify", lambda *a, **k: False)
    rep = run(VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL))
    assert verdict_for(rep, 0).status is S.HOLDS_GLOBAL
    errors = rep.verdicts[1:]
    assert all(v.status is S.ERROR for v in errors)
    assert all("certification rejected" in v.evidence for v in errors)
    # each Error verdict still reports the SAT calls its check made
    assert all(v.sat_calls > 0 for v in rep.verdicts)
    assert rep.totals.sat_calls == sum(v.sat_calls for v in rep.verdicts)


def test_an_error_inside_the_engine_keeps_the_engine_counts(monkeypatch):
    # the engine writes into its check's budget record, so an error it
    # raises mid-run still reports the frames and SAT calls it spent
    def broken(self, state, inputs, goals):
        raise pdr.PdrError("lifting is broken")

    monkeypatch.setattr(pdr.PdrEngine, "_lift", broken)
    thr = build_counter(5, thresholds=6)
    rep = run(VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL))
    errors = [v for v in rep.verdicts if v.status is S.ERROR]
    assert errors
    assert all("lifting is broken" in v.evidence for v in errors)
    assert all(v.frames >= 1 and v.sat_calls > 0 for v in errors)
    assert rep.totals.sat_calls == sum(v.sat_calls for v in rep.verdicts)


def test_no_seed_lookup_once_the_deadline_has_passed(tmp_path, monkeypatch):
    # a warm store, then a run whose every check starts past its deadline:
    # each check is Unknown before it asks the store for seeds
    thr = build_counter(5, thresholds=6)
    opts = TaskOptions(reuse_clauses=True, clause_db=str(tmp_path / "clauses.db"))
    task = VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL, opts)
    run(task)
    lookups = []
    real_seeds = clausedb.seeds_for_context

    def counting(*args, **kwargs):
        lookups.append(args[2].index)
        return real_seeds(*args, **kwargs)

    monkeypatch.setattr(clausedb, "seeds_for_context", counting)
    assert any(v.seeds_used for v in run(task).verdicts) and lookups
    lookups.clear()
    monkeypatch.setattr(
        orchestrator, "_prop_deadline", lambda opts, total: time.monotonic() - 1.0
    )
    rep = run(task)
    assert lookups == []
    assert all(v.status is S.UNKNOWN for v in rep.verdicts)
    assert all(v.frames == v.sat_calls == 0 for v in rep.verdicts)


def test_replay_rejects_a_trace_lifted_past_the_assumptions(monkeypatch):
    # a deliberately broken engine hook: predecessors lifted for the
    # successor and the constraint section only, the assumed properties
    # ignored; the spurious trace is an engine error on its property,
    # never a verdict
    def ignoring(self, state, inputs, succ_cube):
        nxt = [(self.circuit.latches[l >> 1].next, l & 1) for l in succ_cube]
        goals = [~n if neg else n for n, neg in nxt]
        return self._lift(state, inputs, [*goals, *self.circuit.constraints])

    monkeypatch.setattr(pdr.PdrEngine, "_lift_pred", ignoring)
    without_simulation(monkeypatch)  # it would refute them before any engine
    caught = 0
    for c, props in constraint_section_systems():
        rep = run(VerificationTask(c, tuple(props), Mode.JA))
        errors = [v for v in rep.verdicts if v.status is S.ERROR]
        assert all("spurious" in v.evidence for v in errors)
        caught += bool(errors)
        for v in rep.verdicts:
            if v.status is S.FAILS_LOCAL:
                others = [p for p in props if p.index != v.property_index]
                rr = replay_trace(c, v.evidence, props[v.property_index], others)
                assert rr.valid and not rr.spurious
    assert caught == 2


def test_a_stored_record_the_reset_state_violates_is_not_seeded(tmp_path):
    # the record's context is exactly what the check of P1 assumes, so it
    # is trusted; a clause false at reset must still never reach an engine
    thr = build_counter(5, thresholds=4)
    db = tmp_path / "clauses.db"
    append([ClauseRecord((0,), 0, (0, 2, 3))], str(db), circuit_fingerprint(thr.circuit))
    opts = TaskOptions(reuse_clauses=True, clause_db=str(db))
    rep = run(VerificationTask(thr.circuit, thr.props, Mode.JA, opts))
    assert all(v.status is S.HOLDS_GLOBAL for v in rep.verdicts)


def test_a_record_past_the_circuit_latches_is_dropped_alone(tmp_path):
    # it used to reach seed selection, whose error then cost every check
    # of the run its seeds
    thr = build_counter(6, thresholds=10)
    n = thr.circuit.num_latches
    db = tmp_path / "clauses.db"
    opts = TaskOptions(reuse_clauses=True, clause_db=str(db))
    task = VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL, opts)
    run(task)
    warm = run(task)
    append([ClauseRecord((2 * n + 1,), 0, ())], db, circuit_fingerprint(thr.circuit))
    with pytest.warns(UserWarning, match=f"1 records past the circuit's {n} latches dropped"):
        rep = run(task)
    assert sum(v.seeds_used for v in warm.verdicts) == 50
    assert [v.seeds_used for v in rep.verdicts] == [v.seeds_used for v in warm.verdicts]
    assert [v.status for v in rep.verdicts] == [v.status for v in warm.verdicts]


def test_separate_global_filters_records_from_local_proofs(tmp_path):
    # local records are re-earned under the empty context, not dropped
    seeded = 0
    for seed in range(6):
        c, props = gen_random_circuit(
            random.Random(seed), num_inputs=2, num_latches=6, num_gates=20, num_props=3
        )
        opts = TaskOptions(reuse_clauses=True, clause_db=str(tmp_path / f"{seed}.db"))
        run(VerificationTask(c, tuple(props), Mode.JA, opts))
        rep = run(VerificationTask(c, tuple(props), Mode.SEPARATE_GLOBAL, opts))
        for v in rep.verdicts:
            o_global = ExplicitModel(c).brute_check(props, v.property_index, CheckMode.GLOBAL)
            assert (v.status is S.HOLDS_GLOBAL) == o_global.holds, (seed, v)
            seeded += v.seeds_used
    assert seeded > 0


def test_per_property_timeout_is_isolated():
    # the threshold needs an astronomically deep proof at this width, the
    # req property still gets its quick answer
    c, props = gen_counter(20)
    rep = run(
        VerificationTask(
            c,
            tuple(props),
            Mode.SEPARATE_GLOBAL,
            TaskOptions(per_prop_timeout_s=0.05),
        )
    )
    assert verdict_for(rep, 0).status is S.FAILS_GLOBAL
    assert verdict_for(rep, 1).status is S.UNKNOWN
    assert verdict_for(rep, 1).wall_s < 0.5


def test_total_timeout_leaves_unknowns_not_errors():
    big = build_counter(18, thresholds=2)
    t0 = time.monotonic()
    rep = run(
        VerificationTask(
            big.circuit,
            big.props,
            Mode.JA,
            TaskOptions(per_prop_timeout_s=0.05),
        )
    )
    assert time.monotonic() - t0 < 5.0
    for v in rep.verdicts:
        assert v.status in (S.UNKNOWN, S.HOLDS_LOCAL, S.HOLDS_GLOBAL)


def test_ja_run_shares_one_induction_solver(monkeypatch):
    # one constrained step serves every expected-to-hold check of the pass
    builds = 0
    init = encode.StepEncoding.__init__

    def counting(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(encode.StepEncoding, "__init__", counting)
    thr = build_counter(5, thresholds=6)
    report = run(VerificationTask(thr.circuit, thr.props, Mode.JA))
    assert all(v.status is S.HOLDS_GLOBAL for v in report.verdicts)
    assert builds <= 31


def test_ja_run_encodes_one_constrained_step_per_pass(monkeypatch):
    # every expected-to-hold check of a JA pass steps through one relation:
    # the engines share one encoding of it and the certificates another,
    # however many proofs the pass certifies, before an engine or after it
    steps = proofs = certified = stepped = 0
    build, certify = pdr.constrained_step, pdr.certify
    check, run_engine = orchestrator.check_property, pdr.PdrEngine.run

    def counting_step(*args, **kwargs):
        nonlocal steps
        steps += 1
        return build(*args, **kwargs)

    def counting_check(*args, **kwargs):
        nonlocal proofs
        out = check(*args, **kwargs)
        proofs += out.status is pdr.PdrStatus.HOLDS
        return out

    def counting_certify(*args, **kwargs):
        nonlocal certified
        certified += 1
        return certify(*args, **kwargs)

    def counting_run(self):
        nonlocal stepped
        try:
            return run_engine(self)
        finally:
            stepped += "_step" in self.__dict__

    monkeypatch.setattr(pdr, "constrained_step", counting_step)
    monkeypatch.setattr(orchestrator, "check_property", counting_check)
    monkeypatch.setattr(pdr, "certify", counting_certify)
    monkeypatch.setattr(pdr.PdrEngine, "run", counting_run)
    thr = build_counter(5, thresholds=6)
    rng = random.Random(3)
    systems = [(thr.circuit, thr.props)] + [
        gen_random_circuit(rng, num_inputs=2, num_latches=6, num_gates=30, num_props=4)
        for _ in range(5)
    ]
    counts = []
    for c, props in systems:
        steps = proofs = certified = stepped = 0
        report = run(VerificationTask(c, tuple(props), Mode.JA))
        assert proofs == sum(v.status in (S.HOLDS_LOCAL, S.HOLDS_GLOBAL) for v in report.verdicts)
        assert steps == 1 + min(stepped, 1)
        counts.append((steps, proofs, certified, stepped))
    assert counts[0] == (1, 6, 0, 0)  # six proofs decided before any engine
    assert any(n[2] for n in counts)  # some engine proof was certified after it
    assert any(n[3] for n in counts)  # some engine took the shared step
    assert report.debugging_set  # the last system has failing checks too


def test_an_inductive_check_builds_no_engine(monkeypatch):
    # in JA every threshold is inductive as it stands, so each check is
    # decided and certified on the certificate holder, with no engine; in
    # either mode only that holder ever gets a next-state bad cone, so
    # an engine's step carries none
    engines = steps = 0
    built, cone_holders, cert_holders = [], [], []
    build, check = pdr.constrained_step, orchestrator.check_property
    engine_init, next_bad = pdr.PdrEngine.__init__, pdr.StepHolder.next_bad

    def counting_engine(self, *args, **kwargs):
        nonlocal engines
        engines += 1
        engine_init(self, *args, **kwargs)

    def counting_step(*args, **kwargs):
        nonlocal steps
        steps += 1
        return build(*args, **kwargs)

    def recording_check(*args, **kwargs):
        cert_holders.append(kwargs["certs"])
        return check(*args, **kwargs)

    def recording_next_bad(self, target):
        cone_holders.append(self)
        return next_bad(self, target)

    monkeypatch.setattr(pdr.PdrEngine, "__init__", counting_engine)
    monkeypatch.setattr(pdr, "constrained_step", counting_step)
    monkeypatch.setattr(orchestrator, "check_property", recording_check)
    monkeypatch.setattr(pdr.StepHolder, "next_bad", recording_next_bad)
    thr = build_counter(5, thresholds=6)
    rep = run(VerificationTask(thr.circuit, thr.props, Mode.JA))
    assert all(v.status is S.HOLDS_GLOBAL for v in rep.verdicts)
    assert engines == 0 and steps == 1
    assert len(cone_holders) == len(rep.verdicts)
    assert all(h is cert_holders[0] for h in cone_holders + cert_holders)

    rep = run(VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL))
    assert all(v.status is S.HOLDS_GLOBAL for v in rep.verdicts)
    assert engines > 0
    assert all(any(h is c for c in cert_holders) for h in cone_holders)


def test_a_joint_aggregate_never_takes_seeds_meant_for_its_index(tmp_path, monkeypatch):
    # the aggregate of ETH {0, 1} has index 2, which is also the ETF
    # property's; a record proven while P2 stayed clean is trusted for
    # target 2 under no assumptions, yet false on a globally reachable
    # state, so an aggregate that took store seeds would start from a lie
    calls = []
    real_check = orchestrator.check_property

    def recording(circuit, target, ctx=(), seeds=(), **kwargs):
        calls.append((circuit, len(seeds)))
        return real_check(circuit, target, ctx, seeds, **kwargs)

    monkeypatch.setattr(orchestrator, "check_property", recording)
    without_simulation(monkeypatch)  # it would refute members before any aggregate
    tested = 0
    for seed in (5, 6, 11):
        c, props = gen_random_circuit(
            random.Random(seed), num_inputs=2, num_latches=5, num_gates=16,
            num_props=3, mutate=seed % 2 == 1,
        )
        props = (*props[:2], replace(props[2], kind=PropertyKind.ETF))
        init = c.init_state()
        kept_clean = ExplicitModel(c).reachable([props[2]]).states()
        everywhere = ExplicitModel(c).reachable([]).states()
        latch = next(
            i for i in range(c.num_latches)
            if all(s[i] == init[i] for s in kept_clean)
            and any(s[i] != init[i] for s in everywhere)
        )
        db = tmp_path / f"{seed}.db"
        clause = (pdr.latch_literal(latch, init[latch]),)
        append([ClauseRecord(clause, 2, (2,))], str(db), circuit_fingerprint(c))
        calls.clear()
        opts = TaskOptions(reuse_clauses=True, clause_db=str(db))
        rep = run(VerificationTask(c, props, Mode.JOINT, opts))
        assert any(circuit is not c for circuit, _ in calls)  # an aggregate ran
        assert all(n == 0 for circuit, n in calls if circuit is not c)
        for p in props[:2]:
            v = verdict_for(rep, p.index)
            assert v.seeds_used == 0, (seed, v)
            o_global = ExplicitModel(c).brute_check(props, p.index, CheckMode.GLOBAL)
            assert (v.status is S.HOLDS_GLOBAL) == o_global.holds, (seed, v)
        tested += 1
    assert tested == 3


def test_joint_verdicts_keep_their_index_when_etf_and_eth_interleave():
    rng = random.Random(41)
    decided = {S.HOLDS_GLOBAL: 0, S.FAILS_GLOBAL: 0}
    for _ in range(12):
        c, props = gen_random_circuit(
            rng, num_inputs=2, num_latches=5, num_gates=18, num_props=4,
            mutate=rng.random() < 0.5,
        )
        props = tuple(
            replace(p, kind=PropertyKind.ETF) if p.index % 2 else p for p in props
        )
        eth = [p for p in props if p.kind is PropertyKind.ETH]
        rep = run(VerificationTask(c, props, Mode.JOINT))
        assert [v.property_index for v in rep.verdicts] == [0, 1, 2, 3]
        for v, p in zip(rep.verdicts, props):
            if p.kind is PropertyKind.ETH:
                holds = ExplicitModel(c).brute_check(props, p.index, CheckMode.GLOBAL).holds
                assert v.status is (S.HOLDS_GLOBAL if holds else S.FAILS_GLOBAL), v
                decided[v.status] += 1
                ctx = ()
            else:
                holds = ExplicitModel(c).brute_check([*eth, p], p.index, CheckMode.LOCAL).holds
                assert v.status is (S.ETF_HOLDS_LOCAL if holds else S.ETF_CONFIRMED), v
                ctx = eth
            if isinstance(v.evidence, Counterexample):
                assert v.evidence.violated_property == p.index
                rr = replay_trace(c, v.evidence, p, ctx)
                assert rr.valid and not rr.spurious
    assert all(decided.values())


def test_the_seed_filter_builds_its_step_through_the_one_builder(tmp_path, monkeypatch):
    # a separate-global run over a store a JA run wrote must filter the
    # local records; each filter call builds exactly one constrained step,
    # through the same builder the engines and certificates use
    built, filtered = [], []
    build, real_filter = pdr.constrained_step, clausedb.filter_invariant

    def counting_step(solver, circuit, props):
        built.append(tuple(p.index for p in props))
        return build(solver, circuit, props)

    def recording(candidates, circuit, constraint_props, **kwargs):
        before = len(built)
        out = real_filter(candidates, circuit, constraint_props, **kwargs)
        filtered.append((tuple(p.index for p in constraint_props), built[before:]))
        return out

    monkeypatch.setattr(pdr, "constrained_step", counting_step)
    monkeypatch.setattr(clausedb, "filter_invariant", recording)
    for seed in range(4):
        c, props = gen_random_circuit(
            random.Random(seed), num_inputs=2, num_latches=6, num_gates=20, num_props=3
        )
        opts = TaskOptions(reuse_clauses=True, clause_db=str(tmp_path / f"{seed}.db"))
        run(VerificationTask(c, tuple(props), Mode.JA, opts))
        run(VerificationTask(c, tuple(props), Mode.SEPARATE_GLOBAL, opts))
    assert filtered
    for ctx, steps in filtered:
        assert steps == [ctx]


# ------------------------------------------------- simulation from reset


def simulated_family():
    """The 30 small random systems the simulation is measured on, odd
    seeds with a planted next-state bug."""
    for seed in range(30):
        yield gen_random_circuit(random.Random(seed), 2, 6, 30, 4, mutate=seed % 2 == 1)


def simulated_verdicts(c, props, mode):
    """The verdicts of a run that the simulation decided: each checked to
    repeat on a second run, to cost no SAT call and no frame, and to
    replay in its property's own context. An engine asks at least one
    query, so these are the failures with 0 SAT calls."""
    task = VerificationTask(c, props, mode)
    first, second = run(task), run(task)
    found = []
    for v, again in zip(first.verdicts, second.verdicts):
        if isinstance(v.evidence, Counterexample) and v.sat_calls == 0:
            assert v.frames == 0 and again.evidence == v.evidence
            target = props[v.property_index]
            rr = replay_trace(c, v.evidence, target, orchestrator._assumed(task, target))
            assert rr.valid and not rr.spurious
            found.append((v.property_index, v.status, v.evidence.depth))
    return found


def test_a_simulated_failure_repeats_costs_no_sat_call_and_replays():
    c, props = gen_counter(3)  # P0 fails at reset whenever req is low
    for mode, fails in (
        (Mode.JA, S.FAILS_LOCAL),
        (Mode.SEPARATE_GLOBAL, S.FAILS_GLOBAL),
        (Mode.JOINT, S.FAILS_GLOBAL),
    ):
        assert simulated_verdicts(c, tuple(props), mode) == [(0, fails, 0)]
    # with P0 expected to fail, nothing keeps req high: P1 overflows at 5
    etf = (replace(props[0], kind=PropertyKind.ETF), props[1])
    assert simulated_verdicts(c, etf, Mode.JA) == [
        (0, S.ETF_CONFIRMED, 0), (1, S.FAILS_LOCAL, 5),
    ]
    found = [
        found for c, props in simulated_family()
        for found in simulated_verdicts(c, tuple(props), Mode.JA)
    ]
    assert all(status is S.FAILS_LOCAL for _, status, _ in found)
    assert sum(depth > 0 for _, _, depth in found) >= 5, found


def test_a_failure_past_the_simulated_frames_is_left_to_pdr():
    c, props = gen_counter(5)  # P1 fails globally at depth 2^4 + 1
    rep = run(VerificationTask(c, tuple(props), Mode.SEPARATE_GLOBAL))
    v0, v1 = rep.verdicts
    assert v0.status is S.FAILS_GLOBAL and v0.sat_calls == 0
    assert v1.status is S.FAILS_GLOBAL and v1.evidence.depth == 17 > SIM_FRAMES
    assert v1.sat_calls > 0
    rr = replay_trace(c, v1.evidence, props[1], ())
    assert rr.valid and not rr.spurious


def test_a_run_past_its_deadline_takes_no_simulated_trace(monkeypatch):
    c, props = gen_counter(3)
    replays = []
    real_replay = orchestrator.replay_trace
    monkeypatch.setattr(
        orchestrator, "replay_trace", lambda *args: replays.append(args) or real_replay(*args)
    )
    real_simulation = orchestrator.first_failures

    def slow(*args):
        # hands over every trace at once, then runs past the deadline
        *_, found = real_simulation(*args)
        assert found
        yield found
        time.sleep(0.05)
        yield found

    monkeypatch.setattr(orchestrator, "first_failures", slow)
    for mode in Mode:
        rep = run(VerificationTask(c, tuple(props), mode, TaskOptions(total_timeout_s=0.01)))
        assert all(v.status is S.UNKNOWN for v in rep.verdicts), mode
        assert all(v.frames == v.sat_calls == 0 for v in rep.verdicts)
    assert replays == []


def test_simulation_leaves_every_verdict_as_it_was(monkeypatch):
    systems = list(simulated_family())
    with_sim = [
        [v.status for v in run(VerificationTask(c, tuple(ps), mode)).verdicts]
        for c, ps in systems for mode in Mode
    ]
    without_simulation(monkeypatch)
    assert with_sim == [
        [v.status for v in run(VerificationTask(c, tuple(ps), mode)).verdicts]
        for c, ps in systems for mode in Mode
    ]
