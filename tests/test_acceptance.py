"""End-to-end gate for the seven headline requirements.

Each criterion is one test printing a single PASS line with its measured
numbers; tolerances are stated inline next to the asserts. The random
sweep backing criteria 3-5 runs once and is shared.
"""

import contextlib
import functools
import io
import random
import statistics
import time
from types import SimpleNamespace

from japdr.aiger import (
    build_counter,
    circuit_fingerprint,
    emit_ascii,
    emit_binary,
    gen_counter,
    gen_random_circuit,
    parse,
    parse_file,
)
from japdr.circuit import (
    Counterexample,
    TraceFrame,
    eval_transition,
    property_violated,
    replay_trace,
)
from japdr.clausedb import append as db_append, load as db_load
from japdr.cli import main
from japdr.oracle import CheckMode, ExplicitModel, bmc
from japdr.orchestrator import (
    Mode,
    TaskOptions,
    VerdictStatus as S,
    VerificationTask,
    run,
)
from japdr.pdr import PdrStatus, certify, check_property

from explicit import aggregate_inductive, brute_check_aggregate, property_inductive

SWEEP_SYSTEMS = 500
SWEEP_SEED = 408923


def violating_frames(circuit, cex, props):
    return sum(
        1 for f in cex.frames if any(property_violated(circuit, f, p) for p in props)
    )


def first_violation_depth(model, reach, mask):
    best = None
    for s, d in reach.depths.items():
        if any(b & mask for b in model.bad_table[s]):
            best = d if best is None else min(best, d)
    return best


def state_predicate_properties(model, props):
    """True when every bad output is a function of the latches alone."""
    for p in props:
        bit = model.bad_bit(p.index)
        for s in range(model.n_states):
            vals = {bool(model.bad_table[s][x] & bit) for x in range(model.n_inputs)}
            if len(vals) != 1:
                return False
    return True


@functools.lru_cache(maxsize=1)
def random_sweep():
    """One pass over the random suite: oracle laws, engine agreement,
    and the evidence needed by the later criteria."""
    rng = random.Random(SWEEP_SEED)
    problems = []
    systems = []
    holds_records = []  # (circuit, ctx, invariant, target)
    fails_records = []  # (circuit, props, ctx, cex, target)
    ja_statuses = []  # per system: {index: status}
    transfer_proofs = 0
    t0 = time.monotonic()

    for n in range(SWEEP_SYSTEMS):
        seed = rng.randrange(1 << 30)
        r = random.Random(seed)
        c, props = gen_random_circuit(
            r,
            num_inputs=r.randint(1, 3),
            num_latches=r.randint(2, 6),
            num_gates=r.randint(4, 24),
            num_props=r.randint(2, 4),
            mutate=r.random() < 0.5,
        )
        systems.append((seed, c, props))
        m = ExplicitModel(c)
        local = {p.index: m.brute_check(props, p.index, CheckMode.LOCAL) for p in props}
        glob = {p.index: m.brute_check(props, p.index, CheckMode.GLOBAL) for p in props}
        agg = brute_check_aggregate(m, props)
        dbg = m.brute_debug_set(props)

        def flag(law):
            problems.append(f"seed {seed}: {law}")

        # induction transfers from the conjunction to each part. The law
        # speaks about properties of states; a bad output that reads an
        # input can leave a state outside the aggregate region while one
        # of its frames is still clean, so those systems are out of scope.
        induction_transfers = False
        if state_predicate_properties(m, props) and aggregate_inductive(m, props):
            induction_transfers = True
            for p in props:
                if not property_inductive(m, props, p.index):
                    flag(f"aggregate inductive but P{p.index} is not")

        for i in local:
            if glob[i].holds and not local[i].holds:
                flag(f"P{i} holds globally but not locally")

        if agg.holds != all(g.holds for g in glob.values()):
            flag("aggregate/global mismatch")
        if agg.holds != all(l.holds for l in local.values()):
            flag("aggregate/local mismatch")
        if dbg != {i for i, l in local.items() if not l.holds}:
            flag("debugging set mismatch")

        mask = m.prop_mask(props)
        raw_d = first_violation_depth(m, m.reachable(), mask)
        proj_d = first_violation_depth(m, m.reachable(props), mask)
        if raw_d != proj_d:
            flag("projection changed the first-violation depth")
        if agg.holds != (raw_d is None):
            flag("aggregate verdict against the wrong relation")

        if not agg.holds:
            final = agg.cex.frames[-1]
            if not any(property_violated(c, final, p) for p in props if p.index in dbg):
                flag("aggregate cex ends outside the debugging set")
            if not replay_trace(
                c, agg.cex, next(p for p in props if p.index == agg.cex.violated_property)
            ).valid:
                flag("aggregate cex does not replay")

        for i in local:
            if local[i].holds and not glob[i].holds:
                if violating_frames(c, glob[i].cex, props) < 2:
                    flag(f"P{i} global cex stays inside the clean region")

        # engine vs oracle, both context shapes
        local_outs = {}
        for target in props:
            others = [p for p in props if p.index != target.index]
            for ctx, want in (((), glob), (others, local)):
                # criterion 4 replays every trace collected here
                out = check_property(c, target, list(ctx))
                if ctx:
                    local_outs[target.index] = out
                if (out.status is PdrStatus.HOLDS) != want[target.index].holds:
                    flag(f"engine disagrees on P{target.index} ctx={len(ctx)}")
                elif out.status is PdrStatus.HOLDS:
                    holds_records.append((c, list(ctx), out.invariant, target))
                else:
                    fails_records.append((c, props, list(ctx), out.cex, target))

        # the engine sees the transfer as an immediate proof: nothing at
        # reset, nothing to learn
        clean_init = not any(b for b in m.bad_table[m.init_int])
        if induction_transfers and clean_init:
            transfer_proofs += 1
            for i, out in local_outs.items():
                if out.status is not PdrStatus.HOLDS or out.invariant != ():
                    flag(f"P{i} relative induction did not close at once")

        rep_ja = run(VerificationTask(c, tuple(props), Mode.JA))
        ja_statuses.append({v.property_index: v.status for v in rep_ja.verdicts})
        if set(rep_ja.debugging_set) != dbg:
            flag("driver debugging set mismatch")
        for v in rep_ja.verdicts:
            if v.status is S.FAILS_LOCAL:
                ok = not local[v.property_index].holds
                others = [p for p in props if p.index != v.property_index]
                fails_records.append((c, props, others, v.evidence, props[v.property_index]))
            elif v.status is S.HOLDS_LOCAL:
                ok = local[v.property_index].holds
            elif v.status is S.HOLDS_GLOBAL:
                ok = glob[v.property_index].holds
            else:
                ok = False
            if not ok:
                flag(f"driver status {v.status.value} wrong for P{v.property_index}")

        rep_sep = run(
            VerificationTask(c, tuple(props), Mode.SEPARATE_GLOBAL)
        )
        for v in rep_sep.verdicts:
            if (v.status is S.HOLDS_GLOBAL) != glob[v.property_index].holds:
                flag(f"separate-global status wrong for P{v.property_index}")
            if v.status is S.FAILS_GLOBAL:
                fails_records.append(
                    (c, props, [], v.evidence, props[v.property_index])
                )

    return SimpleNamespace(
        problems=problems,
        systems=systems,
        holds_records=holds_records,
        fails_records=fails_records,
        ja_statuses=ja_statuses,
        transfer_proofs=transfer_proofs,
        wall_s=time.monotonic() - t0,
    )


COUNTER_EVIDENCE = []


def test_criterion_1_counter_scaling():
    # per size: P0 fails locally with a one-frame cex, P1 holds locally
    # with nothing learned, and the work does not grow with the width.
    # Tolerances: median wall <= 1 s per size, max/min ratio <= 3.
    medians = {}
    for k in (8, 12, 16, 20):
        c, props = gen_counter(k)
        times = []
        for _ in range(5):
            t0 = time.monotonic()
            rep = run(VerificationTask(c, tuple(props), Mode.JA))
            times.append(time.monotonic() - t0)
        medians[k] = statistics.median(times)
        v0, v1 = rep.verdicts
        assert v0.status is S.FAILS_LOCAL and len(v0.evidence.frames) == 1, k
        assert v1.status is S.HOLDS_LOCAL and v1.evidence == 0, k
        assert rep.debugging_set == (0,), k
        assert medians[k] <= 1.0, (k, medians[k])
        COUNTER_EVIDENCE.append((c, props, rep))
    ratio = max(medians.values()) / min(medians.values())
    assert ratio <= 3.0, medians
    print(
        "criterion 1 (counter scaling): PASS - medians "
        + ", ".join(f"k={k} {m * 1000:.1f}ms" for k, m in medians.items())
        + f", ratio {ratio:.2f}"
    )


def test_criterion_2_bmc_depth_law():
    # shortest global violation of the threshold sits one past the reset
    # point: nothing at 2^(k-1), a cex at 2^(k-1)+1. Budget 60 s for all six.
    t0 = time.monotonic()
    for k in range(3, 9):
        c, props = gen_counter(k)
        d = 1 << (k - 1)
        clean = bmc(c, props[1], max_depth=d)
        assert clean.cex is None and not clean.timed_out, k
        found = bmc(c, props[1], max_depth=d + 1)
        assert found.cex is not None, k
        assert len(found.cex.frames) - 1 == d + 1, k
        assert replay_trace(c, found.cex, props[1]).valid, k
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, elapsed
    print(f"criterion 2 (bmc depth law): PASS - k=3..8 in {elapsed:.1f}s (budget 60s)")


def test_criterion_3_verdict_law_sweep():
    # oracle laws and engine agreement over the full random suite,
    # 100% required, five-minute budget
    sweep = random_sweep()
    assert len(sweep.systems) >= 500
    assert sweep.problems == [], sweep.problems[:10]
    assert sweep.transfer_proofs >= 10  # the induction-transfer law must fire
    assert sweep.wall_s <= 300.0, sweep.wall_s
    print(
        f"criterion 3 (verdict law sweep): PASS - {len(sweep.systems)} systems, "
        f"0 violations, {sweep.transfer_proofs} induction transfers, "
        f"{sweep.wall_s:.1f}s (budget 300s)"
    )


def test_criterion_4_evidence_validity():
    # every proof re-certifies on fresh solvers, every trace replays, and
    # every local failure stays meaningful under the other properties
    sweep = random_sweep()
    holds = list(sweep.holds_records)
    fails = list(sweep.fails_records)
    for c, props, rep in COUNTER_EVIDENCE:
        for v in rep.verdicts:
            if v.status is S.FAILS_LOCAL:
                others = [p for p in props if p.index != v.property_index]
                fails.append((c, props, others, v.evidence, props[v.property_index]))
    assert holds and fails

    for c, ctx, invariant, target in holds:
        assert certify(c, ctx, invariant, target), target.index
    for c, props, ctx, cex, target in fails:
        rep = replay_trace(c, cex, target, ctx)
        assert rep.valid, target.index
        assert not rep.spurious, target.index
    print(
        f"criterion 4 (evidence validity): PASS - {len(holds)} proofs certified, "
        f"{len(fails)} traces replayed, 0 spurious"
    )


def test_criterion_5_reuse_neutrality_and_benefit(tmp_path):
    # same verdicts with the clause store on; fewer SAT calls on the
    # threshold family where re-use has something to bite on
    sweep = random_sweep()
    rng = random.Random(1)
    picked = rng.sample(range(len(sweep.systems)), 100)
    for n in picked:
        seed, c, props = sweep.systems[n]
        db = tmp_path / f"{n}.db"
        rep = run(
            VerificationTask(
                c,
                tuple(props),
                Mode.JA,
                TaskOptions(reuse_clauses=True, clause_db=str(db)),
            )
        )
        got = {v.property_index: v.status for v in rep.verdicts}
        assert got == sweep.ja_statuses[n], seed

    thr = build_counter(6, thresholds=10)
    rep_off = run(
        VerificationTask(thr.circuit, thr.props, Mode.SEPARATE_GLOBAL)
    )
    db = tmp_path / "thresholds.db"
    rep_on = run(
        VerificationTask(
            thr.circuit,
            thr.props,
            Mode.SEPARATE_GLOBAL,
            TaskOptions(reuse_clauses=True, clause_db=str(db)),
        )
    )
    for voff, von in zip(rep_off.verdicts, rep_on.verdicts):
        assert voff.status is von.status
    assert rep_on.totals.sat_calls <= rep_off.totals.sat_calls
    print(
        "criterion 5 (re-use): PASS - verdicts identical on 100 sampled systems; "
        f"threshold family SAT calls {rep_off.totals.sat_calls} off -> "
        f"{rep_on.totals.sat_calls} on"
    )


def simulate(circuit, props, state, inputs_seq):
    trace = []
    for x in inputs_seq:
        frame = TraceFrame(state, x)
        trace.append(
            (state, tuple(property_violated(circuit, frame, p) for p in props))
        )
        state = eval_transition(circuit, frame)
    return trace


def replay_witness_file(circuit, props, data):
    lines = data.decode().splitlines()
    assert lines[0] == "1" and lines[-1] == "."
    idx = int(lines[1][1:])
    state = tuple(int(ch) for ch in lines[2])
    frames = []
    for line in lines[3:-1]:
        frames.append(TraceFrame(state, tuple(int(ch) for ch in line)))
        state = eval_transition(circuit, frames[-1])
    cex = Counterexample(tuple(frames), idx)
    assert replay_trace(circuit, cex, props[idx]).valid


def test_criterion_6_format_fidelity(tmp_path):
    rng = random.Random(660)
    # parse/emit in both formats preserves behavior bit for bit
    for n in range(100):
        c, props = gen_random_circuit(
            rng,
            num_inputs=rng.randint(1, 3),
            num_latches=rng.randint(1, 6),
            num_gates=rng.randint(0, 20),
            num_props=rng.randint(1, 3),
        )
        # binary emission renumbers gates into the monotone order the
        # format requires, so only the text form keeps the fingerprint;
        # behavior must survive both
        variants = [parse(emit_ascii(c)), parse(emit_binary(c))]
        assert circuit_fingerprint(variants[0][0]) == circuit_fingerprint(c)
        for _ in range(100):
            steps = rng.randint(1, 6)
            seq = [
                tuple(rng.randint(0, 1) for _ in range(c.num_inputs))
                for _ in range(steps)
            ]
            want = simulate(c, props, c.init_state(), seq)
            for vc, vprops in variants:
                assert simulate(vc, vprops, vc.init_state(), seq) == want, n

    # every witness the checker emits replays on the source circuit
    sat_witnesses = 0
    for n in range(12):
        c, props = gen_random_circuit(
            random.Random(9000 + n),
            num_inputs=2,
            num_latches=4,
            num_gates=10,
            num_props=2,
            mutate=True,
        )
        path = tmp_path / f"w{n}.aag"
        path.write_bytes(emit_ascii(c))
        wdir = tmp_path / f"wit{n}"
        with contextlib.redirect_stdout(io.StringIO()):
            main(
                ["check", str(path), "--witness-dir", str(wdir),
                 "--reuse-clauses", "off", "--report", "json"]
            )
        for p in props:
            data = (wdir / f"b{p.index}.wit").read_bytes()
            if data.startswith(b"1\n"):
                replay_witness_file(c, props, data)
                sat_witnesses += 1
    assert sat_witnesses >= 5

    # the clause store reproduces itself byte for byte
    thr = build_counter(5, thresholds=6)
    db = tmp_path / "fidelity.db"
    run(
        VerificationTask(
            thr.circuit,
            thr.props,
            Mode.SEPARATE_GLOBAL,
            TaskOptions(reuse_clauses=True, clause_db=str(db)),
        )
    )
    fp = circuit_fingerprint(thr.circuit)
    records = db_load(db, fp)
    assert records
    a, b = tmp_path / "rt_a.db", tmp_path / "rt_b.db"
    db_append(records, a)
    db_append(db_load(a, fp), b)
    assert a.read_bytes() == b.read_bytes()
    print(
        "criterion 6 (format fidelity): PASS - 100x100 roundtrip simulations, "
        f"{sat_witnesses} witnesses replayed, clause store byte-stable"
    )


def test_criterion_7_many_property_smoke(tmp_path):
    # wide multi-property files parse and the checker makes real progress;
    # no claim about finishing hard instances
    built = build_counter(8, thresholds=100)
    path = tmp_path / "wide.aig"
    path.write_bytes(emit_binary(built.circuit))
    circuit, props = parse_file(path)
    assert len(props) == 100
    rep = run(
        VerificationTask(
            circuit,
            tuple(props),
            Mode.JA,
            TaskOptions(per_prop_timeout_s=0.5),
        )
    )
    assert len(rep.verdicts) == 100
    resolved = sum(1 for v in rep.verdicts if v.status is not S.UNKNOWN)
    assert resolved >= 1

    c, rprops = gen_random_circuit(
        random.Random(7700),
        num_inputs=3,
        num_latches=8,
        num_gates=120,
        num_props=100,
    )
    rpath = tmp_path / "wide_random.aag"
    rpath.write_bytes(emit_ascii(c))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(
            ["check", str(rpath), "--reuse-clauses", "off",
             "--per-prop-timeout", "0.2", "--report", "json"]
        )
    assert code in (0, 10, 20)
    print(
        f"criterion 7 (many-property smoke): PASS - 100-property files parse, "
        f"{resolved}/100 thresholds resolved under a 0.5s per-property budget"
    )
