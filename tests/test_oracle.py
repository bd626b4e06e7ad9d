import importlib.util
import os
import random
import sys
import types

import pytest

import japdr
from japdr.aiger import build_counter, gen_counter, gen_random_circuit
from japdr.circuit import (
    Circuit,
    CircuitBuilder,
    Latch,
    Literal,
    PropertySpec,
    eval_circuit,
    eval_literal,
    property_violated,
    replay_trace,
)
from japdr.oracle import (
    CheckMode,
    ExplicitModel,
    OracleError,
    bmc,
)
from japdr.orchestrator import aggregate_bad

from explicit import aggregate_inductive, brute_check_aggregate, property_inductive


def val_of(state):
    return state[0] + 2 * state[1] + 4 * state[2]


def test_counter3_global_reach_covers_everything():
    c, _ = gen_counter(3)
    rs = ExplicitModel(c).reachable()
    assert {val_of(s) for s in rs.states()} == set(range(8))
    # shortest distances follow the increment chain: value k sits at
    # depth k (a state int holds latch 0 in its highest bit)
    bits = {s: tuple(s >> (2 - i) & 1 for i in range(3)) for s in rs.depths}
    assert {val_of(bits[s]): d for s, d in rs.depths.items()} == {k: k for k in range(8)}


def test_counter3_projected_reach_stops_at_threshold():
    c, props = gen_counter(3)
    # projecting on both properties forces req high, so the reset fires at 4
    both = ExplicitModel(c).reachable(props)
    assert {val_of(s) for s in both.states()} == {0, 1, 2, 3, 4}
    # projecting on the threshold alone still lets req stay low: one
    # violating state is entered and then self-loops
    only_p1 = ExplicitModel(c).reachable([props[1]])
    assert {val_of(s) for s in only_p1.states()} == {0, 1, 2, 3, 4, 5}


def test_counter3_local_and_global_verdicts():
    c, props = gen_counter(3)
    m = ExplicitModel(c)
    r = m.brute_check(props, 0, CheckMode.LOCAL)
    assert not r.holds and len(r.cex.frames) == 1
    assert m.brute_check(props, 1, CheckMode.LOCAL).holds
    assert not m.brute_check(props, 0, CheckMode.GLOBAL).holds
    g = m.brute_check(props, 1, CheckMode.GLOBAL)
    assert not g.holds and len(g.cex.frames) == 6  # 5 transitions to val=5
    assert m.brute_debug_set(props) == {0}


def test_counter3_relative_induction():
    c, props = gen_counter(3)
    m = ExplicitModel(c)
    # threshold is inductive once req is assumed high
    assert property_inductive(m, props, 1)
    # req is an unconstrained input, never inductive
    assert not property_inductive(m, props, 0)
    # every state has some req-low frame, so the aggregate region is empty
    assert aggregate_inductive(m, props)


def test_identity_update_reaches_only_reset_state():
    latches = [
        Latch(1, Literal(1), 1),
        Latch(2, Literal(2), 0),
    ]
    c = Circuit(num_inputs=0, latches=latches, ands=[], bads=[], constraints=[])
    rs = ExplicitModel(c).reachable()
    assert rs.states() == {(1, 0)}
    assert list(rs.depths.values()) == [0]


def test_tables_agree_with_one_frame_evaluation():
    # cell by cell, the tables read off the all-frames simulation equal
    # eval_circuit on that one frame, with latch 0 and bad 0 highest
    no_inputs = CircuitBuilder(0, 2)
    no_inputs.set_next(0, ~no_inputs.latch_lit(1))
    no_inputs.set_next(1, no_inputs.and_(no_inputs.latch_lit(0), ~no_inputs.latch_lit(1)))
    no_inputs.bads = [no_inputs.latch_lit(0), ~no_inputs.latch_lit(1)]
    no_bads, _ = gen_random_circuit(random.Random(5), num_inputs=2, num_latches=3,
                                    num_gates=12, num_props=1)
    no_bads = Circuit(no_bads.num_inputs, no_bads.latches, no_bads.ands)
    thr = build_counter(4, thresholds=3).circuit
    assert thr.constraints and not no_bads.bads

    def read(vals, lits):  # the lits' values as one int, the first highest
        return int("".join(str(eval_literal(vals, l)) for l in lits) or "0", 2)

    for c in (no_inputs.build(), no_bads, thr):
        m = ExplicitModel(c)
        for s in range(m.n_states):
            for x in range(m.n_inputs):
                vals = eval_circuit(c, m.frame_of(s, x))
                assert m.next_table[s][x] == read(vals, (l.next for l in c.latches))
                assert m.bad_table[s][x] == read(vals, c.bads)
                assert m.constr_table[s][x] is all(eval_literal(vals, l) for l in c.constraints)


def test_enumeration_cap_is_enforced():
    rng = random.Random(0)
    c, _ = gen_random_circuit(rng, num_inputs=3, num_latches=6)
    with pytest.raises(OracleError, match="cap"):
        ExplicitModel(c, cap_bits=8)
    ExplicitModel(c, cap_bits=9)  # exactly at the cap is fine


def frames_violating_any(circuit, cex, props):
    return sum(
        1
        for f in cex.frames
        if any(property_violated(circuit, f, p) for p in props)
    )


def test_verdict_laws_on_random_systems():
    """Consistency laws tying local, global, and aggregate checks together.

    Kept to 120 systems here; the wide sweep lives in the acceptance suite.
    """
    rng = random.Random(9101)
    for trial in range(120):
        c, props = gen_random_circuit(
            rng,
            num_inputs=rng.randint(1, 2),
            num_latches=rng.randint(2, 5),
            num_gates=rng.randint(4, 12),
            num_props=rng.randint(2, 3),
            mutate=rng.random() < 0.5,
        )
        m = ExplicitModel(c)
        local = {p.index: m.brute_check(props, p.index, CheckMode.LOCAL).holds for p in props}
        glob = {p.index: m.brute_check(props, p.index, CheckMode.GLOBAL).holds for p in props}
        agg = brute_check_aggregate(m, props)

        # global truth implies local truth
        for i in local:
            assert not glob[i] or local[i], trial
        # the conjunction holds globally exactly when every part does
        assert agg.holds == all(glob.values()), trial
        # and exactly when every part holds under mutual assumption
        assert agg.holds == all(local.values()), trial
        assert m.brute_debug_set(props) == {i for i, h in local.items() if not h}, trial

        if not agg.holds:
            # last frame of the aggregate trace pins a locally failing index
            final = agg.cex.frames[-1]
            debug = m.brute_debug_set(props)
            assert any(
                property_violated(c, final, p) for p in props if p.index in debug
            ), trial
            rep = replay_trace(c, agg.cex, next(p for p in props if p.index == agg.cex.violated_property))
            assert rep.valid, trial

        for i in local:
            if local[i] and not glob[i]:
                # a sound global trace must leave the mutually-clean region:
                # at least two frames violate something
                gcex = m.brute_check(props, i, CheckMode.GLOBAL).cex
                assert frames_violating_any(c, gcex, props) >= 2, trial


def test_aggregate_agrees_between_raw_and_projected_relations():
    """First violation is visible at the same shortest depth whether
    violating frames step normally or self-loop."""
    rng = random.Random(440)
    for trial in range(80):
        c, props = gen_random_circuit(
            rng,
            num_inputs=rng.randint(1, 2),
            num_latches=rng.randint(2, 5),
            num_gates=rng.randint(4, 10),
            num_props=2,
            mutate=rng.random() < 0.5,
        )
        m = ExplicitModel(c)
        mask = m.prop_mask(props)

        def first_violation_depth(rs):
            best = None
            for s, d in rs.depths.items():
                if any(b & mask for b in m.bad_table[s]):
                    best = d if best is None else min(best, d)
            return best

        raw = first_violation_depth(m.reachable())
        proj = first_violation_depth(m.reachable(props))
        assert raw == proj, trial
        agg = brute_check_aggregate(m, props)
        assert agg.holds == (raw is None), trial
        if not agg.holds:
            assert len(agg.cex.frames) - 1 == raw, trial


def random_systems(rng, count):
    """Random one-property systems, nothing assumed."""
    for _ in range(count):
        c, props = gen_random_circuit(
            rng,
            num_inputs=rng.randint(1, 2),
            num_latches=rng.randint(2, 4),
            num_gates=rng.randint(4, 10),
            num_props=1,
            mutate=True,
        )
        yield c, props[0], ()


def mux_systems(rng, count):
    """Random systems built from the builder's xor and mux over inputs
    and latches, some with a constraint section, some assuming their
    second property while checking the first."""
    for _ in range(count):
        num_latches = rng.randint(2, 4)
        b = CircuitBuilder(2, num_latches, [rng.randint(0, 1) for _ in range(num_latches)])
        pool = [b.input_lit(i) for i in range(2)]
        pool += [b.latch_lit(i) for i in range(num_latches)]
        for _ in range(rng.randint(3, 7)):
            x, y, z = (rng.choice(pool) for _ in range(3))
            x = ~x if rng.random() < 0.5 else x
            pool.append(b.xor(x, y) if rng.random() < 0.5 else b.mux(x, y, z))
        for i in range(num_latches):
            b.set_next(i, rng.choice(pool[2:]))
        b.bads = [b.conj(rng.sample(pool, 2)) for _ in range(2)]
        if rng.random() < 0.3:
            b.constraints = [~rng.choice(pool)]
        c = b.build()
        props = [PropertySpec(i, bad) for i, bad in enumerate(c.bads)]
        yield c, props[0], tuple(props[1:]) if rng.random() < 0.5 else ()


def test_bmc_matches_breadth_first_shortest_depth():
    # mux systems unroll into collapsed frames: ITE clauses over the
    # mux-form gates, their inner gates left out
    rng = random.Random(622)
    systems = [*random_systems(rng, 60), *mux_systems(random.Random(77), 60)]
    checked = collapsed = assumed = 0
    for trial, (c, target, assumes) in enumerate(systems):
        collapsed += len(c.ite_gates)
        m = ExplicitModel(c)
        g = m.brute_check([target, *assumes], target.index, CheckMode.LOCAL)
        res = bmc(c, target, assumes, max_depth=18)
        if g.holds:
            assert res.cex is None, trial
        else:
            depth = len(g.cex.frames) - 1
            if depth > 18:
                continue
            assert res.cex is not None, trial
            assert len(res.cex.frames) - 1 == depth, trial
            replay = replay_trace(c, res.cex, target, assumes)
            assert replay.valid and not replay.violated_constraints, trial
            checked += 1
            assumed += bool(assumes)
    assert checked >= 40 and collapsed and assumed


def test_bmc_on_an_aggregate_bad_outside_the_circuit_bads():
    # the aggregate's bad is a gate added after the circuit's bads, so the
    # frames must cover the target's own cone
    checked = 0
    for trial, (c, _, _) in enumerate(mux_systems(random.Random(31), 20)):
        props = [PropertySpec(i, bad) for i, bad in enumerate(c.bads)]
        ext, agg = aggregate_bad(c, props)
        assert agg.bad not in ext.bads
        g = brute_check_aggregate(ExplicitModel(c), props)
        res = bmc(ext, agg, max_depth=18)
        if g.holds:
            assert res.cex is None, trial
            continue
        assert res.cex is not None, trial
        assert len(res.cex.frames) == len(g.cex.frames), trial
        assert replay_trace(ext, res.cex, agg).valid, trial
        checked += 1
    assert checked >= 10


def test_bmc_counter3_depths():
    c, props = gen_counter(3)
    assert bmc(c, props[1], max_depth=4).cex is None
    res = bmc(c, props[1], max_depth=5)
    assert res.cex is not None and len(res.cex.frames) == 6
    assert res.explored_depth == 5


def test_bmc_respects_constraint_properties():
    # assuming req high makes the threshold unreachable at any depth
    c, props = gen_counter(3)
    res = bmc(c, props[1], constraint_props=[props[0]], max_depth=12)
    assert res.cex is None and not res.timed_out
    assert res.sat_calls == 13


def test_bmc_timeout_flag():
    c, props = gen_counter(16)
    res = bmc(c, props[1], max_depth=100000, timeout_s=0.05)
    assert res.timed_out and res.cex is None


def test_module_level_wrappers_match_model():
    c, props = gen_counter(3)
    assert ExplicitModel(c).brute_check(props, 1, CheckMode.LOCAL).holds
    assert ExplicitModel(c).brute_debug_set(props) == {0}


WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")


def test_oracle_re_derives_the_stored_bench_references(monkeypatch):
    # the bench's random-ja references were written by an earlier oracle;
    # a fixed sample of them must come out the same today
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    jp = types.SimpleNamespace(aiger=japdr.aiger, circuit=japdr.circuit, oracle=japdr.oracle)
    stored = workloads.load_random_refs()
    systems = workloads.random_systems(jp)
    assert len(stored) == len(systems)
    for n in (0, 7, 13, 22, 29):
        circuit, props = systems[n]
        ref = stored[workloads.structure_key(circuit)]
        assert ref["index"] == n
        fresh = workloads.oracle_reference(jp, circuit, props)
        assert fresh == {k: ref[k] for k in ("local_holds", "debug_set")}, n
