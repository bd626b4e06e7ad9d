import fcntl
import random
import threading
import time
import warnings

import pytest

from japdr import clausedb
from japdr.aiger import build_counter, circuit_fingerprint, gen_counter, gen_random_circuit
from japdr.circuit import (
    Circuit,
    Latch,
    Literal,
    TraceFrame,
    eval_transition,
)
from japdr.clausedb import (
    ClauseDbError,
    ClauseRecord,
    append,
    filter_invariant,
    load,
    seeds_for_context,
)
from japdr.pdr import Exhausted, PdrStats, PdrStatus, check_property

from frames import constraints_hold, frame_satisfies

OTHER_FP = "deadbeef" * 8


def test_record_normalizes_on_construction():
    rec = ClauseRecord((5, 1, 4), 0, (2, 1), OTHER_FP)
    assert rec.clause == (1, 4, 5)
    assert rec.context == (1, 2)
    with pytest.raises(ValueError):
        ClauseRecord((), 0, (), OTHER_FP)


def test_save_load_roundtrip_is_byte_stable(tmp_path):
    c, _ = gen_counter(3)
    fp = circuit_fingerprint(c)
    recs = [
        ClauseRecord((0, 3), 1, (0,), fp),
        ClauseRecord((2,), 1, (), fp),
        ClauseRecord((5, 1, 4), 0, (1, 0), OTHER_FP),
    ]
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    append(recs, a)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        here = load(a, fp)
        assert len(caught) == 1  # the foreign section is announced once
    assert [r.clause for r in here] == [(0, 3), (2,)]
    assert here[0].context == (0,) and here[1].context == ()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        foreign = load(a, OTHER_FP)
        assert len(caught) == 1 and "skipped" in str(caught[0].message)
    assert [r.clause for r in foreign] == [(1, 4, 5)]
    append(here + foreign, b)
    assert a.read_bytes() == b.read_bytes()


def test_append_adds_a_section(tmp_path):
    c, _ = gen_counter(3)
    fp = circuit_fingerprint(c)
    path = tmp_path / "db.txt"
    append([ClauseRecord((2,), 1, (), fp)], path)
    append([ClauseRecord((2, 4), 0, (1,), fp)], path)
    recs = load(path, fp)
    assert [r.clause for r in recs] == [(2,), (2, 4)]
    assert recs[1].origin == 0


def torn_store(tmp_path, cut):
    """A store whose last record lost its final `cut` bytes, as a writer
    killed mid-append leaves it."""
    path = tmp_path / "torn.txt"
    append([ClauseRecord((2,), 1, (), "aa")], path)
    append([ClauseRecord((2, 3), 1, (0, 2), "aa"), ClauseRecord((1, 2, 7), 1, (0, 2), "aa")], path)
    data = path.read_bytes()
    assert data.endswith(b"0,2 1 -1 2 -4\n")
    path.write_bytes(data[:-cut])
    return path


@pytest.mark.parametrize("cut", [1, 2, 3, 5, 10, 13])
def test_load_drops_a_torn_last_record_with_a_warning(tmp_path, cut):
    # a shorter clause is a stronger claim, so a cut-short record must
    # never load as one
    path = torn_store(tmp_path, cut)
    with pytest.warns(UserWarning, match="torn last record"):
        recs = load(path, "aa")
    assert [r.clause for r in recs] == [(2,), (2, 3)]


def test_append_after_a_torn_record_starts_a_clean_section(tmp_path):
    path = torn_store(tmp_path, 3)
    append([ClauseRecord((4,), 0, (), "aa")], path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recs = load(path, "aa")
    assert [r.clause for r in recs] == [(2,), (2, 3), (4,)]


def test_append_waits_for_the_writer_holding_the_lock(tmp_path):
    path = tmp_path / "store.txt"
    with open(path, "ab") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        writer = threading.Thread(
            target=append, args=([ClauseRecord((4, 5), 1, (0,), "aa")], path)
        )
        writer.start()
        writer.join(timeout=0.5)
        assert writer.is_alive(), "append wrote while another writer held the lock"
        assert path.read_bytes() == b""
        holder.write(b"japdr-clausedb v1 aa 1\n- 0 1\n")
    # closing the holder released the lock
    writer.join(timeout=10)
    assert not writer.is_alive()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recs = load(path, "aa")
    assert [(r.clause, r.context) for r in recs] == [((0,), ()), ((4, 5), (0,))]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("japdr-clausedb v2 aa 3\n- 0 1\n", "unsupported header"),
        ("japdr-clausedb v1 aa 3\n- 0 1 x\n", "malformed literal"),
        ("japdr-clausedb v1 aa 3\n- 0 9\n", "out of range"),
        ("japdr-clausedb v1 aa x\n- 0 1\n", "bad latch count"),
        ("- 0 1\n", "before any header"),
        ("japdr-clausedb v1 aa 3\n- 0\n", "truncated"),
        ("japdr-clausedb v1 aa 3\n1,q 0 1\n", "bad context"),
        # every number is ASCII digits, a literal after an optional `-`
        ("japdr-clausedb v1 aa 3\n- 0 +1\n", "malformed literal"),
        ("japdr-clausedb v1 aa 3\n- 0 1_0\n", "malformed literal"),
        ("japdr-clausedb v1 aa 3\n0,1_0 0 -1\n", "bad context"),
        ("japdr-clausedb v1 aa 3\n+0 0 1\n", "bad context"),
        ("japdr-clausedb v1 aa 3\n- +0 1\n", "bad origin"),
        ("japdr-clausedb v1 aa +3\n- 0 1\n", "bad latch count"),
        ("japdr-clausedb v1 aa 3\n- 0 1\u00e9\n", "malformed literal"),
    ],
)
def test_parse_errors_name_the_problem(tmp_path, text, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ClauseDbError, match=fragment):
        load(path, "aa")


def test_filter_deletes_counter_non_invariants():
    # the free-running counter visits every value, so no stuck-at clause
    # survives, alone or conjoined
    c, props = gen_counter(3)
    assert filter_invariant([(2,), (0, 2, 4)], c, [props[0]]) == ()


def test_filter_keeps_real_invariants_and_counts_calls():
    # identity-update latches never leave reset, their stuck-at clauses hold
    latches_c = Circuit(
        num_inputs=1,
        latches=[Latch(2, Literal(2), 0), Latch(3, Literal(3), 1)],
        ands=[],
        bads=[],
        constraints=[],
    )
    stats = PdrStats()
    surv = filter_invariant([(1,), (2,)], latches_c, [], stats=stats)
    assert surv == ((1,), (2,))
    assert stats.sat_calls >= 2


def constrained_reachable(circ, ctx_props):
    init = circ.init_state()
    seen = {init}
    stack = [init]
    while stack:
        s = stack.pop()
        for x in range(1 << circ.num_inputs):
            frame = TraceFrame(s, tuple((x >> i) & 1 for i in range(circ.num_inputs)))
            if not constraints_hold(circ, frame):
                continue
            if not frame_satisfies(circ, frame, ctx_props):
                continue
            nxt = eval_transition(circ, frame)
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def test_filter_survivors_hold_on_the_constrained_reach_set():
    """Harvest clauses from local proofs, refilter under rotated contexts,
    walk the constrained system and check every survivor on every state."""
    rng = random.Random(77)
    survivors_total = 0
    for _ in range(40):
        seed = rng.randrange(1 << 30)
        r = random.Random(seed)
        circ, cprops = gen_random_circuit(
            r,
            num_inputs=r.randint(1, 2),
            num_latches=r.randint(3, 6),
            num_gates=r.randint(4, 25),
            num_props=r.randint(2, 3),
            mutate=r.random() < 0.5,
        )
        if r.random() < 0.4:
            circ = Circuit(
                circ.num_inputs, circ.latches, circ.ands, circ.bads,
                (Literal(1 + r.randrange(circ.num_inputs)),),
            )
        for tgt in range(len(cprops)):
            ctx = [p for j, p in enumerate(cprops) if j != tgt]
            out = check_property(circ, cprops[tgt], ctx)
            if out.status is not PdrStatus.HOLDS or not out.invariant:
                continue
            for drop in range(len(ctx) + 1):
                if drop < len(ctx):
                    new_ctx = [p for j, p in enumerate(ctx) if j != drop]
                else:
                    new_ctx = list(cprops)
                surv = filter_invariant(out.invariant, circ, new_ctx)
                survivors_total += len(surv)
                for st in constrained_reachable(circ, new_ctx):
                    for cl in surv:
                        assert any(st[l >> 1] == 1 - (l & 1) for l in cl), (
                            seed, tgt, cl, st)
    assert survivors_total >= 50


def test_filter_deduplicates_preserving_first_position():
    c = Circuit(
        num_inputs=1,
        latches=[Latch(2, Literal(2), 0), Latch(3, Literal(3), 0)],
        ands=[],
        bads=[],
        constraints=[],
    )
    surv = filter_invariant([(1,), (3,), (1,)], c, [])
    assert surv == ((1,), (3,))


def test_seeds_trust_records_whose_context_the_check_covers(monkeypatch):
    # a record certified under C holds on every state reachable while C
    # stays clean, so the check of T under D trusts it whenever
    # C is within D + {T}; only the other records meet the filter
    thr = build_counter(4, thresholds=3)
    c, (p0, p1, _) = thr.circuit, thr.props
    fp = circuit_fingerprint(c)
    filtered = []
    real_filter = clausedb.filter_invariant

    def counting(candidates, *args, **kwargs):
        filtered.append(tuple(candidates))
        return real_filter(candidates, *args, **kwargs)

    monkeypatch.setattr(clausedb, "filter_invariant", counting)
    # none of these clauses is invariant; trust is all that seeds them
    covered = [
        ClauseRecord((1,), 2, (0,), fp),  # the exact context
        ClauseRecord((3,), 2, (0, 1), fp),  # names the target
        ClauseRecord((5,), 0, (), fp),  # a global proof
        ClauseRecord((0,), 2, (0, 1), fp),  # trusted, but false at reset
    ]
    assert seeds_for_context(covered, c, fp, p1, [p0]) == ((1,), (3,), (5,))
    assert filtered == []
    outside = ClauseRecord((7,), 1, (0, 2), fp)  # p2 is neither assumed nor the target
    seeds = seeds_for_context([*covered, outside], c, fp, p1, [p0])
    assert filtered == [((7,),)]
    assert seeds == ((1,), (3,), (5,))  # the filter drops (7,)


def test_seeds_skip_foreign_fingerprints():
    c4, props4 = gen_counter(4)
    fp = circuit_fingerprint(c4)
    rec = ClauseRecord((1,), 1, (0,), OTHER_FP)
    assert seeds_for_context([rec], c4, fp, props4[1], [props4[0]]) == ()


def test_filter_deadline_is_a_hard_error():
    # stopping the fixpoint early could hand back non-invariants, so the
    # filter refuses to answer at all
    c4, props4 = gen_counter(4)
    with pytest.raises(Exhausted, match="budget"):
        filter_invariant(
            [(1,), (3,)], c4, [props4[0]], stats=PdrStats(deadline=time.monotonic() - 1)
        )
