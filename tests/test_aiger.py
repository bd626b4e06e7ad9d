import hashlib
import random

import pytest

from japdr.aiger import (
    AigerError,
    build_counter,
    circuit_fingerprint,
    emit_ascii,
    emit_binary,
    emit_witness,
    gen_counter,
    gen_random_circuit,
    parse,
)
from japdr.circuit import (
    FALSE,
    TRUE,
    Counterexample,
    PropertyKind,
    TraceFrame,
    eval_transition,
    property_violated,
)
from japdr.oracle import bmc
from japdr.orchestrator import Mode, VerdictStatus as S, VerificationTask, run


def random_circuit(seed, **kw):
    rr = random.Random(seed)
    return gen_random_circuit(rr, **kw)


def simulate(circuit, input_seqs):
    """Latch trajectories under each input sequence; the equivalence
    yardstick for roundtrips."""
    out = []
    for seq in input_seqs:
        state = circuit.init_state()
        trace = [state]
        for inputs in seq:
            state = eval_transition(circuit, TraceFrame(state, inputs))
            trace.append(state)
        out.append(trace)
    return out


def random_inputs(rng, num_inputs, steps, count):
    return [
        [tuple(rng.randint(0, 1) for _ in range(num_inputs)) for _ in range(steps)]
        for _ in range(count)
    ]


def bad_values(circuit, props, frames):
    return [
        [property_violated(circuit, TraceFrame(s, x), p) for p in props]
        for (s, x) in frames
    ]


def test_ascii_roundtrip_counter():
    c, props = gen_counter(3)
    c2, props2 = parse(emit_ascii(c))
    assert c2.num_latches == 3 and c2.num_inputs == 2 and len(c2.bads) == 2
    assert [p.index for p in props2] == [0, 1]
    assert circuit_fingerprint(c) == circuit_fingerprint(c2)


def test_roundtrip_simulation_equivalence_both_formats():
    rng = random.Random(11)
    for _ in range(25):
        seed = rng.randrange(1 << 30)
        c, props = random_circuit(seed, num_inputs=3, num_latches=5, num_gates=12,
                                  num_props=2)
        seqs = random_inputs(rng, 3, 6, 4)
        want = simulate(c, seqs)
        for data in (emit_ascii(c), emit_binary(c)):
            c2, props2 = parse(data)
            assert len(props2) == len(props), seed
            assert simulate(c2, seqs) == want, seed
            # bad literals agree on sampled frames too
            for seq, trace in zip(seqs, want):
                frames = list(zip(trace[:-1], seq))
                assert bad_values(c, props, frames) == bad_values(c2, props2, frames), seed


def test_counter_structural_counts():
    for k in (2, 3, 8):
        c, props = gen_counter(k)
        assert c.num_latches == k
        assert c.num_inputs == 2
        assert len(c.bads) == 2
        assert len(props) == 2
        assert c.init_state() == (0,) * k


def test_thresholds_family_shape():
    built = build_counter(6, thresholds=10)
    assert len(built.circuit.bads) == 10
    assert len(built.circuit.constraints) == 1  # req pinned high
    with pytest.raises(ValueError, match="thresholds exceed"):
        build_counter(4, thresholds=9)
    with pytest.raises(ValueError, match="at least 2 bits"):
        build_counter(1)


def test_counter3_shortest_global_cex_is_five():
    c, props = gen_counter(3)
    assert bmc(c, props[1], max_depth=4).cex is None
    found = bmc(c, props[1], max_depth=5).cex
    assert found is not None and found.depth == 5


def test_empty_circuit():
    c, props = parse(b"aag 0 0 0 0 0\n")
    assert c.num_latches == 0 and c.num_inputs == 0 and props == []


def test_outputs_become_bads_without_b_section():
    c, props = gen_counter(3)
    text = emit_ascii(c).decode().splitlines()
    # rewrite the header to declare the bads as plain outputs
    head = text[0].split()
    n_bads = int(head[6])
    head[4] = str(n_bads)
    rewritten = " ".join(head[:6]) + "\n" + "\n".join(text[1:]) + "\n"
    c2, props2 = parse(rewritten.encode())
    assert len(props2) == 2
    assert all(p.kind is PropertyKind.ETH for p in props2)


def test_constants_as_operand_next_state_and_bad():
    # 0 and 1 are the constants: the latch's next state is 1, the gate
    # reads 1 as an operand, and bad 0 can never fire
    data = b"aag 3 1 1 0 1 2\n2\n4 1 0\n0\n6\n6 4 1\n"
    c, props = parse(data)
    assert props[0].bad == FALSE and c.latches[0].next == TRUE and c.ands[0].right == TRUE
    trace = simulate(c, [[(0,), (0,)]])[0]
    assert trace == [(0,), (1,), (1,)]
    frames = list(zip(trace[:-1], [(0,), (1,)]))
    assert bad_values(c, props, frames) == [[False, False], [False, True]]
    rep = run(VerificationTask(c, tuple(props), Mode.SEPARATE_GLOBAL))
    assert [v.status for v in rep.verdicts] == [S.HOLDS_GLOBAL, S.FAILS_GLOBAL]
    for emit in (emit_ascii, emit_binary):
        c2, props2 = parse(emit(c))
        assert emit_ascii(c2) == emit_ascii(c) and len(props2) == 2


def test_binary_latch_row_may_omit_its_reset_value():
    c, props = parse(b"aig 1 0 1 0 0 1\n3\n2\n")
    assert c.init_state() == (0,) and len(props) == 1
    assert simulate(c, [[(), (), ()]])[0] == [(0,), (1,), (0,), (1,)]
    assert parse(emit_binary(c))[0].init_state() == (0,)
    assert emit_binary(parse(emit_binary(c))[0]) == emit_binary(c)


def test_parse_rejects_garbage_header():
    with pytest.raises(AigerError, match="header"):
        parse(b"not an aiger file\n")


def test_parse_rejects_justice_sections():
    with pytest.raises(AigerError, match="justice/fairness"):
        parse(b"aag 1 1 0 0 0 0 0 1\n2\n")


def test_parse_rejects_nonmonotone_binary_delta():
    c, _ = gen_counter(3)
    data = bytearray(emit_binary(c))
    # corrupt the delta stream badly enough to break monotonicity
    data[-1] = 0xFF
    data.extend(b"\xff\xff\xff\xff\xff")
    with pytest.raises(AigerError):
        parse(bytes(data))


MALFORMED = {
    # header
    "no header newline": b"aag 1 1 0 0 0",
    "unknown magic": b"aig2 1 1 0 0 0\n",
    "four count fields": b"aag 1 1 0 0\n2\n",
    "ten count fields": b"aag 1 1 0 0 0 0 0 0 0 0\n2\n",
    "non-numeric count": b"aag 1 x 0 0 0\n2\n",
    "negative count": b"aag 1 -1 0 0 0\n",
    "fairness section": b"aag 1 1 0 0 0 0 0 0 1\n2\n",
    "binary M above I+L+A": b"aig 2 1 0 0 0\n",
    "binary M below I+L+A": b"aig 0 1 0 0 0\n",
    "ascii M below I+L+A": b"aag 1 2 0 0 0\n2\n4\n",
    # defined literals
    "odd input": b"aag 1 1 0 0 0\n3\n",
    "zero input": b"aag 1 1 0 0 0\n0\n",
    "odd latch": b"aag 1 0 1 0 0\n3 2 0\n",
    "zero latch": b"aag 1 0 1 0 0\n0 2 0\n",
    "odd gate output": b"aag 2 1 0 0 1\n2\n5 2 2\n",
    "zero gate output": b"aag 2 1 0 0 1\n2\n0 2 2\n",
    "input above M": b"aag 1 1 0 0 0\n8\n",
    "gate above M": b"aag 2 1 0 0 1\n2\n40 2 3\n",
    # row shapes and values
    "two fields on an input row": b"aag 1 1 0 0 0\n2 2\n",
    "non-numeric input": b"aag 1 1 0 0 0\nx\n",
    "negative output": b"aag 1 1 0 1 0\n2\n-2\n",
    "signed input": b"aag 1 1 0 0 0\n+2\n",
    "underscored input": b"aag 1 1 0 0 0\n1_0\n",
    "signed count": b"aag 1 +1 0 0 0\n2\n",
    "ascii latch with one field": b"aag 1 0 1 0 0\n2\n",
    "ascii latch with four fields": b"aag 1 0 1 0 0\n2 2 0 0\n",
    "binary latch with no field": b"aig 1 0 1 0 0\n\n",
    "binary latch with three fields": b"aig 1 0 1 0 0\n2 0 0\n",
    "ascii gate with two fields": b"aag 2 1 0 0 1\n2\n4 2\n",
    "ascii gate with four fields": b"aag 2 1 0 0 1\n2\n4 2 2 2\n",
    # resets
    "ascii X reset": b"aag 1 0 1 0 0\n2 2 2\n",
    "binary X reset": b"aig 1 0 1 0 0\n2 2\n",
    "ascii init 3": b"aag 1 0 1 0 0\n2 2 3\n",
    "binary init 3": b"aig 1 0 1 0 0\n2 3\n",
    # definitions
    "input defined twice": b"aag 2 2 0 0 0\n2\n2\n",
    "latch redefines input": b"aag 2 1 1 0 0\n2\n2 2 0\n",
    "gate redefines latch": b"aag 2 0 1 0 1\n2 2 0\n2 3 3\n",
    "gate defined twice": b"aag 3 1 0 0 2\n2\n4 2 2\n4 3 3\n",
    "undefined latch next": b"aag 1 0 1 0 0\n2 4 0\n",
    "undefined output, pre-1.9": b"aag 1 1 0 1 0\n2\n4\n",
    "undefined output, 1.9": b"aag 1 1 0 1 0 0\n2\n4\n",
    "undefined bad": b"aag 1 1 0 0 0 1\n2\n4\n",
    "undefined constraint": b"aag 1 1 0 0 0 0 1\n2\n4\n",
    "undefined gate operand": b"aag 2 1 0 0 1\n2\n4 2 6\n",
    "binary undefined bad": b"aig 1 1 0 0 0 1\n4\n",
    "self-cyclic gate": b"aag 1 0 0 0 1\n2 2 2\n",
    "cyclic gate pair": b"aag 2 0 0 0 2\n2 4 4\n4 2 2\n",
    # cut short
    "ascii input missing": b"aag 2 2 0 0 0\n2",
    "ascii empty input row": b"aag 1 1 0 0 0\n",
    "ascii gate missing": b"aag 2 1 0 0 1\n2\n",
    "binary latch row without newline": b"aig 1 0 1 0 0\n2",
    "binary latch row missing": b"aig 1 0 1 0 0\n",
    "binary bad row missing": b"aig 1 1 0 0 0 1\n",
    # delta stream
    "no delta bytes": b"aig 1 0 0 0 1\n",
    "one delta only": b"aig 1 0 0 0 1\n\x02",
    "delta cut mid-number": b"aig 1 0 0 0 1\n\x82",
    "zero first delta": b"aig 1 0 0 0 1\n\x00\x00",
    "first operand below zero": b"aig 1 0 0 0 1\n\x05\x00",
    "second operand below zero": b"aig 1 0 0 0 1\n\x01\x05",
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_parse_rejects_malformed(data):
    with pytest.raises(AigerError):
        parse(data)


def test_ascii_last_line_may_lack_its_newline():
    c, props = parse(b"aag 2 1 0 0 1 1\n2\n4\n4 2 3")
    assert c.num_inputs == 1 and len(c.ands) == 1 and len(props) == 1


# sha256 of the emitted bytes; the clause store fingerprints the ASCII form
# and the bench feeds the binary form to the checker
GOLDEN = {
    "counter3": (
        lambda: gen_counter(3)[0],
        "1e1557f097518f0855b2b3d0d6fb3ed12a7d527b942014c4bffdabe0b1990a08",
        "952d07ca7ca54fd60c470146239994d0b6a89633f29b84bdf41a1d293867714f",
    ),
    "thresholds6x4": (
        lambda: build_counter(6, thresholds=4).circuit,
        "c7462528c0c63a11b3bd983bce2d081755021a573c331aa73f80591ae5d0473d",
        "bf29c80e853175dba9ffb33c453b85dac448073572f88fe92b5378ed890949a9",
    ),
    "random1-mutated": (
        lambda: random_circuit(1, mutate=True)[0],
        "a07a18824100e07912808d37a31f7bd9f8cc77bc04c1fd8737580892863a2622",
        "5f8f952d7cecd70323a0fb41183fa3a0672c7533909a5d9ca3ba8ab81154fa6f",
    ),
}


@pytest.mark.parametrize("make, ascii_sha, binary_sha", GOLDEN.values(), ids=GOLDEN.keys())
def test_emitted_bytes_are_golden(make, ascii_sha, binary_sha):
    circuit = make()
    assert hashlib.sha256(emit_ascii(circuit)).hexdigest() == ascii_sha
    assert hashlib.sha256(emit_binary(circuit)).hexdigest() == binary_sha
    assert parse(emit_ascii(circuit))[0] == circuit


def test_witness_bytes_exact():
    c, props = gen_counter(3)
    cx = Counterexample((TraceFrame((0, 0, 0), (1, 0)),), 0)
    assert emit_witness(0, cx, "sat") == b"1\nb0\n000\n10\n.\n"
    assert emit_witness(1, None, "unsat") == b"0\nb1\n"
    assert emit_witness(1, None, "unknown") == b"2\nb1\n"


def test_random_generator_reproducible():
    c1, _ = random_circuit(123, num_latches=4, num_gates=9, num_props=2)
    c2, _ = random_circuit(123, num_latches=4, num_gates=9, num_props=2)
    assert circuit_fingerprint(c1) == circuit_fingerprint(c2)


def test_mutation_changes_behavior_sometimes():
    rng = random.Random(3)
    changed = 0
    for _ in range(30):
        seed = rng.randrange(1 << 30)
        plain, _ = random_circuit(seed, num_latches=4, num_gates=9, num_props=2)
        r2 = random.Random(seed)
        mutated, _ = gen_random_circuit(r2, num_latches=4, num_gates=9,
                                        num_props=2, mutate=True)
        if circuit_fingerprint(plain) != circuit_fingerprint(mutated):
            changed += 1
    assert changed > 10
