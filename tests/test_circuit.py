import dataclasses
import random

import pytest

from japdr.aiger import gen_counter, gen_random_circuit
from japdr.circuit import (
    FALSE,
    TRUE,
    AndGate,
    Circuit,
    CircuitBuilder,
    Counterexample,
    Latch,
    Literal,
    PropertyKind,
    PropertySpec,
    TraceFrame,
    eval_circuit,
    eval_literal,
    eval_transition,
    first_failures,
    property_violated,
    replay_trace,
    simulate,
)

from frames import constraints_hold, frame_satisfies


def frame(latches, inputs):
    return TraceFrame(tuple(latches), tuple(inputs))


def test_literal_constants():
    assert eval_literal([1], TRUE) == 1
    assert eval_literal([1], FALSE) == 0
    assert ~~Literal(3) == Literal(3)


def test_circuit_validation_rejects_misnumbered_latch():
    with pytest.raises(ValueError, match="latch 0 must use var"):
        Circuit(1, (Latch(5, TRUE),), ())


def test_circuit_validation_rejects_forward_gate_reference():
    # gate reading a var defined later in the dense order
    with pytest.raises(ValueError, match="reads later var"):
        Circuit(1, (), (AndGate(2, Literal(3), Literal(1)),))


def test_circuit_validation_rejects_bad_init():
    with pytest.raises(ValueError, match="init must be 0 or 1"):
        Circuit(0, (Latch(1, TRUE, init=2),), ())


def test_counter3_transition_table():
    c, _ = gen_counter(3)
    # enable=0 holds the value
    assert eval_transition(c, frame((1, 0, 1), (0, 1))) == (1, 0, 1)
    # enable=1 increments, LSB first
    assert eval_transition(c, frame((0, 0, 0), (1, 1))) == (1, 0, 0)
    assert eval_transition(c, frame((1, 1, 0), (1, 0))) == (0, 0, 1)
    # val == rval == 4 with req resets, without req runs on
    assert eval_transition(c, frame((0, 0, 1), (1, 1))) == (0, 0, 0)
    assert eval_transition(c, frame((0, 0, 1), (1, 0))) == (1, 0, 1)


def test_counter3_property_meaning():
    c, props = gen_counter(3)
    assert property_violated(c, frame((0, 0, 0), (1, 0)), props[0])  # req low
    assert not property_violated(c, frame((0, 0, 0), (1, 1)), props[0])
    assert property_violated(c, frame((1, 0, 1), (0, 0)), props[1])  # val=5
    assert not property_violated(c, frame((0, 0, 1), (0, 0)), props[1])  # val=4


def test_frame_satisfies_and_constraints():
    c, props = gen_counter(3)
    f = frame((0, 0, 0), (1, 1))
    assert frame_satisfies(c, f, props)
    assert not frame_satisfies(c, f, [PropertySpec(2, TRUE)])
    assert constraints_hold(c, f)  # counter has no constraint section
    constrained = Circuit(c.num_inputs, c.latches, c.ands, c.bads, (Literal(2),))
    assert constraints_hold(constrained, frame((0, 0, 0), (0, 1)))
    assert not constraints_hold(constrained, frame((0, 0, 0), (0, 0)))


def test_counterexample_depth():
    cx = Counterexample((frame((0,), (1,)), frame((1,), (0,))), 0)
    assert cx.depth == 1
    with pytest.raises(ValueError):
        Counterexample((), 0)


def test_replay_classifies_valid_trace():
    c, props = gen_counter(3)
    cx = Counterexample((frame((0, 0, 0), (1, 0)),), 0)
    rep = replay_trace(c, cx, props[0], [props[1]])
    assert rep.valid and not rep.spurious


def test_replay_flags_bad_init_and_bad_step():
    c, props = gen_counter(3)
    wrong_init = Counterexample((frame((1, 0, 0), (1, 0)),), 0)
    assert not replay_trace(c, wrong_init, props[0]).initialized
    broken = Counterexample(
        (frame((0, 0, 0), (1, 1)), frame((0, 1, 0), (1, 0))), 0
    )
    assert not replay_trace(c, broken, props[0]).transitions_consistent


def test_replay_flags_spurious_constraint_violation():
    c, props = gen_counter(3)
    # two steps with req low: final violates P1? no; use target P0 and make
    # the middle frame violate P1 via val=5 -- not reachable; instead check
    # the constraint-prop scan directly with a crafted pair
    cx = Counterexample(
        (frame((0, 0, 0), (1, 0)), frame((1, 0, 0), (1, 0))), 0
    )
    rep = replay_trace(c, cx, props[0], [props[0]])
    # the non-final frame violates the assumed property (req low there)
    assert rep.valid and rep.spurious
    assert rep.violated_constraints == ((0, 0),)


def test_replay_rejects_a_constraint_section_broken_before_the_end():
    # the constraint section pins enable high on every frame but the last
    base, _ = gen_counter(3)
    c = dataclasses.replace(base, constraints=(Literal(1),))
    always = PropertySpec(9, TRUE)
    for enable, valid in ((1, True), (0, False)):
        first = frame((0, 0, 0), (enable, 1))
        last = frame(eval_transition(c, first), (0, 0))
        rep = replay_trace(c, Counterexample((first, last), 9), always)
        assert rep.initialized and rep.transitions_consistent
        assert rep.final_violates_target
        assert rep.valid is valid


def test_builder_constant_folding():
    b = CircuitBuilder(num_inputs=1, num_latches=1)
    x = b.input_lit(0)
    assert b.and_(x, TRUE) == x
    assert b.and_(x, FALSE) == FALSE
    assert b.and_(x, ~x) == FALSE
    assert b.and_(x, x) == x


def test_builder_round_trip_semantics():
    rng = random.Random(7)
    for _ in range(40):
        rr = random.Random(rng.randrange(1 << 30))
        c, _ = gen_random_circuit(rr, num_inputs=2, num_latches=3, num_gates=10,
                                  num_props=1)
        f = frame([rr.randint(0, 1) for _ in range(3)],
                  [rr.randint(0, 1) for _ in range(2)])
        values = eval_circuit(c, f)
        assert values[0] == 1
        for gate in c.ands:
            assert values[gate.out] == (
                eval_literal(values, gate.left) & eval_literal(values, gate.right)
            )


def test_property_kind_defaults_to_eth():
    assert PropertySpec(0, TRUE).kind is PropertyKind.ETH


def test_reset_values_are_ternary_with_every_input_x():
    b = CircuitBuilder(1, 2, init=[0, 1])
    x, lo, hi = b.input_lit(0), b.latch_lit(0), b.latch_lit(1)
    gates = [b.and_(lo, x), b.and_(hi, x), b.and_(~lo, hi), b.and_(x, b.and_(~x, hi))]
    b.set_next(0, hi)
    b.set_next(1, lo)
    values = b.build().reset_values
    assert values[:4] == (1, None, 0, 1)  # constant, input, latches
    # x & ~x & hi is 0 for every input, yet ternary simulation reads X
    assert [values[g.var] for g in gates] == [0, None, 1, None]


def test_the_gate_table_evaluates_every_lane_at_once():
    rng = random.Random(3)
    c, _ = gen_random_circuit(rng, num_inputs=2, num_latches=4, num_gates=30, num_props=1)
    frames = [frame([rng.randint(0, 1) for _ in range(4)], [rng.randint(0, 1) for _ in range(2)])
              for _ in range(16)]
    def lanes(column):
        return sum(bit << j for j, bit in enumerate(column))

    inputs = [lanes(column) for column in zip(*(f.input_values for f in frames))]
    latches = [lanes(column) for column in zip(*(f.latch_values for f in frames))]
    vals = simulate(c, inputs, latches, (1 << 16) - 1)
    assert all(0 <= v < 1 << 16 for v in vals)  # no lane outside `full`
    for j, f in enumerate(frames):
        assert [v >> j & 1 for v in vals] == eval_circuit(c, f)


def test_simulation_keeps_assumed_bads_and_constraints_clean_before_the_end():
    c, props = gen_counter(3)
    # P1 overflows at depth 5 only if req is low once the counter reaches 4
    *_, found = first_failures(c, [], [props[1]])
    assert found[1].depth == 5
    assert replay_trace(c, found[1], props[1]).valid
    *_, found = first_failures(c, props, props)
    assert set(found) == {0}  # with req assumed high, P1 never fires
    # a latch that remembers req was low: its bad fires only one frame
    # after a frame the constraint req = 1 rules out, so never in a live lane
    for constrained in (False, True):
        b = CircuitBuilder(1, 1)
        b.set_next(0, ~b.input_lit(0))
        b.constraints = [b.input_lit(0)] if constrained else []
        c = b.build()
        *_, found = first_failures(c, [], [PropertySpec(0, b.latch_lit(0))])
        assert (found[0].depth if found else None) == (None if constrained else 1)
