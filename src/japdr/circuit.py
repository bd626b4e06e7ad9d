"""Core model: and-inverter circuits, properties, traces, and their semantics.

A circuit is a flat AIG over densely numbered variables: 0 is the constant,
then inputs, then latches, then AND gate outputs in topological order.
Property satisfaction is defined over *frames* (a latch valuation plus an
input valuation), because bad literals may read inputs.

Every simulation runs over the circuit's flat gate table. `simulate` is
the one bit-parallel walk: each value is a Python int, one frame per bit,
so it serves the exact evaluation of one frame, `first_failures` (a
random simulation from reset that finds the shallow failures before any
solver is built) and the oracle's tabulation of every frame. The ternary
reset values (0, 1 or X with every input X) walk the table on their own.
The table and the reset values are found on first use and kept on the
circuit, so they live and die with it.
"""

from __future__ import annotations

import enum
import functools
import random
from collections.abc import Iterator
from dataclasses import dataclass

SIM_LANES = 256  # lanes of one `first_failures` run, one bit each
SIM_FRAMES = 8  # frames it simulates from reset at most


@dataclass(frozen=True, order=True)
class Literal:
    """A possibly negated variable. var 0 is the constant:
    Literal(0) is TRUE, Literal(0, negated=True) is FALSE."""

    var: int
    negated: bool = False

    def __invert__(self) -> "Literal":
        return Literal(self.var, not self.negated)

    def __repr__(self) -> str:
        return f"{'~' if self.negated else ''}v{self.var}"


TRUE = Literal(0)
FALSE = Literal(0, True)


@dataclass(frozen=True)
class Latch:
    """State element: next-state function as a literal, reset value 0 or 1."""

    var: int
    next: Literal
    init: int = 0


@dataclass(frozen=True)
class AndGate:
    out: int
    left: Literal
    right: Literal


class PropertyKind(enum.Enum):
    ETH = "eth"  # expected to hold
    ETF = "etf"  # expected to fail


@dataclass(frozen=True)
class PropertySpec:
    """One safety property: the bad literal is true on a violating frame."""

    index: int
    bad: Literal
    kind: PropertyKind = PropertyKind.ETH


@dataclass(frozen=True)
class TraceFrame:
    """One step of a trace: latch values plus the inputs applied there."""

    latch_values: tuple[int, ...]
    input_values: tuple[int, ...]


@dataclass(frozen=True)
class Counterexample:
    frames: tuple[TraceFrame, ...]
    violated_property: int

    def __post_init__(self):
        if not self.frames:
            raise ValueError("counterexample needs at least one frame")

    @property
    def depth(self) -> int:
        """Number of transitions (frames minus one)."""
        return len(self.frames) - 1


@dataclass(frozen=True)
class Circuit:
    """Immutable AIG with bad and constraint literals.

    Variables are dense: 1..num_inputs are inputs, the next block are
    latches, then AND outputs; gates only reference earlier variables.
    """

    num_inputs: int
    latches: tuple[Latch, ...]
    ands: tuple[AndGate, ...]
    bads: tuple[Literal, ...] = ()
    constraints: tuple[Literal, ...] = ()

    def __post_init__(self):
        n = 1 + self.num_inputs
        for pos, latch in enumerate(self.latches):
            if latch.var != n + pos:
                raise ValueError(f"latch {pos} must use var {n + pos}, got {latch.var}")
            if latch.init not in (0, 1):
                raise ValueError(f"latch {pos} init must be 0 or 1, got {latch.init!r}")
        n += len(self.latches)
        for pos, gate in enumerate(self.ands):
            if gate.out != n + pos:
                raise ValueError(f"gate {pos} must define var {n + pos}, got {gate.out}")
            for operand in (gate.left, gate.right):
                if not 0 <= operand.var < gate.out:
                    raise ValueError(f"gate {gate.out} reads later var {operand.var}")
        total = n + len(self.ands)
        for lit in (*self.bads, *self.constraints, *(l.next for l in self.latches)):
            if not 0 <= lit.var < total:
                raise ValueError(f"literal {lit} references undefined var")

    @property
    def num_latches(self) -> int:
        return len(self.latches)

    @property
    def num_vars(self) -> int:
        return 1 + self.num_inputs + len(self.latches) + len(self.ands)

    @property
    def input_vars(self) -> range:
        return range(1, 1 + self.num_inputs)

    @property
    def latch_vars(self) -> range:
        base = 1 + self.num_inputs
        return range(base, base + len(self.latches))

    def init_state(self) -> tuple[int, ...]:
        return tuple(l.init for l in self.latches)

    @functools.cached_property
    def gate_table(self) -> tuple[tuple[int, int, int, int], ...]:
        """(left var, left mask, right var, right mask) per gate; a mask is
        -1 on a negated operand, else 0, so `(v[l] ^ lm) & (v[r] ^ rm)` is
        the gate in every bit of its operands' values at once."""
        return tuple(
            (g.left.var, -g.left.negated, g.right.var, -g.right.negated)
            for g in self.ands
        )

    @functools.cached_property
    def reset_values(self) -> tuple[int | None, ...]:
        """Each variable's value in the reset state: 0 or 1, or None (X)
        where ternary simulation with every input X cannot tell. Run as
        -1, 0 and 1 for 0, X and 1, so negation is a sign flip and AND
        the minimum."""
        vals = [1, *[0] * self.num_inputs, *(2 * l.init - 1 for l in self.latches)]
        for left, lm, right, rm in self.gate_table:
            vals.append(min(vals[left] * (lm | 1), vals[right] * (rm | 1)))
        return tuple(None if v == 0 else (v + 1) >> 1 for v in vals)

    @functools.cached_property
    def ite_gates(self) -> dict[int, tuple[Literal, Literal, Literal]]:
        """Each gate in mux form, g = ~(x & y) & ~(~x & z), mapped to the
        (x, y, z) with ~g = ITE(x, y, z); XOR is the case z = ~y. The
        builder's `xor` and `mux` emit this shape. Found on first use and
        kept on the circuit, so it lives and dies with it."""
        first_gate = 1 + self.num_inputs + len(self.latches)
        ands = self.ands
        found = {}
        for gate in ands:
            left, right = gate.left, gate.right
            if not (left.negated and right.negated) or left.var == right.var:
                continue
            if left.var < first_gate or right.var < first_gate:
                continue
            g1, g2 = ands[left.var - first_gate], ands[right.var - first_gate]
            for x, y in ((g1.left, g1.right), (g1.right, g1.left)):
                if g2.left == ~x:
                    found[gate.out] = (x, y, g2.right)
                    break
                if g2.right == ~x:
                    found[gate.out] = (x, y, g2.left)
                    break
        return found


def eval_literal(values, lit: Literal) -> int:
    return values[lit.var] ^ int(lit.negated)


def simulate(circuit: Circuit, inputs, latches, full: int) -> list[int]:
    """Every variable's value in the lanes of `full`, indexed by variable:
    bit i of each input and latch value is lane i, so one walk over the
    gate table evaluates as many frames as `full` has bits."""
    vals = [full, *(v & full for v in inputs), *(v & full for v in latches)]
    for left, lm, right, rm in circuit.gate_table:
        vals.append((vals[left] ^ lm) & (vals[right] ^ rm) & full)
    return vals


def eval_circuit(circuit: Circuit, frame: TraceFrame) -> list[int]:
    """Evaluate every variable under one frame; index result by variable."""
    shape = len(frame.latch_values), len(frame.input_values)
    if shape != (circuit.num_latches, circuit.num_inputs):
        raise ValueError(
            f"frame has {shape[0]} latch and {shape[1]} input values, circuit has "
            f"{circuit.num_latches} and {circuit.num_inputs}"
        )
    return simulate(circuit, frame.input_values, frame.latch_values, 1)


def eval_transition(circuit: Circuit, frame: TraceFrame) -> tuple[int, ...]:
    """Next latch values reached from `frame`."""
    values = eval_circuit(circuit, frame)
    return tuple(eval_literal(values, l.next) for l in circuit.latches)


def property_violated(circuit: Circuit, frame: TraceFrame, prop: PropertySpec) -> bool:
    return bool(eval_literal(eval_circuit(circuit, frame), prop.bad))


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of simulating a counterexample against the circuit."""

    initialized: bool
    transitions_consistent: bool
    final_violates_target: bool
    violated_constraints: tuple[tuple[int, int], ...]  # (frame index, property index)
    circuit_constraints_ok: bool

    @property
    def valid(self) -> bool:
        return (
            self.initialized
            and self.transitions_consistent
            and self.final_violates_target
            and self.circuit_constraints_ok
        )

    @property
    def spurious(self) -> bool:
        """Valid trace that breaks a constraint property before the final frame."""
        return self.valid and bool(self.violated_constraints)


def replay_trace(
    circuit: Circuit,
    cex: Counterexample,
    target: PropertySpec,
    constraint_props=(),
) -> ReplayResult:
    """Re-simulate a counterexample and report exactly what it establishes.

    Constraint properties and the AIGER constraint section are checked on
    every frame but the last; the final frame only needs to violate the
    target.
    """
    frames = cex.frames
    earlier = [eval_circuit(circuit, frame) for frame in frames[:-1]]
    steps = [tuple(eval_literal(v, l.next) for l in circuit.latches) for v in earlier]
    return ReplayResult(
        initialized=tuple(frames[0].latch_values) == circuit.init_state(),
        transitions_consistent=all(
            step == tuple(f.latch_values) for step, f in zip(steps, frames[1:])
        ),
        final_violates_target=property_violated(circuit, frames[-1], target),
        violated_constraints=tuple(
            (i, p.index)
            for i, v in enumerate(earlier)
            for p in constraint_props
            if eval_literal(v, p.bad)
        ),
        circuit_constraints_ok=all(
            eval_literal(v, c) for v in earlier for c in circuit.constraints
        ),
    )


def first_failures(circuit: Circuit, assumed, targets) -> Iterator[dict[int, Counterexample]]:
    """Random simulation from reset: `SIM_LANES` runs at once, one per bit
    of every value, over at most `SIM_FRAMES` frames of inputs from a
    PRNG of fixed seed, so every run finds the same traces. A lane stays
    alive while the constraint section holds and no `assumed` bad fires.
    A target is found on the first frame its bad fires in a lane alive
    until then, with that lane's frames from reset as its trace. Yields
    the traces found so far, by target index, before each frame and once
    at the end, so the caller can stop it between frames; the last dict
    is the result."""
    rng, full = random.Random(0), (1 << SIM_LANES) - 1
    state = [-l.init & full for l in circuit.latches]
    alive, left, trail, found = full, list(targets), [], {}
    for _ in range(SIM_FRAMES):
        if not (alive and left):
            break
        yield found
        inputs = [rng.getrandbits(SIM_LANES) for _ in range(circuit.num_inputs)]
        trail.append((state, inputs))
        vals = simulate(circuit, inputs, state, full)

        def lanes(lit):  # the lanes still alive, as of the call, where lit is 1
            return (vals[lit.var] ^ -lit.negated) & alive

        for p in left:
            if hit := lanes(p.bad):
                lane = (hit & -hit).bit_length() - 1
                frames = [[tuple(v >> lane & 1 for v in vs) for vs in f] for f in trail]
                found[p.index] = Counterexample(tuple(TraceFrame(*f) for f in frames), p.index)
        left = [p for p in left if p.index not in found]
        for c in circuit.constraints:
            alive = lanes(c)
        for p in assumed:
            alive &= ~lanes(p.bad)
        state = [lanes(l.next) for l in circuit.latches]  # dead lanes read 0
    yield found


class CircuitBuilder:
    """Mutable helper for constructing dense circuits gate by gate."""

    def __init__(self, num_inputs: int, num_latches: int, init=None):
        self.num_inputs = num_inputs
        self.num_latches = num_latches
        self._init = list(init) if init is not None else [0] * num_latches
        self._next: list[Literal | None] = [None] * num_latches
        self._gates: list[tuple[Literal, Literal]] = []
        self.bads: list[Literal] = []
        self.constraints: list[Literal] = []

    def input_lit(self, pos: int) -> Literal:
        if not 0 <= pos < self.num_inputs:
            raise IndexError(pos)
        return Literal(1 + pos)

    def latch_lit(self, pos: int) -> Literal:
        if not 0 <= pos < self.num_latches:
            raise IndexError(pos)
        return Literal(1 + self.num_inputs + pos)

    def and_(self, a: Literal, b: Literal) -> Literal:
        # constant folding keeps generated circuits small
        if a == FALSE or b == FALSE or a == ~b:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE or a == b:
            return a
        self._gates.append((a, b))
        return Literal(1 + self.num_inputs + self.num_latches + len(self._gates) - 1)

    def or_(self, a: Literal, b: Literal) -> Literal:
        return ~self.and_(~a, ~b)

    def xor(self, a: Literal, b: Literal) -> Literal:
        return self.or_(self.and_(a, ~b), self.and_(~a, b))

    def mux(self, sel: Literal, when_true: Literal, when_false: Literal) -> Literal:
        return self.or_(self.and_(sel, when_true), self.and_(~sel, when_false))

    def conj(self, lits) -> Literal:
        out = TRUE
        for lit in lits:
            out = self.and_(out, lit)
        return out

    def set_next(self, pos: int, lit: Literal) -> None:
        self._next[pos] = lit

    def build(self) -> Circuit:
        missing = [i for i, n in enumerate(self._next) if n is None]
        if missing:
            raise ValueError(f"latches without next-state function: {missing}")
        base = 1 + self.num_inputs
        latches = tuple(
            Latch(base + i, self._next[i], self._init[i]) for i in range(self.num_latches)
        )
        gate_base = base + self.num_latches
        ands = tuple(
            AndGate(gate_base + i, a, b) for i, (a, b) in enumerate(self._gates)
        )
        return Circuit(
            self.num_inputs,
            latches,
            ands,
            tuple(self.bads),
            tuple(self.constraints),
        )
