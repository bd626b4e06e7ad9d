"""Ground-truth engines: explicit-state reachability and SAT-based BMC.

The explicit side tabulates every (state, input) frame with one
`circuit.simulate` call, one lane per frame, and reads the next-state,
bad and constraint tables off the simulated values. Reachability and
shortest counterexamples are two readers of one breadth-first walk over
those tables, and the debugging set is read off the counterexamples. It
refuses circuits above a state-bit cap; BMC has no such cap.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from .circuit import Circuit, Counterexample, PropertySpec, TraceFrame, simulate
from .encode import Unroller
from .sat import Solver, Status


class OracleError(ValueError):
    """State space too large for explicit enumeration."""


class CheckMode(enum.Enum):
    LOCAL = "local"  # non-final frames satisfy every property
    GLOBAL = "global"  # non-final frames satisfy only the target


@dataclass(frozen=True)
class BruteResult:
    holds: bool
    cex: Counterexample | None = None


@dataclass(frozen=True)
class ReachSet:
    """Reachable latch states, each packed into an int (latch 0 highest)
    and mapped to its shortest distance from reset."""

    depths: dict[int, int]
    num_latches: int

    def states(self) -> set[tuple[int, ...]]:
        n = self.num_latches
        return {_int_to_bits(s, n) for s in self.depths}


def _bits_to_int(bits) -> int:
    # latch 0 in the highest position keeps state ints stable under the
    # combo indexing used by the tables
    out = 0
    for b in bits:
        out = (out << 1) | (b & 1)
    return out


def _int_to_bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _index_pattern(bit: int, total_bits: int) -> int:
    """Big-int mask with bit i set iff index i has `bit` set."""
    block = 1 << bit
    period = ((1 << block) - 1) << block
    full = (1 << (1 << total_bits)) - 1
    return period * (full // ((1 << (2 * block)) - 1))


class ExplicitModel:
    """Fully tabulated transition system for one circuit."""

    def __init__(self, circuit: Circuit, cap_bits: int = 24):
        bits = circuit.num_latches + circuit.num_inputs
        if bits > cap_bits:
            raise OracleError(
                f"{circuit.num_latches} latches + {circuit.num_inputs} inputs "
                f"exceed the {cap_bits}-bit enumeration cap"
            )
        self.circuit = circuit
        self.nl = circuit.num_latches
        self.ni = circuit.num_inputs
        self.n_states = 1 << self.nl
        self.n_inputs = 1 << self.ni
        self._tabulate()

    def _tabulate(self):
        """Simulate every (state, input) frame at once, lane (state << ni) |
        input, then read each lane's row entries off the masks' columns."""
        c, ni, nl = self.circuit, self.ni, self.nl
        total = nl + ni
        w = 1 << total
        full = (1 << w) - 1
        # input 0 and latch 0 sit on the highest bits of a lane index
        vals = simulate(
            c,
            [_index_pattern(ni - 1 - i, total) for i in range(ni)],
            [_index_pattern(total - 1 - i, total) for i in range(nl)],
            full,
        )

        def mask(lit):
            return (vals[lit.var] ^ -lit.negated) & full

        def table(masks):  # lane (s << ni) | x read as row s, column x
            cols = [format(m, f"0{w}b")[::-1] for m in masks]
            flat = [int("".join(bits), 2) for bits in zip(*cols)] if cols else [0] * w
            return [flat[s << ni : (s + 1) << ni] for s in range(self.n_states)]

        nexts = [mask(l.next) for l in c.latches]
        bads = [mask(b) for b in c.bads]
        ok = full
        for constr in c.constraints:
            ok &= mask(constr)
        del vals  # free the per-gate values before the tables are built
        self.next_table = table(nexts)
        # bad mask bit for property i sits at (len(bads)-1-i)
        self.bad_table = table(bads)
        self.constr_table = [list(map(bool, row)) for row in table([ok])]
        self.init_int = _bits_to_int(self.circuit.init_state())

    def bad_bit(self, prop_index: int) -> int:
        return 1 << (len(self.circuit.bads) - 1 - prop_index)

    def prop_mask(self, props) -> int:
        mask = 0
        for p in props:
            mask |= self.bad_bit(p.index)
        return mask

    def frame_of(self, state_int: int, input_int: int) -> TraceFrame:
        return TraceFrame(
            _int_to_bits(state_int, self.nl), _int_to_bits(input_int, self.ni)
        )

    # -------------------------------------------------------------- queries

    def _walk(self, clean_mask: int):
        """Breadth-first over latch states from reset, along frames that
        satisfy the constraint section and fire no `clean_mask` bad, each
        state's inputs in increasing order. Yields each state with its
        depth and the parent map (state -> (parent, input), None at reset)
        before expanding it, so the map already holds its path."""
        parent: dict[int, tuple[int, int] | None] = {self.init_int: None}
        queue = [(self.init_int, 0)]
        for s, depth in queue:  # grows as it is read
            yield s, depth, parent
            bad_row, c_row = self.bad_table[s], self.constr_table[s]
            for x, t in enumerate(self.next_table[s]):
                if c_row[x] and not bad_row[x] & clean_mask and t not in parent:
                    parent[t] = (s, x)
                    queue.append((t, depth + 1))

    def reachable(self, props=None) -> ReachSet:
        """BFS over latch states; with `props` the traversal is projected:
        only frames clean of every listed property may leave their state,
        so a frame violating one adds no state."""
        walk = self._walk(self.prop_mask(props) if props else 0)
        return ReachSet({s: depth for s, depth, _ in walk}, self.nl)

    def _search_cex(self, target_mask: int, clean_mask: int) -> Counterexample | None:
        """Shortest, lexicographically least trace whose non-final frames
        avoid `clean_mask` bads (and satisfy the constraint section) and
        whose final frame fires a `target_mask` bad."""
        for s, _, parent in self._walk(clean_mask):
            x = next((x for x, b in enumerate(self.bad_table[s]) if b & target_mask), None)
            if x is not None:
                frames = [self.frame_of(s, x)]
                while parent[s] is not None:
                    s, x = parent[s]
                    frames.append(self.frame_of(s, x))
                return Counterexample(tuple(reversed(frames)), -1)
        return None

    def brute_check(self, props, target_index: int, mode: CheckMode) -> BruteResult:
        """Exhaustive verdict for one property; counterexamples are the
        shortest possible, input-lex-least among those."""
        target = self.bad_bit(target_index)
        clean = self.prop_mask(props) if mode is CheckMode.LOCAL else target
        cex = self._search_cex(target, clean)
        if cex is None:
            return BruteResult(True)
        return BruteResult(False, Counterexample(cex.frames, target_index))

    def brute_debug_set(self, props) -> set[int]:
        """Indices failing their local check (assuming all the others)."""
        return {
            p.index
            for p in props
            if not self.brute_check(props, p.index, CheckMode.LOCAL).holds
        }


# ---------------------------------------------------------------------- BMC


@dataclass
class BmcResult:
    """cex is None when no counterexample exists up to explored_depth."""

    cex: Counterexample | None
    explored_depth: int
    sat_calls: int = 0
    timed_out: bool = False


def bmc(
    circuit: Circuit,
    target: PropertySpec,
    constraint_props=(),
    max_depth: int = 0,
    timeout_s: float | None = None,
) -> BmcResult:
    """Incrementally unroll the constrained relation and look for the
    shallowest trace violating the target. Depth counts transitions;
    non-final frames satisfy the target, every constraint property, and
    the constraint section.

    The frames' roots are the target's bad and the bads of
    `constraint_props`, taken from the specs themselves, since a target
    such as the one `orchestrator.aggregate_bad` builds is not in
    `circuit.bads`. Each frame is asked `lit` only for those roots and
    the constraints."""
    solver = Solver()
    unroller = Unroller(solver, circuit, [target.bad, *(p.bad for p in constraint_props)])
    deadline = time.monotonic() + timeout_s if timeout_s is not None else None
    calls = 0
    for depth in range(max_depth + 1):
        enc = unroller.add_frame()
        result = solver.solve([enc.lit(target.bad)], deadline=deadline)
        calls += 1
        if result.status is Status.UNKNOWN:
            return BmcResult(None, depth - 1, calls, timed_out=True)
        if result.status is Status.SAT:
            frames = [
                TraceFrame(f.read_latches(result), f.read_inputs(result))
                for f in unroller.frames
            ]
            return BmcResult(
                Counterexample(tuple(frames), target.index), depth, calls
            )
        # this frame is now known non-final: pin its cleanliness
        solver.add_clause([enc.lit(target.bad) ^ 1])
        for prop in constraint_props:
            solver.add_clause([enc.lit(prop.bad) ^ 1])
        for constr in circuit.constraints:
            solver.add_clause([enc.lit(constr)])
    return BmcResult(None, max_depth, calls)
