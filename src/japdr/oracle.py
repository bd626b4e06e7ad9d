"""Ground-truth engines: explicit-state reachability and SAT-based BMC.

The explicit side enumerates every (state, input) frame once using
bit-parallel evaluation (one big integer per circuit variable, one bit per
frame), then answers reachability, shortest-counterexample, and
debugging-set queries from the cached tables. It refuses circuits above a
state-bit cap; BMC has no such cap.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass

from .circuit import Circuit, Counterexample, PropertySpec, TraceFrame
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
    """Reachable latch states with shortest distance from reset.

    Under projection (`projected_on` non-empty) a frame violating any of
    those properties contributes only its self-loop, so traversal follows
    property-clean frames exclusively; violating frames cannot add states.
    """

    depths: dict[int, int]
    projected_on: tuple[int, ...]
    num_latches: int

    def states(self) -> set[tuple[int, ...]]:
        n = self.num_latches
        return {_int_to_bits(s, n) for s in self.depths}

    def __contains__(self, state) -> bool:
        return _bits_to_int(tuple(state)) in self.depths


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
        c = self.circuit
        total = self.nl + self.ni
        w = 1 << total
        full = (1 << w) - 1
        values = [0] * c.num_vars
        values[0] = full
        # combo index: state bits above input bits; input 0 / latch 0 highest
        for i, var in enumerate(c.input_vars):
            values[var] = _index_pattern(self.ni - 1 - i, total)
        for i, var in enumerate(c.latch_vars):
            values[var] = _index_pattern(total - 1 - i, total)

        def lit_mask(lit):
            return values[lit.var] ^ (full if lit.negated else 0)

        for gate in c.ands:
            values[gate.out] = lit_mask(gate.left) & lit_mask(gate.right)
        next_masks = [lit_mask(l.next) for l in c.latches]
        bad_masks = [lit_mask(b) for b in c.bads]
        constr_mask = full
        for constr in c.constraints:
            constr_mask &= lit_mask(constr)

        ni, nl = self.ni, self.nl
        n_states, n_inputs = self.n_states, self.n_inputs
        nbytes = (w + 7) // 8
        next_bytes = [m.to_bytes(nbytes, "little") for m in next_masks]
        bad_bytes = [m.to_bytes(nbytes, "little") for m in bad_masks]
        constr_bytes = constr_mask.to_bytes(nbytes, "little")

        def bit(raw, idx):
            return (raw[idx >> 3] >> (idx & 7)) & 1

        nxt = [[0] * n_inputs for _ in range(n_states)]
        badm = [[0] * n_inputs for _ in range(n_states)]
        c_ok = [[True] * n_inputs for _ in range(n_states)]
        for s in range(n_states):
            base = s << ni
            row_n, row_b, row_c = nxt[s], badm[s], c_ok[s]
            for x in range(n_inputs):
                idx = base | x
                t = 0
                for raw in next_bytes:
                    t = (t << 1) | bit(raw, idx)
                row_n[x] = t
                bm = 0
                for raw in bad_bytes:
                    bm = (bm << 1) | bit(raw, idx)
                row_b[x] = bm
                row_c[x] = bool(bit(constr_bytes, idx))
        # bad mask bit for property i sits at (len(bads)-1-i)
        self.next_table = nxt
        self.bad_table = badm
        self.constr_table = c_ok
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

    def reachable(self, props=None, depth_limit=None) -> ReachSet:
        """BFS over latch states; with `props` the traversal is projected:
        only frames clean of every listed property may leave their state."""
        mask = self.prop_mask(props) if props else 0
        depths = {self.init_int: 0}
        frontier = [self.init_int]
        depth = 0
        while frontier and (depth_limit is None or depth < depth_limit):
            depth += 1
            nxt_frontier = []
            for s in frontier:
                bad_row = self.bad_table[s]
                c_row = self.constr_table[s]
                for x, t in enumerate(self.next_table[s]):
                    if not c_row[x]:
                        continue  # constraint section blocks the step
                    if mask and bad_row[x] & mask:
                        continue  # projection: violating frame self-loops
                    if t not in depths:
                        depths[t] = depth
                        nxt_frontier.append(t)
            frontier = nxt_frontier
        return ReachSet(
            depths,
            tuple(p.index for p in props) if props else (),
            self.nl,
        )

    def _search_cex(self, target_mask: int, clean_mask: int) -> Counterexample | None:
        """Shortest, lexicographically least trace whose non-final frames
        avoid `clean_mask` bads (and satisfy the constraint section) and
        whose final frame fires a `target_mask` bad."""
        parent: dict[int, tuple[int, int] | None] = {self.init_int: None}
        queue = [self.init_int]
        head = 0
        while head < len(queue):
            s = queue[head]
            head += 1
            bad_row = self.bad_table[s]
            for x in range(self.n_inputs):
                if bad_row[x] & target_mask:
                    return self._build_trace(parent, s, x)
            c_row = self.constr_table[s]
            nxt_row = self.next_table[s]
            for x in range(self.n_inputs):
                if not c_row[x] or bad_row[x] & clean_mask:
                    continue
                t = nxt_row[x]
                if t not in parent:
                    parent[t] = (s, x)
                    queue.append(t)
        return None

    def _build_trace(self, parent, final_state, final_input) -> Counterexample:
        path = []
        s = final_state
        while parent[s] is not None:
            prev, x = parent[s]
            path.append((prev, x))
            s = prev
        path.reverse()
        frames = [self.frame_of(s, x) for s, x in path]
        frames.append(self.frame_of(final_state, final_input))
        return Counterexample(tuple(frames), -1)

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
