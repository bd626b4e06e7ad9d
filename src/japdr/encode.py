"""Tseitin loading of circuits into the SAT solver.

One StepEncoding is one combinational copy: every circuit variable maps to
a solver literal. Latch leaves may be supplied (to chain copies, or to
force reset values), and encoding may be restricted to the cone of a few
root literals so a duplicated bad cone stays small. `constrained_step`
is the copy every induction query steps from: constraint section and a
set of clean properties asserted on its present state.
"""

from __future__ import annotations

from .circuit import Circuit, Literal
from .sat import Solver, pos


def const_true(solver: Solver) -> int:
    """Solver literal fixed true; one per solver, created on demand."""
    lit = getattr(solver, "_const_true", None)
    if lit is None:
        v = solver.new_var()
        solver.add_clause([pos(v)])
        lit = pos(v)
        solver._const_true = lit
    return lit


class StepEncoding:
    """Solver image of one circuit copy.

    varmap[circuit var] is a solver literal (it can be negated: chained
    latch leaves are the previous copy's next-state literals). Missing
    entries only occur under cone restriction.
    """

    def __init__(self, solver: Solver, circuit: Circuit, latch_lits=None, cone_roots=None):
        self.solver = solver
        self.circuit = circuit
        true_lit = const_true(solver)
        varmap: dict[int, int] = {0: true_lit}
        wanted = self._cone_vars(circuit, cone_roots)
        for var in circuit.input_vars:
            if wanted is None or var in wanted:
                varmap[var] = pos(solver.new_var())
        if latch_lits is not None:
            latch_lits = list(latch_lits)
            if len(latch_lits) != circuit.num_latches:
                raise ValueError("latch literal count mismatch")
            for var, lit in zip(circuit.latch_vars, latch_lits):
                varmap[var] = lit
        else:
            for var in circuit.latch_vars:
                if wanted is None or var in wanted:
                    varmap[var] = pos(solver.new_var())
        for gate in circuit.ands:
            if wanted is not None and gate.out not in wanted:
                continue
            out = pos(solver.new_var())
            a = self._map(varmap, gate.left)
            b = self._map(varmap, gate.right)
            solver.add_clause([out ^ 1, a])
            solver.add_clause([out ^ 1, b])
            solver.add_clause([out, a ^ 1, b ^ 1])
            varmap[gate.out] = out
        self.varmap = varmap

    @staticmethod
    def _cone_vars(circuit, roots):
        if roots is None:
            return None
        gate_by_out = {g.out: g for g in circuit.ands}
        seen: set[int] = set()
        work = [r.var if isinstance(r, Literal) else r for r in roots]
        while work:
            var = work.pop()
            if var in seen:
                continue
            seen.add(var)
            gate = gate_by_out.get(var)
            if gate is not None:
                work.append(gate.left.var)
                work.append(gate.right.var)
        return seen

    @staticmethod
    def _map(varmap, literal: Literal) -> int:
        return varmap[literal.var] ^ int(literal.negated)

    def lit(self, literal: Literal) -> int:
        """Solver literal for a circuit literal in this copy."""
        return self.varmap[literal.var] ^ int(literal.negated)

    def next_lit(self, latch_pos: int) -> int:
        return self.lit(self.circuit.latches[latch_pos].next)

    def latch_lit(self, latch_pos: int, value: int) -> int:
        base = self.varmap[self.circuit.latch_vars[latch_pos]]
        return base if value else base ^ 1

    def input_lit(self, input_pos: int, value: int) -> int:
        base = self.varmap[1 + input_pos]
        return base if value else base ^ 1

    def read_latches(self, result) -> tuple[int, ...]:
        return tuple(
            result.value(self.varmap[v]) for v in self.circuit.latch_vars
        )

    def read_inputs(self, result) -> tuple[int, ...]:
        """Input vector from a model; inputs outside the cone read as 0."""
        out = []
        for var in self.circuit.input_vars:
            lit = self.varmap.get(var)
            out.append(result.value(lit) if lit is not None else 0)
        return tuple(out)


def constrained_step(solver: Solver, circuit: Circuit, props) -> StepEncoding:
    """A step copy whose present state obeys the constraint section and
    fires the bad of none of `props`: the relation every induction query
    steps through."""
    enc = StepEncoding(solver, circuit)
    for constr in circuit.constraints:
        solver.add_clause([enc.lit(constr)])
    for prop in props:
        solver.add_clause([enc.lit(prop.bad) ^ 1])
    return enc


class Unroller:
    """Time-frame expansion for bounded checks. Frame 0 latches are pinned
    to the reset values; frame t+1 latches alias frame t next-state
    literals, so no equality clauses are needed."""

    def __init__(self, solver: Solver, circuit: Circuit):
        self.solver = solver
        self.circuit = circuit
        self.frames: list[StepEncoding] = []

    def add_frame(self) -> StepEncoding:
        if not self.frames:
            true_lit = const_true(self.solver)
            leaves = [
                true_lit if latch.init else true_lit ^ 1
                for latch in self.circuit.latches
            ]
        else:
            prev = self.frames[-1]
            leaves = [prev.next_lit(i) for i in range(self.circuit.num_latches)]
        enc = StepEncoding(self.solver, self.circuit, latch_lits=leaves)
        self.frames.append(enc)
        return enc
