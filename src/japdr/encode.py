"""Tseitin loading of circuits into the SAT solver.

One StepEncoding is one combinational copy: every circuit variable maps to
a solver literal. Latch leaves may be supplied (to chain copies, or to
force reset values), and encoding may be restricted to the cone of a few
root literals so a copy holds only the gates its queries read.
`constrained_step` is the copy every induction query steps from:
constraint section and a set of clean properties asserted on its present
state, over the cone of the latches, their next-state functions, those
properties' bads and the constraints.

BMC frames (`Unroller`) cover the cone of the bads they check, every
next-state function and every constraint, and collapse each mux-form gate
in that cone, g = ~(x & y) & ~(~x & z) (`Circuit.ite_gates`), to one
variable under the six clauses of ~g = ITE(x, y, z); XOR is the case
z = ~y. The cone walk steps from such a gate straight to x, y and z, so
its two inner gates get a variable only when something else in the cone
reads them (Eén, Mishchenko & Sörensson, "Applying Logic Synthesis for
Speeding Up SAT", SAT 2007). A frame's `lit` is therefore only for its
roots: bads, next-state functions and constraints.

A copy is one bulk variable allocation (`Solver.new_vars`) plus one pass
over the gates: `Solver.add_and` for each AND gate, which leaves the
solver exactly as three `add_clause` calls would, and `add_clause` for
the six clauses of each ITE.
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
    entries only occur under cone restriction, or for the inner gates of
    a collapsed mux (`ites`, set only by `Unroller`).
    """

    def __init__(
        self, solver: Solver, circuit: Circuit, latch_lits=None, cone_roots=None, ites=None
    ):
        self.solver = solver
        self.circuit = circuit
        if latch_lits is not None:
            latch_lits = list(latch_lits)
            if len(latch_lits) != circuit.num_latches:
                raise ValueError("latch literal count mismatch")
        true_lit = const_true(solver)
        varmap: dict[int, int] = {0: true_lit}
        ites = ites or {}
        wanted = self._cone_vars(circuit, cone_roots, ites)
        leaves = list(circuit.input_vars)
        if latch_lits is None:
            leaves.extend(circuit.latch_vars)
        gates = circuit.ands
        if wanted is not None:
            leaves = [var for var in leaves if var in wanted]
            gates = [gate for gate in gates if gate.out in wanted]
        # one block of fresh variables: leaves first, then gate outputs
        first = solver.new_vars(len(leaves) + len(gates))
        for i, var in enumerate(leaves):
            varmap[var] = pos(first + i)
        if latch_lits is not None:
            varmap.update(zip(circuit.latch_vars, latch_lits))
        add_and = solver.add_and
        out = pos(first + len(leaves))
        for gate in gates:
            mux = ites.get(gate.out)
            if mux is not None:
                x, y, z = (varmap[op.var] ^ op.negated for op in mux)
                f = out ^ 1  # ~g = ITE(x, y, z)
                for clause in (
                    (x ^ 1, y ^ 1, f),
                    (x ^ 1, y, f ^ 1),
                    (x, z ^ 1, f),
                    (x, z, f ^ 1),
                    (y ^ 1, z ^ 1, f),
                    (y, z, f ^ 1),
                ):
                    solver.add_clause(clause)
            else:
                left, right = gate.left, gate.right
                add_and(out, varmap[left.var] ^ left.negated, varmap[right.var] ^ right.negated)
            varmap[gate.out] = out
            out += 2
        self.varmap = varmap

    @staticmethod
    def _cone_vars(circuit, roots, ites):
        if roots is None:
            return None
        first_gate = 1 + circuit.num_inputs + circuit.num_latches
        ands = circuit.ands
        seen: set[int] = set()
        work = [r.var if isinstance(r, Literal) else r for r in roots]
        while work:
            var = work.pop()
            if var in seen:
                continue
            seen.add(var)
            mux = ites.get(var)
            if mux is not None:
                work.extend(op.var for op in mux)
            elif var >= first_gate:
                gate = ands[var - first_gate]
                work.append(gate.left.var)
                work.append(gate.right.var)
        return seen

    def lit(self, literal: Literal) -> int:
        """Solver literal for a circuit literal in this copy. In an
        unrolled frame only its roots have one."""
        return self.varmap[literal.var] ^ int(literal.negated)

    def next_lit(self, latch_pos: int) -> int:
        return self.lit(self.circuit.latches[latch_pos].next)

    def latch_lit(self, latch_pos: int, value: int) -> int:
        base = self.varmap[self.circuit.latch_vars[latch_pos]]
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
    steps through.

    The copy covers the cone of what its queries read: every latch (frame
    clauses and cubes may name any), every next-state function, the bads
    of `props` and the constraints. A gate feeding none of them is left
    out, and an input outside the cone reads as 0 in a model."""
    roots = [
        *circuit.latch_vars,
        *(latch.next for latch in circuit.latches),
        *(prop.bad for prop in props),
        *circuit.constraints,
    ]
    enc = StepEncoding(solver, circuit, cone_roots=roots)
    for constr in circuit.constraints:
        solver.add_clause([enc.lit(constr)])
    for prop in props:
        solver.add_clause([enc.lit(prop.bad) ^ 1])
    return enc


class Unroller:
    """Time-frame expansion for bounded checks. Frame 0 latches are pinned
    to the reset values; frame t+1 latches alias frame t next-state
    literals, so no equality clauses are needed.

    Every frame covers the cone of `roots` (the bads the caller checks,
    which need not be among `circuit.bads`), every next-state function
    and every constraint, with mux-form gates collapsed. A frame's `lit`
    may be asked only for those roots; inputs outside the cone read as 0."""

    def __init__(self, solver: Solver, circuit: Circuit, roots):
        self.solver = solver
        self.circuit = circuit
        self.frames: list[StepEncoding] = []
        self._roots = [
            *roots,
            *(latch.next for latch in circuit.latches),
            *circuit.constraints,
        ]

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
        enc = StepEncoding(
            self.solver,
            self.circuit,
            latch_lits=leaves,
            cone_roots=self._roots,
            ites=self.circuit.ite_gates,
        )
        self.frames.append(enc)
        return enc
