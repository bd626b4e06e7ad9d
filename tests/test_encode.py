"""Bulk circuit encoding against gate-by-gate encoding.

The reference below is the plain Tseitin loop: one variable and three
`add_clause` calls per gate, or six for a mux-form gate that an unrolled
frame collapses. Every copy `encode` makes must leave the solver in
exactly the state that loop leaves, so every SAT query stays the same
query.
"""

import random

from japdr.aiger import build_counter, gen_random_circuit
from japdr.circuit import FALSE, TRUE, AndGate, Circuit, Latch, Literal, PropertySpec
from japdr.encode import StepEncoding, Unroller, constrained_step
from japdr.sat import Solver, Status, pos

_UNDEF = -1


def _ref_new_var(solver: Solver) -> int:
    """One variable, joining the decision queue at its old end."""
    v = solver.n_vars
    solver.n_vars += 1
    solver.vals += (_UNDEF, _UNDEF)
    solver.level.append(0)
    solver.reason.append(_UNDEF)
    solver.phase.append(0)
    solver._seen.append(False)
    solver.watches.append([])
    solver.watches.append([])
    old = solver.q_first
    solver.activity.append(solver.activity[old] - 1 if old >= 0 else -1)
    solver.q_prev.append(_UNDEF)
    solver.q_next.append(old)
    if old >= 0:
        solver.q_prev[old] = v
    else:
        solver.q_last = solver.q_search = v
    solver.q_first = v
    return v


def _ref_const_true(solver: Solver) -> int:
    lit = getattr(solver, "_const_true", None)
    if lit is None:
        lit = pos(_ref_new_var(solver))
        solver.add_clause([lit])
        solver._const_true = lit
    return lit


def _ref_ites(circuit) -> dict:
    """Gates g = ~(x & y) & ~(~x & z), mapped to (x, y, z)."""
    gate_by_out = {g.out: g for g in circuit.ands}
    found = {}
    for gate in circuit.ands:
        left, right = gate.left, gate.right
        g1, g2 = gate_by_out.get(left.var), gate_by_out.get(right.var)
        if not (left.negated and right.negated) or left.var == right.var:
            continue
        if g1 is None or g2 is None:
            continue
        for x, y in ((g1.left, g1.right), (g1.right, g1.left)):
            zs = [b for a, b in ((g2.left, g2.right), (g2.right, g2.left)) if a == ~x]
            if zs:
                found[gate.out] = (x, y, zs[0])
                break
    return found


def _ref_cone(circuit, roots, ites):
    gate_by_out = {g.out: g for g in circuit.ands}
    seen = set()
    work = [r if isinstance(r, int) else r.var for r in roots]
    while work:
        var = work.pop()
        if var in seen:
            continue
        seen.add(var)
        gate = gate_by_out.get(var)
        if var in ites:
            work += [op.var for op in ites[var]]
        elif gate is not None:
            work += [gate.left.var, gate.right.var]
    return seen


def _ref_encode(solver, circuit, latch_lits=None, cone_roots=None, ites=None) -> dict:
    """Gate-by-gate Tseitin; a gate in `ites` is one variable under the
    six clauses of ~g = ITE(x, y, z), and the cone steps through it."""
    ites = ites or {}
    varmap = {0: _ref_const_true(solver)}
    wanted = None if cone_roots is None else _ref_cone(circuit, cone_roots, ites)
    for var in circuit.input_vars:
        if wanted is None or var in wanted:
            varmap[var] = pos(_ref_new_var(solver))
    if latch_lits is not None:
        varmap.update(zip(circuit.latch_vars, latch_lits))
    else:
        for var in circuit.latch_vars:
            if wanted is None or var in wanted:
                varmap[var] = pos(_ref_new_var(solver))
    for gate in circuit.ands:
        if wanted is not None and gate.out not in wanted:
            continue
        out = pos(_ref_new_var(solver))
        varmap[gate.out] = out
        if gate.out in ites:
            x, y, z = (_lit(varmap, op) for op in ites[gate.out])
            g = out ^ 1  # ~gate
            solver.add_clause([x ^ 1, y ^ 1, g])
            solver.add_clause([x ^ 1, y, g ^ 1])
            solver.add_clause([x, z ^ 1, g])
            solver.add_clause([x, z, g ^ 1])
            solver.add_clause([y ^ 1, z ^ 1, g])
            solver.add_clause([y, z, g ^ 1])
            continue
        a = varmap[gate.left.var] ^ int(gate.left.negated)
        b = varmap[gate.right.var] ^ int(gate.right.negated)
        solver.add_clause([out ^ 1, a])
        solver.add_clause([out ^ 1, b])
        solver.add_clause([out, a ^ 1, b ^ 1])
    return varmap


def _lit(varmap, literal: Literal) -> int:
    return varmap[literal.var] ^ int(literal.negated)


def _step_roots(circuit, props) -> list:
    """What a constrained step must cover: latches, next-state functions,
    the bads of its properties and the constraints."""
    return [
        *circuit.latch_vars,
        *(latch.next for latch in circuit.latches),
        *(prop.bad for prop in props),
        *circuit.constraints,
    ]


def _frame_roots(circuit, bads) -> list:
    """What an unrolled frame covers: the checked bads, next-state
    functions and constraints."""
    return [
        *bads,
        *(latch.next for latch in circuit.latches),
        *circuit.constraints,
    ]


def _ref_constrained_step(solver, circuit, props) -> dict:
    varmap = _ref_encode(solver, circuit, cone_roots=_step_roots(circuit, props))
    for constr in circuit.constraints:
        solver.add_clause([_lit(varmap, constr)])
    for prop in props:
        solver.add_clause([_lit(varmap, prop.bad) ^ 1])
    return varmap


def _end_props(circuit) -> tuple:
    """The first and the last property of a circuit."""
    last = len(circuit.bads) - 1
    return (PropertySpec(0, circuit.bads[0]), PropertySpec(last, circuit.bads[last]))


def _next_cube(enc) -> list:
    """Consecution-shaped assumptions: every next-state latch at 1."""
    return [enc.next_lit(i) for i in range(enc.circuit.num_latches)]


def _state(solver: Solver):
    return (
        solver.n_vars,
        solver.clauses,
        solver.watches,
        solver.q_prev,
        solver.q_next,
        solver.q_first,
        solver.q_last,
        solver.q_search,
        solver.vals,
        solver.level,
        solver.reason,
        solver.trail,
        solver.activity,
        solver.phase,
        solver.ok,
    )


def _degenerate_circuit() -> Circuit:
    """Gates over constants, a & a and a & ~a, plus gates fed by them."""
    x, y, l0, l1 = (Literal(v) for v in range(1, 5))
    gates = [
        AndGate(5, x, TRUE),
        AndGate(6, y, FALSE),
        AndGate(7, l0, l0),
        AndGate(8, l1, ~l1),
        AndGate(9, Literal(5), Literal(6)),
        AndGate(10, Literal(7), ~Literal(8)),
        AndGate(11, x, ~y),
        AndGate(12, Literal(11), ~Literal(9)),
    ]
    latches = (Latch(3, Literal(10), 1), Latch(4, Literal(12), 0))
    return Circuit(2, latches, tuple(gates), bads=(Literal(9), ~Literal(12)))


def _circuits():
    rng = random.Random(11)
    out = [build_counter(6, thresholds=4).circuit, _degenerate_circuit()]
    for _ in range(6):
        circuit, _ = gen_random_circuit(
            rng, num_inputs=3, num_latches=8, num_gates=40, num_props=3
        )
        out.append(circuit)
    return out


def test_full_and_cone_copies_match_the_reference():
    for circuit in _circuits():
        every = range(circuit.num_vars)  # a full copy roots every variable
        for roots in (None, [circuit.bads[0]], list(circuit.bads)):
            fast, ref = Solver(), Solver()
            enc = StepEncoding(fast, circuit, cone_roots=every if roots is None else roots)
            varmap = _ref_encode(ref, circuit, cone_roots=roots)
            assert enc.varmap == varmap
            assert _state(fast) == _state(ref)


def test_unrolled_frames_match_the_reference():
    collapsed = 0
    for circuit in _circuits():
        ites = _ref_ites(circuit)
        for bads in ([circuit.bads[0]], list(circuit.bads)):
            fast, ref = Solver(), Solver()
            unroller = Unroller(fast, circuit, bads)
            roots = _frame_roots(circuit, bads)
            collapsed += len(ites.keys() & _ref_cone(circuit, roots, ites))
            true_lit = _ref_const_true(ref)
            leaves = [true_lit if l.init else true_lit ^ 1 for l in circuit.latches]
            for _ in range(4):
                enc = unroller.add_frame()
                varmap = _ref_encode(
                    ref, circuit, latch_lits=leaves, cone_roots=roots, ites=ites
                )
                assert enc.varmap == varmap
                assert _state(fast) == _state(ref)
                leaves = [_lit(varmap, l.next) for l in circuit.latches]
    assert collapsed  # the counter's xor and mux roots sit in its frame cones


def test_chained_copy_after_a_solve_matches_the_reference():
    """The induction-query shape: a constrained step over its cone, a
    solve that learns and fixes level-0 values, then a chained cone copy
    on the same solver."""
    for circuit in _circuits():
        fast, ref = Solver(), Solver()
        props = _end_props(circuit)
        enc = constrained_step(fast, circuit, props)
        varmap = _ref_constrained_step(ref, circuit, props)
        assert enc.varmap == varmap
        assert _state(fast) == _state(ref)
        nexts = _next_cube(enc)
        fast.solve(nexts)
        ref.solve([_lit(varmap, l.next) for l in circuit.latches])
        roots = [circuit.bads[-1]]
        nxt = StepEncoding(fast, circuit, latch_lits=nexts, cone_roots=roots)
        ref_nxt = _ref_encode(
            ref, circuit,
            latch_lits=[_lit(varmap, l.next) for l in circuit.latches],
            cone_roots=roots,
        )
        assert nxt.varmap == ref_nxt
        assert _state(fast) == _state(ref)


def test_new_vars_matches_repeated_new_var():
    circuit = build_counter(6, thresholds=4).circuit
    solvers = []
    for _ in range(2):
        solver = Solver()
        enc = constrained_step(solver, circuit, _end_props(circuit))
        solver.solve(_next_cube(enc))
        solvers.append(solver)
    bulk, single = solvers
    # allocation stamps are negative: some stamp was bumped past its allocation
    assert bulk.n_conflicts and max(bulk.activity) >= 0
    assert _state(bulk) == _state(single)
    first = bulk.new_vars(7)
    assert [_ref_new_var(single) for _ in range(7)] == list(range(first, first + 7))
    assert _state(bulk) == _state(single)
    assert bulk.new_var() == _ref_new_var(single)
    assert _state(bulk) == _state(single)


def _with_dead_gates(circuit: Circuit, rng, count: int) -> Circuit:
    """The circuit plus `count` gates that nothing reads."""
    gates = list(circuit.ands)
    for _ in range(count):
        out = circuit.num_vars + len(gates) - len(circuit.ands)
        left, right = (Literal(rng.randrange(out), rng.random() < 0.5) for _ in range(2))
        gates.append(AndGate(out, left, right))
    return Circuit(
        circuit.num_inputs, circuit.latches, tuple(gates),
        circuit.bads, circuit.constraints,
    )


def test_cone_step_answers_consecution_like_the_full_copy():
    """A step cut to its cone and a full copy under the same clean units
    agree on consecution-shaped queries: frame clauses over latches, a
    present-state cube excluded, a next-state cube assumed."""
    rng = random.Random(5)
    answers = set()
    for _ in range(12):
        circuit, props = gen_random_circuit(
            rng, num_inputs=3, num_latches=6, num_gates=30, num_props=3
        )
        circuit = _with_dead_gates(circuit, rng, 15)
        props = props[: rng.randint(0, len(props))]
        cone, full = Solver(), Solver()
        enc_cone = constrained_step(cone, circuit, props)
        enc_full = StepEncoding(full, circuit, cone_roots=range(circuit.num_vars))
        for constr in circuit.constraints:
            full.add_clause([enc_full.lit(constr)])
        for prop in props:
            full.add_clause([enc_full.lit(prop.bad) ^ 1])
        assert cone.n_vars < full.n_vars
        n = circuit.num_latches
        for _ in range(3):
            clause = [(rng.randrange(n), rng.randint(0, 1)) for _ in range(2)]
            for solver, enc in ((cone, enc_cone), (full, enc_full)):
                solver.add_clause([enc.latch_lit(i, v) for i, v in clause])
        for _ in range(20):
            cube = [(i, rng.randint(0, 1)) for i in rng.sample(range(n), 3)]
            got = []
            for solver, enc in ((cone, enc_cone), (full, enc_full)):
                act = pos(solver.new_var())
                solver.add_clause([act ^ 1, *(enc.latch_lit(i, 1 - v) for i, v in cube)])
                result = solver.solve([act, *(enc.next_lit(i) ^ (1 - v) for i, v in cube)])
                solver.add_clause([act ^ 1])
                got.append(result.status)
            assert got[0] == got[1]
            answers.add(got[0])
    assert answers == {Status.SAT, Status.UNSAT}
