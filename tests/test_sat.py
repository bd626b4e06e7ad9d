import itertools
import random
import time

from japdr import oracle
from japdr.aiger import gen_counter, gen_random_circuit
from japdr.orchestrator import Mode, VerificationTask, run
from japdr.sat import _UNDEF, Solver, Status, pos


def brute_force(num_vars, clauses, assumptions=()):
    """All satisfying assignments as var->bool dicts; assumptions forced.

    Variables are 0-based to match Solver.new_var numbering."""
    forced = {a >> 1: not (a & 1) for a in assumptions}
    models = []
    for bits in itertools.product([False, True], repeat=num_vars):
        assign = dict(enumerate(bits))
        if any(assign[v] != want for v, want in forced.items()):
            continue
        ok = True
        for clause in clauses:
            if not any(assign[l >> 1] != bool(l & 1) for l in clause):
                ok = False
                break
        if ok:
            models.append(assign)
    return models


def random_instance(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        k = rng.randint(1, 3)
        chosen = rng.sample(range(num_vars), min(k, num_vars))
        clauses.append([pos(v) if rng.random() < 0.5 else pos(v) ^ 1 for v in chosen])
    return clauses


def test_agrees_with_brute_force_on_random_cnf():
    rng = random.Random(2024)
    for trial in range(150):
        n = rng.randint(1, 8)
        clauses = random_instance(rng, n, rng.randint(1, 24))
        solver = Solver()
        for _ in range(n):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        models = brute_force(n, clauses)
        if models:
            assert result.status is Status.SAT, trial
            # returned model must actually satisfy every clause
            for clause in clauses:
                assert any(result.value(l) for l in clause), (trial, clause)
        else:
            assert result.status is Status.UNSAT, trial


def test_assumptions_and_cores():
    rng = random.Random(77)
    for trial in range(150):
        n = rng.randint(2, 7)
        clauses = random_instance(rng, n, rng.randint(2, 18))
        k = rng.randint(1, n)
        vars_ = rng.sample(range(n), k)
        assumptions = [pos(v) if rng.random() < 0.5 else pos(v) ^ 1 for v in vars_]
        solver = Solver()
        for _ in range(n):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve(assumptions)
        models = brute_force(n, clauses, assumptions)
        if models:
            assert result.status is Status.SAT, trial
            for a in assumptions:
                assert result.value(a), trial
        else:
            assert result.status is Status.UNSAT, trial
            assert result.core is not None
            assert result.core <= set(assumptions), trial
            # the core alone must already be unsatisfiable
            assert not brute_force(n, clauses, sorted(result.core)), trial


def test_core_shrinks_below_full_assumption_set_sometimes():
    solver = Solver()
    a, b, c = (solver.new_var() for _ in range(3))
    solver.add_clause([pos(a) ^ 1])
    result = solver.solve([pos(a), pos(b), pos(c)])
    assert result.status is Status.UNSAT
    assert result.core == {pos(a)}


def test_pigeonhole_unsat():
    # 4 pigeons, 3 holes; hard enough to exercise learning
    pigeons, holes = 4, 3
    solver = Solver()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = solver.new_var()
    for p in range(pigeons):
        solver.add_clause([pos(var[p, h]) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([pos(var[p1, h]) ^ 1, pos(var[p2, h]) ^ 1])
    assert solver.solve().status is Status.UNSAT


def test_unit_and_empty_clause_handling():
    solver = Solver()
    x = solver.new_var()
    assert solver.add_clause([pos(x)])
    assert not solver.add_clause([pos(x) ^ 1])  # store becomes unsat
    assert solver.solve().status is Status.UNSAT


def test_tautology_and_duplicate_literals():
    solver = Solver()
    x, y = solver.new_var(), solver.new_var()
    solver.add_clause([pos(x), pos(x) ^ 1])  # dropped
    solver.add_clause([pos(y), pos(y)])  # collapses to unit
    result = solver.solve()
    assert result.status is Status.SAT and result.value(pos(y))


def test_deadline_yields_unknown():
    solver = Solver()
    var = {}
    for p in range(8):
        for h in range(7):
            var[p, h] = solver.new_var()
    for p in range(8):
        solver.add_clause([pos(var[p, h]) for h in range(7)])
    for h in range(7):
        for p1 in range(8):
            for p2 in range(p1 + 1, 8):
                solver.add_clause([pos(var[p1, h]) ^ 1, pos(var[p2, h]) ^ 1])
    result = solver.solve(deadline=time.monotonic() - 1)
    assert result.status is Status.UNKNOWN


def test_incremental_reuse_after_unsat_assumptions():
    solver = Solver()
    x, y = solver.new_var(), solver.new_var()
    solver.add_clause([pos(x), pos(y)])
    assert solver.solve([pos(x) ^ 1, pos(y) ^ 1]).status is Status.UNSAT
    assert solver.solve([pos(x) ^ 1]).status is Status.SAT
    assert solver.solve().status is Status.SAT


def test_an_assumption_and_its_negation_fail_together():
    solver = Solver()
    solver.new_vars(2)
    a, b = range(2)
    clauses = [[pos(a), pos(b)]]
    solver.add_clause(clauses[0])
    p = pos(a)
    result = solver.solve([pos(b), p ^ 1, p])
    assert result.status is Status.UNSAT and result.core == {p, p ^ 1}
    # neither half alone is unsatisfiable
    assert brute_force(2, clauses, [p]) and brute_force(2, clauses, [p ^ 1])
    assert solver.n_conflicts == 0 and solver.ok


def test_an_assumption_false_at_level_0_is_its_own_core():
    solver = Solver()
    solver.new_vars(3)
    a, b, c = range(3)
    clauses = [[pos(c) ^ 1], [pos(c), pos(a) ^ 1]]  # propagates ~a at level 0
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve([pos(b), pos(a), pos(c) ^ 1])
    assert result.status is Status.UNSAT and result.core == {pos(a)}
    assert not brute_force(3, clauses, [pos(a)])
    assert brute_force(3, clauses, [pos(b), pos(c) ^ 1])


def test_a_level_1_conflict_with_a_uip_leaves_a_level_0_unit():
    """x & y imply m, and m alone forces b and ~b: m is the UIP of the
    first conflict, so ~m is learned as a level-0 unit. With it, x and y
    clash with no UIP, and the solve returns both as the core."""
    solver = Solver()
    solver.new_vars(5)
    x, y, m, b, z = range(5)
    clauses = [
        [pos(m), pos(x) ^ 1, pos(y) ^ 1],
        [pos(m) ^ 1, pos(b)],
        [pos(m) ^ 1, pos(b) ^ 1],
    ]
    for clause in clauses:
        solver.add_clause(clause)
    stored = len(solver.clauses)
    result = solver.solve([pos(x), pos(z), pos(y)])
    assert result.status is Status.UNSAT and result.core == {pos(x), pos(y)}
    assert not brute_force(5, clauses, sorted(result.core))
    assert solver.n_conflicts == 2 and len(solver.clauses) == stored
    assert solver.trail == [pos(m) ^ 1] and solver.vals[pos(m)] == 0
    assert_values(solver)
    # the next solve finds ~m already at level 0: no conflict, core {m}
    result = solver.solve([pos(z), pos(m)])
    assert result.status is Status.UNSAT and result.core == {pos(m)}
    assert solver.n_conflicts == 2 and not brute_force(5, clauses, [pos(m)])
    result = solver.solve([pos(x), pos(z)])
    assert result.status is Status.SAT and brute_force(5, clauses, [pos(x), pos(z)])
    assert not result.value(pos(y)) and not result.value(pos(m))


def test_a_conflict_between_assumptions_learns_nothing():
    """Assumptions that clash through propagation end the solve at its
    first conflict: the core is a subset of them, no clause or unit is
    added, and later solves keep their answers."""
    solver = Solver()
    solver.new_vars(4)
    x, y, m, z = range(4)
    clauses = [[pos(x) ^ 1, pos(m)], [pos(y) ^ 1, pos(m) ^ 1]]
    for clause in clauses:
        solver.add_clause(clause)
    stored = len(solver.clauses)
    result = solver.solve([pos(z), pos(x), pos(y)])
    assert result.status is Status.UNSAT and result.core == {pos(x), pos(y)}
    assert not brute_force(4, clauses, [pos(x), pos(y)])
    assert solver.n_conflicts == 1 and len(solver.clauses) == stored
    assert solver.trail == [] and solver.ok
    for assumptions in ([pos(x), pos(z)], [pos(y), pos(z)], [pos(m)], [pos(m) ^ 1], []):
        result = solver.solve(assumptions)
        assert result.status is Status.SAT, assumptions
        model = dict(enumerate(map(bool, result.model)))
        assert model in brute_force(4, clauses, assumptions), assumptions


def test_assumption_conflicts_without_a_uip_on_random_cnf():
    """A solve that ends at its first conflict with the store unchanged
    returned at a level-1 conflict without a UIP. Each such core is a
    subset of the assumptions, unsatisfiable on its own, and the
    solver's later answers agree with the brute-force models."""
    rng = random.Random(2419)
    returned = 0
    for trial in range(150):
        n = rng.randint(3, 8)
        clauses = random_instance(rng, n, rng.randint(3, 16))
        solver = Solver()
        solver.new_vars(n)
        for clause in clauses:
            solver.add_clause(clause)
        for _ in range(5):
            assumptions = random_assumptions(rng, n)
            conflicts, stored, units = solver.n_conflicts, len(solver.clauses), len(solver.trail)
            result = solver.solve(assumptions)
            assert_values(solver, result)
            models = brute_force(n, clauses, assumptions)
            assert (result.status is Status.SAT) == bool(models), trial
            if result.status is Status.SAT:
                assert dict(enumerate(map(bool, result.model))) in models, trial
                continue
            assert result.core <= set(assumptions), trial
            assert not brute_force(n, clauses, sorted(result.core)), trial
            unchanged = (len(solver.clauses), len(solver.trail)) == (stored, units)
            returned += solver.ok and unchanged and solver.n_conflicts == conflicts + 1
    assert returned >= 30, returned


def random_assumptions(rng, n):
    vars_ = rng.sample(range(n), rng.randint(1, n))
    return [pos(v) if rng.random() < 0.5 else pos(v) ^ 1 for v in vars_]


def assert_watch_layout(solver):
    """Each stored clause is watched exactly on its first two literals,
    and every watch entry names a stored clause."""
    where = {}
    for lit, wl in enumerate(solver.watches):
        for ci in wl[0::2]:
            assert 0 <= ci < len(solver.clauses), (lit, ci)
            where.setdefault(ci, []).append(lit)
    for ci, clause in enumerate(solver.clauses):
        assert sorted(where.get(ci, [])) == sorted(l ^ 1 for l in clause[:2]), ci


def assert_queue(solver):
    """The decision queue holds every variable once, its two links agree,
    stamps rise strictly from `q_first` to `q_last`, and every variable
    after `q_search` is assigned."""
    order, prev, v = [], -1, solver.q_first
    while v >= 0 and len(order) <= solver.n_vars:
        assert solver.q_prev[v] == prev, v
        order.append(v)
        prev, v = v, solver.q_next[v]
    assert solver.q_last == prev
    assert sorted(order) == list(range(solver.n_vars))
    stamps = [solver.activity[v] for v in order]
    assert all(a < b for a, b in zip(stamps, stamps[1:]))
    after = order[order.index(solver.q_search) + 1 :]
    assert all(solver.vals[pos(v)] >= 0 for v in after)


def assert_values(solver, result=None):
    """Between solves: the two polarities of every variable are both free
    or complementary, and the assigned variables are exactly the level-0
    trail, and every stored clause has two literals to watch or more. A
    SAT model is the value array of its answer: total, agreeing with
    every level-0 value, and satisfying every stored clause."""
    vals, n = solver.vals, solver.n_vars
    assert len(vals) == 2 * n
    assert all(len(clause) >= 2 for clause in solver.clauses)
    assert all((vals[2 * v], vals[2 * v + 1]) in {(_UNDEF, _UNDEF), (0, 1), (1, 0)} for v in range(n))
    assert not solver.trail_lim
    trail = solver.trail
    level0 = {lit >> 1 for lit in trail}
    assert len(level0) == len(trail) and all(vals[lit] == 1 for lit in trail)
    assert {v for v in range(n) if vals[2 * v] != _UNDEF} == level0
    if result is not None and result.status is Status.SAT:
        model = result.model
        assert len(model) == n and set(model) <= {0, 1}
        assert all(model[v] == vals[2 * v] for v in level0)
        assert all(any(model[l >> 1] ^ (l & 1) for l in clause) for clause in solver.clauses)


def test_decision_queue_survives_incremental_use():
    """Blocks of variables join between solves, and learned clauses and
    level-0 units pile up; the queue and the watch layout stay whole and
    every answer stays right."""
    rng = random.Random(1717)
    conflicts = bumped = 0
    for trial in range(80):
        solver = Solver()
        clauses = []
        for _ in range(3):
            solver.new_vars(rng.randint(0 if solver.n_vars else 3, 4))
            n = solver.n_vars
            more = [
                [pos(v) ^ rng.randint(0, 1) for v in rng.sample(range(n), 3)]
                for _ in range(rng.randint(n, 4 * n))
            ]
            if rng.random() < 0.3:
                more.append(random_assumptions(rng, n)[:1])
            for clause in more:
                solver.add_clause(clause)
            clauses += more
            assert_queue(solver)
            assert_values(solver)
            models = brute_force(n, clauses)
            for _ in range(4):
                assumptions = random_assumptions(rng, n)
                before = solver.n_conflicts
                result = solver.solve(assumptions)
                conflicts += solver.n_conflicts - before
                assert_queue(solver)
                assert_values(solver, result)
                assert_watch_layout(solver)
                allowed = [m for m in models if _meets(m, assumptions)]
                assert (result.status is Status.SAT) == bool(allowed), trial
                if result.status is Status.SAT:
                    assert len(result.model) == n and set(result.model) <= {0, 1}
                    model = dict(enumerate(map(bool, result.model)))
                    assert model in models and _meets(model, assumptions), trial
                else:
                    assert result.core <= set(assumptions), trial
                    assert not [m for m in models if _meets(m, result.core)], trial
        bumped += max(solver.activity) >= 0
    # 414 conflicts and 56 solvers that bumped a variable
    assert conflicts >= 350 and bumped >= 50, (conflicts, bumped)


def _meets(model, assumptions) -> bool:
    return all(model[a >> 1] != bool(a & 1) for a in assumptions)


def _count_search(monkeypatch) -> dict:
    """Count every solve of every solver, its conflicts and the clauses
    it learns, as the bench tracer does."""
    counts = {"solves": 0, "conflicts": 0, "learned": 0}
    solve = Solver.solve

    def counted(self, *args, **kwargs):
        conflicts, stored = self.n_conflicts, len(self.clauses)
        try:
            return solve(self, *args, **kwargs)
        finally:
            counts["solves"] += 1
            counts["conflicts"] += self.n_conflicts - conflicts
            counts["learned"] += len(self.clauses) - stored

    monkeypatch.setattr(Solver, "solve", counted)
    return counts


def test_the_search_is_pinned(monkeypatch):
    """Fixed instances and the exact search they take. A kernel change
    that keeps every decision keeps these numbers; one that alters the
    search on purpose updates them and says so."""
    counts = _count_search(monkeypatch)
    circuit, props = gen_counter(5)
    found = oracle.bmc(circuit, props[1], max_depth=17)  # the law: a cex at 2^4 + 1
    assert found.explored_depth == 17 and found.sat_calls == 18
    inputs = "".join(str(bit) for f in found.cex.frames for bit in f.input_values)
    assert inputs == "10" * 17 + "00"
    assert counts == {"solves": 18, "conflicts": 216, "learned": 193}

    counts.update(solves=0, conflicts=0, learned=0)
    circuit, props = gen_counter(6)
    found = oracle.bmc(circuit, props[1], max_depth=33)  # deep enough for a long search
    assert found.explored_depth == 33 and found.sat_calls == 34
    assert counts == {"solves": 34, "conflicts": 1155, "learned": 1102}

    counts.update(solves=0, conflicts=0, learned=0)
    circuit, props = gen_random_circuit(random.Random(4), 3, 10, 80, 5)
    report = run(VerificationTask(circuit, tuple(props), Mode.JA))
    assert [v.status.value for v in report.verdicts] == [
        "HoldsLocal", "FailsLocal", "FailsLocal", "FailsLocal", "HoldsLocal",
    ]
    assert (report.totals.sat_calls, report.totals.clauses_learned) == (77, 13)
    assert counts == {"solves": 77, "conflicts": 29, "learned": 4}
