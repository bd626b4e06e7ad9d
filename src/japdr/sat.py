"""Incremental CDCL SAT solver.

Two-literal watching with blocker literals, first-UIP learning, a VMTF
decision queue (Biere & Fröhlich, "Evaluating CDCL Variable Scoring
Schemes", SAT 2015) and phase saving. No restarts: only a unit backjump
returns a solve to level 0, which then places its assumptions again. All
assumptions go on decision level 1 in one pass, then propagate (Eén &
Sörensson, BMC 2003). One false when placed fails the solve; a level-1
conflict is learned, as a level-0 unit, only if it has a UIP on level 1,
and otherwise returns the assumptions in its graph as the core.

The queue is a doubly linked list of every variable, `q_first` the least
recent and `q_last` the most recent, and `activity[v]` is v's stamp,
strictly rising along it. Every variable after `q_search` is assigned, so
a decision walks from there toward older entries. Conflict analysis
moves the variables it visits to the recent end, in their old order.
`new_vars` puts a block at the old end, its lowest index the most recent,
so earlier blocks and circuit leaves are decided first.

Literals are packed ints: 2*var for the positive phase, 2*var+1 for the
negative one. `vals` is indexed by literal: `vals[lit]` is 1 when lit is
true, 0 when false and `_UNDEF` when its variable is free. Both
polarities are written together, so a model is `vals[0::2]`. `level[v]`
and `reason[v]` mean something only while v is assigned.

`new_vars(n)` allocates a block of variables in one step, and
`add_and` adds the Tseitin clauses of one AND gate, appending them
straight to `clauses` and `watches` in `add_clause`'s layout when its
checks could change nothing.
A clause stays in `clauses` and `watches` once stored, learned or not,
even when a level-0 unit such as a retired activation literal satisfies
it: a satisfied clause never propagates or conflicts.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass


def pos(var: int) -> int:
    return 2 * var


_UNDEF = -1


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # deadline passed, never a verdict


@dataclass
class SolveResult:
    status: Status
    model: list[int] | None = None  # per-var 0/1, total on SAT
    core: frozenset[int] | None = None  # subset of the passed assumptions

    def value(self, lit: int) -> int:
        return self.model[lit >> 1] ^ (lit & 1)


class Solver:
    def __init__(self):
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = []  # lit -> flat [clause, blocker, ...]
        self.vals: list[int] = []  # lit -> 1/0/_UNDEF
        self.level: list[int] = []
        self.reason: list[int] = []  # var -> clause index or _UNDEF (decision)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: list[int] = []  # var -> queue stamp
        self.phase: list[int] = []
        self.q_prev: list[int] = []  # var -> older neighbour or _UNDEF
        self.q_next: list[int] = []  # var -> more recent neighbour or _UNDEF
        self.q_first = self.q_last = self.q_search = _UNDEF
        self.qhead = 0
        self.ok = True
        self.n_vars = 0
        self.n_conflicts = 0
        self._seen: list[bool] = []

    # ------------------------------------------------------------------ setup

    def new_var(self) -> int:
        return self.new_vars(1)

    def new_vars(self, n: int) -> int:
        """Allocate n consecutive variables; returns the first."""
        first = self.n_vars
        self.n_vars += n
        self.vals.extend([_UNDEF] * (2 * n))
        self.level.extend([0] * n)
        self.reason.extend([_UNDEF] * n)
        self.phase.extend([0] * n)
        self._seen.extend([False] * n)
        self.watches.extend([[] for _ in range(2 * n)])
        if not n:
            return first
        # queue order: first + n - 1, ..., first, then the old q_first
        old = self.q_first
        low = self.activity[old] if old >= 0 else 0
        self.activity.extend(range(low - 1, low - 1 - n, -1))
        self.q_prev.extend([*range(first + 1, first + n), _UNDEF])
        self.q_next.extend([old, *range(first, first + n - 1)])
        if old >= 0:
            self.q_prev[old] = first
        else:
            self.q_last = self.q_search = first
        self.q_first = first + n - 1
        return first

    def add_clause(self, lits) -> bool:
        """Add a permanent clause; returns False once the store is unsat.
        Only legal at decision level 0."""
        assert not self.trail_lim, "clauses may only be added between solves"
        if not self.ok:
            return False
        seen = {}
        out = []
        for lit in lits:
            if seen.get(lit ^ 1):
                return True  # tautology
            if not seen.get(lit):
                seen[lit] = True
                v = self.vals[lit]
                if v == 1:
                    return True  # already satisfied at level 0
                if v != 0:
                    out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], _UNDEF)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        idx = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0] ^ 1].extend((idx, out[1]))
        self.watches[out[1] ^ 1].extend((idx, out[0]))
        return True

    def add_and(self, out: int, a: int, b: int) -> None:
        """The clauses of out = a & b for a fresh `out`, laid out as by
        `add_clause`: appended as they are over two free operands on
        distinct variables, through it otherwise (a & ~a, level 0)."""
        vals = self.vals
        if self.ok and vals[a] < 0 and vals[b] < 0 and (a ^ b) > 1:
            clauses, watches = self.clauses, self.watches
            idx = len(clauses)
            nout = out ^ 1
            clauses.append([nout, a])
            clauses.append([nout, b])
            clauses.append([out, a ^ 1, b ^ 1])
            watches[out].extend((idx, a, idx + 1, b))
            watches[nout].extend((idx + 2, a ^ 1))
            watches[a ^ 1].extend((idx, nout))
            watches[b ^ 1].extend((idx + 1, nout))
            watches[a].extend((idx + 2, out))
        else:
            self.add_clause([out ^ 1, a])
            self.add_clause([out ^ 1, b])
            self.add_clause([out, a ^ 1, b ^ 1])

    # ------------------------------------------------------------- main loop

    def _enqueue(self, lit: int, reason: int) -> None:
        v = lit >> 1
        self.vals[lit] = 1
        self.vals[lit ^ 1] = 0
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        clauses = self.clauses
        watches = self.watches
        vals = self.vals
        level = self.level
        reason = self.reason
        trail = self.trail
        lim = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            false_lit = p ^ 1
            wl = watches[p]
            i = out = 0
            n = len(wl)
            while i < n:
                ci = wl[i]
                blocker = wl[i + 1]
                i += 2
                if vals[blocker] == 1:
                    wl[out] = ci
                    wl[out + 1] = blocker
                    out += 2
                    continue
                clause = clauses[ci]
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                fv = vals[first]
                if fv == 1:
                    wl[out] = ci
                    wl[out + 1] = first
                    out += 2
                    continue
                cn = len(clause)
                k = 2
                while k < cn:
                    lk = clause[k]
                    if vals[lk]:  # true or free: watch it instead
                        clause[1] = lk
                        clause[k] = false_lit
                        watches[lk ^ 1].extend((ci, first))
                        break
                    k += 1
                else:
                    wl[out] = ci
                    wl[out + 1] = first
                    out += 2
                    if fv:  # free: unit
                        vals[first] = 1
                        vals[first ^ 1] = 0
                        v = first >> 1
                        level[v] = lim
                        reason[v] = ci
                        trail.append(first)
                    else:  # conflict: keep the remaining watchers
                        del wl[out:i]
                        self.qhead = len(trail)
                        return clause
            del wl[out:]
        self.qhead = qhead
        return None

    def _analyze(self, confl: list[int]):
        """First-UIP conflict analysis; returns (learned clause, backjump
        level), or None (no UIP) when the walk meets a reason-less literal
        with others of its level open: two assumptions on level 1."""
        seen, level, reason, clauses = self._seen, self.level, self.reason, self.clauses
        learnt = [0]  # slot for the asserting literal
        counter = 0
        p = None
        trail = self.trail
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        reason_clause = confl
        bumped = []
        while True:
            start = 0 if p is None else 1
            for lit in reason_clause[start:]:
                v = lit >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    bumped.append(v)
                    if level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(lit)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            v = p >> 1
            seen[v] = False
            counter -= 1
            if counter == 0:
                break
            r = reason[v]
            if r < 0:
                for v in bumped:
                    seen[v] = False
                return None
            reason_clause = clauses[r]
        learnt[0] = p ^ 1
        for lit in learnt[1:]:
            seen[lit >> 1] = True  # keep marked for minimization below

        # cheap self-subsumption: drop literals implied by the rest
        kept = [learnt[0]]
        for lit in learnt[1:]:
            r = reason[lit >> 1]
            if r != _UNDEF:
                for other in clauses[r][1:]:
                    if not seen[other >> 1] and level[other >> 1]:
                        break
                else:
                    continue  # implied by the rest
            kept.append(lit)
        for lit in learnt[1:]:
            seen[lit >> 1] = False

        # every analysed variable moves to the recent end, in its old order
        act, prev, nxt = self.activity, self.q_prev, self.q_next
        last = self.q_last
        stamp = act[last]
        for v in sorted(bumped, key=act.__getitem__):
            stamp += 1
            act[v] = stamp
            if v == last:
                continue
            older, newer = prev[v], nxt[v]
            prev[newer] = older
            if older >= 0:
                nxt[older] = newer
            else:
                self.q_first = newer
            prev[v], nxt[v], nxt[last] = last, _UNDEF, v
            last = v
        self.q_last = last
        if len(kept) == 1:
            return kept, 0
        # move the highest-level remaining literal to the watch position
        best = max(range(1, len(kept)), key=lambda i: level[kept[i] >> 1])
        kept[1], kept[best] = kept[best], kept[1]
        return kept, level[kept[1] >> 1]

    def _analyze_final(self, lits, assumptions: list[int]) -> frozenset[int]:
        """Assumptions in or forcing false `lits`: a failed assumption or
        a level-1 conflict clause."""
        assumption_set = frozenset(assumptions)
        core = {lit for lit in lits if lit in assumption_set}
        seen, level, reason = self._seen, self.level, self.reason
        for lit in lits:
            if level[lit >> 1] > 0:
                seen[lit >> 1] = True
        trail = self.trail
        for i in range(len(trail) - 1, self.trail_lim[0] - 1, -1):
            lit = trail[i]
            v = lit >> 1
            if not seen[v]:
                continue
            seen[v] = False
            if reason[v] == _UNDEF:
                if lit in assumption_set:
                    core.add(lit)
            else:
                for other in self.clauses[reason[v]][1:]:
                    if level[other >> 1] > 0:
                        seen[other >> 1] = True
        return frozenset(core)

    def _cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        trail = self.trail
        vals = self.vals
        phase = self.phase
        act = self.activity
        search = self.q_search
        top = act[search]
        for lit in trail[bound:]:
            v = lit >> 1
            phase[v] = 1 - (lit & 1)
            vals[lit] = vals[lit ^ 1] = _UNDEF
            if act[v] > top:
                search, top = v, act[v]
        self.q_search = search
        del trail[bound:]
        del self.trail_lim[target:]
        self.qhead = min(self.qhead, bound)

    def _pick_branch(self) -> int:
        vals, prev = self.vals, self.q_prev
        v = self.q_search
        while v >= 0 and vals[2 * v] != _UNDEF:
            v = prev[v]
        if v < 0:
            return _UNDEF
        self.q_search = v
        return 2 * v + (0 if self.phase[v] == 1 else 1)

    def solve(self, assumptions=(), deadline: float | None = None) -> SolveResult:
        """Decide satisfiability of the store under the given assumptions.

        Assumptions share level 1; an UNSAT core is a subset of them.
        UNKNOWN is returned only when the deadline runs out; it is never a
        wrong answer.
        """
        assumptions = list(assumptions)
        if not self.ok:
            return SolveResult(Status.UNSAT, core=frozenset())
        trail_lim, vals = self.trail_lim, self.vals
        try:
            while True:
                confl = self._propagate()
                if confl is not None:
                    self.n_conflicts += 1
                    if not trail_lim:
                        self.ok = False
                        return SolveResult(Status.UNSAT, core=frozenset())
                    analysed = self._analyze(confl)
                    if analysed is None:
                        core = self._analyze_final(confl, assumptions)
                        return SolveResult(Status.UNSAT, core=core)
                    learnt, back = analysed
                    self._cancel_until(back)
                    if len(learnt) == 1:
                        self._enqueue(learnt[0], _UNDEF)
                    else:
                        idx = len(self.clauses)
                        self.clauses.append(learnt)
                        self.watches[learnt[0] ^ 1].extend((idx, learnt[1]))
                        self.watches[learnt[1] ^ 1].extend((idx, learnt[0]))
                        self._enqueue(learnt[0], idx)
                    if deadline is not None and self.n_conflicts % 32 == 0:
                        if time.monotonic() > deadline:
                            return SolveResult(Status.UNKNOWN)
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    return SolveResult(Status.UNKNOWN)
                if assumptions and not trail_lim:
                    trail_lim.append(len(self.trail))
                    for p in assumptions:
                        v = vals[p]
                        if v == 0:
                            core = self._analyze_final((p,), assumptions)
                            return SolveResult(Status.UNSAT, core=core)
                        if v < 0:
                            self._enqueue(p, _UNDEF)
                    continue
                lit = self._pick_branch()
                if lit == _UNDEF:
                    return SolveResult(Status.SAT, model=vals[0::2])
                trail_lim.append(len(self.trail))
                self._enqueue(lit, _UNDEF)
        finally:
            self._cancel_until(0)
