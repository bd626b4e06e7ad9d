"""Incremental CDCL SAT solver.

Two-literal watching with blocker literals, first-UIP learning, VSIDS-style
variable activity on an indexed heap, phase saving, and Luby restarts.
Assumptions are handled as forced decisions; failed-assumption analysis
yields an unsat core.

Literals are packed ints: 2*var for the positive phase, 2*var+1 for the
negative one.

`new_vars(n)` allocates a block of variables in one step. A clause that
`add_clause` would store unchanged (no duplicate or complementary
literals, none assigned at level 0) may be appended straight to
`clauses` with its first two literals watched in `watches`, exactly as
`add_clause` lays it out; `encode` does this for fresh Tseitin gates.
`simplify()` drops the clauses satisfied at level 0, such as those of a
retired activation literal, leaving an empty slot for each in `clauses`.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from itertools import compress
from operator import not_


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
        self.assign: list[int] = []  # var -> 0/1/_UNDEF
        self.level: list[int] = []
        self.reason: list[int] = []  # var -> clause index or _UNDEF
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.activity: list[float] = []
        self.phase: list[int] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.heap: list[int] = []  # indexed max-heap of vars by activity
        self.heap_pos: list[int] = []
        self.qhead = 0
        self.ok = True
        self.n_vars = 0
        self.n_conflicts = 0
        self._seen: list[bool] = []

    # ------------------------------------------------------------------ heap

    def _heap_insert(self, v: int) -> None:
        if self.heap_pos[v] >= 0:
            return
        heap = self.heap
        self.heap_pos[v] = len(heap)
        heap.append(v)
        self._sift_up(len(heap) - 1)

    def _sift_up(self, i: int) -> None:
        heap, pos_, act = self.heap, self.heap_pos, self.activity
        v = heap[i]
        a = act[v]
        while i:
            parent = (i - 1) >> 1
            pv = heap[parent]
            if act[pv] >= a:
                break
            heap[i] = pv
            pos_[pv] = i
            i = parent
        heap[i] = v
        pos_[v] = i

    def _heap_pop(self) -> int:
        heap, pos_, act = self.heap, self.heap_pos, self.activity
        v = heap[0]
        pos_[v] = -1
        last = heap.pop()
        n = len(heap)
        if n:
            # sift the last element down from the root
            i = 0
            a = act[last]
            while True:
                left = 2 * i + 1
                if left >= n:
                    break
                right = left + 1
                child = (
                    right
                    if right < n and act[heap[right]] > act[heap[left]]
                    else left
                )
                cv = heap[child]
                if act[cv] <= a:
                    break
                heap[i] = cv
                pos_[cv] = i
                i = child
            heap[i] = last
            pos_[last] = i
        return v

    # ------------------------------------------------------------------ setup

    def new_var(self) -> int:
        return self.new_vars(1)

    def new_vars(self, n: int) -> int:
        """Allocate n consecutive variables; returns the first."""
        first = self.n_vars
        self.n_vars += n
        self.assign.extend([_UNDEF] * n)
        self.level.extend([0] * n)
        self.reason.extend([_UNDEF] * n)
        self.activity.extend([0.0] * n)
        self.phase.extend([0] * n)
        self._seen.extend([False] * n)
        self.watches.extend([[] for _ in range(2 * n)])
        # activity 0 never outranks a parent, so appending keeps heap order
        base = len(self.heap)
        self.heap_pos.extend(range(base, base + n))
        self.heap.extend(range(first, first + n))
        return first

    def value(self, lit: int) -> int:
        a = self.assign[lit >> 1]
        return a if a == _UNDEF else a ^ (lit & 1)

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
                v = self.value(lit)
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

    def simplify(self) -> None:
        """Drop the clauses satisfied at level 0 from `clauses` and
        `watches` (Eén & Sörensson, SAT 2003). A dropped clause leaves an
        empty slot in `clauses`, so no clause index moves. A satisfied
        clause never propagates, and every other watch keeps its place
        in its list, so later solves search exactly as before. Only legal
        between solves. It scans every clause, so callers run it after a
        batch of level-0 facts, never per solve."""
        assert not self.trail_lim, "simplify runs between solves"
        if not self.ok:
            return
        if self._propagate() is not None:
            self.ok = False
            return
        clauses = self.clauses
        true = set(self.trail)
        satisfied = map(not_, map(true.isdisjoint, clauses))
        dropped = set(compress(range(len(clauses)), satisfied))
        if not dropped:
            return
        touched = set()
        for ci in dropped:
            clause = clauses[ci]
            # a clause is watched exactly in the lists of its first two literals
            touched.add(clause[0] ^ 1)
            touched.add(clause[1] ^ 1)
            clauses[ci] = ()
        for lit in touched:
            wl = self.watches[lit]
            pairs = zip(wl[0::2], wl[1::2])
            wl[:] = [x for ci, b in pairs if ci not in dropped for x in (ci, b)]

    # ------------------------------------------------------------- main loop

    def _enqueue(self, lit: int, reason: int) -> None:
        v = lit >> 1
        self.assign[v] = 1 - (lit & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        clauses = self.clauses
        watches = self.watches
        assign = self.assign
        level = self.level
        reason = self.reason
        trail = self.trail
        lim = len(self.trail_lim)
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            false_lit = p ^ 1
            wl = watches[p]
            i = out = 0
            n = len(wl)
            while i < n:
                ci = wl[i]
                blocker = wl[i + 1]
                i += 2
                bv = assign[blocker >> 1]
                if bv >= 0 and bv ^ (blocker & 1):
                    wl[out] = ci
                    wl[out + 1] = blocker
                    out += 2
                    continue
                clause = clauses[ci]
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                fv = assign[first >> 1]
                if fv >= 0 and fv ^ (first & 1):
                    wl[out] = ci
                    wl[out + 1] = first
                    out += 2
                    continue
                moved = False
                cn = len(clause)
                k = 2
                while k < cn:
                    lk = clause[k]
                    av = assign[lk >> 1]
                    if av < 0 or av ^ (lk & 1):
                        clause[1] = lk
                        clause[k] = false_lit
                        watches[lk ^ 1].extend((ci, first))
                        moved = True
                        break
                    k += 1
                if moved:
                    continue
                wl[out] = ci
                wl[out + 1] = first
                out += 2
                if fv < 0:
                    v = first >> 1
                    assign[v] = 1 - (first & 1)
                    level[v] = lim
                    reason[v] = ci
                    trail.append(first)
                else:
                    while i < n:  # conflict: keep the remaining watchers
                        wl[out] = wl[i]
                        wl[out + 1] = wl[i + 1]
                        out += 2
                        i += 2
                    del wl[out:]
                    self.qhead = len(trail)
                    return clause
            del wl[out:]
        return None

    def _bump(self, v: int) -> None:
        act = self.activity[v] + self.var_inc
        self.activity[v] = act
        if act > 1e100:
            scale = 1e-100
            for i in range(self.n_vars):
                self.activity[i] *= scale
            self.var_inc *= scale
        if self.heap_pos[v] >= 0:
            self._sift_up(self.heap_pos[v])

    def _analyze(self, confl: list[int]):
        """First-UIP conflict analysis; returns (learned clause, backjump level)."""
        seen = self._seen
        level = self.level
        learnt = [0]  # slot for the asserting literal
        counter = 0
        p = None
        trail = self.trail
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        reason_clause = confl
        while True:
            start = 0 if p is None else 1
            for lit in reason_clause[start:]:
                v = lit >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
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
            reason_clause = self.clauses[self.reason[v]]
        learnt[0] = p ^ 1
        for lit in learnt[1:]:
            seen[lit >> 1] = True  # keep marked for minimization below

        # cheap self-subsumption: drop literals implied by the rest
        clauses = self.clauses
        reason = self.reason
        kept = [learnt[0]]
        for lit in learnt[1:]:
            r = reason[lit >> 1]
            if r == _UNDEF or not all(
                seen[other >> 1] or level[other >> 1] == 0
                for other in clauses[r][1:]
            ):
                kept.append(lit)
        for lit in learnt[1:]:
            seen[lit >> 1] = False
        if len(kept) == 1:
            return kept, 0
        # move the highest-level remaining literal to the watch position
        best = max(range(1, len(kept)), key=lambda i: level[kept[i] >> 1])
        kept[1], kept[best] = kept[best], kept[1]
        return kept, level[kept[1] >> 1]

    def _analyze_final(self, p: int, assumption_set: frozenset[int]) -> frozenset[int]:
        """Assumptions responsible for forcing the failed assumption `p` false."""
        core = {p}
        if not self.trail_lim:
            return frozenset(core & assumption_set)
        seen = self._seen
        seen[p >> 1] = True
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            v = lit >> 1
            if not seen[v]:
                continue
            if self.reason[v] == _UNDEF:
                if lit in assumption_set:
                    core.add(lit)
            else:
                for other in self.clauses[self.reason[v]][1:]:
                    if self.level[other >> 1] > 0:
                        seen[other >> 1] = True
            seen[v] = False
        seen[p >> 1] = False
        return frozenset(core & assumption_set)

    def _cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        trail = self.trail
        assign = self.assign
        phase = self.phase
        reason = self.reason
        for i in range(len(trail) - 1, bound - 1, -1):
            v = trail[i] >> 1
            phase[v] = assign[v]
            assign[v] = _UNDEF
            reason[v] = _UNDEF
            self._heap_insert(v)
        del trail[bound:]
        del self.trail_lim[target:]
        self.qhead = min(self.qhead, bound)

    def _pick_branch(self) -> int:
        assign = self.assign
        heap = self.heap
        while heap:
            v = self._heap_pop()
            if assign[v] == _UNDEF:
                return 2 * v + (0 if self.phase[v] == 1 else 1)
        return _UNDEF

    def solve(self, assumptions=(), deadline: float | None = None) -> SolveResult:
        """Decide satisfiability of the store under the given assumptions.

        UNKNOWN is returned only when the deadline runs out; it is never a
        wrong answer.
        """
        assumptions = list(assumptions)
        assumption_set = frozenset(assumptions)
        if not self.ok:
            return SolveResult(Status.UNSAT, core=frozenset())
        restart_unit = 100
        luby_index = 1
        restart_budget = restart_unit * _luby(luby_index)
        conflicts_here = 0
        try:
            while True:
                confl = self._propagate()
                if confl is not None:
                    self.n_conflicts += 1
                    conflicts_here += 1
                    if not self.trail_lim:
                        self.ok = False
                        return SolveResult(Status.UNSAT, core=frozenset())
                    learnt, back = self._analyze(confl)
                    self._cancel_until(back)
                    if len(learnt) == 1:
                        self._enqueue(learnt[0], _UNDEF)
                    else:
                        idx = len(self.clauses)
                        self.clauses.append(learnt)
                        self.watches[learnt[0] ^ 1].extend((idx, learnt[1]))
                        self.watches[learnt[1] ^ 1].extend((idx, learnt[0]))
                        self._enqueue(learnt[0], idx)
                    self.var_inc /= self.var_decay
                    if deadline is not None and self.n_conflicts % 32 == 0:
                        if time.monotonic() > deadline:
                            return SolveResult(Status.UNKNOWN)
                    continue
                if deadline is not None and time.monotonic() > deadline:
                    return SolveResult(Status.UNKNOWN)
                if conflicts_here >= restart_budget:
                    conflicts_here = 0
                    luby_index += 1
                    restart_budget = restart_unit * _luby(luby_index)
                    self._cancel_until(0)
                    continue
                depth = len(self.trail_lim)
                if depth < len(assumptions):
                    p = assumptions[depth]
                    v = self.value(p)
                    if v == 1:
                        self.trail_lim.append(len(self.trail))  # dummy level
                    elif v == 0:
                        core = self._analyze_final(p, assumption_set)
                        return SolveResult(Status.UNSAT, core=core)
                    else:
                        self.trail_lim.append(len(self.trail))
                        self._enqueue(p, _UNDEF)
                    continue
                lit = self._pick_branch()
                if lit == _UNDEF:
                    model = self.assign.copy()
                    return SolveResult(Status.SAT, model=model)
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, _UNDEF)
        finally:
            self._cancel_until(0)


def _luby(x: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    size, seq = 1, 0
    while size < x:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x - 1:
        size = (size - 1) // 2
        seq -= 1
        x = ((x - 1) % size) + 1
    return 1 << seq
