"""Persistent strengthening-clause store.

Clauses proven as part of an inductive invariant for one property are
worth trying on the next one, but each local proof runs under a
constraint context of its own, and a clause true on every state one
context reaches may be false on a state another reaches. Blind seeding
could therefore manufacture false proofs. Three guards make re-use
sound. A record certified under context C holds on every state reachable
while C stays clean, so a check of target T under assumed set D trusts
it whenever C ⊆ D ∪ {T}: such a check only reaches states that keep D
and T clean before its last. Every other record must re-earn invariance
under the current context through a SAT fixpoint first. And every Holds
outcome built on seeds is certified from scratch.

File format, line oriented text: one section per circuit, each opened by
the exact header `japdr-clausedb v1 <fingerprint> <width>` (one past the
highest latch position its records name), then one record per line:

    <context indices, comma separated, or -> <origin> <signed literals>

Signed literals are 1-based latch positions, negative for "latch is 0".
The store is append-only and every write ends on a newline, so a final
line without one is a record a killed writer left half written: `load`
drops it with a warning, and the next `append` cuts it off before
writing. `append` holds an exclusive advisory lock (`flock`) on the file
from that check to the end of its write, so concurrent writers queue and
each section lands whole.
"""

from __future__ import annotations

import fcntl
import os
import warnings
from dataclasses import dataclass

from .aiger import circuit_fingerprint
from .circuit import Circuit, PropertySpec
from .pdr import PdrStats, StepHolder, clause_holds, houdini_round

_HEADER = "japdr-clausedb v1"


class ClauseDbError(ValueError):
    pass


@dataclass(frozen=True)
class ClauseRecord:
    clause: tuple[int, ...]  # packed latch literals, sorted
    origin: int  # property whose proof produced the clause
    context: tuple[int, ...]  # property indices assumed during that proof
    fingerprint: str  # canonical ASCII emission hash of the circuit

    def __post_init__(self):
        object.__setattr__(self, "clause", tuple(sorted(self.clause)))
        object.__setattr__(self, "context", tuple(sorted(self.context)))
        if not self.clause:
            raise ClauseDbError("empty clause record")


def _signed(lit: int) -> str:
    v = (lit >> 1) + 1
    return str(v) if not lit & 1 else str(-v)


def _digits(token: str, error: str, signed: bool = False) -> int:
    # ASCII digits only, after a leading `-` if `signed`: `int` would
    # also take `+`, underscores and other scripts' digits
    body = token[1:] if signed and token.startswith("-") else token
    if not (body.isascii() and body.isdigit()):
        raise ClauseDbError(error)
    return int(token)


def _unsigned(token: str, num_latches: int, where: str) -> int:
    value = _digits(token, f"{where}: malformed literal {token!r}", signed=True)
    if value == 0 or abs(value) > num_latches:
        raise ClauseDbError(f"{where}: literal {token} out of range 1..{num_latches}")
    return 2 * (abs(value) - 1) + (0 if value > 0 else 1)


def append(records, path) -> None:
    """Add records after whatever the file holds, as one section per
    circuit in first-seen order; record order is kept, so appending a
    load to a fresh path reproduces the file byte for byte. Blocks while
    another writer holds the file's lock."""
    records = list(records)
    if not records:
        return
    groups: dict[str, list[ClauseRecord]] = {}
    for rec in records:
        groups.setdefault(rec.fingerprint, []).append(rec)
    lines = []
    for fingerprint, group in groups.items():
        width = max(max(l >> 1 for l in rec.clause) for rec in group) + 1
        lines.append(f"{_HEADER} {fingerprint} {width}")
        for rec in group:
            ctx = ",".join(str(i) for i in rec.context) if rec.context else "-"
            lits = " ".join(_signed(l) for l in rec.clause)
            lines.append(f"{ctx} {rec.origin} {lits}")
    with open(path, "ab+") as fh:
        # released when the file closes, after the write is flushed
        fcntl.flock(fh, fcntl.LOCK_EX)
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                # a torn last record would swallow the new header
                fh.seek(0)
                fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def load(path, fingerprint: str) -> tuple[ClauseRecord, ...]:
    """Records for the given circuit; sections for other circuits are
    skipped with a warning, and so is a torn last record; anything else
    malformed is an error. A byte outside ASCII reads as U+FFFD, which
    no field accepts, so it fails only where a field is parsed."""
    with open(path, "rb") as fh:
        raw = fh.read().decode("ascii", "replace")
    if raw and not raw.endswith("\n"):
        raw, _, torn = raw.rpartition("\n")
        warnings.warn(f"{path}: torn last record {torn!r} dropped", stacklevel=2)
    out: list[ClauseRecord] = []
    section_fp: str | None = None
    section_width = 0
    skipped: set[str] = set()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("japdr-clausedb"):
            parts = line.split()
            if len(parts) != 4 or " ".join(parts[:2]) != _HEADER:
                raise ClauseDbError(f"line {lineno}: unsupported header {line!r}")
            section_fp = parts[2]
            section_width = _digits(parts[3], f"line {lineno}: bad latch count {parts[3]!r}")
            if section_fp != fingerprint and section_fp not in skipped:
                skipped.add(section_fp)
                warnings.warn(
                    f"{path}: section for unknown circuit {section_fp[:12]} skipped",
                    stacklevel=2,
                )
            continue
        if section_fp is None:
            raise ClauseDbError(f"line {lineno}: record before any header")
        if section_fp != fingerprint:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ClauseDbError(f"line {lineno}: truncated record {line!r}")
        where = f"line {lineno}"
        if parts[0] == "-":
            context: tuple[int, ...] = ()
        else:
            error = f"{where}: bad context {parts[0]!r}"
            context = tuple(_digits(t, error) for t in parts[0].split(","))
        origin = _digits(parts[1], f"{where}: bad origin {parts[1]!r}")
        clause = tuple(_unsigned(t, section_width, where) for t in parts[2:])
        out.append(ClauseRecord(clause, origin, context, section_fp))
    return tuple(out)


def _holds_at_reset(clause, init) -> bool:
    if any(l >> 1 >= len(init) for l in clause):
        raise ClauseDbError(f"clause literal out of range: {clause}")
    return clause_holds(init, clause)


def filter_invariant(
    candidates,
    circuit: Circuit,
    constraint_props,
    *,
    stats: PdrStats | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Greatest fixpoint of mutually inductive candidates (Houdini,
    Flanagan & Leino, FME 2001). Duplicates collapse to their first
    occurrence and clauses false at reset go; then `pdr.houdini_round`s
    run on a fresh step constrained by the constraint section and the
    constraint properties until one drops nothing, so an inductive set
    costs one query per clause. Every survivor holds on every state the
    constrained system can reach; output order follows input order.
    Each query is an `ask` on `stats`: out of budget it raises
    `pdr.Exhausted`, since an early stop could keep non-invariants.
    """
    init = circuit.init_state()
    unique = dict.fromkeys(tuple(sorted(c)) for c in candidates if c)
    alive = [cl for cl in unique if _holds_at_reset(cl, init)]
    if not alive:
        return ()
    enc = StepHolder().step(circuit, constraint_props)
    stats = stats or PdrStats()
    while True:
        kept = houdini_round(enc, alive, None, stats)
        if len(kept) == len(alive):
            return tuple(kept)
        alive = kept


def seeds_for_context(
    records,
    circuit: Circuit,
    fingerprint: str,
    target: PropertySpec,
    constraint_props,
    *,
    stats: PdrStats | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Seed clauses for the check of `target` under `constraint_props`,
    by the trust rule above: records of other circuits are ignored,
    trusted ones kept less any clause false at reset, and the rest
    passed through `filter_invariant`."""
    cover = {target.index, *(p.index for p in constraint_props)}
    init = circuit.init_state()
    trusted: list[tuple[int, ...]] = []
    rest: list[tuple[int, ...]] = []
    for rec in records:
        if rec.fingerprint != fingerprint:
            continue
        if not cover.issuperset(rec.context):
            rest.append(rec.clause)
        elif _holds_at_reset(rec.clause, init):
            trusted.append(rec.clause)
    filtered = filter_invariant(rest, circuit, constraint_props, stats=stats) if rest else ()
    return tuple(dict.fromkeys((*trusted, *filtered)))


class ClauseStore:
    """A run's record pool, the one reader and writer of the file: the
    circuit's section of `path` (if given; opening it for append first
    creates it, so an unwritable path fails before any check), less any
    record naming a latch the circuit lacks, plus each harvest's new
    (clause, context) pairs, each written through as one `append`."""

    def __init__(self, circuit: Circuit, path):
        self.circuit, self.path = circuit, path
        self.fingerprint = circuit_fingerprint(circuit)
        self.records: list[ClauseRecord] = []
        if path:
            open(path, "ab").close()
            loaded = load(path, self.fingerprint)
            nl = circuit.num_latches
            self.records = [r for r in loaded if r.clause[-1] < 2 * nl]
            if len(self.records) < len(loaded):
                n = len(loaded) - len(self.records)
                warnings.warn(f"{path}: {n} records past the circuit's {nl} latches dropped")
        self.known = {(r.clause, r.context) for r in self.records}

    def seeds(self, target, ctx, stats) -> tuple[tuple[int, ...], ...]:
        if not self.records:
            return ()
        return seeds_for_context(
            self.records, self.circuit, self.fingerprint, target, ctx, stats=stats
        )

    def harvest(self, target: PropertySpec, ctx, invariant) -> None:
        if not invariant:
            return
        context = tuple(sorted(p.index for p in ctx))
        new = []
        for clause in invariant:
            rec = ClauseRecord(clause, target.index, context, self.fingerprint)
            if (rec.clause, rec.context) not in self.known:
                self.known.add((rec.clause, rec.context))
                new.append(rec)
        self.records.extend(new)
        if self.path:
            append(new, self.path)
