"""Multi-property verification runs.

One driver, `run`, serves every mode from one worklist of property
groups. The modes differ only in the properties a check assumes on
non-final frames and in how the expected-to-hold properties are grouped.
In JA mode each is a group of its own and assumes every other one; in
separate-global mode each is a group of its own and assumes none; in
joint mode they form one group, checked as the aggregate "some bad
fires" under no assumptions. A counterexample to an aggregate decides
the members whose bad fires on its final frame, and the rest go back to
the front of the worklist as a smaller group, down to a lone survivor,
checked like a separate-global one. Expected-to-fail properties come
last, each a group of its own assuming every expected-to-hold property:
a counterexample demonstrates the failure without breaking any expected
behavior before its final frame; a proof is flagged, the expectation
was wrong.

Before the worklist, one `circuit.first_failures` run simulates from
reset with every expected-to-hold property assumed, the strongest
context of any check, so a trace it finds is valid in its target's own
context. Each such trace decides its property once replayed, with 0 SAT
calls and 0 frames; the worklist holds the rest, and in joint mode the
aggregate is built from them. Once the run deadline has passed no trace
is taken, and its property is Unknown like any check begun past it.

A one-property group takes its seeds from the run's
`clausedb.ClauseStore`, runs, becomes a verdict and hands its invariant
back to the store; the `clausedb` docstring gives the rule the store
trusts records by, under which a JA pass seeds each check from its
siblings' proofs with no filtering at all. An aggregate neither seeds
nor harvests: its index, one past its members', may be another
property's, whose records it does not assume.

In JA mode the properties that still fail form the debugging set; if it
is empty the local proofs jointly imply the global claim, so every
expected-to-hold verdict is upgraded.

Every check lifts its predecessors with the target and every assumed
property kept clean, so a counterexample breaks nothing it assumes
before its final frame. Every trace, simulated or not, is replayed under
its property's context; one that is invalid or spurious is an engine
error. Every proof comes certified on the run's certificate solver by
`pdr.check_property`, which owns the proof rule; a proof it cannot
certify is an engine error. An engine error, or an aggregate
counterexample that refutes no member, makes every property of its
group an Error verdict; the other groups are still checked, the JA
upgrade does not fire, and the run is reported incomplete.

Every verdict, Error and Unknown included, reports the time, frames and
SAT calls of its check; each verdict an aggregate decides reports that
whole check, and the run totals count every check once.

Each run keeps two `pdr.StepHolder`s and hands them to every check, so
consecutive checks over one property set share one step solver of each.
In JA mode every expected-to-hold check steps through the same relation,
so one certificate solver decides every already-inductive check and
certifies every engine proof of the pass, and one engine solver answers
every consecution query, each engine's frames behind literals it
retires when it ends; the other modes get fresh ones with every check.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace

from .circuit import (
    AndGate,
    Circuit,
    Counterexample,
    Literal,
    PropertyKind,
    PropertySpec,
    eval_circuit,
    eval_literal,
    first_failures,
    replay_trace,
)
from .clausedb import ClauseStore
from .pdr import (
    Exhausted,
    PdrError,
    PdrStats,
    PdrStatus,
    StepHolder,
    check_property,
)


class Mode(enum.Enum):
    JA = "ja"
    JOINT = "joint"
    SEPARATE_GLOBAL = "separate-global"


class VerdictStatus(enum.Enum):
    HOLDS_LOCAL = "HoldsLocal"
    FAILS_LOCAL = "FailsLocal"
    HOLDS_GLOBAL = "HoldsGlobal"
    FAILS_GLOBAL = "FailsGlobal"
    ETF_CONFIRMED = "EtfConfirmed"
    ETF_HOLDS_LOCAL = "EtfHoldsLocal"
    UNKNOWN = "Unknown"
    ERROR = "Error"


@dataclass(frozen=True)
class TaskOptions:
    reuse_clauses: bool = False
    clause_db: str | None = None
    per_prop_timeout_s: float | None = None
    total_timeout_s: float | None = None


@dataclass(frozen=True)
class VerificationTask:
    circuit: Circuit
    properties: tuple[PropertySpec, ...]
    mode: Mode
    options: TaskOptions = field(default_factory=TaskOptions)

    def __post_init__(self):
        object.__setattr__(self, "properties", tuple(self.properties))
        opts = self.options
        if opts.clause_db is not None and not opts.reuse_clauses:
            raise ValueError("a clause db needs clause re-use on")
        for name in ("per_prop_timeout_s", "total_timeout_s"):
            value = getattr(opts, name)
            if value is not None and not value > 0:  # NaN too
                raise ValueError(f"{name} must be positive")
        seen = set()
        for p in self.properties:  # verdicts, traces and clause records are keyed by index
            if p.index in seen or p.index < 0:
                raise ValueError(f"property index {p.index} is repeated or negative")
            if not 0 <= p.bad.var < self.circuit.num_vars:
                raise ValueError(f"property {p.index}: {p.bad} is not in the circuit")
            seen.add(p.index)

    @property
    def eth_properties(self) -> tuple[PropertySpec, ...]:
        return tuple(p for p in self.properties if p.kind is PropertyKind.ETH)

    @property
    def etf_properties(self) -> tuple[PropertySpec, ...]:
        return tuple(p for p in self.properties if p.kind is PropertyKind.ETF)


@dataclass
class Verdict:
    property_index: int
    status: VerdictStatus
    evidence: object = None  # clause count on holds, Counterexample on fails,
    # the error message on Error
    wall_s: float = 0.0
    frames: int = 0
    sat_calls: int = 0
    retried_respect: bool = False  # always False: every check lifts in respect mode
    seeds_used: int = 0  # seeds behind the reported outcome; 0 once they are dropped


@dataclass(frozen=True)
class RunTotals:
    wall_s: float
    sat_calls: int
    clauses_learned: int


@dataclass(frozen=True)
class RunReport:
    task: VerificationTask
    verdicts: tuple[Verdict, ...]  # property-index order
    debugging_set: tuple[int, ...]
    conclusion: str
    totals: RunTotals


def _check_one(
    circuit: Circuit,
    target: PropertySpec,
    ctx,
    stats: PdrStats,
    holds: VerdictStatus,
    fails: VerdictStatus,
    steps: StepHolder,
    certs: StepHolder,
    store: ClauseStore | None,
    cex: Counterexample | None = None,
) -> Verdict:
    """One property, end to end: seeds, solve, replay the trace or
    harvest the proof; given a simulated `cex`, only the replay. `stats`
    is the check's budget: its deadline bounds all of it, and the seed
    filter, engines and certificate count into it, so the verdict
    reports them however the check ends. `check_property` runs the
    engines on the step solver of `steps` and decides or certifies every
    proof on that of `certs`. `store` is None for an aggregate and
    without clause re-use.

    The status is `holds` or `fails` once the check is decided, Unknown
    once the deadline passes (seeds are not looked up past it), and
    Error on an engine error: an invalid or spurious trace, or a proof
    `check_property` could not certify. This is the one handler of
    `Exhausted`, whether the seed filter, `check_property` or the check's
    own start raised it."""
    t0 = time.monotonic()
    verdict = Verdict(target.index, VerdictStatus.UNKNOWN)
    try:
        if stats.deadline is not None and t0 >= stats.deadline:
            raise Exhausted("the deadline passed before the check began")
        if cex is None:
            seeds = store.seeds(target, ctx, stats) if store is not None else ()
            verdict.seeds_used = len(seeds)
            out = check_property(
                circuit, target, ctx, seeds, stats=stats, steps=steps, certs=certs
            )
            verdict.seeds_used = out.seeds_used
            if out.status is PdrStatus.HOLDS:
                verdict.status, verdict.evidence = holds, len(out.invariant)
                if store is not None:
                    store.harvest(target, ctx, out.invariant)
            cex = out.cex  # None unless refuted
        if cex is not None:
            rep = replay_trace(circuit, cex, target, ctx)
            if not rep.valid or rep.spurious:
                kind = "a spurious" if rep.valid else "an invalid"
                raise PdrError(f"engine returned {kind} trace for property {target.index}")
            verdict.status, verdict.evidence = fails, cex
    except Exhausted:
        pass  # Unknown
    except PdrError as err:
        verdict.status, verdict.evidence = VerdictStatus.ERROR, str(err)
    verdict.wall_s = time.monotonic() - t0
    verdict.frames, verdict.sat_calls = stats.frames_opened, stats.sat_calls
    return verdict


def _prop_deadline(opts: TaskOptions, total_deadline: float | None) -> float | None:
    if opts.per_prop_timeout_s is None:
        return total_deadline
    local = time.monotonic() + opts.per_prop_timeout_s
    return local if total_deadline is None else min(total_deadline, local)


def _conclusion(task, verdicts_by_index) -> str:
    eth = [verdicts_by_index[p.index] for p in task.eth_properties]
    counts = {}
    for v in verdicts_by_index.values():
        counts[v.status] = counts.get(v.status, 0) + 1
    errors = sorted(
        i for i, v in verdicts_by_index.items() if v.status is VerdictStatus.ERROR
    )
    if errors:
        head = "incomplete: engine error on " + ", ".join(f"P{i}" for i in errors)
    elif eth and all(v.status is VerdictStatus.HOLDS_GLOBAL for v in eth):
        head = "all expected-to-hold properties hold globally"
    elif any(v.status is VerdictStatus.UNKNOWN for v in eth):
        head = "incomplete: some properties ran out of budget"
    else:
        failing = sorted(
            v.property_index for v in eth
            if v.status in (VerdictStatus.FAILS_LOCAL, VerdictStatus.FAILS_GLOBAL)
        )
        if failing:
            head = "failing properties: " + ", ".join(f"P{i}" for i in failing)
        else:
            head = "no expected-to-hold properties"
    parts = [f"{n} {s.value}" for s, n in sorted(counts.items(), key=lambda kv: kv[0].value)]
    return head + " (" + ", ".join(parts) + ")"


def aggregate_bad(circuit: Circuit, props) -> tuple[Circuit, PropertySpec]:
    """Circuit extended with a gate tree for `any of these bads fires`.

    Latches, inputs, and existing gates are untouched, so traces carry
    over between the two circuits frame for frame.
    """
    props = list(props)
    if not props:
        raise ValueError("aggregate of no properties")
    ands = list(circuit.ands)
    nxt = circuit.num_vars
    acc = ~props[0].bad
    for p in props[1:]:
        ands.append(AndGate(nxt, acc, ~p.bad))
        acc = Literal(nxt)
        nxt += 1
    extended = Circuit(
        circuit.num_inputs, circuit.latches, tuple(ands),
        circuit.bads, circuit.constraints,
    )
    index = max((p.index for p in props), default=0) + 1
    return extended, PropertySpec(index, ~acc, PropertyKind.ETH)


def _assumed(task: VerificationTask, prop: PropertySpec) -> tuple[PropertySpec, ...]:
    """The properties a check of `prop` assumes on non-final frames."""
    eth = task.eth_properties
    if prop.kind is PropertyKind.ETF:
        return eth
    if task.mode is Mode.JA:
        return tuple(p for p in eth if p.index != prop.index)
    return ()


def run(task: VerificationTask) -> RunReport:
    """Check every property of the task from one worklist of groups, each
    property under `_assumed(task, p)`.

    The properties `first_failures` finds a trace for come first, each
    a group of its own that only replays it. Then each expected-to-hold
    property is a group of its own, in the task's order, except in
    joint mode, where they form one group; each expected-to-fail
    property follows as a group of its own. A group of several is
    checked as its `aggregate_bad`: a counterexample decides the members
    whose bad fires on its final frame and puts the rest back at the
    front, and any other outcome decides the whole group; one that
    refutes no member is an Error verdict for all of them. Only
    one-property groups get the clause store: an aggregate's index may
    name another property. `_check_one` hands back every outcome, an
    engine error included, as a verdict, so the loop has no error path.
    In JA mode an empty debugging set upgrades every expected-to-hold
    verdict to HoldsGlobal.
    """
    opts = task.options
    t0 = time.monotonic()
    total_deadline = t0 + opts.total_timeout_s if opts.total_timeout_s else None
    circuit = task.circuit
    store = ClauseStore(circuit, opts.clause_db) if opts.reuse_clauses else None
    steps, certs = StepHolder(), StepHolder()
    verdicts: dict[int, Verdict] = {}
    sat_calls = learned = 0
    for simulated in first_failures(circuit, task.eth_properties, task.properties):
        if total_deadline is not None and time.monotonic() >= total_deadline:
            break
    pending = [p for p in task.eth_properties if p.index not in simulated]
    work = [[p] for p in task.properties if p.index in simulated]
    work += [pending] if task.mode is Mode.JOINT and pending else [[p] for p in pending]
    work += [[p] for p in task.etf_properties if p.index not in simulated]
    while work:
        group = work.pop(0)
        prop = group[0]
        if prop.kind is PropertyKind.ETF:
            outcomes = VerdictStatus.ETF_HOLDS_LOCAL, VerdictStatus.ETF_CONFIRMED
        elif task.mode is Mode.JA:
            outcomes = VerdictStatus.HOLDS_LOCAL, VerdictStatus.FAILS_LOCAL
        else:
            outcomes = VerdictStatus.HOLDS_GLOBAL, VerdictStatus.FAILS_GLOBAL
        ctx = _assumed(task, prop)
        stats = PdrStats(deadline=_prop_deadline(opts, total_deadline))
        one = len(group) == 1
        checked = (circuit, prop) if one else aggregate_bad(circuit, group)
        v = _check_one(
            *checked, ctx, stats, *outcomes, steps, certs, store if one else None,
            simulated.get(prop.index) if one else None,
        )
        sat_calls += v.sat_calls
        learned += stats.clauses_learned
        decided = group
        if v.status is outcomes[1] and len(group) > 1:
            values = eval_circuit(circuit, v.evidence.frames[-1])
            decided = [p for p in group if eval_literal(values, p.bad)]
            if not decided:
                v.status = VerdictStatus.ERROR
                v.evidence = "aggregate counterexample refutes no property"
                decided = group
        for p in decided:
            evidence = v.evidence
            if isinstance(evidence, Counterexample):
                evidence = Counterexample(evidence.frames, p.index)
            verdicts[p.index] = replace(v, property_index=p.index, evidence=evidence)
        rest = [p for p in group if p not in decided]
        if rest:
            work.insert(0, rest)
    eth = task.eth_properties
    if task.mode is Mode.JA and eth and all(
        verdicts[p.index].status is VerdictStatus.HOLDS_LOCAL for p in eth
    ):
        for p in eth:
            verdicts[p.index].status = VerdictStatus.HOLDS_GLOBAL
    ordered = tuple(verdicts[i] for i in sorted(verdicts))
    debugging = tuple(
        v.property_index for v in ordered if v.status is VerdictStatus.FAILS_LOCAL
    )
    totals = RunTotals(time.monotonic() - t0, sat_calls, learned)
    return RunReport(task, ordered, debugging, _conclusion(task, verdicts), totals)
