"""The benchmark's four workloads: input generation, the timed pass and the
correctness check of its outputs.

Every workload drives the same public calls as `japdr check`:
`aiger.parse` on the file bytes, `orchestrator.run` on a
`VerificationTask`, then `report.format_report(..., "json")` and
`report.validate_report_json` on the parsed document. `bmc-deep` calls
`oracle.bmc` instead, as `japdr bmc` does. No workload sets a wall-clock
budget, so every count is a pure function of the code and the seed.

The `--seed` only shuffles the order in which a workload presents its
fixed units: the bad outputs in the threshold files, the systems of the
random batch, the two queries of the BMC pair. The verdicts, and thus the
references they are checked against, do not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
RANDOM_REFS = os.path.join(HERE, "refs_random_ja.json")

RANDOM_GEN = {"seed": 7, "systems": 30, "inputs": 3, "latches": 14, "gates": 120, "props": 6}
BMC_BITS = 6


@dataclass
class Inputs:
    """What set-up hands to the timed pass and to the checker."""

    files: list  # AIGER bytes, one per checked system
    expected: list  # per file: the reference the outputs are checked against
    ops_per_pass: int
    notes: list = field(default_factory=list)


@dataclass
class PassResult:
    """Raw outputs of one timed pass, checked after the clock stops."""

    outputs: list
    sat_calls: int = 0
    respect_retries: int = 0
    seeds_used: int = 0


def structure_key(circuit) -> str:
    """Hash of the circuit's structure, computed by the benchmark itself so
    stored references do not hinge on the program's own fingerprint."""
    def lit(l):
        return 2 * l.var + int(l.negated)

    text = repr((
        circuit.num_inputs,
        [(l.var, lit(l.next), l.init) for l in circuit.latches],
        [(g.out, lit(g.left), lit(g.right)) for g in circuit.ands],
        [lit(b) for b in circuit.bads],
        [lit(c) for c in circuit.constraints],
    ))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_reference(jp, circuit, props) -> dict:
    """Explicit-state verdicts: the local check of every property and the
    debugging set, from one tabulated model."""
    model = jp.oracle.ExplicitModel(circuit)
    local = [
        model.brute_check(props, p.index, jp.oracle.CheckMode.LOCAL).holds
        for p in props
    ]
    return {"local_holds": local, "debug_set": sorted(model.brute_debug_set(props))}


def random_systems(jp):
    rng = random.Random(RANDOM_GEN["seed"])
    return [
        jp.aiger.gen_random_circuit(
            rng,
            num_inputs=RANDOM_GEN["inputs"],
            num_latches=RANDOM_GEN["latches"],
            num_gates=RANDOM_GEN["gates"],
            num_props=RANDOM_GEN["props"],
        )
        for _ in range(RANDOM_GEN["systems"])
    ]


def load_random_refs() -> dict:
    try:
        with open(RANDOM_REFS, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {}
    if doc.get("generator") != RANDOM_GEN:
        return {}
    return {entry["key"]: entry for entry in doc["systems"]}


# ------------------------------------------------------------------ inputs


def _threshold_inputs(jp, seed: int, bits: int, count: int) -> Inputs:
    circuit = jp.aiger.build_counter(bits, thresholds=count).circuit
    order = list(range(count))
    random.Random(seed).shuffle(order)
    shuffled = jp.circuit.Circuit(
        circuit.num_inputs,
        circuit.latches,
        circuit.ands,
        tuple(circuit.bads[i] for i in order),
        circuit.constraints,
    )
    # every threshold is an invariant under the req = 1 constraint
    expected = {"all_hold_global": True}
    return Inputs([jp.aiger.emit_binary(shuffled)], [expected], count)


def _random_inputs(jp, seed: int, derived: dict) -> Inputs:
    """`derived` keeps the references the oracle had to make, so repeated
    set-ups in one process pay for them once."""
    refs = {**load_random_refs(), **derived}
    systems = random_systems(jp)
    files, expected, notes = [], [], []
    for n, (circuit, props) in enumerate(systems):
        key = structure_key(circuit)
        ref = refs.get(key)
        if ref is None:
            ref = {"key": key, **oracle_reference(jp, circuit, props)}
            derived[key] = ref
            notes.append(f"system {n}: no stored reference, derived with the oracle")
        files.append(jp.aiger.emit_binary(circuit))
        expected.append(ref)
    order = list(range(len(files)))
    random.Random(seed).shuffle(order)
    return Inputs(
        [files[i] for i in order],
        [expected[i] for i in order],
        RANDOM_GEN["props"] * len(files),
        notes,
    )


def _bmc_inputs(jp, seed: int) -> Inputs:
    circuit, _ = jp.aiger.gen_counter(BMC_BITS)
    law = 1 << (BMC_BITS - 1)  # shortest violation of P1 sits at law + 1
    depths = [law, law + 1]
    random.Random(seed).shuffle(depths)
    expected = [{"depth": d, "cex_depth": law + 1 if d > law else None} for d in depths]
    return Inputs([jp.aiger.emit_binary(circuit)], expected, len(depths))


# ------------------------------------------------------------ timed passes


def _check_pass(jp, inputs: Inputs, mode_name: str, opts) -> PassResult:
    orch, report = jp.orchestrator, jp.report
    mode = orch.Mode[mode_name]
    res = PassResult([])
    for data in inputs.files:
        circuit, props = jp.aiger.parse(data)
        rep = orch.run(orch.VerificationTask(circuit, tuple(props), mode, opts(len(res.outputs))))
        text, _ = report.format_report(rep, "json")
        problems = report.validate_report_json(json.loads(text))
        res.outputs.append((circuit, props, rep, problems))
    return res


def _bmc_pass(jp, inputs: Inputs) -> PassResult:
    circuit, props = jp.aiger.parse(inputs.files[0])
    res = PassResult([])
    for exp in inputs.expected:
        out = jp.oracle.bmc(circuit, props[1], max_depth=exp["depth"])
        res.outputs.append((circuit, props[1], out))
    return res


# ----------------------------------------------------------------- checks


def _fails_replay(jp, circuit, props, verdict) -> bool:
    target = props[verdict.property_index]
    ctx = [p for p in props if p.index != target.index]
    rep = jp.circuit.replay_trace(circuit, verdict.evidence, target, ctx)
    return rep.valid and not rep.spurious


def check_reports(jp, inputs: Inputs, res: PassResult) -> int:
    """Failed operations of one checking pass; fills in the pass's counts."""
    status = jp.orchestrator.VerdictStatus
    failed = 0
    for (circuit, props, rep, problems), exp in zip(res.outputs, inputs.expected):
        res.sat_calls += rep.totals.sat_calls
        res.respect_retries += sum(v.retried_respect for v in rep.verdicts)
        res.seeds_used += sum(v.seeds_used for v in rep.verdicts)
        if problems or len(rep.verdicts) != len(props):
            failed += len(props)
            continue
        if "all_hold_global" in exp:
            want = [status.HOLDS_GLOBAL] * len(props)
            want_debug = []
        else:
            want_debug = exp["debug_set"]
            if not want_debug:
                want = [status.HOLDS_GLOBAL] * len(props)
            else:
                want = [
                    status.HOLDS_LOCAL if holds else status.FAILS_LOCAL
                    for holds in exp["local_holds"]
                ]
        if list(rep.debugging_set) != want_debug:
            failed += len(props)
            continue
        for v, w in zip(rep.verdicts, want):
            ok = v.status is w
            if ok and v.status is status.FAILS_LOCAL:
                ok = _fails_replay(jp, circuit, props, v)
            failed += not ok
    return failed


def check_bmc(jp, inputs: Inputs, res: PassResult) -> int:
    failed = 0
    for (circuit, target, out), exp in zip(res.outputs, inputs.expected):
        res.sat_calls += out.sat_calls
        if out.timed_out:
            failed += 1
        elif exp["cex_depth"] is None:
            failed += not (out.cex is None and out.explored_depth == exp["depth"])
        else:
            ok = out.cex is not None and out.cex.depth == exp["cex_depth"]
            if ok:
                ok = out.cex.violated_property == target.index
                ok = ok and jp.circuit.replay_trace(circuit, out.cex, target).valid
            failed += not ok
    return failed


# -------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """Sizes, modes and the reason for each workload are in DESIGN.md."""

    name: str
    make_inputs: object  # (jp, seed, cache) -> Inputs
    run_pass: object  # (jp, inputs, workdir) -> PassResult
    check: object  # (jp, inputs, PassResult) -> failed count


def _db_opts(jp, workdir, tag):
    """JA with re-use on and a fresh clause-db file per checked system."""
    def opts(n):
        path = os.path.join(workdir, f"{tag}-{n}.cdb")
        return jp.orchestrator.TaskOptions(reuse_clauses=True, clause_db=path)
    return opts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "thresholds-ja",
            lambda jp, seed, cache: _threshold_inputs(jp, seed, 11, 32),
            lambda jp, inp, wd: _check_pass(jp, inp, "JA", _db_opts(jp, wd, "tja")),
            check_reports,
        ),
        Workload(
            "thresholds-sep",
            lambda jp, seed, cache: _threshold_inputs(jp, seed, 9, 12),
            lambda jp, inp, wd: _check_pass(
                jp, inp, "SEPARATE_GLOBAL", lambda n: jp.orchestrator.TaskOptions()
            ),
            check_reports,
        ),
        Workload(
            "random-ja",
            _random_inputs,
            lambda jp, inp, wd: _check_pass(jp, inp, "JA", _db_opts(jp, wd, "rja")),
            check_reports,
        ),
        Workload(
            "bmc-deep",
            lambda jp, seed, cache: _bmc_inputs(jp, seed),
            lambda jp, inp, wd: _bmc_pass(jp, inp),
            check_bmc,
        ),
    )
}
