"""Run reports: text tables, JSON, CSV, and the exit-code contract.

Exit codes are a pure function of the verdict multiset:

    0   every expected-to-hold property holds (locally or globally) and
        every expected-to-fail property was confirmed failing
    10  something demands developer attention: a failing property
        (locally or globally) or an expected failure that held instead
    30  no failures, but the engine hit an internal error on some
        property (an Error verdict); the other verdicts stand
    20  no failures or errors, but some verdicts ran out of budget
    2   usage error (argument parsing)
    3   input parse error

Failures outrank errors, and errors outrank unknowns: a run with a
failure exits 10, since the debugging work it points at does not wait
on the undecided rest.

JSON reports follow REPORT_SCHEMA below and serialize with sorted keys
and fixed separators, so parse and re-emit is byte-stable.
"""

from __future__ import annotations

import csv
import io
import json

from .circuit import Counterexample, PropertyKind
from .orchestrator import RunReport, Verdict, VerdictStatus

EXIT_OK = 0
EXIT_FAILURES = 10
EXIT_UNKNOWN = 20
EXIT_ERROR = 30
EXIT_USAGE = 2
EXIT_PARSE = 3

_ATTENTION = (
    VerdictStatus.FAILS_LOCAL,
    VerdictStatus.FAILS_GLOBAL,
    VerdictStatus.ETF_HOLDS_LOCAL,
)

# Shape of the JSON document; leaf values are type names, and a trailing
# "?" marks an optional key. In joint mode one aggregate check decides
# several properties, so each of their verdicts reports that whole
# check's time_s and sat_calls; totals.sat_calls counts every check once.
# retried_respect is always false: every check lifts in respect mode.
# An Error verdict has empty evidence; `japdr check` prints its message
# on stderr. Like an Unknown one, it reports the time_s, frames and
# sat_calls its check spent, and totals count them.
REPORT_SCHEMA = {
    "mode": "str",
    "conclusion": "str",
    "debugging_set": ["int"],
    "verdicts": [
        {
            "index": "int",
            "kind": "str",  # eth | etf
            "status": "str",  # VerdictStatus value
            "time_s": "float",
            "frames": "int",
            "sat_calls": "int",
            "seeds_used": "int",
            "retried_respect": "bool",
            "evidence": {"clauses": "int?", "cex_depth": "int?"},
            "witness_file": "str",
        }
    ],
    "totals": {"wall_s": "float", "sat_calls": "int", "clauses_learned": "int"},
}


def exit_code(verdicts) -> int:
    statuses = [v.status for v in verdicts]
    if any(s in _ATTENTION for s in statuses):
        return EXIT_FAILURES
    if any(s is VerdictStatus.ERROR for s in statuses):
        return EXIT_ERROR
    if any(s is VerdictStatus.UNKNOWN for s in statuses):
        return EXIT_UNKNOWN
    return EXIT_OK


def _kind_of(report: RunReport, index: int) -> str:
    for p in report.task.properties:
        if p.index == index:
            return p.kind.value
    return PropertyKind.ETH.value


def _evidence_obj(verdict: Verdict) -> dict:
    if isinstance(verdict.evidence, Counterexample):
        return {"cex_depth": verdict.evidence.depth}
    if isinstance(verdict.evidence, int):
        return {"clauses": verdict.evidence}
    return {}


def _rows(report: RunReport, witnesses) -> list[dict]:
    witnesses = witnesses or {}
    rows = []
    for v in report.verdicts:
        rows.append(
            {
                "index": v.property_index,
                "kind": _kind_of(report, v.property_index),
                "status": v.status.value,
                "time_s": round(v.wall_s, 4),
                "frames": v.frames,
                "sat_calls": v.sat_calls,
                "seeds_used": v.seeds_used,
                "retried_respect": v.retried_respect,
                "evidence": _evidence_obj(v),
                "witness_file": witnesses.get(v.property_index, ""),
            }
        )
    return rows


def format_json(report: RunReport, witnesses=None) -> str:
    doc = {
        "mode": report.task.mode.value,
        "conclusion": report.conclusion,
        "debugging_set": list(report.debugging_set),
        "verdicts": _rows(report, witnesses),
        "totals": {
            "wall_s": round(report.totals.wall_s, 4),
            "sat_calls": report.totals.sat_calls,
            "clauses_learned": report.totals.clauses_learned,
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def format_csv(report: RunReport, witnesses=None) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    columns = ["index", "kind", "status", "time_s", "frames", "sat_calls", "witness_file"]
    writer.writerow(columns)
    for row in _rows(report, witnesses):
        writer.writerow([row[c] for c in columns])
    return out.getvalue()


def format_text(report: RunReport, witnesses=None) -> str:
    rows = _rows(report, witnesses)
    lines = [f"mode: {report.task.mode.value}"]
    header = ("prop", "kind", "status", "time_s", "frames", "sat", "evidence")
    table = [header]
    for row in rows:
        ev = row["evidence"]
        if "cex_depth" in ev:
            shown = f"cex depth {ev['cex_depth']}"
        elif "clauses" in ev:
            shown = f"{ev['clauses']} clauses"
        else:
            shown = "-"
        table.append(
            (
                f"P{row['index']}",
                row["kind"],
                row["status"],
                f"{row['time_s']:.3f}",
                str(row["frames"]),
                str(row["sat_calls"]),
                shown,
            )
        )
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    lines.append("debugging set: {" + ", ".join(f"P{i}" for i in report.debugging_set) + "}")
    lines.append(report.conclusion)
    t = report.totals
    lines.append(
        f"total: {t.wall_s:.3f}s, {t.sat_calls} SAT calls, "
        f"{t.clauses_learned} clauses"
    )
    return "\n".join(lines) + "\n"


def format_report(report: RunReport, fmt: str = "text", witnesses=None) -> tuple[bytes, int]:
    """Serialized report plus the process exit code."""
    if fmt == "json":
        text = format_json(report, witnesses)
    elif fmt == "csv":
        text = format_csv(report, witnesses)
    elif fmt == "text":
        text = format_text(report, witnesses)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return text.encode(), exit_code(report.verdicts)


_LEAF_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def validate_report_json(doc) -> list[str]:
    """Schema conformance problems, empty when the document is valid."""
    problems: list[str] = []
    values = {
        "kind": {k.value for k in PropertyKind},
        "status": {s.value for s in VerdictStatus},
    }

    def walk(value, shape, where, key=""):
        if isinstance(shape, dict):
            if not isinstance(value, dict):
                problems.append(f"{where}: wrong type {type(value).__name__}")
                return
            for name, sub in shape.items():
                if name in value:
                    walk(value[name], sub, f"{where}.{name}", name)
                elif not (isinstance(sub, str) and sub.endswith("?")):
                    problems.append(f"{where}: missing {name}")
            for name in sorted(value.keys() - shape.keys()):
                problems.append(f"{where}: unknown key {name!r}")
        elif isinstance(shape, list):
            if not isinstance(value, list):
                problems.append(f"{where}: wrong type {type(value).__name__}")
                return
            for n, item in enumerate(value):
                walk(item, shape[0], f"{where}[{n}]")
        elif not isinstance(value, _LEAF_TYPES[shape.rstrip("?")]):
            problems.append(f"{where}: wrong type {type(value).__name__}")
        elif key in values and value not in values[key]:
            problems.append(f"{where}: unknown {value!r}")

    walk(doc, REPORT_SCHEMA, "report")
    return problems
