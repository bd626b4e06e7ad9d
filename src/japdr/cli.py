"""Command-line front door.

Subcommands: `check` runs the multi-property verifier on an AIGER file,
`gen-counter` and `gen-random` write benchmark circuits, `bmc` searches
for a bounded counterexample, `oracle` brute-forces small systems.

Exit codes follow the report contract: 0 clean, 10 failures to debug,
30 an engine error on some property, 20 budget exhausted, 2 usage,
3 unreadable input or unwritable output.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
import warnings

from .aiger import (
    AigerError,
    build_counter,
    emit_ascii,
    emit_binary,
    emit_witness,
    gen_counter,
    gen_random_circuit,
    parse_file,
)
from .circuit import Counterexample, PropertyKind, PropertySpec
from .clausedb import ClauseDbError
from .oracle import CheckMode, ExplicitModel, OracleError, bmc
from .orchestrator import Mode, TaskOptions, VerdictStatus, VerificationTask, run
from .report import (
    EXIT_FAILURES,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    format_report,
)

_MODES = {"ja": Mode.JA, "joint": Mode.JOINT, "sep-global": Mode.SEPARATE_GLOBAL}


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:  # NaN too
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad count {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _index_list(text: str) -> list[int]:
    tokens = [tok for tok in text.split(",") if tok]
    # ASCII digits only, like the AIGER and clause-store readers: `int`
    # would also take `+`, underscores and other scripts' digits
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")
    return [int(tok) for tok in tokens]


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="japdr",
        description="multi-property hardware model checking with local proofs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify the properties of an AIGER file")
    check.add_argument("input", help="AIGER file, ASCII or binary")
    check.add_argument("--mode", choices=sorted(_MODES), default="ja")
    check.add_argument("--reuse-clauses", choices=["on", "off"], default="on")
    check.add_argument("--clause-db", metavar="PATH")
    check.add_argument("--per-prop-timeout", type=_positive, metavar="SECONDS")
    check.add_argument("--total-timeout", type=_positive, metavar="SECONDS")
    check.add_argument(
        "--etf", type=_index_list, metavar="I,J,...",
        help="property indices expected to fail",
    )
    check.add_argument("--report", choices=["text", "json", "csv"], default="text")
    check.add_argument("--witness-dir", metavar="PATH")

    genc = sub.add_parser("gen-counter", help="write a counter benchmark")
    genc.add_argument("--bits", type=_count, required=True)
    genc.add_argument(
        "--thresholds", type=_count, metavar="N",
        help="N threshold properties under a req=1 constraint instead of the default pair",
    )
    genc.add_argument("-o", "--output", required=True, metavar="PATH")

    genr = sub.add_parser("gen-random", help="write a random circuit")
    genr.add_argument("--seed", type=int, required=True)
    genr.add_argument("--latches", type=_count, default=6)
    genr.add_argument("--inputs", type=_count, default=3)
    genr.add_argument("--gates", type=_count, default=14)
    genr.add_argument("--props", type=_count, default=3)
    genr.add_argument("--mutate", action="store_true", help="plant a next-state bug")
    genr.add_argument("-o", "--output", required=True, metavar="PATH")

    bmcp = sub.add_parser("bmc", help="bounded counterexample search for one property")
    bmcp.add_argument("input")
    bmcp.add_argument("--prop", type=int, required=True, metavar="I")
    bmcp.add_argument("--depth", type=_count, required=True, metavar="D")
    bmcp.add_argument(
        "--assume", type=_index_list, default=[], metavar="I,J,...",
        help="property indices assumed on non-final frames",
    )
    bmcp.add_argument("--timeout", type=_positive, metavar="SECONDS")
    bmcp.add_argument("--witness-dir", metavar="PATH")

    orc = sub.add_parser("oracle", help="explicit-state ground truth for small systems")
    orc.add_argument("input")
    orc.add_argument("--cap-bits", type=_count, default=24)

    return parser.parse_args(argv)


def _load(path):
    try:
        return parse_file(path)
    except OSError as exc:
        print(f"japdr: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None
    except AigerError as exc:
        print(f"japdr: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE) from None


def _write_witnesses(directory, report) -> dict[int, str]:
    paths = {}
    # an ETF check assumes every ETH property, so it is global once they all are
    eth = {p.index for p in report.task.eth_properties}
    proved = {VerdictStatus.HOLDS_GLOBAL}
    if {v.status for v in report.verdicts if v.property_index in eth} <= proved:
        proved.add(VerdictStatus.ETF_HOLDS_LOCAL)
    for v in report.verdicts:
        if isinstance(v.evidence, Counterexample):
            data = emit_witness(v.property_index, v.evidence, "sat")
        elif v.status in proved:
            data = emit_witness(v.property_index, None, "unsat")
        else:  # a local proof, an unknown or an engine error proves no global claim
            data = emit_witness(v.property_index, None, "unknown")
        path = os.path.join(directory, f"b{v.property_index}.wit")
        with open(path, "wb") as fh:
            fh.write(data)
        paths[v.property_index] = path
    return paths


def _clause_db_warning(message, category, filename, lineno, file=None, line=None):
    print(f"japdr: clause db: {message}", file=sys.stderr)


def _cmd_check(args) -> int:
    options = TaskOptions(
        reuse_clauses=args.reuse_clauses == "on",
        clause_db=args.clause_db,
        per_prop_timeout_s=args.per_prop_timeout,
        total_timeout_s=args.total_timeout,
    )
    circuit, props = _load(args.input)
    for i in args.etf or ():
        if not 0 <= i < len(props):
            print(f"japdr: --etf index {i} out of range", file=sys.stderr)
            return EXIT_USAGE
        props[i] = PropertySpec(props[i].index, props[i].bad, PropertyKind.ETF)
    try:
        task = VerificationTask(circuit, tuple(props), _MODES[args.mode], options)
    except ValueError as exc:
        print(f"japdr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.witness_dir:  # before any check, like the clause store's file
        os.makedirs(args.witness_dir, exist_ok=True)
    try:
        # the clause store is the only source of warnings during a run
        with warnings.catch_warnings():
            warnings.showwarning = _clause_db_warning
            report = run(task)
    except (ClauseDbError, OSError) as exc:
        # the clause store is the only file a run opens
        print(f"japdr: clause db: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for v in report.verdicts:
        if v.status is VerdictStatus.ERROR:
            print(
                f"japdr: engine error on P{v.property_index}: {v.evidence}",
                file=sys.stderr,
            )
    witnesses = None
    if args.witness_dir:
        witnesses = _write_witnesses(args.witness_dir, report)
    data, code = format_report(report, args.report, witnesses)
    sys.stdout.write(data.decode())
    return code


def _generated(args):
    """The circuit a gen-* command describes."""
    if args.command == "gen-random":
        circuit, _ = gen_random_circuit(
            random.Random(args.seed),
            num_inputs=args.inputs,
            num_latches=args.latches,
            num_gates=args.gates,
            num_props=args.props,
            mutate=args.mutate,
        )
    elif args.thresholds is not None:
        circuit = build_counter(args.bits, thresholds=args.thresholds).circuit
    else:
        circuit, _ = gen_counter(args.bits)
    return circuit


def _cmd_gen(args) -> int:
    try:
        circuit = _generated(args)
    except ValueError as exc:  # sizes the generators reject
        print(f"japdr: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # honor the AIGER naming convention: .aig binary, anything else ASCII
    emit = emit_binary if args.output.endswith(".aig") else emit_ascii
    with open(args.output, "wb") as fh:
        fh.write(emit(circuit))
    return EXIT_OK


def _cmd_bmc(args) -> int:
    circuit, props = _load(args.input)
    if not 0 <= args.prop < len(props):
        print(f"japdr: --prop {args.prop} out of range", file=sys.stderr)
        return EXIT_USAGE
    for i in args.assume:
        if not 0 <= i < len(props) or i == args.prop:
            print(f"japdr: --assume index {i} invalid", file=sys.stderr)
            return EXIT_USAGE
    target = props[args.prop]
    assumed = [props[i] for i in args.assume]
    if args.witness_dir:
        os.makedirs(args.witness_dir, exist_ok=True)
    t0 = time.monotonic()
    result = bmc(circuit, target, assumed, max_depth=args.depth, timeout_s=args.timeout)
    wall = time.monotonic() - t0
    if result.cex is not None:
        print(
            f"counterexample for P{args.prop} at depth {result.cex.depth} "
            f"({result.sat_calls} SAT calls, {wall:.2f}s)"
        )
        if args.witness_dir:
            path = os.path.join(args.witness_dir, f"b{args.prop}.wit")
            with open(path, "wb") as fh:
                fh.write(emit_witness(args.prop, result.cex, "sat"))
            print(f"witness: {path}")
        return EXIT_OK
    state = "timed out" if result.timed_out else "no counterexample"
    print(
        f"{state} up to depth {result.explored_depth} "
        f"({result.sat_calls} SAT calls, {wall:.2f}s)"
    )
    return EXIT_UNKNOWN if result.timed_out else EXIT_OK


def _cmd_oracle(args) -> int:
    circuit, props = _load(args.input)
    try:
        model = ExplicitModel(circuit, cap_bits=args.cap_bits)
    except OracleError as exc:
        print(f"japdr: oracle: {exc}", file=sys.stderr)
        return EXIT_PARSE
    debug = []
    for i in range(len(props)):
        local = model.brute_check(props, i, CheckMode.LOCAL)
        global_ = model.brute_check(props, i, CheckMode.GLOBAL)
        ltxt = "holds" if local.holds else f"fails (depth {local.cex.depth})"
        gtxt = "holds" if global_.holds else f"fails (depth {global_.cex.depth})"
        print(f"P{i}: local {ltxt}; global {gtxt}")
        if not local.holds:
            debug.append(i)
    print("debugging set: {" + ", ".join(f"P{i}" for i in debug) + "}")
    return EXIT_FAILURES if debug else EXIT_OK


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        handler = {
            "check": _cmd_check,
            "gen-counter": _cmd_gen,
            "gen-random": _cmd_gen,
            "bmc": _cmd_bmc,
            "oracle": _cmd_oracle,
        }[args.command]
        return handler(args)
    except SystemExit as exc:  # argparse and loader shortcuts
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except OSError as exc:  # an output path it cannot write
        print(f"japdr: cannot write: {exc}", file=sys.stderr)
        return EXIT_PARSE
