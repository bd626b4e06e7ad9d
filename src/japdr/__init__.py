"""Multi-property safety checking for and-inverter circuits.

The package proves or refutes each safety property of a transition
system, either on its own or locally, assuming the other properties
hold on earlier frames. The local flavor never discharges its
assumptions: the properties failing even under them form the debugging
set, the place repair has to start.
"""

from .aiger import (
    AigerError,
    build_counter,
    circuit_fingerprint,
    emit_ascii,
    emit_witness,
    gen_counter,
    gen_random_circuit,
    parse,
    parse_file,
)
from .circuit import (
    AndGate,
    Circuit,
    CircuitBuilder,
    Counterexample,
    Latch,
    Literal,
    PropertyKind,
    PropertySpec,
    TraceFrame,
    replay_trace,
)
from .clausedb import ClauseDbError, ClauseRecord, append, filter_invariant, load
from .oracle import CheckMode, ExplicitModel, OracleError, ReachSet, bmc
from .orchestrator import (
    Mode,
    RunReport,
    TaskOptions,
    Verdict,
    VerdictStatus,
    VerificationTask,
    run,
)
from .pdr import PdrError, PdrOutcome, PdrStats, PdrStatus, certify, check_property
from .report import REPORT_SCHEMA, exit_code, format_report, validate_report_json

__version__ = "0.1.0"

__all__ = [
    "AigerError",
    "AndGate",
    "CheckMode",
    "Circuit",
    "CircuitBuilder",
    "ClauseDbError",
    "ClauseRecord",
    "Counterexample",
    "ExplicitModel",
    "Latch",
    "Literal",
    "Mode",
    "OracleError",
    "PdrError",
    "PdrOutcome",
    "PdrStats",
    "PdrStatus",
    "PropertyKind",
    "PropertySpec",
    "REPORT_SCHEMA",
    "ReachSet",
    "RunReport",
    "TaskOptions",
    "TraceFrame",
    "Verdict",
    "VerdictStatus",
    "VerificationTask",
    "append",
    "bmc",
    "build_counter",
    "certify",
    "check_property",
    "circuit_fingerprint",
    "emit_ascii",
    "emit_witness",
    "exit_code",
    "filter_invariant",
    "format_report",
    "gen_counter",
    "gen_random_circuit",
    "load",
    "parse",
    "parse_file",
    "replay_trace",
    "run",
    "validate_report_json",
]
