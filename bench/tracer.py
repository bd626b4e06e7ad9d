"""Per-layer tracing by wrapping the program's public functions from outside.

Each wrapped call is a span: the tracer keeps a stack of open spans and
charges each span's duration to its bucket, minus the time of the spans
nested inside it (self time). Counters are read at the same boundaries.
Module-level functions are replaced at every import site, that is in
every `japdr` module whose namespace holds the original object, and class
methods are replaced on the class. Nothing is patched while tracing is
off, so untraced passes run the program untouched.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, bucket) for module-level functions
FUNCTIONS = (
    ("aiger", "parse", "aiger.parse"),
    ("pdr", "check_property", "pdr.check"),
    ("pdr", "certify", "pdr.certify"),
    ("clausedb", "seeds_for_context", "clausedb.seeds"),
    ("clausedb", "filter_invariant", "clausedb.filter"),
    ("clausedb", "append", "clausedb.write"),
    ("circuit", "replay_trace", "circuit.replay"),
    ("orchestrator", "run", "orchestrator.run"),
    ("report", "format_report", "report.format"),
    ("report", "validate_report_json", "report.format"),
    ("oracle", "bmc", "oracle.bmc"),
)
# (module, class, method, bucket)
METHODS = (
    ("encode", "StepEncoding", "__init__", "encode.build"),
    ("encode", "Unroller", "add_frame", "encode.unroll"),
    ("sat", "Solver", "solve", "sat.solve"),
)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _wrap(self, bucket, fn, before=None, after=None):
        stack = self._stack
        clock = time.perf_counter
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[bucket] += dt - stack.pop()
                incl_s[bucket] += dt
                calls[bucket] += 1
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, state, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn):
        """Run fn as the top span; returns (result, seconds)."""
        result = self._wrap("bench", fn)()
        return result, self.incl_s["bench"]

    # --------------------------------------------------------- counters

    def _hooks(self):
        counts = self.counts

        def solver_state(args):
            s = args[0]
            return s.n_conflicts, len(s.clauses), s.n_vars

        def after_solve(args, kwargs, state, result):
            s = args[0]
            counts["sat.conflicts"] += s.n_conflicts - state[0]
            counts["sat.learned"] += len(s.clauses) - state[1]
            counts["sat.vars_sum"] += state[2]
            counts["sat.unknown"] += result.status.name == "UNKNOWN"

        def encode_state(args):
            s = args[1]
            return s.n_vars, len(s.clauses)

        def after_encode(args, kwargs, state, result):
            s = args[1]
            counts["encode.vars"] += s.n_vars - state[0]
            counts["encode.clauses"] += len(s.clauses) - state[1]

        def after_check(args, kwargs, state, outcome):
            counts["pdr.frames"] += outcome.stats.frames_opened
            counts["pdr.clauses_learned"] += outcome.stats.clauses_learned

        def after_certify(args, kwargs, state, ok):
            counts["pdr.certify_rejects"] += not ok

        def after_seeds(args, kwargs, state, kept):
            counts["clausedb.seeds_offered"] += len(args[0])
            counts["clausedb.seeds_kept"] += len(kept)

        return {
            "sat.solve": (solver_state, after_solve),
            "encode.build": (encode_state, after_encode),
            "pdr.check": (None, after_check),
            "pdr.certify": (None, after_certify),
            "clausedb.seeds": (None, after_seeds),
        }

    # ---------------------------------------------------- install/remove

    def install(self) -> None:
        """Patch every import site."""
        mods = _japdr_modules()
        hooks = self._hooks()
        for mod_name, attr, bucket in FUNCTIONS:
            original = getattr(mods[mod_name], attr)
            wrapper = self._wrap(bucket, original, *hooks.get(bucket, (None, None)))
            for mod in mods.values():
                if mod.__dict__.get(attr) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, bucket in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(bucket, original, *hooks.get(bucket, (None, None))))

    def unwrapped_sites(self) -> list[str]:
        """Import sites still holding an original function or method."""
        originals = {id(orig) for _, _, orig in self._undo}
        left = []
        for mod in _japdr_modules().values():
            for name, value in mod.__dict__.items():
                if id(value) in originals:
                    left.append(f"{mod.__name__}.{name}")
                if isinstance(value, type) and value.__module__.startswith("japdr"):
                    for meth, attr in value.__dict__.items():
                        if id(attr) in originals:
                            left.append(f"{mod.__name__}.{name}.{meth}")
        return left

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _japdr_modules() -> dict:
    return {
        name.rpartition(".")[2]: mod
        for name, mod in list(sys.modules.items())
        if (name == "japdr" or name.startswith("japdr.")) and mod is not None
    }


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    s, c, n = tr.self_s, tr.calls, tr.counts
    solves = c["sat.solve"]
    offered = n["clausedb.seeds_offered"]
    return {
        "aiger.parse_s": s["aiger.parse"],
        "encode.builds": c["encode.build"],
        "encode.s": s["encode.build"] + s["encode.unroll"],
        "encode.vars": n["encode.vars"],
        "encode.clauses": n["encode.clauses"],
        "sat.solves": solves,
        "sat.s": s["sat.solve"],
        "sat.conflicts": n["sat.conflicts"],
        "sat.vars_per_solve": n["sat.vars_sum"] / solves if solves else 0.0,
        "sat.learned": n["sat.learned"],
        "sat.unknown": n["sat.unknown"],
        "pdr.checks": c["pdr.check"],
        "pdr.self_s": s["pdr.check"],
        "pdr.frames": n["pdr.frames"],
        "pdr.clauses_learned": n["pdr.clauses_learned"],
        "pdr.certify_calls": c["pdr.certify"],
        "pdr.certify_s": tr.incl_s["pdr.certify"],
        "pdr.certify_rejects": n["pdr.certify_rejects"],
        "clausedb.filter_calls": c["clausedb.filter"],
        "clausedb.filter_s": s["clausedb.seeds"] + s["clausedb.filter"],
        "clausedb.seeds_offered": offered,
        "clausedb.seeds_kept": n["clausedb.seeds_kept"],
        "clausedb.keep_ratio": n["clausedb.seeds_kept"] / offered if offered else 0.0,
        "clausedb.write_s": s["clausedb.write"],
        "circuit.replays": c["circuit.replay"],
        "circuit.replay_s": s["circuit.replay"],
        "orchestrator.self_s": s["orchestrator.run"],
        "report.format_s": s["report.format"],
        "oracle.bmc_self_s": s["oracle.bmc"],
    }


def layer_self_total(tr: Tracer) -> float:
    """Self time of every program layer, the benchmark's own span excluded."""
    return sum(v for k, v in tr.self_s.items() if k != "bench")
