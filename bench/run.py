"""japdr benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-test [--seed N]
    python3 bench/run.py --make-refs

Run from the repository root; the program is imported from `src/`. The
run sets up several times (import, input generation, reference loading)
and reports the median as `setup_s`, then makes one untimed warm-up
pass, then measures whole passes for at least `--seconds` seconds.
Every pass is checked against its references after the clock stops.

With `--trace 0` the result line carries the end-to-end metrics: passes
alternate with a fixed reference loop, and `wall_norm` is the median
pass time in units of the reference loops around it. With `--trace 1`
it carries the per-layer metrics of traced passes, interleaved with
untraced ones to give the tracing overhead and the raw `wall_s`. The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.
See DESIGN.md next to this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 11
REF_ROUNDS = 3000  # size of the reference loop, about 0.25 s on the baseline machine
MIN_PASSES = 3  # timed passes per run, whatever --seconds says
MIN_TRACED = 2  # traced and untraced passes each, in a --trace 1 run
COVERAGE_MIN = 0.95  # layer self times must cover this share of a traced pass
REF_SAMPLE = 3  # stored references re-derived by --self-test


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name in ("clausedb.keep_ratio", "trace.overhead"):
        return "ratio"
    return "count"


def _import_program():
    """Fresh import of the package; returns the layer modules."""
    for name in [m for m in sys.modules if m == "japdr" or m.startswith("japdr.")]:
        del sys.modules[name]
    importlib.import_module("japdr")
    mods = {n: sys.modules[f"japdr.{n}"] for n in ("aiger", "circuit", "orchestrator", "report", "oracle")}
    return types.SimpleNamespace(**mods)


def reference_loop(rounds: int = REF_ROUNDS) -> int:
    """Fixed pure-Python work that never touches the program: dict and list
    traffic, integer arithmetic, sorting. It is the yardstick `wall_norm`
    divides by, so it runs the same interpreter paths the checker's loops
    run, and slows with them when the host does."""
    x, total = 12345, 0
    for _ in range(rounds):
        table: dict = {}
        items = []
        for _ in range(200):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = x % 97
            table[key] = table.get(key, 0) + 1
            items.append(x >> 7)
        items.sort()
        total += len(table) + items[100] % 13
    return total


def _timed_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """State of one measured run: the program, its inputs and the tallies."""

    def __init__(self, wl, seed, workdir):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.sat_call_counts = set()  # one value per pass when counts repeat
        self.problems: list[str] = []
        self.passes = 0
        self.coverage: list[float] = []  # layer self time / traced pass

    def setup(self):
        derived: dict = {}
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.jp = _import_program()
            self.inputs = self.wl.make_inputs(self.jp, self.seed, derived)
            times.append(time.perf_counter() - t0)
        for note in self.inputs.notes:
            print(f"note: {note}")
        return times

    def one_pass(self, tracer=None):
        """Run and check one pass; returns (seconds, PassResult or None)."""
        self.passes += 1
        go = lambda: self.wl.run_pass(self.jp, self.inputs, self.workdir)
        try:
            if tracer is None:
                t0 = time.perf_counter()
                res = go()
                dt = time.perf_counter() - t0
            else:
                tracer.install()
                try:
                    self.problems.extend(f"not traced: {site}" for site in tracer.unwrapped_sites())
                    res, dt = tracer.root(go)
                finally:
                    tracer.remove()
        except Exception:
            traceback.print_exc()
            self.attempted += self.inputs.ops_per_pass
            self.failed += self.inputs.ops_per_pass
            self.problems.append(f"pass {self.passes} raised")
            return None, None
        finally:
            for name in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, name))
        self.attempted += self.inputs.ops_per_pass
        self.failed += self.wl.check(self.jp, self.inputs, res)
        self.sat_call_counts.add(res.sat_calls)
        if tracer is not None:
            solves = tracer.calls["sat.solve"]
            if solves != res.sat_calls:
                self.problems.append(f"traced sat.solves {solves} != reported SAT calls {res.sat_calls}")
            covered = tracing.layer_self_total(tracer) / dt
            self.coverage.append(covered)
            if covered < COVERAGE_MIN:
                self.problems.append(f"layer self times cover only {covered:.3f} of the traced pass")
        return dt, res

    def count_problems(self):
        out = list(self.problems)
        if len(self.sat_call_counts) > 1:
            out.append(f"SAT call count drifts between passes: {sorted(self.sat_call_counts)}")
        if self.failed:
            out.append(f"{self.failed} of {self.attempted} operations failed")
        return out


def measure(wl, seed, seconds, trace, workdir):
    run = Run(wl, seed, workdir)
    setup_times = run.setup()
    run.one_pass()  # warm-up: caches fill, the allocator grows; not timed

    walls, traced_walls, layers = [], [], []
    refs, slots = [], []  # reference-loop times; the one before each wall
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if trace:
            enough = len(walls) >= MIN_TRACED and len(traced_walls) >= MIN_TRACED
        else:
            enough = len(walls) >= MIN_PASSES
        if enough and elapsed >= seconds:
            break
        if not trace:
            refs.append(_timed_reference())
        dt, _ = run.one_pass()
        if dt is not None:
            walls.append(dt)
            slots.append(len(refs) - 1)
        if trace:
            tr = tracing.Tracer()
            dt, res = run.one_pass(tr)
            if dt is not None:
                traced_walls.append(dt)
                m = tracing.layer_metrics(tr)
                m["orchestrator.respect_retries"] = res.respect_retries
                m["orchestrator.seeds_used"] = res.seeds_used
                layers.append(m)

    problems = run.count_problems()
    print(f"workload {wl.name}  seed {seed}  trace {trace}  passes {run.passes}")
    print(f"failed_frac {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.6g}")
    if not walls:
        problems.append("no pass completed")
        return run, problems, {}

    if not trace:
        # each pass is divided by the mean of the reference loops run just
        # before and just after it, so host speed drift cancels out
        refs.append(_timed_reference())
        norms = [dt / ((refs[k] + refs[k + 1]) / 2) for k, dt in zip(slots, walls)]
        n1, nmed, n3 = _quartiles(norms)
        q1, med, q3 = _quartiles(walls)
        r1, rmed, r3 = _quartiles(refs)
        s1, smed, s3 = _quartiles(setup_times)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"wall_norm median {nmed:.6f}  q1 {n1:.6f}  q3 {n3:.6f}  n {len(norms)}")
        print(f"wall_s median {med:.6f}  q1 {q1:.6f}  q3 {q3:.6f}  n {len(walls)}")
        print(f"reference loop s median {rmed:.6f}  q1 {r1:.6f}  q3 {r3:.6f}  n {len(refs)}")
        print(f"setup_s median {smed:.6f}  q1 {s1:.6f}  q3 {s3:.6f}  n {len(setup_times)}")
        print(f"peak_rss_mb {rss:.3f}")
        metrics = {
            "wall_norm": (nmed, "ref"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (smed, "s"),
        }
    elif not layers:
        problems.append("no traced pass completed")
        metrics = {}
    else:
        metrics = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            if _unit(name) == "s":
                metrics[name] = (statistics.median(values), "s")
            else:
                if len(set(values)) > 1:
                    problems.append(f"count {name} drifts between traced passes: {values}")
                metrics[name] = (values[0], _unit(name))
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1
        metrics["trace.overhead"] = (overhead, "ratio")
        metrics["wall_s"] = (statistics.median(walls), "s")
        print(f"untraced wall_s median {statistics.median(walls):.6f} n {len(walls)}; "
              f"traced median {statistics.median(traced_walls):.6f} n {len(traced_walls)}; "
              f"layer self time covers {min(run.coverage):.4f} of a traced pass or more")
        for name, (value, unit) in metrics.items():
            print(f"{name:32s} {value:.6g} {unit}")
    return run, problems, metrics


# ------------------------------------------------------------- extra modes


def make_refs() -> int:
    """Regenerate the stored random-ja references with the oracle."""
    jp = _import_program()
    entries = []
    for n, (circuit, props) in enumerate(workloads.random_systems(jp)):
        entry = {"index": n, "key": workloads.structure_key(circuit)}
        entry.update(workloads.oracle_reference(jp, circuit, props))
        entries.append(entry)
        print(f"system {n}: debug set {entry['debug_set']}", file=sys.stderr)
    doc = {
        "generator": workloads.RANDOM_GEN,
        "oracle": "ExplicitModel.brute_check(props, i, LOCAL) per property, brute_debug_set(props)",
        "systems": entries,
    }
    with open(workloads.RANDOM_REFS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


def self_test(seed: int) -> int:
    """Re-derive a sample of stored references, and check with traced runs
    under two hash seeds that every count repeats. Each traced pass also
    checks that no import site was left unwrapped."""
    problems = []
    jp = _import_program()
    stored = workloads.load_random_refs()
    systems = workloads.random_systems(jp)
    if len(stored) != len(systems):
        problems.append(f"{len(stored)} stored references for {len(systems)} systems")
    for n in random.Random(seed).sample(range(len(systems)), REF_SAMPLE):
        circuit, props = systems[n]
        key = workloads.structure_key(circuit)
        fresh = workloads.oracle_reference(jp, circuit, props)
        ref = stored.get(key, {})
        same = all(ref.get(k) == v for k, v in fresh.items())
        consistent = fresh["debug_set"] == [i for i, h in enumerate(fresh["local_holds"]) if not h]
        print(f"reference of system {n}: {'matches' if same else 'DIFFERS'}")
        if not (same and consistent):
            problems.append(f"reference of system {n} does not re-derive")

    for name in workloads.WORKLOADS:
        counts = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, env=env, cwd=ROOT, check=False,
            )
            doc = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if doc is None or not doc["correct"]:
                problems.append(f"{name}: traced run failed under PYTHONHASHSEED={hash_seed}")
                counts.append(None)
                continue
            counts.append({k: v["value"] for k, v in doc["metrics"].items() if v["unit"] != "s"
                           and k != "trace.overhead"})
        same = counts[0] is not None and counts[0] == counts[1]
        print(f"{name}: counts {'repeat' if same else 'DIFFER'} across hash seeds")
        if not same:
            problems.append(f"{name}: counts differ across hash seeds")

    for p in problems:
        print(f"problem: {p}")
    print("self-test", "passed" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--make-refs", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "japdr", "__init__.py")):
        print(f"bench: no japdr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.make_refs:
        return make_refs()
    if args.self_test:
        return self_test(args.seed)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: --workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        run, problems, metrics = measure(wl, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    for p in problems:
        print(f"problem: {p}")
    result = {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
