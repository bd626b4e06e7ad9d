"""The buggy counter, told three ways.

A k-bit counter increments while `enable` is high and is supposed to
reset once it reaches 2^(k-1), but the reset logic also waits for `req`.
Two properties ride along: P0 "req is asserted" and P1 "the counter
never exceeds 2^(k-1)". The environment never promised req, so P0 fails
immediately, and without the reset the counter sails past the bound,
so P1 fails too, but only after 2^(k-1)+1 steps.

Checking P1 under the assumption that P0 holds turns the failure around:
with req pinned high the reset works and P1 becomes inductive on its
own. That is the whole pitch: blame the first property that breaks,
assume it away, and the rest of the verification stops depending on
how deep the fallout is.
"""

import time

from japdr.aiger import gen_counter
from japdr.oracle import bmc
from japdr.orchestrator import Mode, VerificationTask, run


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("assume-the-rest mode, counter sizes 8..20")
for k in (8, 12, 16, 20):
    circuit, props = gen_counter(k)
    t0 = time.monotonic()
    rep = run(VerificationTask(circuit, tuple(props), Mode.JA))
    wall = time.monotonic() - t0
    v0, v1 = rep.verdicts
    print(
        f"k={k:2d}  P0 {v0.status.value} (cex {len(v0.evidence.frames)} frame)  "
        f"P1 {v1.status.value} ({v1.evidence} strengthening clauses)  "
        f"debugging set {set(rep.debugging_set)}  {wall * 1000:6.1f} ms"
    )
print("runtime is flat in k: P0's counterexample is one frame and P1's")
print("proof never has to reason about the deep overflow path")

show("global mode at k=3: the same bug, the long way around")
circuit, props = gen_counter(3)
rep = run(
    VerificationTask(circuit, tuple(props), Mode.SEPARATE_GLOBAL)
)
for v in rep.verdicts:
    cex = v.evidence
    print(f"P{v.property_index} {v.status.value}, trace of {len(cex.frames)} frames")
cex = rep.verdicts[1].evidence
vals = [f.latch_values[0] + 2 * f.latch_values[1] + 4 * f.latch_values[2]
        for f in cex.frames]
print("counter values along P1's trace:", vals)
print("(the reset at 4 never fires because req stays low)")

show("bounded search hits the same wall")
print("shallowest P1 violation sits at depth 2^(k-1)+1, so plain unrolling")
print("pays for the full ramp:")
for k in (3, 4, 5, 6, 7):
    circuit, props = gen_counter(k)
    depth = 2 ** (k - 1) + 1
    t0 = time.monotonic()
    res = bmc(circuit, props[1], constraint_props=(), max_depth=depth)
    wall = time.monotonic() - t0
    assert res.cex is not None
    print(f"k={k}  cex at depth {len(res.cex.frames) - 1:3d}  "
          f"{res.sat_calls:3d} solver calls  {wall * 1000:7.1f} ms")
print()
print("the local check above never paid any of this")
