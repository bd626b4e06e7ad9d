# Ten sibling properties on one counter: val <= rval+j for j = 0..9.
# The tightest bound is inductive by itself; the loose ones are not and
# each proof has to rediscover roughly the same strengthening about the
# high bits. Harvesting clauses from finished proofs and seeding the next
# solver with the survivors cuts the repeated work without touching any
# verdict.

import os
import tempfile

from japdr.aiger import build_counter
from japdr.orchestrator import Mode, TaskOptions, VerificationTask, run

built = build_counter(6, thresholds=10)
print(f"counter bits={built.bits}, bound={built.rval}, "
      f"{len(built.props)} threshold properties")

task_off = VerificationTask(
    built.circuit, built.props, Mode.SEPARATE_GLOBAL,
    TaskOptions(reuse_clauses=False),
)
rep_off = run(task_off)

with tempfile.TemporaryDirectory() as td:
    db = os.path.join(td, "clauses.db")
    task_on = VerificationTask(
        built.circuit, built.props, Mode.SEPARATE_GLOBAL,
        TaskOptions(reuse_clauses=True, clause_db=db),
    )
    rep_on = run(task_on)
    rep_on2 = run(task_on)  # second pass over the filled store

    print()
    print("prop   status         frames  calls(off)  calls(on)  seeds used")
    for voff, von in zip(rep_off.verdicts, rep_on.verdicts):
        assert voff.status is von.status
        print(f"P{voff.property_index:<4d} {voff.status.value:14s} "
              f"{von.frames:5d} {voff.sat_calls:11d} {von.sat_calls:10d} "
              f"{von.seeds_used:11d}")

    print()
    print(f"totals: off={rep_off.totals.sat_calls} calls, "
          f"on={rep_on.totals.sat_calls}, "
          f"second pass over the store={rep_on2.totals.sat_calls}")
    size = os.path.getsize(db)
    print(f"store on disk: {size} bytes at {os.path.basename(db)}")

# the db outlived the run inside the tempdir only; point clause_db at a
# real path to carry proofs across processes
