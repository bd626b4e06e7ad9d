"""Explicit-state checks only the tests use, read off the tables of an
`oracle.ExplicitModel`."""

from japdr.circuit import Counterexample, eval_circuit, eval_literal
from japdr.oracle import BruteResult


def brute_check_aggregate(model, props) -> BruteResult:
    """All properties together: non-final frames clean of every bad,
    final frame violating at least one."""
    mask = model.prop_mask(props)
    cex = model._search_cex(mask, mask)
    if cex is None:
        return BruteResult(True)
    values = eval_circuit(model.circuit, cex.frames[-1])
    violated = next(p.index for p in props if eval_literal(values, p.bad))
    return BruteResult(False, Counterexample(cex.frames, violated))


def property_inductive(model, props, target_index: int) -> bool:
    """Induction step only: from any frame clean of every property,
    the successor state has no input violating the target."""
    mask = model.prop_mask(props)
    tbit = model.bad_bit(target_index)
    for s in range(model.n_states):
        bad_row = model.bad_table[s]
        c_row = model.constr_table[s]
        for x in range(model.n_inputs):
            if bad_row[x] & mask or not c_row[x]:
                continue
            t = model.next_table[s][x]
            if any(b & tbit for b in model.bad_table[t]):
                return False
    return True


def aggregate_inductive(model, props) -> bool:
    """Whole-conjunction induction step over the raw relation."""
    mask = model.prop_mask(props)
    for s in range(model.n_states):
        if any(b & mask for b in model.bad_table[s]):
            continue  # state has a violating frame, not in the region
        c_row = model.constr_table[s]
        for x in range(model.n_inputs):
            if not c_row[x]:
                continue
            t = model.next_table[s][x]
            if any(b & mask for b in model.bad_table[t]):
                return False
    return True
