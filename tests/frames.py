"""Frame predicates the tests use as brute-force oracles."""

from japdr.circuit import Circuit, TraceFrame, eval_circuit, eval_literal


def frame_satisfies(circuit: Circuit, frame: TraceFrame, props) -> bool:
    """True when no property in `props` is violated on the frame."""
    values = eval_circuit(circuit, frame)
    return all(not eval_literal(values, p.bad) for p in props)


def constraints_hold(circuit: Circuit, frame: TraceFrame) -> bool:
    values = eval_circuit(circuit, frame)
    return all(eval_literal(values, c) for c in circuit.constraints)
