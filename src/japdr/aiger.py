"""AIGER 1.9 frontend: ASCII and binary readers, a canonical ASCII writer,
witness emission, and circuit generators used throughout the test rig.

File literals use the AIGER convention (0 = false, 1 = true); the in-memory
Literal inverts the polarity of variable 0, so conversion happens here and
nowhere else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .circuit import (
    FALSE,
    TRUE,
    AndGate,
    Circuit,
    CircuitBuilder,
    Counterexample,
    Latch,
    Literal,
    PropertyKind,
    PropertySpec,
)


class AigerError(ValueError):
    """Malformed AIGER input."""


def _lit_to_file(lit: Literal) -> int:
    neg = lit.negated
    if lit.var == 0:
        neg = not neg
    return lit.var * 2 + int(neg)


def parse(data: bytes):
    """Parse ASCII or binary AIGER bytes into (Circuit, [PropertySpec]).

    Sections M I L O A B C are honored; J and F are rejected. Files without
    a B section treat outputs as bad literals. Properties default to ETH.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise AigerError("expected bytes")
    newline = data.find(b"\n")
    if newline < 0:
        raise AigerError("missing header line")
    header = data[:newline].split()
    if not header or header[0] not in (b"aag", b"aig"):
        raise AigerError("header must start with 'aag' or 'aig'")
    binary = header[0] == b"aig"
    counts = header[1:]
    if not 5 <= len(counts) <= 9:
        raise AigerError(f"header has {len(counts)} count fields, expected 5..9")
    try:
        nums = [int(tok) for tok in counts]
    except ValueError as exc:
        raise AigerError(f"non-numeric header field: {exc}") from None
    if any(n < 0 for n in nums):
        raise AigerError("negative header field")
    nums += [0] * (9 - len(nums))
    m, ni, nl, no, na, nb, nc, nj, nf = nums
    if nj or nf:
        raise AigerError("justice/fairness sections are not supported")
    if binary and m != ni + nl + na:
        raise AigerError(f"binary header M={m} != I+L+A={ni + nl + na}")
    pre_19 = len(counts) == 5

    if binary:
        circuit = _parse_binary(data, newline + 1, ni, nl, no, na, nb, nc)
    else:
        circuit = _parse_ascii(data, newline + 1, m, ni, nl, no, na, nb, nc)
    circuit, outputs, bads = circuit
    if pre_19:
        bads = outputs  # outputs double as properties in pre-1.9 files
    props = [PropertySpec(i, bad, PropertyKind.ETH) for i, bad in enumerate(bads)]
    final = Circuit(
        circuit.num_inputs, circuit.latches, circuit.ands, tuple(bads), circuit.constraints
    )
    return final, props


def parse_file(path):
    with open(path, "rb") as fh:
        return parse(fh.read())


def _read_uint(tok: bytes, what: str) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise AigerError(f"bad {what}: {tok!r}") from None
    if value < 0:
        raise AigerError(f"negative {what}")
    return value


def _parse_ascii(data, pos, m, ni, nl, no, na, nb, nc):
    lines = data[pos:].split(b"\n")
    cursor = 0

    def next_line(what):
        nonlocal cursor
        if cursor >= len(lines):
            raise AigerError(f"unexpected end of file reading {what}")
        line = lines[cursor]
        cursor += 1
        return line

    input_lits = []
    for i in range(ni):
        lit = _read_uint(next_line(f"input {i}").strip(), "input literal")
        if lit < 2 or lit & 1:
            raise AigerError(f"input literal must be even and nonzero: {lit}")
        input_lits.append(lit)
    latch_rows = []
    for i in range(nl):
        toks = next_line(f"latch {i}").split()
        if len(toks) not in (2, 3):
            raise AigerError(f"latch line needs 2 or 3 fields: {toks}")
        cur = _read_uint(toks[0], "latch literal")
        nxt = _read_uint(toks[1], "latch next literal")
        init = _read_uint(toks[2], "latch init") if len(toks) == 3 else 0
        if cur < 2 or cur & 1:
            raise AigerError(f"latch literal must be even and nonzero: {cur}")
        latch_rows.append((cur, nxt, init))
    output_lits = [
        _read_uint(next_line(f"output {i}").strip(), "output literal") for i in range(no)
    ]
    bad_lits = [_read_uint(next_line(f"bad {i}").strip(), "bad literal") for i in range(nb)]
    constr_lits = [
        _read_uint(next_line(f"constraint {i}").strip(), "constraint literal")
        for i in range(nc)
    ]
    and_rows = []
    for i in range(na):
        toks = next_line(f"and gate {i}").split()
        if len(toks) != 3:
            raise AigerError(f"and line needs 3 fields: {toks}")
        lhs, r0, r1 = (_read_uint(t, "and literal") for t in toks)
        if lhs < 2 or lhs & 1:
            raise AigerError(f"and output literal must be even and nonzero: {lhs}")
        and_rows.append((lhs, r0, r1))
    return _assemble(m, input_lits, latch_rows, and_rows, output_lits, bad_lits, constr_lits)


def _parse_binary(data, pos, ni, nl, no, na, nb, nc):
    text_end = pos
    # latch/output/bad/constraint lines are ASCII even inside binary files
    rows_needed = nl + no + nb + nc
    for _ in range(rows_needed):
        nxt = data.find(b"\n", text_end)
        if nxt < 0:
            raise AigerError("unexpected end of file in binary section header")
        text_end = nxt + 1
    lines = data[pos:text_end].split(b"\n")[:rows_needed]
    cursor = 0
    latch_rows = []
    for i in range(nl):
        toks = lines[cursor].split()
        cursor += 1
        if len(toks) not in (1, 2):
            raise AigerError(f"binary latch line needs 1 or 2 fields: {toks}")
        cur = 2 * (ni + 1 + i)
        nxt = _read_uint(toks[0], "latch next literal")
        init = _read_uint(toks[1], "latch init") if len(toks) == 2 else 0
        latch_rows.append((cur, nxt, init))
    output_lits = []
    for i in range(no):
        output_lits.append(_read_uint(lines[cursor].strip(), "output literal"))
        cursor += 1
    bad_lits = []
    for i in range(nb):
        bad_lits.append(_read_uint(lines[cursor].strip(), "bad literal"))
        cursor += 1
    constr_lits = []
    for i in range(nc):
        constr_lits.append(_read_uint(lines[cursor].strip(), "constraint literal"))
        cursor += 1

    offset = text_end

    def read_delta():
        nonlocal offset
        value, shift = 0, 0
        while True:
            if offset >= len(data):
                raise AigerError("unexpected end of file in binary and section")
            byte = data[offset]
            offset += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    and_rows = []
    for i in range(na):
        lhs = 2 * (ni + nl + 1 + i)
        delta0 = read_delta()
        delta1 = read_delta()
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if delta0 == 0 or rhs0 < 0 or rhs1 < 0:
            raise AigerError(f"non-monotone binary delta for and gate {i}")
        and_rows.append((lhs, rhs0, rhs1))
    input_lits = [2 * (i + 1) for i in range(ni)]
    m = ni + nl + na
    return _assemble(m, input_lits, latch_rows, and_rows, output_lits, bad_lits, constr_lits)


def _assemble(m, input_lits, latch_rows, and_rows, output_lits, bad_lits, constr_lits):
    """Remap arbitrary file numbering onto the dense in-memory layout."""
    ni, nl = len(input_lits), len(latch_rows)
    var_map: dict[int, int] = {0: 0}
    for i, lit in enumerate(input_lits):
        var_map[lit >> 1] = 1 + i
    for i, (cur, _, _) in enumerate(latch_rows):
        if cur >> 1 in var_map:
            raise AigerError(f"variable {cur >> 1} defined twice")
        var_map[cur >> 1] = 1 + ni + i
    gate_defs = {}
    for lhs, r0, r1 in and_rows:
        if lhs >> 1 in var_map or lhs >> 1 in gate_defs:
            raise AigerError(f"variable {lhs >> 1} defined twice")
        gate_defs[lhs >> 1] = (r0, r1)
    if m < ni + nl + len(and_rows):
        raise AigerError(f"header M={m} smaller than I+L+A")

    # topologically order gates; ASCII files may list them in any order
    order: list[int] = []
    state: dict[int, int] = {}  # 1 = on stack, 2 = done
    for root in gate_defs:
        if state.get(root):
            continue
        stack = [(root, False)]
        while stack:
            var, expanded = stack.pop()
            if expanded:
                state[var] = 2
                order.append(var)
                continue
            if state.get(var) == 2:
                continue
            if state.get(var) == 1:
                raise AigerError(f"cyclic and definition at variable {var}")
            state[var] = 1
            stack.append((var, True))
            for operand in gate_defs[var]:
                opv = operand >> 1
                if opv in gate_defs and state.get(opv) != 2:
                    if state.get(opv) == 1:
                        raise AigerError(f"cyclic and definition at variable {opv}")
                    stack.append((opv, False))
    for i, var in enumerate(order):
        var_map[var] = 1 + ni + nl + i

    def convert(aiger_lit, what):
        var = aiger_lit >> 1
        if var not in var_map:
            raise AigerError(f"{what} references undefined variable {var}")
        mapped = var_map[var]
        neg = bool(aiger_lit & 1)
        if mapped == 0:
            neg = not neg
        return Literal(mapped, neg)

    latches = []
    for i, (cur, nxt, init) in enumerate(latch_rows):
        if init == cur:
            raise AigerError(f"latch {i} has undefined initial value (X reset)")
        if init not in (0, 1):
            raise AigerError(f"latch {i} init literal {init} not supported")
        latches.append(Latch(1 + ni + i, convert(nxt, f"latch {i} next"), init))
    gates = []
    for var in order:
        r0, r1 = gate_defs[var]
        gates.append(
            AndGate(var_map[var], convert(r0, "and operand"), convert(r1, "and operand"))
        )
    outputs = [convert(lit, "output") for lit in output_lits]
    bads = [convert(lit, "bad") for lit in bad_lits]
    constrs = [convert(lit, "constraint") for lit in constr_lits]
    circuit = Circuit(ni, tuple(latches), tuple(gates), (), tuple(constrs))
    return circuit, outputs, bads


def emit_ascii(circuit: Circuit) -> bytes:
    """Canonical aag emission; the clause-db fingerprint hashes these bytes."""
    ni, nl, na = circuit.num_inputs, circuit.num_latches, len(circuit.ands)
    nb, nc = len(circuit.bads), len(circuit.constraints)
    header = f"aag {ni + nl + na} {ni} {nl} 0 {na}"
    if nb or nc:
        header += f" {nb}"
    if nc:
        header += f" {nc}"
    lines = [header]
    for var in circuit.input_vars:
        lines.append(str(2 * var))
    for latch in circuit.latches:
        lines.append(f"{2 * latch.var} {_lit_to_file(latch.next)} {latch.init}")
    for bad in circuit.bads:
        lines.append(str(_lit_to_file(bad)))
    for constr in circuit.constraints:
        lines.append(str(_lit_to_file(constr)))
    for gate in circuit.ands:
        lines.append(f"{2 * gate.out} {_lit_to_file(gate.left)} {_lit_to_file(gate.right)}")
    return ("\n".join(lines) + "\n").encode()


def emit_binary(circuit: Circuit) -> bytes:
    ni, nl, na = circuit.num_inputs, circuit.num_latches, len(circuit.ands)
    nb, nc = len(circuit.bads), len(circuit.constraints)
    header = f"aig {ni + nl + na} {ni} {nl} 0 {na}"
    if nb or nc:
        header += f" {nb}"
    if nc:
        header += f" {nc}"
    out = bytearray((header + "\n").encode())
    for latch in circuit.latches:
        out += f"{_lit_to_file(latch.next)} {latch.init}\n".encode()
    for bad in circuit.bads:
        out += f"{_lit_to_file(bad)}\n".encode()
    for constr in circuit.constraints:
        out += f"{_lit_to_file(constr)}\n".encode()
    for gate in circuit.ands:
        lhs = 2 * gate.out
        r0, r1 = sorted((_lit_to_file(gate.left), _lit_to_file(gate.right)), reverse=True)
        for delta in (lhs - r0, r0 - r1):
            while delta >= 0x80:
                out.append(0x80 | (delta & 0x7F))
                delta >>= 7
            out.append(delta)
    return bytes(out)


def circuit_fingerprint(circuit: Circuit) -> str:
    return hashlib.sha256(emit_ascii(circuit)).hexdigest()


def emit_witness(prop_index: int, cex: Counterexample | None, status: str = "sat") -> bytes:
    """Witness bytes for one property.

    sat: "1", "b<i>", the init latch line, one input line per frame, ".".
    unsat: "0" and the tag; unknown: "2" and the tag.
    """
    tag = f"b{prop_index}"
    if status == "unsat":
        return f"0\n{tag}\n".encode()
    if status == "unknown":
        return f"2\n{tag}\n".encode()
    if status != "sat" or cex is None:
        raise ValueError("sat witness requires a counterexample")
    lines = ["1", tag, "".join(str(b) for b in cex.frames[0].latch_values)]
    for frame in cex.frames:
        lines.append("".join(str(b) for b in frame.input_values))
    lines.append(".")
    return ("\n".join(lines) + "\n").encode()


@dataclass(frozen=True)
class CounterBuild:
    """Counter circuit plus handles on its named internal nets."""

    circuit: Circuit
    props: tuple[PropertySpec, ...]
    bits: int
    rval: int
    enable: Literal
    req: Literal
    val: tuple[Literal, ...]  # LSB first
    eq_rval: Literal
    reset: Literal


def build_counter(bits: int, thresholds=None) -> CounterBuild:
    """k-bit enable/req counter with a reset that (wrongly) waits for req.

    next val = val           when !enable
             = 0             when enable and val == rval and req
             = val+1 mod 2^k otherwise,       with rval = 2^(k-1).

    Default properties: P0 "req is asserted" (bad: !req) and P1
    "val <= rval" (bad: val > rval). Passing `thresholds=n` instead builds
    n properties "val <= rval + j" for j in 0..n-1, no req property, and
    the constraint req = 1, under which the reset fires reliably and every
    threshold is a real invariant. The loosest thresholds are not
    inductive on their own, so their proofs need strengthening clauses
    that overlap heavily across the family.
    """
    if bits < 2:
        raise ValueError("counter needs at least 2 bits")
    b = CircuitBuilder(num_inputs=2, num_latches=bits)
    enable, req = b.input_lit(0), b.input_lit(1)
    val = tuple(b.latch_lit(i) for i in range(bits))
    rval = 1 << (bits - 1)

    low_zero = b.conj(~val[i] for i in range(bits - 1))
    eq_rval = b.and_(val[bits - 1], low_zero)
    reset = b.and_(eq_rval, req)

    carry = TRUE
    inc = []
    for i in range(bits):
        inc.append(b.xor(val[i], carry))
        carry = b.and_(carry, val[i])
    for i in range(bits):
        kept = b.and_(inc[i], ~reset)
        b.set_next(i, b.mux(enable, kept, val[i]))

    def gt_const(limit: int) -> Literal:
        """val > limit as a literal (builds comparison gates once per call)."""
        # walk from MSB: strictly greater when some bit exceeds the bound
        # with all higher bits equal
        gt = FALSE
        eq = TRUE
        for i in reversed(range(bits)):
            bit = (limit >> i) & 1
            if bit == 0:
                gt = b.or_(gt, b.and_(eq, val[i]))
                eq = b.and_(eq, ~val[i])
            else:
                eq = b.and_(eq, val[i])
        return gt

    if thresholds is None:
        b.bads = [~req, gt_const(rval)]
    else:
        if rval + thresholds > (1 << bits) - 1:
            raise ValueError("thresholds exceed counter range; use more bits")
        b.bads = [gt_const(rval + j) for j in range(thresholds)]
        b.constraints.append(req)
    circuit = b.build()
    props = tuple(
        PropertySpec(i, bad, PropertyKind.ETH) for i, bad in enumerate(circuit.bads)
    )
    return CounterBuild(
        circuit, props, bits, rval, enable, req, val, eq_rval, reset
    )


def gen_counter(bits: int):
    """The two-property buggy counter: returns (Circuit, [P0, P1])."""
    built = build_counter(bits)
    return built.circuit, list(built.props)


def gen_random_circuit(
    rng,
    num_inputs: int = 3,
    num_latches: int = 6,
    num_gates: int = 14,
    num_props: int = 3,
    mutate: bool = False,
):
    """Random dense AIG with `num_props` bad literals.

    Bad literals are products of latch literals disagreeing with the reset
    state, so properties start out satisfied and a mix of verdicts shows up
    across seeds. `mutate` redirects one latch's next-state function, the
    usual way of planting a bug.
    """
    if num_latches < 1:
        raise ValueError("need at least one latch")
    b = CircuitBuilder(num_inputs, num_latches, init=[rng.randint(0, 1) for _ in range(num_latches)])
    pool = [b.input_lit(i) for i in range(num_inputs)]
    pool += [b.latch_lit(i) for i in range(num_latches)]

    def rand_lit():
        lit = rng.choice(pool)
        return ~lit if rng.random() < 0.5 else lit

    for _ in range(num_gates):
        out = b.and_(rand_lit(), rand_lit())
        if out.var > num_inputs + num_latches:  # folding may return an operand
            pool.append(out)
    for i in range(num_latches):
        b.set_next(i, rand_lit())
    init = b._init
    for p in range(num_props):
        width = rng.randint(1, min(3, num_latches))
        positions = rng.sample(range(num_latches), width)
        terms = []
        for pos in positions:
            lit = b.latch_lit(pos)
            # disagree with reset on at least the first chosen latch
            want = 1 - init[pos] if not terms else rng.randint(0, 1)
            terms.append(lit if want else ~lit)
        bad = b.conj(terms)
        if rng.random() < 0.25:
            bad = b.and_(bad, rand_lit())
        b.bads.append(bad)
    circuit = b.build()
    if mutate and circuit.num_latches:
        pos = rng.randrange(circuit.num_latches)
        victim = circuit.latches[pos]
        candidates = [Literal(v) for v in range(1, circuit.num_vars)]
        new_next = rng.choice(candidates)
        if rng.random() < 0.5:
            new_next = ~new_next
        latches = list(circuit.latches)
        latches[pos] = Latch(victim.var, new_next, victim.init)
        circuit = Circuit(
            circuit.num_inputs,
            tuple(latches),
            circuit.ands,
            circuit.bads,
            circuit.constraints,
        )
    props = [PropertySpec(i, bad, PropertyKind.ETH) for i, bad in enumerate(circuit.bads)]
    return circuit, props
