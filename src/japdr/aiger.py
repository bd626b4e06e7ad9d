"""AIGER 1.9 frontend: one reader and one writer for both encodings, ASCII
and binary, witness emission, and circuit generators used throughout the
test rig.

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
    A binary file leaves input and latch literals implicit and delta-codes gates.
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
    nums = [_read_uint(tok, "header field") for tok in counts]
    nums += [0] * (9 - len(nums))
    m, ni, nl, no, na, nb, nc, nj, nf = nums
    if nj or nf:
        raise AigerError("justice/fairness sections are not supported")
    if binary and m != ni + nl + na:
        raise AigerError(f"binary header M={m} != I+L+A={ni + nl + na}")
    pre_19 = len(counts) == 5
    pos = newline + 1

    def row(what: str, widths=(1,)) -> list[int]:
        """The next text row as numbers. Every row ends in a newline, except
        that the last row of an ASCII file may end where the data does."""
        nonlocal pos
        end = data.find(b"\n", pos)
        if end < 0:
            if binary or pos > len(data):
                raise AigerError(f"unexpected end of file reading {what}")
            end = len(data)
        toks = data[pos:end].split()
        pos = end + 1
        if len(toks) not in widths:
            raise AigerError(f"{what} has {len(toks)} fields, not {' or '.join(map(str, widths))}")
        return [_read_uint(tok, what) for tok in toks]

    if binary:
        input_lits = [2 * (1 + i) for i in range(ni)]
    else:
        input_lits = [row(f"input {i}")[0] for i in range(ni)]
    latch_rows = []
    for i in range(nl):
        if binary:
            fields = [2 * (1 + ni + i), *row(f"latch {i}", (1, 2))]
        else:
            fields = row(f"latch {i}", (2, 3))
        if len(fields) == 2:
            fields.append(0)  # the reset value defaults to 0
        latch_rows.append(fields)
    output_lits = [row(f"output {i}")[0] for i in range(no)]
    bad_lits = [row(f"bad {i}")[0] for i in range(nb)]
    constr_lits = [row(f"constraint {i}")[0] for i in range(nc)]
    if binary:
        and_rows = _read_deltas(data, pos, 1 + ni + nl, na)
    else:
        and_rows = [row(f"and gate {i}", (3,)) for i in range(na)]
    if pre_19:
        bad_lits = output_lits  # outputs double as properties in pre-1.9 files
    circuit = _assemble(m, input_lits, latch_rows, and_rows, output_lits, bad_lits, constr_lits)
    props = [PropertySpec(i, bad, PropertyKind.ETH) for i, bad in enumerate(circuit.bads)]
    return circuit, props


def parse_file(path):
    with open(path, "rb") as fh:
        return parse(fh.read())


def _read_uint(tok: bytes, what: str) -> int:
    # ASCII digits only: `int` would also take a sign, underscores and
    # other scripts' digits
    if not tok.isdigit():
        raise AigerError(f"bad {what}: {tok!r}")
    return int(tok)


def _read_deltas(data, pos, first_var, count):
    """The gate rows of a binary file, read from `pos`. Gate i defines
    variable first_var + i, and its operands follow as two deltas, each
    seven bits a byte, least significant first."""

    def read_delta():
        nonlocal pos
        value, shift = 0, 0
        while True:
            if pos >= len(data):
                raise AigerError("unexpected end of file in binary and section")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    and_rows = []
    for i in range(count):
        lhs = 2 * (first_var + i)
        delta0 = read_delta()
        rhs0 = lhs - delta0
        rhs1 = rhs0 - read_delta()
        if delta0 == 0 or rhs1 < 0:
            raise AigerError(f"non-monotone binary delta for and gate {i}")
        and_rows.append((lhs, rhs0, rhs1))
    return and_rows


def _assemble(m, input_lits, latch_rows, and_rows, output_lits, bad_lits, constr_lits):
    """Remap arbitrary file numbering onto the dense in-memory layout and
    build the circuit. Each input, latch and gate output must be an even
    nonzero literal of its own, its variable at most M; outputs are
    checked but not kept."""
    ni, nl = len(input_lits), len(latch_rows)
    if m < ni + nl + len(and_rows):
        raise AigerError(f"header M={m} smaller than I+L+A")
    var_map: dict[int, int] = {0: 0}
    gate_defs = {}

    def define(lit, what):
        if lit < 2 or lit & 1:
            raise AigerError(f"{what} literal must be even and nonzero: {lit}")
        if lit >> 1 > m:
            raise AigerError(f"{what} variable {lit >> 1} above M={m}")
        if lit >> 1 in var_map or lit >> 1 in gate_defs:
            raise AigerError(f"variable {lit >> 1} defined twice")
        return lit >> 1

    for i, lit in enumerate(input_lits):
        var_map[define(lit, "input")] = 1 + i
    for i, (cur, _, _) in enumerate(latch_rows):
        var_map[define(cur, "latch")] = 1 + ni + i
    for lhs, r0, r1 in and_rows:
        gate_defs[define(lhs, "and output")] = (r0, r1)

    def convert(aiger_lit, what):
        var = aiger_lit >> 1
        if var not in var_map:
            raise AigerError(f"{what} references undefined variable {var}")
        mapped = var_map[var]
        neg = bool(aiger_lit & 1)
        if mapped == 0:
            neg = not neg
        return Literal(mapped, neg)

    # number each gate after its operands; ASCII files may list them in any order
    gates = []
    on_path = set()  # gates whose operands are being numbered
    for root in gate_defs:
        stack = [root]
        while stack:
            var = stack[-1]
            if var in var_map:
                stack.pop()
                continue
            on_path.add(var)
            waiting = False
            for operand in gate_defs[var]:
                opv = operand >> 1
                if opv in gate_defs and opv not in var_map:
                    if opv in on_path:
                        raise AigerError(f"cyclic and definition at variable {opv}")
                    stack.append(opv)
                    waiting = True
            if waiting:
                continue
            stack.pop()
            on_path.discard(var)
            var_map[var] = 1 + ni + nl + len(gates)
            r0, r1 = gate_defs[var]
            left, right = convert(r0, "and operand"), convert(r1, "and operand")
            gates.append(AndGate(var_map[var], left, right))

    latches = []
    for i, (cur, nxt, init) in enumerate(latch_rows):
        if init == cur:
            raise AigerError(f"latch {i} has undefined initial value (X reset)")
        if init not in (0, 1):
            raise AigerError(f"latch {i} init literal {init} not supported")
        latches.append(Latch(1 + ni + i, convert(nxt, f"latch {i} next"), init))
    for lit in output_lits:
        convert(lit, "output")
    bads = tuple(convert(lit, "bad") for lit in bad_lits)
    constrs = tuple(convert(lit, "constraint") for lit in constr_lits)
    return Circuit(ni, tuple(latches), tuple(gates), bads, constrs)


def emit_ascii(circuit: Circuit) -> bytes:
    """Canonical aag emission; the clause-db fingerprint hashes these bytes."""
    return _emit(circuit, binary=False)


def emit_binary(circuit: Circuit) -> bytes:
    return _emit(circuit, binary=True)


def _emit(circuit: Circuit, binary: bool) -> bytes:
    """The header and the latch, bad and constraint rows are shared. ASCII
    adds the input rows, latch literals and gate rows; binary leaves those
    implicit and appends two operand deltas per gate (see `_read_deltas`)."""
    ni, nl, na = circuit.num_inputs, circuit.num_latches, len(circuit.ands)
    nb, nc = len(circuit.bads), len(circuit.constraints)
    header = f"{'aig' if binary else 'aag'} {ni + nl + na} {ni} {nl} 0 {na}"
    if nb or nc:
        header += f" {nb}"
    if nc:
        header += f" {nc}"
    lines = [header]
    if not binary:
        for var in circuit.input_vars:
            lines.append(str(2 * var))
    for latch in circuit.latches:
        fields = f"{_lit_to_file(latch.next)} {latch.init}"
        lines.append(fields if binary else f"{2 * latch.var} {fields}")
    for lit in (*circuit.bads, *circuit.constraints):
        lines.append(str(_lit_to_file(lit)))
    if not binary:
        for gate in circuit.ands:
            lines.append(f"{2 * gate.out} {_lit_to_file(gate.left)} {_lit_to_file(gate.right)}")
    out = bytearray(("\n".join(lines) + "\n").encode())
    if binary:
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
    """Counter circuit with its properties, width and reset threshold rval."""

    circuit: Circuit
    props: tuple[PropertySpec, ...]
    bits: int
    rval: int


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
    return CounterBuild(circuit, props, bits, rval)


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
