import json
import random

import pytest

from japdr import cli, orchestrator, pdr
from japdr.aiger import (
    build_counter,
    circuit_fingerprint,
    emit_ascii,
    gen_counter,
    gen_random_circuit,
    parse_file,
)
from japdr.circuit import Counterexample, TraceFrame, property_violated
from japdr.cli import main
from japdr.clausedb import ClauseRecord, append
from japdr.oracle import CheckMode, ExplicitModel
from japdr.orchestrator import (
    Mode,
    RunReport,
    RunTotals,
    Verdict,
    VerdictStatus as S,
    VerificationTask,
    run,
)
from japdr.report import (
    EXIT_ERROR,
    EXIT_FAILURES,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    exit_code,
    format_csv,
    format_json,
    format_report,
    format_text,
    validate_report_json,
)
from test_acceptance import replay_witness_file
from test_orchestrator import _expected_status, verdict_for, without_simulation


def v(index, status):
    return Verdict(property_index=index, status=status)


@pytest.mark.parametrize(
    "statuses,want",
    [
        ([S.HOLDS_LOCAL, S.HOLDS_GLOBAL], EXIT_OK),
        ([S.ETF_CONFIRMED, S.HOLDS_LOCAL], EXIT_OK),
        ([S.FAILS_LOCAL, S.HOLDS_LOCAL], EXIT_FAILURES),
        ([S.FAILS_GLOBAL], EXIT_FAILURES),
        ([S.ETF_HOLDS_LOCAL], EXIT_FAILURES),
        ([S.UNKNOWN, S.HOLDS_LOCAL], EXIT_UNKNOWN),
        # a failure somewhere outranks an unknown elsewhere
        ([S.UNKNOWN, S.FAILS_LOCAL], EXIT_FAILURES),
        ([], EXIT_OK),
        # an engine error sits between the two
        ([S.ERROR, S.HOLDS_LOCAL], EXIT_ERROR),
        ([S.ERROR, S.UNKNOWN], EXIT_ERROR),
        ([S.ERROR, S.FAILS_GLOBAL], EXIT_FAILURES),
        ([S.ERROR, S.ETF_HOLDS_LOCAL], EXIT_FAILURES),
    ],
)
def test_exit_code_table(statuses, want):
    assert exit_code([v(i, s) for i, s in enumerate(statuses)]) == want


def ja_report():
    c, props = gen_counter(3)
    return run(VerificationTask(c, tuple(props), Mode.JA))


def test_json_report_is_parse_stable():
    rep = ja_report()
    text = format_json(rep)
    assert text.endswith("\n")
    doc = json.loads(text)
    again = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == text
    assert validate_report_json(doc) == []


def test_json_report_content():
    doc = json.loads(format_json(ja_report()))
    assert doc["mode"] == "ja"
    assert doc["debugging_set"] == [0]
    by_index = {r["index"]: r for r in doc["verdicts"]}
    assert by_index[0]["status"] == "FailsLocal"
    assert by_index[0]["evidence"] == {"cex_depth": 0}
    assert by_index[1]["status"] == "HoldsLocal"
    assert by_index[1]["evidence"] == {"clauses": 0}
    assert doc["totals"]["sat_calls"] > 0


def test_validate_report_json_flags_problems():
    doc = json.loads(format_json(ja_report()))
    del doc["verdicts"][0]["status"]
    doc["totals"]["sat_calls"] = "many"
    doc["debugging_set"] = [0, "x"]
    problems = validate_report_json(doc)
    assert len(problems) == 3
    assert any("status" in p for p in problems)
    assert validate_report_json([]) != []


def test_csv_report_columns():
    lines = format_csv(ja_report()).splitlines()
    assert lines[0] == "index,kind,status,time_s,frames,sat_calls,witness_file"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "eth" and first[2] == "FailsLocal"


def test_text_report_mentions_conclusion():
    rep = ja_report()
    text = format_text(rep)
    assert "FailsLocal" in text and "HoldsLocal" in text
    assert rep.conclusion in text


def test_format_report_dispatch():
    rep = ja_report()
    for fmt in ("text", "json", "csv"):
        payload, code = format_report(rep, fmt)
        assert isinstance(payload, bytes) and payload
        assert code == EXIT_FAILURES
    with pytest.raises(ValueError):
        format_report(rep, "yaml")


def counter_file(tmp_path, bits=3):
    c, _ = gen_counter(bits)
    path = tmp_path / f"counter{bits}.aag"
    path.write_bytes(emit_ascii(c))
    return path


def test_cli_check_text(tmp_path, capsys):
    code = main(["check", str(counter_file(tmp_path)), "--reuse-clauses", "off"])
    out = capsys.readouterr().out
    assert code == EXIT_FAILURES
    assert "FailsLocal" in out and "HoldsLocal" in out


def test_cli_check_json_and_witnesses(tmp_path, capsys):
    wdir = tmp_path / "wit"
    code = main(
        [
            "check",
            str(counter_file(tmp_path)),
            "--report",
            "json",
            "--witness-dir",
            str(wdir),
            "--reuse-clauses",
            "off",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_FAILURES
    doc = json.loads(out)
    assert validate_report_json(doc) == []
    # the failing property gets a concrete stimulus; the simulation from
    # reset finds P0's trace, so both inputs are the first lane's draws of
    # its fixed-seed stream
    assert (wdir / "b0.wit").read_bytes() == b"1\nb0\n000\n10\n.\n"
    c, props = gen_counter(3)
    replay_witness_file(c, props, (wdir / "b0.wit").read_bytes())
    # P1 holds only while P0 is assumed, and fails globally at depth 5, so
    # its witness claims nothing
    assert (wdir / "b1.wit").read_bytes() == b"2\nb1\n"
    by_index = {r["index"]: r for r in doc["verdicts"]}
    assert by_index[0]["witness_file"].endswith("b0.wit")


def test_cli_check_modes_and_csv(tmp_path, capsys):
    path = counter_file(tmp_path)
    for mode in ("sep-global", "joint"):
        code = main(
            ["check", str(path), "--mode", mode, "--report", "csv",
             "--reuse-clauses", "off"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_FAILURES
        assert out.splitlines()[0].startswith("index,kind,status")
        assert "FailsGlobal" in out


def test_cli_check_etf_remarking(tmp_path, capsys):
    code = main(
        ["check", str(counter_file(tmp_path)), "--etf", "0",
         "--reuse-clauses", "off", "--report", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    by_index = {r["index"]: r for r in doc["verdicts"]}
    assert by_index[0]["kind"] == "etf"
    assert by_index[0]["status"] == "EtfConfirmed"
    # the remaining lone property has nothing left to assume and fails
    assert by_index[1]["status"] == "FailsLocal"
    assert code == EXIT_FAILURES


@pytest.mark.parametrize("token", ["+1", "0_1", "\u0661", "-0"])
def test_cli_index_lists_take_ascii_digits_only(tmp_path, capsys, token):
    # `int` reads each of these as an index (1, 1, 1 and 0); the CLI, like
    # the file readers, takes ASCII digits only
    path = str(counter_file(tmp_path))
    assert main(["check", path, "--etf", token, "--reuse-clauses", "off"]) == EXIT_USAGE
    assert "bad index list" in capsys.readouterr().err


def test_cli_check_unknown_exit(tmp_path, capsys):
    c, _ = gen_counter(20)
    path = tmp_path / "big.aag"
    path.write_bytes(emit_ascii(c))
    code = main(
        ["check", str(path), "--mode", "sep-global",
         "--per-prop-timeout", "0.05", "--reuse-clauses", "off"]
    )
    capsys.readouterr()
    assert code == EXIT_FAILURES  # req still fails; failures outrank unknowns


def test_cli_prints_clause_store_warnings_as_single_lines(tmp_path, capsys):
    db = tmp_path / "clauses.db"
    append([ClauseRecord((0,), 0, ())], db, "f" * 64)
    with open(db, "a") as fh:
        fh.write("- 0 1")  # a record a killed writer left without its newline
    code = main(
        ["check", str(counter_file(tmp_path)), "--clause-db", str(db)]
    )
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_FAILURES
    assert len(err) == 2
    assert all(line.startswith("japdr: clause db: ") for line in err)
    assert "torn last record" in err[0]
    assert "section for unknown circuit ffffffffffff skipped" in err[1]


def test_cli_skips_a_foreign_section_holding_a_non_ascii_byte(tmp_path, capsys):
    args = ["check", str(counter_file(tmp_path)), "--report", "json"]
    assert main([*args, "--reuse-clauses", "off"]) == EXIT_FAILURES
    plain = json.loads(capsys.readouterr().out)
    db = tmp_path / "clauses.db"
    db.write_bytes(b"japdr-clausedb v1 " + b"f" * 64 + b" 1\n- 0 1\xe9\n")
    code = main([*args, "--clause-db", str(db)])
    out, err = capsys.readouterr()
    assert code == EXIT_FAILURES
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("japdr: clause db: ")
    assert "section for unknown circuit ffffffffffff skipped" in err[0]
    statuses = [[v["status"] for v in doc["verdicts"]] for doc in (plain, json.loads(out))]
    assert statuses[0] == statuses[1]


def test_cli_reports_a_clause_db_it_cannot_open(tmp_path, capsys):
    code = main(["check", str(counter_file(tmp_path)), "--clause-db", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_PARSE
    assert len(err) == 1 and err[0].startswith("japdr: clause db: ")


def test_cli_refuses_an_unwritable_clause_db_before_any_check(tmp_path, capsys):
    # the counter's proofs learn no clauses, so no harvest ever writes:
    # the store must still open its path before the first check
    path = counter_file(tmp_path)
    db = tmp_path / "clauses.db"
    assert main(["check", str(path), "--clause-db", str(db)]) == EXIT_FAILURES
    assert db.read_bytes() == b""
    capsys.readouterr()
    missing = tmp_path / "missing" / "clauses.db"
    code = main(["check", str(path), "--clause-db", str(missing)])
    out, err = capsys.readouterr()
    assert code == EXIT_PARSE and out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("japdr: clause db: ")


def _refused_output(capsys, code):
    """The exit of a command refused over an output path: one line on
    stderr, no traceback, nothing on stdout."""
    out, err = capsys.readouterr()
    assert code == EXIT_PARSE and out == ""
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("japdr: ")


def test_cli_refuses_a_witness_dir_it_cannot_make_before_any_check(
    tmp_path, capsys, monkeypatch
):
    path = counter_file(tmp_path)
    blocker = tmp_path / "f"
    blocker.touch()
    runs = []
    monkeypatch.setattr(cli, "run", runs.append)
    code = main(["check", str(path), "--witness-dir", str(blocker)])
    _refused_output(capsys, code)
    assert runs == []


def test_cli_bmc_refuses_a_witness_dir_it_cannot_make(tmp_path, capsys):
    path = counter_file(tmp_path)
    blocker = tmp_path / "f"
    blocker.touch()
    args = ["bmc", str(path), "--prop", "0", "--depth", "2", "--witness-dir", str(blocker)]
    _refused_output(capsys, main(args))


def test_cli_gen_refuses_an_output_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "missing" / "x.aag"
    _refused_output(capsys, main(["gen-counter", "--bits", "3", "-o", str(out)]))


def test_cli_refuses_a_clause_db_with_clause_reuse_off(tmp_path, capsys):
    db = tmp_path / "clauses.db"
    args = ["check", str(counter_file(tmp_path)), "--reuse-clauses", "off",
            "--clause-db", str(db)]
    assert main(args) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("japdr: ") and "clause re-use" in err
    assert not db.exists()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["check", "--etf", "2", "--reuse-clauses", "off"], EXIT_USAGE,
         "--etf index 2 out of range"),
        (["bmc", "--prop", "2", "--depth", "3"], EXIT_USAGE, "--prop 2 out of range"),
        (["bmc", "--prop", "1", "--depth", "3", "--assume", "1"], EXIT_USAGE,
         "--assume index 1 invalid"),
        (["bmc", "--prop", "1", "--depth", "3", "--assume", "5"], EXIT_USAGE,
         "--assume index 5 invalid"),
        (["oracle", "--cap-bits", "2"], EXIT_PARSE, "enumeration cap"),
    ],
    ids=["etf-index", "bmc-prop", "bmc-assume-target", "bmc-assume-range", "oracle-cap"],
)
def test_cli_rejects_indices_and_sizes_it_cannot_serve(tmp_path, capsys, argv, code, message):
    path = counter_file(tmp_path)
    assert main([argv[0], str(path), *argv[1:]]) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("japdr: ") and message in err


def test_an_engine_error_costs_only_its_own_verdict(tmp_path, monkeypatch, capsys):
    # a deliberately broken engine hook: the check of P1 returns a one-frame
    # trace from reset on which P1's bad does not fire, so replay rejects it
    real_check = orchestrator.check_property

    def non_replaying(circuit, target, ctx=(), seeds=(), **kwargs):
        if target.index != 1:
            return real_check(circuit, target, ctx, seeds, **kwargs)
        frame = TraceFrame(circuit.init_state(), (0,) * circuit.num_inputs)
        cex = Counterexample((frame,), target.index)
        return pdr.PdrOutcome(pdr.PdrStatus.FAILS, pdr.PdrStats(), cex=cex)

    monkeypatch.setattr(orchestrator, "check_property", non_replaying)
    without_simulation(monkeypatch)  # it would refute P1 before any engine
    thr = build_counter(5, thresholds=4)
    systems = [(thr.circuit, thr.props)]
    for seed in range(6):
        systems.append(gen_random_circuit(
            random.Random(seed),
            num_inputs=2, num_latches=5, num_gates=16, num_props=3, mutate=seed % 2 == 1,
        ))
    checked = 0
    for c, props in systems:
        props = tuple(props)
        frame = TraceFrame(c.init_state(), (0,) * c.num_inputs)
        if property_violated(c, frame, props[1]):
            continue  # the planted trace would replay
        checked += 1
        for mode in (Mode.JA, Mode.SEPARATE_GLOBAL):
            rep = run(VerificationTask(c, props, mode))
            broken = verdict_for(rep, 1)
            assert broken.status is S.ERROR and "invalid trace" in broken.evidence
            assert rep.conclusion.startswith("incomplete: engine error on P1 (")
            for v in rep.verdicts:
                if v.property_index == 1:
                    continue
                want = _expected_status(c, props, v.property_index, mode)
                if want is S.HOLDS_GLOBAL and mode is Mode.JA:
                    want = S.HOLDS_LOCAL  # the error leaves the upgrade unproven
                assert v.status is want, (mode, v)
    assert checked >= 4

    path = tmp_path / "thresholds.aag"
    path.write_bytes(emit_ascii(thr.circuit))
    wdir = tmp_path / "wit"
    code = main(["check", str(path), "--reuse-clauses", "off", "--report", "json",
                 "--witness-dir", str(wdir)])
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert validate_report_json(json.loads(out)) == []
    assert err.startswith("japdr: engine error on P1: engine returned an invalid trace")
    assert (wdir / "b1.wit").read_bytes() == b"2\nb1\n"
    # the error leaves P0's proof local, so its witness claims nothing either
    assert (wdir / "b0.wit").read_bytes() == b"2\nb0\n"


def test_cli_writes_proof_witnesses_only_for_global_proofs(tmp_path, capsys):
    # a JA run with an empty debugging set upgrades every proof to global
    path = tmp_path / "thresholds.aag"
    path.write_bytes(emit_ascii(build_counter(4, thresholds=3).circuit))
    wdir = tmp_path / "wit"
    code = main(["check", str(path), "--reuse-clauses", "off", "--report", "json",
                 "--witness-dir", str(wdir)])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and doc["debugging_set"] == []
    assert {r["status"] for r in doc["verdicts"]} == {"HoldsGlobal"}
    for i in range(3):
        assert (wdir / f"b{i}.wit").read_bytes() == f"0\nb{i}\n".encode()


@pytest.mark.parametrize("mode", ["ja", "sep-global", "joint"])
def test_an_etf_proof_is_global_once_every_eth_proof_is(tmp_path, capsys, mode):
    # an ETF check assumes every ETH property: once they all hold
    # globally, its proof covers every reachable state
    path = tmp_path / "thresholds.aag"
    path.write_bytes(emit_ascii(build_counter(4, thresholds=3).circuit))
    wdir = tmp_path / "wit"
    code = main(["check", str(path), "--etf", "2", "--mode", mode, "--reuse-clauses", "off",
                 "--report", "json", "--witness-dir", str(wdir)])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_FAILURES
    assert [r["status"] for r in doc["verdicts"]] == ["HoldsGlobal"] * 2 + ["EtfHoldsLocal"]
    assert (wdir / "b2.wit").read_bytes() == b"0\nb2\n"


def test_an_etf_proof_under_a_failing_eth_property_stays_local(tmp_path, capsys):
    # P1 holds while P0 is assumed, but P0 fails at reset
    wdir = tmp_path / "wit"
    code = main(["check", str(counter_file(tmp_path)), "--etf", "1", "--reuse-clauses", "off",
                 "--report", "json", "--witness-dir", str(wdir)])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_FAILURES and doc["debugging_set"] == [0]
    assert doc["verdicts"][1]["status"] == "EtfHoldsLocal"
    assert (wdir / "b1.wit").read_bytes() == b"2\nb1\n"


def test_cli_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.aag"
    bad.write_text("not an aiger file\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == EXIT_PARSE and err


def test_cli_missing_file_exit(tmp_path, capsys):
    code = main(["check", str(tmp_path / "absent.aag")])
    assert code == EXIT_PARSE


def test_cli_usage_exit(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["check"]) == EXIT_USAGE
    assert main(["check", "absent.aag", "--order", "given"]) == EXIT_USAGE  # no such flag
    capsys.readouterr()


def test_cli_gen_counter_roundtrip(tmp_path, capsys):
    out = tmp_path / "c.aag"
    assert main(["gen-counter", "--bits", "4", "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", str(out), "--reuse-clauses", "off"]) == EXIT_FAILURES
    capsys.readouterr()


def test_cli_gen_counter_thresholds(tmp_path, capsys):
    out = tmp_path / "thr.aag"
    assert (
        main(["gen-counter", "--bits", "4", "--thresholds", "3", "-o", str(out)])
        == EXIT_OK
    )
    capsys.readouterr()
    code = main(["check", str(out), "--reuse-clauses", "off", "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert all(r["status"] in ("HoldsLocal", "HoldsGlobal") for r in doc["verdicts"])


def test_cli_gen_output_format_follows_extension(tmp_path, capsys):
    # .aig names get binary bytes, anything else ASCII
    aag = tmp_path / "c.aag"
    aig = tmp_path / "c.aig"
    assert main(["gen-counter", "--bits", "4", "-o", str(aag)]) == EXIT_OK
    assert main(["gen-counter", "--bits", "4", "-o", str(aig)]) == EXIT_OK
    assert aag.read_bytes().startswith(b"aag ")
    assert aig.read_bytes().startswith(b"aig ")
    ca, _ = parse_file(aag)
    cb, _ = parse_file(aig)
    assert len(ca.latches) == len(cb.latches) == 4
    rnd = tmp_path / "r.aig"
    assert main(["gen-random", "--seed", "5", "-o", str(rnd)]) == EXIT_OK
    assert rnd.read_bytes().startswith(b"aig ")
    capsys.readouterr()


def test_cli_gen_random_and_oracle(tmp_path, capsys, monkeypatch):
    out = tmp_path / "r.aag"
    assert (
        main(
            ["gen-random", "--seed", "7", "--latches", "4", "--inputs", "2",
             "--gates", "8", "--props", "2", "-o", str(out)]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    built = []

    class CountingModel(ExplicitModel):
        def __init__(self, *args, **kw):
            built.append(1)
            super().__init__(*args, **kw)

    monkeypatch.setattr(cli, "ExplicitModel", CountingModel)
    code = main(["oracle", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert len(built) == 1  # one tabulation answers every question

    def verdict(result):
        return "holds" if result.holds else f"fails (depth {result.cex.depth})"

    circuit, props = parse_file(out)
    debug = []
    for i in range(len(props)):
        local = ExplicitModel(circuit).brute_check(props, i, CheckMode.LOCAL)
        global_ = ExplicitModel(circuit).brute_check(props, i, CheckMode.GLOBAL)
        assert lines[i] == f"P{i}: local {verdict(local)}; global {verdict(global_)}"
        if not local.holds:
            debug.append(f"P{i}")
    assert lines[len(props):] == ["debugging set: {" + ", ".join(debug) + "}"]
    assert code == (EXIT_FAILURES if debug else EXIT_OK)


def test_cli_bmc(tmp_path, capsys):
    path = counter_file(tmp_path)
    wdir = tmp_path / "w"
    code = main(
        ["bmc", str(path), "--prop", "1", "--depth", "5",
         "--witness-dir", str(wdir)]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "depth 5" in out
    assert (wdir / "b1.wit").read_bytes().startswith(b"1\nb1\n")
    capsys.readouterr()
    code = main(["bmc", str(path), "--prop", "1", "--depth", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "no counterexample" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-counter", "--bits", "1"], "at least 2 bits"),
        (["gen-counter", "--bits", "4", "--thresholds", "20"], "exceed counter range"),
        (["gen-random", "--seed", "1", "--latches", "0"], "at least one latch"),
    ],
)
def test_cli_generator_rejects_bad_sizes_as_usage(tmp_path, capsys, argv, message):
    out = tmp_path / "g.aag"
    assert main([*argv, "-o", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("japdr: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-random", "--seed", "1", "--inputs", "-1"],
        ["gen-random", "--seed", "1", "--gates", "-1"],
        ["gen-counter", "--bits", "4", "--thresholds", "-3"],
        ["gen-counter", "--bits", "x"],
    ],
)
def test_cli_generator_rejects_negative_counts(tmp_path, capsys, argv):
    out = tmp_path / "g.aag"
    assert main([*argv, "-o", str(out)]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_cli_bmc_rejects_a_negative_depth(tmp_path, capsys):
    path = counter_file(tmp_path)
    assert main(["bmc", str(path), "--prop", "1", "--depth", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--depth" in captured.err and "no counterexample" not in captured.out
    assert main(["bmc", str(path), "--prop", "1", "--depth", "0"]) == EXIT_OK
    assert "up to depth 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--per-prop-timeout", "nan"],
        ["check", "--total-timeout", "nan"],
        ["bmc", "--prop", "1", "--timeout", "nan"],
    ],
    ids=["per-prop-timeout", "total-timeout", "bmc-timeout"],
)
def test_cli_rejects_a_nan_timeout(tmp_path, capsys, argv):
    path = counter_file(tmp_path)
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert argv[-2] in captured.err and "must be positive" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_oracle_rejects_a_negative_cap(tmp_path, capsys):
    path = counter_file(tmp_path)
    assert main(["oracle", str(path), "--cap-bits", "-1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--cap-bits" in err and "enumeration cap" not in err


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = counter_file(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "japdr", "check", str(path), "--reuse-clauses", "off"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == EXIT_FAILURES
    assert "FailsLocal" in proc.stdout


def test_unknown_status_row_has_unknown_witness(tmp_path):
    c, props = gen_counter(3)
    task = VerificationTask(c, tuple(props), Mode.JA)
    rep = RunReport(
        task=task,
        verdicts=(
            Verdict(property_index=0, status=S.UNKNOWN),
            Verdict(
                property_index=1,
                status=S.FAILS_LOCAL,
                evidence=Counterexample((TraceFrame((0, 0, 0), (0, 0)),), 1),
            ),
        ),
        debugging_set=(),
        conclusion="budget ran out",
        totals=RunTotals(wall_s=0.0, sat_calls=0, clauses_learned=0),
    )
    payload, code = format_report(rep, "json")
    assert code == EXIT_FAILURES
    doc = json.loads(payload)
    assert {r["status"] for r in doc["verdicts"]} == {"Unknown", "FailsLocal"}


def test_cli_prints_a_dropped_out_of_range_record_as_one_line(tmp_path, capsys):
    path = counter_file(tmp_path)
    circuit, _ = parse_file(path)
    n = circuit.num_latches
    db = tmp_path / "clauses.db"
    append([ClauseRecord((2 * n,), 0, ())], db, circuit_fingerprint(circuit))
    code = main(["check", str(path), "--clause-db", str(db)])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_FAILURES
    assert err == [f"japdr: clause db: {db}: 1 records past the circuit's {n} latches dropped"]
