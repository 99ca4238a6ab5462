"""Command-line surface: config handling, output formats, exit codes."""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import darktrio
from darktrio import cli
from darktrio.cli import RunConfig, _Column, main, parse_config

SRC = str(pathlib.Path(darktrio.__file__).parents[1])


def config_to_dict(cfg: RunConfig) -> dict:
    """The config in its JSON form, the reference for the JSON output's head:
    ``parse_config`` round-trips it."""
    doc = {}
    for name, field_name in cli._FIELD_FOR.items():
        value = getattr(cfg.params, field_name)
        doc[name] = [value.real, value.imag] if isinstance(value, complex) else value
    doc.update(atom=cfg.kind.value, scan=[dataclasses.asdict(axis) for axis in cfg.scan],
               tol=dict(cfg.tol), sector=cfg.sector)
    return doc


def _emit(cfg, table, fmt, output):
    """Write ``table``'s document as ``main`` does: to ``output``, or to stdout."""
    cli._write(cli._text(cfg, table, fmt), output)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


DARK_POINT = {"omega_a": 1.0, "omega_b": 1.0, "omega_c": 1.0,
              "lambda": 0.2, "xi": 0.05, "kappa": 0.2}


def test_spectrum_single_point_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["status"] == "ok"
    np.testing.assert_allclose(
        [row["E1"], row["E2"], row["E3"]],
        [0.7930295020247184, 0.9607532983742692, 1.2462171996010124],
        atol=1e-12,
    )
    assert row["interlacing"] is True
    assert row["Gamma1"] == [0.10606601717798211, 0.0]
    assert payload["config"]["atom"] == "two-level"


def test_spectrum_csv_round_trip_columns(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    columns = header.split(",")
    assert "lambda_re" in columns and "Gamma2_im" in columns
    values = dict(zip(columns, row.split(",")))
    assert values["status"] == "ok"
    assert float(values["E1"]) == pytest.approx(0.7930295020247184, abs=1e-12)
    assert values["ass1"] == "true"


def test_classify_dark_point(tmp_path, capsys):
    cfg = write_config(tmp_path, DARK_POINT)
    code, out, _ = run_cli(capsys, "classify", "--config", cfg)
    assert code == 0
    rows = json.loads(out)["rows"]
    labels = sorted(r["class"] for r in rows)
    assert labels == ["bright", "bright", "dark"]
    dark = next(r for r in rows if r["class"] == "dark")
    assert dark["energy"] == pytest.approx(0.95, abs=1e-12)
    assert dark["dark_residual"] == pytest.approx(0.0, abs=1e-15)


def test_classify_swapped_point(tmp_path, capsys):
    swapped = dict(DARK_POINT, **{"lambda": 0.05, "xi": 0.2})
    cfg = write_config(tmp_path, swapped)
    code, out, _ = run_cli(capsys, "classify", "--config", cfg)
    assert code == 0
    rows = json.loads(out)["rows"]
    quasi = [r for r in rows if r["class"] == "quasi-dark"]
    assert len(quasi) == 1
    assert quasi[0]["energy"] == pytest.approx(0.95, abs=1e-12)


def test_classify_no_field_coupling_is_all_bright(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"omega_a": 1.0, "omega_b": 1.1, "omega_c": 0.9,
         "lambda": 0.2, "xi": 0.1, "kappa": 0.0},
    )
    code, out, _ = run_cli(capsys, "classify", "--config", cfg)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert all(r["class"] == "bright" for r in rows)


def test_scan_lambda_single_value_shows_quasi_dark(tmp_path, capsys):
    doc = dict(DARK_POINT, scan=[{"param": "lambda", "start": 0.0, "stop": 0.0,
                                  "steps": 1}], xi=0.2)
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_cli(capsys, "scan", "classify", "--config", cfg)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert any(r["class"] == "quasi-dark" for r in rows)


def test_spectrum_scan_flags_positivity_violations(tmp_path, capsys):
    doc = dict(DARK_POINT, scan=[{"param": "kappa", "start": 0.5, "stop": 1.5,
                                  "steps": 3}])
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_cli(capsys, "scan", "spectrum", "--config", cfg)
    assert code == 0  # per-row reporting, not fatal
    rows = json.loads(out)["rows"]
    assert [r["ass1"] for r in rows] == [True, False, False]
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "AssumptionViolation"
    assert rows[1]["E1"] is None


def test_duality_output(tmp_path, capsys):
    cfg = write_config(tmp_path, DARK_POINT)
    code, out, _ = run_cli(capsys, "duality", "--config", cfg)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["passed"] is True
    assert row["max_mismatch"] < 1e-10
    assert row["E2"] == pytest.approx(row["E2_swapped"], abs=1e-12)


def test_verify_default_fixture_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    rows = json.loads(out)["rows"]
    gated = [r for r in rows if not r["skipped"]]
    assert gated and all(r["passed"] for r in gated)


def test_verify_corrupted_tolerance_exits_three(capsys):
    code, _, _ = run_cli(capsys, "verify", "--tol", "v_unitarity=0")
    assert code == 3


def test_verify_dense_solver_failure_exits_three(monkeypatch, capsys):
    from darktrio import model, oracle

    eigensolve = model._eigensolve

    def not_converging(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def failing(*args, **kwargs):  # the dense solves fail as LAPACK's do when it does not converge
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", not_converging)
            patch.setattr(np.linalg, "eigvalsh", not_converging)
            return eigensolve(*args, **kwargs)

    # the oracle's solves: model._eigh's, and the photon-phonon and sector stacks
    for module in (model, oracle):
        monkeypatch.setattr(module, "_eigensolve", failing)
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "verify", "--format", fmt)
        assert (code, out) == (3, "")
        assert err == ("verification failed: dense eigensolver failed: "
                       "Eigenvalues did not converge\n")


def test_verify_photon_phonon_solver_failure_exits_three(monkeypatch, capsys):
    # only the photon-phonon reference solve fails
    eigh = np.linalg.eigh

    def failing_on_2x2(a, *args, **kwargs):
        if np.shape(a)[-1] == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing_on_2x2)
    for fmt in ("json", "csv"):
        code, out, err = run_cli(capsys, "verify", "--format", fmt)
        assert (code, out) == (3, "")
        assert err == ("verification failed: dense eigensolver failed: "
                       "Eigenvalues did not converge\n")


def test_single_point_duality_past_its_tolerance_exits_three(tmp_path, capsys):
    # a resonant real point of the resonant-detuned-grid fixture whose
    # occupations differ by 1.5e-12
    cfg = write_config(tmp_path, {"omega_a": 1.03, "omega_b": 1.0, "omega_c": 1.0,
                                  "lambda": 0.25999999999999995, "xi": 0.20666666666666664,
                                  "kappa": 0.1})
    code, out, err = run_cli(capsys, "duality", "--config", cfg, "--tol", "duality=0")
    assert (code, err) == (3, "")
    row = json.loads(out)["rows"][0]
    assert (row["status"], row["passed"]) == ("ok", False)
    assert row["max_mismatch"] == 1.4779288903810084e-12


def test_verify_decoupled_atom_skips_and_exits_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"omega_a": 1.0, "omega_b": 1.0, "omega_c": 1.2,
         "lambda": 0.0, "xi": 0.0, "kappa": 0.2},
    )
    code, out, _ = run_cli(capsys, "verify", "--config", cfg)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert any(r["skipped"] and "coupling" in r["reason"] for r in rows)


def test_verify_sector_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(DARK_POINT, atom="oscillator"))
    code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--sector", "3")
    assert code == 0
    names = [r["check"] for r in json.loads(out)["rows"]]
    assert "sector-2-spectrum" in names
    assert "sector-3-spectrum" in names
    # the flag replaces the sector of a config that names one, and its check passes
    golden = pathlib.Path(__file__).parent / "golden" / "oscillator-sector-3.config.json"
    code, out, _ = run_cli(capsys, "verify", "--config", str(golden), "--sector", "4")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["check"] for r in rows][-2:] == ["sector-2-spectrum", "sector-4-spectrum"]
    assert rows[-1]["passed"] and not rows[-1]["skipped"]


def test_verify_sector_flag_skips_where_assumptions_fail(tmp_path, capsys):
    cfg = write_config(tmp_path, {"atom": "oscillator", "kappa": 1.5})
    # a skipped sector 141 is never built, so it does not meet the size cap
    for sector in ("3", "141"):
        code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--sector", sector)
        assert code == 0
        rows = {r["check"]: r for r in json.loads(out)["rows"]}
        for name in ("sector-2-spectrum", f"sector-{sector}-spectrum"):
            assert rows[name]["skipped"]
            assert rows[name]["reason"] == "standing assumptions not satisfied"
    assert code == run_cli(capsys, "verify", "--config", cfg)[0]


def test_verify_sector_flag_two_level_reports_the_row_skipped(tmp_path, capsys):
    # level sums apply to the oscillator only, so no sector matrix is built:
    # sector 141 does not meet the size cap either
    cfg = write_config(tmp_path, DARK_POINT)
    for argv in (["--sector", "3"], ["--sector", "141"]):
        code, out, _ = run_cli(capsys, "verify", "--config", cfg, *argv)
        assert code == 0
        rows = {r["check"]: r for r in json.loads(out)["rows"]}
        for name in ("sector-2-spectrum", f"sector-{argv[1]}-spectrum"):
            assert rows[name]["skipped"]
            assert rows[name]["reason"] == "level sums apply to the oscillator atom"
    # the config key asks for the same row
    cfg = write_config(tmp_path, dict(DARK_POINT, sector=3))
    rows = json.loads(run_cli(capsys, "verify", "--config", cfg)[1])["rows"]
    assert [r["check"] for r in rows][-2:] == ["sector-2-spectrum", "sector-3-spectrum"]


def test_verify_sector_flag_gives_the_unsolved_spectrum_reason(tmp_path, capsys):
    # all assumptions hold, but the dressed levels are too close to solve
    cfg = write_config(tmp_path, {"atom": "oscillator", "omega_c": 1.3,
                                  "lambda": 2e-12, "xi": 2e-12, "kappa": 0.0})
    code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--sector", "3")
    assert code == 0
    rows = {r["check"]: r for r in json.loads(out)["rows"]}
    reason = rows["dressed-levels"]["reason"]
    assert reason.startswith("dressed spectrum unavailable: dressed levels")
    for name in ("sector-2-spectrum", "sector-3-spectrum"):
        assert rows[name]["skipped"]
        assert rows[name]["reason"] == reason


def test_verify_sector_flag_size_limit_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(DARK_POINT, atom="oscillator"))
    code, out, err = run_cli(capsys, "verify", "--config", cfg, "--sector", "141")
    assert code == 2
    assert out == ""
    assert "10153x10153" in err


@pytest.mark.parametrize("command", [["spectrum"], ["classify"], ["duality"],
                                     ["scan", "spectrum"]],
                         ids=["spectrum", "classify", "duality", "scan"])
def test_sector_flag_is_verify_only(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--sector", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sector 2" in capsys.readouterr().err
    # the config key stays valid for every command
    cfg = write_config(tmp_path, {"sector": 2})
    assert run_cli(capsys, *command, "--config", cfg)[0] == 0


def test_verify_refuses_a_config_with_scan_axes(tmp_path, capsys):
    # rather than check the base point and drop the axes
    cfg = write_config(tmp_path, {"scan": [{"param": "xi", "start": 0, "stop": 1, "steps": 2}]})
    line = "config error: verify checks a single point; the config has scan axes\n"
    for fmt in ("json", "csv"):
        assert run_cli(capsys, "verify", "--config", cfg, "--format", fmt) == (1, "", line)
    assert run_cli(capsys, "scan", "--config", cfg)[0] == 0


@pytest.mark.parametrize("argv", [["scan", "duality", "--tol", "duality=1e-9"],
                                  ["classify", "--tol", "classify=1e-8"],
                                  ["verify", "--tol", "b1=1e-9"]],
                         ids=["scan", "point", "verify"])
def test_a_run_forms_its_tolerances_once(capsys, argv):
    with mock.patch.object(darktrio.Tolerances, "override", autospec=True,
                           side_effect=darktrio.Tolerances.override) as override:
        assert run_cli(capsys, *argv)[0] == 0
    assert override.call_count == 1


def test_single_point_assumption_violation_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(DARK_POINT, kappa=1.5))
    code, _, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 2


def test_single_point_gamma_zero_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"lambda": 0.0, "xi": 0.0})
    code, _, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 2


def test_config_errors_exit_one(tmp_path, capsys):
    def assert_config_error(*argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        return err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    # more digits than Python converts to an int
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"omega_a": 1' + "0" * 5000 + "}")
    for path in (bad_json, long_int):
        assert_config_error("spectrum", "--config", str(path))

    def axis(**entry):
        return {"scan": [{"param": "xi", "start": 0, "stop": 1, "steps": 2, **entry}]}

    for doc in (
        {"omega_a": -1.0},
        {"unknown_key": 1},
        axis(param="nope"),
        axis(param=["xi"]),
        axis(steps=0),
        {"tol": {"nope": 1e-9}},
        {"lambda": "abc"},
        # a scan value is real: it would drop the base value's imaginary part
        {"lambda": [0.2, 0.1], "scan": [{"param": "lambda", "start": 0.1, "stop": 0.3,
                                         "steps": 3}]},
        {"tol": [1]},
        {"scan": 5},
        axis(start="x"),
        axis(start=[1]),
        axis(start="0.05"),
        axis(stop=float("inf")),
        {"tol": {"b1": float("nan")}},
        {"tol": {"b1": float("inf")}},
        # integers beyond the float range
        {"omega_a": 10**400},
        {"kappa": [0, -(10**400)]},
        {"tol": {"b1": 10**400}},
        # a range beyond the float range: no overflow warning on the way
        axis(start=-1e308, stop=1e308, steps=3),
        [1],
        {"atom": "qubit"},
        {"scan": [5]},
    ):
        cfg = write_config(tmp_path, doc)
        for fmt in ("json", "csv"):
            assert_config_error("spectrum", "--config", cfg, "--format", fmt)

    # a grid over the cap is refused before any of it is built
    huge = write_config(tmp_path, axis(steps=1_000_000_000))
    tracemalloc.start()
    try:
        assert_config_error("scan", "spectrum", "--config", huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    just_over = write_config(tmp_path, {"scan": [
        {"param": "xi", "start": 0, "stop": 1, "steps": 11_111_112}]})
    code, _, err = run_cli(capsys, "scan", "spectrum", "--config", just_over)
    assert code == 1
    assert err == ("config error: scan of 11,111,112 points needs 800,000,064 bytes "
                   "of parameters; cap is 800,000,000 bytes\n")

    # flag values pass the checks of the file's own
    tol_list = write_config(tmp_path, {"tol": [1]})
    for flags in (["--tol", "b1"], ["--tol", "classify=nan"], ["--tol", "classify=inf"],
                  ["--tol", "sector=-1"], ["--tol", "b1=abc"], ["--sector", "-1"],
                  ["--config", tol_list, "--tol", "b1=1e-9"]):
        for fmt in ("json", "csv"):
            assert_config_error("verify", *flags, "--format", fmt)
    # and under a command without the verify rows
    for fmt in ("json", "csv"):
        assert_config_error("spectrum", "--tol", "classify=nan", "--format", fmt)

    # an output path that cannot be opened for writing: a missing directory, a directory
    for argv in (["spectrum"], ["verify"], ["scan", "spectrum", "--format", "csv"]):
        for path in (tmp_path / "missing" / "out", tmp_path):
            err = assert_config_error(*argv, "--output", str(path))
            assert err.startswith(f"config error: cannot write output {str(path)!r}: ")


@pytest.mark.parametrize("data", [
    b"\xef\xbb\xbf{}",  # a byte-order mark
    b'{"omega_a": 1.0, "xi": "\xff"}',  # not UTF-8
    b'{\r\n  "omega_a": 1.0,\r\n  x\r\n}',  # CRLF lines, an error on the third
    b'{\r  "xi": 0.1,\r  "kappa": }',  # CR lines
    b"",
    b'{"kappa": 0.2,\r\n "xi": "\xc3\xa9"}\r\n',
    b'{"kappa": 0.2,\r\n "lambda": 0.1}\r\n',
])
def test_a_config_file_reads_as_a_utf8_text_file(tmp_path, capsys, data):
    # the file is read as bytes and decoded as UTF-8; its errors and their
    # positions are those of a text-mode read
    path = tmp_path / "config.json"
    path.write_bytes(data)
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except ValueError as err:
        want = (1, "", f"config error: config {str(path)!r} is not valid JSON: {err}\n")
    else:
        want = run_cli(capsys, "spectrum", "--config", write_config(tmp_path, doc, "clean.json"))
    assert run_cli(capsys, "spectrum", "--config", str(path)) == want


@pytest.mark.parametrize("option, want", [
    ("--output", "cannot write output 'a\\x00b': embedded null byte"),
    ("--config", "cannot read config 'a\\x00b': embedded null byte"),
], ids=["output", "config"])
def test_a_path_with_a_null_byte_is_a_config_error(capsys, option, want):
    assert run_cli(capsys, "spectrum", option, "a\0b") == (1, "", f"config error: {want}\n")


def test_a_config_path_that_is_no_file_is_a_config_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing.json"):
        with pytest.raises(OSError) as err:
            open(path)
        want = f"config error: cannot read config {str(path)!r}: {err.value}\n"
        assert run_cli(capsys, "spectrum", "--config", str(path)) == (1, "", want)


@pytest.mark.parametrize("key", list(cli._FIELD_FOR))
def test_each_rejected_config_value_names_its_key(tmp_path, capsys, key):
    # a frequency must be a positive number; a coupling a number or a pair
    texts = ["true", '"0.5"', "1e400", "[1e400, 0.0]", "[0.1]", "[0.1, 0.2, 0.3]",
             '[0.1, "0.2"]', "[false, 0.1]"]
    if key.startswith("omega"):
        texts += ["0", "-0.5", "[1.0, 0.0]"]
    for text in texts:
        path = tmp_path / "config.json"
        path.write_text('{"%s": %s}' % (key, text))
        code, out, err = run_cli(capsys, "spectrum", "--config", str(path))
        assert code == 1 and out == "", text
        assert err.startswith(f"config error: {key} must be ") and err.count("\n") == 1, err


#: points at which the quasimode-basis matrix's norm overflows, so LAPACK
#: may not converge on it: the dressed spectrum fails before the solve
OVERFLOWING_NORMS = {
    "xi-max": {"omega_a": 1.0, "omega_b": 0.33, "omega_c": 1.0, "lambda": 0.2,
               "xi": -1.7976931348623157e+308, "kappa": 0.1},
    "complex-xi": {"omega_a": 1.0, "omega_b": 0.33055509097692304, "omega_c": 1.0,
                   "lambda": [-1.5165002935313194, -1e-09],
                   "xi": [-1e+300, -1.7976931348623157e+308], "kappa": -1e-300,
                   "atom": "oscillator"},
    "complex-lambda": {"omega_a": 2.0, "omega_b": 1.0, "omega_c": 1e-300,
                       "lambda": [0.1, 1e+300], "xi": -1.0, "kappa": [-5e-324, -1e-300],
                       "atom": "oscillator"},
}


def _output_rows(out: str, fmt: str) -> list[dict]:
    return json.loads(out)["rows"] if fmt == "json" else list(csv.DictReader(io.StringIO(out)))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("point, command, code, status", [
    ("xi-max", "spectrum", 3, "DegenerateSpectrum"),
    ("complex-xi", "spectrum", 3, "DegenerateSpectrum"),
    # the resonance check comes first; the swapped copy's spectrum fails
    ("complex-lambda", "duality", 2, "NotResonant"),
])
def test_an_overflowing_matrix_norm_fails_the_point(tmp_path, capsys, fmt, point, command,
                                                     code, status):
    cfg = write_config(tmp_path, OVERFLOWING_NORMS[point])
    got, out, err = run_cli(capsys, command, "--config", cfg, "--format", fmt)
    assert got == code and "Traceback" not in err
    assert [row["status"] for row in _output_rows(out, fmt)] == [status]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_overflowing_matrix_norm_is_a_verify_report(tmp_path, capsys, fmt):
    cfg = write_config(tmp_path, OVERFLOWING_NORMS["complex-xi"])
    code, out, err = run_cli(capsys, "verify", "--config", cfg, "--format", fmt)
    assert code == 0 and err == ""
    rows = {row["check"]: row for row in _output_rows(out, fmt)}
    assert rows["dressed-levels"]["reason"] == "an effective coupling vanishes"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_rows_fail_where_the_matrix_norm_overflows(tmp_path, capsys, fmt):
    cfg = write_config(tmp_path, dict(OVERFLOWING_NORMS["xi-max"], scan=[
        {"param": "xi", "start": -1.7976931348623157e+308, "stop": 0.1, "steps": 3}]))
    code, out, err = run_cli(capsys, "scan", "spectrum", "--config", cfg, "--format", fmt)
    assert code == 0 and "Traceback" not in err
    rows = _output_rows(out, fmt)
    assert [row["status"] for row in rows] == ["DegenerateSpectrum"] * 2 + ["ok"]
    levels = [float(rows[-1][name]) for name in ("E1", "E2", "E3")]
    assert all(map(math.isfinite, levels))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_squared_coupling_that_overflows_prints_no_warning(tmp_path, capsys, fmt):
    # |Gamma_2| is finite and |Gamma_2|^2 overflows: the margins of the
    # spectrum's and the report's rows are formed without a numpy warning
    cfg = write_config(tmp_path, {"omega_a": 1.0, "omega_b": 0.33, "omega_c": 1.0,
                                  "lambda": 0.2, "xi": 1e200, "kappa": 0.1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "spectrum", "--config", cfg, "--format", fmt)
        assert (code, err) == (3, "")
        assert [row["status"] for row in _output_rows(out, fmt)] == ["DegenerateSpectrum"]
        code, out, err = run_cli(capsys, "verify", "--config", cfg, "--format", fmt)
        assert (code, err) == (0, "")
        rows = {row["check"]: row for row in _output_rows(out, fmt)}
        assert rows["dressed-levels"]["reason"].startswith("dressed spectrum unavailable: ||H||")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_resonant_frequencies_near_the_float_limit_print_no_warning(tmp_path, capsys, fmt):
    # omega_b + omega_c overflows; the resonant frequency, their mean, does not
    cfg = write_config(tmp_path, {"omega_a": 1e308, "omega_b": 1e308, "omega_c": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "duality", "--config", cfg, "--format", fmt)
        assert (code, err) == (2, "")
        assert [row["status"] for row in _output_rows(out, fmt)] == ["DegenerateTwoMode"]
        code, out, err = run_cli(capsys, "classify", "--config", cfg, "--format", fmt)
        assert (code, err) == (0, "")
        # omega - omega_a is 0, so the residuals are |f(lambda, xi)| and |f(xi, lambda)|
        assert {(float(row["dark_residual"]), float(row["quasidark_residual"]))
                for row in _output_rows(out, fmt)} == {(0.07500000000000001, 0.30000000000000004)}
        code, out, err = run_cli(capsys, "verify", "--config", cfg, "--format", fmt)
        assert (code, err) == (0, "")


#: points whose couplings sit near the float range: lambda -+ xi overflows at the first
#: two, and the bare matrix's residual at the last two, whose Frobenius norms overflow
EXTREME_COUPLINGS = {
    "lambda-minus-xi": {"omega_a": 1.5, "omega_b": 1, "omega_c": 1,
                        "lambda": -1.7e308, "xi": 1.7e308, "kappa": 0.5},
    "lambda-plus-xi": {"omega_a": 1e10, "omega_b": 1e300, "omega_c": 1e300,
                       "lambda": -1.7e308, "xi": -1.7e308, "kappa": 1e-300},
    "residual-matmul": {"omega_a": 1.7e308, "omega_b": 1.5, "omega_c": 1e10,
                        "lambda": -1.7e308, "xi": 1e150, "kappa": 0.5},
    "residual-multiply": {"omega_a": 1.5, "omega_b": 1e-10, "omega_c": 1e-10,
                          "lambda": 0.5, "xi": -1.7e308, "kappa": -1.7e308},
}


@pytest.mark.parametrize("command", ["classify", "duality", "verify"])
@pytest.mark.parametrize("point", list(EXTREME_COUPLINGS))
def test_couplings_near_the_float_range_print_no_warning(tmp_path, capsys, point, command):
    cfg = write_config(tmp_path, EXTREME_COUPLINGS[point])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, command, "--config", cfg)
    assert code in (0, 2, 3) and "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_classify_solves_where_the_bare_norm_overflows(tmp_path, capsys, fmt):
    # the bare matrix's Frobenius norm overflows; its solve is checked
    # against finite bounds, which it passes
    cfg = write_config(tmp_path, OVERFLOWING_NORMS["xi-max"])
    code, out, err = run_cli(capsys, "classify", "--config", cfg, "--format", fmt)
    assert code == 0 and err == ""
    rows = _output_rows(out, fmt)
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert [row["class"] for row in rows] == ["dark", "quasi-dark", "dark"]


def test_verify_json_refuses_a_non_finite_shown_cell(tmp_path, capsys):
    # ||B|| overflows, so two tolerances are inf: CSV prints them, JSON cannot
    cfg = write_config(tmp_path, {"omega_a": 1.454491339143512, "omega_b": 1e+300,
                                  "omega_c": 1e-160, "lambda": -2.0, "xi": 1e-300,
                                  "kappa": 1.0, "atom": "oscillator"})
    code, out, err = run_cli(capsys, "verify", "--config", cfg, "--format", "csv")
    assert code == 3
    rows = {row["check"]: row for row in csv.DictReader(io.StringIO(out))}
    assert rows["quasimode-energies"]["tolerance"] == "inf"
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert (code, out) == (3, "")
    assert err.startswith("verification failed: quasimode-energies has a non-finite ")
    assert err.count("\n") == 1


def _frobenius(*entries) -> float:
    return math.sqrt(sum(abs(complex(*z) if isinstance(z, list) else z) ** 2 for z in entries))


@pytest.mark.parametrize("tol", [[], ["--tol", "u_diag=3e-12", "--tol", "e_match=2e-11"]])
@pytest.mark.parametrize("scale", [0.1, 1.0])
def test_verify_tolerances_follow_their_documented_formulas(tmp_path, capsys, scale, tol):
    doc = {"omega_a": 1.02 * scale, "omega_b": scale, "omega_c": scale, "lambda": 0.2 * scale,
           "xi": 0.05 * scale, "kappa": 0.1 * scale, "atom": "oscillator"}
    kappa = doc["kappa"]
    block = _frobenius(doc["omega_b"], doc["omega_c"], kappa, kappa)
    bare = _frobenius(doc["omega_a"], doc["omega_b"], doc["omega_c"],
                      *[doc[name] for name in ("lambda", "xi", "kappa")] * 2)
    assert (block < 1.0 and bare < 1.0) if scale < 1.0 else (block > 1.0 and bare > 1.0)
    t = darktrio.Tolerances().override(
        {name: float(value) for name, value in (entry.split("=") for entry in tol[1::2])})
    formulas = {
        "quasimode-energies": t.eps_match * max(1.0, block), "mixing-sum": t.m_sum,
        "u-unitarity": t.u_unitarity, "u-diagonalization": t.u_diag * block,
        "pole-identity": t.a1, "cross-product-identity": t.a2, "eps1-positive": 0.0,
        "dressed-levels": t.e_match * max(1.0, bare), "level-trace": t.trace,
        "cubic-roots": t.root, "v-unitarity": t.v_unitarity,
        "v-diagonalization": t.v_diag * max(1.0, bare), "column-orthogonality-rule": t.b1,
        "normalizers": t.n_norm, "eigenvector-match": t.eigvec,
        "eigenstate-residuals": t.eigenstate, "interlacing": 0.0,
        "occupation-amplitudes": t.occupation, "sector-2-spectrum": t.sector,
        "sector-3-spectrum": t.sector,
    }
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--sector", "3", *tol)
    assert code == 0
    shown = {row["check"]: row["tolerance"] for row in json.loads(out)["rows"]
             if not row["skipped"]}
    assert shown.keys() == formulas.keys()
    for name, tolerance in shown.items():
        assert tolerance == pytest.approx(formulas[name], rel=1e-15, abs=0.0), name


def test_scan_runs_are_byte_identical(tmp_path):
    doc = dict(DARK_POINT, scan=[
        {"param": "lambda", "start": 0.05, "stop": 0.45, "steps": 5},
        {"param": "kappa", "start": 0.1, "stop": 0.4, "steps": 4},
    ])
    cfg = write_config(tmp_path, doc)
    outputs = []
    for fmt in ("json", "csv"):
        paths = [str(tmp_path / f"out{i}.{fmt}") for i in (1, 2)]
        for path in paths:
            assert main(["scan", "spectrum", "--config", cfg,
                         "--format", fmt, "--output", path]) == 0
        blobs = [open(p, "rb").read() for p in paths]
        assert blobs[0] == blobs[1]
        outputs.append(blobs[0])
    assert outputs[0] != outputs[1]  # json and csv are genuinely different


def test_grid_is_grid_major(tmp_path, capsys):
    doc = dict(DARK_POINT, scan=[
        {"param": "omega_a", "start": 1.0, "stop": 2.0, "steps": 2},
        {"param": "kappa", "start": 0.1, "stop": 0.2, "steps": 2},
    ])
    cfg = write_config(tmp_path, doc)
    code, out, _ = run_cli(capsys, "scan", "spectrum", "--config", cfg)
    assert code == 0
    rows = json.loads(out)["rows"]
    order = [(r["omega_a"], r["kappa"][0]) for r in rows]
    assert order == [(1.0, 0.1), (1.0, 0.2), (2.0, 0.1), (2.0, 0.2)]


def test_config_round_trip():
    doc = {
        "omega_a": 1.5, "omega_b": 1.0, "omega_c": 1.0,
        "lambda": [0.2, 0.1], "xi": 0.05, "kappa": 0.3,
        "atom": "oscillator",
        "scan": [{"param": "xi", "start": 0.0, "stop": 0.5, "steps": 6}],
        "tol": {"classify": 1e-8},
        "sector": 3,
    }
    cfg = parse_config(doc)
    assert cfg.params.lam == 0.2 + 0.1j
    assert parse_config(config_to_dict(cfg)) == cfg
    assert parse_config(config_to_dict(RunConfig())) == RunConfig()


def test_json_output_parses_as_strict_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum")
    assert code == 0
    json.loads(out)  # would fail on NaN/Infinity tokens


def test_csv_rows_match_csv_writer():
    # text cells are quoted once per distinct text and rows joined by hand;
    # the result must be what csv.writer writes for the same row
    texts = ("plain", "", "a,b", 'say "x"', "two\nlines", "cr\rhere", " padded ")
    table = {
        "text": _Column(np.arange(len(texts)), names=texts),
        "value": _Column(np.linspace(-1.0, 1.0, len(texts)),
                         ok=np.arange(len(texts)) % 3 != 0),
    }
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["text", "value"])
    for row, (text, value) in enumerate(zip(texts, np.linspace(-1.0, 1.0, len(texts)))):
        writer.writerow([text, repr(value.item()) if row % 3 else ""])
    assert cli._text(None, table, "csv") == want.getvalue()


_SHOWN_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_HIDDEN_FLOATS = st.one_of(_SHOWN_FLOATS, st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]))


@st.composite
def _tables(draw, rows=None):
    """Tables of float, complex, bool and text columns with random ``ok`` masks,
    for both writers; NaN and inf only in hidden cells, a few floats shared
    across columns.  ``rows`` rows, or 0 to 6."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    shared = draw(st.lists(_SHOWN_FLOATS, min_size=1, max_size=3))
    shown = st.one_of(_SHOWN_FLOATS, st.sampled_from(shared))

    def floats(ok):
        return np.array([draw(shown if ok is None or ok[row] else _HIDDEN_FLOATS)
                         for row in range(rows)], dtype=float)

    def complexes(ok):
        values = np.empty(rows, dtype=complex)
        values.real, values.imag = floats(ok), floats(ok)  # no arithmetic: keeps NaN, inf, -0.0
        return values

    hidden = np.zeros(rows, dtype=bool)
    table = {"zero": _Column(np.zeros(rows)), "negative_zero": _Column(np.full(rows, -0.0)),
             "all_hidden": _Column(complexes(hidden), hidden)}
    for i, kind in enumerate(draw(st.lists(st.sampled_from("fcbt"), max_size=6))):
        ok = draw(st.none() | st.lists(st.booleans(), min_size=rows, max_size=rows)
                  .map(lambda mask: np.array(mask, dtype=bool)))
        names = None
        if kind == "f":
            values = floats(ok)
        elif kind == "c":
            values = complexes(ok)
        elif kind == "b":
            values = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),
                              dtype=bool)
        else:
            names = tuple(draw(st.lists(st.text(max_size=4), min_size=1, max_size=3)))
            values = np.array(draw(st.lists(st.integers(0, len(names) - 1), min_size=rows,
                                            max_size=rows)), dtype=np.intp)
        table[f"{kind}{i}"] = _Column(values, ok, names)
    return table


def _reference_csv(table) -> str:
    """``csv.writer`` over cells formatted one by one with ``float.__repr__``."""
    header, columns = [], []
    for name, column in table.items():
        cells = column.values.tolist()
        shown = [True] * len(cells) if column.ok is None else column.ok.tolist()
        if column.names is not None:
            parts = {name: [column.names[code] for code in cells]}
        elif column.values.dtype.kind == "c":
            parts = {f"{name}_re": [float.__repr__(z.real) for z in cells],
                     f"{name}_im": [float.__repr__(z.imag) for z in cells]}
        elif column.values.dtype.kind == "b":
            parts = {name: ["true" if cell else "false" for cell in cells]}
        else:
            parts = {name: [float.__repr__(cell) for cell in cells]}
        for part_name, part in parts.items():
            header.append(part_name)
            columns.append([cell if keep else "" for cell, keep in zip(part, shown)])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buffer.getvalue()


_JSON_CONFIG = parse_config({"lambda": [0.2, -0.0], "tol": {"classify": 1e-8}})


def _reference_json(table) -> str:
    """``json.dumps`` at ``indent=2`` of the version, :data:`_JSON_CONFIG`
    and one dict per row, hidden cells ``None``."""
    columns = []
    for column in table.values():
        cells = column.values.tolist()
        if column.names is not None:
            cells = [column.names[code] for code in cells]
        elif column.values.dtype.kind == "c":
            cells = [[z.real, z.imag] for z in cells]
        shown = [True] * len(cells) if column.ok is None else column.ok.tolist()
        columns.append([cell if keep else None for cell, keep in zip(cells, shown)])
    rows = [dict(zip(table, row)) for row in zip(*columns)]
    return json.dumps({"version": darktrio.__version__, "config": config_to_dict(_JSON_CONFIG),
                       "rows": rows}, indent=2, allow_nan=False) + "\n"


def _expanded(table):
    """The table with every per-point column expanded to its rows."""
    return {name: column if column.point is None else _Column(
        column.values[column.point], None if column.ok is None else column.ok[column.point],
        column.names) for name, column in table.items()}


@st.composite
def _writer_tables(draw):
    """A table for both writers, and the same table expanded.  Either per-row
    columns alone, the shape of ``spectrum``, ``duality`` and ``verify``
    tables, or per-row columns mixed with per-point columns of 1-3 rows per
    point, some of them on an equal copy of the index."""
    table = draw(_tables())
    if draw(st.booleans()):
        points = len(table["zero"].values)
        counts = draw(st.lists(st.integers(1, 3), min_size=points, max_size=points))
        point = np.repeat(np.arange(points), counts)
        items = [(f"r_{name}", column) for name, column in draw(_tables(len(point))).items()]
        items += [(f"p_{name}", column._replace(point=draw(st.sampled_from([point, point.copy()]))))
                  for name, column in table.items()]
        table = dict(draw(st.permutations(items)))
    return table, _expanded(table)


@settings(max_examples=300, deadline=None)
@given(_writer_tables())
def test_write_csv_matches_reference_writer(tables):
    table, expanded = tables
    assert cli._text(None, table, "csv") == _reference_csv(expanded)


@settings(max_examples=60, deadline=None)
@given(_writer_tables())
def test_write_csv_matches_reference_writer_in_bulk(tables):
    # every table's floats through the array formatter: hidden NaN and inf,
    # both zeros, subnormals and the largest float
    table, expanded = tables
    with mock.patch.object(cli, "_BULK_FLOATS", 0):
        assert cli._text(None, table, "csv") == _reference_csv(expanded)


@settings(max_examples=300, deadline=None)
@given(_writer_tables(), st.data())
def test_emit_json_matches_json_dumps_on_random_tables(tables, data):
    table, expanded = tables
    # keys with quotes, control characters and non-ASCII too; CSV writes
    # its column names as they are, so only the JSON test draws them
    keys = [name + data.draw(st.text(max_size=3)) for name in table]
    text = cli._text(_JSON_CONFIG, dict(zip(keys, table.values())), "json")
    assert text == _reference_json(dict(zip(keys, expanded.values())))


@settings(max_examples=60, deadline=None)
@given(_writer_tables(), st.data())
def test_emit_json_matches_json_dumps_on_random_tables_in_bulk(tables, data):
    # every table's floats, the head's too, through the array formatter
    table, expanded = tables
    keys = [name + data.draw(st.text(max_size=3)) for name in table]
    with mock.patch.object(cli, "_BULK_FLOATS", 0):
        text = cli._text(_JSON_CONFIG, dict(zip(keys, table.values())), "json")
    assert text == _reference_json(dict(zip(keys, expanded.values())))


def test_per_point_columns_write_as_their_expanded_table():
    # three points of 2, 1 and 3 rows; per-point columns on the index and on
    # an equal copy of it, hidden cells holding NaN and inf
    point = np.array([0, 0, 1, 2, 2, 2])
    table = {
        "row": _Column(np.array([0.5, -0.0, math.nan, 1e300, 5e-324, 2.0]),
                       np.array([True, True, False, True, True, True])),
        "label": _Column(np.array([1, 0, 1]), names=("dark", 'say "x", y'), point=point),
        "gamma": _Column(np.array([0.25 - 1j, complex(math.inf, math.nan), -0.0 + 0.5j]),
                         np.array([True, False, True]), point=point.copy()),
        "flag": _Column(np.array([True, False, True]), point=point),
        "level": _Column(np.array([-0.0, 1.5, 0.1]), np.array([False, True, True]), point=point),
    }
    expanded = _expanded(table)
    text = cli._text(None, table, "csv")
    assert text == cli._text(None, expanded, "csv") == _reference_csv(expanded)
    text = cli._text(_JSON_CONFIG, table, "json")
    assert text == cli._text(_JSON_CONFIG, expanded, "json") == _reference_json(expanded)


#: bit patterns of NaNs with payloads and signs, infinities and signed zeros
_SPECIAL_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                 0x7FF8DEADBEEF0001, 0xFFFFFFFFFFFFFFFF, 0x7FF0000000000000,
                 0xFFF0000000000000, 0x0, 0x8000000000000000, 0x1]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(_SPECIAL_BITS), max_size=30),
       st.lists(st.integers(1, 40), min_size=1, max_size=30), st.integers(1, 4),
       st.sampled_from(["runs", "grid", "shuffled"]), st.randoms(use_true_random=False))
def test_distinct_matches_np_unique(values, repeats, tiles, layout, random):
    values = np.array(values, dtype=np.uint64).view(np.int64)
    bits = np.repeat(values, np.resize(repeats, len(values)))  # runs of equal values
    if layout == "grid":  # a grid-major column: ascending runs, tiled
        bits = np.tile(np.sort(bits), tiles)
    elif layout == "shuffled":
        bits = bits[np.array(random.sample(range(len(bits)), len(bits)), dtype=np.intp)]
    distinct, index = cli._distinct(bits)
    want_distinct, want_index = np.unique(bits, return_inverse=True)
    assert distinct.dtype == want_distinct.dtype and index.dtype == want_index.dtype
    assert distinct.tolist() == want_distinct.tolist()
    assert index.tolist() == want_index.tolist()


def test_a_table_formats_its_floats_in_one_pass(monkeypatch, capsys):
    # for both writers one pool holds every float cell of the table, a
    # per-point cell once, and for JSON the config's floats of the head
    pools = []
    float_texts = cli._float_texts
    monkeypatch.setattr(cli, "_float_texts", lambda pool: pools.append(pool.copy()) or
                        float_texts(pool))
    cfg = parse_config({})
    table = cli._classify_rows(cfg, cli._grid(cfg))
    cells = []
    for column in table.values():
        kind = column.values.dtype.kind
        if column.names is None and kind in "fc":
            cells += [column.values.real, column.values.imag] if kind == "c" else [column.values]
    p = cfg.params
    head = [p.omega_a, p.omega_b, p.omega_c, p.lam.real, p.lam.imag, p.xi.real, p.xi.imag,
            p.kappa.real, p.kappa.imag]
    for fmt, want in (("csv", cells), ("json", cells + [head])):
        code, out, _ = run_cli(capsys, "classify", "--format", fmt)
        assert code == 0 and len(out.splitlines()) > 3
        (pool,) = pools
        pools.clear()
        want = np.concatenate(want)
        # the point's 9 parameters, per row its energy and three complex
        # amplitudes, the point's two residuals, and the head's 9
        assert len(want) == 9 + 3 * (1 + 2 * 3) + 2 + 9 * (fmt == "json")
        assert pool.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("kappa", [5e-324, 1e-170, 1e-300])
@pytest.mark.parametrize("atom", ["two-level", "oscillator"])
def test_verify_underflowing_kappa_reports(tmp_path, capsys, atom, kappa):
    cfg = write_config(tmp_path, {"omega_a": 0.8, "omega_b": 0.8, "omega_c": 1.0,
                                  "lambda": 0.2, "xi": 0.2, "kappa": kappa, "atom": atom})
    code, out, _ = run_cli(capsys, "verify", "--config", cfg)
    assert code in (0, 3)
    reasons = {r["check"]: r["reason"] for r in json.loads(out)["rows"]}
    assert "underflows" in reasons["pole-identity"]


# --- one solve per point ------------------------------------------------------

@pytest.mark.parametrize("argv", [["spectrum"], ["classify"], ["duality"], ["verify"],
                                  ["verify", "--sector", "3"]],
                         ids=["spectrum", "classify", "duality", "verify", "verify-sector-3"])
def test_each_command_solves_its_point_once(monkeypatch, tmp_path, capsys, argv):
    calls = dict.fromkeys(("_two_mode", "_dressed", "eigh"), 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    originals = {"_two_mode": darktrio.twomode._two_mode, "_dressed": darktrio.threemode._dressed}
    for name, original in originals.items():
        wrapper = counted(name, original)
        for module in [m for key, m in sys.modules.items() if key.startswith("darktrio.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    cfg = write_config(tmp_path, dict(DARK_POINT, atom="oscillator"))
    assert main([*argv, "--config", cfg]) == 0
    capsys.readouterr()
    assert calls["_two_mode"] <= 1 and calls["_dressed"] <= 1, calls
    if argv[0] == "verify":
        # the photon-phonon blocks, and the one-excitation matrices
        assert calls["eigh"] == 2, calls


# --- one parser per process ------------------------------------------------

def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        for command in ("spectrum", "classify", "duality", "verify", "spectrum"):
            assert main([command]) == 0
        with pytest.raises(SystemExit):
            main(["nope"])
        calls = list(built)
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    # the parser and one subparser per command, as one uncached build makes them
    built.clear()
    cli._parser.__wrapped__()
    assert calls == built
    assert calls.count("darktrio") == 1


def test_import_builds_no_parser():
    probe = "import darktrio.cli as c; print(c._parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
    assert out == "0\n"


def test_tol_override_does_not_reach_the_next_call(capsys):
    def tol_of(*args):
        code, out, _ = run_cli(capsys, "spectrum", *args)
        assert code == 0
        return json.loads(out)["config"]["tol"]

    assert tol_of("--tol", "classify=1e-8") == {"classify": 1e-8}
    assert tol_of("--tol", "duality=1e-9", "--tol", "b1=1e-7") == {"duality": 1e-9, "b1": 1e-7}
    assert tol_of() == {}
    assert run_cli(capsys, "verify", "--tol", "v_unitarity=0")[0] == 3
    assert run_cli(capsys, "verify")[0] == 0


def test_unknown_tolerance_names_are_config_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--tol", "nope=1e-9")
    assert code == 1 and "unknown tolerance names" in err
    # one unquoted line, from the flag or from the config alike
    line = "config error: unknown tolerance names: ['nope']\n"
    assert run_cli(capsys, "spectrum", "--tol", "nope=1") == (1, "", line)
    cfg = write_config(tmp_path, {"tol": {"nope": 1}})
    assert run_cli(capsys, "spectrum", "--config", cfg) == (1, "", line)
    cfg = write_config(tmp_path, {"tol": {}})
    assert run_cli(capsys, "spectrum", "--config", cfg)[0] == 0


def test_usage_error_and_version_leave_the_parser_usable(capsys):
    reference = run_cli(capsys, "classify")
    for argv in (["nope"], ["spectrum", "--format", "xml"], ["verify", "--sector"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: darktrio" in capsys.readouterr().err
        assert run_cli(capsys, "classify") == reference
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("darktrio ")
    assert run_cli(capsys, "classify") == reference


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["scan", "--help"]])
def test_help_is_the_same_on_every_call(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0].startswith("usage: darktrio")
    assert texts[0] == texts[1]


def _parsed(parse, argv):
    """``parse(argv)`` as ``(vars of the namespace, None, "", "")``, or as
    ``(None, exit code, stdout, stderr)`` where argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv)), None, out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


#: argument pieces: every option whole, abbreviated and as --opt=value, their
#: values good and bad, commands, help, version, "--", unknown options, and
#: strings that look like options to one parser and not to the other
_ARGV_PIECES = st.sampled_from([
    "spectrum", "classify", "duality", "verify", "scan", "nope",
    "--config", "--conf", "--c", "--config=cfg.json", "--conf=cfg.json", "cfg.json",
    "--output", "--out", "--output=out.json", "out.json",
    "--format", "--form", "--f", "--format=csv", "--format=json", "--format=xml", "csv", "json",
    "xml", "--tol", "--to", "--tol=classify=1e-9", "classify=1e-9", "nope=1",
    "--sector", "--sec", "--sector=3", "--sector=x", "3", "-1", "1e3",
    "--", "-h", "--help", "--he", "--h=1", "--version", "--vers", "--v",
    "--nope", "-x", "-", "", "--=", "--=x", "---", "-c", "a b", "--config x",
]) | st.text(max_size=4)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(["spectrum", "classify", "duality", "verify", "scan"]) | _ARGV_PIECES,
       st.lists(_ARGV_PIECES, max_size=6))
def test_argv_dispatch_matches_the_full_parser(first, rest):
    # main hands the arguments after a command to that command's subparser;
    # the namespace, or the exit code and every byte printed, are the full
    # parser's
    argv = [first, *rest]
    assert _parsed(cli._parse_args, argv) == _parsed(cli._parser()[0].parse_args, argv)


@pytest.mark.parametrize("argv, code, stream, text", [
    (["spectrum", "--format", "xml"], 2, "err", "usage: darktrio spectrum"),
    (["spectrum", "--sector", "2"], 2, "err", "usage: darktrio [-h]"),
    (["verify", "--help"], 0, "out", "usage: darktrio verify"),
])
def test_main_reads_sys_argv(monkeypatch, capsys, argv, code, stream, text):
    monkeypatch.setattr(sys, "argv", ["darktrio", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code
    assert getattr(capsys.readouterr(), stream).startswith(text)


def test_in_process_calls_match_fresh_processes(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(DARK_POINT, atom="oscillator"))
    calls = [["verify", "--config", cfg], ["spectrum", "--format", "csv"],
             ["duality", "--config", cfg], ["classify", "--config", cfg, "--format", "csv"]]
    # every command twice, interleaved, in one process
    in_process = {}
    for argv in calls + calls[::-1]:
        code, out, _ = run_cli(capsys, *argv)
        in_process.setdefault(tuple(argv), []).append((code, out.encode()))

    env = {**os.environ, "PYTHONPATH": SRC}
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "darktrio", *argv],
                               capture_output=True, env=env)
        assert fresh.stdout
        assert in_process[tuple(argv)] == [(fresh.returncode, fresh.stdout)] * 2


# --- JSON output -------------------------------------------------------------

def _awkward_table():
    texts = ('say "hi"', "naïve – ü ☃ 𝔈", "back\\slash\ttab", "", "ctl\x00\x1f")
    values = np.array([-0.0, 5e-324, 1.7976931348623157e308, 1e300, 2.2250738585072014e-308])
    pairs = np.array([complex(-0.0, 1e-320), complex(1e308, -0.0), 0.5 - 2.5j,
                      complex(3e-310, 7.0), 0j])
    ok = np.array([True, False, True, True, False])
    table = {
        "reason": _Column(np.arange(len(texts)), names=texts),
        "value": _Column(values, ok),
        "pair": _Column(pairs, ok[::-1].copy()),
        "flag": _Column(values > 1.0),
    }
    rows = []
    for j in range(len(texts)):
        rows.append({
            "reason": texts[j],
            "value": values[j].item() if ok[j] else None,
            "pair": [pairs[j].real.item(), pairs[j].imag.item()] if ok[::-1][j] else None,
            "flag": bool(values[j] > 1.0),
        })
    return table, rows


def test_emit_json_matches_json_dump(tmp_path, capsys):
    table, rows = _awkward_table()
    cfg = parse_config({"lambda": [0.2, -0.0], "tol": {"classify": 1e-8}})
    want = io.StringIO()
    json.dump({"version": darktrio.__version__, "config": config_to_dict(cfg), "rows": rows},
              want, indent=2, allow_nan=False)
    want.write("\n")

    _emit(cfg, table, "json", None)
    assert capsys.readouterr().out == want.getvalue()
    path = tmp_path / "out.json"
    _emit(cfg, table, "json", str(path))
    assert path.read_bytes() == want.getvalue().encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_emit_json_rejects_non_finite_cells(capsys, bad):
    table = {"value": _Column(np.array([1.0, bad]))}
    with pytest.raises(ValueError):
        _emit(RunConfig(), table, "json", None)
    assert capsys.readouterr().out == ""


@st.composite
def _config_documents(draw):
    """Config documents of both atoms: frequencies and coupling parts with
    ``-0.0`` and extreme exponents, real and complex couplings, 0 to 2 scan
    axes, tolerance overrides and a sector or none."""
    doc = {"atom": draw(st.sampled_from(["two-level", "oscillator"]))}
    for name in ("omega_a", "omega_b", "omega_c"):
        if draw(st.booleans()):
            doc[name] = draw(st.sampled_from([5e-324, 1e-300, 1.0, 1.7976931348623157e308])
                             | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    for name in ("lambda", "xi", "kappa"):
        if draw(st.booleans()):
            real, imag = draw(_SHOWN_FLOATS), draw(_SHOWN_FLOATS)
            doc[name] = draw(st.sampled_from([real, [real, imag]]))
    # a scanned parameter needs a real base value
    real = [name for name in cli._FIELD_FOR
            if not (isinstance(doc.get(name), list) and doc[name][1] != 0.0)]
    doc["scan"] = [{"param": draw(st.sampled_from(real)), "start": draw(_SHOWN_FLOATS),
                    "stop": draw(_SHOWN_FLOATS), "steps": draw(st.integers(1, 10**20))}
                   for _ in range(draw(st.integers(0, 2)))]
    names = [field.name for field in dataclasses.fields(darktrio.Tolerances)]
    doc["tol"] = draw(st.dictionaries(st.sampled_from(names),
                                      st.sampled_from([0.0, -0.0, 5e-324]) | _SHOWN_FLOATS.map(abs)))
    doc["sector"] = draw(st.none() | st.integers(0, 10**20))
    return doc


@settings(max_examples=300, deadline=None)
@given(_config_documents())
def test_emit_json_head_matches_json_dumps_on_random_configs(doc):
    cfg = parse_config(doc)
    want = json.dumps({"version": darktrio.__version__, "config": config_to_dict(cfg),
                       "rows": [{"value": 1.5}]}, indent=2, allow_nan=False) + "\n"
    assert cli._text(cfg, {"value": _Column(np.array([1.5]))}, "json") == want


@settings(max_examples=100, deadline=None)
@given(_tables(), st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(), st.data())
def test_emit_json_rejects_a_shown_non_finite_cell(table, bad, pair, data):
    rows = len(table["zero"].values)
    assume(rows > 0)
    values = np.zeros(rows, dtype=complex if pair else float)
    (values.imag if pair else values)[data.draw(st.integers(0, rows - 1))] = bad
    items = list(table.items())
    position = data.draw(st.integers(0, len(items)))
    items.insert(position, ("bad", _Column(values, np.ones(rows, dtype=bool))))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(ValueError):
        _emit(_JSON_CONFIG, dict(items), "json", None)
    assert buffer.getvalue() == ""


@settings(max_examples=60, deadline=None)
@given(_tables(), st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans(), st.data())
def test_emit_json_rejects_a_shown_non_finite_cell_in_bulk(table, bad, pair, data):
    rows = len(table["zero"].values)
    assume(rows > 0)
    values = np.zeros(rows, dtype=complex if pair else float)
    (values.imag if pair else values)[data.draw(st.integers(0, rows - 1))] = bad
    items = list(table.items())
    position = data.draw(st.integers(0, len(items)))
    items.insert(position, ("bad", _Column(values, np.ones(rows, dtype=bool))))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), pytest.raises(ValueError), \
            mock.patch.object(cli, "_BULK_FLOATS", 0):
        _emit(_JSON_CONFIG, dict(items), "json", None)
    assert buffer.getvalue() == ""
