"""Command-line surface: config handling, output formats, exit codes."""

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import darktrio
from darktrio import cli
from darktrio.cli import RunConfig, _Column, _emit, config_to_dict, main, parse_config

SRC = str(pathlib.Path(darktrio.__file__).parents[1])


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


def test_verify_sector_flag_skips_where_assumptions_fail(tmp_path, capsys):
    cfg = write_config(tmp_path, {"atom": "oscillator", "kappa": 1.5})
    code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--sector", "3")
    assert code == 0
    rows = {r["check"]: r for r in json.loads(out)["rows"]}
    for name in ("sector-2-spectrum", "sector-3-spectrum"):
        assert rows[name]["skipped"]
        assert rows[name]["reason"] == "standing assumptions not satisfied"
    assert code == run_cli(capsys, "verify", "--config", cfg)[0]


def test_verify_sector_flag_size_limit_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(DARK_POINT, atom="oscillator"))
    code, out, err = run_cli(capsys, "verify", "--config", cfg, "--sector", "141")
    assert code == 2
    assert out == ""
    assert "10153x10153" in err


def test_single_point_assumption_violation_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(DARK_POINT, kappa=1.5))
    code, _, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 2


def test_single_point_gamma_zero_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"lambda": 0.0, "xi": 0.0})
    code, _, _ = run_cli(capsys, "spectrum", "--config", cfg)
    assert code == 2


def test_config_errors_exit_one(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _, err = run_cli(capsys, "spectrum", "--config", str(bad_json))
    assert code == 1 and "config error" in err

    for doc in (
        {"omega_a": -1.0},
        {"unknown_key": 1},
        {"scan": [{"param": "nope", "start": 0, "stop": 1, "steps": 2}]},
        {"scan": [{"param": "xi", "start": 0, "stop": 1, "steps": 0}]},
        {"tol": {"nope": 1e-9}},
        {"lambda": "abc"},
        # a scan value is real: it would drop the base value's imaginary part
        {"lambda": [0.2, 0.1], "scan": [{"param": "lambda", "start": 0.1, "stop": 0.3,
                                         "steps": 3}]},
    ):
        cfg = write_config(tmp_path, doc)
        code, _, err = run_cli(capsys, "spectrum", "--config", cfg)
        assert code == 1, doc
        assert "config error" in err

    code, _, err = run_cli(capsys, "verify", "--tol", "b1")
    assert code == 1 and "config error" in err


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
    import csv
    import io

    from darktrio.cli import _Column, _write_csv

    texts = ("plain", "", "a,b", 'say "x"', "two\nlines", "cr\rhere", " padded ")
    table = {
        "text": _Column(np.arange(len(texts)), names=texts),
        "value": _Column(np.linspace(-1.0, 1.0, len(texts)),
                         ok=np.arange(len(texts)) % 3 != 0),
    }
    stream = io.StringIO()
    _write_csv(["text", "value"], table, stream)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["text", "value"])
    for row, (text, value) in enumerate(zip(texts, np.linspace(-1.0, 1.0, len(texts)))):
        writer.writerow([text, repr(value.item()) if row % 3 else ""])
    assert stream.getvalue() == want.getvalue()


@pytest.mark.parametrize("kappa", [5e-324, 1e-170, 1e-300])
@pytest.mark.parametrize("atom", ["two-level", "oscillator"])
def test_verify_underflowing_kappa_reports(tmp_path, capsys, atom, kappa):
    cfg = write_config(tmp_path, {"omega_a": 0.8, "omega_b": 0.8, "omega_c": 1.0,
                                  "lambda": 0.2, "xi": 0.2, "kappa": kappa, "atom": atom})
    code, out, _ = run_cli(capsys, "verify", "--config", cfg)
    assert code in (0, 3)
    reasons = {r["check"]: r["reason"] for r in json.loads(out)["rows"]}
    assert "underflows" in reasons["pole-identity"]


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
    # the parser and one subparser per command, as one build_parser() makes them
    built.clear()
    cli.build_parser()
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
    columns = list(table)
    cfg = parse_config({"lambda": [0.2, -0.0], "tol": {"classify": 1e-8}})
    want = io.StringIO()
    json.dump({"version": darktrio.__version__, "config": config_to_dict(cfg), "rows": rows},
              want, indent=2, allow_nan=False)
    want.write("\n")

    _emit(cfg, table, columns, "json", None)
    assert capsys.readouterr().out == want.getvalue()
    path = tmp_path / "out.json"
    _emit(cfg, table, columns, "json", str(path))
    assert path.read_bytes() == want.getvalue().encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_emit_json_rejects_non_finite_cells(capsys, bad):
    table = {"value": _Column(np.array([1.0, bad]))}
    with pytest.raises(ValueError):
        _emit(RunConfig(), table, ["value"], "json", None)
    assert capsys.readouterr().out == ""
