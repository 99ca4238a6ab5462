"""Command-line surface: config handling, output formats, exit codes."""

import json

import numpy as np
import pytest

from darktrio.cli import RunConfig, config_to_dict, main, parse_config


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
