"""Golden CLI outputs: refactors must leave every byte of them unchanged.

Each config in ``tests/golden/*.config.json`` runs through the CLI in
JSON and CSV; the expected files ``<config>.<command>.<format>`` and the
exit codes in ``exit_codes.json`` were written by a reference version of
the code.  ``spectrum``, ``classify``, ``duality`` and ``scan`` outputs
must match byte for byte.  ``verify`` outputs must match byte for byte
except the ``residual`` cell of the rows in ``FREE_RESIDUALS``: those
residuals are rounding-level values of recomputed eigenvectors, so they
may move in the last bits, while the rows' verdict cells stay identical.

To record the fixtures of newly added cases, run from the root of a
checkout::

    PYTHONPATH=src python tests/test_golden.py

It writes only fixtures that do not exist yet.  Rewriting an existing
fixture after an intended output change takes its label, e.g.::

    PYTHONPATH=src python tests/test_golden.py default.spectrum.json

A rewritten ``verify`` fixture keeps the committed text of its free
residual cells, so a re-record shows only the intended changes.
"""

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

from darktrio import cli
from darktrio.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: configs run as single points, through every single-point command
POINT_CONFIGS = (
    "default",
    "complex-off-resonance",
    "kappa-zero-split",
    "kappa-zero-degenerate",
    "tuned-dark",
    "oscillator-sector-3",
    # oscillator past assumption 1: eps1-positive note, lower quasimode not positive
    "strong-kappa-oscillator",
    # detuned atom with lambda = xi on a resonant block: an effective coupling vanishes
    "vanishing-coupling",
    # detuned block with kappa = 1e-300: |kappa|^2 underflows to 0
    "underflowing-kappa-oscillator",
    # a level 3e-11 from a pole: v-unitarity and column-orthogonality-rule fail
    "near-pole-detuned",
    # a level 9e-11 from a pole: v-unitarity and column-orthogonality-rule fail
    "pole-guard-detuned",
    "negative-kappa",
    # assumption 2 decided at tol.ass2 = 0.05
    "ass2-tolerance",
)
POINT_COMMANDS = ("spectrum", "classify", "duality", "verify")
FORMATS = ("json", "csv")
#: configs run through ``scan`` with every scan operation, in these formats
SCAN_CONFIGS = {
    "lambda-xi-scan": FORMATS,
    # resonant real lambda x xi grid, detuned atom, crossing lambda = kappa and lambda = xi
    "resonant-detuned-grid": FORMATS,
    # off resonance with complex kappa over omega_a x omega_c
    "complex-kappa-off-resonance-grid": ("csv",),
    # omega_b = omega_c, lambda = xi, kappa from 0 past sqrt(omega_b omega_c): error rows
    "degenerate-kappa-sweep": FORMATS,
}
SCAN_OPERATIONS = ("spectrum", "classify", "duality")

#: verify rows whose residual cell may differ in the last bits
FREE_RESIDUALS = ("eigenstate-residuals", "occupation-amplitudes")


def _cases():
    for name in POINT_CONFIGS:
        for command in POINT_COMMANDS:
            for fmt in FORMATS:
                yield name, [command], fmt
    for name, formats in SCAN_CONFIGS.items():
        for operation in SCAN_OPERATIONS:
            for fmt in formats:
                yield name, ["scan", operation], fmt


def _label(name, argv, fmt):
    return f"{name}.{'-'.join(argv)}.{fmt}"


def _run(name, argv, fmt, out_path):
    config = GOLDEN / f"{name}.config.json"
    code = main([*argv, "--config", str(config), "--format", fmt, "--output", str(out_path)])
    # a run that fails before emitting rows writes no file
    return code, out_path.read_bytes() if out_path.exists() else b""


_FREE = "|".join(FREE_RESIDUALS)
_FREE_CELL = {
    "csv": re.compile(rf"^(?P<head>(?P<check>{_FREE}),)(?P<cell>[^,]*)", re.M),
    "json": re.compile(
        rf'(?P<head>"check": "(?P<check>{_FREE})",\s*"residual": )(?P<cell>[^,\n]*)'),
}
_EMPTY_CELLS = ("", "null")


def _mask_free_residuals(text: bytes, fmt: str) -> bytes:
    """The output with the free residual cells replaced by a marker."""
    return _FREE_CELL[fmt].sub(r"\g<head><free>", text.decode()).encode()


def _keep_free_residuals(text: bytes, committed: bytes, fmt: str) -> bytes:
    """``text`` with each free residual cell put back to its ``committed`` text.

    A cell that is empty on one side only keeps the new text: the check
    ran or skipped differently, which is a change, not a rounding.
    """
    kept = {m["check"]: m["cell"] for m in _FREE_CELL[fmt].finditer(committed.decode())}

    def keep(m):
        cell = kept.get(m["check"], m["cell"])
        if (cell in _EMPTY_CELLS) != (m["cell"] in _EMPTY_CELLS):
            cell = m["cell"]
        return m["head"] + cell

    return _FREE_CELL[fmt].sub(keep, text.decode()).encode()


CASES = list(_cases())


@pytest.mark.parametrize("name,argv,fmt", CASES, ids=[_label(*c) for c in CASES])
def test_golden_output(tmp_path, capsys, name, argv, fmt):
    label = _label(name, argv, fmt)
    expected_code = json.loads((GOLDEN / "exit_codes.json").read_text())[label]
    expected = (GOLDEN / label).read_bytes()
    code, got = _run(name, argv, fmt, tmp_path / label)
    capsys.readouterr()
    assert code == expected_code
    if argv == ["verify"]:
        got = _mask_free_residuals(got, fmt)
        expected = _mask_free_residuals(expected, fmt)
    assert got == expected


def test_golden_cases_hold_tables_on_both_sides_of_the_bulk_threshold(monkeypatch):
    # so the cases above check both ways of formatting a table's floats, in
    # both formats: the single points below the threshold, the scans from it on
    sizes, float_texts = {"csv": [], "json": []}, cli._float_texts

    def counted(pool):
        sizes[fmt].append(len(pool))
        return float_texts(pool)

    monkeypatch.setattr(cli, "_float_texts", counted)
    for name, argv, fmt in CASES:
        if argv != ["verify"]:
            cfg = cli.parse_config(json.loads((GOLDEN / f"{name}.config.json").read_text()))
            cli._text(cfg, cli._RUNNERS[argv[-1]](cfg, cli._grid(cfg)), fmt)
    for pools in sizes.values():
        assert min(pools) < cli._BULK_FLOATS <= max(pools)


def test_rerecording_keeps_the_committed_free_residuals(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    monkeypatch.setitem(globals(), "GOLDEN", golden)
    labels = [_label(name, ["verify"], fmt)
              for name in ("default", "oscillator-sector-3") for fmt in FORMATS]
    # a committed free cell this machine does not print must survive too
    for label in labels[2:]:
        fmt = label.rsplit(".", 1)[1]
        text = (golden / label).read_text()
        (golden / label).write_text(_FREE_CELL[fmt].sub(
            lambda m: m["head"] + ("1e-17" if m["check"] == FREE_RESIDUALS[0] else m["cell"]),
            text))
    before = {path.name: path.read_bytes() for path in golden.iterdir()}
    assert regenerate(labels) == labels
    capsys.readouterr()
    assert {path.name: path.read_bytes() for path in golden.iterdir()} == before


def regenerate(labels=()) -> list[str]:
    """Write the fixtures named in ``labels``, or else every missing one.

    Returns the labels written.  An unknown label is an error, so a typo
    cannot pass for a rewrite.
    """
    import tempfile

    by_label = {_label(*case): case for case in CASES}
    unknown = sorted(set(labels) - set(by_label))
    if unknown:
        raise SystemExit(f"unknown golden labels: {unknown}")
    todo = list(labels) or [label for label in by_label if not (GOLDEN / label).exists()]
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    with tempfile.TemporaryDirectory() as scratch:
        for label in todo:
            name, argv, fmt = by_label[label]
            code, text = _run(name, argv, fmt, Path(scratch) / label)
            path = GOLDEN / label
            if argv == ["verify"] and path.exists():
                text = _keep_free_residuals(text, path.read_bytes(), fmt)
            path.write_bytes(text)
            codes[label] = code
    codes_path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    return todo


if __name__ == "__main__":
    for written in regenerate(sys.argv[1:]):
        print(f"wrote {written}")
