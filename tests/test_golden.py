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
"""

import json
import re
import sys
from pathlib import Path

import pytest

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
)
POINT_COMMANDS = ("spectrum", "classify", "duality", "verify")
FORMATS = ("json", "csv")
#: configs run through ``scan`` with every scan operation, in these formats
SCAN_CONFIGS = {
    "lambda-xi-scan": FORMATS,
    # resonant real lambda x xi grid, detuned atom, crossing lambda = kappa and lambda = xi
    "resonant-detuned-grid": ("csv",),
    # off resonance with complex kappa over omega_a x omega_c
    "complex-kappa-off-resonance-grid": ("csv",),
    # omega_b = omega_c, lambda = xi, kappa from 0 past sqrt(omega_b omega_c): error rows
    "degenerate-kappa-sweep": ("csv",),
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
    "csv": re.compile(rf"^((?:{_FREE}),)[^,]*", re.M),
    "json": re.compile(rf'("check": "(?:{_FREE})",\s*"residual": )[^,\n]*'),
}


def _mask_free_residuals(text: bytes, fmt: str) -> bytes:
    """The output with the free residual cells replaced by a marker."""
    return _FREE_CELL[fmt].sub(r"\1<free>", text.decode()).encode()


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
            code, text = _run(*by_label[label], Path(scratch) / label)
            (GOLDEN / label).write_bytes(text)
            codes[label] = code
    codes_path.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    return todo


if __name__ == "__main__":
    for written in regenerate(sys.argv[1:]):
        print(f"wrote {written}")
