"""Golden CLI outputs: refactors must leave every byte of them unchanged.

Each config in ``tests/golden/*.config.json`` runs through the CLI in
JSON and CSV; the expected files ``<config>.<command>.<format>`` and the
exit codes in ``exit_codes.json`` were written by a reference version of
the code.  ``spectrum``, ``classify``, ``duality`` and ``scan`` outputs
must match byte for byte.  ``verify`` outputs must match byte for byte
except the ``residual`` cell of the rows in ``FREE_RESIDUALS``: those
residuals are rounding-level values of recomputed eigenvectors, so they
may move in the last bits, while the rows' verdict cells stay identical.

To rewrite the fixtures after an intended output change, run from the
root of a checkout::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import re
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
#: config run through ``scan`` with every scan operation
SCAN_CONFIG = "lambda-xi-scan"
SCAN_OPERATIONS = ("spectrum", "classify", "duality")
FORMATS = ("json", "csv")

#: verify rows whose residual cell may differ in the last bits
FREE_RESIDUALS = ("eigenstate-residuals", "occupation-amplitudes")


def _cases():
    for name in POINT_CONFIGS:
        for command in POINT_COMMANDS:
            for fmt in FORMATS:
                yield name, [command], fmt
    for operation in SCAN_OPERATIONS:
        for fmt in FORMATS:
            yield SCAN_CONFIG, ["scan", operation], fmt


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


def regenerate() -> None:
    import tempfile

    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv, fmt in CASES:
            label = _label(name, argv, fmt)
            code, text = _run(name, argv, fmt, Path(scratch) / label)
            (GOLDEN / label).write_bytes(text)
            codes[label] = code
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
