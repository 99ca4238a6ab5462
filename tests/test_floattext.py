"""The bulk float formatter: ``float.__repr__``'s text, value for value."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import darktrio
from darktrio import cli
from darktrio._floattext import float_reprs

SRC = str(pathlib.Path(darktrio.__file__).parents[1])


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(float.__repr__, values.tolist()))


def _powers() -> np.ndarray:
    """Every double that is a power of two or the nearest to a power of ten."""
    return np.array([2.0**k for k in range(-1074, 1024)]
                    + [float(f"1e{k}") for k in range(-323, 309)])


#: values where the layout changes (1e-4 and 1e16 start the positional and
#: the exponent form), the largest and smallest doubles and the least normal
EDGES = [9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16, sys.float_info.max,
         5e-324, sys.float_info.min]


def _interesting() -> list[float]:
    powers = _powers()
    values = [*powers, *np.nextafter(powers, 0.0), *np.nextafter(powers, math.inf), *EDGES]
    return [sign * value for sign in (1.0, -1.0) for value in values]


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(cli._BULK_FLOATS, 3 * cli._BULK_FLOATS),
              elements=st.floats() | st.sampled_from(_interesting())))
def test_matches_float_repr(values):
    # every double: NaN, both infinities and zeros, subnormals; and the
    # boundaries of the power tables and the layouts
    assert float_reprs(values) == _reprs(values)


def test_matches_float_repr_on_a_million_bit_patterns():
    rng = np.random.default_rng(20260512)
    for _ in range(8):  # 10^6 in slices, so that no temporary grows past a few MB
        values = rng.integers(0, 2**64, 125_000, dtype=np.uint64).view(np.float64)
        assert float_reprs(values) == _reprs(values)
    values = np.array(_interesting())  # the powers of two and ten, their neighbours, both signs
    assert float_reprs(values) == _reprs(values)


def test_empty_array_gives_no_text():
    assert float_reprs(np.array([])) == []


def test_import_and_single_point_runs_build_no_tables():
    probe = ("import sys, darktrio, darktrio.cli as c; c.main(['classify', '--format', 'csv']); "
             "assert 'darktrio._floattext' not in sys.modules")
    subprocess.run([sys.executable, "-c", probe], capture_output=True,
                   env={**os.environ, "PYTHONPATH": SRC}, check=True)
