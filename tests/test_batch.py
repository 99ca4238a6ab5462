"""Scans solve their whole grid as one batch; a single point is a batch of one.

Every ``scan`` row must equal, bit for bit, the row the single-point
command prints for that point, and every error status must name the
exception the public single-point function raises there.  The grids mix
valid points with the edges of the domain: ``kappa = 0`` with
``omega_b = omega_c``, ``lambda = +-xi``, ``|kappa| >= sqrt(omega_b
omega_c)`` and nearly degenerate levels, so a mask or a check that
depended on the other points of a batch, or on its size, would show.
"""

import contextlib
import io
import json
import math
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from darktrio import (
    DarkTrioError,
    ModelParams,
    classify_spectrum,
    duality_report,
    three_mode_spectrum,
)
from darktrio.cli import main

FREQUENCIES = (0.8, 1.0, 1.25)
COUPLINGS = (0.0, 1e-9, 0.05, -0.05, 0.2)

#: the public single-point function behind each scan operation
SINGLE = {
    "spectrum": three_mode_spectrum,
    "classify": classify_spectrum,
    "duality": duality_report,
}


def _coupling():
    return st.one_of(st.sampled_from(COUPLINGS), st.floats(-0.5, 0.5))


@st.composite
def scan_configs(draw):
    omega_b = draw(st.sampled_from(FREQUENCIES))
    omega_c = draw(st.one_of(st.just(omega_b), st.sampled_from(FREQUENCIES)))
    omega_a = draw(st.one_of(st.just(omega_b), st.sampled_from(FREQUENCIES)))
    xi = draw(_coupling())
    lam = draw(st.one_of(st.just(xi), st.just(-xi), _coupling()))
    root = math.sqrt(omega_b * omega_c)
    kappa = draw(st.one_of(st.sampled_from((0.0, root, 1.1 * root)), _coupling()))
    doc = {"omega_a": omega_a, "omega_b": omega_b, "omega_c": omega_c,
           "lambda": lam, "xi": xi, "kappa": kappa}
    edges = {"lambda": (xi, -xi, 0.0), "xi": (lam, -lam, 0.0),
             "kappa": (0.0, root, 1e-9), "omega_a": (omega_b, omega_c),
             "omega_b": (omega_c,), "omega_c": (omega_b,)}
    axes = []
    for param in draw(st.lists(st.sampled_from(sorted(edges)), min_size=1, max_size=2)):
        if param.startswith("omega"):
            values = st.one_of(st.sampled_from(edges[param]), st.floats(0.5, 1.5))
        else:
            values = st.one_of(st.sampled_from(edges[param]), st.floats(-1.2, 1.2))
        axes.append({"param": param, "start": draw(values), "stop": draw(values),
                     "steps": draw(st.integers(1, 3))})
    # the couplings off the scan axes may be complex: an imaginary part may
    # outweigh the real one, and lambda may stay on the lines lambda = +-xi
    # and lambda = conj(xi)
    imag = st.sampled_from((0.0, 1e-9, 0.3, -0.3))
    xi_im = draw(imag)
    parts = {"lambda": (lam, draw(st.one_of(st.just(xi_im), st.just(-xi_im), imag))),
             "xi": (xi, xi_im), "kappa": (kappa, draw(imag))}
    scanned = {axis["param"] for axis in axes}
    for name, value in parts.items():
        if name not in scanned:
            doc[name] = list(value)
    doc["scan"] = axes
    return doc


def _rows(argv, doc):
    """Exit code and rows of ``darktrio <argv>`` on the config ``doc``, as JSON."""
    out = io.StringIO()
    with tempfile.NamedTemporaryFile("w", suffix=".json") as config:
        json.dump(doc, config)
        config.flush()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--config", config.name])
    return code, json.loads(out.getvalue())["rows"]


def _point(row):
    """The single-point config of a scan row."""
    return {name: row[name] for name in ("omega_a", "omega_b", "omega_c", "lambda", "xi", "kappa")}


def _params(point):
    return ModelParams(point["omega_a"], point["omega_b"], point["omega_c"],
                       complex(*point["lambda"]), complex(*point["xi"]), complex(*point["kappa"]))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=scan_configs(), operation=st.sampled_from(sorted(SINGLE)))
# a subnormal kappa once made the closed-form factors NaN and the stacked
# solve raise for the whole scan
@example(doc={"omega_a": 0.8, "omega_b": 0.8, "omega_c": 1.0, "lambda": 1e-9, "xi": 1e-9,
              "kappa": 0.0, "scan": [{"param": "kappa", "start": 5e-324, "stop": 0.0, "steps": 1}]},
         operation="duality")
def test_scan_rows_equal_single_point_rows(doc, operation):
    code, rows = _rows(["scan", operation], doc)
    assert code == 0
    position = 0
    while position < len(rows):
        point = _point(rows[position])
        _, single = _rows([operation], point)
        assert rows[position:position + len(single)] == single
        position += len(single)
        status = single[0]["status"]
        try:
            SINGLE[operation](_params(point))
        except DarkTrioError as err:
            assert status == type(err).__name__
        else:
            assert status == "ok"
