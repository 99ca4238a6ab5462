"""The closed-form levels against the exact characteristic polynomial (``_exact``).

Every level ``threemode._dressed`` solves is certified to have its own root of the
bare one-excitation matrix's characteristic polynomial within ``K`` ulps of the
point's largest level, on every golden config (also scaled by powers of two), on one
band of the benchmark's scan grid and on the weak-coupling sample.  The sample's
statuses are pinned too, and so are the golden configs' under scaling.
"""

import json

import numpy as np
import pytest

from darktrio import ModelParams, threemode, twomode
from darktrio.errors import _STATUS_ERRORS
from darktrio.model import _Batch

from _exact import certified, charpoly
from _generators import BATCH_FIELDS, TESTS, golden_batch, scan_band, weak_coupling_batch

#: the certificate's half-width, in ulps of max |E|: the least integer above the worst
#: case of levels started from LAPACK's eigenvalues of the quasimode-basis matrix and
#: refined by two Newton steps, 2.13 (a weak-coupling level E = -0.7057; 0.94 on the
#: golden configs, 0.68 on the band).  From the trigonometric start: 1.84, 0.94 and 0.71
K = 3


def _scaled(p: _Batch, k: int) -> _Batch:
    """The batch ``p`` with every parameter multiplied by ``2**k``: the same problem in
    another unit."""
    return _Batch(*(getattr(p, name) * 2.0**k for name in BATCH_FIELDS))


#: powers of two that put the golden configs' ``||H||`` between about 1e99 and 1e151, where
#: cubes of the matrix's entries overflow but ``||H||`` itself does not
SCALES = (330, 415, 500)

SAMPLES = {
    "golden": golden_batch,
    **{f"golden times 2**{k}": lambda k=k: _scaled(golden_batch(), k) for k in SCALES},
    "scan-grid seed 1 band 3": lambda: scan_band(1, 3),
    "weak coupling": weak_coupling_batch,
}


@pytest.mark.parametrize("sample", sorted(SAMPLES))
def test_every_solved_level_has_its_own_root_within_k_ulps(sample):
    p = SAMPLES[sample]()
    spectrum = threemode._dressed(p, twomode._two_mode(p))
    solved = np.flatnonzero(spectrum.status.ok).tolist()
    assert solved
    uncertified = [i for i in solved if not certified(
        charpoly(ModelParams(*(getattr(p, name)[i] for name in BATCH_FIELDS))),
        spectrum.e[i].tolist(), K)]
    assert uncertified == [], [spectrum.e[i].tolist() for i in uncertified[:3]]


def test_the_weak_coupling_statuses_stay_pinned():
    pinned = json.loads((TESTS / "weak_coupling_status.json").read_text())
    p = weak_coupling_batch()
    code = threemode._dressed(p, twomode._two_mode(p)).status.code
    status = np.array(["ok", *(error.__name__ for error in _STATUS_ERRORS[1:])])[code]
    counts = {name: np.count_nonzero(status == name) for name in np.unique(status).tolist()}
    failing = {name: np.flatnonzero(status == name).tolist() for name in counts if name != "ok"}
    assert counts == pinned["counts"]
    assert failing == pinned["failing"]


def test_scaling_every_parameter_by_a_power_of_two_keeps_each_status():
    """Every power of two from 2**300 up to 2**510, past which ``||H||`` of some golden
    configs overflows.  On the way the cubes in the trigonometric start overflow, each
    config at its own power, and its points must not keep a start that came out wrong."""
    p = golden_batch()
    two = twomode._two_mode(p)
    code = threemode._dressed(p, two).status.code
    moved = []
    for k in range(300, 511):
        scaled = _scaled(p, k)
        two_scaled = twomode._two_mode(scaled)
        # the points whose quasimode energies and couplings scale exactly: their dressed
        # problem is the unscaled one in another unit
        same_two = ((two_scaled.eps == two.eps * 2.0**k).all(axis=1)
                    & (two_scaled.gamma_sq == two.gamma_sq * 4.0**k).all(axis=1))
        assert np.count_nonzero(same_two) > 0.9 * len(p)
        code_scaled = threemode._dressed(scaled, two_scaled).status.code
        moved += [(k, i, code[i], code_scaled[i])
                  for i in np.flatnonzero(same_two & (code_scaled != code)).tolist()]
    assert moved == [], moved[:3]


def test_the_certificate_refuses_a_level_off_by_more_than_k_ulps():
    params = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)
    coefficients = charpoly(params)
    levels = threemode.three_mode_spectrum(params).e
    assert certified(coefficients, levels, K)
    # a shift of 3 K ulps of max |E| moves a level off its root; so does a swap of two
    shift = 3 * K * np.spacing(max(levels))
    assert not certified(coefficients, (levels[0] + shift, *levels[1:]), K)
    assert not certified(coefficients, (levels[1], levels[0], levels[2]), K)
    # the intervals must not overlap, or one root could serve two levels
    assert not certified(coefficients, (levels[0], levels[0], levels[2]), K)
