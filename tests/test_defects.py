"""Open defects, each at its own input, as tests that fail today.

Each test asserts the correct behaviour and is marked ``xfail(strict=True)`` with
the exception the defect raises today, so it reports as xfailed while the defect
holds and fails the run once a change mends it: that change removes the mark and
turns the defect's ``FOUND:`` line in CHANGES.md into ``MENDED:``.  README's
"Known defects" table lists every ``FOUND:`` line with its status.
"""

import math
import warnings

import numpy as np
import pytest

from darktrio import (
    AtomKind,
    DarkTrioError,
    DegenerateSpectrum,
    GammaZero,
    ModelParams,
    PoleHit,
    crosscheck,
    duality_report,
    phi,
    three_mode_spectrum,
    two_mode_spectrum,
)

#: the default point, which ROADMAP item 3 scales by powers of two
DEFAULT = (1.0, 1.0, 1.0, 0.2, 0.05, 0.1)


def _scaled(point, k):
    return ModelParams(*(x * 2.0**k for x in point))


def _row(params, name, kind=AtomKind.TWO_LEVEL):
    return next(check for check in crosscheck(params, kind).checks if check.name == name)


@pytest.mark.xfail(strict=True, raises=PoleHit,
                   reason="CHANGES.md line 17: the occupations' pole guard is an absolute 1e-10")
def test_duality_report_near_lambda_equal_xi():
    # a dressed level sits 2.3e-11 from eps_1
    report = duality_report(ModelParams(1.8057136982504995, 1.8043549618100012,
                                        1.8043549618100012, 0.9533183784182533,
                                        0.9533405453542709, 0.08392201536053794))
    assert report.passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md line 37: eps_j - omega cancels at weak detuned kappa")
@pytest.mark.parametrize("kind", list(AtomKind))
def test_pole_identities_at_weak_detuned_kappa(kind):
    # today both residuals are 8.5e-8 against 1e-12
    p = ModelParams(0.8, 0.8, 1.0, 0.1, 0.2, 1e-5)
    assert _row(p, "pole-identity", kind).passed
    assert _row(p, "cross-product-identity", kind).passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md line 391: E - eps_j from two rounded numbers near a pole")
def test_eigenstate_residuals_beside_a_pole():
    # the interlacing margin is 2.2e-16; today the residual is 1.4e-9 against 1e-9
    p = ModelParams(1.6192172839435934, 0.5061842209831586, 0.8499824641289233,
                    -1.444451836360075e-08, -1.1507392363975522e-06, 6.349261385819266e-06)
    assert _row(p, "eigenstate-residuals").passed


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="CHANGES.md line 565: (x - eps_1)(x - eps_2) overflows inside phi")
def test_phi_where_its_product_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = phi(ModelParams(1, 1, 1, 0.2, 0.05, 2e154), 0.5)
        except DarkTrioError:
            return
    assert math.isfinite(value)


@pytest.mark.xfail(strict=True, raises=DegenerateSpectrum,
                   reason="CHANGES.md line 803: Gamma_j forms its unbounded factor first")
def test_effective_couplings_scale_with_the_point():
    point = (0.8, 0.8, 1.0, 0.1, 0.2, 1e-300)
    gamma = np.array(two_mode_spectrum(ModelParams(*point)).gamma)
    scaled = np.array(two_mode_spectrum(_scaled(point, 100)).gamma)
    np.testing.assert_allclose(scaled, 2.0**100 * gamma, rtol=1e-15, atol=0)


@pytest.mark.xfail(strict=True, raises=GammaZero,
                   reason="ROADMAP item 3: the coupling scale's floor of 1 is a unit")
def test_spectrum_at_two_to_the_minus_40():
    levels = three_mode_spectrum(_scaled(DEFAULT, -40)).e
    np.testing.assert_allclose(levels, 2.0**-40 * np.array(three_mode_spectrum(
        ModelParams(*DEFAULT)).e), rtol=1e-14, atol=0)


@pytest.mark.xfail(strict=True, raises=PoleHit,
                   reason="ROADMAP item 3: the occupations' absolute pole guard")
def test_duality_report_at_two_to_the_minus_33():
    assert duality_report(_scaled(DEFAULT, -33)).passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the sector check's absolute 1e-9 bound")
def test_oscillator_sector_check_at_two_to_the_21():
    assert _row(_scaled(DEFAULT, 21), "sector-2-spectrum", AtomKind.OSCILLATOR).passed


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md line 392: the cubic-roots normalizer max(1, |E|^3) overflows")
@pytest.mark.parametrize("kind", list(AtomKind))
def test_cubic_roots_at_two_to_the_400(kind):
    assert _row(_scaled(DEFAULT, 400), "cubic-roots", kind).passed
