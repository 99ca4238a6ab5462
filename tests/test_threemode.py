"""Dressed one-excitation spectrum: spectral functions, levels, unitary."""

import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from darktrio import (
    AssumptionViolation,
    AtomKind,
    DegenerateSpectrum,
    DegenerateTwoMode,
    GammaZero,
    ModelParams,
    phi,
    sector_matrix,
    three_mode_spectrum,
    threemode,
    two_mode_spectrum,
    validate,
)
from darktrio.model import _batch_of, _Batch, _max_abs
from darktrio.threemode import (
    _d1_and_slope,
    _dressed,
    _norms_and_residual,
    _quasi_matrices,
    _unitary,
)
from darktrio.twomode import _two_mode

from _generators import (
    BATCH_FIELDS,
    golden_batch,
    resonant_real_params,
    scan_band,
    stack,
    valid_params,
    weak_coupling_batch,
)

FIXTURE = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)
# frozen 50-digit roots of the cleared cubic for FIXTURE
FIXTURE_LEVELS = (0.7930295020247184, 0.9607532983742692, 1.2462171996010124)
# frozen normalizers d1'(E_j)**-1/2 for FIXTURE
FIXTURE_NORMS = (0.6572701819296309, 0.4203436090340387, 0.6255454885861053)
DARK_TUNED = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.2)


def _poles(p):
    """Quasimode energies and ``|Gamma_j|^2`` of ``p``'s solved photon-phonon
    block, degenerate or not: the poles and weights of d1."""
    two = _two_mode(_batch_of(p))
    return two.eps[0], np.square(two.gamma_abs[0])


def test_spectral_function_no_phonon_coupling_resonant():
    # with xi = 0 and omega_a free, d1 at the resonant frequency collapses
    # to the bare detuning
    p = ModelParams(0.7, 1.0, 1.0, 0.3, 0.0, 0.25)
    assert _d1_and_slope(1.0, p.omega_a, *_poles(p))[0] == pytest.approx(1.0 - 0.7, abs=1e-15)


def test_spectral_function_decoupled_atom():
    p = ModelParams(0.8, 1.0, 1.2, 0.0, 0.0, 0.2)
    for x in (-1.0, 0.3, 2.5):
        assert _d1_and_slope(x, p.omega_a, *_poles(p))[0] == pytest.approx(x - 0.8, abs=1e-15)


def test_spectral_function_near_zero_at_top_level():
    assert abs(_d1_and_slope(1.2462, FIXTURE.omega_a, *_poles(FIXTURE))[0]) < 1e-3


def test_cubic_resonant_value_at_omega():
    # phi(omega) = -|kappa|^2 (omega - omega_a) on resonance when one atom
    # coupling is absent (the general correction is -2 lam xi kappa)
    p = ModelParams(0.75, 1.0, 1.0, 0.3, 0.0, 0.2)
    assert phi(p, 1.0) == pytest.approx(-0.04 * 0.25, abs=1e-15)
    q = ModelParams(0.75, 1.0, 1.0, 0.3, 0.1, 0.2)
    assert phi(q, 1.0) == pytest.approx(-0.04 * 0.25 - 2 * 0.3 * 0.1 * 0.2, abs=1e-15)


def test_cubic_signs_at_quasimode_energies():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = resonant_real_params(rng)
        two = two_mode_spectrum(p)
        g1sq = abs(two.gamma[0]) ** 2
        g2sq = abs(two.gamma[1]) ** 2
        gap = two.eps[1] - two.eps[0]
        assert phi(p, two.eps[0]) == pytest.approx(g1sq * gap, rel=1e-12)
        assert phi(p, two.eps[1]) == pytest.approx(-g2sq * gap, rel=1e-12)


def test_cubic_matches_cleared_spectral_function():
    rng = np.random.default_rng(32)
    for _ in range(25):
        p = valid_params(rng)
        two = two_mode_spectrum(p)
        x = rng.uniform(-1.0, 4.0)
        if min(abs(x - e) for e in two.eps) < 1e-3:
            continue
        cleared = (x - two.eps[0]) * (x - two.eps[1]) * _d1_and_slope(x, p.omega_a, *_poles(p))[0]
        assert phi(p, x) == pytest.approx(cleared, rel=1e-12, abs=1e-15)


def test_cubic_defined_on_fully_degenerate_block():
    p = ModelParams(0.8, 1.0, 1.0, 0.2, 0.1, 0.0)
    # (x - 1)^2 (x - 0.8) - (0.04 + 0.01)(x - 1) at x = 1.5
    assert phi(p, 1.5) == pytest.approx(0.25 * 0.7 - 0.05 * 0.5, abs=1e-15)


def _exact_cubic(h, x):
    """``det(x - h)`` of a 3x3 Hermitian matrix ``h``, in exact rationals."""
    x = Fraction(x)
    a, b, c = (x - Fraction(h[i, i].real) for i in range(3))
    d, e, f = ((Fraction(z.real), Fraction(z.imag)) for z in (h[0, 1], h[0, 2], h[1, 2]))

    def sq(z):
        return z[0] ** 2 + z[1] ** 2

    # Re(h01 h12 conj(h02)), the loop through all three couplings
    df = (d[0] * f[0] - d[1] * f[1], d[0] * f[1] + d[1] * f[0])
    loop = df[0] * e[0] + df[1] * e[1]
    return a * b * c - a * sq(f) - b * sq(e) - c * sq(d) - 2 * loop


@pytest.mark.parametrize("omega_c", [1.0, 1.0 + 2.0**-52])
@pytest.mark.parametrize("kappa", [0.0, 3e-13, -5e-13j, 2e-13 + 2e-13j])
@pytest.mark.parametrize("lam,xi", [(0.2, 0.1), (0.1j, -0.25)])
def test_cubic_on_near_degenerate_blocks_is_exact(omega_c, kappa, lam, xi):
    # photon and phonon split by less than 1e-12 (omega_b + omega_c), where
    # the mixing factors are undefined: the cubic, d1 and the quasimode-basis
    # matrix still read the solved quasimodes and couplings
    p = ModelParams(1.3, 1.0, omega_c, lam, xi, kappa)
    with pytest.raises(DegenerateTwoMode, match="uncoupled" if kappa == 0 else r"degenerate \("):
        two_mode_spectrum(p)
    bare = sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix
    two = _two_mode(_batch_of(p))
    quasi = _quasi_matrices(np.array([p.omega_a]), two.eps, two.gamma)[0]
    for x in (0.5, 0.99, 1.01, 2.0):
        exact = _exact_cubic(bare, x)
        assert abs(Fraction(float(phi(p, x))) - exact) <= Fraction(1e-13) * abs(exact)
        assert abs(_exact_cubic(quasi, x) - exact) <= Fraction(1e-13) * abs(exact)
        # d1 = det(x - H) / det(x - B), B the photon-phonon block
        block = ((Fraction(x) - Fraction(p.omega_b)) * (Fraction(x) - Fraction(p.omega_c))
                 - Fraction(p.kappa.real) ** 2 - Fraction(p.kappa.imag) ** 2)
        exact_d1 = exact / block
        d1 = Fraction(float(_d1_and_slope(x, p.omega_a, *_poles(p))[0]))
        assert abs(d1 - exact_d1) <= Fraction(1e-13) * abs(exact_d1)


def test_levels_match_frozen_fixture():
    spectrum = three_mode_spectrum(FIXTURE)
    np.testing.assert_allclose(spectrum.e, FIXTURE_LEVELS, rtol=0, atol=1e-12)
    np.testing.assert_allclose(spectrum.n_norm, FIXTURE_NORMS, rtol=0, atol=1e-12)
    two = two_mode_spectrum(FIXTURE)
    assert spectrum.e[0] < two.eps[0] < spectrum.e[1] < two.eps[1] < spectrum.e[2]


def test_dark_tuned_level_is_exact():
    spectrum = three_mode_spectrum(DARK_TUNED)
    assert min(abs(e - 0.95) for e in spectrum.e) < 1e-12


def test_decoupled_atom_raises_gamma_zero():
    with pytest.raises(GammaZero):
        three_mode_spectrum(ModelParams(1.0, 1.0, 1.2, 0.0, 0.0, 0.2))


def test_single_vanishing_coupling_raises_gamma_zero():
    # resonant lam = xi zeroes the first effective coupling
    with pytest.raises(GammaZero):
        three_mode_spectrum(ModelParams(1.0, 1.0, 1.0, 0.2, 0.2, 0.1))


def test_failed_positivity_assumption_raises():
    with pytest.raises(AssumptionViolation):
        three_mode_spectrum(ModelParams(1.0, 1.0, 1.0, 0.2, 0.1, 1.5))


def test_near_degenerate_levels_raise():
    delta = 1e-11
    p = ModelParams(1.0, 1.0, 1.0, 0.2 + delta / 2, 0.2 - delta / 2, 0.2)
    with pytest.raises(DegenerateSpectrum):
        three_mode_spectrum(p)


def test_levels_as_cubic_roots():
    rng = np.random.default_rng(33)
    for _ in range(25):
        p = valid_params(rng)
        spectrum = three_mode_spectrum(p)
        for e in spectrum.e:
            assert abs(phi(p, e)) < 1e-10 * max(1.0, abs(e) ** 3)


def test_level_sum_equals_frequency_sum():
    rng = np.random.default_rng(34)
    for _ in range(25):
        p = valid_params(rng)
        spectrum = three_mode_spectrum(p)
        total = p.omega_a + p.omega_b + p.omega_c
        assert sum(spectrum.e) == pytest.approx(total, rel=1e-12)


def test_spectrum_invariant_under_coupling_swap():
    rng = np.random.default_rng(35)
    for _ in range(25):
        p = resonant_real_params(rng)
        base = three_mode_spectrum(p).e
        swapped = three_mode_spectrum(replace(p, lam=p.xi, xi=p.lam)).e
        np.testing.assert_allclose(base, swapped, rtol=1e-12)


def test_unitary_diagonalizes_quasi_matrix():
    rng = np.random.default_rng(36)
    for _ in range(25):
        p = valid_params(rng)
        spectrum = three_mode_spectrum(p)
        two = spectrum.two
        h = _quasi_matrices(np.array([p.omega_a]), np.array([two.eps]), np.array([two.gamma]))[0]
        scale = np.linalg.norm(h)
        assert np.max(np.abs(spectrum.v.conj().T @ spectrum.v - np.eye(3))) < 1e-12
        diag = spectrum.v.conj().T @ h @ spectrum.v
        assert np.max(np.abs(diag - np.diag(spectrum.e))) < 1e-11 * scale


def test_atom_row_of_unitary_is_positive_normalizer():
    rng = np.random.default_rng(37)
    p = valid_params(rng)
    spectrum = three_mode_spectrum(p)
    np.testing.assert_allclose(spectrum.v[2].real, spectrum.n_norm, rtol=0, atol=1e-15)
    assert np.all(spectrum.v[2].imag == 0.0)


def test_normalizers_match_reciprocal_vector_norm():
    rng = np.random.default_rng(38)
    for _ in range(25):
        p = valid_params(rng)
        two = two_mode_spectrum(p)
        spectrum = three_mode_spectrum(p)
        for j, e in enumerate(spectrum.e):
            raw = np.array(
                [two.gamma[0] / (e - two.eps[0]), two.gamma[1] / (e - two.eps[1]), 1.0]
            )
            assert spectrum.n_norm[j] == pytest.approx(
                1.0 / np.linalg.norm(raw), rel=1e-10
            )


def test_levels_positive_under_all_assumptions():
    rng = np.random.default_rng(39)
    for _ in range(25):
        p = valid_params(rng, require_all=True)
        spectrum = three_mode_spectrum(p)
        assert spectrum.e[0] > 0.0


def test_quasi_and_bare_matrices_share_spectrum():
    rng = np.random.default_rng(40)
    for _ in range(10):
        p = valid_params(rng)
        bare = np.linalg.eigvalsh(sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix)
        two = two_mode_spectrum(p)
        quasi = _quasi_matrices(np.array([p.omega_a]), np.array([two.eps]), np.array([two.gamma]))
        quasi = np.linalg.eigvalsh(quasi[0])
        np.testing.assert_allclose(bare, quasi, rtol=0, atol=1e-13)



def test_phi_refuses_an_effective_coupling_that_overflows():
    overflowing = ModelParams(1.0, 0.33, 1.0, 0.2, -1.7976931348623157e308, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSpectrum, match="^effective couplings .* are not finite$"):
            phi(overflowing, 0.5)
        # a degenerate block still has a cubic
        assert phi(ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.0), 0.5) == -0.10375


def test_a_coupling_whose_square_overflows_is_refused():
    # |Gamma_2| is about 9.9e199: finite, but its square overflows
    overflowing = ModelParams(1.0, 0.33, 1.0, 0.2, 1e200, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (validate, two_mode_spectrum, lambda p: phi(p, 0.5)):
            with pytest.raises(DegenerateSpectrum,
                               match="^effective couplings .* or their squares are not finite$"):
                call(overflowing)


@pytest.mark.parametrize("coupling,refused", [(6e153, False), (7e153, True)])
def test_the_norm_check_is_the_quasimode_matrix_norm(coupling, refused):
    # quasimode energies 1e153 and 2e153, omega_a 1e153 and |Gamma_j| = coupling: the
    # Frobenius norm holds each |Gamma_j|^2 twice, and overflows at 7e153, where the
    # diagonal and one copy of each coupling would not
    params = ModelParams(1e153, 1e153, 2e153, coupling, coupling, 0.0)
    two = two_mode_spectrum(params)
    quasi = _quasi_matrices(np.array([params.omega_a]), np.array([two.eps]),
                            np.array([two.gamma]))
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(quasi)) == refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(DegenerateSpectrum, match=r"^\|\|H\|\| = inf is not finite"):
                three_mode_spectrum(params)
        else:
            assert np.isfinite(three_mode_spectrum(params).e).all()


#: the largest difference allowed between ``_dressed``'s closed-form ``V'V - I`` bound
#: and ``max |V'V - I|`` of the formed unitary, about 4.5 ulps of 1; the largest read is
#: 4.4e-16, on the golden configs, and 3.8e-16 on the weak-coupling sample
UNITARY_CHECK_ATOL = 1e-15
#: points at which the closed form is not a number, all refused.  At the first two a level
#: lies within 1e-160 of its pole: ``|Gamma|^2 / (E - eps)^2`` overflows, the normalizer is
#: 0, and ``N^2 * inf`` is NaN where the formed unitary's column is 0.  At the last two a
#: Newton step leaves a level NaN, and the formed unitary is NaN too.
NOT_A_NUMBER = [
    ModelParams(2e-37, 2e-61, 2e-178, 0.1, 7e-12, 0.0),
    ModelParams(3e-156, 2e-58, 2e-243, 3.0, 6e-09, 0.0),
    ModelParams(1e-42, 2e-10, 2e-299, 9e16, 6e6, 0.0),
    ModelParams(5e90, 1e-273, 1e-37, 3e18, 2e13, 0.0),
]
UNITARY_SAMPLES = {
    "golden": golden_batch,
    "not a number": lambda: stack(NOT_A_NUMBER),
    "scan-grid seed 1 band 3": lambda: scan_band(1, 3),
    "weak coupling": weak_coupling_batch,
}


@pytest.mark.parametrize("sample", sorted(UNITARY_SAMPLES))
def test_the_closed_form_unitary_check_matches_the_formed_unitary(monkeypatch, sample):
    p = UNITARY_SAMPLES[sample]()
    checked = []

    def record(gaps, gsq):
        checked.append(_norms_and_residual(gaps, gsq))
        return checked[-1]

    monkeypatch.setattr(threemode, "_norms_and_residual", record)
    spectrum = _dressed(p, _two_mode(p))
    monkeypatch.undo()
    assert len(checked) == 1
    status = spectrum.status
    refused = np.array([bool(code) and str(status.error(i)).startswith("closed-form unitary")
                        for i, code in enumerate(status.code.tolist())])
    with np.errstate(all="ignore"):
        v = _unitary(spectrum.two.gamma, spectrum.r, spectrum.n_norm)
        formed = _max_abs(np.matmul(v.conj().swapaxes(1, 2), v) - np.eye(3))
    # every point the check reaches: it passed, or the check refused it
    reached = status.ok | refused
    residual = checked[0][1]
    close = np.abs(residual - formed) <= UNITARY_CHECK_ATOL
    assert (close | np.isnan(residual) & refused)[reached].all()
    assert np.array_equal(~(formed[reached] <= 1e-8), refused[reached])
    if sample == "weak coupling":
        assert np.count_nonzero(refused) == 84
    if sample == "not a number":
        assert np.isnan(residual).all() and refused.all()
    for i in np.flatnonzero(refused).tolist():
        alone = _Batch(*(getattr(p, name)[i:i + 1] for name in BATCH_FIELDS))
        single = _dressed(alone, _two_mode(alone)).status
        assert single.code[0] == status.code[i]
        assert str(single.error(0)) == str(status.error(i))


@pytest.mark.parametrize("params", NOT_A_NUMBER, ids=range(len(NOT_A_NUMBER)))
def test_a_point_whose_unitary_check_is_not_a_number_is_refused(params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSpectrum, match=r"^closed-form unitary failed its sanity "
                                                     r"bound \(residual nan\)"):
            three_mode_spectrum(params)
