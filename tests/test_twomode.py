"""Photon-phonon normal modes: energies, mixing factors, unitary."""

import warnings

import numpy as np
import pytest

from darktrio import (
    DarkTrioError,
    DegenerateSpectrum,
    DegenerateTwoMode,
    ModelParams,
    crosscheck,
    dark_tuning,
    duality_report,
    phi,
    three_mode_spectrum,
    two_mode_spectrum,
    validate,
)

from _generators import rwa_block_matrix, valid_params


def test_resonant_split_and_equal_mixing():
    p = ModelParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.1)
    two = two_mode_spectrum(p)
    np.testing.assert_allclose(two.eps, (0.9, 1.1), rtol=0, atol=1e-15)
    np.testing.assert_allclose(two.m, (2.0**-0.5,) * 2, rtol=0, atol=1e-15)


def test_detuned_example_against_dense_solver():
    # frozen from a 50-digit evaluation; closed form (3 -+ sqrt(2))/2
    p = ModelParams(1.0, 1.0, 2.0, 0.0, 0.0, 0.5)
    two = two_mode_spectrum(p)
    np.testing.assert_allclose(
        two.eps, (0.7928932188134525, 2.2071067811865475), rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(
        two.m, (0.9238795325112868, 0.3826834323650898), rtol=0, atol=1e-14
    )
    assert two.m[0] ** 2 + two.m[1] ** 2 == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(rwa_block_matrix(p)), two.eps, rtol=0, atol=1e-14
    )


def test_effective_couplings_resonant_closed_form():
    # frozen: (lam -+ xi) / sqrt(2) for the resonant real case
    p = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)
    two = two_mode_spectrum(p)
    np.testing.assert_allclose(
        two.gamma, (0.10606601717798214, 0.17677669529663687), rtol=0, atol=1e-14
    )


def test_mode_mixing_resonant_photon_row():
    p = ModelParams(1.0, 1.0, 1.0, 0.1, 0.1, 0.3)
    u = two_mode_spectrum(p).u  # bare (photon, phonon) from quasimodes
    np.testing.assert_allclose(u[0], (2.0**-0.5, 2.0**-0.5), rtol=0, atol=1e-14)


def test_mode_mixing_round_trip_identity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        p = valid_params(rng)
        u = two_mode_spectrum(p).u
        product = u @ u.conj().T
        assert np.max(np.abs(product - np.eye(2))) < 1e-14


def test_pole_ratio_identity_per_mode():
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = valid_params(rng)
        two = two_mode_spectrum(p)
        for j in range(2):
            left = (two.eps[j] - p.omega_b) / np.conj(p.kappa)
            right = p.kappa / (two.eps[j] - p.omega_c)
            assert abs(left - right) <= 1e-12 * abs(right)


def test_cross_product_identity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = valid_params(rng)
        two = two_mode_spectrum(p)
        ksq = abs(p.kappa) ** 2
        for w in (p.omega_b, p.omega_c):
            product = (two.eps[0] - w) * (two.eps[1] - w)
            assert abs(product + ksq) <= 1e-12 * ksq


def test_trace_and_determinant_identities():
    rng = np.random.default_rng(24)
    for _ in range(50):
        p = valid_params(rng)
        two = two_mode_spectrum(p)
        trace = p.omega_b + p.omega_c
        det = p.omega_b * p.omega_c - abs(p.kappa) ** 2
        assert abs(two.eps[0] + two.eps[1] - trace) <= 1e-12 * abs(trace)
        assert abs(two.eps[0] * two.eps[1] - det) <= 1e-12 * max(abs(det), 1e-6)


def test_positive_lower_energy_under_first_assumption():
    rng = np.random.default_rng(25)
    for _ in range(50):
        p = valid_params(rng)
        two = two_mode_spectrum(p)
        assert two.eps[0] > 0.0
        assert two.eps[0] < two.eps[1]


def test_unitarity_and_diagonalization():
    rng = np.random.default_rng(26)
    for _ in range(50):
        p = valid_params(rng)
        two = two_mode_spectrum(p)
        block = rwa_block_matrix(p)
        assert np.max(np.abs(two.u.conj().T @ two.u - np.eye(2))) < 1e-14
        diag = two.u.conj().T @ block @ two.u
        assert np.max(np.abs(diag - np.diag(two.eps))) < 1e-12 * np.linalg.norm(block)


def test_mixing_factors_are_normalized_everywhere():
    rng = np.random.default_rng(27)
    for _ in range(50):
        p = valid_params(rng)
        two = two_mode_spectrum(p)
        assert abs(two.m[0] ** 2 + two.m[1] ** 2 - 1.0) < 1e-14
        assert 0.0 < two.m[0] < 1.0
        assert 0.0 < two.m[1] < 1.0


def test_degenerate_block_raises():
    with pytest.raises(DegenerateTwoMode):
        two_mode_spectrum(ModelParams(1.0, 1.0, 1.0, 0.1, 0.1, 0.0))
    with pytest.raises(DegenerateTwoMode):
        two_mode_spectrum(ModelParams(1.0, 1.0, 1.0 + 1e-14, 0.1, 0.1, 1e-14))


@pytest.mark.filterwarnings("error")
def test_an_overflowing_effective_coupling_is_refused():
    # finite parameters whose Gamma_2 = M_2 * xi * d_2 / kappa overflows to
    # -inf+nanj; validate would overflow in the margins and pass assumption 2
    p = ModelParams(1.0, 0.33, 1.0, 0.2, -1.7976931348623157e308, 0.1)
    for call in (two_mode_spectrum, validate, three_mode_spectrum):
        with pytest.raises(DegenerateSpectrum, match="not finite"):
            call(p)


@pytest.mark.parametrize("omega", [1e-3, 1.0, 1e3])
def test_degeneracy_threshold_from_both_sides(omega):
    # degenerate below a splitting of 1e-12 (omega_b + omega_c): 2 |kappa| on
    # resonance, the detuning where kappa = 0
    for inside, outside in ((ModelParams(1.0, omega, omega, 0.1, 0.1, 0.999e-12 * omega),
                             ModelParams(1.0, omega, omega, 0.1, 0.1, 1.001e-12 * omega)),
                            (ModelParams(1.0, omega, omega * (1 + 1.998e-12), 0.1, 0.1, 0.0),
                             ModelParams(1.0, omega, omega * (1 + 2.002e-12), 0.1, 0.1, 0.0))):
        with pytest.raises(DegenerateTwoMode):
            two_mode_spectrum(inside)
        two = two_mode_spectrum(outside)
        assert two.eps[0] < two.eps[1]


def test_decoupled_block_orders_bare_modes():
    # a subnormal kappa is decoupled too: d_j / |kappa| overflows there
    for kappa in (0.0, 5e-324):
        p = ModelParams(1.0, 1.0, 2.0, 0.2, 0.05, kappa)
        two = two_mode_spectrum(p)
        assert two.eps == (1.0, 2.0)
        assert two.m == (1.0, 0.0)
        assert two.gamma == (0.2 + 0j, 0.05 + 0j)
        np.testing.assert_array_equal(two.u, np.eye(2))

        flipped = ModelParams(1.0, 2.0, 1.0, 0.2, 0.05, kappa)
        two = two_mode_spectrum(flipped)
        assert two.eps == (1.0, 2.0)
        assert two.gamma == (0.05 + 0j, 0.2 + 0j)
        np.testing.assert_array_equal(two.u, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_strong_detuning_remains_accurate():
    # tiny coupling on a large detuning: the small shift comes from the
    # product identity, not from a cancellation
    p = ModelParams(1.0, 1.0, 100.0, 0.0, 0.0, 1e-3)
    two = two_mode_spectrum(p)
    block = rwa_block_matrix(p)
    np.testing.assert_allclose(np.linalg.eigvalsh(block), two.eps, rtol=1e-13)
    assert np.max(np.abs(two.u.conj().T @ two.u - np.eye(2))) < 1e-14


@pytest.mark.parametrize("kappa", [2e154, 1e200, 1e308, 1.7976931348623157e308])
@pytest.mark.parametrize("omega_b", [1.0, 1.3])
def test_a_coupling_whose_square_overflows_keeps_its_modes(omega_b, kappa):
    # |kappa|^2 overflows from about 1.34e154 and 2|kappa| from about 8.99e307;
    # the modes are still finite: eps_j = (omega_b + 1)/2 -+ |kappa| to float
    # precision, with equal mixing
    p = ModelParams(1.0, omega_b, 1.0, 0.2, 0.05, kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two = two_mode_spectrum(p)
        report = validate(p)
    np.testing.assert_allclose(two.eps, (-kappa, kappa), rtol=1e-15, atol=0)
    np.testing.assert_allclose(two.m, (2.0**-0.5,) * 2, rtol=1e-15, atol=0)
    np.testing.assert_allclose(np.abs(two.gamma), np.abs(np.array([0.2 - 0.05, 0.2 + 0.05]))
                               / np.sqrt(2.0), rtol=1e-15)
    assert report.ass1.margin == np.sqrt(omega_b) - kappa
    assert report.ass3.margin == report.ass4.margin == -np.inf


def test_a_coupling_whose_modulus_overflows_warns_nowhere():
    # both parts finite, |kappa| beyond the float range: a result or a named error
    p = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 1.5e308 + 1.5e308j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (two_mode_spectrum, validate, three_mode_spectrum, crosscheck, dark_tuning,
                     duality_report):
            try:
                call(p)
            except DarkTrioError:
                pass


def test_a_split_block_near_the_float_range_is_not_degenerate():
    # the threshold 1e-12 (omega_b + omega_c) overflowed here, flagging a
    # splitting of 5e307 as degenerate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate(ModelParams(1.0, 1e308, 1.5e308, 0.2, 0.05, 0.1))
    assert report.ass2.passed


@pytest.mark.parametrize("params", [
    ModelParams(1.0, 1e308, 1e308, 0.2, 0.05, 1e308),  # eps_2 = 2e308 overflows
    ModelParams(1.0, 1.0, 1.7e308, 0.2, 0.05, 1e308),  # the large root overflows
], ids=["eps-overflows", "root-overflows"])
def test_modes_beyond_the_float_range_are_refused(params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (two_mode_spectrum, validate, lambda p: phi(p, 0.5)):
            with pytest.raises(DegenerateSpectrum, match="^quasimode energies .* are not finite$"):
                call(params)
