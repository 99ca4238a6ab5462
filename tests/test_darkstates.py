"""Tuning conditions, eigenstate assembly, classification, relabeling."""

import itertools
import math

import numpy as np
import pytest

from darktrio import (
    AssumptionViolation,
    AtomKind,
    ComplexCouplings,
    ModelParams,
    NotAnEigenvalue,
    NotResonant,
    PoleHit,
    RelabelRole,
    SectorVector,
    StateClass,
    Tolerances,
    TuningNotSatisfied,
    WrongSector,
    assemble_eigenstate,
    classify,
    classify_spectrum,
    dark_tuning,
    dense_hermitian_eig,
    duality_report,
    duality_swap,
    multiquantum_state,
    oscillator_sector_check,
    phi,
    relabel_modes,
    sector_basis,
    sector_matrix,
    three_mode_spectrum,
    two_mode_binomial_state,
)
from darktrio.darkstates import _e_of, _f_of, _resonant_real
from darktrio.errors import _Status
from darktrio.model import _Batch
from darktrio.threemode import _d1_and_slope

from _generators import kappa_zero_params, resonant_real_params, tuned_dark_params

DARK_TUNED = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.2)
QUASI_TUNED = ModelParams(1.0, 1.0, 1.0, 0.05, 0.2, 0.2)


def test_e_of_values():
    assert _e_of(0.3, 0.0, 1.0, 0.2) == 1.0
    assert _e_of(0.4, 0.4, 1.0, 0.2) == pytest.approx(0.8, abs=1e-15)
    assert _e_of(0.2, 0.05, 1.0, 0.2) == pytest.approx(0.95, abs=1e-15)


def test_f_of_values():
    assert _f_of(0.2, 0.7, 0.2) == 0.0
    assert _f_of(0.3, 0.0, 0.2) == 0.0
    assert _f_of(0.1, 0.05, 0.2) == pytest.approx(0.075, abs=1e-15)


def test_dark_tuning_satisfied_branch():
    dark, quasi = dark_tuning(DARK_TUNED)
    assert dark.kind is StateClass.DARK
    assert dark.energy == pytest.approx(0.95, abs=1e-15)
    assert dark.residual < 1e-15
    assert quasi.kind is None
    # the reported energy is a root of the cleared cubic
    assert abs(phi(DARK_TUNED, dark.energy)) < 1e-10


def test_dark_tuning_mirror_branch():
    dark, quasi = dark_tuning(QUASI_TUNED)
    assert quasi.kind is StateClass.QUASI_DARK
    assert quasi.energy == pytest.approx(0.95, abs=1e-15)
    assert dark.kind is None
    assert abs(phi(QUASI_TUNED, quasi.energy)) < 1e-10


def test_dark_tuning_equal_couplings_rejected():
    with pytest.raises(AssumptionViolation):
        dark_tuning(ModelParams(1.0, 1.0, 1.0, 0.2, 0.2, 0.1))
    with pytest.raises(AssumptionViolation):
        dark_tuning(ModelParams(1.0, 1.0, 1.0, 0.2, -0.2, 0.1))


def test_dark_tuning_regime_checks():
    with pytest.raises(NotResonant):
        dark_tuning(ModelParams(1.0, 1.0, 1.3, 0.2, 0.05, 0.1))
    with pytest.raises(ComplexCouplings):
        dark_tuning(ModelParams(1.0, 1.0, 1.0, 0.2j, 0.05, 0.1))
    with pytest.raises(ComplexCouplings):
        dark_tuning(ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1j))
    with pytest.raises(AssumptionViolation):
        dark_tuning(ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, -0.1))


def test_dark_tuning_judges_resonance_like_the_duality_report():
    # a detuning of 1e-10 is off resonance for the occupations and the
    # duality report; the tuning tolerance must not widen it
    near = ModelParams(1.0, 1.0, 1.0 + 1e-10, 0.2, 0.05, 0.2)
    for tol in (1e-9, 1e-11):
        with pytest.raises(NotResonant):
            dark_tuning(near, tol=tol)
    with pytest.raises(NotResonant):
        duality_report(near)


def test_resonant_frequency_is_the_mean_of_omega_b_and_omega_c():
    # resonant pairs from 1e-20 to 1e300, where (omega_b + omega_c) / 2 is
    # finite and both are normal: the overflow-free form keeps its bits
    rng = np.random.default_rng(7)
    wb = 10.0 ** rng.uniform(-20, 300, 100_000)
    wc = np.abs(wb + rng.uniform(-1e-12, 1e-12, wb.size) * np.maximum(1.0, wb))
    wc[::10] = wb[::10]
    n = wb.size
    batch = _Batch(np.ones(n), wb, wc, np.full(n, 0.2 + 0j), np.full(n, 0.05 + 0j),
                   np.full(n, 0.1 + 0j))
    status = _Status(n)
    omega = _resonant_real(batch, status)[0]
    resonant = status.ok
    assert resonant.mean() > 0.99
    assert np.array_equal(omega[resonant].view(np.int64),
                          (0.5 * (wb + wc))[resonant].view(np.int64))


def test_dark_tuning_zero_lambda_leaves_branch_unset():
    dark, quasi = dark_tuning(ModelParams(1.0, 1.0, 1.0, 0.0, 0.2, 0.2))
    assert dark.kind is None and math.isinf(dark.residual)
    assert quasi.kind is StateClass.QUASI_DARK
    assert quasi.energy == pytest.approx(1.0)


def test_assemble_dark_state():
    state = assemble_eigenstate(DARK_TUNED, 0.95)
    np.testing.assert_allclose(state.amps, [1.0, 0.0, -1.0], rtol=0, atol=1e-13)
    normalized = state.amps / state.norm
    kappa, lam = 0.2, 0.2
    scale = math.sqrt(kappa**2 + lam**2)
    np.testing.assert_allclose(
        normalized, [kappa / scale, 0.0, -lam / scale], rtol=0, atol=1e-13
    )


def test_assemble_no_phonon_coupling_dark_display():
    # xi = 0, all frequencies equal: normalized state is (J, 0, -G)/sqrt(J^2+G^2)
    g, j = 0.35, 0.15
    p = ModelParams(1.0, 1.0, 1.0, g, 0.0, j)
    state = assemble_eigenstate(p, 1.0)
    normalized = state.amps / state.norm
    scale = math.sqrt(j * j + g * g)
    np.testing.assert_allclose(
        normalized, [j / scale, 0.0, -g / scale], rtol=0, atol=1e-12
    )


def test_assemble_decoupled_fields_closed_form():
    p = ModelParams(1.1, 1.0, 1.4, 0.2, 0.1, 0.0)
    energy = float(np.linalg.eigvalsh(sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix)[0])
    state = assemble_eigenstate(p, energy)
    expected = [1.0, 0.2 / (energy - 1.0), 0.1 / (energy - 1.4)]
    np.testing.assert_allclose(state.amps, expected, rtol=0, atol=1e-12)


def test_assemble_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        assemble_eigenstate(DARK_TUNED, 0.7)


def test_assemble_eigenvalue_threshold_from_both_sides():
    # an energy counts as a level while |d1| stays below 1e-8; d1'(E) = N^-2
    spectrum = three_mode_spectrum(DARK_TUNED)
    two = spectrum.two
    gsq = np.square(np.abs(two.gamma))
    for level, norm in zip(spectrum.e, spectrum.n_norm):
        inside, outside = (level + 1e-8 * share * norm**2 for share in (0.9, 1.1))
        d1_inside, d1_outside = _d1_and_slope(np.array([inside, outside]), DARK_TUNED.omega_a,
                                              np.array(two.eps)[:, None], gsq[:, None])[0]
        assert abs(d1_inside) < 1e-8 < abs(d1_outside)
        assemble_eigenstate(DARK_TUNED, inside)
        with pytest.raises(NotAnEigenvalue):
            assemble_eigenstate(DARK_TUNED, outside)


def test_assemble_rejects_pole():
    with pytest.raises(PoleHit):
        assemble_eigenstate(DARK_TUNED, 0.8)  # omega - kappa


def test_assemble_reproduces_eigen_equation():
    rng = np.random.default_rng(51)
    for _ in range(20):
        p = resonant_real_params(rng)
        h = sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix
        scale = np.linalg.norm(h)
        for energy in three_mode_spectrum(p).e:
            state = assemble_eigenstate(p, energy)
            defect = h @ state.amps - energy * state.amps
            assert np.linalg.norm(defect) < 1e-9 * scale * state.norm


def test_classify_examples():
    dark = SectorVector(np.array([1.0, 0.0, -1.0]) / math.sqrt(2), ell=1)
    quasi = SectorVector(np.array([1.0, -1.0, 0.0]) / math.sqrt(2), ell=1)
    bright = SectorVector(np.array([1.0, 0.5, 0.3]), ell=1)
    bare = SectorVector(np.array([1.0, 0.0, 0.0]), ell=1)
    assert classify(dark).variant is StateClass.DARK
    assert classify(quasi).variant is StateClass.QUASI_DARK
    assert classify(bright).variant is StateClass.BRIGHT
    assert classify(bare).variant is StateClass.DEGENERATE
    assert classify(dark).photon_amp == 0.0
    assert classify(bright).phonon_amp == pytest.approx(0.3)


def test_classify_wrong_sector():
    with pytest.raises(WrongSector):
        classify(SectorVector(np.array([1.0, 0.0]), ell=1))
    with pytest.raises(WrongSector):
        classify(SectorVector(np.ones(6), ell=2))


def test_duality_swap_is_involution():
    p = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)
    swapped = duality_swap(p)
    assert swapped.lam == 0.05 + 0j and swapped.xi == 0.2 + 0j
    assert duality_swap(swapped) == p


def test_duality_classification_exchange():
    rng = np.random.default_rng(52)
    for _ in range(10):
        p = tuned_dark_params(rng)
        records = [
            r for r in classify_spectrum(p)
            if r.classification.variant is StateClass.DARK
        ]
        assert len(records) == 1
        swapped = duality_swap(p)
        mirrored = [
            r for r in classify_spectrum(swapped)
            if r.classification.variant is StateClass.QUASI_DARK
        ]
        assert len(mirrored) == 1
        assert records[0].energy == pytest.approx(mirrored[0].energy, abs=1e-12)
        # the two states map into each other under exchanging photon/phonon
        np.testing.assert_allclose(
            records[0].state.amps,
            mirrored[0].state.amps[[0, 2, 1]],
            rtol=0,
            atol=1e-10,
        )


def test_multiquantum_reduces_to_single_quantum():
    state = multiquantum_state(DARK_TUNED, StateClass.DARK, 1)
    kappa, lam = 0.2, 0.2
    scale = math.sqrt(kappa**2 + lam**2)
    np.testing.assert_allclose(
        state.amps, [kappa / scale, 0.0, -lam / scale], rtol=0, atol=1e-15
    )


def test_multiquantum_vacuum():
    state = multiquantum_state(DARK_TUNED, StateClass.DARK, 0)
    np.testing.assert_array_equal(state.amps, [1.0])


def test_multiquantum_two_quanta_amplitudes_and_eigenvalue():
    state = multiquantum_state(DARK_TUNED, StateClass.DARK, 2)
    sector = sector_matrix(DARK_TUNED, AtomKind.OSCILLATOR, 2)
    kappa, lam = 0.2, 0.2
    norm2 = kappa**2 + lam**2
    expected = {
        (2, 0, 0): kappa**2 / norm2,
        (1, 0, 1): -math.sqrt(2.0) * kappa * lam / norm2,
        (0, 0, 2): lam**2 / norm2,
    }
    for occ, amp in zip(sector.basis, state.amps):
        assert amp == pytest.approx(expected.get(occ, 0.0), abs=1e-15)
        if occ[1] > 0:
            assert amp == 0.0  # no photon-occupied component at all
    defect = sector.matrix @ state.amps - 2 * 0.95 * state.amps
    assert np.linalg.norm(defect) < 1e-9 * np.linalg.norm(sector.matrix)


def test_multiquantum_quasi_dark_branch():
    state = multiquantum_state(QUASI_TUNED, StateClass.QUASI_DARK, 2)
    sector = sector_matrix(QUASI_TUNED, AtomKind.OSCILLATOR, 2)
    for occ, amp in zip(sector.basis, state.amps):
        if occ[2] > 0:
            assert amp == 0.0  # no phonon-occupied component
    defect = sector.matrix @ state.amps - 2 * 0.95 * state.amps
    assert np.linalg.norm(defect) < 1e-9 * np.linalg.norm(sector.matrix)


def test_multiquantum_guards():
    with pytest.raises(TuningNotSatisfied):
        multiquantum_state(DARK_TUNED, StateClass.QUASI_DARK, 2)
    untuned = ModelParams(1.3, 1.0, 1.0, 0.2, 0.05, 0.2)
    with pytest.raises(TuningNotSatisfied):
        multiquantum_state(untuned, StateClass.DARK, 2)


def test_relabel_atom_photon_example():
    p = ModelParams(1.0, 2.0, 3.0, 0.1, 0.2j, 0.3)
    out = relabel_modes(p, RelabelRole.ATOM_PHOTON)
    assert out == ModelParams(2.0, 1.0, 3.0, 0.1, 0.3, 0.2j)


def test_relabel_involutions():
    p = ModelParams(1.0, 2.0, 3.0, 0.1 + 0.4j, 0.2j, 0.3 - 0.1j)
    for role in RelabelRole:
        assert relabel_modes(relabel_modes(p, role), role) == p


def test_relabel_matrix_conjugation_exact():
    # sector ell of the relabeled parameters is sector ell of the original
    # with the basis permuted by the role's mode swap; the atom-phonon swap
    # sums each diagonal entry na*wa + nb*wb + nc*wc in another order
    rng = np.random.default_rng(53)
    swaps = {RelabelRole.ATOM_PHOTON: (1, 0, 2), RelabelRole.ATOM_PHONON: (2, 1, 0)}
    for _ in range(20):
        mags = rng.uniform(0.05, 0.5, size=3)
        phases = np.exp(2j * np.pi * rng.uniform(size=3))
        freqs = rng.uniform(0.5, 2.0, size=3)
        p = ModelParams(*freqs, *(mags * phases))
        for ell in (1, 2, 3, 5, 8):
            sector = sector_matrix(p, AtomKind.OSCILLATOR, ell)
            index = {state: pos for pos, state in enumerate(sector.basis)}
            off_diagonal = ~np.eye(len(index), dtype=bool)
            for role, order in swaps.items():
                relabeled = sector_matrix(relabel_modes(p, role), AtomKind.OSCILLATOR, ell).matrix
                perm = [index[tuple(state[k] for k in order)] for state in sector.basis]
                permuted = sector.matrix[np.ix_(perm, perm)]
                if role is RelabelRole.ATOM_PHOTON:
                    np.testing.assert_array_equal(relabeled, permuted)
                else:
                    np.testing.assert_array_equal(relabeled[off_diagonal], permuted[off_diagonal])
                    np.testing.assert_allclose(np.diag(relabeled), np.diag(permuted),
                                               rtol=1e-15, atol=0.0)


def test_relabeled_dark_analogue_is_eigenstate():
    # photon-phonon superposition (xi b' - lam c') becomes the dark state of
    # the relabeled frame when omega_b is tuned to Omega - (xi/lam - lam/xi)kappa
    omega = 1.5
    lam, xi, kappa = 0.3, 0.2, 0.25
    omega_b = omega - (xi / lam - lam / xi) * kappa
    p = ModelParams(omega, omega_b, omega, lam, xi, kappa)
    scale = math.sqrt(xi * xi + lam * lam)
    energy = omega - xi * kappa / lam
    for n in (1, 2, 3):
        state = two_mode_binomial_state(n, (1, 2), (xi / scale, -lam / scale))
        sector = sector_matrix(p, AtomKind.OSCILLATOR, n)
        defect = sector.matrix @ state.amps - n * energy * state.amps
        assert np.linalg.norm(defect) < 1e-9 * np.linalg.norm(sector.matrix)
        for occ, amp in zip(sector.basis, state.amps):
            if occ[0] > 0:
                assert amp == 0.0  # never populates the atom


@pytest.mark.parametrize("kind", list(AtomKind))
def test_two_mode_binomial_state_places_each_occupation(kind):
    # the reference looks each occupation up in the basis; a two-level atom
    # holds one quantum at most, so an expansion over it needs ell <= 1
    u, v = complex(0.6, -0.0), -0.8j
    for ell in range(6):
        basis = sector_basis(kind, ell)
        for i, j in itertools.permutations(range(3), 2):
            occupations = []
            for k in range(ell + 1):
                occ = [0, 0, 0]
                occ[i], occ[j] = k, ell - k
                occupations.append(tuple(occ))
            if not set(occupations) <= set(basis):
                assert kind is AtomKind.TWO_LEVEL and 0 in (i, j) and ell >= 2
                with pytest.raises(WrongSector):
                    two_mode_binomial_state(ell, (i, j), (u, v), kind)
                continue
            expected = np.zeros(len(basis), dtype=complex)
            for k, occ in enumerate(occupations):
                expected[basis.index(occ)] = math.sqrt(math.comb(ell, k)) * u**k * v ** (ell - k)
            state = two_mode_binomial_state(ell, (i, j), (u, v), kind)
            assert state.amps.tobytes() == expected.tobytes()


def test_kappa_zero_example():
    p = ModelParams(1.0, 1.0, 1.0, 0.2, 0.1, 0.0)
    records = classify_spectrum(p)
    energies = [r.energy for r in records]
    root = math.sqrt(0.05)
    np.testing.assert_allclose(energies, [1.0 - root, 1.0, 1.0 + root], atol=1e-12)
    assert all(r.classification.variant is StateClass.BRIGHT for r in records)
    middle = records[1].state.amps
    expected = np.array([0.0, 1.0, -2.0]) / math.sqrt(5.0)
    overlap = np.vdot(expected, middle)
    np.testing.assert_allclose(
        middle * (abs(overlap) / overlap), expected, rtol=0, atol=1e-12
    )
    assert abs(middle[1]) > 1e-3 and abs(middle[2]) > 1e-3  # photon and phonon both lit


def test_kappa_zero_decoupled_phonon():
    p = ModelParams(1.0, 1.3, 2.0, 0.2, 0.0, 0.0)
    records = classify_spectrum(p)
    phonon_only = [r for r in records if abs(r.state.amps[2]) > 0.999]
    assert len(phonon_only) == 1
    assert phonon_only[0].energy == pytest.approx(2.0, abs=1e-12)


def test_kappa_zero_never_dark_nor_quasi_dark():
    rng = np.random.default_rng(54)
    for _ in range(50):
        p = kappa_zero_params(rng)
        for record in classify_spectrum(p):
            assert record.classification.variant is StateClass.BRIGHT


def test_kappa_zero_eigen_residuals():
    rng = np.random.default_rng(55)
    for _ in range(20):
        p = kappa_zero_params(rng)
        h = sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix
        scale = np.linalg.norm(h)
        for record in classify_spectrum(p):
            defect = h @ record.state.amps - record.energy * record.state.amps
            assert np.linalg.norm(defect) < 1e-9 * scale


def test_tuning_condition_matches_cubic_factorization():
    # phi(e_of(x, y)) factors through the tuning residual exactly, so the
    # two residuals vanish together, on both the dark and quasi-dark branch
    rng = np.random.default_rng(56)
    for _ in range(25):
        p = resonant_real_params(rng)
        omega = p.omega_b
        lam, xi, kappa = p.lam.real, p.xi.real, p.kappa.real
        for x, y in ((lam, xi), (xi, lam)):
            z = y / x
            energy = _e_of(x, y, omega, kappa)
            expected = (
                -(kappa**2)
                * (1.0 - z)
                * (1.0 + z)
                * ((omega - p.omega_a) - _f_of(x, y, kappa))
            )
            assert phi(p, energy) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_sector_vector_rejects_zero():
    with pytest.raises(ValueError):
        SectorVector(np.zeros(3), ell=1)


@pytest.mark.parametrize("amps", [[math.nan, 0, 0], [math.inf, 1, 0], [1, -math.inf, 0],
                                  [1, 0, complex(0, math.nan)], [0, 0, complex(math.nan, 1)]])
def test_sector_vector_rejects_a_non_finite_amplitude(amps):
    # before, classify gave these a label: BRIGHT for [nan, 0, 0], DEGENERATE for [inf, 1, 0]
    with pytest.raises(ValueError, match="must be finite"):
        SectorVector(np.array(amps, dtype=complex), ell=1)


def classify_atom_state(params, tol):
    return classify(SectorVector(np.array([1.0, 0.0, 0.0]), 1), tol=tol)


def oscillator_sector_2(params, tol):
    return oscillator_sector_check(params, 2, tol=tol)


def tolerances_field(params, tol):
    return Tolerances(e_match=tol)


def tolerances_override(params, tol):
    return Tolerances().override({"classify": tol})


#: the name each call's error gives the tolerance, where it is not ``tol``
TOL_NAMES = {tolerances_field: "e_match", tolerances_override: "classify"}


@pytest.mark.parametrize("tol", [math.nan, -1e-9, -0.0 - 1e-300, math.inf, True])
@pytest.mark.parametrize("call", [dark_tuning, duality_report, classify_spectrum,
                                  classify_atom_state, oscillator_sector_2, tolerances_field,
                                  tolerances_override])
def test_a_tolerance_must_be_a_finite_nonnegative_number(call, tol):
    tuned = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.2)
    name = TOL_NAMES.get(call, "tol")
    with pytest.raises(ValueError, match=f"^{name} must be a finite nonnegative number"):
        call(tuned, tol=tol)
    # zero is a tolerance: the exactly tuned dark branch has a zero residual
    dark, _ = dark_tuning(tuned, tol=0.0)
    assert dark.residual == 0.0
    assert duality_report(tuned, tol=0).tol == 0


@pytest.mark.parametrize("call, message", [
    (lambda p: SectorVector(np.array([]), 1), "^amplitudes must form a nonempty vector$"),
    (lambda p: two_mode_binomial_state(2, (1, 1), (1, 0)),
     r"^modes must be two distinct indices out of \(0, 1, 2\), got \(1, 1\)$"),
    (lambda p: multiquantum_state(p, StateClass.DARK, -1),
     "^quantum number must be nonnegative, got -1$"),
    (lambda p: multiquantum_state(p, StateClass.BRIGHT, 1),
     "^branch must be DARK or QUASI_DARK, got StateClass.BRIGHT$"),
    (lambda p: sector_matrix(p, AtomKind.TWO_LEVEL, -1),
     "^excitation number must be nonnegative, got -1$"),
    (lambda p: dense_hermitian_eig(np.ones((2, 3))),
     r"^expected a square matrix, got shape \(2, 3\)$"),
], ids=["empty-vector", "same-mode-twice", "negative-quanta", "bright-branch",
        "negative-sector", "non-square-matrix"])
def test_a_malformed_argument_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call(ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.2))
