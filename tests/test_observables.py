"""Closed-form occupations and the coupling-swap duality."""

from dataclasses import replace

import numpy as np
import pytest

from darktrio import (
    AssumptionViolation,
    DegenerateSpectrum,
    GammaZero,
    ModelParams,
    NotAnEigenvalue,
    NotResonant,
    PoleHit,
    assemble_eigenstate,
    b_occupation,
    c_occupation,
    classify_spectrum,
    duality_report,
    three_mode_spectrum,
)

from _generators import resonant_real_params

FIXTURE = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)
# frozen 50-digit value of the top dressed level and its occupations
TOP_LEVEL = 1.2462171996010124
TOP_B_OCC = 1.1481542663578556
TOP_C_OCC = 0.4073829345685776
DARK_TUNED = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.2)
QUASI_TUNED = ModelParams(1.0, 1.0, 1.0, 0.05, 0.2, 0.2)


def test_dark_state_has_zero_photon_occupation():
    assert abs(b_occupation(DARK_TUNED, 0.95)) < 1e-12


def test_quasi_dark_state_has_zero_phonon_occupation():
    assert abs(c_occupation(QUASI_TUNED, 0.95)) < 1e-12


def test_fixture_occupations_frozen_values():
    top = three_mode_spectrum(FIXTURE).e[2]
    assert top == pytest.approx(TOP_LEVEL, abs=1e-12)
    assert b_occupation(FIXTURE, top) == pytest.approx(TOP_B_OCC, abs=1e-10)
    assert c_occupation(FIXTURE, top) == pytest.approx(TOP_C_OCC, abs=1e-10)


def test_occupations_match_squared_amplitudes():
    rng = np.random.default_rng(61)
    for _ in range(50):
        p = resonant_real_params(rng)
        for energy in three_mode_spectrum(p).e:
            state = assemble_eigenstate(p, energy)
            b_amp2 = abs(state.amps[1]) ** 2
            c_amp2 = abs(state.amps[2]) ** 2
            b_val = b_occupation(p, energy)
            c_val = c_occupation(p, energy)
            assert abs(b_val - b_amp2) <= 1e-10 * max(abs(b_val), b_amp2)
            assert abs(c_val - c_amp2) <= 1e-10 * max(abs(c_val), c_amp2)


def test_occupations_nonnegative_at_levels():
    rng = np.random.default_rng(62)
    for _ in range(50):
        p = resonant_real_params(rng)
        for energy in three_mode_spectrum(p).e:
            assert b_occupation(p, energy) >= -1e-12
            assert c_occupation(p, energy) >= -1e-12


def test_normalized_variant_matches_normalized_state():
    p = resonant_real_params(np.random.default_rng(63))
    energy = three_mode_spectrum(p).e[1]
    state = assemble_eigenstate(p, energy)
    norm2 = state.norm**2
    b, c = b_occupation(p, energy), c_occupation(p, energy)
    assert b / (1.0 + b + c) == pytest.approx(abs(state.amps[1]) ** 2 / norm2, rel=1e-9)
    assert c / (1.0 + b + c) == pytest.approx(abs(state.amps[2]) ** 2 / norm2, rel=1e-9)


def test_occupation_regime_guards():
    with pytest.raises(NotResonant):
        b_occupation(ModelParams(1.0, 1.0, 1.3, 0.2, 0.05, 0.1), 1.0)
    with pytest.raises(GammaZero):
        b_occupation(ModelParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.1), 1.0)
    with pytest.raises(GammaZero):
        c_occupation(ModelParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.1), 1.0)
    with pytest.raises(PoleHit):
        b_occupation(FIXTURE, 0.9)
    with pytest.raises(NotAnEigenvalue):
        b_occupation(FIXTURE, 1.05)


@pytest.mark.parametrize("energy", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_energy_is_not_an_eigenvalue(energy):
    # refused with one error, before any arithmetic could warn or return NaN
    message = rf"^energy {energy} is not finite"
    with pytest.raises(NotAnEigenvalue, match=message):
        assemble_eigenstate(FIXTURE, energy)
    for occupation in (b_occupation, c_occupation):
        with pytest.raises(NotAnEigenvalue, match=message):
            occupation(FIXTURE, energy)


def test_quasi_dark_self_consistency_with_zero_lambda():
    # lam = 0 with kappa = xi tuning: closed form still equals the squared
    # amplitude at every level (no specific number asserted)
    p = ModelParams(1.0, 1.0, 1.0, 0.0, 0.2, 0.2)
    for energy in three_mode_spectrum(p).e:
        state = assemble_eigenstate(p, energy)
        b_val = b_occupation(p, energy)
        assert abs(b_val - abs(state.amps[1]) ** 2) <= 1e-10 * max(1.0, abs(b_val))


def test_duality_report_fixture():
    report = duality_report(FIXTURE)
    assert report.max_mismatch < 1e-10
    assert report.passed
    np.testing.assert_allclose(report.energies[0], report.energies[1], rtol=1e-12)
    assert report.max_mismatch == max(
        abs(b - c) for b, c in zip(report.b_occ, report.c_occ_swapped)
    )


def test_duality_report_tuned_pair_matches_zero():
    report = duality_report(DARK_TUNED)
    position = int(np.argmin(np.abs(np.array(report.energies[0]) - 0.95)))
    assert report.b_occ[position] == pytest.approx(0.0, abs=1e-12)
    assert report.c_occ_swapped[position] == pytest.approx(0.0, abs=1e-12)
    assert report.energies[0][position] == pytest.approx(0.95, abs=1e-12)


def test_duality_report_rejects_identity_swap():
    with pytest.raises(AssumptionViolation):
        duality_report(ModelParams(1.0, 1.0, 1.0, 0.2, 0.2, 0.1))


def test_duality_report_regime_guard():
    with pytest.raises(NotResonant):
        duality_report(ModelParams(1.0, 1.0, 1.5, 0.2, 0.05, 0.1))


def test_duality_report_swapped_level_mismatch_is_degenerate_spectrum(monkeypatch, capsys):
    # perturb one level of the swapped copies, which are solved in the same
    # batch right after the base points
    from darktrio import observables
    from darktrio.cli import main

    solve = observables._dressed

    def perturbed(p, two):
        spectrum = solve(p, two)
        spectrum.e[len(p) // 2:, 1] += 1e-9
        return spectrum

    monkeypatch.setattr(observables, "_dressed", perturbed)
    with pytest.raises(DegenerateSpectrum, match="swapped spectra failed to match"):
        duality_report(FIXTURE)
    assert main(["duality"]) == 3
    assert '"status": "DegenerateSpectrum"' in capsys.readouterr().out


def _shift_lowest_level(monkeypatch, to):
    """Solve duality reports with the lowest level of every copy moved to ``to(level)``."""
    from darktrio import observables

    solve = observables._dressed

    def shifted(p, two):
        spectrum = solve(p, two)
        spectrum.e[:, 0] = to(spectrum.e[:, 0])
        return spectrum

    monkeypatch.setattr(observables, "_dressed", shifted)


def test_duality_pole_hit_names_the_level_that_failed(monkeypatch):
    # the lowest level moved onto eps1 = omega - kappa = 0.9
    _shift_lowest_level(monkeypatch, lambda e: 0.9)
    with pytest.raises(PoleHit, match=r"^energy 0\.9 sits on a quasimode energy \(0\.9, 1\.1\)$"):
        duality_report(FIXTURE)


def test_duality_residual_failure_names_the_level_that_failed(monkeypatch):
    level = three_mode_spectrum(FIXTURE).e[0] + 1e-3
    _shift_lowest_level(monkeypatch, lambda e: level)
    with pytest.raises(NotAnEigenvalue, match=rf" at {level!r} exceeds 1\.0e-10$"):
        duality_report(FIXTURE)


def test_assembled_states_match_unitary_columns():
    # the spin-sector eigenvector and the oscillator quasi-boson column are
    # the same coefficient triple up to the normalizer, so the occupation
    # formulas apply to both paths; check the two routes agree numerically
    from darktrio import two_mode_spectrum
    from darktrio.threemode import _bare_vectors, _quasi_matrices

    rng = np.random.default_rng(65)
    for _ in range(20):
        p = resonant_real_params(rng)
        two = two_mode_spectrum(p)
        spectrum = three_mode_spectrum(p)
        # every level's bare-basis eigenvector from one call, as the batch kernels form them
        solved = spectrum.two
        columns = _bare_vectors(solved.u, np.array(solved.gamma),
                                np.array(spectrum.e) - np.array(solved.eps)[:, None])
        for j, energy in enumerate(spectrum.e):
            column = spectrum.v[:, j] / spectrum.n_norm[j]
            photon, phonon = two.u @ column[:2]
            state = assemble_eigenstate(p, energy)
            np.testing.assert_allclose(
                state.amps, [column[2], photon, phonon], rtol=0, atol=1e-10
            )
            np.testing.assert_array_equal(columns[:, j], state.amps)
        quasi = _quasi_matrices(np.array([p.omega_a]), np.array([two.eps]),
                                np.array([two.gamma]))[0]
        assert np.max(np.abs(
            quasi @ spectrum.v - spectrum.v * np.array(spectrum.e)
        )) < 1e-11 * np.linalg.norm(quasi)


def test_duality_swap_round_trip_through_report():
    rng = np.random.default_rng(64)
    for _ in range(20):
        p = resonant_real_params(rng)
        forward = duality_report(p)
        backward = duality_report(replace(p, lam=p.xi, xi=p.lam))
        assert forward.max_mismatch < 1e-10
        assert backward.max_mismatch < 1e-10
        np.testing.assert_allclose(forward.energies[0], backward.energies[1], rtol=1e-12)


def test_normalized_occupations_are_squared_amplitudes_of_the_normalized_states():
    rng = np.random.default_rng(67)
    points = [ModelParams(1.02, 1.0, 1.0, 0.05, 0.08, 0.04)]
    points += [resonant_real_params(rng) for _ in range(20)]
    for p in points:
        for record in classify_spectrum(p):
            photon, phonon = np.square(np.abs(record.state.amps[1:]))
            b, c = b_occupation(p, record.energy), c_occupation(p, record.energy)
            assert abs(b / (1.0 + b + c) - photon) <= 1e-13
            assert abs(c / (1.0 + b + c) - phonon) <= 1e-13
