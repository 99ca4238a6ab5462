"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run), so the whole gate reads as a checklist:

    python -m pytest tests/test_acceptance.py -s
"""

import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from darktrio import (
    AtomKind,
    ModelParams,
    StateClass,
    assemble_eigenstate,
    classify_spectrum,
    dark_tuning,
    dense_hermitian_eig,
    duality_report,
    multiquantum_state,
    oscillator_sector_check,
    phi,
    relabel_modes,
    sector_matrix,
    three_mode_spectrum,
    two_mode_binomial_state,
    two_mode_spectrum,
)
from darktrio.cli import main
from darktrio.darkstates import _e_of
from darktrio.threemode import _quasi_matrices

from _generators import (
    kappa_zero_params,
    resonant_real_params,
    rwa_block_matrix,
    tuned_dark_params,
    valid_params,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {label}")


def test_resonant_mixing_factors():
    with criterion(1, "resonant mixing factors equal 1/sqrt(2) within 1e-14"):
        target = 2.0**-0.5
        worst = 0.0
        for omega in (0.5, 1.0, 1.7):
            for magnitude in (1e-6, 0.1 * omega, 0.49 * omega, 0.999 * omega):
                for phase in (1.0, 1.0j, np.exp(0.3j), -1.0):
                    p = ModelParams(1.0, omega, omega, 0.0, 0.0, magnitude * phase)
                    two = two_mode_spectrum(p)
                    worst = max(worst, abs(two.m[0] - target), abs(two.m[1] - target))
        assert worst < 1e-14


def test_dark_state_reproduction_without_phonon_coupling():
    with criterion(2, "dark state (J, 0, -G)/sqrt(J^2+G^2) on the 0.05..0.5 grid"):
        grid = [0.05 * k for k in range(1, 11)]
        for g, j in itertools.product(grid, grid):
            p = ModelParams(1.0, 1.0, 1.0, g, 0.0, j)
            spectrum = three_mode_spectrum(p)
            gaps = [abs(e - 1.0) for e in spectrum.e]
            level = spectrum.e[int(np.argmin(gaps))]
            assert abs(level - 1.0) < 1e-12

            expected = np.array([j, 0.0, -g]) / math.sqrt(j * j + g * g)
            state = assemble_eigenstate(p, 1.0)
            np.testing.assert_allclose(
                state.amps / state.norm, expected, rtol=0, atol=1e-10
            )
            # independent route: dense solver eigenvector, phase aligned
            eig = dense_hermitian_eig(sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix)
            column = eig.vectors[:, int(np.argmin(np.abs(eig.values - 1.0)))]
            overlap = np.vdot(expected, column)
            np.testing.assert_allclose(
                column * (abs(overlap) / overlap), expected, rtol=0, atol=1e-10
            )


def test_quasi_dark_reproduction_without_photon_coupling():
    with criterion(3, "quasi-dark state (J, -G, 0)/sqrt(J^2+G^2) on the grid"):
        grid = [0.05 * k for k in range(1, 11)]
        for g, j in itertools.product(grid, grid):
            p = ModelParams(1.0, 1.0, 1.0, 0.0, g, j)
            spectrum = three_mode_spectrum(p)
            assert min(abs(e - 1.0) for e in spectrum.e) < 1e-12
            expected = np.array([j, -g, 0.0]) / math.sqrt(j * j + g * g)
            state = assemble_eigenstate(p, 1.0)
            np.testing.assert_allclose(
                state.amps / state.norm, expected, rtol=0, atol=1e-10
            )
            eig = dense_hermitian_eig(sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix)
            column = eig.vectors[:, int(np.argmin(np.abs(eig.values - 1.0)))]
            overlap = np.vdot(expected, column)
            np.testing.assert_allclose(
                column * (abs(overlap) / overlap), expected, rtol=0, atol=1e-10
            )


def test_tuned_dark_and_swapped_quasi_dark():
    with criterion(4, "200 tuned random sets: dark level and swapped quasi-dark"):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            p = tuned_dark_params(rng)
            omega = p.omega_b
            lam, xi, kappa = p.lam.real, p.xi.real, p.kappa.real

            dark, _ = dark_tuning(p)
            assert dark.kind is StateClass.DARK
            energy = _e_of(lam, xi, omega, kappa)
            spectrum = three_mode_spectrum(p)
            assert min(abs(e - energy) for e in spectrum.e) < 1e-10

            state = assemble_eigenstate(p, energy)
            assert abs(state.amps[1]) / state.norm < 1e-10

            swapped = replace(p, lam=p.xi, xi=p.lam)
            _, quasi = dark_tuning(swapped)
            assert quasi.kind is StateClass.QUASI_DARK
            assert quasi.energy == pytest.approx(energy, abs=1e-12)
            mirrored = assemble_eigenstate(swapped, quasi.energy)
            assert abs(mirrored.amps[2]) / mirrored.norm < 1e-10


def test_occupation_duality():
    with criterion(5, "1000 random resonant sets: occupation duality at 1e-10"):
        rng = np.random.default_rng(2025)
        for _ in range(1000):
            p = resonant_real_params(rng)
            report = duality_report(p)
            assert report.max_mismatch < 1e-10
            for energy, b_occ in zip(report.energies[0], report.b_occ):
                state = assemble_eigenstate(p, energy)
                amp_sq = abs(state.amps[1]) ** 2
                # 1e-13 absolute allowance: both routes agree only up to the
                # float root's residual, which caps the comparison near the
                # occupation's zero manifold
                assert abs(b_occ - amp_sq) <= 1e-10 * max(abs(b_occ), amp_sq) + 1e-13


def test_unitarity_and_sum_rule_identities():
    with criterion(6, "1000 random sets: unitarity, product and sum rules"):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            p = valid_params(rng)
            two = two_mode_spectrum(p)
            spectrum = three_mode_spectrum(p)

            assert np.max(np.abs(two.u.conj().T @ two.u - np.eye(2))) < 1e-12
            assert np.max(np.abs(spectrum.v.conj().T @ spectrum.v - np.eye(3))) < 1e-12

            ksq = abs(p.kappa) ** 2
            for w in (p.omega_b, p.omega_c):
                product = (two.eps[0] - w) * (two.eps[1] - w)
                assert abs(product + ksq) <= 1e-12 * ksq

            gsq = (abs(two.gamma[0]) ** 2, abs(two.gamma[1]) ** 2)
            for jj, kk in itertools.permutations(range(3), 2):
                total = 1.0 + sum(
                    gsq[nu] / ((spectrum.e[jj] - two.eps[nu]) * (spectrum.e[kk] - two.eps[nu]))
                    for nu in range(2)
                )
                assert abs(total) < 1e-10

            block = rwa_block_matrix(p)
            diag2 = two.u.conj().T @ block @ two.u - np.diag(two.eps)
            assert np.max(np.abs(diag2)) < 1e-11 * np.linalg.norm(block)
            quasi = _quasi_matrices(np.array([p.omega_a]), np.array([two.eps]),
                                    np.array([two.gamma]))[0]
            diag3 = spectrum.v.conj().T @ quasi @ spectrum.v - np.diag(spectrum.e)
            assert np.max(np.abs(diag3)) < 1e-11 * np.linalg.norm(quasi)


def test_interlacing_and_positivity():
    with criterion(7, "interlacing chain and cubic sign conditions"):
        rng = np.random.default_rng(2027)
        for _ in range(1000):
            p = valid_params(rng, require_all=True)
            two = two_mode_spectrum(p)
            spectrum = three_mode_spectrum(p)
            e1, e2, e3 = spectrum.e
            assert 0.0 < e1 < two.eps[0] < e2 < two.eps[1] < e3
            assert phi(p, two.eps[0]) > 0.0
            assert phi(p, two.eps[1]) < 0.0
            assert phi(p, 0.0) < 0.0


def test_no_dark_states_without_field_coupling():
    with criterion(8, "1000 random decoupled-field sets: nothing dark"):
        rng = np.random.default_rng(2028)
        for _ in range(1000):
            p = kappa_zero_params(rng)
            for record in classify_spectrum(p):
                assert record.classification.variant not in (
                    StateClass.DARK,
                    StateClass.QUASI_DARK,
                )


def test_multiquantum_oscillator_spectrum():
    with criterion(9, "sector spectra are level sums; two-quantum dark state"):
        fixture = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)
        for ell in (2, 3):
            report = oscillator_sector_check(fixture, ell, tol=1e-9)
            assert report.passed, report.checks

        tuned = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.2)
        state = multiquantum_state(tuned, StateClass.DARK, 2)
        sector = sector_matrix(tuned, AtomKind.OSCILLATOR, 2)
        defect = sector.matrix @ state.amps - 2 * 0.95 * state.amps
        assert np.linalg.norm(defect) < 1e-9 * np.linalg.norm(sector.matrix)
        photon_occupation = sum(
            occ[1] * abs(amp) ** 2 for occ, amp in zip(sector.basis, state.amps)
        )
        assert photon_occupation == 0.0


def test_relabeling_symmetry():
    with criterion(10, "100 relabeled sets: exact conjugation; dark analogue"):
        rng = np.random.default_rng(2030)
        swaps = {"atom-photon": (1, 0, 2), "atom-phonon": (2, 1, 0)}
        for _ in range(100):
            mags = rng.uniform(0.05, 0.5, size=3)
            phases = np.exp(2j * np.pi * rng.uniform(size=3))
            freqs = rng.uniform(0.5, 2.0, size=3)
            p = ModelParams(*freqs, *(mags * phases))
            h = sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix
            for role, order in swaps.items():
                relabeled = sector_matrix(relabel_modes(p, role), AtomKind.TWO_LEVEL, 1).matrix
                assert np.array_equal(relabeled, h[np.ix_(order, order)])
                assert relabel_modes(relabel_modes(p, role), role) == p

        for _ in range(20):
            omega = rng.uniform(1.0, 2.0)
            lam = rng.uniform(0.1, 0.4)
            xi = rng.uniform(0.1, 0.4)
            kappa = rng.uniform(0.1, 0.3)
            omega_b = omega - (xi / lam - lam / xi) * kappa
            if omega_b <= 0.2 or abs(lam - xi) < 0.02:
                continue
            p = ModelParams(omega, omega_b, omega, lam, xi, kappa)
            scale = math.sqrt(xi * xi + lam * lam)
            energy = omega - xi * kappa / lam
            for n in (1, 2):
                state = two_mode_binomial_state(n, (1, 2), (xi / scale, -lam / scale))
                sector = sector_matrix(p, AtomKind.OSCILLATOR, n)
                defect = sector.matrix @ state.amps - n * energy * state.amps
                assert np.linalg.norm(defect) < 1e-9 * np.linalg.norm(sector.matrix)


def test_cli_determinism(tmp_path):
    with criterion(11, "verify exits 0; repeated scans are byte-identical"):
        assert main(["verify", "--output", str(tmp_path / "verify.json")]) == 0

        config = tmp_path / "scan.json"
        config.write_text(json.dumps({
            "omega_a": 1.0, "omega_b": 1.0, "omega_c": 1.0,
            "lambda": 0.2, "xi": 0.05, "kappa": 0.1,
            "scan": [
                {"param": "kappa", "start": 0.05, "stop": 0.45, "steps": 9},
                {"param": "lambda", "start": 0.05, "stop": 0.3, "steps": 6},
            ],
        }))
        for fmt in ("json", "csv"):
            first = tmp_path / f"a.{fmt}"
            second = tmp_path / f"b.{fmt}"
            for path in (first, second):
                code = main(["scan", "spectrum", "--config", str(config),
                             "--format", fmt, "--output", str(path)])
                assert code == 0
            assert first.read_bytes() == second.read_bytes()
            assert len(first.read_bytes()) > 0
