"""Sector matrices and the sector-spectrum oracle.

Two test-side references live here.  ``sector_matrix_loop`` is the
per-state loop builder that the index-arithmetic builder in
:mod:`darktrio.model` replaced; both must produce the same bytes.
``dense_sector_spectrum`` solves the complex sector matrix in the bare
basis, a second opinion on the oracle's real normal-mode solve.
"""

import cmath
import math

import numpy as np
import pytest

from darktrio import (
    AtomKind,
    ModelParams,
    crosscheck,
    oscillator_sector_check,
    sector_basis,
    sector_matrix,
    twomode,
)
from darktrio.model import _batch_of, _sector_matrices
from darktrio.oracle import _normal_mode_sector_spectra

#: complex couplings with the loop phase arg(xi conj(lambda) conj(kappa)) = -2.1
LOOP_PHASE = ModelParams(1.0, 0.9, 1.2, 0.2 * cmath.exp(0.3j), 0.15 * cmath.exp(-1.1j),
                         0.1 * cmath.exp(0.7j))


def sector_matrix_loop(params: ModelParams, kind: AtomKind, ell: int):
    """Basis and complex sector matrix, built state by state."""
    basis = sector_basis(kind, ell)
    dim = len(basis)
    index = {state: i for i, state in enumerate(basis)}
    wa, wb, wc = params.omega_a, params.omega_b, params.omega_c
    lam_c = params.lam.conjugate()
    xi_c = params.xi.conjugate()
    kappa_c = params.kappa.conjugate()

    h = np.zeros((dim, dim), dtype=complex)
    for i, (na, nb, nc) in enumerate(basis):
        h[i, i] = na * wa + nb * wb + nc * wc
        # raising moves only; each unordered pair is visited exactly once
        hops = (
            ((na + 1, nb - 1, nc), lam_c, na + 1, nb),
            ((na + 1, nb, nc - 1), xi_c, na + 1, nc),
            ((na, nb + 1, nc - 1), kappa_c, nb + 1, nc),
        )
        for target, coeff, up, down in hops:
            j = index.get(target)
            if j is None:
                continue
            amp = coeff * (math.sqrt(up) * math.sqrt(down))
            h[j, i] = amp
            h[i, j] = amp.conjugate()
    return basis, h


def dense_sector_spectrum(params: ModelParams, ell: int) -> tuple[np.ndarray, float]:
    """Ascending spectrum of the complex oscillator sector matrix, and its norm."""
    h = sector_matrix(params, AtomKind.OSCILLATOR, ell).matrix
    return np.linalg.eigvalsh(h), float(np.linalg.norm(h))


BUILDER_POINTS = [
    LOOP_PHASE,
    ModelParams(0.7, 1.3, 0.4, 0.0, 0.0, 0.0),
    ModelParams(1.0, 1.0, 1.0, 5e-324, -5e-324j, complex(-0.0, -0.0)),
    ModelParams(0.7, 1.3, 0.4, complex(0.0, -0.0), complex(-0.0, 0.0), -1e-310 + 2e-320j),
    ModelParams(1.1, 0.8, 0.9, -0.3 + 0.0j, complex(-0.0, 0.2), 1e-200 - 0.4j),
]


@pytest.mark.parametrize("kind", list(AtomKind))
@pytest.mark.parametrize("ell", [0, 1, 2, 3, 7, 25])
@pytest.mark.parametrize("params", BUILDER_POINTS)
def test_builder_matches_loop_bytes(params, kind, ell):
    basis, expected = sector_matrix_loop(params, kind, ell)
    sector = sector_matrix(params, kind, ell)
    assert sector.basis == basis
    assert sector.matrix.dtype == expected.dtype
    assert sector.matrix.shape == expected.shape
    assert sector.matrix.tobytes() == expected.tobytes()
    if ell == 1:
        # the one-excitation block is the same for both atom kinds
        for other in AtomKind:
            assert sector_matrix(params, other, 1).matrix.tobytes() == sector.matrix.tobytes()


@pytest.mark.parametrize("ell", [*range(9), 30])
def test_loop_phase_sector_check_passes(ell):
    report = oscillator_sector_check(LOOP_PHASE, ell)
    assert report.passed, report.checks


@pytest.mark.parametrize("ell", [*range(9), 30])
def test_loop_phase_real_route_matches_complex_solve(ell):
    p = _batch_of(LOOP_PHASE)
    blocks = _sector_matrices(p, AtomKind.TWO_LEVEL, 1)[:, 1:, 1:]
    _, real_route = _normal_mode_sector_spectra(p, np.linalg.eigh(blocks), ell)
    real_route = real_route[0]
    reference, norm = dense_sector_spectrum(LOOP_PHASE, ell)
    assert real_route.dtype == np.float64
    assert np.max(np.abs(real_route - reference)) <= 1e-12 * max(1.0, norm)


def test_loop_phase_moves_the_spectrum():
    # the same moduli with real couplings: the phase changes the levels, so
    # the agreement above cannot come from dropping it
    moduli = ModelParams(1.0, 0.9, 1.2, abs(LOOP_PHASE.lam), abs(LOOP_PHASE.xi),
                         abs(LOOP_PHASE.kappa))
    for ell in (1, 2, 3):
        shift = dense_sector_spectrum(LOOP_PHASE, ell)[0] - dense_sector_spectrum(moduli, ell)[0]
        assert np.max(np.abs(shift)) > 1e-2


def test_sector_oracle_ignores_closed_form_couplings(monkeypatch):
    # a wrong closed-form Gamma must fail the check: the oracle's side of
    # it may not read twomode's Gamma
    two_mode = twomode._two_mode

    def skewed(p, *args):
        two = two_mode(p, *args)
        scale = 1.0 + 1e-6
        return two._replace(gamma=two.gamma * scale, gamma_abs=two.gamma_abs * scale)

    monkeypatch.setattr(twomode, "_two_mode", skewed)
    for params in (LOOP_PHASE, ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)):
        for ell in (2, 3):
            report = oscillator_sector_check(params, ell)
            assert not report.passed
        row = next(c for c in crosscheck(params, AtomKind.OSCILLATOR).checks
                   if c.name == "sector-2-spectrum")
        assert not row.skipped and not row.passed
