"""Occupation expectations and the coupling-swap duality check.

For an unnormalized one-excitation eigenstate with atom amplitude 1 at a
dressed level E (resonant real regime, ``omega = omega_b = omega_c``),
the photon and phonon occupations have the closed forms

    <b'b> = ((E - omega_a)(E - omega) - xi^2)     / ((E - eps_1)(E - eps_2))
    <c'c> = ((E - omega_a)(E - omega) - lambda^2) / ((E - eps_1)(E - eps_2))

equal to the squared photon/phonon amplitudes of the assembled
eigenvector.  Swapping ``lambda <-> xi`` leaves the spectrum invariant and
exchanges the two occupations: ``<b'b>`` at (lambda, xi) equals ``<c'c>``
at (xi, lambda), level by level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .darkstates import _finite_energy, _resonant_real
from .errors import DegenerateSpectrum, GammaZero, NotAnEigenvalue, PoleHit, _Status
from .model import ModelParams, Tolerances, _batch_of, _Batch, _checked_tol
from .threemode import _dressed, _phi
from .twomode import _two_mode, _TwoModeBatch

__all__ = ["DualityReport", "b_occupation", "c_occupation", "duality_report"]


@dataclass(frozen=True)
class DualityReport:
    """Matched spectra and occupations under the coupling swap.

    ``energies`` holds the ascending dressed levels of the base and the
    swapped parameter set (they agree pairwise); ``b_occ[j]`` is the
    photon occupation of the base set at level j and ``c_occ_swapped[j]``
    the phonon occupation of the swapped set at its matching level.
    """

    energies: tuple[tuple[float, float, float], tuple[float, float, float]]
    b_occ: tuple[float, float, float]
    c_occ_swapped: tuple[float, float, float]
    max_mismatch: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_mismatch <= self.tol


def _occupations(p: _Batch, e: np.ndarray, regime) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (photon, phonon) occupations at the dressed levels ``e``
    (n, k), one row per point of ``p``, whose (omega, lam, xi, kappa) from
    :func:`_resonant_real` are ``regime``; :func:`_check_energies` checks ``e``.
    Like it, it runs under the caller's ``np.errstate(all="ignore")``."""
    omega, lam, xi, kappa = regime
    detuned = (e - p.omega_a[:, None]) * (e - omega[:, None])
    denom = (e - (omega - kappa)[:, None]) * (e - (omega + kappa)[:, None])
    b = (detuned - np.square(xi)[:, None]) / denom
    c = (detuned - np.square(lam)[:, None]) / denom
    return b, c


def _check_energies(p: _Batch, e: np.ndarray, r: np.ndarray, two: _TwoModeBatch, regime,
                    status: _Status) -> None:
    """Record on ``status``, per point of ``p``, the first of its energies
    ``e`` (n, k) that :func:`_occupations` may not take as a dressed level:
    :class:`PoleHit` within 1e-10 of a quasimode energy of ``regime``, then
    :class:`NotAnEigenvalue` where the cleared cubic of ``two``, the solved photon-phonon
    block, from the offsets ``r`` (n, 2, k) of ``e`` from its quasimode energies, exceeds
    ``Tolerances.root * max(1, |E|^3)``, ``verify``'s default ``cubic-roots`` bound.
    ``two``'s own failures follow the first pole check.  Runs under the caller's
    ``np.errstate(all="ignore")``."""
    omega, _, _, kappa = regime
    eps1, eps2 = (omega - kappa)[:, None], (omega + kappa)[:, None]
    gsq = two.gamma_sq
    pole = np.minimum(np.abs(e - eps1), np.abs(e - eps2)) <= 1e-10
    residual = np.abs(_phi(e, p.omega_a[:, None], r[:, 0], r[:, 1], gsq[:, :1], gsq[:, 1:]))
    bound = Tolerances.root * np.maximum(1.0, np.float_power(np.abs(e), 3.0))
    off = residual > bound
    if not (np.count_nonzero(pole) or np.count_nonzero(off)):
        status.inherit(two.status)
        return
    for j in range(e.shape[1]):
        status.fail(pole[:, j], lambda i: PoleHit(
            f"energy {e[i, j].item()} sits on a quasimode energy "
            f"({eps1[i, 0].item()}, {eps2[i, 0].item()})"
        ))
        if j == 0:
            # a degenerate photon-phonon block shows after the first pole check
            status.inherit(two.status)
        status.fail(off[:, j], lambda i: NotAnEigenvalue(
            f"cubic residual {residual[i, j]:.3e} at {e[i, j].item()} exceeds {bound[i, j]:.1e}"
        ))


def _occupation_pair(params: ModelParams, energy: float) -> tuple[float, float]:
    e = np.array([[_finite_energy(energy)]])
    p = _batch_of(params)
    status = _Status(1)
    regime = _resonant_real(p, status, GammaZero)
    two = _two_mode(p)
    with np.errstate(all="ignore"):
        _check_energies(p, e, e[:, None] - two.eps[:, :, None], two, regime, status)
        b, c = _occupations(p, e, regime)
    status.check()
    return b[0, 0].item(), c[0, 0].item()


def b_occupation(params: ModelParams, energy: float, *, normalized: bool = False) -> float:
    """Photon occupation of the atom-amplitude-1 eigenstate at ``energy``.

    ``normalized=True`` divides by the squared norm
    ``1 + <b'b> + <c'c>``, i.e. reports the occupation of the normalized
    state instead of the unnormalized closed form.
    """
    b, c = _occupation_pair(params, energy)
    return b / (1.0 + b + c) if normalized else b


def c_occupation(params: ModelParams, energy: float, *, normalized: bool = False) -> float:
    """Phonon occupation; mirror of :func:`b_occupation`."""
    b, c = _occupation_pair(params, energy)
    return c / (1.0 + c + b) if normalized else c


def duality_report(params: ModelParams, tol: float = Tolerances.duality) -> DualityReport:
    """Verify the occupation duality level by level.

    Computes the dressed levels of the base and the coupling-swapped
    parameter sets, checks that they match pairwise (raises
    :class:`DegenerateSpectrum` when they do not: the closed forms are
    too ill-conditioned there), and compares the photon occupation of the
    base set with the phonon occupation of the swapped set at every level.
    """
    report, status = _duality(_batch_of(params), _checked_tol(tol))
    status.check()
    base, mirror = report.energies
    return DualityReport(
        energies=(tuple(base[0].tolist()), tuple(mirror[0].tolist())),
        b_occ=tuple(report.b_occ[0].tolist()),
        c_occ_swapped=tuple(report.c_occ_swapped[0].tolist()),
        max_mismatch=report.max_mismatch[0].item(),
        tol=tol,
    )


def _duality(p: _Batch, tol: float) -> tuple[DualityReport, _Status]:
    """:func:`duality_report` per point: the report's fields are arrays with
    one row per point (``passed`` too), and the status."""
    # the base points and their swapped copies, solved as one batch
    n = len(p)
    both = p.and_swapped()
    checks = _Status(2 * n)
    regime = _resonant_real(both, checks)
    spec = _dressed(both, _two_mode(both))
    status = _Status(n)
    for stage, offset in ((checks, 0), (spec.status, 0), (spec.status, n)):
        status.inherit(stage, offset)
    base, mirror = spec.e[:n], spec.e[n:]
    with np.errstate(all="ignore"):
        apart = np.abs(base - mirror) > 1e-12 * np.maximum(1.0, np.abs(base))
        if np.count_nonzero(apart):
            status.fail(apart.any(axis=1), lambda i: DegenerateSpectrum(
                f"swapped spectra failed to match: {tuple(base[i].tolist())} "
                f"vs {tuple(mirror[i].tolist())}"
            ))
        occupied = _Status(2 * n)
        _check_energies(both, spec.e, spec.r, spec.two, regime, occupied)
        b_occ, c_occ = _occupations(both, spec.e, regime)
        status.inherit(occupied)
        status.inherit(occupied, n)
        b_occ, c_occ = b_occ[:n], c_occ[n:]
        mismatch = np.maximum.reduce(np.abs(b_occ - c_occ), axis=1)
    return DualityReport((base, mirror), b_occ, c_occ, mismatch, tol), status
