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

from .darkstates import _require_gamma_nonzero, _resonant_real, duality_swap
from .errors import GammaZero, NotAnEigenvalue, PoleHit
from .model import ModelParams
from .threemode import _phi, three_mode_spectrum
from .twomode import TwoModeSpectrum, two_mode_spectrum

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


def _occupations(params: ModelParams, energy: float, root_tol: float,
                 two: TwoModeSpectrum | None = None) -> tuple[float, float]:
    """Unnormalized (photon, phonon) occupations at ``energy``.

    ``two`` is the solved photon-phonon block of ``params``; it is solved
    here when not given, after the regime checks.
    """
    omega, lam, xi, kappa = _resonant_real(params)
    _require_gamma_nonzero(lam, xi, kappa, exc=GammaZero)
    e = float(energy)
    eps1, eps2 = omega - kappa, omega + kappa
    if min(abs(e - eps1), abs(e - eps2)) <= 1e-10:
        raise PoleHit(f"energy {e} sits on a quasimode energy ({eps1}, {eps2})")
    if two is None:
        two = two_mode_spectrum(params)
    residual = abs(_phi(e, params.omega_a, two))
    bound = root_tol * max(1.0, abs(e) ** 3)
    if residual > bound:
        raise NotAnEigenvalue(
            f"cubic residual {residual:.3e} at {e} exceeds {bound:.1e}"
        )
    detuned = (e - params.omega_a) * (e - omega)
    denom = (e - eps1) * (e - eps2)
    return (detuned - xi ** 2) / denom, (detuned - lam ** 2) / denom


def b_occupation(params: ModelParams, energy: float, *, root_tol: float = 1e-10,
                 normalized: bool = False) -> float:
    """Photon occupation of the atom-amplitude-1 eigenstate at ``energy``.

    ``normalized=True`` divides by the squared norm
    ``1 + <b'b> + <c'c>``, i.e. reports the occupation of the normalized
    state instead of the unnormalized closed form.
    """
    b, c = _occupations(params, energy, root_tol)
    return b / (1.0 + b + c) if normalized else b


def c_occupation(params: ModelParams, energy: float, *, root_tol: float = 1e-10,
                 normalized: bool = False) -> float:
    """Phonon occupation; mirror of :func:`b_occupation`."""
    b, c = _occupations(params, energy, root_tol)
    return c / (1.0 + c + b) if normalized else c


def duality_report(params: ModelParams, tol: float = 1e-10) -> DualityReport:
    """Verify the occupation duality level by level.

    Computes the dressed levels of the base and the coupling-swapped
    parameter sets, checks that they match pairwise, and compares the
    photon occupation of the base set with the phonon occupation of the
    swapped set at every level.
    """
    omega, lam, xi, kappa = _resonant_real(params)
    _require_gamma_nonzero(lam, xi, kappa)
    swapped = duality_swap(params)
    base = three_mode_spectrum(params)
    mirror = three_mode_spectrum(swapped)
    for a, b in zip(base.e, mirror.e):
        if abs(a - b) > 1e-12 * max(1.0, abs(a)):
            raise RuntimeError(
                f"swapped spectra failed to match: {base.e} vs {mirror.e}"
            )
    b_occ = tuple(_occupations(params, e, 1e-10, base.two)[0] for e in base.e)
    c_occ = tuple(_occupations(swapped, e, 1e-10, mirror.two)[1] for e in mirror.e)
    mismatch = max(abs(b - c) for b, c in zip(b_occ, c_occ))
    return DualityReport(
        energies=(base.e, mirror.e),
        b_occ=b_occ,
        c_occ_swapped=c_occ,
        max_mismatch=mismatch,
        tol=tol,
    )
