"""Normal modes of the coupled photon-phonon block.

The photon-phonon part of the Hamiltonian is the 2x2 Hermitian form
``[[omega_b, conj(kappa)], [kappa, omega_c]]``.  Its eigenvalues are the
quasimode energies

    eps_j = (omega_b + omega_c + (-1)^j * sqrt((omega_b - omega_c)^2
             + 4|kappa|^2)) / 2,          j = 1, 2,

and the (real, positive) mixing factors are

    M_j = (1 + (eps_j - omega_b) / (eps_j - omega_c))**(-1/2),

which satisfy ``M_1^2 + M_2^2 = 1``.  Column ``j`` of the unitary ``u``
expresses quasimode ``j`` in the bare (photon, phonon) basis:

    u[0, j] = M_j,    u[1, j] = M_j * (eps_j - omega_b) / conj(kappa).

``u`` maps quasimode amplitudes to bare ones and ``u.conj().T`` maps back.

The atom couples to quasimode ``j`` with effective strength

    Gamma_j = M_j * (lambda + xi * (eps_j - omega_b) / kappa).

Useful identities: ``(eps_j - omega_b) * (eps_j - omega_c) = |kappa|^2``
per mode, and ``(eps_1 - omega_l) * (eps_2 - omega_l) = -|kappa|^2`` for
``l`` either bare frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTwoMode
from .model import AssumptionCheck, ModelParams, ass1_margin

__all__ = ["TwoModeSpectrum", "two_mode_spectrum"]


@dataclass(frozen=True, eq=False)
class TwoModeSpectrum:
    """Quasimode energies, mixing factors, effective couplings and unitary.

    ``eps[0] < eps[1]`` whenever the block is nondegenerate.  In the
    decoupled limit ``kappa = 0`` the quasimodes are the bare modes
    ordered by frequency and the mixing factors sit at the boundary
    values 0 and 1.
    """

    eps: tuple[float, float]
    m: tuple[float, float]
    gamma: tuple[complex, complex]
    u: np.ndarray

    def __post_init__(self):
        self.u.setflags(write=False)


def two_mode_spectrum(params: ModelParams, *, degeneracy_rtol: float = 1e-12) -> TwoModeSpectrum:
    """Diagonalize the photon-phonon block of the Hamiltonian.

    Raises :class:`DegenerateTwoMode` when the normal-mode splitting
    ``sqrt((omega_b - omega_c)^2 + 4|kappa|^2)`` falls below
    ``degeneracy_rtol * (omega_b + omega_c)``; the mixing factors are
    ill-conditioned there (and undefined at the exact degeneracy).  The
    error carries the assumption-1 result in its ``ass1`` attribute.

    The detuned differences ``d_j = eps_j - omega_b`` are computed
    cancellation-free: the larger one from the explicit half-sum, the
    smaller one through ``d_1 * d_2 = -|kappa|^2``.
    """
    wb, wc = params.omega_b, params.omega_c
    kappa = params.kappa
    ak = abs(kappa)
    split = math.hypot(wb - wc, 2.0 * ak)
    if split < degeneracy_rtol * (wb + wc):
        margin1 = ass1_margin(params)
        raise DegenerateTwoMode(
            "photon and phonon are degenerate and uncoupled "
            f"(splitting {split:.3e}); the normal-mode factors are undefined",
            ass1=AssumptionCheck(margin1 > 0.0, margin1),
        )

    if ak == 0.0:
        # decoupled modes: quasimodes are the bare modes, ordered by frequency
        if wb < wc:
            eps = (wb, wc)
            m = (1.0, 0.0)
            gamma = (params.lam, params.xi)
            u = np.eye(2, dtype=complex)
        else:
            eps = (wc, wb)
            m = (0.0, 1.0)
            gamma = (params.xi, params.lam)
            u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        return TwoModeSpectrum(eps=eps, m=m, gamma=gamma, u=u)

    if wc >= wb:
        d2 = 0.5 * ((wc - wb) + split)
        d1 = -(ak * ak) / d2
    else:
        d1 = 0.5 * ((wc - wb) - split)
        d2 = -(ak * ak) / d1
    eps = (wb + d1, wb + d2)

    # M_j = |kappa| / sqrt(|kappa|^2 + d_j^2), the positive root
    m = (1.0 / math.hypot(1.0, d1 / ak), 1.0 / math.hypot(1.0, d2 / ak))

    lam, xi = params.lam, params.xi
    gamma = (m[0] * (lam + xi * d1 / kappa), m[1] * (lam + xi * d2 / kappa))

    kc = kappa.conjugate()
    u = np.array(
        [[m[0], m[1]], [m[0] * d1 / kc, m[1] * d2 / kc]],
        dtype=complex,
    )
    return TwoModeSpectrum(eps=eps, m=m, gamma=gamma, u=u)


def rwa_block_matrix(params: ModelParams) -> np.ndarray:
    """The 2x2 Hermitian photon-phonon block in the bare basis."""
    return np.array(
        [[params.omega_b, params.kappa.conjugate()], [params.kappa, params.omega_c]],
        dtype=complex,
    )
