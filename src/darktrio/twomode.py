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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrum, DegenerateTwoMode, _Status
from .model import (
    AssumptionCheck,
    ModelParams,
    _abs,
    _batch_of,
    _Batch,
)

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


class _TwoModeBatch(NamedTuple):
    """:class:`TwoModeSpectrum` of every point of a batch, one row per point: ``eps``
    (n, 2), ``gamma`` (n, 2) complex, ``u`` (n, 2, 2), whose row 0 holds the mixing factors
    ``M_j``, ``gamma_abs`` the ``|Gamma_j|`` and ``gamma_sq`` their squares, and ``kappa_sq``
    (n,) ``|kappa|^2``: the one statement of each square, infinite where it overflows.  The
    one failure (see ``status``) is a degenerate block, whose row still holds its quasimodes:
    the bare modes where ``kappa = 0``.  ``ass1_margin`` is known for every point.  A row whose
    quasimode energies, effective couplings or their squares overflow is refused by
    :meth:`check_finite`, and by ``threemode._dressed`` through its matrix norm."""

    eps: np.ndarray
    gamma: np.ndarray
    u: np.ndarray
    gamma_abs: np.ndarray
    gamma_sq: np.ndarray
    kappa_sq: np.ndarray
    ass1_margin: np.ndarray
    status: _Status

    def check(self, i: int = 0) -> None:
        """Raise point ``i``'s error, if it has one, or as :meth:`check_finite` does."""
        self.status.check(i)
        self.check_finite(i)

    def check_finite(self, i: int = 0) -> None:
        """Raise :class:`DegenerateSpectrum` where a quasimode energy of point ``i``, an
        effective coupling or its square overflows; a degenerate block passes."""
        if not np.isfinite(self.eps[i]).all():
            raise DegenerateSpectrum(f"quasimode energies {tuple(self.eps[i].tolist())} "
                                     "are not finite")
        if not np.isfinite(self.gamma_sq[i]).all():
            raise DegenerateSpectrum(f"effective couplings {tuple(self.gamma[i].tolist())} "
                                     "or their squares are not finite")

    def point(self, i: int) -> TwoModeSpectrum:
        """Point ``i``'s solution; raises as :meth:`check` does."""
        self.check(i)
        m = tuple(self.u[i, 0].real.tolist())  # row 0 of u holds the mixing factors
        return TwoModeSpectrum(eps=tuple(self.eps[i].tolist()), m=m,
                               gamma=tuple(self.gamma[i].tolist()), u=self.u[i].copy())


def two_mode_spectrum(params: ModelParams) -> TwoModeSpectrum:
    """Diagonalize the photon-phonon block of the Hamiltonian.

    Raises :class:`DegenerateTwoMode` when the normal-mode splitting
    ``sqrt((omega_b - omega_c)^2 + 4|kappa|^2)`` falls below
    ``1e-12 * (omega_b + omega_c)``; the mixing factors are
    ill-conditioned there (and undefined at the exact degeneracy).  The
    error carries the assumption-1 result in its ``ass1`` attribute.
    Raises :class:`DegenerateSpectrum` when a quasimode energy, an effective
    coupling or its square is not finite, which finite parameters near the
    float range can give.
    """
    return _two_mode(_batch_of(params)).point(0)


def _two_mode(p: _Batch) -> _TwoModeBatch:
    """:func:`two_mode_spectrum` for every point of the batch ``p``.

    The detuned differences ``d_j = eps_j - omega_b`` are computed
    cancellation-free: the larger one from the explicit half-sum, the
    smaller one through ``d_1 * d_2 = -|kappa|^2``.
    """
    n = len(p)
    wb, wc, kappa = p.omega_b, p.omega_c, p.kappa
    ak = p.coupling_abs[2]
    detuning = wc - wb
    status = _Status(n)
    with np.errstate(all="ignore"):
        split = np.hypot(detuning, 2.0 * ak)
        # assumption 1: |kappa| below sqrt(omega_b * omega_c)
        margin1 = np.sqrt(wb * wc) - ak
        status.fail(split < 1e-12 * wb + 1e-12 * wc, lambda i: DegenerateTwoMode(
            f"photon and phonon are degenerate{' and uncoupled' if kappa[i] == 0 else ''} "
            f"(splitting {split[i]:.3e}); the normal-mode factors are undefined",
            ass1=AssumptionCheck(bool(margin1[i] > 0.0), margin1[i].item()),
        ))

        # d[:, j] = eps_j - omega_b
        upper = wc >= wb
        large = 0.5 * (detuning + np.copysign(split, detuning))
        kappa_sq = ak * ak
        small = -kappa_sq / large
        over = np.isinf(kappa_sq)
        if over.any():
            # |kappa|^2 overflows (and 2|kappa| from 8.99e307): the roots from halved terms
            h = 0.5 * detuning
            large = np.where(over, h + np.copysign(np.hypot(h, ak), detuning), large)
            small = np.where(over, -ak * (ak / large), small)
        d = np.empty((n, 2))
        d[:, 0] = np.where(upper, small, large)
        d[:, 1] = np.where(upper, large, small)
        eps = wb[:, None] + d
        ratio = d / ak[:, None]
        # M_j = |kappa| / sqrt(|kappa|^2 + d_j^2), the positive root
        m = 1.0 / np.hypot(1.0, ratio)
        # Gamma_j = M_j * (lam + xi * d_j / kappa) and
        # u = [[M_1, M_2], [M_1 d_1 / conj(kappa), M_2 d_2 / conj(kappa)]]
        xi_d_by_kappa = p.xi[:, None] * d / kappa[:, None]
        m_d_by_conj = m * d / kappa.conj()[:, None]
        # numpy divides by a complex through its reciprocal, which overflows
        # for |kappa| below about 1 / DBL_MAX; there the quotients are formed
        # from d_j / |kappa| and the phase kappa / |kappa|
        kept = np.isfinite(xi_d_by_kappa) & np.isfinite(m_d_by_conj)
        if np.count_nonzero(kept) < kept.size:
            phase = kappa.real / ak + 1j * (kappa.imag / ak)
            xi_d_by_kappa = np.where(kept, xi_d_by_kappa,
                                     p.xi[:, None] * (ratio * phase.conj()[:, None]))
            m_d_by_conj = np.where(kept, m_d_by_conj, m * ratio * phase[:, None])
        g = m * (p.lam[:, None] + xi_d_by_kappa)
        u = np.empty((n, 2, 2), dtype=complex)
        u[:, 0, :] = m
        u[:, 1, :] = m_d_by_conj

        # decoupled modes, or a coupling too weak for d_j / |kappa| to stay
        # finite (|kappa| near the underflow limit): quasimodes are the bare
        # modes, ordered by frequency; a large root that overflows is no such case
        coupled = np.isfinite(ratio)
        if np.count_nonzero(coupled) < coupled.size:
            decoupled = ~coupled.all(axis=1) & np.isfinite(large)
            for mask, first, second in ((decoupled & (wb < wc), 0, 1),
                                        (decoupled & ~(wb < wc), 1, 0)):
                eps[mask, first], eps[mask, second] = wb[mask], wc[mask]
                g[mask, first], g[mask, second] = p.lam[mask], p.xi[mask]
                u[mask] = np.eye(2)[:, [first, second]]
        gamma_abs = _abs(g)
        return _TwoModeBatch(eps, g, u, gamma_abs, np.square(gamma_abs), kappa_sq, margin1, status)
