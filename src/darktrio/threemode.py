"""Dressed one-excitation spectrum of the full three-mode model.

In the quasimode basis (quasimode 1, quasimode 2, atom) the one-excitation
Hamiltonian is

    [[eps_1, 0,     Gamma_1],
     [0,     eps_2, Gamma_2],
     [conj(Gamma_1), conj(Gamma_2), omega_a]].

Its eigenvalues are the dressed levels E_j, equivalently the zeros of the
rational spectral function

    d1(x) = x - omega_a - sum_j |Gamma_j|^2 / (x - eps_j)

or of the cleared cubic

    phi(x) = (x - eps_1)(x - eps_2)(x - omega_a)
             - |Gamma_1|^2 (x - eps_2) - |Gamma_2|^2 (x - eps_1).

With both effective couplings nonzero the three real roots strictly
interlace the quasimode energies: E_1 < eps_1 < E_2 < eps_2 < E_3.  The
normalizers are N_j = d1'(E_j)**(-1/2) and the diagonalizing unitary has
columns

    v[:, j] = N_j * (Gamma_1/(E_j - eps_1), Gamma_2/(E_j - eps_2), 1).

Rotated back by the photon-phonon unitary ``u``, the unnormalized column
gives the eigenvector in the bare (atom, photon, phonon) basis with atom
amplitude 1: ``(1, u @ (Gamma / (E_j - eps)))``.  With ``kappa = 0`` the
rotation is the identity or the swap, so the same formula covers the
decoupled fields.

Eigenvalues are taken from a dense Hermitian eigensolver (well conditioned
near close roots) and lightly refined on d1; phi serves as a validator,
never as the root finder.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AssumptionViolation,
    DegenerateSpectrum,
    GammaZero,
    _Status,
)
from .model import (
    GAMMA_RTOL,
    ModelParams,
    _batch_of,
    _Batch,
    _eigensolve,
    _max_abs,
)
from .twomode import TwoModeSpectrum, _two_mode, _TwoModeBatch

__all__ = ["ThreeModeSpectrum", "phi", "three_mode_spectrum"]

_EYE3 = np.eye(3)


@dataclass(frozen=True, eq=False)
class ThreeModeSpectrum:
    """Dressed levels ``e`` (ascending), normalizers ``n_norm``, unitary ``v``.

    Rows of ``v`` are indexed (quasimode 1, quasimode 2, atom); column j
    is dressed mode j.  The atom row is the positive normalizer, which
    fixes the per-column phase.  ``two`` is the photon-phonon solution the
    levels were built from.
    """

    e: tuple[float, float, float]
    n_norm: tuple[float, float, float]
    v: np.ndarray
    two: TwoModeSpectrum

    def __post_init__(self):
        self.v.setflags(write=False)

    @property
    def bare_vectors(self) -> np.ndarray:
        """Eigenvectors over (atom, photon, phonon), atom amplitude 1; column j is level j."""
        two = self.two
        return _bare_vectors(two.u, np.array(two.gamma),
                             np.array(self.e) - np.array(two.eps)[:, None])


class _ThreeModeBatch(NamedTuple):
    """:class:`ThreeModeSpectrum` of every point of a batch: ``e`` and ``n_norm`` (n, 3),
    ``v`` (n, 3, 3), ``residual`` (n,) the max-norm of ``V'V - I``, ``h`` (n, 3, 3) the
    quasimode-basis matrices, ``r`` (n, 2, 3) the offsets ``r[:, nu, j] = E_j - eps_nu``
    (their one statement), ``two``.  Rows of points that failed (``status``) hold no
    solution: a point that failed before the solve is not solved."""

    e: np.ndarray
    n_norm: np.ndarray
    v: np.ndarray
    residual: np.ndarray
    h: np.ndarray
    r: np.ndarray
    two: _TwoModeBatch
    status: _Status

    def point(self, i: int) -> ThreeModeSpectrum:
        """Point ``i``'s solution; raises its error if it has one."""
        self.status.check(i)
        return ThreeModeSpectrum(e=tuple(self.e[i].tolist()),
                                 n_norm=tuple(self.n_norm[i].tolist()),
                                 v=self.v[i].copy(), two=self.two.point(i))


def _quasi_matrices(omega_a, eps, gamma) -> np.ndarray:
    """The one-excitation Hamiltonian in the (quasimode 1, quasimode 2, atom)
    basis, per point: ``omega_a`` (n,), ``eps`` and ``gamma`` (n, 2)."""
    h = np.zeros((len(omega_a), 3, 3), dtype=complex)
    h[:, 0, 0], h[:, 1, 1], h[:, 2, 2] = eps[:, 0], eps[:, 1], omega_a
    h[:, :2, 2], h[:, 2, :2] = gamma, gamma.conj()
    return h


def _interlacing_margin(e, r) -> np.ndarray:
    """Least step of the chain ``0 < E_1 < eps_1 < E_2 < eps_2 < E_3`` per
    point, from the levels ``e`` (n, 3) and their offsets ``r`` (n, 2, 3):
    positive exactly where the chain holds."""
    return functools.reduce(np.minimum, (e[:, 0], -r[:, 0, 0], r[:, 0, 1], -r[:, 1, 1],
                                         r[:, 1, 2]))


def _d1_and_slope(x, omega_a, poles, gsq):
    """``d1(x)`` and its derivative, elementwise, from the quasimode energies
    ``poles`` and the ``|Gamma_j|^2`` ``gsq``, each stacked on a leading axis
    of length 2.  ``x`` must not be a quasimode energy.
    """
    r = x - poles
    q = gsq / r
    return x - omega_a - q[0] - q[1], _slope(r, gsq)


def _slope(r, gsq):
    """``d1'(x)`` from the distances ``r = x - eps_j`` to the poles, stacked as in
    :func:`_d1_and_slope`."""
    s = gsq / (r * r)
    return 1.0 + s[0] + s[1]


def _bare_vectors(u, gamma, r) -> np.ndarray:
    """Columns ``(1, u @ (Gamma / (E - eps)))`` over (atom, photon, phonon), one
    per energy ``E``, from the offsets ``r`` (..., 2, k), ``r[..., nu, j] = E_j -
    eps_nu``; leading axes are batch axes of ``u`` (..., 2, 2) and ``gamma`` (..., 2)."""
    quasi = gamma[..., :, None] / r
    # u @ quasi as an explicit two-term sum, so every column comes out bit for
    # bit the same however many energies and points are passed (a matmul may not)
    rotated = u[..., :, :1] * quasi[..., None, 0, :] + u[..., :, 1:] * quasi[..., None, 1, :]
    return np.concatenate([np.ones_like(rotated[..., :1, :]), rotated], axis=-2)


def phi(params: ModelParams, x: float) -> float:
    """The cleared cubic; defined for every ``x``, poles included.

    Off the quasimode energies it equals
    ``(x - eps_1) * (x - eps_2) * d1(x)``.  A degenerate photon-phonon
    block needs no mixing factors here: its quasimodes and couplings are
    still solved, and are the bare modes where ``kappa = 0``.  Raises
    :class:`DegenerateSpectrum` when a quasimode energy, an effective coupling
    or its square is not finite.
    """
    two = _two_mode(_batch_of(params))
    two.check_finite()
    return _phi(x, params.omega_a, *(x - two.eps[0]), *two.gamma_sq[0])


def _phi(x, omega_a, r1, r2, g1sq, g2sq):
    """The cleared cubic from the offsets ``r_j = x - eps_j`` and ``|Gamma_j|^2``, elementwise."""
    return r1 * r2 * (x - omega_a) - g1sq * r2 - g2sq * r1


def three_mode_spectrum(params: ModelParams) -> ThreeModeSpectrum:
    """Dressed levels, normalizers and diagonalizing unitary.

    Requires positive quasimode energies (raises
    :class:`AssumptionViolation` otherwise) and both effective couplings
    nonzero (raises :class:`GammaZero`; a vanishing coupling makes one
    quasimode an exact dressed level, so use the brute-force
    :func:`darktrio.classify_spectrum`).  Raises
    :class:`DegenerateSpectrum` when two dressed levels are closer than
    1e-10 times the matrix norm.
    """
    p = _batch_of(params)
    return _dressed(p, _two_mode(p)).point(0)


def _dressed(p: _Batch, two: _TwoModeBatch) -> _ThreeModeBatch:
    """:func:`three_mode_spectrum` for every point of the batch ``p``, from its
    solved photon-phonon blocks ``two``.

    The levels are the stacked Hermitian eigenvalues, refined by two Newton
    steps on d1 each.
    """
    n = len(p)
    status = _Status(n)
    status.inherit(two.status)
    margin = two.ass1_margin
    status.fail(margin <= 0.0, lambda i: AssumptionViolation(
        f"|kappa| exceeds sqrt(omega_b*omega_c) by {-margin[i]:.3e}; "
        "the lower quasimode energy is not positive"
    ))
    g_abs = two.gamma_abs
    g_min = np.minimum(g_abs[:, 0], g_abs[:, 1])
    status.fail(g_min <= GAMMA_RTOL * p.coupling_scale, lambda i: GammaZero(
        f"an effective coupling vanishes (|Gamma| = {g_min[i]:.3e})"
    ))

    h = _quasi_matrices(p.omega_a, two.eps, two.gamma)
    parts = h.view(float).reshape(n, 18)
    with np.errstate(all="ignore"):
        scale = np.sqrt(np.add.reduce(parts * parts, axis=1))
        # LAPACK may not converge on a matrix whose norm overflows
        status.fail(~np.isfinite(scale), lambda i: DegenerateSpectrum(
            f"||H|| = {scale[i]} is not finite, so the dressed levels cannot be resolved"))
        levels = _eigensolve(h, status, status.ok, vectors=False)
        # omega_a, eps_1, eps_2, |Gamma_1|^2, |Gamma_2|^2, one copy per level:
        # operands of one shape keep numpy on its fast path
        per_level = np.empty((5, n, 3))
        wa, poles, gsq = per_level[0], per_level[1:3], per_level[3:]
        wa[:], poles[:] = p.omega_a[:, None], two.eps.T[:, :, None]
        gsq[:] = two.gamma_sq.T[:, :, None]
        # two Newton steps on d1; the slope is >= 1, so steps are small and
        # safe.  A level that lands on a pole stays there.
        stopped = np.zeros(levels.shape, dtype=bool)
        for _ in range(2):
            at_pole = levels == poles
            stopped |= at_pole[0] | at_pole[1]
            value, slope = _d1_and_slope(levels, wa, poles, gsq)
            levels = np.where(stopped, levels, levels - value / slope)
        levels.sort(axis=1)
        gap = np.minimum(levels[:, 1] - levels[:, 0], levels[:, 2] - levels[:, 1])
        status.fail(gap < 1e-10 * scale, lambda i: DegenerateSpectrum(
            f"dressed levels {levels[i].tolist()} are closer than 1.0e-10 * ||H||"
        ))
        at_pole = levels == poles
        on_pole = at_pole[0] | at_pole[1]
        if np.count_nonzero(on_pole):
            status.fail(on_pole.any(axis=1), lambda i: DegenerateSpectrum(
                f"dressed level {levels[i][on_pole[i]][0].item()} collides with a quasimode "
                f"energy {tuple(two.eps[i].tolist())}"
            ))

        gaps = levels - poles
        r = gaps.swapaxes(0, 1)
        n_norm = 1.0 / np.sqrt(_slope(gaps, gsq))
        # rows (quasimode 1, quasimode 2): N_j * Gamma / (E_j - eps), shape (n, 2, 3)
        v = np.empty((n, 3, 3), dtype=complex)
        v[:, :2, :] = n_norm[:, None, :] * two.gamma[:, :, None] / r
        v[:, 2, :] = n_norm

        residual = _max_abs(np.matmul(v.conj().swapaxes(1, 2), v) - _EYE3)
    status.fail(residual > 1e-8, lambda i: DegenerateSpectrum(
        f"closed-form unitary failed its sanity bound (residual {residual[i]:.3e}); "
        "the spectrum is too ill-conditioned for the closed forms"
    ))
    return _ThreeModeBatch(levels, n_norm, v, residual, h, r, two, status)
