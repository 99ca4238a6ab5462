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

Its Gram matrix V'V is real in closed form, so the solve checks V'V - I elementwise
and forms the complex ``v`` only where it is read (:func:`_unitary`).

Rotated back by the photon-phonon unitary ``u``, the unnormalized column
gives the eigenvector in the bare (atom, photon, phonon) basis with atom
amplitude 1: ``(1, u @ (Gamma / (E_j - eps)))``.  With ``kappa = 0`` the
rotation is the identity or the swap, so the same formula covers the
decoupled fields.

The levels start at the roots of phi, from the trigonometric formula for a
cubic with three real roots in the coordinate shifted by the mean of omega_a,
eps_1 and eps_2, and take two Newton steps on d1.  Where a step of the chain
E_1 < eps_1 < E_2 < eps_2 < E_3 through those starts is not above
1e-8 * (|eps_1| + |eps_2| + |omega_a|), or where ||H|| reaches 1e100, past which
the formula's cubes can overflow, the point starts from a dense Hermitian
eigensolver's eigenvalues of its quasimode-basis matrix instead: the one LAPACK
call of this module.
"""

from __future__ import annotations

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
)
from .twomode import TwoModeSpectrum, _two_mode, _TwoModeBatch

__all__ = ["ThreeModeSpectrum", "phi", "three_mode_spectrum"]

_EYE3 = np.eye(3)[:, :, None]  # the identity, with a trailing point axis
#: the angle offsets of the cubic's roots in ascending order
_THIRDS = np.array([-4.0, -2.0, 0.0]) * np.pi / 3.0
#: per quasimode energy eps_nu (axis 0) and level E_j (axis 1), the sign of E_j - eps_nu
#: in the chain E_1 < eps_1 < E_2 < eps_2 < E_3; axis 2 is the points'
_SIDES = np.array([[-1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])[:, :, None]


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


class _ThreeModeBatch(NamedTuple):
    """:class:`ThreeModeSpectrum` of every point of a batch but the unitary: ``e`` and
    ``n_norm`` (n, 3), ``r`` (n, 2, 3) the offsets ``r[:, nu, j] = E_j - eps_nu`` (their
    one statement), ``two``.  :func:`_unitary` forms ``v`` from them where it is read.
    Rows of points that failed (``status``) hold no solution: a point that failed before
    the solve is not solved."""

    e: np.ndarray
    n_norm: np.ndarray
    r: np.ndarray
    two: _TwoModeBatch
    status: _Status

    def point(self, i: int) -> ThreeModeSpectrum:
        """Point ``i``'s solution; raises its error if it has one."""
        self.status.check(i)
        return ThreeModeSpectrum(e=tuple(self.e[i].tolist()),
                                 n_norm=tuple(self.n_norm[i].tolist()),
                                 v=_unitary(self.two.gamma[i], self.r[i], self.n_norm[i]),
                                 two=self.two.point(i))


def _quasi_matrices(omega_a, eps, gamma) -> np.ndarray:
    """The one-excitation Hamiltonian in the (quasimode 1, quasimode 2, atom)
    basis, per point: ``omega_a`` (n,), ``eps`` and ``gamma`` (n, 2)."""
    h = np.zeros((len(omega_a), 3, 3), dtype=complex)
    h[:, 0, 0], h[:, 1, 1], h[:, 2, 2] = eps[:, 0], eps[:, 1], omega_a
    h[:, :2, 2], h[:, 2, :2] = gamma, gamma.conj()
    return h


def _unitary(gamma, r, n_norm) -> np.ndarray:
    """The diagonalizing unitary ``v`` (..., 3, 3), column j ``N_j * (Gamma_1/(E_j - eps_1),
    Gamma_2/(E_j - eps_2), 1)``, from the couplings ``gamma`` (..., 2), the offsets ``r``
    (..., 2, 3) and the normalizers ``n_norm`` (..., 3); leading axes are batch axes."""
    quasi = n_norm[..., None, :] * gamma[..., :, None] / r
    return np.concatenate([quasi, n_norm[..., None, :]], axis=-2)


def _norms_and_residual(gaps, gsq):
    """The normalizers (3, n) and the max-norm of ``V'V - I`` (n,), from the offsets
    ``gaps[nu, j] = E_j - eps_nu`` (2, 3, n) and ``gsq = |Gamma_nu|^2`` (2, n), point axis
    last: ``(V'V)_jk = N_j N_k (1 + sum_nu |Gamma_nu|^2 / ((E_j - eps_nu)(E_k - eps_nu)))``,
    real, whose diagonal before the normalizers is ``d1'(E_j)``."""
    terms = gsq[:, None, None] / (gaps[:, :, None] * gaps[:, None])
    gram = 1.0 + terms[0] + terms[1]
    norms = 1.0 / np.sqrt(gram.diagonal(0, 0, 1).T)
    return norms, np.maximum.reduce(np.abs(norms[:, None] * norms * gram - _EYE3), axis=(0, 1))


def _pole_margin(r) -> np.ndarray:
    """Least step of the chain ``E_1 < eps_1 < E_2 < eps_2 < E_3`` per point, from the
    offsets ``r`` (n, 2, 3), ``r[:, nu, j] = E_j - eps_nu``, each signed by the side of
    ``eps_nu`` that ``E_j`` lies on (``_SIDES``): positive exactly where the chain holds.
    The signed offsets are laid out point axis last, so the reduce runs down whole rows."""
    return np.minimum.reduce(np.multiply(r.transpose(1, 2, 0), _SIDES, order="C"), axis=(0, 1))


def _interlacing_margin(e, r) -> np.ndarray:
    """Least step of the chain ``0 < E_1 < eps_1 < E_2 < eps_2 < E_3`` per
    point, from the levels ``e`` (n, 3) and their offsets ``r`` (n, 2, 3):
    positive exactly where the chain holds."""
    return np.minimum(e[:, 0], _pole_margin(r))


def _trig_roots(diag, total, g1, g2) -> np.ndarray:
    """The roots of phi (n, 3), ascending, by the trigonometric formula for a cubic with
    three real roots, from the diagonal ``diag`` (3, n), rows (eps_1, eps_2, omega_a), its
    sum ``total`` and the ``|Gamma_j|^2`` ``g1`` and ``g2`` (n,).

    In ``y = x - s``, ``s`` the mean of the diagonal and ``(a, b, c) = diag - s``, phi is
    ``y^3 + p y + q`` with ``p = ab + bc + ca - |Gamma_1|^2 - |Gamma_2|^2`` and ``q =
    |Gamma_1|^2 b + |Gamma_2|^2 a - abc`` (the ``y^2`` term is the rounding of ``a + b + c``,
    left out); its roots are ``2 sqrt(-p/3) cos((theta - 2 pi k) / 3)`` with ``cos(theta) =
    -q / (2 (-p/3)^(3/2))``.  ``q`` and its divisor hold cubes of the matrix's entries, so
    the roots are wrong where those overflow, past ``||H||`` of about 5e102.
    """
    shift = total / 3.0
    a, b, c = diag - shift
    ab = a * b
    third = (ab + b * c + c * a - g1 - g2) / -3.0
    root = np.sqrt(third)
    # -q / (2 third root), written with the sign in the divisor
    cosine = (g1 * b + g2 * a - ab * c) / (third * -2.0 * root)
    # where rounding puts |cos(theta)| above 1, two roots nearly coincide: theta is NaN,
    # and so are the roots, which then leave their bracket
    theta = np.arccos(cosine) / 3.0
    return shift[:, None] + (root + root)[:, None] * np.cos(theta[:, None] + _THIRDS)


def _d1_and_slope(x, omega_a, poles, gsq):
    """``d1(x)`` and its derivative, elementwise, from the quasimode energies
    ``poles`` and the ``|Gamma_j|^2`` ``gsq``, each stacked on a leading axis
    of length 2.  ``x`` must not be a quasimode energy.
    """
    r = x - poles
    q, s = gsq / r, gsq / (r * r)
    return x - omega_a - q[0] - q[1], 1.0 + s[0] + s[1]


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

    Each level starts at the cubic's trigonometric root (:func:`_trig_roots`), or, on a
    point where a step of the chain ``E_1 < eps_1 < E_2 < eps_2 < E_3`` through its
    starts (:func:`_pole_margin`) is not above 1e-8 times the diagonal's
    magnitude, or whose ``||H||`` reaches 1e100, at LAPACK's eigenvalue of the point's
    quasimode-basis matrix; then it takes two Newton steps on d1.  ``||H||`` for the
    finiteness and level-gap checks is formed from ``omega_a``, ``eps`` and ``|Gamma|^2``,
    and ``V'V - I`` from its closed form: the main path builds no matrix.
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

    # eps_1, eps_2, omega_a, |Gamma_1|^2, |Gamma_2|^2: the quasimode-basis matrix, per point
    entries = np.empty((5, n))
    entries[:2], entries[2], entries[3:] = two.eps.T, p.omega_a, two.gamma_sq.T
    diag, g1, g2 = entries[:3], entries[3], entries[4]
    with np.errstate(all="ignore"):
        # ||H||_F, whose off-diagonal pairs hold each |Gamma_j|^2 twice
        scale = np.sqrt(np.add.reduce(diag * diag) + (g1 + g2) * 2.0)
        status.fail(~np.isfinite(scale), lambda i: DegenerateSpectrum(
            f"||H|| = {scale[i]} is not finite, so the dressed levels cannot be resolved"))
        # the entries, one copy per level: operands of one shape keep numpy on its fast path
        per_level = np.empty((5, n, 3))
        per_level[:] = entries[:, :, None]
        poles, wa, gsq = per_level[:2], per_level[2], per_level[3:]
        total = np.add.reduce(diag)
        start = _trig_roots(diag, total, g1, g2)
        # a start keeps its bracket where the chain E_1 < eps_1 < E_2 < eps_2 < E_3 holds
        # with steps above 1e-8 * (|eps_1| + |eps_2| + |omega_a|) (the diagonal is positive
        # on a point that has not failed), on a point whose cubes cannot overflow: where
        # the divisor of cos(theta) overflows, cos(theta) reads as 0, and the wrong start
        # may still keep its bracket
        bracket = _pole_margin((start - poles).swapaxes(0, 1))
        keep = status.ok & (scale < 1e100) & (bracket > total * 1e-8)
        levels, stopped = start, False  # a start in its bracket is off the poles
        if np.count_nonzero(keep) < n:
            # LAPACK's start for the rest of the points that have not failed
            redo = status.ok & ~keep
            fallback = (_eigensolve(_quasi_matrices(p.omega_a, two.eps, two.gamma), status,
                                    redo, vectors=False) if np.count_nonzero(redo) else np.nan)
            levels = np.where(keep[:, None], start, fallback)
            stopped = np.logical_or.reduce(levels == poles)
        # two Newton steps on d1; the slope is >= 1, so steps are small and
        # safe.  A level that lands on a pole stays there.
        for step in range(2):
            if step:
                stopped = stopped | np.logical_or.reduce(levels == poles)
            value, slope = _d1_and_slope(levels, wa, poles, gsq)
            levels = np.where(stopped, levels, levels - value / slope)
        levels.sort(axis=1)
        gap = np.minimum(levels[:, 1] - levels[:, 0], levels[:, 2] - levels[:, 1])
        status.fail(gap < 1e-10 * scale, lambda i: DegenerateSpectrum(
            f"dressed levels {levels[i].tolist()} are closer than 1.0e-10 * ||H||"
        ))
        at_pole = levels == poles
        if np.count_nonzero(at_pole):
            on_pole = at_pole[0] | at_pole[1]
            status.fail(on_pole.any(axis=1), lambda i: DegenerateSpectrum(
                f"dressed level {levels[i][on_pole[i]][0].item()} collides with a quasimode "
                f"energy {tuple(two.eps[i].tolist())}"
            ))

        # E_j - eps_nu laid out (nu, j, point), as _norms_and_residual takes them
        gaps = np.subtract(levels.T, entries[:2, None], order="C")
        r = gaps.transpose(2, 0, 1)
        norms, residual = _norms_and_residual(gaps, entries[3:])
    status.fail(~(residual <= 1e-8), lambda i: DegenerateSpectrum(  # NaN fails as well
        f"closed-form unitary failed its sanity bound (residual {residual[i]:.3e}); "
        "the spectrum is too ill-conditioned for the closed forms"
    ))
    return _ThreeModeBatch(levels, norms.T, r, two, status)
