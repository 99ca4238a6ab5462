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

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation, DegenerateSpectrum, DegenerateTwoMode, GammaZero, PoleHit
from .model import ModelParams, ass1_margin
from .twomode import TwoModeSpectrum, two_mode_spectrum

__all__ = [
    "ThreeModeSpectrum",
    "CubicShape",
    "d1",
    "phi",
    "three_mode_spectrum",
    "cubic_stationary",
    "quasi_basis_matrix",
]

#: relative floor below which an effective coupling counts as zero
GAMMA_RTOL = 1e-12


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
        return _bare_vectors(self.two, self.e)


@dataclass(frozen=True)
class CubicShape:
    """Stationary points ``f_minus <= f_plus`` of the cleared cubic.

    ``w`` is the nonnegative quantity under the square root,

        w = ((omega_a - omega_b)^2 + (omega_b - omega_c)^2
             + (omega_c - omega_a)^2) / 2
            + 3 * (|kappa|^2 + |lambda|^2 + |xi|^2),

    and ``f_pm = (omega_a + omega_b + omega_c +- sqrt(w)) / 3``.  The
    total squared coupling weight |Gamma_1|^2 + |Gamma_2|^2 equals
    |lambda|^2 + |xi|^2 because the normal-mode rotation is unitary.
    """

    f_minus: float
    f_plus: float
    w: float


def _gamma_floor(params: ModelParams) -> float:
    return GAMMA_RTOL * max(abs(params.lam), abs(params.xi), abs(params.kappa), 1.0)


def quasi_basis_matrix(params: ModelParams, two: TwoModeSpectrum | None = None) -> np.ndarray:
    """One-excitation Hamiltonian in the (quasimode 1, quasimode 2, atom) basis."""
    if two is None:
        two = two_mode_spectrum(params)
    g1, g2 = two.gamma
    return np.array(
        [
            [two.eps[0], 0.0, g1],
            [0.0, two.eps[1], g2],
            [g1.conjugate(), g2.conjugate(), params.omega_a],
        ],
        dtype=complex,
    )


def _gamma_sq(two: TwoModeSpectrum) -> tuple[float, float]:
    return abs(two.gamma[0]) ** 2, abs(two.gamma[1]) ** 2


def _d1_and_slope(x, omega_a: float, eps, gsq):
    """``d1(x)`` and its derivative from quasimode energies and ``|Gamma_j|^2``.

    ``x`` must not be a quasimode energy.
    """
    r1 = x - eps[0]
    r2 = x - eps[1]
    value = x - omega_a - gsq[0] / r1 - gsq[1] / r2
    slope = 1.0 + gsq[0] / (r1 * r1) + gsq[1] / (r2 * r2)
    return value, slope


def _bare_vectors(two: TwoModeSpectrum, energies) -> np.ndarray:
    """Columns ``(1, u @ (Gamma / (E - eps)))`` over (atom, photon, phonon), one per energy."""
    e = np.asarray(energies, dtype=float)
    quasi = np.array(two.gamma)[:, None] / (e - np.array(two.eps)[:, None])
    # u @ quasi as an explicit two-term sum, so every column comes out bit for
    # bit the same however many energies are passed (a matmul may not)
    return np.vstack([np.ones(e.size), two.u[:, :1] * quasi[0] + two.u[:, 1:] * quasi[1]])


def d1(params: ModelParams, x, *, pole_rtol: float = 1e-12):
    """The rational spectral function whose zeros are the dressed levels.

    Real input yields real output.  Raises :class:`PoleHit` when ``x`` is
    within ``pole_rtol * max(1, |x|)`` of a quasimode energy.
    """
    two = two_mode_spectrum(params)
    guard = pole_rtol * max(1.0, abs(x))
    if min(abs(x - two.eps[0]), abs(x - two.eps[1])) <= guard:
        raise PoleHit(f"x = {x!r} sits on a quasimode energy {two.eps}")
    return _d1_and_slope(x, params.omega_a, two.eps, _gamma_sq(two))[0]


def phi(params: ModelParams, x: float) -> float:
    """The cleared cubic; defined for every ``x``, poles included.

    Off the quasimode energies it equals
    ``(x - eps_1) * (x - eps_2) * d1(x)``.
    """
    try:
        two = two_mode_spectrum(params)
    except DegenerateTwoMode:
        # fully degenerate photon-phonon block: eps_1 = eps_2 = omega_b and
        # the total coupling weight |lambda|^2 + |xi|^2 is basis independent
        e = params.omega_b
        weight = abs(params.lam) ** 2 + abs(params.xi) ** 2
        return (x - e) ** 2 * (x - params.omega_a) - weight * (x - e)
    return _phi(x, params.omega_a, two)


def _phi(x, omega_a: float, two: TwoModeSpectrum):
    e1, e2 = two.eps
    g1sq, g2sq = _gamma_sq(two)
    return (x - e1) * (x - e2) * (x - omega_a) - g1sq * (x - e2) - g2sq * (x - e1)


def _refine_root(x: float, omega_a: float, eps, gsq) -> float:
    # two Newton steps on d1; the slope is >= 1, so steps are small and safe
    for _ in range(2):
        if x in eps:
            break
        value, slope = _d1_and_slope(x, omega_a, eps, gsq)
        x -= value / slope
    return x


def three_mode_spectrum(params: ModelParams, *, degeneracy_rtol: float = 1e-10) -> ThreeModeSpectrum:
    """Dressed levels, normalizers and diagonalizing unitary.

    Requires positive quasimode energies (raises
    :class:`AssumptionViolation` otherwise) and both effective couplings
    nonzero (raises :class:`GammaZero`; a vanishing coupling makes one
    quasimode an exact dressed level, so use the brute-force path).
    Raises :class:`DegenerateSpectrum` when two dressed levels are closer
    than ``degeneracy_rtol`` times the matrix norm.
    """
    return _dressed(params, two_mode_spectrum(params), degeneracy_rtol)


def _dressed(params: ModelParams, two: TwoModeSpectrum,
             degeneracy_rtol: float = 1e-10) -> ThreeModeSpectrum:
    """:func:`three_mode_spectrum` from the solved photon-phonon block ``two``."""
    margin = ass1_margin(params)
    if margin <= 0.0:
        raise AssumptionViolation(
            f"|kappa| exceeds sqrt(omega_b*omega_c) by {-margin:.3e}; "
            "the lower quasimode energy is not positive"
        )
    floor = _gamma_floor(params)
    if min(abs(two.gamma[0]), abs(two.gamma[1])) <= floor:
        raise GammaZero(
            f"an effective coupling vanishes (|Gamma| = "
            f"{min(abs(two.gamma[0]), abs(two.gamma[1])):.3e})"
        )

    h = quasi_basis_matrix(params, two)
    scale = float(np.linalg.norm(h))
    gsq = _gamma_sq(two)
    levels = [_refine_root(float(x), params.omega_a, two.eps, gsq) for x in np.linalg.eigvalsh(h)]
    levels.sort()
    e1, e2, e3 = levels
    if min(e2 - e1, e3 - e2) < degeneracy_rtol * scale:
        raise DegenerateSpectrum(
            f"dressed levels {levels} are closer than {degeneracy_rtol:.1e} * ||H||"
        )

    n_norm = []
    columns = []
    for level in levels:
        if level in two.eps:
            raise DegenerateSpectrum(
                f"dressed level {level} collides with a quasimode energy {two.eps}"
            )
        n_j = 1.0 / math.sqrt(_d1_and_slope(level, params.omega_a, two.eps, gsq)[1])
        n_norm.append(n_j)
        columns.append((n_j * two.gamma[0] / (level - two.eps[0]),
                        n_j * two.gamma[1] / (level - two.eps[1]), n_j))
    v = np.array(columns, dtype=complex).T

    residual = float(np.max(np.abs(v.conj().T @ v - np.eye(3))))
    if residual > 1e-8:
        raise DegenerateSpectrum(
            f"closed-form unitary failed its sanity bound (residual {residual:.3e}); "
            "the spectrum is too ill-conditioned for the closed forms"
        )
    return ThreeModeSpectrum(e=(e1, e2, e3), n_norm=tuple(n_norm), v=v, two=two)


def cubic_stationary(params: ModelParams) -> CubicShape:
    """Stationary points of the cleared cubic and the quantity under the root."""
    wa, wb, wc = params.omega_a, params.omega_b, params.omega_c
    weight = abs(params.kappa) ** 2 + abs(params.lam) ** 2 + abs(params.xi) ** 2
    w = 0.5 * ((wa - wb) ** 2 + (wb - wc) ** 2 + (wc - wa) ** 2) + 3.0 * weight
    center = wa + wb + wc
    sqrt_w = math.sqrt(w)
    return CubicShape(f_minus=(center - sqrt_w) / 3.0, f_plus=(center + sqrt_w) / 3.0, w=w)
