"""Model parameters, standing assumptions, and excitation-sector matrices.

The model couples three modes: an atom (two-level system or harmonic
oscillator) with frequency ``omega_a``, a cavity photon mode ``omega_b``,
and a mechanical phonon mode ``omega_c``.  Every coupling term exchanges
exactly one excitation (atom-photon strength ``lambda``, atom-phonon
``xi``, photon-phonon ``kappa``), so the Hamiltonian is block diagonal
over sectors of fixed total excitation number and each block is a small
dense Hermitian matrix that can be written down exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import SizeLimit

__all__ = [
    "AtomKind",
    "ModelParams",
    "AssumptionCheck",
    "AssumptionReport",
    "SectorMatrix",
    "validate",
    "one_excitation_matrix",
    "sector_basis",
    "sector_matrix",
]


class AtomKind(Enum):
    """Which object sits in the cavity: a two-level system or an oscillator."""

    TWO_LEVEL = "two-level"
    OSCILLATOR = "oscillator"

    @classmethod
    def from_string(cls, text: str) -> "AtomKind":
        for kind in cls:
            if kind.value == text:
                return kind
        raise ValueError(f"unknown atom kind {text!r}; use 'two-level' or 'oscillator'")


@dataclass(frozen=True)
class ModelParams:
    """The six Hamiltonian parameters, in units with hbar = 1.

    ``omega_a``, ``omega_b``, ``omega_c`` are the bare mode frequencies
    (strictly positive); ``lam``, ``xi``, ``kappa`` are the complex
    coupling amplitudes of the atom-photon, atom-phonon and photon-phonon
    exchange terms.
    """

    omega_a: float
    omega_b: float
    omega_c: float
    lam: complex
    xi: complex
    kappa: complex

    def __post_init__(self):
        for name in ("omega_a", "omega_b", "omega_c"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be a finite positive frequency, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("lam", "xi", "kappa"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class AssumptionCheck:
    """One standing assumption: pass/fail flag plus its signed margin."""

    passed: bool
    margin: float


@dataclass(frozen=True)
class AssumptionReport:
    """Status of the four standing assumptions of the model.

    ass1: ``|kappa| < sqrt(omega_b * omega_c)`` - both quasimode energies
        positive.  Margin ``sqrt(omega_b*omega_c) - |kappa|``.
    ass2: both effective atom-quasimode couplings nonzero.  Margin
        ``min(|Gamma_1|, |Gamma_2|)`` minus the floating-point floor
        (the floor keeps an exactly-zero test meaningful in floats).
    ass3: ``|kappa|^2 + |Gamma_1|^2 + |Gamma_2|^2`` below the pairwise
        frequency products ``omega_a*omega_b + omega_b*omega_c +
        omega_c*omega_a``.
    ass4: ``omega_a*|kappa|^2 + eps_1*|Gamma_2|^2 + eps_2*|Gamma_1|^2``
        below ``omega_a*omega_b*omega_c``.

    All four are strict inequalities; boundary equality counts as a
    violation, so each margin is positive exactly when its flag passes.
    """

    ass1: AssumptionCheck
    ass2: AssumptionCheck
    ass3: AssumptionCheck
    ass4: AssumptionCheck

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in (self.ass1, self.ass2, self.ass3, self.ass4))


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """Exact Hamiltonian block for one total-excitation sector.

    ``basis`` lists occupation tuples ``(n_atom, n_photon, n_phonon)`` in
    descending lexicographic order, which places the atom-excited state
    first; for the one-excitation sector the order is therefore
    (atom, photon, phonon).  ``matrix`` is Hermitian by construction.
    """

    ell: int
    basis: tuple[tuple[int, int, int], ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
class _Batch:
    """The six parameters of ``n`` points as arrays, the struct-of-arrays form
    of :class:`ModelParams` the batch kernels take: frequencies as floats,
    couplings as complex numbers, one entry per point."""

    omega_a: np.ndarray
    omega_b: np.ndarray
    omega_c: np.ndarray
    lam: np.ndarray
    xi: np.ndarray
    kappa: np.ndarray

    def __len__(self) -> int:
        return len(self.omega_a)

    @cached_property
    def coupling_scale(self) -> np.ndarray:
        """``max(|lambda|, |xi|, |kappa|, 1)`` per point, the scale of the zero floors."""
        return np.maximum(np.maximum(np.maximum(_abs(self.lam), _abs(self.xi)),
                                     _abs(self.kappa)), 1.0)

    def and_swapped(self) -> "_Batch":
        """The batch followed by its copy with ``lambda`` and ``xi`` exchanged."""
        def twice(a, b):
            return np.concatenate([a, b])
        return _Batch(twice(self.omega_a, self.omega_a), twice(self.omega_b, self.omega_b),
                      twice(self.omega_c, self.omega_c), twice(self.lam, self.xi),
                      twice(self.xi, self.lam), twice(self.kappa, self.kappa))


def _batch_of(params: ModelParams) -> _Batch:
    """A batch of one point."""
    freqs = np.array([params.omega_a, params.omega_b, params.omega_c])
    couplings = np.array([params.lam, params.xi, params.kappa])
    return _Batch(freqs[0:1], freqs[1:2], freqs[2:3],
                  couplings[0:1], couplings[1:2], couplings[2:3])


# The batch kernels round every operation as Python's float and complex
# arithmetic on one point rounds it, bit for bit, so the output stays what
# the closed forms written with Python numbers printed (tests/golden holds
# it) and no result depends on the size of the batch:
# - abs(z) is np.hypot(z.real, z.imag);
# - x ** 2 is np.float_power(x, 2.0), not x * x or np.power;
# - a complex times a float is numpy's product (the float's imaginary part
#   is +0.0 in both), but a complex quotient is CPython's Smith algorithm,
#   which divides where numpy multiplies by a reciprocal;
# - math.hypot has no exactly matching ufunc and is mapped over the floats;
# - a stacked LAPACK eigensolve gives each matrix the bits of its own call.

def _abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest magnitude per point: over all axes of ``x`` but the first."""
    return np.maximum.reduce(np.abs(x).reshape(len(x), -1), axis=1)


def _sq(x):
    return np.float_power(x, 2.0)


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` elementwise over two arrays of one shape."""
    flat = map(math.hypot, x.ravel().tolist(), y.ravel().tolist())
    return np.array(list(flat), dtype=float).reshape(x.shape)


def _cdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a / b`` for complex arrays as CPython divides complex numbers.

    Smith's algorithm: divide through by the larger part of ``b``.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    ratio = bi / br
    denom = br + bi * ratio
    quotient = _complex((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)
    if np.count_nonzero(by_real) < by_real.size:
        ratio = br / bi
        denom = br * ratio + bi
        other = _complex((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)
        quotient = np.where(by_real, quotient, other)
    return quotient


def _cdiv_real(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``a / d`` for a complex ``a`` and a real ``d``, as CPython divides.

    CPython divides by ``d + 0j`` with Smith's algorithm: its denominator
    ``d + 0 * ratio`` is ``d`` itself, but the signed zero ``ratio = 0 / d``
    still sets the signs of zero parts of the quotient.
    """
    ratio = 0.0 / d
    return _complex((a.real + a.imag * ratio) / d, (a.imag - a.real * ratio) / d)


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Complex array from its parts, signed zeros kept."""
    out = np.empty(np.shape(real), dtype=complex)
    out.real = real
    out.imag = imag
    return out


def ass1_margin(p) -> np.ndarray:
    """Signed distance of |kappa| below sqrt(omega_b * omega_c), per point of batch ``p``."""
    return np.sqrt(p.omega_b * p.omega_c) - _abs(p.kappa)


def validate(params: ModelParams, *, ass2_rtol: float = 1e-12) -> AssumptionReport:
    """Evaluate the four standing assumptions for the given parameters.

    The bounds do not depend on the atom kind.  Raises
    :class:`DegenerateTwoMode` when the photon-phonon block is degenerate
    (``kappa = 0`` and ``omega_b = omega_c``): the quasimode quantities
    behind assumptions 2-4 are then undefined.  The raised error carries
    the assumption-1 result in its ``ass1`` attribute.
    """
    from .twomode import _two_mode

    p = _batch_of(params)
    two = _two_mode(p)
    two.status.check()
    return _assumption_report(_assumption_margins(p, two, ass2_rtol)[0])


def _assumption_report(margins) -> AssumptionReport:
    """The report from one point's four margins."""
    return AssumptionReport(*(AssumptionCheck(m > 0.0, m) for m in margins.tolist()))


def _assumption_margins(p: _Batch, two, ass2_rtol: float = 1e-12) -> np.ndarray:
    """Margins of the four standing assumptions, shape (n, 4), from the solved
    photon-phonon blocks ``two``; rows where ``two`` failed hold NaN."""
    margins = np.empty((len(p), 4))
    margins[:, 0] = two.ass1_margin

    g1, g2 = two.gamma_abs[:, 0], two.gamma_abs[:, 1]
    margins[:, 1] = np.minimum(g1, g2) - ass2_rtol * p.coupling_scale

    wa, wb, wc = p.omega_a, p.omega_b, p.omega_c
    g1sq, g2sq, ksq = _sq(g1), _sq(g2), _sq(_abs(p.kappa))
    margins[:, 2] = (wa * wb + wb * wc + wc * wa) - (ksq + g1sq + g2sq)
    margins[:, 3] = wa * wb * wc - (wa * ksq + two.eps[:, 0] * g2sq + two.eps[:, 1] * g1sq)
    return margins


def one_excitation_matrix(params: ModelParams) -> SectorMatrix:
    """The 3x3 Hamiltonian block on the one-excitation sector.

    Basis order (atom, photon, phonon); the diagonal carries the bare
    frequencies and the upper triangle the conjugated couplings, e.g.
    ``entry(atom, photon) = conj(lambda)``.
    """
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return SectorMatrix(ell=1, basis=basis, matrix=_one_excitation_matrices(_batch_of(params))[0])


def _one_excitation_matrices(p: _Batch) -> np.ndarray:
    """:func:`one_excitation_matrix` of every point of the batch ``p``, shape (n, 3, 3)."""
    h = np.empty((len(p), 3, 3), dtype=complex)
    h[:, 0, 0], h[:, 1, 1], h[:, 2, 2] = p.omega_a, p.omega_b, p.omega_c
    h[:, 1, 0], h[:, 2, 0], h[:, 2, 1] = p.lam, p.xi, p.kappa
    h[:, 0, 1], h[:, 0, 2], h[:, 1, 2] = p.lam.conj(), p.xi.conj(), p.kappa.conj()
    return h


def sector_basis(kind: AtomKind, ell: int) -> tuple[tuple[int, int, int], ...]:
    """Occupation tuples of the total-excitation-``ell`` sector.

    Descending lexicographic order in ``(n_atom, n_photon, n_phonon)``;
    the atom occupation is capped at 1 for the two-level case.
    """
    if ell < 0:
        raise ValueError(f"excitation number must be nonnegative, got {ell}")
    max_atom = 1 if kind is AtomKind.TWO_LEVEL else ell
    return tuple(
        (na, nb, ell - na - nb)
        for na in range(min(ell, max_atom), -1, -1)
        for nb in range(ell - na, -1, -1)
    )


def sector_matrix(params: ModelParams, kind: AtomKind, ell: int,
                  *, max_dim: int = 10_000) -> SectorMatrix:
    """Exact Hamiltonian block on the total-excitation-``ell`` sector.

    Bosonic matrix elements carry the usual ladder factors, e.g. the
    photon-phonon hop from ``(na, nb, nc)`` to ``(na, nb+1, nc-1)`` has
    amplitude ``conj(kappa) * sqrt(nb+1) * sqrt(nc)``.  The matrix is
    filled pairwise (entry and conjugate together), so it is Hermitian
    exactly, not after symmetrization.
    """
    layout = _sector_layout(kind, ell, max_dim)
    h = _sector_block(layout, params.omega_a, params.omega_b, params.omega_c,
                      np.array([params.lam, params.xi, params.kappa]).conj())
    return SectorMatrix(ell=ell, basis=layout.basis, matrix=h)


class _SectorLayout(NamedTuple):
    """What a sector matrix's entries sit on, whatever the parameters.

    ``states`` is :func:`sector_basis` as a (dim, 3) array.  Each raising
    move (atom up from photon, atom up from phonon, photon up from phonon)
    takes state ``src`` to state ``dst`` with the ladder factor ``ladder``
    and the conjugate of coupling number ``coupling`` (lambda, xi, kappa).
    """

    basis: tuple[tuple[int, int, int], ...]
    states: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    coupling: np.ndarray
    ladder: np.ndarray


@lru_cache(maxsize=8)
def _sector_layout(kind: AtomKind, ell: int, max_dim: int) -> _SectorLayout:
    """The layout of sector ``ell``; raises :class:`SizeLimit` beyond
    ``max_dim`` states before building anything.  The last few layouts
    are kept: each oscillator ``verify`` builds sector 2 again."""
    dim = (ell + 1) * (ell + 2) // 2 if kind is AtomKind.OSCILLATOR else 2 * ell + 1
    if ell >= 0 and dim > max_dim:
        raise SizeLimit(f"sector {ell} needs a {dim}x{dim} matrix; cap is {max_dim}")
    # A state's index is its phonon number plus the count of states with a
    # larger atom number, so an atom raise lands ell - n_atom states back
    # (one more when the phonon gives the quantum up), a photon raise one
    # state back.
    basis = sector_basis(kind, ell)
    states = np.array(basis)
    na, nb, nc = states.T
    i = np.arange(len(states))
    atom_up = na < na[0]  # the first state holds the most atom quanta
    atom_target = i - (ell - na)
    moves = [(atom_up & (nb > 0), atom_target, na + 1, nb),
             (atom_up & (nc > 0), atom_target - 1, na + 1, nc),
             (nc > 0, i - 1, nb + 1, nc)]
    parts = [(i[allowed], target[allowed], np.full(np.count_nonzero(allowed), k),
              np.sqrt(up[allowed]) * np.sqrt(down[allowed]))
             for k, (allowed, target, up, down) in enumerate(moves)]
    src, dst, coupling, ladder = map(np.concatenate, zip(*parts))
    for array in (states, src, dst, coupling, ladder):
        array.setflags(write=False)
    return _SectorLayout(basis, states, src, dst, coupling, ladder)


def _sector_block(layout: _SectorLayout, wa: float, wb: float, wc: float,
                  raising: np.ndarray) -> np.ndarray:
    """The sector matrix on ``layout`` in the dtype of ``raising``, the
    amplitudes of the three raising moves (the conjugated couplings)."""
    na, nb, nc = layout.states.T
    dim = len(na)
    h = np.zeros((dim, dim), dtype=raising.dtype)
    h.flat[::dim + 1] = na * wa + nb * wb + nc * wc
    # each unordered pair once, the entry and its conjugate together
    amp = raising[layout.coupling] * layout.ladder
    h[layout.dst, layout.src] = amp
    h[layout.src, layout.dst] = amp.conj()
    return h
