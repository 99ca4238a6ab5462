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

import contextlib
import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, SizeLimit, _Status

__all__ = [
    "AtomKind",
    "ModelParams",
    "AssumptionCheck",
    "AssumptionReport",
    "SectorMatrix",
    "Tolerances",
    "validate",
    "sector_basis",
    "sector_matrix",
]


class AtomKind(Enum):
    """Which object sits in the cavity: a two-level system or an oscillator."""

    TWO_LEVEL = "two-level"
    OSCILLATOR = "oscillator"

    @classmethod
    def from_string(cls, text: str) -> "AtomKind":
        kind = _KIND_OF.get(text) if isinstance(text, str) else None
        if kind is None:
            raise ValueError(f"unknown atom kind {text!r}; use 'two-level' or 'oscillator'")
        return kind


_KIND_OF = {kind.value: kind for kind in AtomKind}


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
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive frequency, got {value!r}")
            object.__setattr__(self, name, value)
        for name, symbol in (("lam", "lambda"), ("xi", "xi"), ("kappa", "kappa")):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{symbol} must be finite, got {value!r}")
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
    def coupling_abs(self) -> np.ndarray:
        """``|lambda|``, ``|xi|`` and ``|kappa|`` per point, shape (3, n); infinite where
        a modulus overflows."""
        with np.errstate(over="ignore"):
            return _abs(np.array([self.lam, self.xi, self.kappa]))

    @cached_property
    def coupling_scale(self) -> np.ndarray:
        """``max(|lambda|, |xi|, |kappa|, 1)`` per point, the scale of the zero floors."""
        return np.maximum(np.maximum.reduce(self.coupling_abs), 1.0)

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


#: relative floor, on the scale ``max(|lambda|, |xi|, |kappa|, 1)``, below
#: which an effective coupling counts as zero
GAMMA_RTOL = 1e-12


def _checked_tol(tol: float, name: str = "tol") -> float:
    """``tol``, if it is a finite nonnegative number and not a bool, as every
    tolerance must be; otherwise a ``ValueError`` naming it ``name``."""
    if isinstance(tol, bool) or not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be a finite nonnegative number, got {tol!r}")
    return tol


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances for the cross-check suite (CLI-overridable), whose defaults are those
    of the functions that take one alone; ``||B||`` and ``||H||`` are the Frobenius norms of
    the photon-phonon block and the bare one-excitation matrix, and a bound without ``* x``
    is the value.  Each must pass :func:`_checked_tol`."""

    eps_match: float = 1e-12      # quasimode energies vs 2x2 solver, * max(1, ||B||)
    m_sum: float = 1e-14          # M_1^2 + M_2^2 = 1
    u_unitarity: float = 1e-14    # max-norm of U'U - I
    u_diag: float = 1e-12         # 2x2 diagonalization residual, * ||B||
    a1: float = 1e-12             # per-mode pole identity, relative
    a2: float = 1e-12             # cross-mode product identity, relative
    e_match: float = 1e-11        # dressed levels vs 3x3 solver, * max(1, ||H||)
    trace: float = 1e-12          # level sum vs frequency sum, relative
    root: float = 1e-10           # cubic residual at levels over max(1, |E|^3)
    v_unitarity: float = 1e-12    # max-norm of V'V - I
    v_diag: float = 1e-11         # 3x3 diagonalization residual, * max(1, ||H||)
    b1: float = 1e-10             # column-orthogonality sum rule
    n_norm: float = 1e-10         # normalizers vs reciprocal vector norms
    eigvec: float = 1e-10         # closed-form columns vs solver columns
    eigenstate: float = 1e-9      # eigen-residual of assembled states over ||H|| |v|
    occupation: float = 1e-10     # closed-form occupations vs amplitudes
    sector: float = 1e-9          # sector spectrum vs level sums
    ass2: float = GAMMA_RTOL      # effective-coupling zero floor
    classify: float = 1e-9        # dark/quasi-dark amplitude cutoff
    tuning: float = 1e-9          # tuning-condition residual
    duality: float = 1e-10        # occupation duality mismatch

    def __post_init__(self):
        for f in fields(self):
            _checked_tol(getattr(self, f.name), f.name)

    def override(self, updates: dict[str, float]) -> "Tolerances":
        unknown = set(updates) - {f.name for f in fields(self)}
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        return replace(self, **updates)


# A scan row must equal the single-point row bit for bit, so no kernel's
# result may depend on the size of its batch:
# - abs(z) is np.hypot(z.real, z.imag), as numpy's SIMD complex abs can
#   round differently on some CPUs;
# - threemode._bare_vectors rotates by an explicit two-term sum, as a matmul
#   may round differently with the size of its operands;
# - LAPACK solves are stacked, which gives each matrix the bits of its own call.

def _abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _norm(x: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along ``axis``: the sum ``np.linalg.norm`` forms, without
    its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest magnitude per point: over all axes of ``x`` but the first,
    reduced down contiguous rows, as numpy loops per point along a short axis."""
    return np.maximum.reduce(np.abs(x.reshape(len(x), -1).T, order="C"), axis=0)


def validate(params: ModelParams) -> AssumptionReport:
    """Evaluate the four standing assumptions for the given parameters.

    The bounds do not depend on the atom kind.  Raises
    :class:`DegenerateTwoMode` when the photon-phonon block is degenerate
    (``kappa = 0`` and ``omega_b = omega_c``): the quasimode quantities
    behind assumptions 2-4 are then undefined.  The raised error carries
    the assumption-1 result in its ``ass1`` attribute.  Raises
    :class:`DegenerateSpectrum` when a quasimode energy, an effective coupling
    or its square is not finite, as assumptions 2-4 are then undecided.
    """
    from .twomode import _two_mode

    p = _batch_of(params)
    two = _two_mode(p)
    two.check()
    margins = _assumption_margins(p, two)[0].tolist()
    return AssumptionReport(*(AssumptionCheck(m > 0.0, m) for m in margins))


def _assumption_margins(p: _Batch, two, ass2_rtol: float = GAMMA_RTOL) -> np.ndarray:
    """Margins of the four standing assumptions, shape (n, 4), from the solved photon-phonon
    blocks ``two`` (a degenerate block's from the quasimodes its row still holds); a product
    or square that overflows makes a margin infinite."""
    margins = np.empty((len(p), 4))
    margins[:, 0] = two.ass1_margin

    g1, g2 = two.gamma_abs[:, 0], two.gamma_abs[:, 1]
    wa, wb, wc = p.omega_a, p.omega_b, p.omega_c
    ksq, g1sq, g2sq = two.kappa_sq, two.gamma_sq[:, 0], two.gamma_sq[:, 1]
    with np.errstate(all="ignore"):
        margins[:, 1] = np.minimum(g1, g2) - ass2_rtol * p.coupling_scale
        margins[:, 2] = (wa * wb + wb * wc + wc * wa) - (ksq + g1sq + g2sq)
        margins[:, 3] = wa * wb * wc - (wa * ksq + two.eps[:, 0] * g2sq + two.eps[:, 1] * g1sq)
    return margins


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


def sector_matrix(params: ModelParams, kind: AtomKind, ell: int) -> SectorMatrix:
    """Exact Hamiltonian block on the total-excitation-``ell`` sector.

    Bosonic matrix elements carry the usual ladder factors, e.g. the
    photon-phonon hop from ``(na, nb, nc)`` to ``(na, nb+1, nc-1)`` has
    amplitude ``conj(kappa) * (sqrt(nb+1) * sqrt(nc))``, a complex product
    that also sets the sign of a zero part.  The matrix is filled pairwise
    (entry and conjugate together), so it is Hermitian exactly, not after
    symmetrization.  Raises :class:`SizeLimit`, before building anything,
    when the complex matrix would exceed 800 MB.
    """
    matrix = _sector_matrices(_batch_of(params), kind, ell)[0]
    return SectorMatrix(ell=ell, basis=_sector_layout(kind, ell, complex).basis, matrix=matrix)


def _sector_matrices(p: _Batch, kind: AtomKind, ell: int) -> np.ndarray:
    """:func:`sector_matrix` of every point of the batch ``p``, shape (n, dim, dim)."""
    return _sector_block(_sector_layout(kind, ell, complex), p.omega_a, p.omega_b, p.omega_c,
                         np.array([p.lam, p.xi, p.kappa]).T.conj())


class _SectorLayout(NamedTuple):
    """What a sector matrix's entries sit on, whatever the parameters.

    ``states`` is :func:`sector_basis` as a (dim, 3) array.  Each raising
    move (atom up from photon, atom up from phonon, photon up from phonon)
    takes state ``src`` to state ``dst`` with the ladder factor ``ladder``
    and the conjugate of coupling number ``coupling`` (lambda, xi, kappa).
    The move's entry sits at the flat position ``entry = dst * dim + src``,
    its conjugate at ``mirror = src * dim + dst``.
    """

    basis: tuple[tuple[int, int, int], ...]
    states: np.ndarray
    entry: np.ndarray
    mirror: np.ndarray
    coupling: np.ndarray
    ladder: np.ndarray


#: the most bytes a sector matrix may take: a 10,000-state real matrix
_MAX_SECTOR_BYTES = 800_000_000


@lru_cache(maxsize=8)
def _sector_layout(kind: AtomKind, ell: int, dtype: type) -> _SectorLayout:
    """The layout of sector ``ell``; raises :class:`SizeLimit` before building
    anything when its matrix, of entries of ``dtype``, would exceed
    ``_MAX_SECTOR_BYTES``.  The last few layouts are kept: each oscillator
    ``verify`` builds sector 2 again."""
    dim = (ell + 1) * (ell + 2) // 2 if kind is AtomKind.OSCILLATOR else 2 * ell + 1
    size = dim * dim * np.dtype(dtype).itemsize
    if ell >= 0 and size > _MAX_SECTOR_BYTES:
        raise SizeLimit(f"sector {ell} needs a {dim}x{dim} matrix of {size:,} bytes; "
                        f"cap is {_MAX_SECTOR_BYTES:,} bytes")
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
    entry, mirror = dst * len(i) + src, src * len(i) + dst
    for array in (states, entry, mirror, coupling, ladder):
        array.setflags(write=False)
    return _SectorLayout(basis, states, entry, mirror, coupling, ladder)


def _sector_block(layout: _SectorLayout, wa: np.ndarray, wb: np.ndarray, wc: np.ndarray,
                  raising: np.ndarray) -> np.ndarray:
    """The sector matrices on ``layout`` of ``n`` points, shape (n, dim, dim),
    from the frequencies (n,) and the amplitudes (n, 3) of the three raising
    moves (the conjugated couplings), in the dtype of ``raising``."""
    na, nb, nc = layout.states.T
    n, dim = len(raising), len(na)
    flat = np.zeros((n, dim * dim), dtype=raising.dtype)
    flat[:, ::dim + 1] = na * wa[:, None] + nb * wb[:, None] + nc * wc[:, None]
    # each unordered pair once, the entry and its conjugate together
    amp = raising[:, layout.coupling] * layout.ladder
    flat[:, layout.entry] = amp
    flat[:, layout.mirror] = amp.conj()
    return flat.reshape(n, dim, dim)


def _eigensolve(a: np.ndarray, status: _Status, solve=np.True_, vectors: bool = True):
    """LAPACK's ascending eigenvalues (n, d) of the Hermitian stack ``a`` (n, d, d), and
    with ``vectors`` its eigenvector columns: every LAPACK call of the package.  A point
    outside the mask ``solve`` is left out, and a matrix LAPACK fails on fails alone, with a
    :class:`ConvergenceFailure` on ``status``; both get NaN results.  A stacked solve gives
    each matrix the bits of its own call, so neither changes the other results."""
    lapack = np.linalg.eigh if vectors else np.linalg.eigvalsh
    if solve.all():
        try:
            return lapack(a)
        except np.linalg.LinAlgError as err:
            todo = [(np.arange(len(a)), err)]
    else:
        todo = [(np.flatnonzero(solve), None)]  # stacks to solve, each with LAPACK's error if known
    values = np.full(a.shape[:2], np.nan)
    columns = np.full(a.shape, np.nan, a.dtype) if vectors else None
    while todo:
        rows, err = todo.pop()
        try:
            solved = lapack(a[rows]) if err is None else None
        except np.linalg.LinAlgError as error:
            err = error
        if err is None and vectors:
            values[rows], columns[rows] = solved
        elif err is None:
            values[rows] = solved
        elif len(rows) > 1:  # a stack that fails goes on as its halves, unsolved
            todo += [(half, None) for half in np.array_split(rows, 2)]
        else:
            status.fail(np.arange(len(a)) == rows[0], lambda i: ConvergenceFailure(
                f"dense eigensolver failed: {err}"))
    return (values, columns) if vectors else values


_AS_IS = contextlib.nullcontext()  # the error state a finite-norm matrix's residual keeps


def _eigh(a: np.ndarray, solve=np.True_):
    """``oracle.dense_hermitian_eig`` of each matrix of the C-contiguous stack ``a``
    (n, d, d): ascending values, eigenvector columns and the per-matrix status.  A matrix
    with a non-finite entry fails unsolved; a point outside the mask ``solve`` is neither
    checked nor solved (:func:`_eigensolve`)."""
    n, _, dim = a.shape
    status = _Status(n)
    parts = a.view(float)
    scale = np.sqrt(np.einsum("ijk,ijk->i", parts, parts))
    if np.isfinite(scale).all():
        deviation = _max_abs(a - a.conj().swapaxes(1, 2))
        quiet = _AS_IS
    else:
        # ||A|| as m ||A / m||, m the largest magnitude: held finite, or NaN for a non-finite A
        with np.errstate(all="ignore"):
            top = np.abs(parts).max(axis=(1, 2))
            finite = np.isfinite(top)
            status.fail(~finite & solve, lambda i: NotHermitian("matrix has a non-finite entry"))
            solve = finite & solve
            rest = parts / top[:, None, None]
            held = top * np.sqrt(np.einsum("ijk,ijk->i", rest, rest))
            scale = np.where(np.isfinite(scale), scale, np.minimum(held, np.finfo(float).max))
            deviation = _max_abs(a - a.conj().swapaxes(1, 2))
        quiet = np.errstate(all="ignore")  # the residual and Gram of such a matrix overflow too
    status.fail((deviation > 1e-13 * np.maximum(scale, 1e-300)) & solve, lambda i: NotHermitian(
        f"matrix deviates from Hermitian by {deviation[i]:.3e}"))
    values, vectors = _eigensolve(a, status, solve)
    with quiet:
        residual = _max_abs(a @ vectors - vectors * values[:, None, :])
        gram = vectors.conj().swapaxes(1, 2) @ vectors
        gram.reshape(n, -1)[:, ::dim + 1] -= 1.0  # V'V - I, without an identity matrix
        ortho = _max_abs(gram)
    # a solved point passes only where both are within their bounds, which NaN never is
    within = (residual <= 1e-11 * np.maximum(scale, 1.0)) & (ortho <= 1e-12)
    status.fail(~within & solve, lambda i: ConvergenceFailure(
        f"decomposition out of tolerance (residual {residual[i]:.3e}, "
        f"orthonormality {ortho[i]:.3e})"))
    return values, vectors, status
