"""Brute-force verification path and closed-form cross-checks.

Everything here double-checks the closed forms through an independent
route: dense Hermitian diagonalization of the exact sector matrices and
an aggregate report that compares every closed-form quantity against the
solver output.  The report is one batch kernel, :func:`_crosscheck`,
which solves its dense references as stacks over all points through
``model._eigensolve``; :func:`crosscheck` and ``verify`` run it on a
batch of one.  The oscillator's sector spectra are solved
densely in the photon-phonon normal-mode basis, where the sector matrix
is real symmetric (see :func:`_normal_mode_sector_matrices`).  Bounds: ``model.Tolerances``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import darkstates, observables, threemode, twomode
from .errors import AssumptionViolation, GammaZero, _Status
from .model import (
    AtomKind,
    ModelParams,
    Tolerances,
    _abs,
    _assumption_margins,
    _batch_of,
    _Batch,
    _checked_tol,
    _eigensolve,
    _eigh,
    _norm,
    _sector_block,
    _sector_layout,
    _sector_matrices,
)

__all__ = [
    "EigenDecomposition",
    "CheckResult",
    "ValidationReport",
    "dense_hermitian_eig",
    "oscillator_sector_check",
    "crosscheck",
]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.skipped)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.skipped and not c.passed]


def dense_hermitian_eig(matrix) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, with result validation.

    Raises :class:`NotHermitian` when the input has a non-finite entry or
    deviates from its own conjugate transpose by more than 1e-13 times its
    norm, and :class:`ConvergenceFailure` when the solver fails or returns a
    decomposition violating the residual/orthonormality bounds.
    """
    a = np.asarray(matrix, dtype=complex, order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    values, vectors, status = _eigh(a[None])
    status.check()
    return EigenDecomposition(values=values[0], vectors=vectors[0])


def oscillator_sector_check(params: ModelParams, ell: int, *,
                            tol: float = Tolerances.sector) -> ValidationReport:
    """Compare an exact sector spectrum with sums of dressed levels.

    For the oscillator atom the sector-``ell`` eigenvalues are exactly the
    sums ``n_1 E_1 + n_2 E_2 + n_3 E_3`` over occupations with total
    ``ell``; the sector matrix is exact, so no truncation error enters.
    Requires all four standing assumptions (raises
    :class:`AssumptionViolation` otherwise).  Raises :class:`SizeLimit`
    when the real sector matrix would exceed 800 MB (``ell`` above 139).
    This is the ``sector-{ell}-spectrum`` row of :func:`_crosscheck`.
    """
    checks = _crosscheck(_batch_of(params), AtomKind.OSCILLATOR,
                         Tolerances(sector=_checked_tol(tol)), (ell,))
    checks.spectrum.two.status.check()
    if checks.reason[0, -1] == _NOT_SATISFIED:
        margins = checks.residual[0, :4].tolist()
        raise AssumptionViolation(
            "the sector spectrum check needs all standing assumptions; margins: "
            + " ".join(f"ass{i}={margin:.3e}" for i, margin in enumerate(margins, 1)))
    checks.spectrum.status.check()
    checks.status.check()
    residual = checks.residual[0, -1].item()
    return ValidationReport(checks=(CheckResult(checks.names[-1], residual, tol, residual <= tol),))


def _sector_residuals(p: _Batch, modes, levels: np.ndarray, ell: int, status: _Status,
                      solve) -> np.ndarray:
    """Largest distance, per point in the mask ``solve`` (NaN elsewhere), between
    the oscillator's sector-``ell`` spectrum and the sums of the dressed ``levels``
    (n, 3); ``modes`` are LAPACK's eigenpairs of the photon-phonon blocks, and a
    failed solve is recorded on ``status``."""
    states, real = _normal_mode_sector_matrices(p, modes, ell)
    computed = _eigensolve(real, status, solve, vectors=False)
    sums = np.sort(np.matmul(states, levels[:, :, None])[:, :, 0], axis=1)
    return np.max(np.abs(computed - sums), axis=1)


def _normal_mode_sector_matrices(p: _Batch, modes, ell: int):
    """The oscillator's sector-``ell`` basis as a (dim, 3) array, and real
    symmetric matrices (n, dim, dim) with the spectra of the points' sector
    matrices.

    The photon and phonon are rotated into the normal modes of the
    photon-phonon block: ``modes`` are its eigenpairs ``(eps, u)``, taken
    from LAPACK and not from :mod:`twomode`, so a wrong closed-form
    quasimode cannot cancel out of the check.  The rotation conserves the
    excitation number, so it maps the sector onto itself, and leaves the
    atom coupled to normal mode ``j`` with ``Gamma_j = lambda conj(u[0, j])
    + xi conj(u[1, j])`` and no coupling between the normal modes.  The
    atom-mode couplings then form a tree, so a phase per mode makes each
    of them ``|Gamma_j|``: the same spectrum comes from a real symmetric
    matrix, solved several times faster than the complex one.
    """
    layout = _sector_layout(AtomKind.OSCILLATOR, ell, float)
    eps, u = modes
    gamma = p.lam[:, None] * u[:, 0].conj() + p.xi[:, None] * u[:, 1].conj()
    raising = np.zeros((len(p), 3))
    raising[:, :2] = _abs(gamma)
    return layout.states, _sector_block(layout, p.omega_a, eps[:, 0], eps[:, 1], raising)


def crosscheck(params: ModelParams, kind: AtomKind = AtomKind.TWO_LEVEL,
               tol: Tolerances = Tolerances()) -> ValidationReport:
    """Run every closed-form-versus-oracle comparison for one parameter set.

    Checks that need unavailable preconditions (degenerate photon-phonon
    block, vanishing effective coupling, failed positivity assumption,
    off-resonant or complex couplings for the occupation checks) are
    reported as skipped with a reason instead of failing.  This is the
    batch kernel :func:`_crosscheck` on a batch of one.  A wrong dressed
    level fails the ``dressed-levels`` and ``cubic-roots`` checks; only the
    dense solver's errors (:class:`NotHermitian`, :class:`ConvergenceFailure`)
    are raised.
    """
    checks = _crosscheck(_batch_of(params), kind, tol)
    checks.status.check()
    rows = zip(checks.names, checks.residual[0].tolist(), checks.tolerance[0].tolist(),
               checks.passed[0].tolist(), checks.skipped[0].tolist(), checks.reasons(0))
    return ValidationReport(checks=tuple(CheckResult(*row) for row in rows))


#: the checks before the sector checks, in report order: name, ``Tolerances``
#: field of the bound (None: passes on a positive residual), the bound's scale
#: (an index into 1, max(1, ||B||), ||B||, max(1, ||H||); see ``Tolerances``)
#: and the number of terms whose largest magnitude is the residual (0: a margin)
_CHECKS = (
    ("assumption-1", None, 0, 0), ("assumption-2", None, 0, 0),
    ("assumption-3", None, 0, 0), ("assumption-4", None, 0, 0),
    ("quasimode-energies", "eps_match", 1, 2), ("mixing-sum", "m_sum", 0, 1),
    ("u-unitarity", "u_unitarity", 0, 4), ("u-diagonalization", "u_diag", 2, 4),
    ("pole-identity", "a1", 0, 2), ("cross-product-identity", "a2", 0, 2),
    ("eps1-positive", None, 0, 0),
    ("dressed-levels", "e_match", 3, 3), ("level-trace", "trace", 0, 1),
    ("cubic-roots", "root", 0, 3), ("v-unitarity", "v_unitarity", 0, 1),
    ("v-diagonalization", "v_diag", 3, 9), ("column-orthogonality-rule", "b1", 0, 3),
    ("normalizers", "n_norm", 0, 3), ("eigenvector-match", "eigvec", 0, 3),
    ("eigenstate-residuals", "eigenstate", 0, 3), ("interlacing", None, 0, 0),
    ("occupation-amplitudes", "occupation", 0, 6),
)
#: the columns of the checks with terms, and where their terms start
_MAXED = np.array([i for i, row in enumerate(_CHECKS) if row[3]])
_OFFSETS = np.cumsum([0, *(row[3] for row in _CHECKS if row[3])])[:-1]
_POLE, _EPS1, _INTERLACING, _OCCUPATION = map([row[0] for row in _CHECKS].index, (
    "pole-identity", "eps1-positive", "interlacing", "occupation-amplitudes"))
_EYE2, _EYE3 = np.eye(2), np.eye(3)
_PAIRS = np.array([[0, 0, 1], [1, 2, 2]])  # the level pairs (0, 1), (0, 2), (1, 2)


@functools.lru_cache(maxsize=16)
def _bounds(tol: Tolerances, sectors: tuple[int, ...]):
    """The check names of a report with a check of each sector of ``sectors``,
    and per check its bound's base value and scale index and whether it is
    strict, passing on a positive residual and not on one within bound."""
    names, fields, scales, _ = zip(*_CHECKS, *((f"sector-{ell}-spectrum", "sector", 0, 0)
                                               for ell in sectors))
    return (names, np.array([0.0 if f is None else getattr(tol, f) for f in fields]),
            np.array(scales), np.array([f is None for f in fields]))


#: skip reasons by code, 0 for a check that ran; the two ending in ": " go
#: on with the point's error
_REASONS = (
    "",
    "standing assumption, margin recorded",
    "positivity assumption violated; sign detection recorded",
    "degenerate photon-phonon block",
    "no photon-phonon coupling",
    "|kappa|^2 underflows to 0",
    "lower quasimode energy is not positive",
    "an effective coupling vanishes",
    "dressed spectrum unavailable",
    "dressed spectrum unavailable: ",
    "outside the resonant real regime: ",
    "level sums apply to the oscillator atom",
    "standing assumptions not satisfied",
)
(_RAN, _RECORDED, _SIGN_RECORDED, _DEGENERATE, _UNCOUPLED, _UNDERFLOW, _NOT_POSITIVE,
 _VANISHES, _NO_SPECTRUM, _UNSOLVED, _OFF_REGIME, _NOT_OSCILLATOR,
 _NOT_SATISFIED) = range(len(_REASONS))
#: the reasons that blank a check's values
_BLANK = np.array([code not in (_RAN, _RECORDED, _SIGN_RECORDED) for code in range(len(_REASONS))])


class _Checks(NamedTuple):
    """:func:`_crosscheck` per point: ``residual``, ``tolerance``, ``passed``,
    ``skipped`` and the ``reason`` codes have a row per point and a column
    per check of ``names``; ``status`` holds the error a point raises, which
    only the dense solver records.  ``spectrum`` and ``regime`` complete the
    reasons ending in ": "."""

    names: tuple[str, ...]
    residual: np.ndarray
    tolerance: np.ndarray
    passed: np.ndarray
    skipped: np.ndarray
    reason: np.ndarray
    spectrum: threemode._ThreeModeBatch
    regime: _Status
    status: _Status

    def reasons(self, i: int) -> list[str]:
        """Point ``i``'s skip reasons, one per check."""
        errors = {_UNSOLVED: self.spectrum.status, _OFF_REGIME: self.regime}
        return [_REASONS[code] + (str(errors[code].error(i)) if code in errors else "")
                for code in self.reason[i].tolist()]


def _crosscheck(p: _Batch, kind: AtomKind, tol: Tolerances, sectors=(2,)) -> _Checks:
    """:func:`crosscheck` for every point of the batch ``p``, with a
    ``sector-{ell}-spectrum`` check per ``ell`` of ``sectors``.

    Every residual is computed for every point, then blanked where its
    check skips: one array holds the terms of every check that has them
    (``_CHECKS``), reduced in one pass.  The dense references are LAPACK's, never the
    closed forms': the photon-phonon blocks, the one-excitation matrices (bare and in
    the quasimode basis) where the spectrum is checked, and each sector's matrices where
    the sector check runs, built only if one does (so no :class:`SizeLimit` otherwise).
    """
    n = len(p)
    wa, wb, wc = p.omega_a, p.omega_b, p.omega_c
    names, base, scale, strict = _bounds(tol, tuple(sectors))
    two = twomode._two_mode(p)
    eps, gamma, u, solved = two.eps, two.gamma, two.u, two.status.ok
    spectrum = threemode._dressed(p, two)
    regime = _Status(n)

    with np.errstate(all="ignore"):
        resonant = darkstates._resonant_real(p, regime, GammaZero)
        margins = _assumption_margins(p, two, tol.ass2)
        # the three-mode checks' skip reason, the first that applies winning
        dressed = np.where(solved, np.where(eps[:, 0] > 0.0, np.where(
            margins[:, 1] > 0.0, np.where(spectrum.status.ok, _RAN, _UNSOLVED), _VANISHES),
            _NOT_POSITIVE), _DEGENERATE)
        checked = dressed == _RAN
        # the sector checks' skip reason: they need every standing assumption
        sector = (np.where((margins > 0.0).all(axis=1), dressed, _NOT_SATISFIED)
                  if kind is AtomKind.OSCILLATOR else np.full(n, _NOT_OSCILLATOR))
        e, v = spectrum.e, spectrum.v
        # the dense references: the one-excitation matrices only where the spectrum is checked
        bare = _sector_matrices(p, AtomKind.TWO_LEVEL, 1)
        quasi = threemode._quasi_matrices(wa, eps, gamma)
        blocks = bare[:, 1:, 1:].copy()
        status = _Status(n)
        modes = _eigensolve(blocks, status)
        values, vectors, solver = _eigh(np.concatenate([bare, quasi]),
                                        np.concatenate([checked, checked]))
        status.inherit(solver)
        status.inherit(solver, n)
        runs = (sector == _RAN) & status.ok
        ak = p.coupling_abs[2]
        ksq = two.kappa_sq[:, None]
        # the bounds' scales, in the order of _CHECKS' scale indices
        scales = np.ones((n, 4))
        scales[:, 2] = _norm(blocks.reshape(n, 4), 1)
        scales[:, 3] = bare_scale = _norm(bare.reshape(n, 9), 1)
        scales[:, 1::2] = np.maximum(1.0, scales[:, 2:])
        u_h, v_h = u.conj().swapaxes(1, 2), v.conj().swapaxes(1, 2)
        gsq, r = two.gamma_sq, spectrum.r
        g1, g2, e1, e2 = gsq[:, :1], gsq[:, 1:], eps[:, :1], eps[:, 1:]
        bare_freqs, n_norm, total = np.array([wb, wc]).T, spectrum.n_norm, (wa + wb + wc)[:, None]
        # E - eps per level and quasimode, (n, 3, 2)
        gaps = r.swapaxes(1, 2)
        # the sum rule over the level pairs (0, 1), (0, 2), (1, 2): its terms are symmetric
        q = gsq[:, None, :] / (gaps[:, _PAIRS[0]] * gaps[:, _PAIRS[1]])
        # overlaps of the closed-form and the solver's quasimode-basis eigenvectors, level by level
        overlap = np.einsum("ikj,ikj->ij", vectors[n:].conj(), v)
        # per level, the quasimode column (Gamma / (E - eps), 1)
        raw = np.ones((n, 3, 3), dtype=complex)
        raw[:, :, :2] = gamma[:, None, :] / gaps
        # the bare eigenvectors over (atom, photon, phonon), a column per level
        columns = threemode._bare_vectors(u, gamma, r)
        states = columns.swapaxes(1, 2)
        defect = np.matmul(bare[:, None], states[..., None])[..., 0] - states * e[:, :, None]
        amplitude_sq = np.square(_abs(columns[:, 1:])).reshape(n, 6)
        closed = np.concatenate(observables._occupations(p, e, resonant), axis=1)
        # the terms of the checks with terms, in report order
        terms = np.concatenate([
            modes[0] - eps,
            np.add.reduce(np.square(u[:, 0].real), axis=1, keepdims=True) - 1.0,
            (np.matmul(u_h, u) - _EYE2).reshape(n, 4),
            (np.matmul(np.matmul(u_h, blocks), u) - eps[:, :, None] * _EYE2).reshape(n, 4),
            ((eps - wb[:, None]) * (eps - wc[:, None]) - ksq) / ksq,
            ((e1 - bare_freqs) * (e2 - bare_freqs) + ksq) / ksq,
            values[:n] - e,
            (np.add.reduce(e, axis=1, keepdims=True) - total) / total,
            threemode._phi(e, wa[:, None], r[:, 0], r[:, 1], g1, g2)
            / np.maximum(1.0, np.float_power(np.abs(e), 3.0)),
            spectrum.residual[:, None],
            (np.matmul(np.matmul(v_h, quasi), v) - e[:, :, None] * _EYE3).reshape(n, 9),
            1.0 + (q[:, :, 0] + q[:, :, 1]),
            (n_norm - 1.0 / _norm(raw, 2)) / n_norm,
            1.0 - _abs(overlap),
            _norm(defect, 2) / (bare_scale[:, None] * _norm(states, 2)),
            (closed - amplitude_sq) / np.maximum(np.maximum(np.abs(closed), amplitude_sq), 1.0),
        ], axis=1)
        residual = np.empty((n, len(names)))
        residual[:, _MAXED] = np.maximum.reduceat(np.abs(terms), _OFFSETS, axis=1)
        residual[:, :4], residual[:, _EPS1] = margins, eps[:, 0]
        residual[:, _INTERLACING] = threemode._interlacing_margin(e, r)
        for c, ell in enumerate(sectors, len(_CHECKS)):
            residual[:, c] = (_sector_residuals(p, modes, e, ell, status, runs) if runs.any()
                              else np.nan)
        tolerance = base * scales[:, scale]

    reason = np.empty(residual.shape, dtype=np.int8)
    reason[:, :4], reason[:, 4:_POLE] = _RECORDED, _RAN
    reason[:, _POLE:_EPS1] = np.where(ak == 0.0, _UNCOUPLED,
                                      np.where(ksq[:, 0] == 0.0, _UNDERFLOW, _RAN))[:, None]
    reason[:, _EPS1] = np.where(margins[:, 0] > 0.0, _RAN, _SIGN_RECORDED)
    # a degenerate block skips the checks after assumption-1 that it feeds
    reason[:, 1:_EPS1 + 1] = np.where(solved[:, None], reason[:, 1:_EPS1 + 1], _DEGENERATE)
    reason[:, _EPS1 + 1:_OCCUPATION] = dressed[:, None]
    reason[:, _OCCUPATION] = np.where(checked, np.where(regime.ok, _RAN, _OFF_REGIME),
                                      _NO_SPECTRUM)
    reason[:, len(_CHECKS):] = sector[:, None]
    # a recorded observation keeps its values but never gates the verdict
    blank = _BLANK[reason]
    residual[blank] = tolerance[blank] = np.nan
    passed = blank | np.where(strict, residual > tolerance, residual <= tolerance)
    return _Checks(names, residual, tolerance, passed, reason != _RAN, reason, spectrum, regime,
                   status)
