"""Brute-force verification path and closed-form cross-checks.

Everything here double-checks the closed forms through an independent
route: dense Hermitian diagonalization of the exact sector matrices and
an aggregate report that compares every closed-form quantity against the
solver output.  The report is one batch kernel, :func:`_crosscheck`,
which solves its dense references as stacks over all points, one
``eigvalsh`` per requested sector; :func:`crosscheck` and ``verify`` run
it on a batch of one.  The oscillator's sector spectra are solved
densely in the photon-phonon normal-mode basis, where the sector matrix
is real symmetric (see :func:`_normal_mode_sector_spectra`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import darkstates, observables, threemode, twomode
from .errors import AssumptionViolation, ConvergenceFailure, GammaZero, NotHermitian, _Status
from .model import (
    GAMMA_RTOL,
    AtomKind,
    ModelParams,
    _abs,
    _assumption_margins,
    _assumption_report,
    _batch_of,
    _Batch,
    _max_abs,
    _norm,
    _sector_block,
    _sector_layout,
    _sector_matrices,
)

__all__ = [
    "EigenDecomposition",
    "CheckResult",
    "ValidationReport",
    "Tolerances",
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


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances for the cross-check suite (CLI-overridable)."""

    eps_match: float = 1e-12      # quasimode energies vs 2x2 solver
    m_sum: float = 1e-14          # M_1^2 + M_2^2 = 1
    u_unitarity: float = 1e-14    # max-norm of U'U - I
    u_diag: float = 1e-12         # 2x2 diagonalization residual, * ||block||
    a1: float = 1e-12             # per-mode pole identity, relative
    a2: float = 1e-12             # cross-mode product identity, relative
    e_match: float = 1e-11        # dressed levels vs 3x3 solver, * ||H||
    trace: float = 1e-12          # level sum vs frequency sum, relative
    root: float = 1e-10           # cubic residual at levels, * max(1, |E|^3)
    v_unitarity: float = 1e-12    # max-norm of V'V - I
    v_diag: float = 1e-11         # 3x3 diagonalization residual, * ||H||
    b1: float = 1e-10             # column-orthogonality sum rule
    n_norm: float = 1e-10         # normalizers vs reciprocal vector norms
    eigvec: float = 1e-10         # closed-form columns vs solver columns
    eigenstate: float = 1e-9      # eigen-residual of assembled states, * ||H||
    occupation: float = 1e-10     # closed-form occupations vs amplitudes
    sector: float = 1e-9          # sector spectrum vs level sums
    ass2: float = GAMMA_RTOL      # effective-coupling zero floor
    classify: float = 1e-9        # dark/quasi-dark amplitude cutoff
    tuning: float = 1e-9          # tuning-condition residual
    duality: float = 1e-10        # occupation duality mismatch

    def override(self, updates: dict[str, float]) -> "Tolerances":
        names = {f.name for f in dataclasses.fields(self)}
        unknown = set(updates) - names
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        return dataclasses.replace(self, **updates)


def dense_hermitian_eig(matrix) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, with result validation.

    Raises :class:`NotHermitian` when the input deviates from its own
    conjugate transpose by more than 1e-13 times its norm,
    and :class:`ConvergenceFailure` when the solver fails or returns a
    decomposition violating the residual/orthonormality bounds.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    values, vectors, status = _eigh(a[None])
    status.check()
    return EigenDecomposition(values=values[0], vectors=vectors[0])


def _eigh(a: np.ndarray):
    """:func:`dense_hermitian_eig` of every matrix in the stack ``a`` (n, d, d).

    Returns ascending values (n, d), eigenvector columns (n, d, d) and the
    per-matrix status.
    """
    n, dim = a.shape[0], a.shape[-1]
    status = _Status(n)
    flat = np.ascontiguousarray(a).view(float).reshape(n, -1)
    scale = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    deviation = _max_abs(a - a.conj().swapaxes(1, 2))
    status.fail(deviation > 1e-13 * np.maximum(scale, 1e-300), lambda i: NotHermitian(
        f"matrix deviates from Hermitian by {deviation[i]:.3e}"
    ))
    values, vectors, failures = _lapack_eigh(a)
    if failures:
        failed = np.zeros(n, dtype=bool)
        failed[list(failures)] = True
        status.fail(failed, lambda i: ConvergenceFailure(
            f"dense eigensolver failed: {failures[i]}"))
    residual = _max_abs(a @ vectors - vectors * values[:, None, :])
    ortho = _max_abs(vectors.conj().swapaxes(1, 2) @ vectors - np.eye(dim))
    status.fail((residual > 1e-11 * np.maximum(scale, 1.0)) | (ortho > 1e-12),
                lambda i: ConvergenceFailure(
                    f"decomposition out of tolerance (residual {residual[i]:.3e}, "
                    f"orthonormality {ortho[i]:.3e})"
                ))
    return values, vectors, status


def _lapack_eigh(a: np.ndarray):
    """``np.linalg.eigh`` of the stack ``a``, and the solver's error for each
    matrix it fails on, whose results are NaN.  A failing stack is split in
    halves, so only the failing matrices fail, after a few solves."""
    try:
        return (*np.linalg.eigh(a), {})
    except np.linalg.LinAlgError as err:
        if len(a) == 1:
            return np.full(a.shape[:2], np.nan), np.full(a.shape, np.nan, complex), {0: err}
    half = len(a) // 2
    (v1, w1, e1), (v2, w2, e2) = _lapack_eigh(a[:half]), _lapack_eigh(a[half:])
    return (np.concatenate([v1, v2]), np.concatenate([w1, w2]),
            {**e1, **{i + half: err for i, err in e2.items()}})


def oscillator_sector_check(params: ModelParams, ell: int, *,
                            tol: float = 1e-9) -> ValidationReport:
    """Compare an exact sector spectrum with sums of dressed levels.

    For the oscillator atom the sector-``ell`` eigenvalues are exactly the
    sums ``n_1 E_1 + n_2 E_2 + n_3 E_3`` over occupations with total
    ``ell``; the sector matrix is exact, so no truncation error enters.
    Requires all four standing assumptions (raises
    :class:`AssumptionViolation` otherwise).  Raises :class:`SizeLimit`
    when the real sector matrix would exceed 800 MB (``ell`` above 139).
    """
    p = _batch_of(params)
    two = twomode._two_mode(p)
    two.status.check()
    report = _assumption_report(_assumption_margins(p, two)[0])
    if not report.all_pass:
        raise AssumptionViolation(
            "the sector spectrum check needs all standing assumptions; margins: "
            f"ass1={report.ass1.margin:.3e} ass2={report.ass2.margin:.3e} "
            f"ass3={report.ass3.margin:.3e} ass4={report.ass4.margin:.3e}"
        )
    spectrum = threemode._dressed(p, two)
    spectrum.status.check()
    modes = np.linalg.eigh(_sector_matrices(p, AtomKind.TWO_LEVEL, 1)[:, 1:, 1:])
    residual = _sector_residuals(p, modes, spectrum.e, ell)[0].item()
    return ValidationReport(checks=(
        CheckResult(f"sector-{ell}-spectrum", residual, tol, residual <= tol),
    ))


def _sector_residuals(p: _Batch, modes, levels: np.ndarray, ell: int) -> np.ndarray:
    """Largest distance, per point, between the oscillator's sector-``ell``
    spectrum and the sums of the dressed ``levels`` (n, 3); ``modes`` are
    LAPACK's eigenpairs of the points' photon-phonon blocks."""
    states, computed = _normal_mode_sector_spectra(p, modes, ell)
    sums = np.sort(np.matmul(states, levels[:, :, None])[:, :, 0], axis=1)
    return np.max(np.abs(computed - sums), axis=1)


def _normal_mode_sector_spectra(p: _Batch, modes, ell: int):
    """The oscillator's sector-``ell`` basis as a (dim, 3) array, and the
    ascending spectra (n, dim) of the sector matrices of the points of ``p``.

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
    real = _sector_block(layout, p.omega_a, eps[:, 0], eps[:, 1], raising)
    return layout.states, np.linalg.eigvalsh(real)


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


#: the checks before the sector checks, in report order; those in
#: ``_STRICT`` pass on a positive residual, the others on one within tolerance
_CHECKS = (
    "assumption-1", "assumption-2", "assumption-3", "assumption-4",
    "quasimode-energies", "mixing-sum", "u-unitarity", "u-diagonalization",
    "pole-identity", "cross-product-identity", "eps1-positive",
    "dressed-levels", "level-trace", "cubic-roots", "v-unitarity", "v-diagonalization",
    "column-orthogonality-rule", "normalizers", "eigenvector-match", "eigenstate-residuals",
    "interlacing", "occupation-amplitudes",
)
_STRICT = (*_CHECKS[:4], "eps1-positive", "interlacing")
_COLUMN = {name: i for i, name in enumerate(_CHECKS)}
_EYE2, _EYE3 = np.eye(2), np.eye(3)

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
    check skips.  The dense references come from stacked LAPACK solves,
    never from the closed forms: the photon-phonon blocks in one ``eigh``,
    the bare and the quasimode-basis one-excitation matrices in one
    :func:`_eigh`, and the oscillator's matrices of each sector in one
    ``eigvalsh``, built only if a point that has not failed runs the sector
    checks (so no :class:`SizeLimit` otherwise).
    """
    n = len(p)
    wa, wb, wc = p.omega_a, p.omega_b, p.omega_c
    two = twomode._two_mode(p)
    eps, gamma, u, solved = two.eps, two.gamma, two.u, two.status.ok
    margins = _assumption_margins(p, two, tol.ass2)
    spectrum = threemode._dressed(p, two)
    # the three-mode checks' skip reason, the first that applies winning
    dressed = np.where(spectrum.status.ok, _RAN, _UNSOLVED)
    dressed[~(margins[:, 1] > 0.0)] = _VANISHES
    dressed[~(eps[:, 0] > 0.0)] = _NOT_POSITIVE
    dressed[~solved] = _DEGENERATE
    checked = dressed == _RAN
    # the sector checks' skip reason: they need every standing assumption
    sector = (np.where((margins > 0.0).all(axis=1), dressed, _NOT_SATISFIED)
              if kind is AtomKind.OSCILLATOR else np.full(n, _NOT_OSCILLATOR))
    # the levels of the points whose three-mode checks run, NaN elsewhere
    e, v = np.where(checked[:, None], spectrum.e, np.nan), spectrum.v

    # the bare and the quasimode-basis one-excitation matrices, a harmless
    # one where no spectrum is checked
    dense = np.concatenate([_sector_matrices(p, AtomKind.TWO_LEVEL, 1),
                            threemode._quasi_matrices(wa, eps, gamma)])
    # the photon-phonon blocks, taken before that replacement
    blocks = dense[:n, 1:, 1:].copy()
    modes = np.linalg.eigh(blocks)
    dense[~np.concatenate([checked, checked])] = _EYE3
    values, vectors, solver = _eigh(dense)
    bare, quasi = dense[:n], dense[n:]
    status = _Status(n)
    status.inherit(solver)
    status.inherit(solver, n)
    sector_runs = ((sector == _RAN) & status.ok).any()
    regime = _Status(n)
    resonant = darkstates._resonant_real(p, regime, GammaZero)

    with np.errstate(all="ignore"):
        ak = p.coupling_abs[2]
        ksq = (ak * ak)[:, None]
        block_scale = _norm(blocks.reshape(n, 4), 1)
        bare_scale = _norm(bare.reshape(n, 9), 1)
        u_h, v_h = u.conj().swapaxes(1, 2), v.conj().swapaxes(1, 2)
        gsq = np.square(two.gamma_abs)
        g1, g2, e1, e2 = gsq[:, :1], gsq[:, 1:], eps[:, :1], eps[:, 1:]
        bare_freqs, n_norm = np.stack([wb, wc], axis=1), spectrum.n_norm
        # the sum rule over the level pairs (0, 1), (0, 2), (1, 2): its terms are symmetric
        j, k = [0, 0, 1], [1, 2, 2]
        rule = 1.0 + (g1 / ((e[:, j] - e1) * (e[:, k] - e1))
                      + g2 / ((e[:, j] - e2) * (e[:, k] - e2)))
        # overlaps of the closed-form and the solver's quasimode-basis eigenvectors, level by level
        overlap = np.einsum("ikj,ikj->ij", vectors[n:].conj(), v)
        # per level, the quasimode column (Gamma / (E - eps), 1)
        raw = np.ones((n, 3, 3), dtype=complex)
        raw[:, :, :2] = gamma[:, None, :] / (e[:, :, None] - eps[:, None, :])
        # per level, the bare eigenvector over (atom, photon, phonon)
        states = threemode._bare_vectors(u, gamma, eps, e).swapaxes(1, 2)
        defect = np.matmul(bare[:, None], states[..., None])[..., 0] - states * e[:, :, None]
        amplitude_sq = np.square(_abs(states[:, :, 1:]))
        closed = np.stack(observables._occupations(p, e, resonant), axis=2)
        columns = {
            **{name: (margins[:, i], 0.0) for i, name in enumerate(_CHECKS[:4])},
            "quasimode-energies": (_max_abs(modes[0] - eps),
                                   tol.eps_match * np.maximum(1.0, block_scale)),
            "mixing-sum": (np.abs(np.square(two.m).sum(axis=1) - 1.0), tol.m_sum),
            "u-unitarity": (_max_abs(np.matmul(u_h, u) - _EYE2), tol.u_unitarity),
            "u-diagonalization": (_max_abs(np.matmul(np.matmul(u_h, blocks), u)
                                           - eps[:, :, None] * _EYE2),
                                  tol.u_diag * block_scale),
            "pole-identity": (_max_abs(((eps - wb[:, None]) * (eps - wc[:, None]) - ksq) / ksq),
                              tol.a1),
            "cross-product-identity": (
                _max_abs(((e1 - bare_freqs) * (e2 - bare_freqs) + ksq) / ksq), tol.a2),
            "eps1-positive": (eps[:, 0], 0.0),
            "dressed-levels": (_max_abs(values[:n] - e), tol.e_match * np.maximum(1.0, bare_scale)),
            "level-trace": (np.abs(e.sum(axis=1) - (wa + wb + wc)) / (wa + wb + wc), tol.trace),
            "cubic-roots": (_max_abs(threemode._phi(e, wa[:, None], e1, e2, g1, g2)
                                     / np.maximum(1.0, np.float_power(np.abs(e), 3.0))), tol.root),
            "v-unitarity": (spectrum.residual, tol.v_unitarity),
            "v-diagonalization": (_max_abs(np.matmul(np.matmul(v_h, quasi), v)
                                           - e[:, :, None] * _EYE3),
                                  tol.v_diag * np.maximum(1.0, bare_scale)),
            "column-orthogonality-rule": (_max_abs(rule), tol.b1),
            "normalizers": (_max_abs((n_norm - 1.0 / _norm(raw, 2)) / n_norm),
                            tol.n_norm),
            "eigenvector-match": (_max_abs(1.0 - _abs(overlap)), tol.eigvec),
            "eigenstate-residuals": (
                _max_abs(_norm(defect, 2)
                         / (bare_scale[:, None] * _norm(states, 2))), tol.eigenstate),
            "interlacing": (threemode._interlacing_margin(e, eps), 0.0),
            "occupation-amplitudes": (_max_abs((closed - amplitude_sq) / np.maximum(
                np.maximum(np.abs(closed), amplitude_sq), 1.0)), tol.occupation),
            **{f"sector-{ell}-spectrum": (_sector_residuals(p, modes, e, ell) if sector_runs
                                          else np.full(n, np.nan), tol.sector)
               for ell in sectors},
        }
        names = (*_CHECKS, *(f"sector-{ell}-spectrum" for ell in sectors))
        residual, tolerance = np.empty((2, n, len(names)))
        for c, name in enumerate(names):
            residual[:, c], tolerance[:, c] = columns[name]
        passed = np.where([name in _STRICT for name in names], residual > tolerance,
                          residual <= tolerance)

    reason = np.zeros((n, len(names)), dtype=np.int8)
    reason[:, :4] = _RECORDED
    reason[~solved, 1:_COLUMN["dressed-levels"]] = _DEGENERATE
    identities = slice(_COLUMN["pole-identity"], _COLUMN["eps1-positive"])
    reason[solved & (ak == 0.0), identities] = _UNCOUPLED
    reason[solved & (ak != 0.0) & (ksq[:, 0] == 0.0), identities] = _UNDERFLOW
    reason[solved & ~(margins[:, 0] > 0.0), _COLUMN["eps1-positive"]] = _SIGN_RECORDED
    reason[:, _COLUMN["dressed-levels"]:_COLUMN["occupation-amplitudes"]] = dressed[:, None]
    reason[:, _COLUMN["occupation-amplitudes"]] = np.where(
        checked, np.where(regime.ok, _RAN, _OFF_REGIME), _NO_SPECTRUM)
    reason[:, len(_CHECKS):] = sector[:, None]
    skipped = reason != _RAN
    # a recorded observation keeps its values but never gates the verdict
    blank = skipped & (reason != _RECORDED) & (reason != _SIGN_RECORDED)
    residual[blank] = tolerance[blank] = np.nan
    passed[blank] = True
    return _Checks(names, residual, tolerance, passed, skipped, reason, spectrum, regime, status)
