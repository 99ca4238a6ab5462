"""Brute-force verification path and closed-form cross-checks.

Everything here double-checks the closed forms through an independent
route: dense Hermitian diagonalization of the exact sector matrices and
an aggregate report that compares every closed-form quantity against the
solver output.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import darkstates, observables, threemode, twomode
from .errors import (
    AssumptionViolation,
    ConvergenceFailure,
    DarkTrioError,
    DegenerateTwoMode,
    NotHermitian,
    _Status,
)
from .model import (
    AtomKind,
    ModelParams,
    _assumption_margins,
    _assumption_report,
    _batch_of,
    _max_abs,
    one_excitation_matrix,
    sector_matrix,
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
    ass2: float = 1e-12           # effective-coupling zero floor
    classify: float = 1e-9        # dark/quasi-dark amplitude cutoff
    tuning: float = 1e-9          # tuning-condition residual
    duality: float = 1e-10        # occupation duality mismatch

    def override(self, updates: dict[str, float]) -> "Tolerances":
        names = {f.name for f in dataclasses.fields(self)}
        unknown = set(updates) - names
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        return dataclasses.replace(self, **updates)


def dense_hermitian_eig(matrix, *, hermitian_rtol: float = 1e-13) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, with result validation.

    Raises :class:`NotHermitian` when the input deviates from its own
    conjugate transpose by more than ``hermitian_rtol`` times its norm,
    and :class:`ConvergenceFailure` when the solver fails or returns a
    decomposition violating the residual/orthonormality bounds.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    values, vectors, status = _eigh(a[None], hermitian_rtol)
    status.check()
    return EigenDecomposition(values=values[0], vectors=vectors[0])


def _eigh(a: np.ndarray, hermitian_rtol: float = 1e-13):
    """:func:`dense_hermitian_eig` of every matrix in the stack ``a`` (n, d, d).

    Returns ascending values (n, d), eigenvector columns (n, d, d) and the
    per-matrix status.
    """
    n, dim = a.shape[0], a.shape[-1]
    status = _Status(n)
    flat = np.ascontiguousarray(a).view(float).reshape(n, -1)
    scale = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    deviation = _max_abs(a - a.conj().swapaxes(1, 2))
    status.fail(deviation > hermitian_rtol * np.maximum(scale, 1e-300), lambda i: NotHermitian(
        f"matrix deviates from Hermitian by {deviation[i]:.3e}"
    ))
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        # solve one by one, so only the matrices the solver fails on fail
        values, vectors = np.full((n, dim), np.nan), np.full(a.shape, np.nan, dtype=complex)
        for i in range(n):
            try:
                values[i], vectors[i] = np.linalg.eigh(a[i])
            except np.linalg.LinAlgError as err:
                status.fail(np.arange(n) == i, lambda _: ConvergenceFailure(
                    f"dense eigensolver failed: {err}"))
    residual = _max_abs(a @ vectors - vectors * values[:, None, :])
    ortho = _max_abs(vectors.conj().swapaxes(1, 2) @ vectors - np.eye(dim))
    status.fail((residual > 1e-11 * np.maximum(scale, 1.0)) | (ortho > 1e-12),
                lambda i: ConvergenceFailure(
                    f"decomposition out of tolerance (residual {residual[i]:.3e}, "
                    f"orthonormality {ortho[i]:.3e})"
                ))
    return values, vectors, status


def oscillator_sector_check(params: ModelParams, ell: int, *, tol: float = 1e-9,
                            max_dim: int = 10_000) -> ValidationReport:
    """Compare an exact sector spectrum with sums of dressed levels.

    For the oscillator atom the sector-``ell`` eigenvalues are exactly the
    sums ``n_1 E_1 + n_2 E_2 + n_3 E_3`` over occupations with total
    ``ell``; the sector matrix is exact, so no truncation error enters.
    Requires all four standing assumptions (raises
    :class:`AssumptionViolation` otherwise).
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
    return _sector_check(params, threemode._dressed(p, two).point(0).e, ell, tol, max_dim)


def _sector_check(params: ModelParams, levels, ell: int, tol: float,
                  max_dim: int = 10_000) -> ValidationReport:
    """:func:`oscillator_sector_check` against already solved dressed levels."""
    sector = sector_matrix(params, AtomKind.OSCILLATOR, ell, max_dim=max_dim)
    computed = np.sort(np.linalg.eigvalsh(sector.matrix))
    expected = np.sort([n1 * levels[0] + n2 * levels[1] + n3 * levels[2]
                        for n1, n2, n3 in sector.basis])
    residual = float(np.max(np.abs(computed - expected))) if len(expected) else 0.0
    check = CheckResult(
        name=f"sector-{ell}-spectrum",
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )
    return ValidationReport(checks=(check,))


def _phase_match(reference: np.ndarray, column: np.ndarray) -> float:
    overlap = np.vdot(reference, column)
    return abs(1.0 - abs(overlap))


def crosscheck(params: ModelParams, kind: AtomKind = AtomKind.TWO_LEVEL,
               tol: Tolerances = Tolerances()) -> ValidationReport:
    """Run every closed-form-versus-oracle comparison for one parameter set.

    Checks that need unavailable preconditions (degenerate photon-phonon
    block, vanishing effective coupling, failed positivity assumption,
    off-resonant or complex couplings for the occupation checks) are
    reported as skipped with a reason instead of failing.
    """
    checks: list[CheckResult] = []

    def add(name: str, residual: float, tolerance: float, passed: bool | None = None):
        if passed is None:
            passed = residual <= tolerance
        checks.append(CheckResult(name, float(residual), float(tolerance), bool(passed)))

    def skip(name: str, reason: str):
        checks.append(CheckResult(name, math.nan, math.nan, True, skipped=True, reason=reason))

    def note(name: str, margin: float, holds: bool, reason: str):
        # recorded observation: never gates the overall verdict
        checks.append(CheckResult(name, float(margin), 0.0, bool(holds),
                                  skipped=True, reason=reason))

    # standing assumptions: margins are recorded, dependent checks skip on failure
    p = _batch_of(params)
    solved = twomode._two_mode(p)
    try:
        two = solved.point(0)
    except DegenerateTwoMode as err:
        note("assumption-1", err.ass1.margin, err.ass1.passed,
             "standing assumption, margin recorded")
        for name in ("assumption-2", "assumption-3", "assumption-4"):
            skip(name, "degenerate photon-phonon block")
        assumptions_pass = False
        for name in ("quasimode-energies", "mixing-sum", "u-unitarity", "u-diagonalization",
                     "pole-identity", "cross-product-identity", "eps1-positive"):
            skip(name, "degenerate photon-phonon block")
        two = None
    else:
        report = _assumption_report(_assumption_margins(p, solved, tol.ass2)[0])
        for i in (1, 2, 3, 4):
            check = getattr(report, f"ass{i}")
            note(f"assumption-{i}", check.margin, check.passed,
                 "standing assumption, margin recorded")
        assumptions_pass = report.all_pass

    ak = abs(params.kappa)
    if two is not None:
        block = twomode.rwa_block_matrix(params)
        block_scale = float(np.linalg.norm(block))
        solver = np.linalg.eigvalsh(block)
        add("quasimode-energies", float(np.max(np.abs(solver - np.array(two.eps)))),
            tol.eps_match * max(1.0, block_scale))
        add("mixing-sum", abs(two.m[0] ** 2 + two.m[1] ** 2 - 1.0), tol.m_sum)
        add("u-unitarity", float(np.max(np.abs(two.u.conj().T @ two.u - np.eye(2)))),
            tol.u_unitarity)
        diag = two.u.conj().T @ block @ two.u
        add("u-diagonalization",
            float(np.max(np.abs(diag - np.diag(two.eps)))), tol.u_diag * block_scale)
        ksq = ak * ak
        if ak == 0.0:
            skip("pole-identity", "no photon-phonon coupling")
            skip("cross-product-identity", "no photon-phonon coupling")
        elif ksq == 0.0:
            # both identities are relative to |kappa|^2
            skip("pole-identity", "|kappa|^2 underflows to 0")
            skip("cross-product-identity", "|kappa|^2 underflows to 0")
        else:
            a1_res = max(
                abs((two.eps[j] - params.omega_b) * (two.eps[j] - params.omega_c) - ksq) / ksq
                for j in range(2)
            )
            add("pole-identity", a1_res, tol.a1)
            a2_res = max(
                abs((two.eps[0] - w) * (two.eps[1] - w) + ksq) / ksq
                for w in (params.omega_b, params.omega_c)
            )
            add("cross-product-identity", a2_res, tol.a2)
        if report.ass1.passed:
            # theorem under the positivity assumption: gate on it
            add("eps1-positive", two.eps[0], 0.0, two.eps[0] > 0.0)
        else:
            note("eps1-positive", two.eps[0], two.eps[0] > 0.0,
                 "positivity assumption violated; sign detection recorded")

    three_names = (
        "dressed-levels", "level-trace", "cubic-roots", "v-unitarity",
        "v-diagonalization", "column-orthogonality-rule", "normalizers",
        "eigenvector-match", "eigenstate-residuals", "interlacing",
    )
    gamma_ok = two is not None and min(abs(two.gamma[0]), abs(two.gamma[1])) > \
        tol.ass2 * max(abs(params.lam), abs(params.xi), ak, 1.0)
    ass1_ok = two is not None and two.eps[0] > 0.0

    spectrum = None
    if two is None:
        for name in three_names:
            skip(name, "degenerate photon-phonon block")
    elif not ass1_ok:
        for name in three_names:
            skip(name, "lower quasimode energy is not positive")
    elif not gamma_ok:
        for name in three_names:
            skip(name, "an effective coupling vanishes")
    else:
        try:
            spectrum = threemode._dressed(p, solved).point(0)
        except DarkTrioError as err:
            for name in three_names:
                skip(name, f"dressed spectrum unavailable: {err}")
    if spectrum is not None:
        bare = one_excitation_matrix(params).matrix
        bare_scale = float(np.linalg.norm(bare))
        solver = dense_hermitian_eig(bare)
        levels = np.array(spectrum.e)
        add("dressed-levels", float(np.max(np.abs(solver.values - levels))),
            tol.e_match * max(1.0, bare_scale))
        freq_sum = params.omega_a + params.omega_b + params.omega_c
        add("level-trace", abs(levels.sum() - freq_sum) / freq_sum, tol.trace)
        gsq = threemode._gamma_sq(two.gamma)
        add("cubic-roots",
            max(abs(threemode._phi(e, params.omega_a, *two.eps, *gsq)) / max(1.0, abs(e) ** 3)
                for e in spectrum.e),
            tol.root)
        add("v-unitarity",
            float(np.max(np.abs(spectrum.v.conj().T @ spectrum.v - np.eye(3)))),
            tol.v_unitarity)
        quasi = threemode.quasi_basis_matrix(params, two)
        diag = spectrum.v.conj().T @ quasi @ spectrum.v
        add("v-diagonalization", float(np.max(np.abs(diag - np.diag(levels)))),
            tol.v_diag * max(1.0, bare_scale))
        b1_res = max(
            abs(1.0 + sum(gsq[nu] / ((spectrum.e[j] - two.eps[nu]) * (spectrum.e[k] - two.eps[nu]))
                          for nu in range(2)))
            for j in range(3) for k in range(3) if j != k
        )
        add("column-orthogonality-rule", b1_res, tol.b1)

        n_res = 0.0
        vec_res = 0.0
        state_res = 0.0
        quasi_solver = dense_hermitian_eig(quasi)
        states = spectrum.bare_vectors
        for j, level in enumerate(spectrum.e):
            raw = np.array([
                two.gamma[0] / (level - two.eps[0]),
                two.gamma[1] / (level - two.eps[1]),
                1.0,
            ])
            n_res = max(n_res, abs(spectrum.n_norm[j] - 1.0 / np.linalg.norm(raw))
                        / spectrum.n_norm[j])
            vec_res = max(vec_res, _phase_match(quasi_solver.vectors[:, j], spectrum.v[:, j]))
            darkstates._check_level(level, params.omega_a, two, tol=1e-6)
            defect = bare @ states[:, j] - level * states[:, j]
            state_res = max(state_res, float(np.linalg.norm(defect))
                            / (bare_scale * float(np.linalg.norm(states[:, j]))))
        add("normalizers", n_res, tol.n_norm)
        add("eigenvector-match", vec_res, tol.eigvec)
        add("eigenstate-residuals", state_res, tol.eigenstate)

        margins = (
            spectrum.e[0],
            two.eps[0] - spectrum.e[0],
            spectrum.e[1] - two.eps[0],
            two.eps[1] - spectrum.e[1],
            spectrum.e[2] - two.eps[1],
        )
        add("interlacing", min(margins), 0.0, min(margins) > 0.0)

    if spectrum is None:
        skip("occupation-amplitudes", "dressed spectrum unavailable")
    else:
        status = _Status(1)
        regime = observables._occupation_regime(p, status)
        occupations = observables._occupations(p, np.array([spectrum.e]), 1e-10, solved, regime,
                                               status)
        if status.code[0]:
            skip("occupation-amplitudes", f"outside the resonant real regime: {status.error(0)}")
        else:
            occ_res = 0.0
            for j in range(3):
                closed_forms = (occupations[0][0, j], occupations[1][0, j])
                for closed, amp in zip(closed_forms, states[1:, j]):
                    # relative with a unit floor: tuned points have occupation 0
                    scale = max(abs(closed), abs(amp) ** 2, 1.0)
                    occ_res = max(occ_res, abs(closed - abs(amp) ** 2) / scale)
            add("occupation-amplitudes", occ_res, tol.occupation)

    if kind is not AtomKind.OSCILLATOR:
        skip("sector-2-spectrum", "level sums apply to the oscillator atom")
    elif spectrum is None or not assumptions_pass:
        skip("sector-2-spectrum", "standing assumptions not satisfied")
    else:
        checks.extend(_sector_check(params, spectrum.e, 2, tol.sector).checks)

    return ValidationReport(checks=tuple(checks))
