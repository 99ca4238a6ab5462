"""Dense diagonalization oracle and cross-checks."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from darktrio import (
    AssumptionViolation,
    AtomKind,
    ConvergenceFailure,
    DarkTrioError,
    ModelParams,
    NotHermitian,
    Tolerances,
    classify_spectrum,
    crosscheck,
    dense_hermitian_eig,
    oscillator_sector_check,
    sector_matrix,
    three_mode_spectrum,
)

from darktrio import model, oracle, threemode, twomode
from darktrio.oracle import _REASONS, _crosscheck

from _generators import random_hermitian, stack, valid_batch, valid_params, weak_coupling_batch

FIXTURE = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)
FIXTURE_LEVELS = (0.7930295020247184, 0.9607532983742692, 1.2462171996010124)


def test_eig_diagonal():
    out = dense_hermitian_eig(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out.values, [1.0, 2.0, 3.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(out.vectors), np.eye(3), atol=1e-14)


def test_eig_spin_flip_block():
    out = dense_hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-14)


def test_eig_fixture_matches_frozen_roots():
    out = dense_hermitian_eig(sector_matrix(FIXTURE, AtomKind.TWO_LEVEL, 1).matrix)
    np.testing.assert_allclose(out.values, FIXTURE_LEVELS, rtol=0, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        dense_hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_hermitian_threshold_from_both_sides():
    # an input may deviate from Hermitian by up to 1e-13 of its Frobenius norm
    a = np.diag([1.0, 2.0]).astype(complex)
    threshold = 1e-13 * np.linalg.norm(a)
    a[1, 0] = 1.1 * threshold
    with pytest.raises(NotHermitian):
        dense_hermitian_eig(a)
    a[1, 0] = 0.9 * threshold
    np.testing.assert_allclose(dense_hermitian_eig(a).values, [1.0, 2.0], rtol=0, atol=1e-12)


#: a point whose bare matrix holds -1.8e308 twice: its Frobenius norm overflows
FLOAT_MAX_XI = ModelParams(1.0, 0.33, 1.0, 0.2, -1.7976931348623157e308, 0.1)


def test_eig_bounds_stay_finite_where_the_norm_overflows(monkeypatch):
    # the solve passes its finite bounds; an eigenvector turned by 1e-6 at
    # that scale leaves a residual of about 1e302, far past them
    assert len(classify_spectrum(FLOAT_MAX_XI)) == 3
    matrix = sector_matrix(FLOAT_MAX_XI, AtomKind.TWO_LEVEL, 1).matrix
    solve = model._eigensolve

    def turned(*args, **kwargs):
        values, vectors = solve(*args, **kwargs)
        c, s = np.cos(1e-6), np.sin(1e-6)
        first, last = vectors[..., 0].copy(), vectors[..., 2].copy()
        vectors[..., 0], vectors[..., 2] = c * first - s * last, s * first + c * last
        return values, vectors

    monkeypatch.setattr(model, "_eigensolve", turned)
    with pytest.raises(ConvergenceFailure, match="decomposition out of tolerance"):
        dense_hermitian_eig(matrix)
    with pytest.raises(ConvergenceFailure):
        classify_spectrum(FLOAT_MAX_XI)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_rejects_a_non_finite_entry_by_name(bad):
    a = np.eye(3, dtype=complex)
    a[0, 2] = a[2, 0] = bad
    with pytest.raises(NotHermitian, match="non-finite entry"):
        dense_hermitian_eig(a)
    a[0, 2] = complex(1.0, bad)
    with pytest.raises(NotHermitian, match="non-finite entry"):
        dense_hermitian_eig(a)


def test_eig_non_finite_matrix_fails_only_its_point():
    stack = np.array([np.eye(2), [[1.0, np.nan], [np.nan, 1.0]], np.diag([1e200, -1e200])],
                     dtype=complex)
    values, _, status = oracle._eigh(stack)
    assert status.code.tolist()[::2] == [0, 0] and status.code[1] != 0
    assert values[2].tolist() == [-1e200, 1e200]


def _failing_eigh(monkeypatch, fails, name="eigh"):
    """Make the eigensolver ``np.linalg.<name>`` raise on stacks of several
    matrices and on every stack of one whose matrix ``fails`` accepts."""
    solve = getattr(np.linalg, name)

    def failing(a):
        if len(a) > 1 or fails(a[0]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(a)

    monkeypatch.setattr(np.linalg, name, failing)


def test_a_failing_stack_goes_on_as_its_halves_unsolved(monkeypatch):
    # LAPACK fails on every stack that holds the matrix with 2.0 in its first entry
    from darktrio.errors import _Status

    calls, solve = [], np.linalg.eigvalsh

    def failing(a):
        calls.append(len(a))
        if (a[:, 0, 0] == 2.0).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    stack = np.array([np.diag([w, 5.0]) for w in (0.0, 1.0, 2.0, 3.0)])
    status = _Status(4)
    values = model._eigensolve(stack, status, vectors=False)
    # the stack, its halves (2, 3) and (0, 1), and the halves of (2, 3): none twice
    assert calls == [4, 2, 1, 1, 2]
    np.testing.assert_array_equal(values[[0, 1, 3]], [[0.0, 5.0], [1.0, 5.0], [3.0, 5.0]])
    assert np.isnan(values[2]).all() and status.code.tolist()[::3] == [0, 0]
    with pytest.raises(ConvergenceFailure, match="^dense eigensolver failed: Eigenvalues did not"):
        status.check(2)
    # a single matrix fails at once
    calls.clear()
    single = _Status(1)
    assert np.isnan(model._eigensolve(stack[2:3], single, vectors=False)).all()
    assert calls == [1] and single.code[0] != 0
    # with a point left out: the rest (0, 2, 3), then (3), (0, 2), (2) and (0)
    calls.clear()
    model._eigensolve(stack, _Status(4), np.array([True, False, True, True]), vectors=False)
    assert calls == [3, 1, 2, 1, 1]


def test_eig_solver_failure_is_convergence_failure(monkeypatch):
    _failing_eigh(monkeypatch, lambda a: True)
    with pytest.raises(ConvergenceFailure, match="dense eigensolver failed: Eigenvalues did not"):
        dense_hermitian_eig(np.eye(3))
    with pytest.raises(ConvergenceFailure):
        classify_spectrum(FIXTURE)


def test_eig_solver_failure_fails_only_its_point(monkeypatch, tmp_path, capsys):
    import dataclasses
    import json

    from darktrio.cli import main
    from darktrio.oracle import _eigh

    # the atom frequency sits in the first diagonal entry
    _failing_eigh(monkeypatch, lambda a: a[0, 0].real == 1.0)
    stack = np.array([sector_matrix(dataclasses.replace(FIXTURE, omega_a=w), AtomKind.TWO_LEVEL,
                                    1).matrix
                      for w in (0.9, 1.0, 1.1)])
    values, _, status = _eigh(stack)
    assert status.code.tolist()[::2] == [0, 0] and status.code[1] != 0
    with pytest.raises(ConvergenceFailure, match="dense eigensolver failed"):
        status.check(1)
    np.testing.assert_array_equal(values[0], dense_hermitian_eig(stack[0]).values)

    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"omega_a": 0.9, "omega_b": 1.0, "omega_c": 1.0, "lambda": 0.2,
                                  "xi": 0.05, "kappa": 0.1,
                                  "scan": [{"param": "omega_a", "start": 0.9, "stop": 1.1,
                                            "steps": 3}]}))
    assert main(["scan", "classify", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {row["status"] for row in rows if row["omega_a"] == 1.0} == {"ConvergenceFailure"}
    assert {row["status"] for row in rows if row["omega_a"] != 1.0} == {"ok"}


@pytest.mark.filterwarnings("error")
def test_a_decomposition_with_nan_values_fails(tmp_path, capsys):
    import json

    from darktrio.cli import main

    # LAPACK returns NaN values without an error where |z| of an entry
    # overflows; NaN is beyond no bound, so a decomposition passes only where
    # its residual and orthonormality are shown to be within theirs
    with pytest.raises(ConvergenceFailure, match="out of tolerance"):
        dense_hermitian_eig(np.array([[1, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 1]]))
    with pytest.raises(ConvergenceFailure, match="out of tolerance"):
        classify_spectrum(ModelParams(1, 1, 1, 1.5e308 + 1.5e308j, 0.05, 0.1))

    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"lambda": [1.5e308, 1.5e308], "scan": [
        {"param": "xi", "start": 0.05, "stop": 0.1, "steps": 2}]}))
    assert main(["scan", "classify", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["status"] for row in rows] == ["ConvergenceFailure"] * 2


def test_a_failed_photon_phonon_solve_fails_only_its_point(monkeypatch):
    points = [ModelParams(1.02, 1.0, 1.0, 0.2, 0.05, 0.1),
              ModelParams(1.1, 0.9, 1.0, 0.2, 0.05, 0.1)]
    alone = _crosscheck(stack(points[1:]), AtomKind.OSCILLATOR, Tolerances())
    # omega_b sits in the first entry of the photon-phonon block
    _failing_eigh(monkeypatch, lambda a: a.shape == (2, 2) and a[0, 0].real == 1.0)
    checks = _crosscheck(stack(points), AtomKind.OSCILLATOR, Tolerances())
    with pytest.raises(ConvergenceFailure, match="^dense eigensolver failed: Eigenvalues did not"):
        checks.status.check(0)
    assert checks.status.code[1] == 0
    np.testing.assert_array_equal(checks.residual[1], alone.residual[0])


def test_a_benign_scan_makes_no_lapack_call(monkeypatch, tmp_path):
    from darktrio.cli import main

    # 10 x 100 points of lambda x xi, each with a trigonometric start inside its bracket
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({
        "omega_a": 1.02, "omega_b": 1.0, "omega_c": 1.0, "kappa": 0.1,
        "scan": [{"param": "lambda", "start": 0.00125, "stop": 0.0125, "steps": 10},
                 {"param": "xi", "start": 0.2, "stop": 0.3, "steps": 100}]}))

    def scans():
        for operation in ("spectrum", "duality"):
            out = tmp_path / f"{operation}.csv"
            assert main(["scan", operation, "--config", str(config), "--format", "csv",
                         "--output", str(out)]) == 0
            yield out.read_bytes()

    before = list(scans())

    def unreachable(a):
        raise AssertionError("LAPACK was called")

    monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
    assert list(scans()) == before


#: a point whose trigonometric start comes within 1e-8 of a quasimode energy (the
#: photon's level, with |Gamma_1| about 1e-6), so it starts from LAPACK's eigenvalues
FALLBACK = ModelParams(1.0, 1.3, 1.6, 1e-6, 0.05, 1e-9)


def test_a_failed_fallback_solve_fails_only_its_point(monkeypatch, tmp_path, capsys):
    from darktrio.cli import main

    p = stack([dataclasses.replace(FALLBACK, omega_a=w) for w in (0.9, 1.0, 1.1)])
    before = threemode._dressed(p, twomode._two_mode(p))
    # the atom frequency sits in the last diagonal entry of the quasimode-basis matrix
    _failing_eigh(monkeypatch, lambda a: a[2, 2].real == 1.0, "eigvalsh")
    after = threemode._dressed(p, twomode._two_mode(p))
    with pytest.raises(ConvergenceFailure, match="^dense eigensolver failed: Eigenvalues did not"):
        after.status.check(1)
    assert before.status.ok.all() and after.status.code[::2].tolist() == [0, 0]
    for name in ("e", "n_norm", "r"):
        assert getattr(after, name)[::2].tobytes() == getattr(before, name)[::2].tobytes()
    unitaries = [threemode._unitary(s.two.gamma[::2], s.r[::2], s.n_norm[::2])
                 for s in (before, after)]
    assert unitaries[1].tobytes() == unitaries[0].tobytes()

    point = {"omega_a": 1.0, "omega_b": 1.3, "omega_c": 1.6, "lambda": 1e-6, "xi": 0.05,
             "kappa": 1e-9}
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(dict(point, scan=[
        {"param": "omega_a", "start": 0.9, "stop": 1.1, "steps": 3}])))
    assert main(["scan", "spectrum", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]
    assert [row["status"] for row in rows] == ["ok", "ConvergenceFailure", "ok"]
    assert captured.err == ""
    config.write_text(json.dumps(point))
    assert main(["spectrum", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["rows"][0]["status"] == "ConvergenceFailure"
    assert captured.err == ""


def test_a_failed_sector_solve_fails_only_its_point(monkeypatch):
    points = [ModelParams(1.02, 1.0, 1.0, 0.2, 0.05, 0.1),
              ModelParams(1.1, 0.9, 1.0, 0.2, 0.05, 0.1)]
    alone = _crosscheck(stack(points[1:]), AtomKind.OSCILLATOR, Tolerances())
    # the sector-2 matrix starts with the two atom quanta, 2 omega_a
    _failing_eigh(monkeypatch, lambda a: a[0, 0] == 2 * 1.02, "eigvalsh")
    checks = _crosscheck(stack(points), AtomKind.OSCILLATOR, Tolerances())
    with pytest.raises(ConvergenceFailure, match="^dense eigensolver failed: Eigenvalues did not"):
        checks.status.check(0)
    assert checks.status.code[1] == 0
    np.testing.assert_array_equal(checks.residual[1], alone.residual[0])


def test_a_point_whose_norm_overflows_leaves_the_oscillator_batch_standing():
    # point 1's sector matrix would be infinite; it skips its sector check,
    # which leaves it out of the stacked sector solve
    points = [ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1), FLOAT_MAX_XI]
    checks = _crosscheck(stack(points), AtomKind.OSCILLATOR, Tolerances(), (2,))
    for i, params in enumerate(points):
        report = crosscheck(params, AtomKind.OSCILLATOR)
        alone = np.array([check.residual for check in report.checks])
        assert alone.tobytes() == checks.residual[i].tobytes()
        assert [check.reason for check in report.checks] == checks.reasons(i)
    assert checks.names[-1] == "sector-2-spectrum"
    assert checks.residual[0, -1] == 8.881784197001252e-16
    assert checks.skipped[1, -1] and checks.reasons(1)[-1] == "standing assumptions not satisfied"


def test_eig_invariants_random():
    rng = np.random.default_rng(71)
    for dim in (2, 3, 5, 8):
        a = random_hermitian(rng, dim)
        out = dense_hermitian_eig(a)
        scale = np.linalg.norm(a)
        assert np.max(np.abs(a @ out.vectors - out.vectors * out.values)) < 1e-11 * scale
        assert np.max(np.abs(out.vectors.conj().T @ out.vectors - np.eye(dim))) < 1e-12
        assert np.all(np.diff(out.values) >= 0.0)


def test_eig_values_independent_of_basis_order():
    rng = np.random.default_rng(72)
    a = random_hermitian(rng, 4)
    perm = rng.permutation(4)
    out_a = dense_hermitian_eig(a)
    out_b = dense_hermitian_eig(a[np.ix_(perm, perm)])
    np.testing.assert_allclose(out_a.values, out_b.values, atol=1e-12)


def test_sector_check_small_sectors():
    for ell in (0, 1, 2, 3):
        report = oscillator_sector_check(FIXTURE, ell)
        assert report.passed, report.checks


def test_sector_check_example_multiset():
    levels = three_mode_spectrum(FIXTURE).e
    sector = sector_matrix(FIXTURE, AtomKind.OSCILLATOR, 2)
    computed = np.sort(np.linalg.eigvalsh(sector.matrix))
    expected = np.sort([
        2 * levels[0], levels[0] + levels[1], 2 * levels[1],
        levels[0] + levels[2], levels[1] + levels[2], 2 * levels[2],
    ])
    np.testing.assert_allclose(computed, expected, rtol=0, atol=1e-9)


def test_sector_check_requires_assumptions():
    with pytest.raises(AssumptionViolation):
        oscillator_sector_check(ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 1.5), 2)


#: an oscillator point whose standing assumptions all hold, but whose dressed
#: levels are too close for the closed forms to solve
WEAK_COUPLING = ModelParams(1.0, 1.0, 1.3, 2e-12, 2e-12, 0.0)


def test_sector_row_gives_the_unsolved_spectrum_reason():
    from darktrio import DegenerateSpectrum, validate

    assert validate(WEAK_COUPLING).all_pass
    with pytest.raises(DegenerateSpectrum):
        oscillator_sector_check(WEAK_COUPLING, 2)
    rows = {c.name: c for c in crosscheck(WEAK_COUPLING, AtomKind.OSCILLATOR).checks}
    sector, dressed = rows["sector-2-spectrum"], rows["dressed-levels"]
    assert sector.skipped and dressed.skipped
    assert sector.reason == dressed.reason
    assert sector.reason.startswith("dressed spectrum unavailable: dressed levels")


def test_two_level_sector_is_not_a_level_sum():
    # the spin sector spectrum must differ from bosonic level sums
    p = ModelParams(1.1, 0.9, 1.3, 0.31, 0.17, 0.23)
    levels = three_mode_spectrum(p).e
    sums = np.sort([
        2 * levels[0], levels[0] + levels[1], 2 * levels[1],
        levels[0] + levels[2], levels[1] + levels[2], 2 * levels[2],
    ])
    sector = sector_matrix(p, AtomKind.TWO_LEVEL, 2)
    computed = np.sort(np.linalg.eigvalsh(sector.matrix))
    assert computed.shape == (5,)
    best = max(
        np.min(np.abs(sums - value)) for value in computed
    )
    assert best > 1e-3  # at least one spin level is far from every bosonic sum


def test_crosscheck_fixture_passes():
    for kind in AtomKind:
        report = crosscheck(FIXTURE, kind)
        assert report.passed, report.failures()
        assert not report.failures()


def test_crosscheck_decoupled_atom_skips():
    report = crosscheck(ModelParams(1.0, 1.0, 1.2, 0.0, 0.0, 0.2))
    assert report.passed  # nothing checkable failed; the rest is annotated
    by_name = {c.name: c for c in report.checks}
    assert by_name["assumption-2"].skipped and not by_name["assumption-2"].passed
    skipped = {c.name for c in report.checks if c.skipped}
    assert "dressed-levels" in skipped
    assert "v-unitarity" in skipped
    ran = {c.name for c in report.checks if not c.skipped}
    assert "quasimode-energies" in ran
    assert "u-unitarity" in ran


def test_crosscheck_records_positivity_failure():
    report = crosscheck(ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 1.5))
    by_name = {c.name: c for c in report.checks}
    assert not by_name["assumption-1"].passed
    assert not by_name["eps1-positive"].passed
    assert by_name["eps1-positive"].residual <= 0.0  # negative energy detected
    assert by_name["dressed-levels"].skipped
    assert report.passed  # recorded detections do not gate the verdict


@pytest.mark.parametrize("kappa", [5e-324, 1e-300, 1e-170])
def test_crosscheck_skips_identities_when_kappa_squared_underflows(kappa):
    # detuned photon and phonon with 0 < |kappa|^2 < the smallest float:
    # the pole and cross-product identities are relative to |kappa|^2
    for kind in AtomKind:
        report = crosscheck(ModelParams(0.8, 0.8, 1.0, 0.1, 0.2, kappa), kind)
        by_name = {c.name: c for c in report.checks}
        for name in ("pole-identity", "cross-product-identity"):
            assert by_name[name].skipped
            assert "underflows" in by_name[name].reason
        assert not by_name["quasimode-energies"].skipped


def test_crosscheck_random_points():
    rng = np.random.default_rng(74)
    for _ in range(10):
        p = valid_params(rng, require_all=True)
        report = crosscheck(p, AtomKind.OSCILLATOR)
        assert report.passed, report.failures()


def test_tolerance_override_unknown_name():
    from darktrio import Tolerances

    with pytest.raises(KeyError):
        Tolerances().override({"nope": 1.0})
    assert Tolerances().override({"b1": 1e-8}).b1 == 1e-8


#: points that reach every skip reason of the cross-check between them
BRANCH_POINTS = (
    ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1),  # every check runs
    ModelParams(1.0, 1.0, 1.0, 0.2, 0.1, 0.0),  # degenerate photon-phonon block
    ModelParams(1.1, 1.0, 1.4, 0.2, 0.1, 0.0),  # no photon-phonon coupling
    ModelParams(0.8, 0.8, 1.0, 0.1, 0.2, 1e-300),  # |kappa|^2 underflows
    ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 1.5),  # lower quasimode energy not positive
    ModelParams(1.1, 1.0, 1.0, 0.1, 0.1, 0.1),  # an effective coupling vanishes
    ModelParams(1.1, 1.0, 1.0, 0.2, 0.19, 0.1),  # vanishes at tol.ass2 = 0.05
    ModelParams(1.0, 1.0, 1.3, 2e-12, 2e-12, 0.0),  # dressed levels too close
    ModelParams(1.05, 1.0, 1.0, 0.2, 0.05, -0.1),  # outside the resonant real regime
    ModelParams(1.1, 1.0, 1.2, 1e-5, 0.2, 0.0),  # v-unitarity and the sum rule fail
    ModelParams(1.1, 1.0, 1.2, 3e-6, 0.2, 0.0),  # a level within 1e-10 of a quasimode energy
)
TOLERANCES = (Tolerances(), Tolerances(ass2=0.05))


def test_branch_points_reach_every_skip_reason_and_no_raise():
    reasons, raised = set(), set()
    for kind in AtomKind:
        for tol in TOLERANCES:
            checks = _crosscheck(stack(BRANCH_POINTS), kind, tol)
            reasons |= set(checks.reason[checks.status.ok].ravel().tolist())
            raised |= {type(checks.status.error(i))
                       for i in np.flatnonzero(~checks.status.ok).tolist()}
    assert reasons == set(range(len(_REASONS)))
    assert raised == set()


def test_crosscheck_raises_only_for_the_dense_solver_at_weak_couplings():
    # weak couplings put dressed levels within 1e-10 of a quasimode energy,
    # where |d1| at a correct level can exceed 1e-6; the report's rows judge
    # such levels, and no point is refused
    batch = weak_coupling_batch()
    for kind in AtomKind:
        checks = _crosscheck(batch, kind, Tolerances())
        assert checks.status.ok.all(), [
            str(checks.status.error(i)) for i in np.flatnonzero(~checks.status.ok)[:3].tolist()]


def _coupling():
    return st.one_of(st.sampled_from((0.0, 1e-300, 1e-9, 0.05, -0.1, 0.2)), st.floats(-0.6, 0.6),
                     st.builds(complex, st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)))


@st.composite
def _points(draw):
    omega_b = draw(st.floats(0.5, 1.5))
    omega_c = draw(st.one_of(st.just(omega_b), st.floats(0.5, 1.5)))
    omega_a = draw(st.one_of(st.just(omega_b), st.floats(0.5, 1.5)))
    xi = draw(_coupling())
    lam = draw(st.one_of(st.just(xi), st.just(-xi), _coupling()))
    return ModelParams(omega_a, omega_b, omega_c, lam, xi, draw(_coupling()))


def _bits(row):
    return tuple(cell.hex() if isinstance(cell, float) else cell for cell in row)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(points=st.lists(st.one_of(st.sampled_from(BRANCH_POINTS), _points()),
                       min_size=1, max_size=12),
       kind=st.sampled_from(list(AtomKind)), tol=st.sampled_from(TOLERANCES),
       sectors=st.sampled_from(((2,), (2, 3))))
@example(points=list(BRANCH_POINTS), kind=AtomKind.TWO_LEVEL, tol=TOLERANCES[0], sectors=(2, 3))
@example(points=list(BRANCH_POINTS), kind=AtomKind.OSCILLATOR, tol=TOLERANCES[0], sectors=(2, 3))
@example(points=list(BRANCH_POINTS), kind=AtomKind.OSCILLATOR, tol=TOLERANCES[1], sectors=(2, 3))
# 1 / |kappa| overflows: d_j / kappa may not go through numpy's complex division
@example(points=[ModelParams(0.75, 0.75, 1.0, 0j, 0j, 2.225073858507203e-309 + 0j)],
         kind=AtomKind.TWO_LEVEL, tol=TOLERANCES[0], sectors=(2,))
def test_batch_rows_equal_single_point_crosschecks(points, kind, tol, sectors):
    # a point's row may not depend on the other points of its batch
    checks = _crosscheck(stack(points), kind, tol, sectors)
    for i, params in enumerate(points):
        try:
            report = crosscheck(params, kind, tol)
        except DarkTrioError as err:
            got = checks.status.error(i) if checks.status.code[i] else None
            assert (type(got), str(got)) == (type(err), str(err))
            continue
        assert not checks.status.code[i]
        rows = [_bits(row) for row in zip(
            checks.names, checks.residual[i].tolist(), checks.tolerance[i].tolist(),
            checks.passed[i].tolist(), checks.skipped[i].tolist(), checks.reasons(i))]
        sector3 = rows.pop() if sectors == (2, 3) else None
        assert rows == [_bits(dataclasses.astuple(c)) for c in report.checks]
        if sector3 is None:
            continue
        # the sector-3 row runs where sector 2 does, and then is the public check's row
        assert sector3[0] == "sector-3-spectrum"
        if rows[-1][4]:
            assert sector3[1:] == rows[-1][1:]
        else:
            single = oscillator_sector_check(params, 3, tol=tol.sector).checks[0]
            assert sector3 == _bits(dataclasses.astuple(single))


def test_crosscheck_passes_on_ten_thousand_random_points():
    batch = valid_batch(np.random.default_rng(75), 10_000, require_all=True)
    for kind in AtomKind:
        checks = _crosscheck(batch, kind, Tolerances())
        assert checks.status.ok.all()
        failed = ~checks.skipped & ~checks.passed
        assert not failed.any(), [(checks.names[c], checks.residual[i, c])
                                  for i, c in np.argwhere(failed)]
        # the points are valid: every two- and three-mode check runs
        assert not checks.skipped[:, 4:checks.names.index("occupation-amplitudes")].any()
