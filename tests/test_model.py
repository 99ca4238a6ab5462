"""Parameter validation, assumption checks, and sector matrix construction."""

import tracemalloc
import warnings

import numpy as np
import pytest

from darktrio import (
    AtomKind,
    DegenerateTwoMode,
    ModelParams,
    SizeLimit,
    oscillator_sector_check,
    sector_basis,
    sector_matrix,
    validate,
)

from darktrio.model import _max_abs, _sector_layout
from darktrio.twomode import _two_mode

from _generators import stack, valid_params

FIXTURE = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)


def test_frequencies_must_be_positive_and_finite():
    with pytest.raises(ValueError):
        ModelParams(0.0, 1.0, 1.0, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1.0, -2.0, 1.0, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1.0, float("inf"), 1.0, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 1.0, complex("nan"), 0.1, 0.1)


#: sector 1 of FIXTURE over (atom, photon, phonon)
FIXTURE_SECTOR_1 = np.array([[1.0, 0.2, 0.05], [0.2, 1.0, 0.1], [0.05, 0.1, 1.0]], dtype=complex)


def test_one_excitation_matrix_real_couplings():
    np.testing.assert_array_equal(sector_matrix(FIXTURE, AtomKind.TWO_LEVEL, 1).matrix,
                                  FIXTURE_SECTOR_1)


def test_one_excitation_matrix_decoupled_is_diagonal():
    p = ModelParams(1.0, 2.0, 3.0, 0.0, 0.0, 0.0)
    np.testing.assert_array_equal(
        sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix, np.diag([1.0, 2.0, 3.0]).astype(complex)
    )


def test_one_excitation_matrix_imaginary_kappa():
    p = ModelParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.1j)
    h = sector_matrix(p, AtomKind.TWO_LEVEL, 1).matrix
    assert h[1, 2] == -0.1j
    assert h[2, 1] == 0.1j


@pytest.mark.parametrize("kind", list(AtomKind))
def test_sector_one_matches_one_excitation(kind):
    sector = sector_matrix(FIXTURE, kind, 1)
    np.testing.assert_array_equal(sector.matrix, FIXTURE_SECTOR_1)
    assert sector.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("kind", list(AtomKind))
def test_sector_zero_is_vacuum(kind):
    sector = sector_matrix(FIXTURE, kind, 0)
    np.testing.assert_array_equal(sector.matrix, np.zeros((1, 1), dtype=complex))


def test_two_level_sector_two_ladder_factor():
    kappa = 0.1 + 0.0j
    sector = sector_matrix(FIXTURE, AtomKind.TWO_LEVEL, 2)
    assert sector.matrix.shape == (5, 5)
    i = sector.basis.index((0, 2, 0))
    j = sector.basis.index((0, 1, 1))
    assert sector.matrix[i, j] == np.sqrt(2) * np.conj(kappa)


@pytest.mark.parametrize("ell", range(21))
def test_sector_dimensions(ell):
    assert len(sector_basis(AtomKind.OSCILLATOR, ell)) == (ell + 1) * (ell + 2) // 2
    expected_two_level = 1 if ell == 0 else 2 * ell + 1
    assert len(sector_basis(AtomKind.TWO_LEVEL, ell)) == expected_two_level


def test_sector_basis_descending_order():
    basis = sector_basis(AtomKind.OSCILLATOR, 2)
    assert basis == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
    assert list(basis) == sorted(basis, reverse=True)


@pytest.mark.parametrize("kind", list(AtomKind))
def test_sector_matrix_exactly_hermitian(kind):
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = valid_params(rng)
        h = sector_matrix(p, kind, 3).matrix
        np.testing.assert_array_equal(h, h.conj().T)


def test_size_limit():
    with pytest.raises(SizeLimit):
        sector_matrix(FIXTURE, AtomKind.OSCILLATOR, 200)


def test_size_cap_counts_the_bytes_of_the_matrix_built():
    # 800 MB: at 16 B an entry, sector_matrix's complex matrix fits 7,021
    # oscillator states and not 7,140; at 8 B, the oscillator check's real one
    # fits 9,870 and not 10,153.  The cap is checked before anything is built.
    assert len(_sector_layout(AtomKind.OSCILLATOR, 117, complex).states) == 7021
    assert len(_sector_layout(AtomKind.OSCILLATOR, 139, float).states) == 9870
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match=r"^sector 118 needs a 7140x7140 matrix of "
                                            r"815,673,600 bytes; cap is 800,000,000 bytes$"):
            sector_matrix(FIXTURE, AtomKind.OSCILLATOR, 118)
        with pytest.raises(SizeLimit, match=r"^sector 141 needs a 10153x10153 matrix of "
                                            r"824,667,272 bytes; cap is 800,000,000 bytes$"):
            oscillator_sector_check(FIXTURE, 141)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_eigenvalues_invariant_under_basis_permutation():
    rng = np.random.default_rng(11)
    p = valid_params(rng)
    h = sector_matrix(p, AtomKind.OSCILLATOR, 2).matrix
    perm = rng.permutation(h.shape[0])
    permuted = h[np.ix_(perm, perm)]
    np.testing.assert_allclose(
        np.linalg.eigvalsh(permuted), np.linalg.eigvalsh(h), rtol=0, atol=1e-12
    )


def _full_fock_hamiltonian(p, kind, cutoff):
    """Independent full-space builder used to check the sector blocks."""
    amax = 1 if kind is AtomKind.TWO_LEVEL else cutoff
    states = [
        (na, nb, nc)
        for na in range(amax + 1)
        for nb in range(cutoff + 1)
        for nc in range(cutoff + 1)
    ]
    index = {s: i for i, s in enumerate(states)}
    h = np.zeros((len(states), len(states)), dtype=complex)
    for (na, nb, nc), i in index.items():
        h[i, i] = na * p.omega_a + nb * p.omega_b + nc * p.omega_c
        moves = (
            ((na + 1, nb - 1, nc), np.conj(p.lam), na + 1, nb),
            ((na - 1, nb + 1, nc), p.lam, nb + 1, na),
            ((na + 1, nb, nc - 1), np.conj(p.xi), na + 1, nc),
            ((na - 1, nb, nc + 1), p.xi, nc + 1, na),
            ((na, nb + 1, nc - 1), np.conj(p.kappa), nb + 1, nc),
            ((na, nb - 1, nc + 1), p.kappa, nc + 1, nb),
        )
        for target, coeff, up, down in moves:
            j = index.get(target)
            if j is not None and down > 0:
                h[j, i] += coeff * (np.sqrt(up) * np.sqrt(down))
    return h, index


@pytest.mark.parametrize("kind", list(AtomKind))
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_block_exactness_against_full_fock(kind, ell):
    rng = np.random.default_rng(ell)
    p = valid_params(rng)
    sector = sector_matrix(p, kind, ell)
    full, index = _full_fock_hamiltonian(p, kind, ell)
    rows = [index[s] for s in sector.basis]
    block = full[np.ix_(rows, rows)]
    np.testing.assert_array_equal(block, sector.matrix)


def test_validate_resonant_weak_coupling():
    report = validate(ModelParams(1.0, 1.0, 1.0, 1e-3, 1e-3, 0.5))
    assert report.ass1.passed
    assert report.ass1.margin == pytest.approx(0.5, abs=1e-15)


def test_validate_boundary_kappa_fails_strictly():
    report = validate(ModelParams(1.0, 1.0, 1.0, 0.1, 0.1, 1.0))
    assert not report.ass1.passed
    assert report.ass1.margin == 0.0
    # omega_b * omega_c a perfect square: sqrt(2) * sqrt(2) would round above 2
    for omega_b, omega_c, kappa in ((2.0, 2.0, 2.0), (2.0, 8.0, 4.0)):
        report = validate(ModelParams(1.0, omega_b, omega_c, 0.2, 0.05, kappa))
        assert not report.ass1.passed
        assert report.ass1.margin == 0.0


def test_validate_fixture_all_pass():
    report = validate(FIXTURE)
    assert report.all_pass
    for check in (report.ass1, report.ass2, report.ass3, report.ass4):
        assert check.margin > 0.0


def test_validate_margin_signs_match_flags():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = valid_params(rng)
        report = validate(p)
        for check in (report.ass1, report.ass2, report.ass3, report.ass4):
            assert check.passed == (check.margin > 0.0)


def test_validate_degenerate_block_reports_ass1():
    with pytest.raises(DegenerateTwoMode) as info:
        validate(ModelParams(1.0, 1.0, 1.0, 0.1, 0.1, 0.0))
    assert info.value.ass1.passed
    assert info.value.ass1.margin == pytest.approx(1.0)


def test_validate_where_products_of_frequencies_overflow():
    # the pairwise products overflow, so the margins of assumptions 3 and 4 are
    # infinite; assumption 1's is sqrt(omega_b) sqrt(omega_c) - |kappa|, finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate(ModelParams(1e300, 1e300, 1.3e300, 0.2, 0.05, 0.1))
        near_max = validate(ModelParams(1.0, 1e308, 1.5e308, 0.2, 0.05, 0.1))
        # |kappa| above sqrt(omega_b * omega_c) = 1e200, whose product form is infinite
        strong = validate(ModelParams(1.0, 1e200, 1e200, 0.2, 0.05, 1e300))
        # a splitting of 0.2 is below 1e-12 (omega_b + omega_c), which overflows to inf
        with pytest.raises(DegenerateTwoMode, match=r"\(splitting 2\.000e-01\)"):
            validate(ModelParams(1e300, 1e300, 1e300, 0.2, 0.05, 0.1))
    assert report.ass1.margin == 1.140175425099138e300
    assert near_max.ass1.margin == 1.2247448713915892e308
    assert not strong.ass1.passed and strong.ass1.margin == -1e300
    assert report.ass3.margin == report.ass4.margin == np.inf
    assert report.ass2.passed and report.all_pass and near_max.all_pass


def test_an_overflowing_root_leaves_the_other_margins_of_its_batch_exact():
    batch = stack([ModelParams(1.0, 2.0, 2.0, 0.2, 0.05, 2.0),
                   ModelParams(1.0, 1e308, 1.5e308, 0.2, 0.05, 0.1),
                   ModelParams(1.0, 2.0, 8.0, 0.2, 0.05, 4.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margin1 = _two_mode(batch).ass1_margin
    assert margin1.tolist() == [0.0, 1.2247448713915892e308, 0.0]


def test_max_abs_matches_the_row_wise_reduction():
    # the reduction runs over a transposed copy; a max is exact, so every
    # bit, NaN, signed zeros and infinities included, is the row-wise one's
    rng = np.random.default_rng(18)
    special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -1.7976931348623157e308])
    for n in (*range(1, 12), 100, 999, 1000, 2000):
        for shape in ((n, 9), (n, 3, 3), (n, 1), (n, 2, 5)):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            picks = rng.random(shape) < 0.2
            x[picks] = rng.choice(special, picks.sum())
            z = np.empty(shape, dtype=complex)
            z.real, z.imag = x, rng.permuted(x)  # no arithmetic: keeps NaN, inf, -0.0
            for values in (x, z):
                want = np.maximum.reduce(np.abs(values).reshape(n, -1), axis=1)
                got = _max_abs(values)
                assert got.shape == (n,)
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
