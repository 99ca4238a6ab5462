"""Characteristic-polynomial bisection: a second eigenvalue route for 3x3 blocks.

The solver here shares no code with LAPACK, so agreement with the dense
solver de-correlates the two routes.
"""

import math

import numpy as np

from darktrio import ModelParams, one_excitation_matrix

from _generators import random_hermitian

FIXTURE = ModelParams(1.0, 1.0, 1.0, 0.2, 0.05, 0.1)
FIXTURE_LEVELS = (0.7930295020247184, 0.9607532983742692, 1.2462171996010124)


def eigvals_charpoly_3x3(matrix) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix by characteristic-polynomial bisection.

    Independent of the LAPACK route: the real cubic
    ``x^3 - t x^2 + s x - d`` is bisected on the three intervals cut out
    by its stationary points (Gershgorin bounds close the outer ends).
    Intended as a test-side second opinion; assumes reasonably separated
    roots for full accuracy.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    t = float(np.trace(a).real)
    s = float(
        (
            a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
            + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        ).real
    )
    d = float(np.linalg.det(a).real)

    def p(x: float) -> float:
        return ((x - t) * x + s) * x - d

    radius = [float(np.sum(np.abs(a[i, :])) - np.abs(a[i, i])) for i in range(3)]
    lo = min(float(a[i, i].real) - radius[i] for i in range(3)) - 1.0
    hi = max(float(a[i, i].real) + radius[i] for i in range(3)) + 1.0

    disc = t * t - 3.0 * s
    if disc <= 0.0:
        return np.full(3, t / 3.0)
    r1 = (t - math.sqrt(disc)) / 3.0
    r2 = (t + math.sqrt(disc)) / 3.0

    def bisect(left: float, right: float) -> float:
        f_left = p(left)
        if f_left == 0.0:
            return left
        if p(right) == 0.0:
            return right
        if f_left * p(right) > 0.0:
            # no sign change: double root pinned at the stationary point
            return right if abs(p(right)) < abs(f_left) else left
        for _ in range(200):
            mid = 0.5 * (left + right)
            if mid == left or mid == right:
                break
            if f_left * p(mid) <= 0.0:
                right = mid
            else:
                left = mid
                f_left = p(left)
        return 0.5 * (left + right)

    return np.array(sorted([bisect(lo, r1), bisect(r1, r2), bisect(r2, hi)]))


def test_charpoly_route_agrees_with_dense_solver():
    rng = np.random.default_rng(73)
    for _ in range(25):
        a = random_hermitian(rng, 3)
        np.testing.assert_allclose(
            eigvals_charpoly_3x3(a),
            np.linalg.eigvalsh(a),
            rtol=0,
            atol=1e-11 * max(1.0, np.linalg.norm(a)),
        )


def test_charpoly_route_fixture():
    values = eigvals_charpoly_3x3(one_excitation_matrix(FIXTURE).matrix)
    np.testing.assert_allclose(values, FIXTURE_LEVELS, rtol=0, atol=1e-12)
