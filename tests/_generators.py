"""Seeded random parameter generators shared by the test modules.

Draws are rejection-sampled so every returned set is well conditioned:
standing assumptions hold where required, effective couplings are bounded
away from zero, and dressed levels keep a minimum distance from the
quasimode poles.  All randomness flows through the caller's generator, so
tests stay deterministic.  ``valid_batch`` draws a whole batch of the
kernels' struct-of-arrays form at once, and ``stack`` builds one from a
list of points.  ``weak_coupling_batch`` is the exception: it draws
couplings down to 1e-9 and keeps every point, ill-conditioned or failing.
``rwa_block_matrix`` writes down the photon-phonon block that the dense
references diagonalize.
"""

import numpy as np

from darktrio import (
    AtomKind,
    ModelParams,
    sector_matrix,
    three_mode_spectrum,
    two_mode_spectrum,
    validate,
)
from darktrio.model import _assumption_margins, _Batch
from darktrio.twomode import _two_mode

BATCH_FIELDS = ("omega_a", "omega_b", "omega_c", "lam", "xi", "kappa")


def rwa_block_matrix(params):
    """The 2x2 Hermitian photon-phonon block in the bare basis."""
    return np.array([[params.omega_b, params.kappa.conjugate()],
                     [params.kappa, params.omega_c]])


def resonant_real_params(rng, min_gamma=0.02, min_pole_gap=1e-3):
    """Random resonant real-coupling set with all assumptions holding."""
    while True:
        omega = rng.uniform(0.5, 2.0)
        omega_a = rng.uniform(0.5, 2.0)
        kappa = rng.uniform(0.05, 0.6) * omega
        lam = rng.uniform(0.05, 0.55)
        xi = rng.uniform(0.05, 0.55)
        if abs(lam - xi) < np.sqrt(2.0) * min_gamma:
            continue
        params = ModelParams(omega_a, omega, omega, lam, xi, kappa)
        if not validate(params).all_pass:
            continue
        spectrum = three_mode_spectrum(params)
        eps = (omega - kappa, omega + kappa)
        if min(abs(e - q) for e in spectrum.e for q in eps) < min_pole_gap:
            continue
        return params


def tuned_dark_params(rng):
    """Resonant real set solving the dark tuning condition for lambda."""
    while True:
        omega = rng.uniform(0.5, 2.0)
        omega_a = rng.uniform(0.5, 2.0)
        kappa = rng.uniform(0.05, 0.5) * omega
        xi = rng.uniform(0.05, 0.5)
        delta = omega - omega_a
        lam = kappa * (-delta + np.sqrt(delta * delta + 4.0 * xi * xi)) / (2.0 * xi)
        if not 0.02 <= lam <= 1.5 or abs(lam - xi) < 0.02 or abs(lam + xi) < 0.02:
            continue
        params = ModelParams(omega_a, omega, omega, lam, xi, kappa)
        if not validate(params).all_pass:
            continue
        return params


def valid_params(rng, complex_couplings=True, require_all=False, min_gamma=0.02):
    """Random (possibly complex-coupling) set with nondegenerate structure."""
    while True:
        omega_a = rng.uniform(0.5, 2.0)
        omega_b = rng.uniform(0.5, 2.0)
        omega_c = rng.uniform(0.5, 2.0)

        def coupling(low, high):
            magnitude = rng.uniform(low, high)
            if complex_couplings:
                return magnitude * np.exp(2j * np.pi * rng.uniform())
            return complex(magnitude)

        kappa = coupling(0.05, 0.5 * np.sqrt(omega_b * omega_c))
        lam = coupling(0.05, 0.5)
        xi = coupling(0.05, 0.5)
        params = ModelParams(omega_a, omega_b, omega_c, lam, xi, kappa)
        two = two_mode_spectrum(params)
        if min(abs(two.gamma[0]), abs(two.gamma[1])) < min_gamma:
            continue
        report = validate(params)
        if require_all and not report.all_pass:
            continue
        if not report.ass1.passed:
            continue
        return params


def valid_batch(rng, n, require_all=False, min_gamma=0.02):
    """``n`` complex-coupling sets with the distribution and the acceptance
    tests of :func:`valid_params`, drawn and tested a block at a time and
    returned as one batch."""
    kept = []
    while sum(len(block.omega_a) for block in kept) < n:
        omega_a, omega_b, omega_c = rng.uniform(0.5, 2.0, (3, n))

        def coupling(low, high):
            return rng.uniform(low, high, n) * np.exp(2j * np.pi * rng.uniform(size=n))

        p = _Batch(omega_a, omega_b, omega_c, coupling(0.05, 0.5), coupling(0.05, 0.5),
                   coupling(0.05, 0.5 * np.sqrt(omega_b * omega_c)))
        two = _two_mode(p)
        margins = _assumption_margins(p, two)
        keep = (two.gamma_abs.min(axis=1) >= min_gamma) & (margins[:, 0] > 0.0)
        if require_all:
            keep &= (margins > 0.0).all(axis=1)
        kept.append(_Batch(*(getattr(p, name)[keep] for name in BATCH_FIELDS)))
    return _Batch(*(np.concatenate([getattr(block, name) for block in kept])[:n]
                    for name in BATCH_FIELDS))


def weak_coupling_batch():
    """The weak-coupling sample: ``np.random.default_rng(1010)``, 3,000 points with
    ``omega_a, omega_b, omega_c`` uniform in [0.5, 2], then ``lambda``, ``xi`` and ``kappa``
    each log-uniform in [1e-9, 2], ``lambda`` and ``xi`` with a random sign after their
    magnitude; every point kept."""
    rng, n = np.random.default_rng(1010), 3_000

    def magnitude():
        return np.exp(rng.uniform(np.log(1e-9), np.log(2.0), n))

    omega_a, omega_b, omega_c = rng.uniform(0.5, 2.0, (3, n))
    lam = magnitude() * rng.choice((-1.0, 1.0), n)
    xi = magnitude() * rng.choice((-1.0, 1.0), n)
    return _Batch(omega_a, omega_b, omega_c, lam + 0j, xi + 0j, magnitude() + 0j)


def stack(points):
    """The batch of a list of :class:`ModelParams`."""
    return _Batch(*(np.array([getattr(q, name) for q in points]) for name in BATCH_FIELDS))


def kappa_zero_params(rng, min_gap=1e-3):
    """Random real set with no photon-phonon coupling and separated levels."""
    while True:
        omega_a = rng.uniform(0.5, 2.0)
        omega_b = rng.uniform(0.5, 2.0)
        omega_c = rng.uniform(0.5, 2.0)
        lam = rng.uniform(0.05, 0.5)
        xi = rng.uniform(0.05, 0.5)
        params = ModelParams(omega_a, omega_b, omega_c, lam, xi, 0.0)
        levels = np.linalg.eigvalsh(sector_matrix(params, AtomKind.TWO_LEVEL, 1).matrix)
        if np.diff(levels).min() <= min_gap:
            continue
        return params


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0
