"""Exact arithmetic for the one-excitation problem: a yardstick for the closed-form levels.

Every float is an exact rational, so the characteristic polynomial of the bare
one-excitation matrix

    [[omega_a,        conj(lambda),  conj(xi)   ],
     [lambda,         omega_b,       conj(kappa)],
     [xi,             kappa,         omega_c    ]]

has exact :class:`fractions.Fraction` coefficients, complex couplings included: they
enter only through ``|z|^2`` and the real part of the loop product
``lambda kappa conj(xi)``.  A sign change of the polynomial brackets a level exactly,
so two evaluations certify that a float level lies within a given distance of a true
one, with no bisection and no rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from darktrio import ModelParams


def charpoly(params: ModelParams) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The coefficients ``(c0, c1, c2, c3)`` of ``det(x I - H) = sum c_k x^k`` of the
    bare one-excitation matrix of ``params``, exactly."""
    wa, wb, wc = (Fraction(w) for w in (params.omega_a, params.omega_b, params.omega_c))
    (lr, li), (xr, xi), (kr, ki) = ((Fraction(z.real), Fraction(z.imag))
                                    for z in (params.lam, params.xi, params.kappa))
    lam_sq, xi_sq, kappa_sq = lr * lr + li * li, xr * xr + xi * xi, kr * kr + ki * ki
    # Re(lambda kappa conj(xi)), the real part of the product of the entries (0, 1),
    # (1, 2) and (2, 0) up to a common conjugation
    loop = (lr * kr - li * ki) * xr + (lr * ki + li * kr) * xi
    return (lam_sq * wc + xi_sq * wb + kappa_sq * wa - wa * wb * wc - 2 * loop,
            wa * wb + wb * wc + wc * wa - lam_sq - xi_sq - kappa_sq,
            -(wa + wb + wc),
            Fraction(1))


def value(coefficients, x: Fraction) -> Fraction:
    """The polynomial with ``coefficients`` (lowest degree first) at ``x``, exactly."""
    total = Fraction(0)
    for c in reversed(coefficients):
        total = total * x + c
    return total


def certified(coefficients, levels, k: int) -> bool:
    """Whether each float level of ``levels`` (ascending) has its own root of the
    polynomial within ``k`` ulps of ``max |E|``: the polynomial changes sign (or vanishes)
    between the two ends of each level's interval, and the intervals are disjoint, so
    they hold distinct roots.  Two evaluations per level."""
    width = Fraction(k) * Fraction(math.ulp(max(abs(e) for e in levels)))
    ends = [(Fraction(e) - width, Fraction(e) + width) for e in levels]
    if any(high >= low for (_, high), (low, _) in zip(ends, ends[1:])):
        return False
    return all(value(coefficients, low) * value(coefficients, high) <= 0 for low, high in ends)
