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


def ass1_margin(params: ModelParams) -> float:
    """Signed distance of |kappa| below sqrt(omega_b * omega_c)."""
    return math.sqrt(params.omega_b * params.omega_c) - abs(params.kappa)


def validate(params: ModelParams, *, ass2_rtol: float = 1e-12) -> AssumptionReport:
    """Evaluate the four standing assumptions for the given parameters.

    The bounds do not depend on the atom kind.  Raises
    :class:`DegenerateTwoMode` when the photon-phonon block is degenerate
    (``kappa = 0`` and ``omega_b = omega_c``): the quasimode quantities
    behind assumptions 2-4 are then undefined.  The raised error carries
    the assumption-1 result in its ``ass1`` attribute.
    """
    from .twomode import two_mode_spectrum

    return _assumption_report(params, two_mode_spectrum(params), ass2_rtol)


def _assumption_report(params: ModelParams, two, ass2_rtol: float = 1e-12) -> AssumptionReport:
    """The four standing assumptions from the solved photon-phonon block ``two``."""
    margin1 = ass1_margin(params)
    ass1 = AssumptionCheck(margin1 > 0.0, margin1)

    scale = max(abs(params.lam), abs(params.xi), abs(params.kappa), 1.0)
    floor = ass2_rtol * scale
    margin2 = min(abs(two.gamma[0]), abs(two.gamma[1])) - floor
    ass2 = AssumptionCheck(margin2 > 0.0, margin2)

    wa, wb, wc = params.omega_a, params.omega_b, params.omega_c
    g1sq = abs(two.gamma[0]) ** 2
    g2sq = abs(two.gamma[1]) ** 2
    ksq = abs(params.kappa) ** 2
    margin3 = (wa * wb + wb * wc + wc * wa) - (ksq + g1sq + g2sq)
    ass3 = AssumptionCheck(margin3 > 0.0, margin3)

    margin4 = wa * wb * wc - (wa * ksq + two.eps[0] * g2sq + two.eps[1] * g1sq)
    ass4 = AssumptionCheck(margin4 > 0.0, margin4)

    return AssumptionReport(ass1, ass2, ass3, ass4)


def one_excitation_matrix(params: ModelParams) -> SectorMatrix:
    """The 3x3 Hamiltonian block on the one-excitation sector.

    Basis order (atom, photon, phonon); the diagonal carries the bare
    frequencies and the upper triangle the conjugated couplings, e.g.
    ``entry(atom, photon) = conj(lambda)``.
    """
    lam, xi, kappa = params.lam, params.xi, params.kappa
    h = np.array(
        [
            [params.omega_a, lam.conjugate(), xi.conjugate()],
            [lam, params.omega_b, kappa.conjugate()],
            [xi, kappa, params.omega_c],
        ],
        dtype=complex,
    )
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return SectorMatrix(ell=1, basis=basis, matrix=h)


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
    basis = sector_basis(kind, ell)
    dim = len(basis)
    if dim > max_dim:
        raise SizeLimit(f"sector {ell} needs a {dim}x{dim} matrix; cap is {max_dim}")
    index = {state: i for i, state in enumerate(basis)}
    wa, wb, wc = params.omega_a, params.omega_b, params.omega_c
    lam_c = params.lam.conjugate()
    xi_c = params.xi.conjugate()
    kappa_c = params.kappa.conjugate()

    h = np.zeros((dim, dim), dtype=complex)
    for i, (na, nb, nc) in enumerate(basis):
        h[i, i] = na * wa + nb * wb + nc * wc
        # raising moves only; each unordered pair is visited exactly once
        hops = (
            ((na + 1, nb - 1, nc), lam_c, na + 1, nb),
            ((na + 1, nb, nc - 1), xi_c, na + 1, nc),
            ((na, nb + 1, nc - 1), kappa_c, nb + 1, nc),
        )
        for target, coeff, up, down in hops:
            j = index.get(target)
            if j is None:
                continue
            amp = coeff * (math.sqrt(up) * math.sqrt(down))
            h[j, i] = amp
            h[i, j] = amp.conjugate()
    return SectorMatrix(ell=ell, basis=basis, matrix=h)
