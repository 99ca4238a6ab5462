"""Dark and quasi-dark eigenstates: tuning, assembly, classification.

A *dark* eigenstate carries exactly zero amplitude on the photon-excited
component (no light emission); a *quasi-dark* eigenstate carries zero
amplitude on the phonon-excited component.  On photon-phonon resonance
(``omega = omega_b = omega_c``) with ``kappa > 0`` and real ``lambda``,
``xi``, the two closed-form functions

    e_of(x, y) = omega - kappa * y / x
    f_of(x, y) = (kappa / x - x / kappa) * y

control their existence: ``f_of(lambda, xi) = omega - omega_a`` produces a
dark eigenstate at energy ``e_of(lambda, xi)``, and the condition with the
arguments swapped produces a quasi-dark eigenstate at ``e_of(xi, lambda)``.
Swapping the coupling strengths ``lambda <-> xi`` exchanges the two
conditions and the two states, which is the duality this package verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    AssumptionViolation,
    ComplexCouplings,
    NotAnEigenvalue,
    NotResonant,
    PoleHit,
    TuningNotSatisfied,
    WrongAtomKind,
    WrongSector,
)
from .model import AtomKind, ModelParams, one_excitation_matrix, sector_basis
from .threemode import GAMMA_RTOL, _bare_vectors, _d1_and_slope, _gamma_sq
from .twomode import TwoModeSpectrum, two_mode_spectrum

__all__ = [
    "StateClass",
    "RelabelRole",
    "SectorVector",
    "Classification",
    "EigenstateRecord",
    "TuningResult",
    "e_of",
    "f_of",
    "dark_tuning",
    "assemble_eigenstate",
    "classify",
    "duality_swap",
    "two_mode_binomial_state",
    "multiquantum_state",
    "relabel_modes",
    "classify_spectrum",
]


class StateClass(Enum):
    DARK = "dark"
    QUASI_DARK = "quasi-dark"
    BRIGHT = "bright"
    DEGENERATE = "degenerate"


class RelabelRole(Enum):
    """Which pair of modes to exchange in the relabeling symmetry."""

    ATOM_PHOTON = "atom-photon"
    ATOM_PHONON = "atom-phonon"


@dataclass(frozen=True, eq=False)
class SectorVector:
    """Complex amplitudes over one excitation sector.

    For the one-excitation sector the order is (atom, photon, phonon);
    higher sectors follow the descending-lexicographic basis of
    :func:`darktrio.model.sector_basis`.
    """

    amps: np.ndarray
    ell: int

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("amplitudes must form a nonempty vector")
        if not np.any(amps):
            raise ValueError("sector vector must not be identically zero")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class Classification:
    variant: StateClass
    photon_amp: float
    phonon_amp: float


@dataclass(frozen=True, eq=False)
class EigenstateRecord:
    energy: float
    state: SectorVector
    classification: Classification


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning branch.

    ``kind`` is ``None`` when the condition is not met (or the branch is
    inapplicable because its leading coupling vanishes); ``residual`` is
    the distance of the condition from being satisfied, so scans can
    locate the tuning manifold.  ``energy`` is where the state would sit.
    """

    kind: StateClass | None
    energy: float
    residual: float


def e_of(x: float, y: float, omega: float, kappa: float) -> float:
    """Energy of the tuned eigenstate: ``omega - kappa * y / x``.

    Raises :class:`AssumptionViolation` for ``x = 0``.
    """
    if x == 0.0:
        raise AssumptionViolation("e_of requires x != 0")
    return omega - kappa * y / x


def f_of(x: float, y: float, kappa: float) -> float:
    """Tuning function ``(kappa / x - x / kappa) * y``; zero at ``x = kappa``.

    Raises :class:`AssumptionViolation` for ``x = 0`` or ``kappa = 0``.
    """
    if x == 0.0:
        raise AssumptionViolation("f_of requires x != 0")
    if kappa == 0.0:
        raise AssumptionViolation("f_of requires kappa != 0")
    return (kappa / x - x / kappa) * y


def _resonant_real(params: ModelParams, rtol: float = 1e-12):
    """Check the resonant real-coupling regime; return (omega, lam, xi, kappa).

    Raises :class:`NotResonant` off resonance, :class:`ComplexCouplings`
    for non-real couplings (real parts are never taken silently) and
    :class:`AssumptionViolation` for a non-positive photon-phonon
    coupling.
    """
    wb, wc = params.omega_b, params.omega_c
    if abs(wb - wc) > rtol * max(1.0, wb, wc):
        raise NotResonant(f"omega_b = {wb} and omega_c = {wc} are not tuned to each other")
    if params.lam.imag != 0.0 or params.xi.imag != 0.0 or params.kappa.imag != 0.0:
        raise ComplexCouplings("this analysis is restricted to real lambda, xi and positive kappa")
    kappa = params.kappa.real
    if kappa <= 0.0:
        raise AssumptionViolation(f"kappa must be positive in this analysis, got {kappa}")
    return 0.5 * (wb + wc), params.lam.real, params.xi.real, kappa


def _require_gamma_nonzero(lam: float, xi: float, kappa: float,
                           exc: type[Exception] = AssumptionViolation):
    floor = math.sqrt(2.0) * GAMMA_RTOL * max(abs(lam), abs(xi), kappa, 1.0)
    if abs(lam - xi) <= floor or abs(lam + xi) <= floor:
        raise exc(
            "lambda = +-xi makes an effective coupling vanish; this analysis "
            "needs both couplings nonzero"
        )


def dark_tuning(params: ModelParams, tol: float = 1e-9) -> tuple[TuningResult, TuningResult]:
    """Evaluate both tuning branches; returns (dark, quasi-dark) results.

    A branch is satisfied when its residual
    ``|f_of(., .) - (omega - omega_a)|`` is below
    ``tol * max(1, |omega - omega_a|)``.  The same ``tol`` bounds the
    allowed photon-phonon detuning relative to ``max(1, omega_b,
    omega_c)``.
    """
    omega, lam, xi, kappa = _resonant_real(params, rtol=tol)
    _require_gamma_nonzero(lam, xi, kappa)
    target = omega - params.omega_a
    threshold = tol * max(1.0, abs(target))

    def branch(x: float, y: float, kind: StateClass) -> TuningResult:
        if x == 0.0:
            return TuningResult(kind=None, energy=math.nan, residual=math.inf)
        residual = abs(f_of(x, y, kappa) - target)
        energy = e_of(x, y, omega, kappa)
        return TuningResult(kind=kind if residual < threshold else None,
                            energy=energy, residual=residual)

    return branch(lam, xi, StateClass.DARK), branch(xi, lam, StateClass.QUASI_DARK)


def assemble_eigenstate(params: ModelParams, energy: float, tol: float = 1e-8) -> SectorVector:
    """One-excitation eigenvector at a known dressed level, atom amplitude 1.

    The amplitudes over (atom, photon, phonon) are ``(1, u @ (Gamma / (E -
    eps)))``: the quasimode amplitudes ``Gamma_j / (E - eps_j)`` rotated
    back to the bare modes.  For ``kappa = 0`` the rotation is the
    identity or the swap, which gives the decoupled form
    ``(1, lambda/(E - omega_b), xi/(E - omega_c))``.  The same coefficient
    triple applies to both atom kinds.  Raises :class:`NotAnEigenvalue`
    when the spectral function at ``energy`` exceeds ``tol`` and
    :class:`PoleHit` within 1e-10 of a pole.
    """
    two = two_mode_spectrum(params)
    _check_level(float(energy), params.omega_a, two, tol)
    return SectorVector(amps=_bare_vectors(two, [float(energy)])[:, 0], ell=1)


def _check_level(e: float, omega_a: float, two: TwoModeSpectrum, tol: float) -> None:
    """Raise unless ``e`` is a dressed level of the solved block ``two`` within ``tol``."""
    if min(abs(e - two.eps[0]), abs(e - two.eps[1])) <= 1e-10:
        raise PoleHit(f"energy {e} sits on a quasimode energy {two.eps}")
    residual = abs(_d1_and_slope(e, omega_a, two.eps, _gamma_sq(two))[0])
    if residual >= tol:
        raise NotAnEigenvalue(f"spectral function is {residual:.3e} at {e}, above {tol:.1e}")


def classify(state: SectorVector, tol: float = 1e-9) -> Classification:
    """Label a one-excitation state dark / quasi-dark / bright / degenerate.

    Dark means the photon amplitude is below ``tol`` times the state
    norm; quasi-dark the same for the phonon amplitude; both below is
    degenerate (a bare atom excitation), neither is bright.
    """
    if state.ell != 1 or state.amps.shape != (3,):
        raise WrongSector(f"classification needs a one-excitation state, got ell={state.ell}")
    cutoff = tol * state.norm
    photon = abs(state.amps[1])
    phonon = abs(state.amps[2])
    if photon < cutoff and phonon < cutoff:
        variant = StateClass.DEGENERATE
    elif photon < cutoff:
        variant = StateClass.DARK
    elif phonon < cutoff:
        variant = StateClass.QUASI_DARK
    else:
        variant = StateClass.BRIGHT
    return Classification(variant=variant, photon_amp=photon, phonon_amp=phonon)


def duality_swap(params: ModelParams) -> ModelParams:
    """Exchange the atom-photon and atom-phonon coupling strengths."""
    return replace(params, lam=params.xi, xi=params.lam)


def two_mode_binomial_state(ell: int, modes: tuple[int, int], coeffs: tuple[complex, complex],
                            kind: AtomKind = AtomKind.OSCILLATOR) -> SectorVector:
    """Expand ``(u X' + v Y')**ell / sqrt(ell!) |vacuum>`` over a sector basis.

    ``modes`` picks the two creation operators by index (0 atom, 1 photon,
    2 phonon) and ``coeffs = (u, v)`` their amplitudes.  The basis state
    with ``k`` quanta in the first mode and ``ell - k`` in the second gets
    amplitude ``sqrt(binom(ell, k)) * u**k * v**(ell-k)``; the state is
    normalized whenever ``|u|^2 + |v|^2 = 1``.
    """
    i, j = modes
    if i == j or not {i, j} <= {0, 1, 2}:
        raise ValueError(f"modes must be two distinct indices out of (0, 1, 2), got {modes}")
    basis = sector_basis(kind, ell)
    index = {state: pos for pos, state in enumerate(basis)}
    u, v = coeffs
    amps = np.zeros(len(basis), dtype=complex)
    for k in range(ell + 1):
        occ = [0, 0, 0]
        occ[i] = k
        occ[j] = ell - k
        pos = index.get(tuple(occ))
        if pos is None:
            raise WrongSector(f"occupation {tuple(occ)} is outside the {kind.value} sector {ell}")
        amps[pos] = math.sqrt(math.comb(ell, k)) * u**k * v ** (ell - k)
    return SectorVector(amps=amps, ell=ell)


def multiquantum_state(params: ModelParams, branch: StateClass, n: int,
                       kind: AtomKind = AtomKind.OSCILLATOR) -> SectorVector:
    """n-quantum dark or quasi-dark state of the oscillator-atom model.

    The dark branch is ``(kappa a' - lambda c')**n`` on the vacuum,
    normalized; it has no amplitude on any photon-occupied basis state and
    is an exact eigenstate with energy ``n * e_of(lambda, xi)`` when the
    dark tuning condition holds.  The quasi-dark branch replaces the
    phonon with the photon and ``lambda`` with ``xi``.  Only defined for
    the oscillator atom (raises :class:`WrongAtomKind`), and only under
    the matching tuning condition (raises :class:`TuningNotSatisfied`).
    """
    if kind is not AtomKind.OSCILLATOR:
        raise WrongAtomKind("multi-quantum dark states need the oscillator atom")
    if n < 0:
        raise ValueError(f"quantum number must be nonnegative, got {n}")
    if branch not in (StateClass.DARK, StateClass.QUASI_DARK):
        raise ValueError(f"branch must be DARK or QUASI_DARK, got {branch}")
    dark, quasi = dark_tuning(params)
    result = dark if branch is StateClass.DARK else quasi
    if result.kind is not branch:
        raise TuningNotSatisfied(
            f"the {branch.value} condition is off by {result.residual:.3e}"
        )
    kappa = params.kappa.real
    other = params.lam.real if branch is StateClass.DARK else params.xi.real
    scale = math.sqrt(kappa * kappa + other * other)
    partner_mode = 2 if branch is StateClass.DARK else 1
    return two_mode_binomial_state(
        n, (0, partner_mode), (kappa / scale, -other / scale), kind=kind
    )


def relabel_modes(params: ModelParams, role: RelabelRole | str,
                  kind: AtomKind = AtomKind.OSCILLATOR) -> ModelParams:
    """Parameter map that permutes the oscillator atom with another mode.

    The three modes of the oscillator-atom model play symmetric roles, so
    exchanging the atom with the photon (or the phonon) and remapping the
    parameters leaves the Hamiltonian invariant: the one-excitation
    matrix of the relabeled parameters equals the permutation conjugation
    of the original, entry for entry.
    """
    if kind is not AtomKind.OSCILLATOR:
        raise WrongAtomKind("mode relabeling needs the oscillator atom")
    role = RelabelRole(role)
    if role is RelabelRole.ATOM_PHOTON:
        return ModelParams(
            omega_a=params.omega_b,
            omega_b=params.omega_a,
            omega_c=params.omega_c,
            lam=params.lam.conjugate(),
            xi=params.kappa,
            kappa=params.xi,
        )
    return ModelParams(
        omega_a=params.omega_c,
        omega_b=params.omega_b,
        omega_c=params.omega_a,
        lam=params.kappa.conjugate(),
        xi=params.xi.conjugate(),
        kappa=params.lam.conjugate(),
    )


def _phase_fixed(column: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate a global phase so the atom (or largest) component is positive."""
    anchor = column[0]
    if abs(anchor) <= tol * np.linalg.norm(column):
        anchor = column[np.argmax(np.abs(column))]
    phase = anchor / abs(anchor)
    return column / phase + 0.0  # the +0.0 collapses negative zeros


def classify_spectrum(params: ModelParams, tol: float = 1e-9) -> list[EigenstateRecord]:
    """Diagonalize the one-excitation block and classify every eigenstate.

    Brute-force path: works for any parameters, ``kappa = 0`` included.
    States are normalized and phase fixed with the atom amplitude real
    positive (falling back to the largest component for states with no
    atom weight).
    """
    from .oracle import dense_hermitian_eig

    sector = one_excitation_matrix(params)
    eig = dense_hermitian_eig(sector.matrix)
    records = []
    for pos, energy in enumerate(eig.values):
        column = _phase_fixed(eig.vectors[:, pos])
        state = SectorVector(amps=column, ell=1)
        records.append(
            EigenstateRecord(
                energy=float(energy), state=state, classification=classify(state, tol)
            )
        )
    return records
