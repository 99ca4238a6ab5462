"""Dark and quasi-dark eigenstates: tuning, assembly, classification.

A *dark* eigenstate carries exactly zero amplitude on the photon-excited
component (no light emission); a *quasi-dark* eigenstate carries zero
amplitude on the phonon-excited component.  On photon-phonon resonance
(``omega = omega_b = omega_c``) with ``kappa > 0`` and real ``lambda``,
``xi``, the two closed-form functions

    e(x, y) = omega - kappa * y / x
    f(x, y) = (kappa / x - x / kappa) * y

control their existence: ``f(lambda, xi) = omega - omega_a`` produces a
dark eigenstate at energy ``e(lambda, xi)``, and the condition with the
arguments swapped produces a quasi-dark eigenstate at ``e(xi, lambda)``.
Swapping the coupling strengths ``lambda <-> xi`` exchanges the two
conditions and the two states, which is the duality this package verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    AssumptionViolation,
    ComplexCouplings,
    NotAnEigenvalue,
    NotResonant,
    PoleHit,
    TuningNotSatisfied,
    WrongSector,
    _Status,
)
from .model import (GAMMA_RTOL, AtomKind, ModelParams, Tolerances, _batch_of, _Batch,
                    _checked_tol, _eigh, _norm, _sector_matrices, sector_basis)
from .threemode import _bare_vectors, _d1_and_slope
from .twomode import _two_mode

__all__ = [
    "StateClass",
    "RelabelRole",
    "SectorVector",
    "Classification",
    "EigenstateRecord",
    "TuningResult",
    "dark_tuning",
    "assemble_eigenstate",
    "classify",
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
        finite = np.isfinite(amps)
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"sector vector amplitudes must be finite, got {amps[i]} at {i}")
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


def _e_of(x, y, omega, kappa):
    return omega - kappa * y / x


def _f_of(x, y, kappa):
    return (kappa / x - x / kappa) * y


#: the bound on ``|lambda -+ xi|``, relative to the coupling scale, at which an
#: effective coupling ``(lambda -+ xi) / sqrt(2)`` counts as vanishing
_VANISHING_RTOL = math.sqrt(2.0) * GAMMA_RTOL


def _resonant_real(p: _Batch, status: _Status, vanishing: type[Exception] = AssumptionViolation):
    """Check the resonant real-coupling regime per point; return (omega, lam, xi, kappa).

    Records on ``status``, in order: :class:`NotResonant` for a photon-phonon
    detuning above 1e-12 relative to ``max(1, omega_b, omega_c)``,
    :class:`ComplexCouplings` for non-real couplings (real parts are never
    taken silently), :class:`AssumptionViolation` for a non-positive
    ``kappa``, and ``vanishing`` where an effective coupling ``(lambda -+ xi)
    / sqrt(2)`` is at most ``GAMMA_RTOL`` times the coupling scale.  ``omega``
    is the mean of ``omega_b`` and ``omega_c`` from their halves, which does
    not overflow and has the bits of ``(omega_b + omega_c) / 2`` wherever
    that is finite and the frequencies are normal.
    """
    wb, wc = p.omega_b, p.omega_c
    detuned = np.abs(wb - wc) > 1e-12 * np.maximum(np.maximum(1.0, wb), wc)
    status.fail(detuned, lambda i: NotResonant(
        f"omega_b = {wb[i].item()} and omega_c = {wc[i].item()} are not tuned to each other"
    ))
    status.fail((p.lam.imag != 0.0) | (p.xi.imag != 0.0) | (p.kappa.imag != 0.0), lambda i: (
        ComplexCouplings("this analysis is restricted to real lambda, xi and positive kappa")
    ))
    kappa = p.kappa.real
    status.fail(kappa <= 0.0, lambda i: AssumptionViolation(
        f"kappa must be positive in this analysis, got {kappa[i].item()}"
    ))
    lam, xi = p.lam.real, p.xi.real
    floor = _VANISHING_RTOL * p.coupling_scale
    status.fail((np.abs(lam - xi) <= floor) | (np.abs(lam + xi) <= floor), lambda i: vanishing(
        "lambda = +-xi makes an effective coupling vanish; this analysis "
        "needs both couplings nonzero"
    ))
    return 0.5 * wb + 0.5 * wc, lam, xi, kappa


def dark_tuning(params: ModelParams,
                tol: float = Tolerances.tuning) -> tuple[TuningResult, TuningResult]:
    """Evaluate both tuning branches; returns (dark, quasi-dark) results.

    A branch is satisfied when its residual
    ``|f(., .) - (omega - omega_a)|`` is below
    ``tol * max(1, |omega - omega_a|)``.  Photon and phonon count as
    resonant within a detuning of 1e-12 relative to ``max(1, omega_b,
    omega_c)``, as for the occupations and the duality report; a larger
    one raises :class:`NotResonant`.
    """
    branches, status = _tuning(_batch_of(params), _checked_tol(tol))
    status.check()
    return tuple(
        TuningResult(kind=kind if met[0] else None, energy=energy[0].item(),
                     residual=residual[0].item())
        for kind, (residual, energy, met) in zip((StateClass.DARK, StateClass.QUASI_DARK),
                                                 branches)
    )


def _tuning(p: _Batch, tol: float):
    """:func:`dark_tuning` per point: (residual, energy, satisfied) arrays
    for the dark and the quasi-dark branch, and the status."""
    status = _Status(len(p))
    with np.errstate(all="ignore"):
        omega, lam, xi, kappa = _resonant_real(p, status)
        target = omega - p.omega_a
        threshold = tol * np.maximum(1.0, np.abs(target))
        # both branches at once: the dark one leads with lambda, the quasi-dark
        # one with xi, and a branch whose leading coupling vanishes is inapplicable
        x, y = np.array([lam, xi]), np.array([xi, lam])
        residual = np.where(x == 0.0, np.inf, np.abs(_f_of(x, y, kappa) - target))
        energy = np.where(x == 0.0, np.nan, _e_of(x, y, omega, kappa))
    return tuple(zip(residual, energy, residual < threshold)), status


def assemble_eigenstate(params: ModelParams, energy: float) -> SectorVector:
    """One-excitation eigenvector at a known dressed level, atom amplitude 1.

    The amplitudes over (atom, photon, phonon) are ``(1, u @ (Gamma / (E -
    eps)))``: the quasimode amplitudes ``Gamma_j / (E - eps_j)`` rotated
    back to the bare modes.  For ``kappa = 0`` the rotation is the
    identity or the swap, which gives the decoupled form
    ``(1, lambda/(E - omega_b), xi/(E - omega_c))``.  The same coefficient
    triple applies to both atom kinds.  Raises :class:`NotAnEigenvalue`
    when ``energy`` is not finite or the spectral function there reaches
    1e-8, and :class:`PoleHit` within 1e-10 of a pole.
    """
    e = _finite_energy(energy)
    p = _batch_of(params)
    two = _two_mode(p)
    two.status.check()
    with np.errstate(all="ignore"):
        r = e - two.eps[:, :, None]  # the offsets E - eps_j, (1, 2, 1)
        if (np.abs(r) <= 1e-10).any():
            raise PoleHit(f"energy {e} sits on a quasimode energy {tuple(two.eps[0].tolist())}")
        residual = abs(_d1_and_slope(e, p.omega_a[0], two.eps[0], two.gamma_sq[0])[0])
    if residual >= 1e-8:
        raise NotAnEigenvalue(f"spectral function is {residual:.3e} at {e}, above 1.0e-08")
    return SectorVector(amps=_bare_vectors(two.u, two.gamma, r)[0, :, 0], ell=1)


def _finite_energy(energy: float) -> float:
    """``energy`` as a float; raises :class:`NotAnEigenvalue` unless it is finite."""
    e = float(energy)
    if not math.isfinite(e):
        raise NotAnEigenvalue(f"energy {e} is not finite, so it is no dressed level")
    return e


def classify(state: SectorVector, tol: float = Tolerances.classify) -> Classification:
    """Label a one-excitation state dark / quasi-dark / bright / degenerate.

    Dark means the photon amplitude is below ``tol`` times the state
    norm; quasi-dark the same for the phonon amplitude; both below is
    degenerate (a bare atom excitation), neither is bright.
    """
    if state.ell != 1 or state.amps.shape != (3,):
        raise WrongSector(f"classification needs a one-excitation state, got ell={state.ell}")
    photon = abs(state.amps[1])
    phonon = abs(state.amps[2])
    variant = _VARIANTS[_variant_codes(photon, phonon, _checked_tol(tol) * state.norm)]
    return Classification(variant=variant, photon_amp=photon, phonon_amp=phonon)


_VARIANTS = (StateClass.DEGENERATE, StateClass.DARK, StateClass.QUASI_DARK, StateClass.BRIGHT)


def _variant_codes(photon, phonon, cutoff):
    """Index into ``_VARIANTS`` per state, from amplitude magnitudes and cutoffs."""
    return 3 - 2 * (photon < cutoff) - (phonon < cutoff)


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
    states = np.array(sector_basis(kind, ell))
    # the states of the expansion: those with the third mode empty
    rows = np.flatnonzero(states[:, 3 - i - j] == 0)
    if len(rows) < ell + 1:
        raise WrongSector(f"the {kind.value} sector {ell} holds {len(rows)} of the "
                          f"{ell + 1} occupations of modes {modes}")
    u, v = coeffs
    amps = np.zeros(len(states), dtype=complex)
    for pos, k in zip(rows.tolist(), states[rows, i].tolist()):
        amps[pos] = math.sqrt(math.comb(ell, k)) * u**k * v ** (ell - k)
    return SectorVector(amps=amps, ell=ell)


def multiquantum_state(params: ModelParams, branch: StateClass, n: int) -> SectorVector:
    """n-quantum dark or quasi-dark state of the oscillator-atom model.

    The dark branch is ``(kappa a' - lambda c')**n`` on the vacuum,
    normalized; it has no amplitude on any photon-occupied basis state and
    is an exact eigenstate with energy ``n * e(lambda, xi)`` when the
    dark tuning condition holds.  The quasi-dark branch replaces the
    phonon with the photon and ``lambda`` with ``xi``.  The state lives in
    the oscillator's sector ``n``, and exists only under the matching
    tuning condition (raises :class:`TuningNotSatisfied`).
    """
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
    return two_mode_binomial_state(n, (0, partner_mode), (kappa / scale, -other / scale))


def relabel_modes(params: ModelParams, role: RelabelRole | str) -> ModelParams:
    """Parameter map that permutes the oscillator atom with another mode.

    The three modes of the oscillator-atom model play symmetric roles, so
    exchanging the atom with the photon (or the phonon) and remapping the
    parameters leaves the Hamiltonian invariant: the one-excitation
    matrix of the relabeled parameters equals the permutation conjugation
    of the original, entry for entry.
    """
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


def _phase_fixed(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column's global phase so its atom (or largest) component is
    positive; ``vectors`` is a stack of eigenvector matrices."""
    magnitude = np.abs(vectors)
    no_atom = magnitude[:, 0, :] <= 1e-12 * _norm(vectors, 1)
    anchor_row = np.where(no_atom, np.argmax(magnitude, axis=1), 0)
    n, _, k = vectors.shape
    anchor = vectors[np.arange(n)[:, None], anchor_row, np.arange(k)][:, None, :]
    with np.errstate(invalid="ignore"):  # NaN columns of a failed solve
        phase = anchor / np.abs(anchor)
        return vectors / phase + 0.0  # the +0.0 collapses negative zeros


def classify_spectrum(params: ModelParams,
                      tol: float = Tolerances.classify) -> list[EigenstateRecord]:
    """Diagonalize the one-excitation block and classify every eigenstate.

    Brute-force path: works for any parameters, ``kappa = 0`` included.
    States are normalized and phase fixed with the atom amplitude real
    positive (falling back to the largest component for states with no
    atom weight).
    """
    spectrum = _classified(_batch_of(params), _checked_tol(tol))
    spectrum.status.check()
    return [
        EigenstateRecord(
            energy=energy,
            state=SectorVector(amps=spectrum.states[0, :, j], ell=1),
            classification=Classification(variant=_VARIANTS[code], photon_amp=photon,
                                          phonon_amp=phonon),
        )
        for j, (energy, code, photon, phonon) in enumerate(zip(
            spectrum.energies[0].tolist(), spectrum.codes[0].tolist(),
            spectrum.magnitudes[0, 1].tolist(), spectrum.magnitudes[0, 2].tolist()))
    ]


class _Classified(NamedTuple):
    """:func:`classify_spectrum` per point: ``energies`` (n, 3) ascending;
    ``states`` (n, 3, 3) with one normalized, phase-fixed state per column;
    ``magnitudes`` their absolute values; ``codes`` (n, 3) index
    ``_VARIANTS``."""

    energies: np.ndarray
    states: np.ndarray
    magnitudes: np.ndarray
    codes: np.ndarray
    status: _Status


def _classified(p: _Batch, tol: float) -> _Classified:
    energies, vectors, status = _eigh(_sector_matrices(p, AtomKind.TWO_LEVEL, 1))
    states = _phase_fixed(vectors)
    magnitudes = np.abs(states)
    cutoff = tol * _norm(states, 1)
    codes = _variant_codes(magnitudes[:, 1, :], magnitudes[:, 2, :], cutoff)
    return _Classified(energies, states, magnitudes, codes, status)
