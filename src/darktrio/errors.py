"""Exception types shared across the package, and per-point batch outcomes."""

import numpy as np


class DarkTrioError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DarkTrioError):
    """A configuration document or command-line option is malformed."""


class DegenerateTwoMode(DarkTrioError):
    """The photon-phonon block has no well-separated normal-mode split.

    Raised when ``kappa = 0`` together with ``omega_b = omega_c`` (or the
    splitting is below the degeneracy threshold); the mixing factors are
    then undefined and callers must use the brute-force
    :func:`darktrio.classify_spectrum`.  ``ass1`` holds the assumption-1
    result.
    """

    def __init__(self, message, ass1=None):
        super().__init__(message)
        self.ass1 = ass1


class GammaZero(DarkTrioError):
    """An effective atom-quasimode coupling vanishes within tolerance.

    Closed forms built on both couplings do not apply; the brute-force
    :func:`darktrio.classify_spectrum` does.
    """


class DegenerateSpectrum(DarkTrioError):
    """Dressed levels are too ill-conditioned for the closed forms.

    Raised when two dressed levels nearly coincide, a level sits on a
    quasimode energy, the closed-form unitary misses its sanity bound, or
    the spectra of the coupling-swapped pair fail to match.
    """


class PoleHit(DarkTrioError):
    """Evaluation point is too close to a quasimode energy (a pole)."""


class NotAnEigenvalue(DarkTrioError):
    """The supplied energy is not a dressed level within tolerance."""


class NotResonant(DarkTrioError):
    """The photon and phonon frequencies are not tuned to each other."""


class ComplexCouplings(DarkTrioError):
    """The requested analysis is restricted to real coupling constants."""


class AssumptionViolation(DarkTrioError):
    """A standing positivity/coupling assumption of the model fails."""


class WrongSector(DarkTrioError):
    """The state does not live in the excitation sector the operation needs."""


class TuningNotSatisfied(DarkTrioError):
    """The dark or quasi-dark tuning condition does not hold."""


class NotHermitian(DarkTrioError):
    """Input matrix is not Hermitian within tolerance."""


class ConvergenceFailure(DarkTrioError):
    """The dense eigensolver failed or produced an inconsistent result."""


class SizeLimit(DarkTrioError):
    """A sector matrix would exceed the cap on its size in bytes."""


#: the outcomes a batch kernel records per point: 0 is success, code k the
#: k-th of these types
_STATUS_ERRORS = (
    None,
    DegenerateTwoMode,
    AssumptionViolation,
    GammaZero,
    DegenerateSpectrum,
    NotResonant,
    ComplexCouplings,
    PoleHit,
    NotAnEigenvalue,
    NotHermitian,
    ConvergenceFailure,
)
_CODE = {error: code for code, error in enumerate(_STATUS_ERRORS) if error is not None}


class _Status:
    """Per-point outcome of a batch kernel: a point that fails a check keeps
    the code of the error type and the error a single-point call raises.

    The checks run in their single-point order and a point keeps its
    first failure, so a point fails the same way in a batch of any size.
    """

    def __init__(self, n: int):
        self.code = np.zeros(n, dtype=np.int8)
        self._errors: dict[int, DarkTrioError] = {}

    @property
    def ok(self) -> np.ndarray:
        return self.code == 0

    def fail(self, mask, make) -> None:
        """Record the error ``make(i)``, built at once, for every point ``i``
        in ``mask`` that has not failed yet."""
        if not np.count_nonzero(mask):
            return
        new = np.flatnonzero(mask & (self.code == 0)).tolist()
        errors = [make(i) for i in new]
        self.code[new] = [_CODE[type(error)] for error in errors]
        self._errors.update(zip(new, errors))

    def inherit(self, other: "_Status", offset: int = 0) -> None:
        """Take over the failures of an earlier stage, where none is recorded
        yet: point ``i`` takes those of ``other``'s point ``i + offset``."""
        if other._errors:
            code = other.code[offset:offset + len(self.code)]
            new = np.flatnonzero((code != 0) & (self.code == 0))
            self.code[new] = code[new]
            self._errors.update((i, other._errors[i + offset]) for i in new.tolist())

    def error(self, i: int) -> DarkTrioError:
        """The error of failed point ``i``."""
        return self._errors[i]

    def check(self, i: int = 0) -> None:
        """Raise point ``i``'s error, if it has one."""
        if self.code[i]:
            raise self.error(i)
