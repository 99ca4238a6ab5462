"""Exception types shared across the package."""


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
    """An effective atom-quasimode coupling vanishes within tolerance."""


class DegenerateSpectrum(DarkTrioError):
    """Dressed levels are too close for the closed forms to be stable."""


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


class WrongAtomKind(DarkTrioError):
    """The operation is only defined for the other atom variant."""


class TuningNotSatisfied(DarkTrioError):
    """The dark or quasi-dark tuning condition does not hold."""


class NotHermitian(DarkTrioError):
    """Input matrix is not Hermitian within tolerance."""


class ConvergenceFailure(DarkTrioError):
    """The dense eigensolver failed or produced an inconsistent result."""


class SizeLimit(DarkTrioError):
    """A sector matrix would exceed the configured dimension cap."""
