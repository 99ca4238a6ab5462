"""Exact spectra and dark/quasi-dark eigenstates of a three-mode model.

The model couples an atom (two-level system or harmonic oscillator) to a
cavity photon mode and a mechanical phonon mode through three
excitation-conserving interactions.  This package computes the exact
spectral structure of every excitation sector, detects dark eigenstates
(zero photon amplitude) and quasi-dark eigenstates (zero phonon
amplitude) through closed-form tuning conditions, verifies the duality
that swaps the two families under a coupling exchange, and cross-checks
every closed form against a brute-force dense diagonalization oracle.
"""

__version__ = "0.1.0"

from .darkstates import (
    Classification,
    EigenstateRecord,
    RelabelRole,
    SectorVector,
    StateClass,
    TuningResult,
    assemble_eigenstate,
    classify,
    classify_spectrum,
    dark_tuning,
    multiquantum_state,
    relabel_modes,
    two_mode_binomial_state,
)
from .errors import (
    AssumptionViolation,
    ComplexCouplings,
    ConfigError,
    ConvergenceFailure,
    DarkTrioError,
    DegenerateSpectrum,
    DegenerateTwoMode,
    GammaZero,
    NotAnEigenvalue,
    NotHermitian,
    NotResonant,
    PoleHit,
    SizeLimit,
    TuningNotSatisfied,
    WrongSector,
)
from .model import (
    AssumptionCheck,
    AssumptionReport,
    AtomKind,
    ModelParams,
    SectorMatrix,
    Tolerances,
    sector_basis,
    sector_matrix,
    validate,
)
from .observables import DualityReport, b_occupation, c_occupation, duality_report
from .oracle import (
    CheckResult,
    EigenDecomposition,
    ValidationReport,
    crosscheck,
    dense_hermitian_eig,
    oscillator_sector_check,
)
from .threemode import ThreeModeSpectrum, phi, three_mode_spectrum
from .twomode import TwoModeSpectrum, two_mode_spectrum
