"""The public API as a snapshot: every public name of the package and the
signature of every public function and constructor.

An added, removed or renamed name, parameter or default shows up here as a
reviewable diff.  The functions the benchmark's tracer wraps stay pinned.
"""

import ast
import inspect
from pathlib import Path

import darktrio
import darktrio.cli

#: public names without a signature of their own: enums, exceptions, modules
UNSIGNED = {
    "AssumptionViolation", "AtomKind", "ComplexCouplings", "ConfigError", "ConvergenceFailure",
    "DarkTrioError", "DegenerateSpectrum", "GammaZero", "NotAnEigenvalue", "NotHermitian",
    "NotResonant", "PoleHit", "RelabelRole", "SizeLimit", "StateClass", "TuningNotSatisfied",
    "WrongSector", "darkstates", "errors", "model", "observables", "oracle", "threemode",
    "twomode",
}

#: ``str(inspect.signature(...))`` of each public function and of each public
#: class that defines its own ``__init__``, by name in ``darktrio``; ``cli.main``
#: is the console script
SIGNATURES = {
    "AssumptionCheck": "(passed: 'bool', margin: 'float') -> None",
    "AssumptionReport": (
        "(ass1: 'AssumptionCheck', ass2: 'AssumptionCheck', ass3: 'AssumptionCheck', "
        "ass4: 'AssumptionCheck') -> None"
    ),
    "CheckResult": (
        "(name: 'str', residual: 'float', tolerance: 'float', passed: 'bool', "
        "skipped: 'bool' = False, reason: 'str' = '') -> None"
    ),
    "Classification": "(variant: 'StateClass', photon_amp: 'float', phonon_amp: 'float') -> None",
    "DegenerateTwoMode": "(message, ass1=None)",
    "DualityReport": (
        "(energies: 'tuple[tuple[float, float, float], tuple[float, float, float]]', "
        "b_occ: 'tuple[float, float, float]', c_occ_swapped: 'tuple[float, float, float]', "
        "max_mismatch: 'float', tol: 'float') -> None"
    ),
    "EigenDecomposition": "(values: 'np.ndarray', vectors: 'np.ndarray') -> None",
    "EigenstateRecord": (
        "(energy: 'float', state: 'SectorVector', classification: 'Classification') -> None"
    ),
    "ModelParams": (
        "(omega_a: 'float', omega_b: 'float', omega_c: 'float', lam: 'complex', "
        "xi: 'complex', kappa: 'complex') -> None"
    ),
    "SectorMatrix": (
        "(ell: 'int', basis: 'tuple[tuple[int, int, int], ...]', "
        "matrix: 'np.ndarray') -> None"
    ),
    "SectorVector": "(amps: 'np.ndarray', ell: 'int') -> None",
    "ThreeModeSpectrum": (
        "(e: 'tuple[float, float, float]', n_norm: 'tuple[float, float, float]', "
        "v: 'np.ndarray', two: 'TwoModeSpectrum') -> None"
    ),
    "Tolerances": (
        "(eps_match: 'float' = 1e-12, m_sum: 'float' = 1e-14, u_unitarity: 'float' = 1e-14, "
        "u_diag: 'float' = 1e-12, a1: 'float' = 1e-12, a2: 'float' = 1e-12, "
        "e_match: 'float' = 1e-11, trace: 'float' = 1e-12, root: 'float' = 1e-10, "
        "v_unitarity: 'float' = 1e-12, v_diag: 'float' = 1e-11, b1: 'float' = 1e-10, "
        "n_norm: 'float' = 1e-10, eigvec: 'float' = 1e-10, eigenstate: 'float' = 1e-09, "
        "occupation: 'float' = 1e-10, sector: 'float' = 1e-09, ass2: 'float' = 1e-12, "
        "classify: 'float' = 1e-09, tuning: 'float' = 1e-09, "
        "duality: 'float' = 1e-10) -> None"
    ),
    "TuningResult": "(kind: 'StateClass | None', energy: 'float', residual: 'float') -> None",
    "TwoModeSpectrum": (
        "(eps: 'tuple[float, float]', m: 'tuple[float, float]', gamma: 'tuple[complex, "
        "complex]', u: 'np.ndarray') -> None"
    ),
    "ValidationReport": "(checks: 'tuple[CheckResult, ...]') -> None",
    "assemble_eigenstate": "(params: 'ModelParams', energy: 'float') -> 'SectorVector'",
    "b_occupation": "(params: 'ModelParams', energy: 'float') -> 'float'",
    "c_occupation": "(params: 'ModelParams', energy: 'float') -> 'float'",
    "classify": "(state: 'SectorVector', tol: 'float' = 1e-09) -> 'Classification'",
    "classify_spectrum": (
        "(params: 'ModelParams', tol: 'float' = 1e-09) -> 'list[EigenstateRecord]'"
    ),
    "crosscheck": (
        "(params: 'ModelParams', kind: 'AtomKind' = <AtomKind.TWO_LEVEL: 'two-level'>, "
        "tol: 'Tolerances' = Tolerances(eps_match=1e-12, m_sum=1e-14, u_unitarity=1e-14, "
        'u_diag=1e-12, a1=1e-12, a2=1e-12, e_match=1e-11, trace=1e-12, root=1e-10, '
        'v_unitarity=1e-12, v_diag=1e-11, b1=1e-10, n_norm=1e-10, eigvec=1e-10, '
        'eigenstate=1e-09, occupation=1e-10, sector=1e-09, ass2=1e-12, classify=1e-09, '
        "tuning=1e-09, duality=1e-10)) -> 'ValidationReport'"
    ),
    "dark_tuning": (
        "(params: 'ModelParams', tol: 'float' = 1e-09) -> 'tuple[TuningResult, "
        "TuningResult]'"
    ),
    "dense_hermitian_eig": "(matrix) -> 'EigenDecomposition'",
    "duality_report": "(params: 'ModelParams', tol: 'float' = 1e-10) -> 'DualityReport'",
    "multiquantum_state": (
        "(params: 'ModelParams', branch: 'StateClass', n: 'int') -> 'SectorVector'"
    ),
    "oscillator_sector_check": (
        "(params: 'ModelParams', ell: 'int', *, tol: 'float' = 1e-09) -> 'ValidationReport'"
    ),
    "phi": "(params: 'ModelParams', x: 'float') -> 'float'",
    "relabel_modes": "(params: 'ModelParams', role: 'RelabelRole | str') -> 'ModelParams'",
    "sector_basis": "(kind: 'AtomKind', ell: 'int') -> 'tuple[tuple[int, int, int], ...]'",
    "sector_matrix": "(params: 'ModelParams', kind: 'AtomKind', ell: 'int') -> 'SectorMatrix'",
    "three_mode_spectrum": "(params: 'ModelParams') -> 'ThreeModeSpectrum'",
    "two_mode_binomial_state": (
        "(ell: 'int', modes: 'tuple[int, int]', coeffs: 'tuple[complex, complex]', "
        "kind: 'AtomKind' = <AtomKind.OSCILLATOR: 'oscillator'>) -> 'SectorVector'"
    ),
    "two_mode_spectrum": "(params: 'ModelParams') -> 'TwoModeSpectrum'",
    "validate": "(params: 'ModelParams') -> 'AssumptionReport'",
    "cli.main": "(argv: 'list[str] | None' = None) -> 'int'",
}


def _public_names():
    # ``darktrio.cli`` is bound on the package only once something imports it
    return {name for name in dir(darktrio) if not name.startswith("_")} - {"cli"}


def _has_signature(obj):
    return inspect.isfunction(obj) or (inspect.isclass(obj) and "__init__" in vars(obj))


def test_public_names_are_pinned():
    assert _public_names() == UNSIGNED | (SIGNATURES.keys() - {"cli.main"})
    assert len(_public_names()) == 59


def test_public_signatures_are_pinned():
    got = {name: str(inspect.signature(getattr(darktrio, name)))
           for name in _public_names() if _has_signature(getattr(darktrio, name))}
    got["cli.main"] = str(inspect.signature(darktrio.cli.main))
    assert got == SIGNATURES


def test_traced_functions_stay_pinned():
    tracer = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
    targets = next(ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS")
    assert len(targets) == 15
    pinned = [darktrio.cli.main,
              *(getattr(darktrio, name) for name in SIGNATURES if "." not in name)]
    for module, function in targets:
        traced = getattr(getattr(darktrio, module), function)
        assert any(traced is obj for obj in pinned), f"{module}.{function}"
