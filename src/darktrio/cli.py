"""Command-line interface: spectra, classification, duality, verification.

Subcommands
-----------
spectrum   dressed levels, quasimode energies and effective couplings
classify   one-excitation eigenstates with dark/quasi-dark labels
duality    occupation duality under the coupling swap
scan       run one of the above over the scan axes of the config
verify     closed-form-versus-oracle cross-check report

A JSON config supplies the model point and optional scan axes::

    {"omega_a": 1.0, "omega_b": 1.0, "omega_c": 1.0,
     "lambda": 0.2, "xi": 0.05, "kappa": 0.1,
     "atom": "two-level",
     "scan": [{"param": "kappa", "start": 0.05, "stop": 0.5, "steps": 10}],
     "tol": {"classify": 1e-9}, "sector": 2}

Complex couplings are written as two-element arrays ``[re, im]`` in both
config and JSON output; CSV output splits them into ``_re``/``_im``
columns.  Floats are emitted with shortest round-trip formatting and row
order is grid-major, so identical configs give byte-identical output.

Exit codes: 0 success, 1 config error, 2 model-precondition violation in
single-point mode, 3 numerical or validation failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .darkstates import classify_spectrum, dark_tuning
from .errors import (
    AssumptionViolation,
    ComplexCouplings,
    ConfigError,
    DarkTrioError,
    DegenerateTwoMode,
    GammaZero,
    NotResonant,
    SizeLimit,
    TuningNotSatisfied,
    WrongAtomKind,
)
from .model import AtomKind, ModelParams, _assumption_report, ass1_margin
from .observables import duality_report
from .oracle import Tolerances, crosscheck, oscillator_sector_check
from .threemode import three_mode_spectrum

__all__ = ["RunConfig", "ScanAxis", "main", "parse_config", "config_to_dict"]

PARAM_NAMES = ("omega_a", "omega_b", "omega_c", "lambda", "xi", "kappa")
_FIELD_FOR = {"lambda": "lam", "xi": "xi", "kappa": "kappa",
              "omega_a": "omega_a", "omega_b": "omega_b", "omega_c": "omega_c"}

DEFAULT_PARAMS = ModelParams(
    omega_a=1.0, omega_b=1.0, omega_c=1.0, lam=0.2, xi=0.05, kappa=0.1
)

#: errors that mean "this parameter point violates a model precondition"
_PRECONDITION_ERRORS = (
    AssumptionViolation,
    ComplexCouplings,
    DegenerateTwoMode,
    GammaZero,
    NotResonant,
    SizeLimit,
    TuningNotSatisfied,
    WrongAtomKind,
)


@dataclass(frozen=True)
class ScanAxis:
    param: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams = DEFAULT_PARAMS
    kind: AtomKind = AtomKind.TWO_LEVEL
    scan: tuple[ScanAxis, ...] = ()
    tol: dict[str, float] = field(default_factory=dict)
    sector: int | None = None


def _as_complex(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value)
    if (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _as_positive_float(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ConfigError(f"{where}: expected a positive number, got {value!r}")
    return float(value)


def parse_config(doc: dict) -> RunConfig:
    """Build a :class:`RunConfig` from a JSON document, validating keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    known = set(PARAM_NAMES) | {"atom", "scan", "tol", "sector"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    base = dataclasses.asdict(DEFAULT_PARAMS)
    for name in ("omega_a", "omega_b", "omega_c"):
        if name in doc:
            base[name] = _as_positive_float(doc[name], name)
    for name in ("lambda", "xi", "kappa"):
        if name in doc:
            base[_FIELD_FOR[name]] = _as_complex(doc[name], name)
    try:
        params = ModelParams(**base)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    kind = AtomKind.TWO_LEVEL
    if "atom" in doc:
        try:
            kind = AtomKind.from_string(doc["atom"])
        except ValueError as err:
            raise ConfigError(str(err)) from err

    axes = []
    for i, entry in enumerate(doc.get("scan") or []):
        if not isinstance(entry, dict) or set(entry) != {"param", "start", "stop", "steps"}:
            raise ConfigError(
                f"scan[{i}]: expected keys param/start/stop/steps, got {entry!r}"
            )
        if entry["param"] not in PARAM_NAMES:
            raise ConfigError(f"scan[{i}]: unknown parameter {entry['param']!r}")
        base_value = getattr(params, _FIELD_FOR[entry["param"]])
        if base_value.imag != 0.0:
            raise ConfigError(
                f"scan[{i}]: {entry['param']} has a complex base value {_pair(base_value)}; "
                "scan values are real, so its imaginary part would be dropped"
            )
        steps = entry["steps"]
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            raise ConfigError(f"scan[{i}]: steps must be an integer >= 1, got {steps!r}")
        axes.append(ScanAxis(entry["param"], float(entry["start"]),
                             float(entry["stop"]), steps))

    tol = {}
    for name, value in (doc.get("tol") or {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
            raise ConfigError(f"tol[{name!r}] must be a nonnegative number, got {value!r}")
        tol[str(name)] = float(value)
    try:
        Tolerances().override(tol)
    except KeyError as err:
        raise ConfigError(str(err)) from err

    sector = doc.get("sector")
    if sector is not None and (not isinstance(sector, int) or isinstance(sector, bool)
                               or sector < 0):
        raise ConfigError(f"sector must be a nonnegative integer, got {sector!r}")

    return RunConfig(params=params, kind=kind, scan=tuple(axes), tol=tol, sector=sector)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON form of a config; ``parse_config`` round-trips it."""
    doc = {
        "omega_a": cfg.params.omega_a,
        "omega_b": cfg.params.omega_b,
        "omega_c": cfg.params.omega_c,
        "lambda": _pair(cfg.params.lam),
        "xi": _pair(cfg.params.xi),
        "kappa": _pair(cfg.params.kappa),
        "atom": cfg.kind.value,
        "scan": [dataclasses.asdict(axis) for axis in cfg.scan],
        "tol": dict(cfg.tol),
        "sector": cfg.sector,
    }
    return doc


def _grid(cfg: RunConfig) -> list[ModelParams]:
    points = [cfg.params]
    for axis in cfg.scan:
        values = np.linspace(axis.start, axis.stop, axis.steps)
        expanded = []
        for base in points:
            for value in values:
                expanded.append(
                    dataclasses.replace(base, **{_FIELD_FOR[axis.param]: float(value)})
                )
        points = expanded
    return points


def _param_cells(params: ModelParams) -> dict:
    return {
        "omega_a": params.omega_a,
        "omega_b": params.omega_b,
        "omega_c": params.omega_c,
        "lambda": params.lam,
        "xi": params.xi,
        "kappa": params.kappa,
    }


def _error_row(cells: dict, columns: list[str], err: Exception) -> dict:
    row = {name: cells.get(name) for name in columns}
    row["status"] = type(err).__name__
    return row


SPECTRUM_COLUMNS = [
    "omega_a", "omega_b", "omega_c", "lambda", "xi", "kappa",
    "E1", "E2", "E3", "eps1", "eps2", "Gamma1", "Gamma2",
    "interlacing", "ass1", "ass2", "ass3", "ass4", "status",
]

CLASSIFY_COLUMNS = [
    "omega_a", "omega_b", "omega_c", "lambda", "xi", "kappa",
    "energy", "amp_atom", "amp_photon", "amp_phonon", "class",
    "dark_residual", "quasidark_residual", "status",
]

DUALITY_COLUMNS = [
    "omega_a", "omega_b", "omega_c", "lambda", "xi", "kappa",
    "E1", "E2", "E3", "E1_swapped", "E2_swapped", "E3_swapped",
    "b_occ_1", "b_occ_2", "b_occ_3",
    "c_occ_swapped_1", "c_occ_swapped_2", "c_occ_swapped_3",
    "max_mismatch", "passed", "status",
]

VERIFY_COLUMNS = ["check", "residual", "tolerance", "passed", "skipped", "reason"]


def _spectrum_rows(cfg: RunConfig) -> list[dict]:
    rows = []
    for params in _grid(cfg):
        cells = _param_cells(params)
        try:
            spec = three_mode_spectrum(params)
        except DarkTrioError as err:
            row = _error_row(cells, SPECTRUM_COLUMNS, err)
            row["ass1"] = ass1_margin(params) > 0.0
            rows.append(row)
            continue
        two = spec.two
        report = _assumption_report(params, two)
        interlacing = (0.0 < spec.e[0] < two.eps[0] < spec.e[1]
                       < two.eps[1] < spec.e[2])
        row = dict(cells)
        row.update({
            "E1": spec.e[0], "E2": spec.e[1], "E3": spec.e[2],
            "eps1": two.eps[0], "eps2": two.eps[1],
            "Gamma1": two.gamma[0], "Gamma2": two.gamma[1],
            "interlacing": interlacing,
            **{f"ass{i}": getattr(report, f"ass{i}").passed for i in (1, 2, 3, 4)},
            "status": "ok",
        })
        rows.append(row)
    return rows


def _classify_rows(cfg: RunConfig) -> list[dict]:
    tol = cfg.tol.get("classify", Tolerances().classify)
    rows = []
    for params in _grid(cfg):
        cells = _param_cells(params)
        try:
            tuning = None
            try:
                tuning = dark_tuning(params, tol=cfg.tol.get("tuning", Tolerances().tuning))
            except DarkTrioError:
                pass
            def finite(value):
                return value if value is not None and np.isfinite(value) else None

            for record in classify_spectrum(params, tol=tol):
                row = dict(cells)
                row.update({
                    "energy": record.energy,
                    "amp_atom": complex(record.state.amps[0]),
                    "amp_photon": complex(record.state.amps[1]),
                    "amp_phonon": complex(record.state.amps[2]),
                    "class": record.classification.variant.value,
                    "dark_residual": finite(tuning[0].residual) if tuning else None,
                    "quasidark_residual": finite(tuning[1].residual) if tuning else None,
                    "status": "ok",
                })
                rows.append(row)
        except DarkTrioError as err:
            rows.append(_error_row(cells, CLASSIFY_COLUMNS, err))
    return rows


def _duality_rows(cfg: RunConfig) -> list[dict]:
    tol = cfg.tol.get("duality", Tolerances().duality)
    rows = []
    for params in _grid(cfg):
        cells = _param_cells(params)
        try:
            report = duality_report(params, tol=tol)
            row = dict(cells)
            base, swapped = report.energies
            row.update({
                "E1": base[0], "E2": base[1], "E3": base[2],
                "E1_swapped": swapped[0], "E2_swapped": swapped[1], "E3_swapped": swapped[2],
                "b_occ_1": report.b_occ[0], "b_occ_2": report.b_occ[1],
                "b_occ_3": report.b_occ[2],
                "c_occ_swapped_1": report.c_occ_swapped[0],
                "c_occ_swapped_2": report.c_occ_swapped[1],
                "c_occ_swapped_3": report.c_occ_swapped[2],
                "max_mismatch": report.max_mismatch,
                "passed": report.passed,
                "status": "ok",
            })
            rows.append(row)
        except DarkTrioError as err:
            rows.append(_error_row(cells, DUALITY_COLUMNS, err))
    return rows


def _verify_rows(cfg: RunConfig) -> list[dict]:
    tol = Tolerances().override(cfg.tol)
    checks = list(crosscheck(cfg.params, cfg.kind, tol=tol).checks)
    if cfg.sector is not None and cfg.kind is AtomKind.OSCILLATOR and cfg.sector != 2:
        checks += oscillator_sector_check(cfg.params, cfg.sector, tol=tol.sector).checks
    return [
        {
            "check": c.name,
            "residual": None if c.skipped else c.residual,
            "tolerance": None if c.skipped else c.tolerance,
            "passed": c.passed,
            "skipped": c.skipped,
            "reason": c.reason,
        }
        for c in checks
    ]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        raise TypeError("complex cells must be split before formatting")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(columns: list[str], rows: list[dict], stream) -> None:
    flat_columns = []
    for name in columns:
        if any(isinstance(row.get(name), complex) for row in rows):
            flat_columns += [f"{name}_re", f"{name}_im"]
        else:
            flat_columns.append(name)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(flat_columns)
    for row in rows:
        cells = []
        for name in columns:
            value = row.get(name)
            if f"{name}_re" in flat_columns:
                if value is None:
                    cells += ["", ""]
                else:
                    z = complex(value)
                    cells += [repr(z.real), repr(z.imag)]
            else:
                cells.append(_format_cell(value))
        writer.writerow(cells)


def _jsonify(value):
    if isinstance(value, complex):
        return _pair(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _write_json(cfg: RunConfig, rows: list[dict], columns: list[str], stream) -> None:
    payload = {
        "version": __version__,
        "config": config_to_dict(cfg),
        "rows": [_jsonify({name: row.get(name) for name in columns}) for row in rows],
    }
    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


def _emit(cfg: RunConfig, rows: list[dict], columns: list[str],
          fmt: str, output: str | None) -> None:
    buffer = io.StringIO()
    if fmt == "json":
        _write_json(cfg, rows, columns, buffer)
    else:
        _write_csv(columns, rows, buffer)
    text = buffer.getvalue()
    if output:
        with open(output, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    return parse_config(doc)


def _parse_tol_flags(entries: list[str]) -> dict[str, float]:
    overrides = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {entry!r}")
        try:
            overrides[name] = float(value)
        except ValueError as err:
            raise ConfigError(f"--tol {name}: {value!r} is not a number") from err
    try:
        Tolerances().override(overrides)
    except KeyError as err:
        raise ConfigError(str(err)) from err
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darktrio",
        description="spectra and dark/quasi-dark eigenstates of the three-mode model",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults to the built-in point)")
        p.add_argument("--output", help="write to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override a named tolerance (repeatable)")
        p.add_argument("--sector", type=int, help="sector used by the verify cross-check")

    for name, help_text in (
        ("spectrum", "dressed levels and quasimode data"),
        ("classify", "classified one-excitation eigenstates"),
        ("duality", "occupation duality under the coupling swap"),
        ("verify", "closed-form vs oracle cross-check report"),
    ):
        common(sub.add_parser(name, help=help_text))
    scan = sub.add_parser("scan", help="run a subcommand over the config scan axes")
    scan.add_argument("operation", choices=("spectrum", "classify", "duality"),
                      nargs="?", default="spectrum")
    common(scan)
    return parser


_RUNNERS = {
    "spectrum": (_spectrum_rows, SPECTRUM_COLUMNS),
    "classify": (_classify_rows, CLASSIFY_COLUMNS),
    "duality": (_duality_rows, DUALITY_COLUMNS),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        overrides = _parse_tol_flags(args.tol)
        if overrides:
            merged = dict(cfg.tol)
            merged.update(overrides)
            cfg = dataclasses.replace(cfg, tol=merged)
        if args.sector is not None:
            if args.sector < 0:
                raise ConfigError(f"--sector must be nonnegative, got {args.sector}")
            cfg = dataclasses.replace(cfg, sector=args.sector)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    command = args.command
    operation = getattr(args, "operation", command)
    if command == "verify":
        try:
            rows = _verify_rows(cfg)
        except DarkTrioError as err:
            print(f"verification failed: {err}", file=sys.stderr)
            return 3
        _emit(cfg, rows, VERIFY_COLUMNS, args.format, args.output)
        failed = [r for r in rows if not r["skipped"] and not r["passed"]]
        return 3 if failed else 0

    runner, columns = _RUNNERS[operation]
    scan_mode = command == "scan" or bool(cfg.scan)
    rows = runner(cfg)
    _emit(cfg, rows, columns, args.format, args.output)

    errored = [r for r in rows if r.get("status") != "ok"]
    if errored and not scan_mode:
        names = {r["status"] for r in errored}
        precondition = {e.__name__ for e in _PRECONDITION_ERRORS}
        return 2 if names <= precondition else 3
    if operation == "duality" and not scan_mode:
        if any(r.get("status") == "ok" and not r.get("passed") for r in rows):
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
