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
import functools
import io
import json
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from .darkstates import _VARIANTS, _classified, _tuning
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
    _STATUS_ERRORS,
    _Status,
)
from .model import AtomKind, ModelParams, _assumption_margins, _Batch
from .observables import _duality
from .oracle import Tolerances, crosscheck, oscillator_sector_check
from .threemode import _dressed
from .twomode import _two_mode

__all__ = ["RunConfig", "ScanAxis", "main", "parse_config", "config_to_dict"]

PARAM_NAMES = ("omega_a", "omega_b", "omega_c", "lambda", "xi", "kappa")
_FIELD_FOR = {"lambda": "lam", "xi": "xi", "kappa": "kappa",
              "omega_a": "omega_a", "omega_b": "omega_b", "omega_c": "omega_c"}

DEFAULT_PARAMS = ModelParams(
    omega_a=1.0, omega_b=1.0, omega_c=1.0, lam=0.2, xi=0.05, kappa=0.1
)
_DEFAULT_TOL = Tolerances()

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

    base = {name: getattr(DEFAULT_PARAMS, name) for name in _FIELD_FOR.values()}
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
    _tolerances(tol)

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


def _grid(cfg: RunConfig) -> _Batch:
    """The points of the config's scan as a batch, grid-major (first axis outermost)."""
    fields = {name: np.array([getattr(cfg.params, name)]) for name in _FIELD_FOR.values()}
    for axis in cfg.scan:
        values = np.linspace(axis.start, axis.stop, axis.steps)
        size = len(fields["omega_a"])
        fields = {name: np.repeat(column, axis.steps) for name, column in fields.items()}
        name = _FIELD_FOR[axis.param]
        fields[name] = np.tile(values, size).astype(fields[name].dtype)
        if name.startswith("omega"):
            bad = ~(np.isfinite(values) & (values > 0.0))
            what = "a finite positive frequency"
        else:
            bad = ~np.isfinite(values)
            what = "finite"
        if bad.any():
            raise ConfigError(f"scan of {axis.param} must stay {what}, "
                              f"got {values[bad][0].item()!r}")
    return _Batch(**fields)


class _Column(NamedTuple):
    """One table column as arrays: ``values`` are floats, complex numbers or
    bools, or indices into ``names``; cells where ``ok`` is False are empty."""

    values: np.ndarray
    ok: np.ndarray | None = None
    names: tuple[str, ...] | None = None

    def json_cells(self) -> list:
        cells = self.values.tolist()
        if self.names is not None:
            cells = [self.names[code] for code in cells]
        elif self.values.dtype.kind == "c":
            cells = [[z.real, z.imag] for z in cells]
        if self.ok is not None and np.count_nonzero(self.ok) < len(cells):
            for row in np.flatnonzero(~self.ok).tolist():
                cells[row] = None
        return cells

    def csv_text(self) -> list[list[str]]:
        """The column's CSV text: one list of cells, or two (``_re``, ``_im``)
        for a complex column with a nonempty cell."""
        values = self.values
        if self.names is not None:
            texts = [np.array([_csv_field(name) for name in self.names], dtype=object)[values]]
        elif values.dtype.kind == "c":
            shown = np.ones(len(values), dtype=bool) if self.ok is None else self.ok
            if not shown.any():
                return [[""] * len(values)]
            texts = [_float_text(values.real), _float_text(values.imag)]
        elif values.dtype.kind == "b":
            texts = [np.array(["false", "true"], dtype=object)[values.astype(np.intp)]]
        else:
            texts = [_float_text(values)]
        for text in texts:
            if self.ok is not None:
                text[~self.ok] = ""
        return [text.tolist() for text in texts]


def _float_text(values: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of every value, each distinct value formatted once."""
    distinct, index = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(float.__repr__, distinct.view(float).tolist())), dtype=object)[index]


Table = dict[str, _Column]

_STATUS_NAMES = ("ok", *(error.__name__ for error in _STATUS_ERRORS[1:]))


def _param_cells(p: _Batch, point=slice(None)) -> Table:
    """The parameter columns; row ``r`` shows point ``point[r]``."""
    columns = {"omega_a": p.omega_a, "omega_b": p.omega_b, "omega_c": p.omega_c,
               "lambda": p.lam, "xi": p.xi, "kappa": p.kappa}
    return {name: _Column(values[point]) for name, values in columns.items()}


def _status_cells(status: _Status, point=slice(None)) -> _Column:
    return _Column(status.code[point], names=_STATUS_NAMES)


def _text_cells(cells: list[str]) -> _Column:
    return _Column(np.arange(len(cells)), names=tuple(cells))


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


def _spectrum_rows(cfg: RunConfig) -> Table:
    p = _grid(cfg)
    spec = _dressed(p, _two_mode(p))
    ok = spec.status.ok
    e, eps, gamma = spec.e, spec.two.eps, spec.two.gamma
    with np.errstate(invalid="ignore"):
        holds = _assumption_margins(p, spec.two) > 0.0
        interlacing = ((0.0 < e[:, 0]) & (e[:, 0] < eps[:, 0]) & (eps[:, 0] < e[:, 1])
                       & (e[:, 1] < eps[:, 1]) & (eps[:, 1] < e[:, 2]))
    table = _param_cells(p)
    table.update({
        "E1": _Column(e[:, 0], ok), "E2": _Column(e[:, 1], ok), "E3": _Column(e[:, 2], ok),
        "eps1": _Column(eps[:, 0], ok), "eps2": _Column(eps[:, 1], ok),
        "Gamma1": _Column(gamma[:, 0], ok), "Gamma2": _Column(gamma[:, 1], ok),
        "interlacing": _Column(interlacing, ok),
        # assumption 1 needs no solution, so error rows show it too
        "ass1": _Column(holds[:, 0]),
        **{f"ass{i}": _Column(holds[:, i - 1], ok) for i in (2, 3, 4)},
        "status": _status_cells(spec.status),
    })
    return table


def _classify_rows(cfg: RunConfig) -> Table:
    p = _grid(cfg)
    branches, tuning = _tuning(p, tol=cfg.tol.get("tuning", _DEFAULT_TOL.tuning))
    spectra = _classified(p, tol=cfg.tol.get("classify", _DEFAULT_TOL.classify))
    # three rows (one per eigenstate) per solved point, one error row otherwise
    counts = np.where(spectra.status.ok, 3, 1)
    point = np.repeat(np.arange(len(p)), counts)
    level = np.arange(len(point)) - np.repeat(np.cumsum(counts) - counts, counts)
    ok = spectra.status.ok[point]
    states = spectra.states[point, :, level]
    table = _param_cells(p, point)
    table.update({
        "energy": _Column(spectra.energies[point, level], ok),
        "amp_atom": _Column(states[:, 0], ok),
        "amp_photon": _Column(states[:, 1], ok),
        "amp_phonon": _Column(states[:, 2], ok),
        "class": _Column(spectra.codes[point, level], ok, _CLASS_NAMES),
        "status": _status_cells(spectra.status, point),
    })
    for name, (residual, _, _) in zip(("dark_residual", "quasidark_residual"), branches):
        # a residual shows where the tuning analysis applies and is finite
        shown = tuning.ok & np.isfinite(residual)
        table[name] = _Column(residual[point], ok & shown[point])
    return table


_CLASS_NAMES = tuple(variant.value for variant in _VARIANTS)


def _duality_rows(cfg: RunConfig) -> Table:
    tol = cfg.tol.get("duality", _DEFAULT_TOL.duality)
    p = _grid(cfg)
    report, status = _duality(p, tol)
    ok = status.ok
    base, swapped = report.energies
    table = _param_cells(p)
    for j in range(3):
        table[f"E{j + 1}"] = _Column(base[:, j], ok)
        table[f"E{j + 1}_swapped"] = _Column(swapped[:, j], ok)
        table[f"b_occ_{j + 1}"] = _Column(report.b_occ[:, j], ok)
        table[f"c_occ_swapped_{j + 1}"] = _Column(report.c_occ_swapped[:, j], ok)
    table["max_mismatch"] = _Column(report.max_mismatch, ok)
    table["passed"] = _Column(report.passed, ok)
    table["status"] = _status_cells(status)
    return table


def _verify_rows(cfg: RunConfig) -> Table:
    tol = _tolerances(cfg.tol)
    checks = list(crosscheck(cfg.params, cfg.kind, tol=tol).checks)
    if cfg.sector is not None and cfg.kind is AtomKind.OSCILLATOR and cfg.sector != 2:
        # the extra sector skips exactly where crosscheck's sector 2 does
        sector_2 = next(c for c in checks if c.name == "sector-2-spectrum")
        if sector_2.skipped:
            checks.append(dataclasses.replace(sector_2, name=f"sector-{cfg.sector}-spectrum"))
        else:
            checks += oscillator_sector_check(cfg.params, cfg.sector, tol=tol.sector).checks
    skipped = np.array([c.skipped for c in checks])
    return {
        "check": _text_cells([c.name for c in checks]),
        "residual": _Column(np.array([c.residual for c in checks]), ~skipped),
        "tolerance": _Column(np.array([c.tolerance for c in checks]), ~skipped),
        "passed": _Column(np.array([c.passed for c in checks])),
        "skipped": _Column(skipped),
        "reason": _text_cells([c.reason for c in checks]),
    }


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields of a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


def _write_csv(columns: list[str], table: Table, stream) -> None:
    """Column by column; a complex column splits into ``_re``/``_im`` columns.

    The cells are CSV fields already (text cells quoted by
    :func:`_csv_field`), so rows are plain joins, which are faster than
    ``csv.writer.writerows`` over the same strings.
    """
    header, text = [], []
    for name in columns:
        parts = table[name].csv_text()
        header += [f"{name}_re", f"{name}_im"] if len(parts) == 2 else [name]
        text += parts
    stream.write(",".join(header) + "\n")
    stream.writelines(",".join(row) + "\n" for row in zip(*text))


def _json_text(cfg: RunConfig, table: Table, columns: list[str]) -> str:
    cells = [table[name].json_cells() for name in columns]
    payload = {
        "version": __version__,
        "config": config_to_dict(cfg),
        "rows": [dict(zip(columns, row)) for row in zip(*cells)],
    }
    # one join of the encoder's chunks, where json.dump writes each chunk
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit(cfg: RunConfig, table: Table, columns: list[str],
          fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = _json_text(cfg, table, columns)
    else:
        buffer = io.StringIO()
        _write_csv(columns, table, buffer)
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
    _tolerances(overrides)
    return overrides


def _tolerances(overrides: dict[str, float]) -> Tolerances:
    """The default tolerances with ``overrides``; an unknown name is a :class:`ConfigError`."""
    if not overrides:
        return _DEFAULT_TOL
    try:
        return _DEFAULT_TOL.override(overrides)
    except KeyError as err:
        raise ConfigError(str(err)) from err


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and then reused.

    Reuse is safe: argparse looks up ``sys.stdout``/``sys.stderr`` when it
    prints, and the ``append`` action of ``--tol`` copies its default list.
    """
    return build_parser()


_RUNNERS = {
    "spectrum": (_spectrum_rows, SPECTRUM_COLUMNS),
    "classify": (_classify_rows, CLASSIFY_COLUMNS),
    "duality": (_duality_rows, DUALITY_COLUMNS),
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
            table = _verify_rows(cfg)
        except _PRECONDITION_ERRORS as err:
            print(f"verification precondition failed: {err}", file=sys.stderr)
            return 2
        except DarkTrioError as err:
            print(f"verification failed: {err}", file=sys.stderr)
            return 3
        _emit(cfg, table, VERIFY_COLUMNS, args.format, args.output)
        failed = ~table["skipped"].values & ~table["passed"].values
        return 3 if failed.any() else 0

    runner, columns = _RUNNERS[operation]
    scan_mode = command == "scan" or bool(cfg.scan)
    try:
        table = runner(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    _emit(cfg, table, columns, args.format, args.output)
    if scan_mode:
        return 0

    errored = {_STATUS_NAMES[code] for code in table["status"].values.tolist()} - {"ok"}
    if errored:
        precondition = {e.__name__ for e in _PRECONDITION_ERRORS}
        return 2 if errored <= precondition else 3
    if operation == "duality" and not table["passed"].values.all():
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
