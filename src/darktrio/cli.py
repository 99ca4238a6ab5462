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
import functools
import io
import itertools
import json
import math
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
    _STATUS_ERRORS,
)
from .model import _MAX_SECTOR_BYTES, AtomKind, ModelParams, _assumption_margins, _Batch, _batch_of
from .observables import _duality
from .oracle import Tolerances, _crosscheck
from .threemode import _dressed, _interlacing_margin
from .twomode import _two_mode

__all__ = ["RunConfig", "ScanAxis", "main", "parse_config"]

#: config and column name -> ModelParams field, in output order
_FIELD_FOR = {"omega_a": "omega_a", "omega_b": "omega_b", "omega_c": "omega_c",
              "lambda": "lam", "xi": "xi", "kappa": "kappa"}

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


def _number(value, where: str, what: str = "a finite number", accepts=math.isfinite) -> float:
    """``value`` as a float, if it is a JSON number (not a bool) that ``accepts``;
    an integer beyond the float range counts as infinite."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if accepts(number):
            return number
    raise ConfigError(f"{where} must be {what}, got {value!r}")


def _as_complex(value, where: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    try:
        return complex(*(_number(part, where, accepts=lambda _: True) for part in parts))
    except ConfigError:
        raise ConfigError(
            f"{where} must be a finite number or [re, im] pair, got {value!r}"
        ) from None


def parse_config(doc: dict) -> RunConfig:
    """Build a :class:`RunConfig` from a JSON document, validating keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - {*_FIELD_FOR, "atom", "scan", "tol", "sector"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    # a parameter here must be a JSON number, or an [re, im] pair for a
    # coupling; ModelParams checks its value, naming the key
    values = vars(DEFAULT_PARAMS).copy()
    for name, field_name in _FIELD_FOR.items():
        if name in doc:
            values[field_name] = (
                _number(doc[name], name, "a finite positive number", lambda _: True)
                if field_name.startswith("omega") else _as_complex(doc[name], name)
            )
    try:
        params = ModelParams(**values)
    except ValueError as err:
        raise ConfigError(str(err)) from None

    kind = AtomKind.TWO_LEVEL
    if "atom" in doc:
        try:
            kind = AtomKind.from_string(doc["atom"])
        except ValueError as err:
            raise ConfigError(str(err)) from err

    scan = doc.get("scan", [])
    if not isinstance(scan, list):
        raise ConfigError(f"scan must be a list of axes, got {scan!r}")
    axes = []
    for i, entry in enumerate(scan):
        if not isinstance(entry, dict) or set(entry) != {"param", "start", "stop", "steps"}:
            raise ConfigError(
                f"scan[{i}]: expected keys param/start/stop/steps, got {entry!r}"
            )
        param = entry["param"]
        if not isinstance(param, str) or param not in _FIELD_FOR:
            raise ConfigError(f"scan[{i}]: unknown parameter {param!r}")
        base_value = getattr(params, _FIELD_FOR[param])
        if base_value.imag != 0.0:
            raise ConfigError(
                f"scan[{i}]: {param} has a complex base value "
                f"{[base_value.real, base_value.imag]}; "
                "scan values are real, so its imaginary part would be dropped"
            )
        steps = entry["steps"]
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            raise ConfigError(f"scan[{i}]: steps must be an integer >= 1, got {steps!r}")
        start, stop = (_number(entry[key], f"scan[{i}]: {key}") for key in ("start", "stop"))
        axes.append(ScanAxis(param, start, stop, steps))

    tol = doc.get("tol", {})
    if not isinstance(tol, dict):
        raise ConfigError(f"tol must be an object of NAME: VALUE pairs, got {tol!r}")
    tol = {name: _number(value, f"tol[{name!r}]", "a finite nonnegative number",
                         lambda x: 0 <= x < math.inf) for name, value in tol.items()}
    _tolerances(tol)

    sector = doc.get("sector")
    if sector is not None and (not isinstance(sector, int) or isinstance(sector, bool)
                               or sector < 0):
        raise ConfigError(f"sector must be a nonnegative integer, got {sector!r}")

    return RunConfig(params=params, kind=kind, scan=tuple(axes), tol=tol, sector=sector)


def _grid(cfg: RunConfig) -> _Batch:
    """The points of the config's scan as a batch, grid-major (first axis
    outermost); none is built where their columns would pass the sector cap."""
    points = math.prod(axis.steps for axis in cfg.scan)
    needed = points * (3 * 8 + 3 * 16)  # three float frequencies, three complex couplings
    if needed > _MAX_SECTOR_BYTES:
        raise ConfigError(f"scan of {points:,} points needs {needed:,} bytes of parameters; "
                          f"cap is {_MAX_SECTOR_BYTES:,} bytes")
    fields = {name: np.array([getattr(cfg.params, name)]) for name in _FIELD_FOR.values()}
    for axis in cfg.scan:
        with np.errstate(over="ignore", invalid="ignore"):
            # a range beyond the float range gives non-finite values, rejected below
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
    bools, or indices into ``names``; cells where ``ok`` is False are empty.
    A per-point column's row ``r`` shows entry ``point[r]``.  Both writers
    format a whole table at once, a per-point cell once: :func:`_json_text`
    in one encoder call, :func:`_write_csv` the floats of :meth:`csv_parts`."""

    values: np.ndarray
    ok: np.ndarray | None = None
    names: tuple[str, ...] | None = None
    point: np.ndarray | None = None

    def csv_parts(self) -> list[np.ndarray]:
        """The column's CSV columns, hidden cells not yet blanked: one, or two
        (``_re``, ``_im``) for a complex column.  A float part holds the
        values, which :func:`_write_csv` formats; any other holds text cells."""
        values = self.values
        if self.names is not None:
            return [np.array([_csv_field(name) for name in self.names], dtype=object)[values]]
        if values.dtype.kind == "c":
            return [values.real, values.imag]
        if values.dtype.kind == "b":
            return [np.array(["false", "true"], dtype=object)[values.astype(np.intp)]]
        return [values]


Table = dict[str, _Column]

_STATUS_NAMES = ("ok", *(error.__name__ for error in _STATUS_ERRORS[1:]))


def _param_cells(p: _Batch, point: np.ndarray | None = None) -> Table:
    """The parameter columns, per point on the rows ``point``, if given."""
    return {name: _Column(getattr(p, field_name), point=point)
            for name, field_name in _FIELD_FOR.items()}


def _text_cells(cells: list[str]) -> _Column:
    return _Column(np.arange(len(cells)), names=tuple(cells))


# Each runner inserts its columns in output order.

def _spectrum_rows(cfg: RunConfig) -> Table:
    p = _grid(cfg)
    spec = _dressed(p, _two_mode(p))
    ok = spec.status.ok
    e, eps, gamma = spec.e, spec.two.eps, spec.two.gamma
    with np.errstate(invalid="ignore"):
        holds = _assumption_margins(p, spec.two, _tolerances(cfg.tol).ass2) > 0.0
        interlacing = _interlacing_margin(e, eps) > 0.0
    table = _param_cells(p)
    table.update({
        "E1": _Column(e[:, 0], ok), "E2": _Column(e[:, 1], ok), "E3": _Column(e[:, 2], ok),
        "eps1": _Column(eps[:, 0], ok), "eps2": _Column(eps[:, 1], ok),
        "Gamma1": _Column(gamma[:, 0], ok), "Gamma2": _Column(gamma[:, 1], ok),
        "interlacing": _Column(interlacing, ok),
        # assumption 1 needs no solution, so error rows show it too
        "ass1": _Column(holds[:, 0]),
        **{f"ass{i}": _Column(holds[:, i - 1], ok) for i in (2, 3, 4)},
        "status": _Column(spec.status.code, names=_STATUS_NAMES),
    })
    return table


def _classify_rows(cfg: RunConfig) -> Table:
    tol = _tolerances(cfg.tol)
    p = _grid(cfg)
    branches, tuning = _tuning(p, tol=tol.tuning)
    spectra = _classified(p, tol=tol.classify)
    # three rows (one per eigenstate) per solved point, one error row otherwise
    counts = np.where(spectra.status.ok, 3, 1)
    point = np.repeat(np.arange(len(p)), counts)
    level = np.arange(len(point)) - np.repeat(np.cumsum(counts) - counts, counts)
    ok = spectra.status.ok[point]
    states = spectra.states[point, :, level]
    table = _param_cells(p, point)
    table.update({
        "energy": _Column(spectra.energies[point, level], ok),
        **{f"amp_{mode}": _Column(states[:, i], ok)
           for i, mode in enumerate(("atom", "photon", "phonon"))},
        "class": _Column(spectra.codes[point, level], ok, _CLASS_NAMES),
    })
    for name, (residual, _, _) in zip(("dark_residual", "quasidark_residual"), branches):
        # shown where the point solved and the tuning analysis applies, if finite
        shown = spectra.status.ok & tuning.ok & np.isfinite(residual)
        table[name] = _Column(residual, shown, point=point)
    table["status"] = _Column(spectra.status.code, names=_STATUS_NAMES, point=point)
    return table


_CLASS_NAMES = tuple(variant.value for variant in _VARIANTS)


def _duality_rows(cfg: RunConfig) -> Table:
    p = _grid(cfg)
    report, status = _duality(p, _tolerances(cfg.tol).duality)
    ok = status.ok
    base, swapped = report.energies
    table = _param_cells(p)
    for name, values in (("E{}", base), ("E{}_swapped", swapped),
                         ("b_occ_{}", report.b_occ), ("c_occ_swapped_{}", report.c_occ_swapped)):
        for j in range(3):
            table[name.format(j + 1)] = _Column(values[:, j], ok)
    table["max_mismatch"] = _Column(report.max_mismatch, ok)
    table["passed"] = _Column(report.passed, ok)
    table["status"] = _Column(status.code, names=_STATUS_NAMES)
    return table


def _verify_rows(cfg: RunConfig) -> Table:
    # a requested sector gets its row for either atom; a two-level row skips
    checks = _crosscheck(_batch_of(cfg.params), cfg.kind, _tolerances(cfg.tol),
                         (2,) if cfg.sector in (None, 2) else (2, cfg.sector))
    checks.status.check()
    skipped = checks.skipped[0]
    return {
        "check": _text_cells(list(checks.names)),
        "residual": _Column(checks.residual[0], ~skipped),
        "tolerance": _Column(checks.tolerance[0], ~skipped),
        "passed": _Column(checks.passed[0]),
        "skipped": _Column(skipped),
        "reason": _text_cells(checks.reasons(0)),
    }


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields of a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


def _write_csv(table: Table, stream) -> None:
    """Column by column; a complex column splits into ``_re``/``_im`` columns.

    The floats of the whole table are formatted together: ``float.__repr__``
    runs once per distinct bit pattern, so ``-0.0`` and ``0.0`` stay apart
    and a value repeated across columns, as in the duality's swapped
    columns, is formatted once.  The cells are CSV fields then (text cells
    quoted by :func:`_csv_field`), so rows are plain joins, which are faster
    than ``csv.writer.writerows`` over the same strings.
    """
    header, parts, owners = [], [], []
    for name, column in table.items():
        columns = column.csv_parts()
        header += [f"{name}_re", f"{name}_im"] if len(columns) == 2 else [name]
        parts += columns
        owners += [column] * len(columns)
    floats = [i for i, part in enumerate(parts) if part.dtype.kind == "f"]
    if floats:
        bits = np.concatenate([parts[i] for i in floats]).view(np.int64)
        distinct, index = _distinct(bits)
        text = np.array(list(map(float.__repr__, distinct.view(float).tolist())), dtype=object)
        ends = np.cumsum([len(parts[i]) for i in floats[:-1]])
        for i, cells in zip(floats, np.split(text[index], ends)):
            parts[i] = cells
    for part, column in zip(parts, owners):
        if column.ok is not None:
            part[~column.ok] = ""
    # a run of per-point parts on one index is joined once per point
    fields = []
    for _, run in itertools.groupby(zip(owners, parts), key=lambda pair: id(pair[0].point)):
        columns, run = zip(*run)
        point = columns[0].point
        fields += run if point is None else [np.array(_joined(run), dtype=object)[point]]
    stream.write("\n".join([",".join(header), *_joined(fields)]) + "\n")


def _joined(parts: list[np.ndarray]) -> list[str]:
    """The cells of ``parts`` joined by commas, row by row."""
    return list(map(",".join, zip(*(part.tolist() for part in parts))))


def _distinct(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(bits, return_inverse=True)`` by one stable sort: a timsort,
    fast on the long runs of a scan's grid-major columns, slow on shuffled bits."""
    order = bits.argsort(kind="stable")
    ordered = bits[order]
    first = np.ones(len(bits), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    index = np.empty_like(order)
    index[order] = np.cumsum(first) - 1
    return ordered[first], index


#: Formats a flat list of cells, one a line.  ``separators`` keeps the C
#: encoder, which ``indent`` turns off; with ``ensure_ascii`` no cell holds a
#: raw newline, so splitting on newlines is exact.
_CELL_ENCODER = json.JSONEncoder(allow_nan=False, separators=("\n", ": "))


def _block(brackets: str, items: list[str], indent: str) -> str:
    """``items`` inside ``brackets`` as ``json.dumps`` lays them out at
    ``indent=2``, for a container whose own line starts with ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


@functools.lru_cache(maxsize=16)
def _head_template(axes: int, tols: int) -> str:
    """The document of :func:`_json_text` for a config with ``axes`` scan axes
    and ``tols`` tolerances: a ``%s`` for the version, every value and
    tolerance name of the config, and the rows."""
    pair = _block("[]", ["%s", "%s"], "    ")
    axis = _block("{}", [f'"{key}": %s' for key in ("param", "start", "stop", "steps")], "      ")
    config = [f'"{name}": ' + ("%s" if name.startswith("omega") else pair) for name in _FIELD_FOR]
    config += ['"atom": %s', '"scan": ' + _block("[]", [axis] * axes, "    "),
               '"tol": ' + _block("{}", ["%s: %s"] * tols, "    "), '"sector": %s']
    config = '"config": ' + _block("{}", config, "  ")
    return _block("{}", ['"version": %s', config, '"rows": %s'], "")


@functools.lru_cache(maxsize=64)
def _row_template(names: tuple[str, ...]) -> str:
    """One row of a table with the columns ``names``, a ``%s`` per cell."""
    return _block("{}", [f"{json.dumps(name).replace('%', '%%')}: %s" for name in names], "    ")


def _json_text(cfg: RunConfig, table: Table) -> str:
    """The bytes of ``json.dumps`` at ``indent=2`` of the version, the config
    and one dict per row.  One encoder call formats the config's values and
    every cell of the table, hidden cells as ``null`` and a per-point cell
    once; the document and each row go through a ``%`` template of their
    shape.  A shown NaN or inf raises ``ValueError``, as in ``json.dumps``."""
    p = cfg.params  # the version and the config's values, in _head_template's order
    flat = [__version__, p.omega_a, p.omega_b, p.omega_c, p.lam.real, p.lam.imag,
            p.xi.real, p.xi.imag, p.kappa.real, p.kappa.imag, cfg.kind.value]
    for axis in cfg.scan:
        flat += (axis.param, axis.start, axis.stop, axis.steps)
    for item in cfg.tol.items():
        flat += item
    flat.append(cfg.sector)
    head = len(flat)
    for column in table.values():
        values = column.values
        shown = None if column.ok is None else column.ok.tolist()
        # a complex column's real parts, then its imaginary parts
        for part in (values.real, values.imag) if values.dtype.kind == "c" else (values,):
            cells = part.tolist()
            if column.names is not None:
                cells = list(map(column.names.__getitem__, cells))
            if shown is not None and False in shown:
                cells = [cell if keep else None for cell, keep in zip(cells, shown)]
            flat += cells
    text = _CELL_ENCODER.encode(flat)[1:-1].split("\n")
    columns, start = [], head
    for column in table.values():
        n = len(column.values)
        cells = text[start:start + n]
        start += n
        if column.values.dtype.kind == "c":  # a hidden pair is one null
            cells = [real if real == "null" else f"[\n        {real},\n        {imag}\n      ]"
                     for real, imag in zip(cells, text[start:start + n])]
            start += n
        columns.append(cells if column.point is None else [cells[i] for i in column.point.tolist()])
    rows = _block("[]", list(map(_row_template(tuple(table)).__mod__, zip(*columns))), "  ")
    return _head_template(len(cfg.scan), len(cfg.tol)) % (*text[:head], rows) + "\n"


def _emit(cfg: RunConfig, table: Table, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = _json_text(cfg, table)
    else:
        buffer = io.StringIO()
        _write_csv(table, buffer)
        text = buffer.getvalue()
    if output:
        try:
            with open(output, "w", newline="") as handle:
                handle.write(text)
        except OSError as err:
            raise ConfigError(f"cannot write output {output!r}: {err}") from err
    else:
        sys.stdout.write(text)


def _config_document(args: argparse.Namespace):
    """The config file's JSON document with the ``--tol`` and ``--sector``
    values merged in, flag keys after file keys, for :func:`parse_config`
    to check as one document.  No file gives ``{}``."""
    doc = {}
    if args.config is not None:
        try:
            with open(args.config) as handle:
                doc = json.load(handle)
        except OSError as err:
            raise ConfigError(f"cannot read config {args.config!r}: {err}") from err
        except ValueError as err:
            # malformed JSON, text that is not UTF-8, or an integer longer
            # than Python converts
            raise ConfigError(f"config {args.config!r} is not valid JSON: {err}") from err
    overrides = _parse_tol_flags(args.tol)
    sector = getattr(args, "sector", None)
    if isinstance(doc, dict):
        if overrides:
            tol = doc.get("tol", {})
            doc["tol"] = {**tol, **overrides} if isinstance(tol, dict) else tol
        if sector is not None:
            doc["sector"] = sector
    return doc


def _parse_tol_flags(entries: list[str]) -> dict[str, float]:
    """The ``--tol NAME=VALUE`` pairs as numbers; :func:`parse_config` checks them."""
    overrides = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {entry!r}")
        try:
            overrides[name] = float(value)
        except ValueError as err:
            raise ConfigError(f"--tol {name}: {value!r} is not a number") from err
    return overrides


def _tolerances(overrides: dict[str, float]) -> Tolerances:
    """The default tolerances with ``overrides``; an unknown name is a :class:`ConfigError`."""
    if not overrides:
        return _DEFAULT_TOL
    try:
        return _DEFAULT_TOL.override(overrides)
    except KeyError as err:
        raise ConfigError(err.args[0]) from err


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call and then reused.

    Reuse is safe: argparse looks up ``sys.stdout``/``sys.stderr`` when it
    prints, and the ``append`` action of ``--tol`` copies its default list.
    """
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
        return p

    for name, help_text in (
        ("spectrum", "dressed levels and quasimode data"),
        ("classify", "classified one-excitation eigenstates"),
        ("duality", "occupation duality under the coupling swap"),
    ):
        common(sub.add_parser(name, help=help_text))
    verify = common(sub.add_parser("verify", help="closed-form vs oracle cross-check report"))
    verify.add_argument("--sector", type=int,
                        help="add a spectrum check of this sector (oscillator atom)")
    scan = sub.add_parser("scan", help="run a subcommand over the config scan axes")
    scan.add_argument("operation", choices=("spectrum", "classify", "duality"),
                      nargs="?", default="spectrum")
    common(scan)
    return parser


_RUNNERS = {"spectrum": _spectrum_rows, "classify": _classify_rows, "duality": _duality_rows}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command and write its table; the exit code."""
    cfg = parse_config(_config_document(args))
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
        # JSON holds no inf or NaN, and a shown cell has no null form
        bad = ~table["skipped"].values & ~np.isfinite(
            [table["residual"].values, table["tolerance"].values]).all(axis=0)
        if args.format == "json" and bad.any():
            print(f"verification failed: {table['check'].names[bad.argmax()]} has a non-finite "
                  "residual or tolerance, which JSON cannot hold", file=sys.stderr)
            return 3
        _emit(cfg, table, args.format, args.output)
        failed = ~table["skipped"].values & ~table["passed"].values
        return 3 if failed.any() else 0

    scan_mode = command == "scan" or bool(cfg.scan)
    table = _RUNNERS[operation](cfg)
    _emit(cfg, table, args.format, args.output)
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
