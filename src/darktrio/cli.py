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
One function, :func:`_text`, makes a table's document in either format.
Both get every cell's text from one stage, :func:`_cells`, which formats
a table's floats, and JSON's config floats, in one pool: by
``float.__repr__`` each, or, from ``_BULK_FLOATS`` floats on, each distinct
one by :mod:`darktrio._floattext`'s array formatter, with the same text.  A
scan of at least ``2 * _CHUNK_POINTS`` points is split by points across the
CPUs of the affinity mask, each chunk after the first solved and formatted
in a forked worker, which sends back its rows for one document.

Exit codes: 0 success, 1 config error (``verify`` on a config with scan
axes is one), 2 model-precondition violation in single-point mode, 3
numerical or validation failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

_CONFIG_KEYS = frozenset({*_FIELD_FOR, "atom", "scan", "tol", "sector"})

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

    @functools.cached_property
    def tolerances(self) -> Tolerances:
        """The default tolerances with ``tol``; an unknown name is a :class:`ConfigError`."""
        if not self.tol:
            return _DEFAULT_TOL
        try:
            return _DEFAULT_TOL.override(self.tol)
        except KeyError as err:
            raise ConfigError(err.args[0]) from err


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
    if not _CONFIG_KEYS.issuperset(doc):
        raise ConfigError(f"unknown config keys: {sorted(set(doc) - _CONFIG_KEYS)}")

    # a parameter here must be a JSON number, or an [re, im] pair for a
    # coupling; ModelParams checks its value, naming the key, and takes a
    # float as it is
    values = vars(DEFAULT_PARAMS).copy()
    for name, field_name in _FIELD_FOR.items():
        if name in doc:
            value = doc[name]
            if type(value) is not float:
                value = (_number(value, name, "a finite positive number", lambda _: True)
                         if field_name.startswith("omega") else _as_complex(value, name))
            values[field_name] = value
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

    sector = doc.get("sector")
    cfg = RunConfig(params=params, kind=kind, scan=tuple(axes), tol=tol, sector=sector)
    cfg.tolerances  # an unknown tolerance name is an error here, before a bad sector
    if sector is not None and (not isinstance(sector, int) or isinstance(sector, bool)
                               or sector < 0):
        raise ConfigError(f"sector must be a nonnegative integer, got {sector!r}")
    return cfg


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
    A per-point column's row ``r`` shows entry ``point[r]``.  Both writers get
    every cell's text from :func:`_cells`, a per-point cell's once, and lay
    the texts out; a complex column's real and imaginary parts are two parts."""

    values: np.ndarray
    ok: np.ndarray | None = None
    names: tuple[str, ...] | None = None
    point: np.ndarray | None = None


Table = dict[str, _Column]

_STATUS_NAMES = ("ok", *(error.__name__ for error in _STATUS_ERRORS[1:]))


def _param_cells(p: _Batch, point: np.ndarray | None = None) -> Table:
    """The parameter columns, per point on the rows ``point``, if given."""
    return {name: _Column(getattr(p, field_name), point=point)
            for name, field_name in _FIELD_FOR.items()}


def _text_cells(cells: list[str]) -> _Column:
    return _Column(np.arange(len(cells)), names=tuple(cells))


# Each runner takes the config and its points and inserts its columns in output order.

def _spectrum_rows(cfg: RunConfig, p: _Batch) -> Table:
    spec = _dressed(p, _two_mode(p))
    ok = spec.status.ok
    e, eps, gamma = spec.e, spec.two.eps, spec.two.gamma
    holds = _assumption_margins(p, spec.two, cfg.tolerances.ass2) > 0.0
    interlacing = _interlacing_margin(e, spec.r) > 0.0
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


def _classify_rows(cfg: RunConfig, p: _Batch) -> Table:
    branches, tuning = _tuning(p, tol=cfg.tolerances.tuning)
    spectra = _classified(p, tol=cfg.tolerances.classify)
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


def _duality_rows(cfg: RunConfig, p: _Batch) -> Table:
    report, status = _duality(p, cfg.tolerances.duality)
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
    checks = _crosscheck(_batch_of(cfg.params), cfg.kind, cfg.tolerances,
                         (2,) if cfg.sector in (None, 2) else (2, cfg.sector))
    checks.status.check()
    skipped = checks.skipped[0]
    shown = ~skipped
    return {
        "check": _text_cells(list(checks.names)),
        "residual": _Column(checks.residual[0], shown),
        "tolerance": _Column(checks.tolerance[0], shown),
        "passed": _Column(checks.passed[0]),
        "skipped": _Column(skipped),
        "reason": _text_cells(checks.reasons(0)),
    }


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields of a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[:-2]


#: per format: how it quotes a name, its hidden cell, and what comes between two rows
_FORMATS = {"csv": (_csv_field, "", "\n"), "json": (json.dumps, "null", ",\n    ")}

#: the texts ``float.__repr__`` gives NaN and the infinities
_NON_FINITE = frozenset({"nan", "inf", "-inf"})


@functools.lru_cache(maxsize=64)
def _names(names: tuple[str, ...] | None, quote: Callable[[str], str]) -> tuple[str, ...]:
    """A names column's cell texts as ``quote`` writes them, or a bool column's (``names`` None)."""
    return ("false", "true") if names is None else tuple(map(quote, names))


#: the fewest floats a table formats with array operations: below it their
#: fixed cost exceeds one ``float.__repr__`` call per value
_BULK_FLOATS = 450


def _float_texts(pool: np.ndarray) -> list[str]:
    """The ``float.__repr__`` text of each float of ``pool``: below
    :data:`_BULK_FLOATS` floats formed one by one, else once per distinct bit
    pattern (``-0.0`` apart from ``0.0``) by :func:`._floattext.float_reprs`."""
    if len(pool) < _BULK_FLOATS:
        return list(map(float.__repr__, pool.tolist()))
    from ._floattext import float_reprs  # so that a run of small tables builds none of its tables

    distinct, index = _distinct(pool.view(np.int64))
    return np.array(float_reprs(distinct.view(float)), dtype=object)[index].tolist()


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


def _cells(table: Table, fmt: str, head: list[float] = ()) -> tuple[list, list[str], list[str]]:
    """The text in ``fmt`` of each cell of ``table`` and float of ``head``, the one
    stage of both writers.  The float parts (float columns, and the real and
    imaginary parts of complex ones) and ``head`` make one pool for
    :func:`_float_texts`; other cells take :func:`_names`' texts.  A mask is
    read once and applied only if it hides a cell.  A shown NaN or inf raises
    ``ValueError`` in JSON.  Returns the blocks of adjacent columns on one point
    index (or none), each as its first column, point index and parts' cell
    lists; each column's dtype kind; and the texts of ``head``."""
    quote, hidden, _ = _FORMATS[fmt]
    parts, blocks, kinds = [], [], []
    size, point_read, ok_read = 0, False, False
    for values, ok, names, point in table.values():
        if point is not point_read:
            point_read = point
            blocks.append((len(kinds), len(parts), point))
        if ok is not ok_read:  # each mask is read once, and one that hides no cell is dropped
            ok_read, shown = ok, None if ok is None else ok.tolist()
            if shown is not None and False not in shown:
                shown = None
        kind = values.dtype.kind
        kinds.append(kind)
        if kind in "fc":  # a float part holds its place, with its slice of the pool and its mask
            split, n = (values.real, values.imag) if kind == "c" else (values,), len(values)
            for part in split:
                parts.append((part, slice(size, size := size + n), shown))
        else:
            cells = list(map(_names(names, quote).__getitem__, values.tolist()))
            if shown:
                cells = [cell if keep else hidden for cell, keep in zip(cells, shown)]
            parts.append(cells)
    floats = [part[0] for part in parts if type(part) is tuple]
    texts = _float_texts(np.concatenate([*floats, head]))
    parts = [part if type(part) is list else texts[part[1]] if part[2] is None else
             [text if keep else hidden for text, keep in zip(texts[part[1]], part[2])]
             for part in parts]
    # JSON holds no NaN or infinity, so a shown one is refused before anything is written
    if fmt == "json" and not _NON_FINITE.isdisjoint(texts) and not all(
            map(_NON_FINITE.isdisjoint, parts)):
        raise ValueError("a shown cell is NaN or infinite")
    # a block's parts run up to the next block's first part
    return ([(column, point, parts[first:end]) for (column, first, point), (_, end, _)
             in zip(blocks, [*blocks[1:], (0, None, 0)])], kinds, texts[size:])


def _rows(blocks: list, lays: list[Callable], sep: str) -> list[str]:
    """A table's rows from its :func:`_cells` blocks: each block laid out by its ``lay``,
    once per row or per point, and the blocks of a row joined by ``sep``."""
    fields = [list(map(lay, zip(*parts))) for (_, _, parts), lay in zip(blocks, lays)]
    fields = [entries if point is None else list(map(entries.__getitem__, point.tolist()))
              for (_, point, _), entries in zip(blocks, fields)]
    return fields[0] if len(fields) == 1 else list(map(sep.join, zip(*fields)))


def _block(brackets: str, items: list[str], indent: str) -> str:
    """``items`` inside ``brackets`` as ``json.dumps`` lays them out at
    ``indent=2``, for a container whose own line starts with ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


#: a complex cell's two slots in a row, and what a hidden one fills them
#: with; no other text of a document holds it, so replacing it is exact
_PAIR = _block("[]", ["%s", "%s"], "      ")
_NULL_PAIR = _PAIR % ("null", "null")


@functools.lru_cache(maxsize=16)
def _head_template(atom: AtomKind, axes: tuple[ScanAxis, ...], tols: tuple[str, ...],
                   sector: int | None) -> str:
    """The head of :func:`_text`'s JSON document for a config of ``atom``, the scan
    ``axes``, the tolerances named ``tols`` and ``sector``, up to the list of rows:
    a ``%s`` for each of the config's floats, in turn."""
    def text(value):  # a value as json.dumps writes it, inside a % template
        return json.dumps(value).replace("%", "%%")

    pair = _block("[]", ["%s", "%s"], "    ")
    axes = [_block("{}", [f'"param": {text(axis.param)}', '"start": %s', '"stop": %s',
                          f'"steps": {text(axis.steps)}'], "      ") for axis in axes]
    config = [f'"{name}": ' + ("%s" if name.startswith("omega") else pair) for name in _FIELD_FOR]
    config += [f'"atom": {text(atom.value)}', '"scan": ' + _block("[]", axes, "    "),
               '"tol": ' + _block("{}", [f"{text(name)}: %s" for name in tols], "    "),
               f'"sector": {text(sector)}']
    config = '"config": ' + _block("{}", config, "  ")
    return "{\n  " + ",\n  ".join([f'"version": {text(__version__)}', config, '"rows": '])


@functools.lru_cache(maxsize=64)
def _row_pieces(names: tuple[str, ...], kinds: tuple[str, ...],
                starts: tuple[int, ...]) -> tuple[str, ...]:
    """A row of a table with the columns ``names`` as one template per block
    of columns from each of ``starts`` on: a ``%s`` per cell and a
    :data:`_PAIR` per complex cell (where ``kinds`` holds ``c``).  Joined by
    ``",\\n      "``, the pieces of one row make it."""
    slots = [f"{json.dumps(name).replace('%', '%%')}: " + (_PAIR if kind == "c" else "%s")
             for name, kind in zip(names, kinds)]
    pieces = [",\n      ".join(slots[start:end]) for start, end in zip(starts, starts[1:] + (None,))]
    pieces[0] = "{\n      " + pieces[0]
    pieces[-1] += "\n    }"
    return tuple(pieces)


def _layout(cfg: RunConfig, table: Table, fmt: str) -> tuple[Callable[[list[str]], str], list[str]]:
    """The rows of ``table``'s document in ``fmt`` (the bytes of ``csv.writer``, or
    of ``json.dumps`` at ``indent=2`` of the version, the config and a dict per
    row) and the function that lays it out around row texts, each one or more rows."""
    if fmt == "csv":
        blocks, kinds, _ = _cells(table, fmt)
        header = ",".join([part for name, kind in zip(table, kinds)
                           for part in ((f"{name}_re", f"{name}_im") if kind == "c" else (name,))])
        return (lambda rows: "\n".join([header, *rows, ""]),
                _rows(blocks, [",".join] * len(blocks), ","))
    p = cfg.params  # the config's floats, in _head_template's order
    blocks, kinds, head = _cells(table, fmt, [
        p.omega_a, p.omega_b, p.omega_c, p.lam.real, p.lam.imag, p.xi.real, p.xi.imag,
        p.kappa.real, p.kappa.imag, *(x for axis in cfg.scan for x in (axis.start, axis.stop)),
        *cfg.tol.values()])
    template = _head_template(cfg.kind, cfg.scan, tuple(cfg.tol), cfg.sector)
    pieces = _row_pieces(tuple(table), tuple(kinds), tuple([first for first, _, _ in blocks]))
    return (lambda rows: "".join([template % tuple(head), "[\n    " if rows else "[",
                                  ",\n    ".join(rows), "\n  ]\n}\n" if rows else "]\n}\n"]
                                 ).replace(_NULL_PAIR, "null"),
            _rows(blocks, [piece.__mod__ for piece in pieces], ",\n      "))


def _text(cfg: RunConfig | None, table: Table, fmt: str) -> str:
    """``table``'s document in ``fmt``, the one document function; CSV needs no config."""
    frame, rows = _layout(cfg, table, fmt)
    return frame(rows)


def _write(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", newline="") as handle:
                handle.write(text)
        except (OSError, ValueError) as err:  # ValueError: a null byte in the path
            raise ConfigError(f"cannot write output {output!r}: {err}") from err
    else:
        sys.stdout.write(text)


#: the fewest points a scan gives each process: below it the task round
#: trip and the joining of texts cost more than the second process saves
_CHUNK_POINTS = 500

#: (pid, [(process, connection)]): the workers of this process's split scans
_POOL = None
#: held by the split that is using the workers' pipes
_POOL_LOCK = threading.Lock()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which ``taskset`` limits."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _scan_rows(cfg: RunConfig, operation: str, fmt: str, p: _Batch) -> str:
    """The rows of ``operation``'s output on the points ``p``, joined as in its document."""
    _, rows = _layout(cfg, _RUNNERS[operation](cfg, p), fmt)
    return _FORMATS[fmt][2].join(rows)


def _serve(conn, caller) -> None:
    """A worker: answers each task ``conn`` receives with its :func:`_scan_rows` or its
    error, until every copy of the caller's end of the pipe is closed."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    caller.close()  # so that the pipe closes with the caller, however it ends
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            reply = _scan_rows(*task)
        except Exception as err:
            reply = err
        conn.send(reply)


def _workers(count: int) -> list:
    """``count`` workers of this process's pool, which starts on the first split and
    grows to the largest; a forked child starts its own."""
    global _POOL
    if _POOL is None or _POOL[0] != os.getpid():
        _POOL = (os.getpid(), [])
    pool = _POOL[1]
    if len(pool) < count:
        import multiprocessing

        from . import _floattext  # so that every worker inherits its tables

        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else None)
        while len(pool) < count:
            caller, conn = context.Pipe()
            # a daemon: multiprocessing's exit handler ends and joins it with this process
            process = context.Process(target=_serve, args=(conn, caller), daemon=True)
            process.start()
            conn.close()
            pool.append((process, caller))
    return pool[:count]


def _split_text(cfg: RunConfig, operation: str, fmt: str, p: _Batch, chunks: int) -> str:
    """The output of ``operation`` on ``p``, run as ``chunks`` contiguous chunks of
    points: chunk 0 here, each other one in a worker, which sends back its rows.  The
    kernels are batch-size invariant, so the chunks' rows in one document are the
    bytes of one unsplit run."""
    global _POOL
    bounds = [len(p) * k // chunks for k in range(chunks + 1)]
    batches = [_Batch(**{name: getattr(p, name)[start:stop] for name in _FIELD_FOR.values()})
               for start, stop in zip(bounds, bounds[1:])]
    with _POOL_LOCK:
        workers = _workers(chunks - 1)
        try:
            for (_, caller), batch in zip(workers, batches[1:]):
                caller.send((cfg, operation, fmt, batch))
            frame, rows = _layout(cfg, _RUNNERS[operation](cfg, batches[0]), fmt)
            texts = [caller.recv() for _, caller in workers]
        except BaseException:
            # a reply may be left unread, so no later split may use these workers
            for process, caller in _POOL[1]:
                process.terminate()
                process.join()
                caller.close()
            _POOL = None
            raise
    for text in texts:
        if isinstance(text, Exception):  # a worker's error
            raise text
    return frame(rows + texts)


def _config_document(args: argparse.Namespace):
    """The config file's JSON document with the ``--tol`` and ``--sector``
    values merged in, flag keys after file keys, for :func:`parse_config`
    to check as one document.  No file gives ``{}``."""
    doc = {}
    if args.config is not None:
        try:
            with open(args.config, "rb", buffering=0) as handle:
                data = handle.read()
        except (OSError, ValueError) as err:  # ValueError: a null byte in the path
            raise ConfigError(f"cannot read config {args.config!r}: {err}") from err
        try:
            text = data.decode("utf-8")
            if "\r" in text:  # the newlines of text mode, for the error positions
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            doc = json.loads(text)
        except ValueError as err:
            # malformed JSON, a byte-order mark, text that is not UTF-8, or
            # an integer longer than Python converts
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


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of :func:`main` and the subparser of each command, built on
    its first call and then reused.

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
    return parser, sub.choices


_RUNNERS = {"spectrum": _spectrum_rows, "classify": _classify_rows, "duality": _duality_rows}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``argv`` as the full parser parses it: by the subparser of the command
    that comes first alone, or by the full parser where none does
    (``--help``, ``--version``, nothing, a typo), where the subparser leaves
    an argument over, or where an argument starts with ``--=``, which the
    full parser's ``--help`` and ``--version`` both match."""
    parser, commands = _parser()
    args = sys.argv[1:] if argv is None else argv
    if args and args[0] in commands and not any(arg.startswith("--=") for arg in args):
        namespace, extras = commands[args[0]].parse_known_args(
            args[1:], argparse.Namespace(command=args[0]))
        if not extras:
            return namespace
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
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
        if cfg.scan:  # rather than check the base point and drop the axes
            raise ConfigError("verify checks a single point; the config has scan axes")
        try:
            table = _verify_rows(cfg)
        except _PRECONDITION_ERRORS as err:
            print(f"verification precondition failed: {err}", file=sys.stderr)
            return 2
        except DarkTrioError as err:
            print(f"verification failed: {err}", file=sys.stderr)
            return 3
        try:
            _write(_text(cfg, table, args.format), args.output)
        except ValueError:
            # JSON holds no inf or NaN, and a shown cell has no null form;
            # the text is refused before anything is written
            bad = ~table["skipped"].values & ~np.isfinite(
                [table["residual"].values, table["tolerance"].values]).all(axis=0)
            if not bad.any():
                raise
            print(f"verification failed: {table['check'].names[bad.argmax()]} has a non-finite "
                  "residual or tolerance, which JSON cannot hold", file=sys.stderr)
            return 3
        # a row that neither passed nor was skipped failed
        return 3 if (~table["passed"].values & ~table["skipped"].values).any() else 0

    p = _grid(cfg)
    chunks = min(_usable_cpus(), len(p) // _CHUNK_POINTS)
    if chunks > 1:  # a scan, since it has more than one point
        _write(_split_text(cfg, operation, args.format, p, chunks), args.output)
        return 0
    table = _RUNNERS[operation](cfg, p)
    _write(_text(cfg, table, args.format), args.output)
    if command == "scan" or cfg.scan:
        return 0

    error = _STATUS_ERRORS[table["status"].values[0]]  # a single point's
    if error is not None:
        return 2 if issubclass(error, _PRECONDITION_ERRORS) else 3
    return 3 if operation == "duality" and not table["passed"].values[0] else 0


if __name__ == "__main__":
    raise SystemExit(main())
