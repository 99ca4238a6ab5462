"""The benchmark's workloads: seeded inputs, timed operations and output checks.

Every workload drives darktrio only through its public API and sees only
the inputs generated here from the seed.  A workload is a list of named
*operations*; one pass over the list is a *round*.  Each operation runs
one client call (timed), then checks the call's output (untimed).  An
operation belongs to one *group*, ``light`` or ``heavy``, and the
benchmark reports one throughput per group (see ``run.py``).

Sampling domains are declared below as module constants and never depend
on what fails inside them: a point whose check fails is counted as a
failed operation, not resampled.  The domains keep every photon and
phonon occupation (per unit atom weight) of the one-excitation
eigenstates below about 20.  Near ``lambda = xi``, away from the exact
diagonal, one eigenstate is nearly dark and its occupations grow like
``((lambda + xi) / (lambda - xi))**2``; there the closed forms miss the
absolute tolerances of ``oracle.Tolerances`` at scattered points, so such
points are kept out of the timed workloads and run apart, untimed, by
``known_defects``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from darktrio import cli, model, oracle

TOL = oracle.Tolerances()

# --- sampling domains -------------------------------------------------------

#: scan-grid: photon-phonon resonance (omega_b = omega_c = omega), real
#: couplings, the atom within SCAN_DETUNING of omega.  A lambda x xi grid of
#: SCAN_STEPS x SCAN_STEPS points: lambda = kappa * (k + 1) / 80,
#: k = 0 .. 99, so the lambda axis passes through lambda = kappa (k = 79);
#: xi runs from 2 kappa to 3 kappa, clear of lambda.  Each scan covers the
#: grid in SCAN_BANDS calls of SCAN_STEPS / SCAN_BANDS lambda values each,
#: and then the lambda = xi diagonal (lambda = xi = 1.5 kappa, kappa
#: scanned over SCAN_STEPS values from kappa / 2 to 3 kappa / 2) in one
#: more call, whose rows take the error path.  Every call is its own
#: operation class, so a slowdown confined to some bands (the diagonal, the
#: dark-tuning line) moves the scan's time; a call of about a tenth of a
#: second is short enough for the per-operation statistic in run.py to
#: filter out the contention of a shared machine.
SCAN_OMEGA = (0.9, 1.1)
SCAN_DETUNING = (-0.02, 0.02)
SCAN_KAPPA = (0.03, 0.08)
SCAN_STEPS = 100
SCAN_BANDS = 10

#: point-calls: one fresh random point per call, resonant with real
#: couplings (so duality applies), the atom within POINT_DETUNING of
#: omega, lambda and xi drawn from disjoint ranges; the atom alternates
#: every four calls.
POINT_OMEGA = (0.8, 1.2)
POINT_DETUNING = (-0.02, 0.02)
POINT_KAPPA = (0.03, 0.06)
POINT_LAMBDA = (0.01, 0.03)
POINT_XI = (0.06, 0.1)
POINT_COMMANDS = ("spectrum", "classify", "duality", "verify")
POINT_ATOMS = ("two-level", "oscillator")

#: sector-ladder: one random point per seed, three independent
#: frequencies and complex couplings of random phase.
SECTOR_OMEGA = (0.8, 1.2)
SECTOR_COUPLING = (0.02, 0.1)
SECTOR_OSC_ELLS = (40, 50, 60)
SECTOR_2LVL_ELLS = (300, 400)

#: warm-up: the first dense solve of this two-level sector (dimension 301)
WARMUP_ELL = 150


@dataclass
class Outcome:
    """The checked result of one operation.

    ``attempted`` counts the operations it stands for (grid points of a
    scan, one call, one sector).  ``failed`` counts those that did not end
    in a checked, correct result: a value off the independent reference,
    a failure the program reports itself (``verify`` exiting with 3, a
    named ``DarkTrioError``), or anything unexplained.  ``unexplained``
    counts the subset the benchmark cannot account for as a per-point
    failure: an error status where none is declared, missing rows, an
    exit code the CLI does not document.  Any unexplained output makes the
    run incorrect; per-point failures are counted and reported.
    """

    attempted: int
    failed: int = 0
    unexplained: int = 0
    statuses: dict | None = None
    note: str = ""


@dataclass
class Operation:
    """One timed client call; ``run`` returns a closure that checks its output.

    ``label`` names the class whose times are pooled (one per scan band,
    per single-point kind, per sector rung).  ``points`` is what the call
    contributes to its group's throughput; ``attempts`` is how many
    operations it stands for (grid points of a scan, one call, one
    sector), the denominator of ``fail_frac`` and of per-layer calls per
    point.
    """

    name: str
    label: str
    group: str
    kind: str
    points: int
    attempts: int
    run: Callable[[], Callable[[], Outcome]]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _u(rng, bounds):
    return float(rng.uniform(*bounds))


# --- independent references -------------------------------------------------

def _bare_matrices(wa, wb, wc, lam, xi, kappa):
    """Stack of one-excitation matrices built here, not by darktrio.model."""
    n = len(wa)
    h = np.zeros((n, 3, 3), dtype=complex)
    h[:, 0, 0], h[:, 1, 1], h[:, 2, 2] = wa, wb, wc
    h[:, 1, 0], h[:, 2, 0], h[:, 2, 1] = lam, xi, kappa
    h[:, 0, 1], h[:, 0, 2], h[:, 1, 2] = np.conj(lam), np.conj(xi), np.conj(kappa)
    return h


def _level_defect(h, levels):
    """Per point: max |E - E_dense| and the bound e_match * max(1, ||H||)."""
    dense = np.linalg.eigvalsh(h)
    defect = np.max(np.abs(np.sort(levels, axis=1) - dense), axis=1)
    bound = TOL.e_match * np.maximum(1.0, np.linalg.norm(h, axis=(1, 2)))
    return defect, bound


def _occupation_defect(h, levels, closed, mode):
    """Relative gap between closed-form occupations and dense amplitudes.

    ``closed[:, j]`` is the occupation of ``mode`` in the eigenstate with
    atom amplitude 1 at ``levels[:, j]``; the dense route reads it off the
    solver's eigenvector.  Scaled like darktrio's own occupation check:
    relative with a unit floor.
    """
    _, vectors = np.linalg.eigh(h)
    order = np.argsort(levels, axis=1)
    amp = np.abs(vectors[:, mode, :] / vectors[:, 0, :]) ** 2
    closed_sorted = np.take_along_axis(closed, order, axis=1)
    scale = np.maximum(np.maximum(np.abs(closed_sorted), amp), 1.0)
    return np.max(np.abs(closed_sorted - amp) / scale, axis=1)


def _eigen_residual(h, energy, amps):
    """||H a - E a|| / (||H|| ||a||) per state."""
    defect = np.einsum("nij,nj->ni", h, amps) - energy[:, None] * amps
    return (np.linalg.norm(defect, axis=1)
            / (np.linalg.norm(h, axis=(1, 2)) * np.linalg.norm(amps, axis=1)))


# --- row checks (shared by scans and single-point calls) --------------------

def _f(row, name):
    return float(row[name])


def _c(row, name):
    """A complex cell: CSV ``name_re``/``name_im`` or JSON ``[re, im]``."""
    if name in row:
        value = row[name]
        if isinstance(value, list):
            return complex(value[0], value[1])
        return complex(float(value))
    return complex(float(row[f"{name}_re"]), float(row[f"{name}_im"]))


def _params(rows):
    cols = [[r[k] for r in rows] for k in ("omega_a", "omega_b", "omega_c")]
    wa, wb, wc = (np.array([float(v) for v in c]) for c in cols)
    lam, xi, kappa = (np.array([_c(r, k) for r in rows]) for k in ("lambda", "xi", "kappa"))
    return wa, wb, wc, lam, xi, kappa


def check_spectrum_rows(rows) -> int:
    """Bad ok-rows: levels off the dense solve or not interlacing."""
    if not rows:
        return 0
    h = _bare_matrices(*_params(rows))
    levels = np.array([[_f(r, f"E{j}") for j in (1, 2, 3)] for r in rows])
    defect, bound = _level_defect(h, levels)
    interlacing = np.array([r["interlacing"] in (True, "true") for r in rows])
    return int(np.count_nonzero((defect > bound) | ~interlacing))


def check_classify_rows(rows) -> int:
    """Bad ok-rows: eigen-residual of the printed state above ``eigenstate``."""
    if not rows:
        return 0
    h = _bare_matrices(*_params(rows))
    energy = np.array([_f(r, "energy") for r in rows])
    amps = np.array([[_c(r, k) for k in ("amp_atom", "amp_photon", "amp_phonon")]
                     for r in rows])
    residual = _eigen_residual(h, energy, amps)
    return int(np.count_nonzero(~(residual <= TOL.eigenstate)))


def check_duality_rows(rows) -> int:
    """Bad ok-rows: levels or occupations off the dense solve, or a failed swap.

    Levels of both parameter sets are held to ``e_match``; the photon
    occupation of the base set and the phonon occupation of the swapped
    set, against the dense eigenvectors, and their mutual mismatch are
    held to ``duality``.
    """
    if not rows:
        return 0
    wa, wb, wc, lam, xi, kappa = _params(rows)
    base = _bare_matrices(wa, wb, wc, lam, xi, kappa)
    swapped = _bare_matrices(wa, wb, wc, xi, lam, kappa)
    e_base = np.array([[_f(r, f"E{j}") for j in (1, 2, 3)] for r in rows])
    e_swap = np.array([[_f(r, f"E{j}_swapped") for j in (1, 2, 3)] for r in rows])
    b_occ = np.array([[_f(r, f"b_occ_{j}") for j in (1, 2, 3)] for r in rows])
    c_occ = np.array([[_f(r, f"c_occ_swapped_{j}") for j in (1, 2, 3)] for r in rows])
    d_base, bound_base = _level_defect(base, e_base)
    d_swap, bound_swap = _level_defect(swapped, e_swap)
    occ_b = _occupation_defect(base, e_base, b_occ, 1)
    occ_c = _occupation_defect(swapped, e_swap, c_occ, 2)
    mismatch = np.max(np.abs(b_occ - c_occ), axis=1)
    passed = np.array([r["passed"] in (True, "true") for r in rows])
    bad = ((d_base > bound_base) | (d_swap > bound_swap)
           | ~(occ_b <= TOL.duality) | ~(occ_c <= TOL.duality)
           | ~(mismatch <= TOL.duality) | ~passed)
    return int(np.count_nonzero(bad))


ROW_CHECKS = {
    "spectrum": check_spectrum_rows,
    "classify": check_classify_rows,
    "duality": check_duality_rows,
}

#: the only error statuses a scan row may carry, and only on lambda = xi
SCAN_DIAGONAL_STATUS = {"spectrum": "GammaZero", "duality": "AssumptionViolation"}


# --- scan-grid --------------------------------------------------------------

def scan_config(seed: int, band: int) -> dict:
    """Band ``band`` of the seed's grid (a slice of lambda values, every xi);
    band ``SCAN_BANDS`` is the lambda = xi diagonal."""
    rng = _rng(seed, 1)
    omega = _u(rng, SCAN_OMEGA)
    omega_a = omega + _u(rng, SCAN_DETUNING)
    kappa = _u(rng, SCAN_KAPPA)
    config = {"omega_a": omega_a, "omega_b": omega, "omega_c": omega,
              "lambda": kappa, "xi": kappa, "kappa": kappa, "atom": "two-level"}
    if band == SCAN_BANDS:
        config["lambda"] = config["xi"] = 1.5 * kappa
        config["scan"] = [{"param": "kappa", "start": 0.5 * kappa, "stop": 1.5 * kappa,
                           "steps": SCAN_STEPS}]
        return config
    width = SCAN_STEPS // SCAN_BANDS
    first = band * width
    config["scan"] = [{"param": "lambda", "start": kappa * (first + 1) / 80,
                       "stop": kappa * (first + width) / 80, "steps": width},
                      {"param": "xi", "start": 2 * kappa, "stop": 3 * kappa,
                       "steps": SCAN_STEPS}]
    return config


def _check_scan(op: str, path: str, points: int) -> Outcome:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    statuses: dict[str, int] = {}
    ok_rows = []
    unexplained = 0
    for row in rows:
        status = row["status"]
        statuses[status] = statuses.get(status, 0) + 1
        if status == "ok":
            ok_rows.append(row)
        elif not (status == SCAN_DIAGONAL_STATUS.get(op)
                  and abs(float(row["lambda_re"]) - float(row["xi_re"])) < 1e-12):
            unexplained += 1
    per_point = 3 if op == "classify" else 1
    unexplained = min(unexplained + abs(len(rows) - per_point * points), points)
    failed = min(ROW_CHECKS[op](ok_rows) + unexplained, points)
    return Outcome(points, failed, unexplained, statuses=statuses)


def scan_operations(seed: int, workdir: str, sink=None) -> list[Operation]:
    """Every band of the three scans; ``sink`` collects each output file's bytes."""
    ops = []
    for op, group in (("spectrum", "light"), ("classify", "heavy"), ("duality", "heavy")):
        for band in range(SCAN_BANDS + 1):
            points = SCAN_STEPS if band == SCAN_BANDS else SCAN_STEPS ** 2 // SCAN_BANDS
            config = os.path.join(workdir, f"scan_{band}.json")
            with open(config, "w") as handle:
                json.dump(scan_config(seed, band), handle)
            out = os.path.join(workdir, f"scan_{op}_{band}.csv")
            argv = ["scan", op, "--config", config, "--format", "csv", "--output", out]

            def run(argv=argv, op=op, out=out, points=points):
                code = cli.main(argv)

                def check():
                    if sink is not None:
                        with open(out, "rb") as handle:
                            sink.append(handle.read())
                    if code != 0:
                        return Outcome(points, points, points, note=f"exit {code}")
                    return _check_scan(op, out, points)
                return check
            label = f"scan_{op}.{band}"
            ops.append(Operation(label, label, group, op, points, points, run))
    return ops


# --- point-calls ------------------------------------------------------------

def point_config(seed: int, index: int) -> dict:
    rng = _rng(seed, 2, index)
    omega = _u(rng, POINT_OMEGA)
    return {"omega_a": omega + _u(rng, POINT_DETUNING), "omega_b": omega, "omega_c": omega,
            "lambda": _u(rng, POINT_LAMBDA), "xi": _u(rng, POINT_XI),
            "kappa": _u(rng, POINT_KAPPA),
            "atom": POINT_ATOMS[(index // len(POINT_COMMANDS)) % len(POINT_ATOMS)]}


def point_kind(index: int) -> str:
    command = POINT_COMMANDS[index % len(POINT_COMMANDS)]
    if command != "verify":
        return command
    atom = POINT_ATOMS[(index // len(POINT_COMMANDS)) % len(POINT_ATOMS)]
    return "verify_2lvl" if atom == "two-level" else "verify_osc"


def _check_point(command: str, code: int, text: str, config: dict) -> Outcome:
    """Exit 0 needs correct rows; 2 and 3 are failures the CLI reports itself."""
    if code in (2, 3):
        failed = [r["check"] for r in json.loads(text)["rows"]
                  if not r["skipped"] and not r["passed"]] if command == "verify" and text else []
        return Outcome(1, 1, 0, note=f"{command} exit {code} {failed} at {json.dumps(config)}")
    if code != 0:
        return Outcome(1, 1, 1, note=f"{command} exit {code} at {json.dumps(config)}")
    rows = json.loads(text)["rows"]
    if command == "verify":
        unexplained = any(not r["skipped"] and not r["passed"] for r in rows)
        bad = unexplained
    else:
        unexplained = any(r["status"] != "ok" for r in rows)
        bad = unexplained or ROW_CHECKS[command](rows) > 0
    return Outcome(1, int(bad), int(unexplained),
                   note=f"{command} off the reference at {json.dumps(config)}" if bad else "")


def point_operation(seed: int, index: int, workdir: str, sink=None) -> Operation:
    """Call ``index`` of the endless point-calls sequence.

    The config file is written before the timed call; the JSON the CLI
    prints is captured and checked afterwards.  ``sink`` collects the exit
    code and output bytes.
    """
    command = POINT_COMMANDS[index % len(POINT_COMMANDS)]
    kind = point_kind(index)
    group = "heavy" if command == "verify" else "light"
    path = os.path.join(workdir, "point.json")

    config = point_config(seed, index)
    with open(path, "w") as handle:
        json.dump(config, handle)

    def run():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main([command, "--config", path])
        text = buffer.getvalue()

        def check():
            if sink is not None:
                sink.append(f"{index} {command} {code}\n{text}".encode())
            return _check_point(command, code, text, config)
        return check
    return Operation(f"{command}#{index}", kind, group, kind, 1, 1, run)


#: points outside the domains above where the closed forms are known to miss
#: their tolerances (|lambda - xi| small against the other scales);
#: ``known_defects`` runs them once per run, untimed and not counted
KNOWN_DEFECTS = (
    ("verify", {"omega_a": 1.1270116294108201, "omega_b": 0.8908585460329889,
                "omega_c": 0.8908585460329889, "lambda": 0.082589208991567,
                "xi": 0.08305282798229476, "kappa": 0.0652089133351163,
                "atom": "two-level"}),
    ("verify", {"omega_a": 1.1557759143313329, "omega_b": 0.8880400860055532,
                "omega_c": 0.8880400860055532, "lambda": 0.06277458875401612,
                "xi": 0.06222474599209262, "kappa": 0.07308362250577066,
                "atom": "oscillator"}),
    ("duality", {"omega_a": 0.9349562886466576, "omega_b": 0.9693612774393954,
                 "omega_c": 0.9693612774393954, "lambda": 0.04339670915340116,
                 "xi": 0.043341453355598185, "kappa": 0.01135525625055362,
                 "atom": "two-level"}),
    ("duality", {"omega_a": 0.9867904658445233, "omega_b": 1.0959636212996018,
                 "omega_c": 1.0959636212996018, "lambda": 0.06037370586245771,
                 "xi": 0.07155402176291284, "kappa": 0.03726771966818377,
                 "atom": "two-level"}),
)


def known_defects(workdir: str) -> list[str]:
    """Run every ``KNOWN_DEFECTS`` point once; returns the notes of those that fail."""
    path = os.path.join(workdir, "defect.json")
    notes = []
    for command, config in KNOWN_DEFECTS:
        with open(path, "w") as handle:
            json.dump(config, handle)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main([command, "--config", path])
        outcome = _check_point(command, code, buffer.getvalue(), config)
        if outcome.failed:
            notes.append(outcome.note)
    return notes


# --- sector-ladder ----------------------------------------------------------

def sector_params(seed: int) -> model.ModelParams:
    rng = _rng(seed, 3)
    omegas = [_u(rng, SECTOR_OMEGA) for _ in range(3)]
    couplings = [_u(rng, SECTOR_COUPLING) * complex(math.cos(t), math.sin(t))
                 for t in (2 * math.pi * rng.uniform() for _ in range(3))]
    return model.ModelParams(*omegas, *couplings)


def two_level_trace(params: model.ModelParams, ell: int) -> float:
    """Trace of the two-level sector block, summed here in closed form."""
    wa, wb, wc = params.omega_a, params.omega_b, params.omega_c
    total = 0.0
    for na in (0, 1):
        m = ell - na  # photon + phonon quanta, split every way
        total += (m + 1) * na * wa + (wb + wc) * m * (m + 1) / 2
    return total


def sector_operations(seed: int) -> list[Operation]:
    params = sector_params(seed)
    ops = []
    for ell in SECTOR_OSC_ELLS:
        def run(ell=ell):
            report = oracle.oscillator_sector_check(params, ell, tol=TOL.sector)

            def check():
                bad = int(not report.passed)
                return Outcome(1, bad, note=f"osc ell={ell} failed its check" if bad else "")
            return check
        ops.append(Operation(f"osc_{ell}", f"osc_{ell}", "heavy", "sector_osc",
                             (ell + 1) * (ell + 2) // 2, 1, run))
    for ell in SECTOR_2LVL_ELLS:
        def run(ell=ell):
            sector = model.sector_matrix(params, model.AtomKind.TWO_LEVEL, ell)
            eig = oracle.dense_hermitian_eig(sector.matrix)

            def check():
                expected = two_level_trace(params, ell)
                bad = int(not (eig.values.shape == (2 * ell + 1,)
                               and abs(float(np.sum(eig.values)) - expected)
                               <= TOL.trace * abs(expected)))
                return Outcome(1, bad, note=f"2lvl ell={ell} off the trace" if bad else "")
            return check
        ops.append(Operation(f"2lvl_{ell}", f"2lvl_{ell}", "light", "sector_2lvl",
                             2 * ell + 1, 1, run))
    return ops


def sector_geometry(seed: int) -> dict:
    """Size of the largest rung of each ladder, computed, not measured."""
    params = sector_params(seed)
    out = {}
    for label, kind, ell in (("osc", model.AtomKind.OSCILLATOR, max(SECTOR_OSC_ELLS)),
                             ("2lvl", model.AtomKind.TWO_LEVEL, max(SECTOR_2LVL_ELLS))):
        matrix = model.sector_matrix(params, kind, ell).matrix
        dim = matrix.shape[0]
        out[f"sector.{label}.dim"] = (dim, "count")
        out[f"sector.{label}.nnz"] = (int(np.count_nonzero(matrix)), "count")
        out[f"sector.{label}.matrix_bytes"] = (int(matrix.nbytes), "B")
        # the Householder tridiagonal reduction both dense solvers start
        # with: about 16 n^3 / 3 real flops for a complex Hermitian matrix
        out[f"sector.{label}.dense_flops"] = (int(16 * dim ** 3 // 3), "flop")
    return out


def warm_up() -> None:
    """The untimed warm-up call: a CLI point and the first large dense solve."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["spectrum"])
    params = model.ModelParams(1.0, 1.0, 1.0, 0.05, 0.03, 0.04)
    sector = model.sector_matrix(params, model.AtomKind.TWO_LEVEL, WARMUP_ELL)
    oracle.dense_hermitian_eig(sector.matrix)
