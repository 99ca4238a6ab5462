"""darktrio benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload scan-grid --seed 1 --seconds 30 --trace 0

Workloads (inputs come from the seed only; see ``workloads.py``):

scan-grid      ``darktrio scan spectrum|classify|duality`` over one
               resonant real lambda x xi grid of 10^4 points.
point-calls    single-point ``darktrio spectrum|classify|duality|verify``
               calls, each on its own random config.
sector-ladder  oscillator sector checks at ell 40, 50, 60 and two-level
               sector solves at ell 300, 400.

The client is a closed loop with one caller and no added threads;
OpenBLAS keeps its default thread count, which the run records.  Each
workload splits its operations into a ``light`` and a ``heavy`` group
(cheap and costly per point).  With ``--trace 0`` the run times its
operations for ``--seconds`` and reports, by name and unit:

setup_s          minimum over fresh interpreters of the time from spawn
                 to the end of the warm-up call (imports, first dense solve)
light_pts_per_s  points of the light group / sum of its per-operation
heavy_pts_per_s  times (same for heavy); a point is a grid point, a call
                 or a sector eigenvalue, and an operation's time is the
                 median of its scaled samples (see ``Tally.op_time``)
peak_rss_mb      peak resident memory of this process

Each operation's wall time is scaled to a machine of fixed speed.  Blocks
of calls of a reference kernel that runs no darktrio code are interleaved
with the operations: ``reference`` (interpreter work) for scan-grid and
point-calls, ``reference_dense`` (a dense eigensolve) for sector-ladder.
An operation's time is multiplied by the kernel's nominal time over the
mean of the median calls of the blocks just before and just after it.
The throughputs are what this process would reach on a machine running
the kernel in its nominal time; the unscaled figures are printed above
the result.

With ``--trace 1`` it alternates untraced and traced runs of the
workload's fixed trace unit for ``--seconds``, with every listed darktrio
function wrapped while traced (see ``tracer.py``), and reports per-layer
calls, errors and self-time shares.

Every operation's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits with 2 and prints no result when the
checkout holds no darktrio sources.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-grid", "point-calls", "sector-ladder")
#: fresh interpreters per run, spawned at even intervals through the timed
#: loop; ``setup_s`` is the fastest of them, since neighbours on a shared
#: machine only ever add time, and spreading the spawns over the run keeps a
#: slow spell of a few seconds from holding all of them
SETUP_REPEATS = 15
#: single-point calls in one trace unit: 25 per command and atom kind
TRACE_POINT_CALLS = 200
#: the reference kernel runs in blocks of REFERENCE_BLOCK calls, one block
#: before an operation whenever the blocks so far took at most
#: REFERENCE_SHARE of the operations' time, and one after the last
REFERENCE_BLOCK = 5
REFERENCE_SHARE = 0.1
#: order of the fixed complex Hermitian matrix ``reference_dense`` solves
REFERENCE_DENSE_N = 400


def reference() -> float:
    """Time one call of a fixed piece of interpreter work; returns seconds.

    CSV rows from dicts, complex and float arithmetic, tiny numpy root
    solves and JSON encoding: the kinds of work the per-point layers and
    the CLI do, but none of darktrio's code, so no change to darktrio can
    move it.  It reads the speed the machine gives this process at the
    moment it runs.
    """
    import numpy as np

    start = time.perf_counter()
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=("x", "z", "r0", "r1", "r2", "status"))
    writer.writeheader()
    for i in range(40):
        x = 0.5 + 0.01 * i
        roots = np.roots([1.0, -3 * x, 3 * x * x - 0.01, -x ** 3])
        writer.writerow({"x": x, "z": complex(x, 0.1), "r0": roots[0].real,
                         "r1": roots[1].real, "r2": abs(roots[2]), "status": "ok"})
    json.dumps({"rows": [{"k": i, "v": i * 0.5} for i in range(40)]})
    return time.perf_counter() - start


def reference_dense(_matrix=[]) -> float:
    """Time one dense eigensolve of a fixed matrix; returns seconds.

    The sector ladder's time is LAPACK's, in OpenBLAS's default threads,
    which neighbours on a shared machine slow down otherwise than
    interpreter work; this kernel reads that speed.
    """
    import numpy as np

    if not _matrix:
        rng = np.random.default_rng(0)
        shape = (REFERENCE_DENSE_N, REFERENCE_DENSE_N)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        _matrix.append(a + a.conj().T)
    start = time.perf_counter()
    np.linalg.eigvalsh(_matrix[0])
    return time.perf_counter() - start


#: per workload: the reference kernel and its nominal time, the median call
#: of a block on one vCPU of a 2-core Intel Xeon VM
REFERENCES = {"scan-grid": (reference, 2.0e-3), "point-calls": (reference, 2.0e-3),
              "sector-ladder": (reference_dense, 35e-3)}


def _have_sources() -> bool:
    """The checkout's own darktrio sources; an installed copy does not count."""
    return (SRC / "darktrio" / "__init__.py").is_file()


def _probe_child(spawned_at: float) -> None:
    """Child side of ``setup_s``: import, warm up, report elapsed since spawn."""
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports darktrio and numpy)

    workloads.warm_up()
    print(time.monotonic() - spawned_at)


def setup_probe() -> float:
    """Spawn a fresh interpreter and wait for it; it reports spawn-to-warm time."""
    spawned_at = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", repr(spawned_at)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


# --- environment ------------------------------------------------------------

def _blas_threads() -> int | None:
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(args) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "darktrio").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- timed run --------------------------------------------------------------

def _pct(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


class Tally:
    """Times, outcomes and status counts of the operations run so far."""

    def __init__(self):
        self.times: dict[str, list[float]] = {}
        self.points: dict[str, int] = {}
        self.group: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0
        self.notes: list[str] = []
        self.statuses: dict[str, dict] = {}
        self.blocks: dict[str, list[int]] = {}
        self.reference: list[float] = []
        self.nominal = 1.0
        self.setup: list[float] = []

    def run(self, op, tracer=None, block: int = 0) -> float:
        """Run and check ``op``, which ran after reference block ``block``."""
        if tracer is not None:
            tracer.set_kind(op.kind)
        start = time.perf_counter()
        try:
            check = op.run()
        except Exception as err:  # a named DarkTrioError is a failure; anything else unexplained
            elapsed = time.perf_counter() - start
            from darktrio.errors import DarkTrioError
            from workloads import Outcome

            unexplained = 0 if isinstance(err, DarkTrioError) else op.attempts
            outcome = Outcome(op.attempts, op.attempts, unexplained,
                              note=f"{type(err).__name__}: {err}")
        else:
            elapsed = time.perf_counter() - start
            outcome = check()
        label = op.label
        self.times.setdefault(label, []).append(elapsed)
        self.blocks.setdefault(label, []).append(block)
        self.points[label] = op.points
        self.group[label] = op.group
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.unexplained += outcome.unexplained
        if outcome.note and len(self.notes) < 20:
            self.notes.append(f"{op.name}: {outcome.note}")
        if outcome.statuses is not None:
            seen = self.statuses.setdefault(op.name, outcome.statuses)
            if seen != outcome.statuses:
                self.unexplained += 1
                self.notes.append(f"{op.name}: status counts changed between rounds")
        return elapsed

    def op_time(self, label: str, scaled: bool = False) -> float:
        """Per-operation time of a class: the median of its samples.

        ``scaled`` multiplies each sample by the reference kernel's nominal
        time over the mean of the blocks just before and after it: the
        speed a shared machine gives this process changes by half or more
        over seconds to minutes, and the blocks read it where the sample
        was taken.
        """
        samples = self.times[label]
        if scaled:
            ref, last = self.reference, len(self.reference) - 1
            samples = [t * self.nominal / (0.5 * (ref[b] + ref[min(b + 1, last)]))
                       for t, b in zip(samples, self.blocks[label])]
        return statistics.median(samples)

    def group_rate(self, group: str, scaled: bool = False) -> float:
        labels = [lb for lb in self.times if self.group[lb] == group]
        points = sum(self.points[lb] for lb in labels)
        return points / sum(self.op_time(lb, scaled) for lb in labels)


def unit_ops(workload: str, seed: int, workdir: str, trace_unit: bool, sink=None):
    """Yield operations; a round ends with ``None``.

    scan-grid and sector-ladder repeat one fixed round.  point-calls is an
    endless sequence of distinct calls; in a trace unit it stops after
    ``TRACE_POINT_CALLS`` calls.  ``sink`` collects the CLI output bytes.
    """
    import workloads

    if workload == "point-calls":
        index = 0
        while not trace_unit or index < TRACE_POINT_CALLS:
            yield workloads.point_operation(seed, index, workdir, sink)
            index += 1
            if index % len(workloads.POINT_COMMANDS) == 0:
                yield None
        return
    ops = (workloads.scan_operations(seed, workdir, sink) if workload == "scan-grid"
           else workloads.sector_operations(seed))
    while True:
        yield from ops
        yield None
        if trace_unit:
            return


def run_unit(workload: str, seed: int, workdir: str, tally: Tally, tracer=None, sink=None):
    """Run one trace unit; returns its summed operation time and attempts per kind."""
    attempts: dict[str, int] = {}
    elapsed = 0.0
    for op in unit_ops(workload, seed, workdir, trace_unit=True, sink=sink):
        if op is not None:
            elapsed += tally.run(op, tracer)
            attempts[op.kind] = attempts.get(op.kind, 0) + op.attempts
    return elapsed, attempts


def timed_run(args, workdir: str) -> tuple[Tally, dict]:
    tally = Tally()
    next_probe = time.perf_counter()
    deadline = next_probe + args.seconds
    rounds = 0
    kernel, tally.nominal = REFERENCES[args.workload]
    reference_s, op_s = 0.0, 0.0

    def block():
        nonlocal reference_s
        calls = sorted(kernel() for _ in range(REFERENCE_BLOCK))
        tally.reference.append(statistics.median(calls))
        reference_s += sum(calls)

    for op in unit_ops(args.workload, args.seed, workdir, trace_unit=False):
        if op is None:
            rounds += 1
            continue
        now = time.perf_counter()
        if rounds >= 1 and now >= deadline:
            break
        if len(tally.setup) < SETUP_REPEATS and now >= next_probe:
            tally.setup.append(setup_probe())
            paused = time.perf_counter() - now
            deadline += paused
            next_probe += args.seconds / SETUP_REPEATS + paused
        if reference_s <= REFERENCE_SHARE * op_s:
            block()
        op_s += tally.run(op, block=len(tally.reference) - 1)
    block()
    while len(tally.setup) < SETUP_REPEATS:
        tally.setup.append(setup_probe())
    metrics = {
        "setup_s": (min(tally.setup), "s"),
        "light_pts_per_s": (tally.group_rate("light", scaled=True), "1/s"),
        "heavy_pts_per_s": (tally.group_rate("heavy", scaled=True), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return tally, metrics


def named_figures(args, tally: Tally) -> list[tuple[str, float, str, str]]:
    """Per-operation figures of this workload, unscaled, printed above the result."""
    t = tally.times
    rows = []
    if args.workload == "scan-grid":
        for op in ("spectrum", "classify", "duality"):
            labels = [lb for lb in t if lb.startswith(f"scan_{op}.")]
            points = sum(tally.points[lb] for lb in labels)
            rows.append((f"scan_{op}_pts_per_s",
                         points / sum(tally.op_time(lb) for lb in labels), "1/s",
                         f"n={min(len(t[lb]) for lb in labels)} calls per band"))
    elif args.workload == "point-calls":
        light = [x * 1e3 for k in ("spectrum", "classify", "duality") for x in t.get(k, [])]
        heavy = [x * 1e3 for k in ("verify_2lvl", "verify_osc") for x in t.get(k, [])]
        for name, values in (("point", light), ("verify", heavy)):
            rows.append((f"{name}_p50_ms", _pct(values, 50), "ms", f"n={len(values)}"))
            rows.append((f"{name}_p99_ms", _pct(values, 99), "ms", f"n={len(values)}"))
        for kind in ("spectrum", "classify", "duality", "verify_2lvl", "verify_osc"):
            values = [x * 1e3 for x in t.get(kind, [])]
            rows.append((f"{kind}_p50_ms", _pct(values, 50), "ms", f"n={len(values)}"))
    else:
        for group, name in (("heavy", "sector_osc_s"), ("light", "sector_2lvl_s")):
            labels = [lb for lb in t if tally.group[lb] == group]
            rows.append((name, sum(tally.op_time(lb) for lb in labels), "s",
                         f"n={min(len(t[lb]) for lb in labels)} per rung"))
            for lb in labels:
                rows.append((f"  {lb}_s", tally.op_time(lb), "s", f"n={len(t[lb])}"))
    return rows


# --- traced run -------------------------------------------------------------

KINDS = ("spectrum", "classify", "duality", "verify_2lvl", "verify_osc",
         "sector_osc", "sector_2lvl")
#: per-point layers whose calls per point are reported per operation kind
PER_KIND_LAYERS = (
    "twomode.two_mode_spectrum", "threemode.three_mode_spectrum", "threemode.phi",
    "model.validate", "darkstates.assemble_eigenstate", "observables.b_occupation",
    "observables.c_occupation", "oracle.dense_hermitian_eig",
)
PER_KIND_KINDS = KINDS[:5]


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    from tracer import NAMES

    spec = []
    for name in NAMES:
        spec += [(f"{name}.calls", "count"), (f"{name}.calls_per_pt", "1/pt"),
                 (f"{name}.errors", "count"), (f"{name}.self_pct", "%")]
    spec += [(f"{name}.calls_per_pt.{kind}", "1/pt")
             for name in PER_KIND_LAYERS for kind in PER_KIND_KINDS]
    spec += [(f"sector.{label}.{what}", unit) for label in ("osc", "2lvl")
             for what, unit in (("dim", "count"), ("nnz", "count"),
                                ("matrix_bytes", "B"), ("dense_flops", "flop"))]
    spec += [("trace.round_s", "s"), ("trace.overhead", "ratio")]
    return spec


def traced_run(args, workdir: str) -> tuple[Tally, dict]:
    """Alternate untraced and traced units until ``--seconds`` have passed."""
    import workloads
    from tracer import NAMES, Tracer

    tally = Tally()
    tracer = Tracer(KINDS)
    summaries, traced_s, untraced_s = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not summaries or time.perf_counter() < deadline:
        elapsed, attempts = run_unit(args.workload, args.seed, workdir, tally)
        untraced_s.append(elapsed)
        rebound = tracer.install()
        try:
            elapsed, _ = run_unit(args.workload, args.seed, workdir, tally, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(elapsed)
        summaries.append(tracer.summary())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(str(out_dir / f"spans_{args.workload}_{args.seed}.npz"))

    first = summaries[0]
    for later in summaries[1:]:
        if any(later[n]["calls_by_kind"] != first[n]["calls_by_kind"] for n in NAMES):
            tally.unexplained += 1
            tally.notes.append("per-layer call counts differ between traced rounds")
    total_points = sum(attempts.values())
    round_s = statistics.median(traced_s)
    metrics = {}
    for name in NAMES:
        calls = first[name]["calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.calls_per_pt"] = (calls / total_points, "1/pt")
        metrics[f"{name}.errors"] = (first[name]["errors"], "count")
        share = statistics.median(s[name]["self_s"] / t for s, t in zip(summaries, traced_s))
        metrics[f"{name}.self_pct"] = (100.0 * share, "%")
    for name in PER_KIND_LAYERS:
        for kind in PER_KIND_KINDS:
            pts = attempts.get(kind, 0)
            calls = first[name]["calls_by_kind"][kind]
            metrics[f"{name}.calls_per_pt.{kind}"] = (calls / pts if pts else 0, "1/pt")
    geometry = (workloads.sector_geometry(args.seed) if args.workload == "sector-ladder"
                else {})
    metrics.update({name: geometry.get(name, (0, unit)) for name, unit in per_layer_spec()
                    if name.startswith("sector.")})
    metrics["trace.round_s"] = (round_s, "s")
    metrics["trace.overhead"] = (round_s / statistics.median(untraced_s), "ratio")
    tally.notes.append(f"traced units: {len(traced_s)}; aliases rebound: {len(rebound)}")
    return tally, metrics


# --- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not _have_sources():
        print(f"no darktrio sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        _probe_child(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    sys.path.insert(0, str(SRC))
    import workloads

    workloads.warm_up()
    env = environment(args)
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        if args.trace:
            tally, metrics = traced_run(args, workdir)
        else:
            tally, metrics = timed_run(args, workdir)
        defects = workloads.known_defects(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env))
    if args.trace:
        for name, (value, unit) in metrics.items():
            if value:
                print(f"  {name:56s} {value:14.6g} {unit}")
    else:
        print("setup samples (s, in spawn order): " + " ".join(f"{s:.4f}" for s in tally.setup))
        ref = sorted(tally.reference)
        print(f"reference blocks: {len(ref)}, median call {ref[0] * 1e3:.4f} ms in the "
              f"fastest, {statistics.median(ref) * 1e3:.4f} ms in the median; unscaled light "
              f"{tally.group_rate('light'):.6g} 1/s, heavy {tally.group_rate('heavy'):.6g} 1/s")
        for name, value, unit, note in named_figures(args, tally):
            print(f"  {name:28s} {value:14.6g} {unit:5s} {note}")
    totals: dict[str, dict[str, int]] = {}
    for name, counts in tally.statuses.items():
        total = totals.setdefault(name.split(".")[0], {})
        for status, count in counts.items():
            total[status] = total.get(status, 0) + count
    for label, counts in totals.items():
        print(f"  statuses {label} (per round): {json.dumps(counts, sort_keys=True)}")
    print(f"  fail_frac {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} failed / {tally.attempted} attempted; "
          f"{tally.unexplained} unexplained)")
    for note in tally.notes:
        print(f"  note: {note}")
    print(f"  known defect, outside the workloads and not counted: {len(defects)} of "
          f"{len(workloads.KNOWN_DEFECTS)} points still fail")
    for note in defects:
        print(f"    {note}")
    result = {
        "correct": tally.unexplained == 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    raise SystemExit(main())
