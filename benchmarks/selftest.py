"""Self-tests of the benchmark harness.  Run from the root of a checkout::

    python3 benchmarks/selftest.py [--seed N]

1. Tracing changes no output: the scan CSV files and the single-point CLI
   output of one trace unit are byte-identical with and without the
   tracer installed.
2. No call escapes the tracer: for every traced function, the tracer's
   call count on a unit equals an independent cProfile count of the
   original function on the same unit run untraced.  An import alias the
   rebinding missed would show as a cProfile surplus.

Exits with 1 when any check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def profile_counts(stats: pstats.Stats) -> dict[str, int]:
    """Calls per traced function, read off cProfile by code object."""
    counts = {}
    for name, func in tracing.originals().items():
        code = func.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[name] = stats.stats[key][1] if key in stats.stats else 0
    return counts


def check_workload(workload: str, seed: int, workdir: str) -> list[str]:
    problems = []
    plain, traced = [], []
    profiler = cProfile.Profile()
    profiler.enable()
    run.run_unit(workload, seed, workdir, run.Tally(), sink=plain)
    profiler.disable()
    expected = profile_counts(pstats.Stats(profiler))

    tracer = tracing.Tracer(run.KINDS)
    rebound = tracer.install()
    try:
        run.run_unit(workload, seed, workdir, run.Tally(), tracer, sink=traced)
    finally:
        tracer.uninstall()
    got = {name: layer["calls"] for name, layer in tracer.summary().items()}

    if plain != traced:
        problems.append(f"{workload}: traced output differs from untraced output")
    for name in tracing.NAMES:
        if got[name] != expected[name]:
            problems.append(f"{workload}: {name} traced {got[name]} calls, "
                            f"cProfile counted {expected[name]}")
    print(f"{workload}: {len(plain)} outputs compared ({sum(map(len, plain))} bytes), "
          f"{sum(expected.values())} calls over {len(tracing.NAMES)} functions, "
          f"{len(rebound)} aliases rebound")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads.warm_up()
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT)
    try:
        problems = [p for w in run.WORKLOADS for p in check_workload(w, args.seed, workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
