"""Steadiness report: two sets of repeated runs of every workload.

Run from the root of a checkout::

    python3 benchmarks/steadiness.py

It makes two sets of runs of the same code, one after the other.  In each
set it runs every workload in ``BENCHMARK.json`` with ``--trace 0`` once
per seed 1..10, each run a fresh process, and gives per end-to-end metric
the median, the quartiles (``statistics.quantiles``, n=4) and the spread
(q3 - q1) / median, which must stay within the metric's bound; the spread
of ``setup_s`` is reported but not held, as in the benchmark's contract.
It then compares the sets: on every workload and metric, ``setup_s``
included, the second set's median may not be worse than the first's by
more than the bound, as a share of the first.  Last, it runs
``--trace 1`` twice on seed 1 of every workload and confirms that every
count metric repeats exactly, and checks the two-mode solves per point
(3 spectrum, 8 duality, 18 verify two-level, 20 verify oscillator) on
seed 1 and on the held-out seed 1001.

The report goes to standard output and to ``results/steadiness.md``, with
the raw runs of both sets in ``results/steadiness.json``.  Exits with 1
when a run fails or any of these checks does not hold.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = HERE / "results" / "steadiness.md"
SETS = 2
SEEDS = list(range(1, 11))
HELD_OUT = 1001
#: end-to-end metrics whose spread is reported but not held to the bound;
#: set-up is held by the worsening of its median between sets instead
SPREAD_NOT_HELD = ("setup_s",)
CLAIM = ("twomode.two_mode_spectrum.calls_per_pt",
         {"spectrum": 3, "duality": 8, "verify_2lvl": 18, "verify_osc": 20})


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    result["env"] = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "min": min(values), "max": max(values), "values": values}


def worsening(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    lines = ["# Steadiness report", "",
             f"run_seconds {seconds}; {SETS} sets, one after the other, each of seeds "
             f"{SEEDS[0]}..{SEEDS[-1]} ({len(SEEDS)} runs per workload, each a fresh "
             f"process); held-out seed {HELD_OUT}.  Spreads marked [spread not held] are "
             f"reported but not held to the bound ({', '.join(SPREAD_NOT_HELD)}, as in the "
             f"benchmark's contract); their medians are held between the sets.", ""]
    raw: dict = {"seconds": seconds, "seeds": SEEDS, "sets": []}
    ok = True
    medians: dict = {}
    for set_no in range(1, SETS + 1):
        raw["sets"].append({})
        for workload in names:
            runs = [one_run(workload, seed, seconds, 0) for seed in SEEDS]
            entry = raw["sets"][-1][workload] = {"runs": runs, "metrics": {}}
            lines += [f"## Set {set_no}: {workload}", "",
                      f"correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs; "
                      f"failed {sum(r['failed'] for r in runs)} of "
                      f"{sum(r['attempted'] for r in runs)} attempted operations; "
                      f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s per run "
                      f"(median).", "",
                      "| metric | unit | median | q1 | q3 | spread | bound | bound/3 |",
                      "|---|---|---|---|---|---|---|---|"]
            ok &= all(r["correct"] and set(r["metrics"]) == declared[0] for r in runs)
            for name, metric in metrics.items():
                s = summarize([r["metrics"][name]["value"] for r in runs])
                entry["metrics"][name] = s
                medians.setdefault((workload, name), []).append(s["median"])
                bound = metric["bound"]
                held = name not in SPREAD_NOT_HELD
                ok &= s["spread"] <= bound or not held
                flag = ("" if s["spread"] <= bound / 3 else
                        " (above bound/3)" if s["spread"] <= bound else
                        " **above bound**" if held else " (above bound; not held)")
                if not held:
                    flag += " [spread not held]"
                lines.append(f"| {name} | {metric['unit']} | {s['median']:.6g} "
                             f"| {s['q1']:.6g} | {s['q3']:.6g} | {s['spread']:.4f}{flag} "
                             f"| {bound} | {bound / 3:.4f} |")
            lines.append("")
            print("\n".join(lines[-len(metrics) - 6:]), flush=True)

    lines += ["## Set 2 against set 1", "",
              "Worsening is the second median's change in the metric's worse direction, "
              "as a share of the first median.", "",
              "| workload | metric | median, set 1 | median, set 2 | worsening | bound |",
              "|---|---|---|---|---|---|"]
    for (workload, name), (first, *later) in medians.items():
        for second in later:
            worse = worsening(metrics[name], first, second)
            bound = metrics[name]["bound"]
            ok &= worse <= bound
            flag = "" if worse <= bound else " **above bound**"
            lines.append(f"| {workload} | {name} | {first:.6g} | {second:.6g} "
                         f"| {worse:+.4f}{flag} | {bound} |")
    lines.append("")
    print("\n".join(lines[-len(medians) - 5:]), flush=True)

    lines += ["## Traced runs", ""]
    for workload in names:
        first = one_run(workload, SEEDS[0], seconds, 1)
        second = one_run(workload, SEEDS[0], seconds, 1)
        counts = [n for n, m in first["metrics"].items()
                  if m["unit"] in ("count", "1/pt", "B", "flop")]
        differ = [n for n in counts
                  if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        ok &= (not differ and first["correct"] and second["correct"]
               and set(first["metrics"]) == declared[1])
        lines.append(f"- {workload}: {len(counts)} count metrics repeat exactly on seed "
                     f"{SEEDS[0]}: {'yes' if not differ else 'no, ' + ', '.join(differ)}; "
                     f"trace.overhead {first['metrics']['trace.overhead']['value']:.3f}, "
                     f"{second['metrics']['trace.overhead']['value']:.3f}.")
    base, expected = CLAIM
    for seed in (SEEDS[0], HELD_OUT):
        result = one_run("point-calls", seed, seconds, 1)
        got = {k: result["metrics"][f"{base}.{k}"]["value"] for k in expected}
        holds = got == expected
        ok &= holds
        lines.append(f"- claim check, seed {seed}: {base} = {got} "
                     f"({'holds' if holds else 'does not hold'}).")
    lines.append("")
    print("\n".join(lines[-4 - len(names):]), flush=True)

    first_env = raw["sets"][0][names[0]]["runs"][0]["env"]
    machine = {k: v for k, v in first_env.items()
               if k not in ("workload", "seed", "seconds", "trace")}
    lines[4:4] = [f"Environment of the first run: `{json.dumps(machine)}`.", ""]
    raw["environment"] = machine
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text("\n".join(lines) + "\n")
    OUT.with_suffix(".json").write_text(json.dumps(raw, indent=1) + "\n")
    print(f"steadiness {'ok' if ok else 'NOT ok'}; report in {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
