"""Scans across processes: a split scan gives the bytes of one unsplit run.

A scan of at least ``2 * cli._CHUNK_POINTS`` points on more than one usable
CPU is cut into contiguous chunks of points; the caller solves and formats
the first, a forked worker each other one, and the caller joins the texts.
These tests shrink ``_CHUNK_POINTS`` and set the CPU count so that small
grids split too.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import darktrio
from darktrio import cli

from test_golden import GOLDEN, SCAN_CONFIGS, SCAN_OPERATIONS

SRC = str(Path(darktrio.__file__).parents[1])

SCAN_CASES = [(name, operation, fmt) for name, formats in SCAN_CONFIGS.items()
              for operation in SCAN_OPERATIONS for fmt in formats]


def _scan(operation, fmt, config, cpus, monkeypatch):
    """The exit code and output of ``darktrio scan <operation>`` on ``cpus``
    usable CPUs, a scan splitting from two points a chunk."""
    monkeypatch.setattr(cli, "_CHUNK_POINTS", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["scan", operation, "--config", str(config), "--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("name,operation,fmt", SCAN_CASES,
                         ids=[".".join(case) for case in SCAN_CASES])
def test_a_split_golden_scan_gives_its_fixture(monkeypatch, name, operation, fmt):
    code, text = _scan(operation, fmt, GOLDEN / f"{name}.config.json", 3, monkeypatch)
    assert code == 0
    assert text == (GOLDEN / f"{name}.scan-{operation}.{fmt}").read_text()
    assert len(cli._POOL[1]) >= 2  # it did split


@st.composite
def grids(draw):
    """Configs of 1-3 scan axes and up to about 200 points, with or without a
    tolerance override; lambda = xi at the base point and at the axes' shared
    values gives error rows."""
    coupling = st.one_of(st.sampled_from((0.0, 0.05, 0.1, 0.2)), st.floats(-0.3, 0.3))
    xi = draw(coupling)
    doc = {"omega_a": draw(st.sampled_from((1.0, 1.02, 1.2))), "omega_b": 1.0,
           "omega_c": draw(st.sampled_from((1.0, 1.1))), "lambda": draw(st.just(xi) | coupling),
           "xi": xi, "kappa": draw(st.sampled_from((0.05, 0.1)))}
    axes, points = [], 1
    for param in draw(st.lists(st.sampled_from(("lambda", "xi", "kappa", "omega_a")),
                               min_size=1, max_size=3, unique=True)):
        values = (st.floats(0.9, 1.2) if param == "omega_a"
                  else st.sampled_from((0.0, 0.05, 0.1)) | st.floats(-0.3, 0.3))
        steps = draw(st.integers(1, max(1, 200 // points)))
        points *= steps
        axes.append({"param": param, "start": draw(values), "stop": draw(values),
                     "steps": steps})
    doc["scan"] = axes
    # tolerances that move rows, which a worker takes from its pickled config
    doc["tol"] = draw(st.sampled_from(({}, {"classify": 1e-3}, {"duality": 1e-14}, {"ass2": 0.5})))
    return doc


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(doc=grids(), chunks=st.integers(1, 4), operation=st.sampled_from(SCAN_OPERATIONS),
       fmt=st.sampled_from(("csv", "json")))
def test_any_split_gives_the_unsplit_bytes(tmp_path, monkeypatch, doc, chunks, operation, fmt):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(doc))
    assert _scan(operation, fmt, config, chunks, monkeypatch) == _scan(
        operation, fmt, config, 1, monkeypatch)


#: where _failing_runner fails: "worker" or "caller"
_FAILS = "worker"


def _failing_runner(cfg, p):
    """``scan spectrum``'s runner, failing where ``omega_a`` is 1: in the workers
    if the first point's ``lambda`` is above 0.01, else in the caller."""
    if cfg.params.omega_a == 1.0 and (p.lam[0].real > 0.01) == (_FAILS == "worker"):
        raise ZeroDivisionError(f"chunk at lambda = {p.lam[0].real}")
    return cli._spectrum_rows(cfg, p)


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_failed_chunk_raises_in_the_caller(tmp_path, monkeypatch, where):
    failing, passing = (_grid_config(tmp_path / f"{w}.json", 4, w) for w in (1.0, 1.02))
    monkeypatch.setitem(globals(), "_FAILS", where)
    monkeypatch.setitem(cli._RUNNERS, "spectrum", _failing_runner)
    monkeypatch.setattr(cli, "_POOL", None)  # workers forked with that runner
    try:
        with pytest.raises(ZeroDivisionError, match="chunk at lambda"):
            _scan("spectrum", "csv", failing, 3, monkeypatch)
        # a worker's error leaves its pool in step; the caller's ends the pool
        workers = cli._POOL and cli._POOL[1][:]
        assert len(workers or ()) == (2 if where == "worker" else 0)
        assert _scan("spectrum", "csv", passing, 3, monkeypatch) == _scan(
            "spectrum", "csv", passing, 1, monkeypatch)
        assert workers is None or cli._POOL[1] == workers
    finally:
        for process, _ in cli._POOL[1] if cli._POOL else ():
            process.terminate()
            process.join(timeout=60)
            assert not process.is_alive()


def test_splits_from_several_threads_keep_their_own_chunks(tmp_path, monkeypatch):
    # each thread's scans have their own omega_a, so a reply read by the wrong
    # thread shows in its bytes
    configs = [_grid_config(tmp_path / f"{k}.json", 5, 1.0 + 0.01 * k) for k in range(4)]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    expected = []
    for config in configs:
        out = f"{config}.out"
        assert cli.main(["scan", "duality", "--config", str(config), "--output", out]) == 0
        expected.append(Path(out).read_text())
    monkeypatch.setattr(cli, "_CHUNK_POINTS", 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    got = [[] for _ in configs]

    def scans(k):
        for repeat in range(5):
            out = tmp_path / f"{k}.{repeat}.out"
            cli.main(["scan", "duality", "--config", str(configs[k]), "--output", str(out)])
            got[k].append(out.read_text())

    threads = [threading.Thread(target=scans, args=(k,)) for k in range(len(configs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert got == [[text] * 5 for text in expected]


def _python(code, *args):
    """The output of ``code`` in a fresh interpreter, which must exit with 0."""
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
                          check=True).stdout


def _grid_config(path, steps, omega_a=1.0):
    path.write_text(json.dumps({"omega_a": omega_a, "scan": [
        {"param": "lambda", "start": 0.01, "stop": 0.2, "steps": steps},
        {"param": "xi", "start": 0.05, "stop": 0.3, "steps": steps}]}))
    return path


def test_workers_end_with_the_interpreter(tmp_path):
    pids = _python("""if True:
        import multiprocessing, sys
        from darktrio import cli
        cli._CHUNK_POINTS, cli._usable_cpus = 10, lambda: 3
        assert cli.main(["scan", "classify", "--config", sys.argv[1], "--output", sys.argv[2]]) == 0
        print(*(child.pid for child in multiprocessing.active_children()))
        """, _grid_config(tmp_path / "scan.json", 6), tmp_path / "out.json").split()
    assert len(pids) == 2
    for pid in map(int, pids):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_workers_inherit_the_float_formatter():
    # the caller imports the array formatter before its first fork, so no
    # worker imports it and builds its tables again
    out = _python("""if True:
        import sys
        from darktrio import cli
        assert "darktrio._floattext" not in sys.modules
        cli._workers(1)
        print("darktrio._floattext" in sys.modules)
        """)
    assert out == "True\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity mask")
def test_one_usable_cpu_starts_no_process(tmp_path):
    out = _python("""if True:
        import os, sys
        from darktrio import cli
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        assert cli.main(["scan", "classify", "--config", sys.argv[1], "--output", sys.argv[2]]) == 0
        print("multiprocessing" in sys.modules, cli._POOL)
        """, _grid_config(tmp_path / "scan.json", 100), tmp_path / "out.csv")
    assert out == "False None\n"
    assert math.prod(axis["steps"] for axis in json.loads(
        (tmp_path / "scan.json").read_text())["scan"]) >= 2 * cli._CHUNK_POINTS
