"""Per-layer spans recorded from outside the program.

``Tracer`` wraps each listed public darktrio function and rebinds the
wrapper under every name that refers to the original in any loaded
``darktrio`` module namespace (``threemode.two_mode_spectrum``,
``cli.three_mode_spectrum``, the package re-exports, ...), so calls made
through an import alias are traced as well.  Each call records one span:
function, operation kind, parent span, start, end and whether it raised.
Spans stay in memory until ``save`` writes them out.

A span's self time is its duration minus the durations of its child
spans; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: the public functions traced, as (module, function); one layer each
TARGETS = (
    ("cli", "main"),
    ("model", "validate"),
    ("model", "sector_matrix"),
    ("twomode", "two_mode_spectrum"),
    ("threemode", "three_mode_spectrum"),
    ("threemode", "phi"),
    ("darkstates", "classify_spectrum"),
    ("darkstates", "dark_tuning"),
    ("darkstates", "assemble_eigenstate"),
    ("observables", "duality_report"),
    ("observables", "b_occupation"),
    ("observables", "c_occupation"),
    ("oracle", "crosscheck"),
    ("oracle", "dense_hermitian_eig"),
    ("oracle", "oscillator_sector_check"),
)

NAMES = tuple(f"{module}.{func}" for module, func in TARGETS)


def originals() -> dict[str, object]:
    """The unwrapped function objects, by layer name."""
    return {f"{m}.{f}": getattr(importlib.import_module(f"darktrio.{m}"), f)
            for m, f in TARGETS}


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self, kinds: tuple[str, ...]):
        self.kinds = kinds
        self.kind = 0
        self._saved: list[tuple[object, str, object]] = []
        self.fn, self.kind_of, self.error = array("h"), array("h"), array("b")
        self.parent, self.start, self.end = array("q"), array("d"), array("d")
        self._current = -1

    def reset(self) -> None:
        """Drop recorded spans; installed wrappers keep appending to the same arrays."""
        for column in (self.fn, self.kind_of, self.error, self.parent, self.start, self.end):
            del column[:]
        self._current = -1

    def set_kind(self, kind: str) -> None:
        self.kind = self.kinds.index(kind)

    def _wrap(self, index: int, original):
        clock = time.perf_counter
        fn, kind_of, parent = self.fn, self.kind_of, self.parent
        start, end, error = self.start, self.end, self.error

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(fn)
            fn.append(index)
            kind_of.append(self.kind)
            parent.append(self._current)
            end.append(0.0)
            error.append(0)
            self._current = span
            start.append(clock())
            try:
                return original(*args, **kwargs)
            except BaseException:
                error[span] = 1
                raise
            finally:
                end[span] = clock()
                self._current = parent[span]
        return traced

    def install(self) -> list[str]:
        """Rebind every alias of every target; returns the rebound names."""
        self.reset()
        found = originals()
        wrappers = {id(orig): self._wrap(i, orig) for i, orig in enumerate(found.values())}
        rebound = []
        for modname, module in sorted(sys.modules.items()):
            if modname != "darktrio" and not modname.startswith("darktrio."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    rebound.append(f"{modname}.{attr}")
        return rebound

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def summary(self) -> dict:
        """Per layer: calls (total and per kind), errors and self time."""
        fn = np.array(self.fn, dtype=np.intp)
        kind = np.array(self.kind_of, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        err = np.array(self.error, dtype=np.int8)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        n, k = len(NAMES), len(self.kinds)
        calls = np.bincount(fn * k + kind, minlength=n * k).reshape(n, k)
        return {
            name: {
                "calls": int(calls[i].sum()),
                "calls_by_kind": {self.kinds[j]: int(calls[i, j]) for j in range(k)},
                "errors": int(np.count_nonzero(err[fn == i])),
                "self_s": float(self_time[fn == i].sum()),
            }
            for i, name in enumerate(NAMES)
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(NAMES), kinds=np.array(self.kinds),
                 fn=np.array(self.fn, dtype=np.int16), kind=np.array(self.kind_of, dtype=np.int16),
                 parent=np.array(self.parent, dtype=np.int64), start=np.array(self.start),
                 end=np.array(self.end), error=np.array(self.error, dtype=np.int8))
