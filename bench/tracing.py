"""Spans around the calls the benchmark makes into the program.

A span records its name, start, end, the span that caused it and the
operation it belongs to. Spans stay in memory; the benchmark writes them out
when the run ends. A layer's self time is its span's duration minus the part
covered by its child spans.

The program is traced from outside: ``Tracer.install`` rebinds the public
functions listed in ``PATCHED`` in every loaded ``dpcp`` module to timing
wrappers, and ``uninstall`` puts the originals back. Nothing in the program
changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) -> span name. Every dataset generator counts as one layer.
PATCHED = {
    ("dpcp.dataset", "sample_haar_subspace"): "dataset.generate",
    ("dpcp.dataset", "generate_dataset"): "dataset.generate",
    ("dpcp.dataset", "corrupt_with_outliers"): "dataset.generate",
    ("dpcp.harness", "hsi_proxy"): "dataset.generate",
    ("dpcp.dataset", "save_csv"): "dataset.save_csv",
    ("dpcp.dataset", "load_csv"): "dataset.load_csv",
    ("dpcp.solver", "psgm_multi"): "solver.psgm_multi",
    ("dpcp.rsgm", "rsgm_run"): "rsgm.rsgm_run",
    ("dpcp.analysis", "recovery_report"): "analysis.recovery_report",
}


def psgm_counts(matrix, config, basis) -> dict:
    """Work counters of one psgm_multi call, read from its per-instance traces.

    Products are D x n matrix-vector products, counted for the MBLS loop:
    per iteration A^T b, A sgn(A^T b) and one A^T c per candidate step, plus
    three for the automatic initial step and one for the final objective.
    """
    iters = [tr.n_iterations for tr in basis.traces]
    backs = [int(tr.backtracks.sum()) if tr.backtracks is not None else 0
             for tr in basis.traces]
    D, n = matrix.points.shape
    products = sum(3 * k + b + 4 for k, b in zip(iters, backs))
    return {
        "instances": len(iters),
        "iterations": sum(iters),
        "iterations_max": max(iters),
        "capped": sum(k >= config.max_iters for k in iters),
        "backtracks": sum(backs),
        "products": products,
        # computed from array sizes: each product reads the float64 matrix once
        "bytes": products * 8 * D * n,
        "flops": products * 2 * D * n,
    }


def _counts(name: str, args, kwargs, out) -> dict:
    if name == "solver.psgm_multi":
        config = args[1] if len(args) > 1 else kwargs["config"]
        return psgm_counts(args[0], config, out)
    if name == "rsgm.rsgm_run" and out.trace is not None:
        return {"iterations": out.trace.n_iterations}
    return {}


class Tracer:
    """In-memory span recorder; also keeps the results of traced calls of the
    current operation when ``keep_results`` is set, for output checks."""

    traced = True

    def __init__(self, keep_results: bool = False):
        self.spans: list[dict] = []
        self.op = None
        self.keep_results = keep_results
        self.results: list[tuple[str, tuple, object]] = []
        self._stack: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, start: float | None = None):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "name": name,
            "start": time.perf_counter() if start is None else start,
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans: list[dict]) -> None:
        """Append spans recorded in another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1]["id"] if self._stack else None
        for s in spans:
            self.spans.append(dict(
                s, id=base + s["id"], op=self.op,
                parent=parent if s["parent"] is None else base + s["parent"],
            ))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            rec["counts"] = _counts(name, args, kwargs, out)
            if self.keep_results:
                self.results.append((name, args, out))
            return out
        return traced

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "dpcp" or k.startswith("dpcp."))]
        for (modname, attr), name in PATCHED.items():
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._undo):
            setattr(m, key, orig)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class NullTracer:
    """Stand-in for untraced passes: spans cost one context-manager call."""

    traced = False

    def span(self, name: str):
        return contextlib.nullcontext()


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_totals(spans: list[dict]) -> tuple[dict, dict, dict]:
    """Per span name: summed self time, summed duration and summed counters."""
    selfs: dict[str, float] = defaultdict(float)
    durations: dict[str, float] = defaultdict(float)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        selfs[s["name"]] += own
        durations[s["name"]] += s["end"] - s["start"]
        for k, v in s["counts"].items():
            if k.endswith("_max"):
                counts[s["name"]][k] = max(counts[s["name"]][k], v)
            else:
                counts[s["name"]][k] += v
    return selfs, durations, counts
