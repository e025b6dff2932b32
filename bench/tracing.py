"""Span tracing for the benchmark, installed from outside the program.

``Tracer.install`` replaces each public function named in ``LAYERS`` on
its defining module, and on every other ``polycrit`` module that bound
the same function object by name (``cli.generate_zeros``,
``generate.check_siebeck_hypotheses``, ...), with a wrapper that records
one span per call: name, parent span, check id, start and end. Spans
stay in memory until the run ends. A layer's self time is its span's
duration minus the durations of its direct child spans.

This module imports neither numpy nor polycrit at import time, so the
traced CLI bootstrap can time ``import polycrit`` after loading it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Wrapped public functions, "<module>.<function>" under the polycrit package.
LAYERS = (
    "theorems.check_main_theorem",
    "theorems.check_gauss_lucas",
    "theorems.check_interlacing",
    "theorems.check_poor_mans_siebeck",
    "theorems.check_edge_preimage",
    "theorems.check_bgm",
    "theorems.check_elliptical_range",
    "theorems.critical_points_oracle",
    "theorems.check_siebeck_hypotheses",
    "matricial.critical_points_matricial",
    "matricial.build_construction",
    "numlin.general_eigvals",
    "numlin.principal_submatrix",
    "poly.from_roots",
    "poly.roots",
    "poly.multiset_match",
    "geom.convex_hull",
    "geom.hull_violation",
    "fov.sweep_supports",
    "fov.point_margin",
    "generate.generate_zeros",
    "rng.random_zeros",
    "cli.main",
    "cli.canonical_json",
)

# Called only while a workload's instances are generated; reported per set-up.
SETUP_LAYERS = ("generate.generate_zeros", "rng.random_zeros")

# Spans the harness records around the program rather than inside it.
CHECK = "bench.check"  # one check, as the closed-loop client sees it
INTERPRETER = "cli.interpreter"  # process launch until the first line of the CLI bootstrap
IMPORT = "cli.import"  # import polycrit.cli inside the CLI process


def _order(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    return int(shape[0]) if shape else len(matrix)


def _size(values) -> int:
    size = getattr(values, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(values)
    except TypeError:
        return 1


def _counts_for(name: str, args, kwargs) -> dict[str, int]:
    """Work counts recorded at the layer boundary."""
    if name == "numlin.general_eigvals":
        return {"order_cubed_sum": _order(args[0] if args else kwargs["a"]) ** 3}
    if name == "fov.sweep_supports":
        return {"angles": _size(args[1] if len(args) > 1 else kwargs["thetas"])}
    return {}


class Tracer:
    """In-memory span recorder. A span is ``[id, parent, name, check, start, end]``
    with times from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so
    spans from a child process share the parent's time axis)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str, str], int] = defaultdict(int)
        self.check = -1  # -1 marks set-up work, >= 0 a timed check
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str, start: float | None = None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, self.check, time.perf_counter() if start is None else start, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, end: float | None = None) -> None:
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("span stack out of order")
        self.spans[sid][5] = time.perf_counter() if end is None else end

    def add(self, name: str, start: float, end: float, parent: int | None) -> int:
        """Record a finished span under ``parent`` without touching the stack."""
        sid = len(self.spans)
        self.spans.append([sid, parent, name, self.check, start, end])
        return sid

    def graft(self, spans: list[list], counts: list, parent: int) -> None:
        """Append spans recorded by another process below ``parent``."""
        base = len(self.spans)
        for sid, par, name, _check, start, end in spans:
            self.spans.append([base + sid, parent if par is None else base + par, name, self.check, start, end])
        for name, key, value in counts:
            self.counts[(self.check, name, key)] += value

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for key, value in _counts_for(name, args, kwargs).items():
                tracer.counts[(tracer.check, name, key)] += value
            sid = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever polycrit bound it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items()) if key == "polycrit" or key.startswith("polycrit.")]
        for target in LAYERS:
            mod_name, fn_name = target.split(".")
            original = getattr(importlib.import_module(f"polycrit.{mod_name}"), fn_name)
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- export ----------------------------------------------------------
    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[name, key, value] for (_check, name, key), value in sorted(self.counts.items())],
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, check, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "check": check, "start": start, "end": end}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Self time (seconds) of each span: duration minus direct children."""
    child = [0.0] * len(spans)
    for sid, parent, _name, _check, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _p, _n, _c, start, end in spans]


def layer_summary(tracer: Tracer, checks: int) -> dict:
    """Per-layer metrics and self-time shares from a traced run.

    ``checks`` is the number of traced checks; per-check figures divide
    by it. Set-up spans (check id -1) are summarised per set-up.
    """
    selfs = self_times(tracer.spans)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    check_total = 0.0
    for (sid, _parent, name, check, start, end), own in zip(tracer.spans, selfs):
        phase = "setup" if check < 0 else "check"
        calls[(phase, name)] += 1
        self_s[(phase, name)] += own
        if name == CHECK and phase == "check":
            check_total += end - start
    per = max(checks, 1)
    metrics: dict[str, dict] = {}
    for target in (INTERPRETER, IMPORT):
        metrics[f"{target}_ms"] = {"value": 1e3 * self_s[("check", target)] / per, "unit": "ms/check"}
    for target in LAYERS + (CHECK,):
        if target in SETUP_LAYERS:
            metrics[f"{target}.calls"] = {"value": calls[("setup", target)], "unit": "count/setup"}
            metrics[f"{target}.self_ms"] = {"value": 1e3 * self_s[("setup", target)], "unit": "ms/setup"}
            continue
        if target != CHECK:
            metrics[f"{target}.calls"] = {"value": calls[("check", target)] / per, "unit": "count/check"}
        metrics[f"{target}.self_ms"] = {"value": 1e3 * self_s[("check", target)] / per, "unit": "ms/check"}
    counts = defaultdict(int)
    for (check, name, key), value in tracer.counts.items():
        if check >= 0:
            counts[(name, key)] += value
    metrics["numlin.general_eigvals.order_cubed_sum"] = {
        "value": counts[("numlin.general_eigvals", "order_cubed_sum")] / per,
        "unit": "count/check",
    }
    metrics["fov.sweep_supports.angles"] = {"value": counts[("fov.sweep_supports", "angles")] / per, "unit": "count/check"}
    attempts = calls[("setup", "rng.random_zeros")]
    metrics["generate.generate_zeros.accepted_per_attempt"] = {
        "value": calls[("setup", "generate.generate_zeros")] / attempts if attempts else 0.0,
        "unit": "ratio",
    }
    shares = {
        name: own / check_total
        for (phase, name), own in sorted(self_s.items())
        if phase == "check" and check_total > 0
    }
    return {"metrics": metrics, "shares": shares, "check_total_s": check_total}
