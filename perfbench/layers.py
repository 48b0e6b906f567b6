"""Per-layer tracing of curvosc from outside the package.

``Tracer.install`` replaces every public function of each curvosc module
with a timing wrapper, under its name in every module that imported it,
so calls through ``from .x import f`` bindings, late imports and module
attributes are all seen.  Nothing under ``src/`` is edited; ``uninstall``
puts the originals back.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the time of the wrapped calls it made, so the self times of
all layers add up to the wall time of the outermost frame.  Layers with
few, coarse calls also keep one span per call (name, start, end, parent);
pointwise model layers only accumulate counts and time, because one qes
op makes some 10^5 of their calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "verify", "problems", "numerics",
           "crs", "higgs", "transform", "special_functions", "params")
POINTWISE = ("crs", "higgs", "transform", "special_functions", "params")
NUMERICS_KEYS = {
    "assemble": "numerics.assemble",
    "lowest_eigenvalues": "numerics.backtransform",
    "richardson_eigenvalues": "numerics.richardson",
    "rayleigh_quotient": "numerics.rayleigh",
    "residual_norm": "numerics.residual",
}


class Tracer:
    """Calls, work points, self time and failures per layer key, plus spans."""

    def __init__(self):
        self.checks = 0
        self.spans = []          # [key, name, start, end, parent span index]
        self.suite_of = {}       # suite function name -> verify suite name
        self._stack = []         # frames [seconds in child frames, span index]
        self._accs = []          # (key, [calls, points, self seconds, failed]) per wrapper
        self._undo = []

    def _total(self, field: int) -> defaultdict:
        out = defaultdict(int)
        for key, acc in self._accs:
            out[key] += acc[field]
        return out

    calls = property(lambda self: self._total(0))
    points = property(lambda self: self._total(1))
    self_s = property(lambda self: self._total(2))
    failed = property(lambda self: self._total(3))

    def wrap(self, fn, key, span=True, points=None):
        """fn with its calls, points and self time booked under key.  points
        maps (args, kwargs) to the work size; by default the size of the
        largest array argument, 1 for a scalar call."""
        stack, spans, clock, ndarray = self._stack, self.spans, time.perf_counter, np.ndarray
        acc = [0, 0, 0.0, 0]
        self._accs.append((key, acc))
        name = getattr(fn, "__name__", key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if span:
                frame[1] = len(spans)
                spans.append([key, name, 0.0, 0.0, stack[-1][1] if stack else None])
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                acc[3] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                acc[0] += 1
                acc[2] += elapsed - frame[0]
                if points is None:
                    n = 1
                    for a in args:
                        if type(a) is ndarray and a.size > n:
                            n = a.size
                    acc[1] += n
                else:
                    acc[1] += points(args, kwargs)
                if span:
                    spans[frame[1]][2:4] = start, start + elapsed
        return traced

    def _patch(self, mapping: dict, name: str, value):
        self._undo.append(functools.partial(mapping.__setitem__, name, mapping[name]))
        mapping[name] = value

    def install(self, package: str = "curvosc"):
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        namespaces = [vars(importlib.import_module(package))] + [vars(m) for m in mods.values()]
        numerics = mods["numerics"]
        wrapped = {numerics.eigh_tridiagonal: self.wrap(
            numerics.eigh_tridiagonal, "numerics.eigensolve",
            points=lambda a, kw: kw["select_range"][1] - kw["select_range"][0] + 1)}
        for short, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                key = NUMERICS_KEYS.get(name, "numerics.other") if short == "numerics" else short
                points = (lambda a, kw: a[0].grid.n) if key == "numerics.assemble" else None
                wrapped[fn] = self.wrap(fn, key, span=short not in POINTWISE, points=points)
        run_suites = mods["verify"].run_suites
        wrapped[run_suites] = self._count_checks(wrapped[run_suites])
        for ns in namespaces:
            for name, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(ns, name, wrapped[obj])
        suites = mods["verify"].SUITES
        for suite, fn in list(suites.items()):
            self.suite_of[fn.__name__] = suite
            self._patch(suites, suite, wrapped[fn])
        cls = mods["params"].PhysParams
        for prop in ("delta", "omega_prime"):
            original = cls.__dict__[prop]
            self._undo.append(functools.partial(setattr, cls, prop, original))
            setattr(cls, prop, property(self.wrap(original.fget, "params", span=False)))

    def _count_checks(self, traced_run_suites):
        @functools.wraps(traced_run_suites)
        def counted(*args, **kwargs):
            results = traced_run_suites(*args, **kwargs)
            self.checks += len(results)
            return results
        return counted

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def children(self) -> dict:
        kids = defaultdict(list)
        for i, span in enumerate(self.spans):
            kids[span[4]].append(i)
        return kids

    def suite_seconds(self) -> dict:
        """Inclusive time of each verify suite run directly by run_suites."""
        out = defaultdict(float)
        for key, name, start, end, parent in self.spans:
            if name in self.suite_of and parent is not None \
                    and self.spans[parent][1] == "run_suites":
                out[self.suite_of[name]] += end - start
        return out

    def richardson_fine_share(self) -> float:
        """Share of Richardson time spent on the refined (second) grid."""
        kids = self.children()
        total = fine = 0.0
        for i, (key, _, start, end, _) in enumerate(self.spans):
            if key == "numerics.richardson":
                solves = [self.spans[j] for j in kids[i] if self.spans[j][1] == "lowest_eigenvalues"]
                total += end - start
                fine += solves[1][3] - solves[1][2]
        return fine / total if total else 0.0


def layer_metrics(t: Tracer, suites, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    t_calls, t_points, t_self, t_failed = t.calls, t.points, t.self_s, t.failed
    m = {}
    m["cli.calls"] = (t_calls["cli"], "count")
    m["cli.self_s"] = (t_self["cli"], "s")
    seconds = t.suite_seconds()
    for suite in suites:
        m[f"verify.suite.{suite}_s"] = (seconds.get(suite, 0.0), "s")
    m["verify.checks"] = (t.checks, "count")
    m["problems.calls"] = (t_calls["problems"], "count")
    m["problems.self_s"] = (t_self["problems"], "s")
    a = "numerics.assemble"
    m[a + ".calls"] = (t_calls[a], "count")
    m[a + ".points"] = (t_points[a], "count")
    m[a + ".self_s"] = (t_self[a], "s")
    m[a + ".us_per_point"] = (1e6 * t_self[a] / t_points[a] if t_points[a] else 0.0, "us")
    e = "numerics.eigensolve"
    m[e + ".calls"] = (t_calls[e], "count")
    m[e + ".pairs"] = (t_points[e], "count")
    m[e + ".s"] = (t_self[e], "s")
    b = "numerics.backtransform"
    m[b + ".s"] = (t_self[b], "s")
    m["numerics.solve_ok_ratio"] = (
        1 - t_failed[b] / t_calls[b] if t_calls[b] else 1.0, "ratio")
    m["numerics.richardson.calls"] = (t_calls["numerics.richardson"], "count")
    m["numerics.richardson.fine_share"] = (t.richardson_fine_share(), "ratio")
    for k in ("numerics.rayleigh", "numerics.residual"):
        m[k + ".calls"] = (t_calls[k], "count")
        m[k + ".self_s"] = (t_self[k], "s")
    for k in ("crs", "higgs", "transform", "special_functions"):
        m[k + ".calls"] = (t_calls[k], "count")
        m[k + ".points"] = (t_points[k], "count")
        m[k + ".self_s"] = (t_self[k], "s")
    m["params.calls"] = (t_calls["params"], "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
