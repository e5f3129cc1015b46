"""Outside-in tracer: spans and work counters around calls into fluidnet.

The tracer lives in the benchmark, not in the program. It replaces each
traced function at the place where its caller looks it up:

- ``torus_distance_matrix``, ``generate_poisson``, ``generate_hexagonal``,
  ``sinr_field`` and ``_clamp_to_exclusion`` in the ``fluidnet.sinr``
  namespace (``run_monte_carlo`` and ``sinr_field`` call them there);
- ``run_monte_carlo`` and the stats/fluid entry points in the
  ``fluidnet.experiment`` namespace;
- ``FluidCdf`` and ``EmpiricalCdf`` methods on their classes;
- ``fluidnet.io.write_csv`` itself, since ``cmd_report`` imports it
  inside the function and the other writers call it as a module global.

Modules are taken from ``sys.modules`` via importlib: the package
attribute ``fluidnet.sinr`` is the *function* ``sinr``, which shadows
the submodule.

Each call records one span (name, parent, t0..t3): the traced function
runs between t1 and t2; the tracer's own bookkeeping (counters) runs in
[t0, t1) and [t2, t3). Spans stay in memory and are written out when the
iteration ends. A span's self time is (t2 - t1) minus the full [t0, t3]
interval of each child span, so bookkeeping is charged to the tracer,
never to a layer.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

clock = time.perf_counter

# Span names whose self time is reported on its own, besides the layer totals.
SPAN_METRICS = ("sinr.mc", "sinr.reduce", "sinr.clamp",
                "stats.cdf", "stats.quantile", "stats.shift", "stats.corr",
                "fluid.evaluate", "fluid.quantile", "fluid.throughput")
LAYERS = ("cli", "geometry", "placement", "sinr", "stats", "fluid", "io")
COUNTERS = ("geometry.calls", "geometry.pairs", "geometry.bytes_computed",
            "sinr.samples", "sinr.clamped_users",
            "placement.layouts", "placement.stations", "placement.redraws",
            "fluid.evaluate_points", "fluid.scalar_calls", "stats.quantile_calls",
            "io.files", "io.rows", "io.bytes")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Installs the wrappers and collects spans and counters for one process."""

    def __init__(self):
        self.spans = []          # (name, parent index, t0, t1, t2, t3)
        self.stack = [-1]        # indices of the open spans
        self.names = [None]      # names of the open spans
        self.counters = defaultdict(int)
        self.missing = []        # hooks whose target no longer exists
        self._blocks = set()     # distinct (users, stations) distance blocks
        self._scalar_calls = itertools.count()

    def wrap(self, owner, attr, name, pre=None, post=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, stack, names = self.spans, self.stack, self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            if pre:
                pre(args, kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            names.append(name)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                names.pop()
                spans[idx] = (name, stack[-1], t0, t1, t2, t2)
            if post:
                post(args, kwargs, result)
            spans[idx] = (name, stack[-1], t0, t1, t2, clock())
            return result

        setattr(owner, attr, traced)

    def count_calls(self, owner, attr):
        """Count calls without a span: for scalar functions called millions of times."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        # The wrapper takes fluid_sinr's own (m, r) and costs the caller's
        # span ~25 ns a call; a function with another signature is not hooked.
        if list(inspect.signature(fn).parameters) != ["m", "r"]:
            self.missing.append(f"{owner.__name__}.{attr}(m, r)")
            return
        counter = self._scalar_calls

        def counted(m, r):
            next(counter)
            return fn(m, r)

        setattr(owner, attr, counted)

    # --- counters, computed from arguments and return values -------------

    def _distances(self, args, kwargs, d):
        a, b = _arg(args, kwargs, 1, "a"), _arg(args, kwargs, 2, "b")
        pairs = a.shape[0] * b.shape[0]
        c = self.counters
        c["geometry.calls"] += 1
        c["geometry.pairs"] += pairs
        c["geometry.bytes_computed"] += d.nbytes
        key = hash((a.tobytes(), b.tobytes()))
        if key not in self._blocks:
            self._blocks.add(key)
            c["geometry.unique_pairs"] += pairs
        if self.names[-1] == "sinr.reduce":
            c["check.reduce_pairs"] += pairs

    def _layout(self, args, kwargs, layout):
        c = self.counters
        c["placement.layouts"] += 1
        c["placement.stations"] += layout.n_stations
        c["placement.redraws"] += getattr(layout, "redraws", 0)

    def _field(self, args, kwargs, samples):
        layout, users = _arg(args, kwargs, 0, "layout"), _arg(args, kwargs, 2, "users")
        self.counters["sinr.samples"] += np.size(samples)
        self.counters["check.field_pairs"] += users.points.shape[0] * layout.n_stations

    def _clamp_pre(self, args, kwargs):
        d = _arg(args, kwargs, 3, "d")
        radius = _arg(args, kwargs, 4, "exclusion_radius")
        self.counters["sinr.clamped_users"] += int(np.count_nonzero(d.min(axis=1) < radius))

    def _evaluate_pre(self, args, kwargs):
        self.counters["fluid.evaluate_points"] += np.size(_arg(args, kwargs, 1, "gamma_db"))

    def _quantile_pre(self, args, kwargs):
        self.counters["stats.quantile_calls"] += 1

    def _csv(self, args, kwargs, _):
        data = Path(_arg(args, kwargs, 0, "path")).read_bytes()
        lines = data.count(b"\n")
        comments = data.count(b"\n#") + data.startswith(b"#")
        c = self.counters
        c["io.files"] += 1
        c["io.bytes"] += len(data)
        c["io.rows"] += lines - comments - 1   # minus the header line

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced function; returns the wrapped ``cli.main``."""
        mod = importlib.import_module
        cli, sinr, exp = mod("fluidnet.cli"), mod("fluidnet.sinr"), mod("fluidnet.experiment")
        stats, fluid, io = mod("fluidnet.stats"), mod("fluidnet.fluid"), mod("fluidnet.io")

        self.wrap(sinr, "torus_distance_matrix", "geometry.distance", post=self._distances)
        self.wrap(sinr, "generate_poisson", "placement.poisson", post=self._layout)
        self.wrap(sinr, "generate_hexagonal", "placement.hexagonal", post=self._layout)
        self.wrap(sinr, "sinr_field", "sinr.reduce", post=self._field)
        self.wrap(sinr, "_clamp_to_exclusion", "sinr.clamp", pre=self._clamp_pre)
        self.wrap(exp, "run_monte_carlo", "sinr.mc")
        self.wrap(exp, "empirical_cdf", "stats.cdf")
        self.wrap(exp, "mean_horizontal_shift", "stats.shift")
        self.wrap(exp, "cdf_curve_correlation", "stats.corr")
        self.wrap(exp, "fit_linear", "stats.fit")
        self.wrap(stats.EmpiricalCdf, "quantile", "stats.quantile", pre=self._quantile_pre)
        self.wrap(stats.EmpiricalCdf, "evaluate", "stats.evaluate")
        self.wrap(fluid.FluidCdf, "evaluate", "fluid.evaluate", pre=self._evaluate_pre)
        self.wrap(fluid.FluidCdf, "quantile", "fluid.quantile")
        self.wrap(exp, "average_cell_throughput", "fluid.throughput")
        self.wrap(exp, "cell_edge_throughput", "fluid.throughput")
        self.count_calls(fluid, "fluid_sinr")
        self.wrap(io, "write_csv", "io.write", post=self._csv)
        self.wrap(cli, "main", "cli.main")
        return cli.main

    def dump(self, path):
        """Write spans and counters to ``path`` (JSON)."""
        counters = dict(self.counters)
        counters["fluid.scalar_calls"] = next(self._scalar_calls)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": counters,
                       "missing": self.missing}, fh)


def summarize(path) -> dict:
    """Per-layer self times, tracer bookkeeping and counters of one traced iteration."""
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    covered = [0.0] * len(spans)
    for _, parent, t0, _, _, t3 in spans:
        if parent >= 0:
            covered[parent] += t3 - t0
    out = defaultdict(float)
    for (name, _, t0, t1, t2, t3), cov in zip(spans, covered):
        self_s = (t2 - t1) - cov
        out[name.split(".")[0] + ".self_s"] += self_s
        if name in SPAN_METRICS:
            out[name + "_self_s"] += self_s
        out["trace.self_s"] += (t1 - t0) + (t3 - t2)
    metrics = {f"{layer}.self_s": out[f"{layer}.self_s"] for layer in LAYERS}
    metrics.update({f"{name}_self_s": out[f"{name}_self_s"] for name in SPAN_METRICS})
    metrics["trace.self_s"] = out["trace.self_s"]
    counters = data["counters"]
    metrics.update({k: counters.get(k, 0) for k in COUNTERS})
    pairs = counters.get("geometry.pairs", 0)
    metrics["geometry.unique_pair_ratio"] = counters.get("geometry.unique_pairs", 0) / pairs \
        if pairs else 0.0
    return {"metrics": metrics, "missing": data["missing"],
            "check": {k: v for k, v in counters.items() if k.startswith("check.")}}
