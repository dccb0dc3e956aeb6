"""Spans around the public functions of each cfslab layer, recorded from outside.

``Tracer.install()`` replaces every public function of the measured modules,
and ``__init__`` plus the public methods of their public classes, with a
wrapper that records a span (name, parent, start, end) in memory.  Functions
are replaced wherever a cfslab module has bound them (``minkowski`` calls the
``OperatorPoint`` it imported from ``core``), methods on the class itself.
``uninstall()`` restores the originals, so untraced passes run the program
unchanged.  Spans stay in flat arrays until ``dump`` writes them out.

A span's self time is its duration minus the durations of its child spans.
A per-layer time metric sums the self time of its root spans and of every
same-layer span nested under them without another layer in between, so
``minkowski.build_s`` counts ``build_modes`` inside ``build_system`` but not
the ``core`` eigendecompositions it triggers.
"""

from __future__ import annotations

import array
import enum
import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

#: Measured modules of ``src/cfslab``, one layer each.  ``ambient`` is left
#: out: no CLI command or benchmark pipeline calls it.
LAYERS = ("core", "minkowski", "io", "pairs", "reports", "causal", "spin", "cli")

#: Per-layer time metrics: metric -> root span names (a trailing ``.`` is a
#: prefix matching every span of that layer).
TIME_METRICS = {
    "core.point_s": ("core.OperatorPoint.__init__",),
    "minkowski.build_s": ("minkowski.build_system",),
    "minkowski.frame_s": ("minkowski.dirac_frame",),
    "io.write_s": ("io.write_system",),
    "io.read_s": ("io.read_system",),
    "pairs.analyze_s": ("pairs.PairEngine.__init__", "pairs.PairEngine.analyze"),
    "reports.write_s": ("reports.",),
    "causal.graph_s": ("causal.build_causal_graph",),
    "causal.distance_s": ("causal.distance_matrix",),
    "causal.lattice_s": ("causal.enumerate_lattice",),
    "spin.connection_s": ("spin.spin_connection",),
    "spin.metric_s": ("spin.metric_connection",),
    "spin.splice_s": ("spin.splice_map",),
    "spin.holonomy_s": ("spin.holonomy",),
    "cli.validate_s": ("cli.validate_system",),
}

#: Per-layer counts of calls: metric -> span name.
CALL_METRICS = {
    "core.points": "core.OperatorPoint.__init__",
    "minkowski.frame_calls": "minkowski.dirac_frame",
    "spin.connection_calls": "spin.spin_connection",
}

#: Per-layer counts read off arguments and results (see ``_COUNTERS``).
COUNTER_METRICS = ("io.bytes", "pairs.pairs", "reports.bytes", "causal.edges", "causal.closed_sets")


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _text_bytes(result, *_):
    return len(result.encode()) if isinstance(result, str) else 0


# span name -> (counter, fn(result, args, kwargs))
_COUNTERS = {
    "io.write_system": ("io.bytes", lambda r, a, k: _file_size(_arg(a, k, 1, "path"))),
    "io.read_system": ("io.bytes", lambda r, a, k: _file_size(_arg(a, k, 0, "path"))),
    "pairs.PairEngine.analyze": ("pairs.pairs", lambda r, a, k: len(r.ids) * (len(r.ids) - 1) // 2),
    "causal.build_causal_graph": ("causal.edges", lambda r, a, k: r.n_edges),
    "causal.enumerate_lattice": ("causal.closed_sets", lambda r, a, k: len(r)),
}
_REPORTS = (
    "classification_csv",
    "connection_json",
    "convergence_csv",
    "distance_csv",
    "dot_graph",
    "lattice_json",
    "order_csv",
)
_COUNTERS.update({f"reports.{n}": ("reports.bytes", _text_bytes) for n in _REPORTS})

# Functions returning a callable whose calls are spans of their own: the
# Clifford-frame provider caches ``dirac_frame`` per point pair.
_RETURNS_CALLABLE = {"minkowski.clifford_provider": "minkowski.provide"}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, int] = {}
        self.workers = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrapping --------------------------------------------------------

    def _wrap(self, func, name: str):
        nid = self.name_id(name)
        counter = _COUNTERS.get(name)
        provided = _RETURNS_CALLABLE.get(name)
        is_analyze = name == "pairs.PairEngine.analyze"
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                key, fn = counter
                tracer.counters[key] = tracer.counters.get(key, 0) + int(fn(result, args, kwargs))
            if is_analyze:
                tracer.workers = max(tracer.workers, args[0].workers)
            if provided is not None:
                result = tracer._wrap(result, provided)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public callables in place."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cfslab.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._wrap_class(obj, f"{layer}.{attr}")
        for key in sorted(sys.modules):
            if key.split(".")[0] != "cfslab":
                continue
            mod = sys.modules[key]
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls, name: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                continue
            self._saved.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(obj, f"{name}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    def run_traced(self, fn):
        """Call ``fn()`` with the tracer installed under one root span.

        Returns the root span's seconds, ``fn``'s result and the pass's
        per-layer metrics.  The program is unwrapped again on return.
        """
        before = dict(self.counters)
        self.workers = 0
        self.install()
        lo = self.open(self.name_id("bench.pass"))
        try:
            out = fn()
        finally:
            self.close(lo)
            self.uninstall()
        return self.end[lo] - self.start[lo], out, self.pass_metrics(lo, before)

    # -- analysis --------------------------------------------------------

    def arrays(self, lo: int = 0):
        """Spans from index ``lo`` on as numpy arrays, parents re-based."""
        name = np.frombuffer(self.name, dtype=np.int32)[lo:].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:].astype(np.int64) - lo
        parent[parent < 0] = -1
        start = np.frombuffer(self.start, dtype=np.float64)[lo:].copy()
        end = np.frombuffer(self.end, dtype=np.float64)[lo:].copy()
        return name, parent, start, end

    def pass_metrics(self, lo: int, counters_before: dict) -> dict:
        """Per-layer metrics of the spans recorded since index ``lo``.

        The first span from ``lo`` on must be the pass's root span.
        """
        name, parent, start, end = self.arrays(lo)
        names = self.names
        has_parent = parent >= 0
        own = end - start
        np.subtract.at(own, parent[has_parent], (end - start)[has_parent])

        out = {}
        total = float(end[0] - start[0])
        layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
        name_layer = np.array([layer_ids.get(n.split(".")[0], -1) for n in names])
        span_layer = name_layer[name]
        for layer, k in layer_ids.items():
            out[f"{layer}.share"] = float(own[span_layer == k].sum()) / total

        metrics = list(TIME_METRICS)
        name_root = [-1] * len(names)
        for m, metric in enumerate(metrics):
            for nid, n in enumerate(names):
                if any(n == r or (r.endswith(".") and n.startswith(r)) for r in TIME_METRICS[metric]):
                    name_root[nid] = m
        owner = np.full(len(name), -1, dtype=np.int64)
        for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
            if name_root[nid] >= 0:
                owner[i] = name_root[nid]
            elif p >= 0 and span_layer[p] == span_layer[i]:
                owner[i] = owner[p]
        sums = np.bincount(owner[owner >= 0], weights=own[owner >= 0], minlength=len(metrics))
        out.update({metric: float(sums[m]) for m, metric in enumerate(metrics)})

        counts = np.bincount(name, minlength=len(names))
        for metric, span in CALL_METRICS.items():
            out[metric] = int(counts[names.index(span)]) if span in names else 0
        for metric in COUNTER_METRICS:
            out[metric] = self.counters.get(metric, 0) - counters_before.get(metric, 0)
        out["pairs.workers"] = self.workers

        # provider calls that had to build a frame are cache misses
        provides = misses = 0
        if "minkowski.provide" in names:
            pid = names.index("minkowski.provide")
            provides = int(counts[pid])
            if "minkowski.dirac_frame" in names:
                under_provide = has_parent & (name[np.maximum(parent, 0)] == pid)
                misses = int(np.count_nonzero(under_provide & (name == names.index("minkowski.dirac_frame"))))
        out["minkowski.frame_hit_ratio"] = 1.0 - misses / provides if provides else 0.0
        return out

    def dump(self, path, env: dict) -> None:
        """Write every recorded span, the name table and the environment."""
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start,
            end=end,
            env=np.array(repr(env)),
        )
