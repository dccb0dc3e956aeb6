"""Tests of the benchmark itself: ``python3 -m pytest cfsbench``.

The per-layer counts must repeat exactly for one seed, tracing must not
change what the program computes, and the reference comparison must tell
exact entries from tolerant ones.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, compare  # noqa: E402

COUNTS = ("pairs.pairs", "io.bytes", "causal.edges", "causal.closed_sets", "spin.connection_calls", "core.points")

# counts each workload must produce, by design
EXPECTED_NONZERO = {
    "dense_classify": ("pairs.pairs", "reports.bytes"),
    "sea_roundtrip": ("io.bytes", "core.points", "pairs.pairs", "reports.bytes"),
    "causal_order": ("causal.edges", "causal.closed_sets", "pairs.pairs", "reports.bytes"),
    "spin_transport": ("spin.connection_calls", "core.points", "minkowski.frame_calls"),
}


def _traced_counts(name: str, workdir: Path):
    workload = WORKLOADS[name]
    state = workload.setup(0, 2, workdir)
    plain = workload.digest(state, workload.run(state))
    _, out, metrics = Tracer().run_traced(lambda: workload.run(state))
    return plain, workload.digest(state, out), metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_tracing_is_transparent(name, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain, traced, first = _traced_counts(name, tmp_path / "a")
        _, _, second = _traced_counts(name, tmp_path / "b")
    assert traced == plain
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert all(first[k] > 0 for k in EXPECTED_NONZERO[name])
    assert first["pairs.workers"] in (0, 2)


def test_every_per_layer_metric_is_produced(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload = WORKLOADS["dense_classify"]
    state = workload.setup(0, 1, tmp_path)
    _, _, metrics = Tracer().run_traced(lambda: workload.run(state))
    produced = set(metrics) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_compare_exact_and_tolerant_entries():
    ref = {"edges": "abc", "distance_sum": 100.0, "closed_sets": [64, 1024]}
    assert compare("causal_order", dict(ref, distance_sum=100.0 + 1e-8), ref) == []
    assert compare("causal_order", dict(ref, distance_sum=100.001), ref)
    assert compare("causal_order", dict(ref, edges="abd"), ref)
    assert compare("causal_order", dict(ref, closed_sets=[64, 1023]), ref)
