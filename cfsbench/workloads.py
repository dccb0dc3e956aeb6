"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload builds its inputs from the seed in ``setup`` (untimed, apart
from the ``setup_s`` metric), runs one pass of program calls in ``run`` (the
timed part), and checks the pass afterwards.  ``digest`` condenses the
outputs into values compared with references recorded when the benchmark was
added; ``verify`` checks properties that need no reference (file round trips,
reports that parse back to the computed values).  The program only ever sees
the generated inputs.

The seed selects one of ``VARIANTS`` input sets, ``seed % VARIANTS``, so that
every seed has recorded reference outputs (``refs.json``, written by
``record.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import itertools
import json
from pathlib import Path

import numpy as np

from cfslab import causal, cli, minkowski, pairs, reports, spin
from cfslab import io as cfs_io
from cfslab.core import CausalFermionSystem, OperatorPoint

VARIANTS = 32

#: Digest entries compared with a relative tolerance (and an absolute floor
#: of ``ATOL``): workload -> (rtol, keys).  Every other entry, causal codes,
#: orientation signs, edge sets and closed-set lists among them, must match
#: the reference exactly.
TOLERANT = {
    "causal_order": (1e-9, {"distance_sum", "distance_weighted_sum"}),
    "spin_transport": (1e-6, {"study", "phis", "composite", "holonomy_identity_distance"}),
}
ATOL = 1e-12


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % VARIANTS, stream])


def _sea_config(sample_points) -> minkowski.MinkowskiConfig:
    # regularized Dirac sea on the 5^3 momentum lattice, f = 250
    return minkowski.MinkowskiConfig(
        mass=1.0, eps=1e-3, torus_radius=0.8, kmax=2, sample_points=tuple(sample_points)
    )


class DenseClassify:
    """All-pairs classification of random regular points plus its CSV report.

    The acceptance suite's 1000-point problem at 300 points, so that a run
    holds a dozen passes; bound by ``pairs``, then ``reports``.
    """

    name = "dense_classify"
    n_points, f, n = 300, 16, 2

    def setup(self, seed: int, nproc: int, workdir: Path) -> dict:
        rng = _rng(seed, 1)
        points = []
        for k in range(self.n_points):
            a = rng.normal(size=(self.f, 2 * self.n)) + 1j * rng.normal(size=(self.f, 2 * self.n))
            q, _ = np.linalg.qr(a)
            lam = np.concatenate(
                [rng.uniform(0.5, 2.0, self.n), -rng.uniform(0.5, 2.0, self.n)]
            )
            points.append((f"p{k:04d}", 1.0, OperatorPoint((q * lam) @ q.conj().T)))
        return {"system": CausalFermionSystem(self.n, points), "nproc": nproc}

    def run(self, state: dict) -> dict:
        analysis = pairs.PairEngine(state["system"], workers=state["nproc"]).analyze()
        return {"analysis": analysis, "csv": reports.classification_csv(analysis)}

    def work(self, state: dict) -> int:
        n = len(state["system"])
        return n * (n - 1) // 2

    def digest(self, state: dict, out: dict) -> dict:
        a = out["analysis"]
        return {
            "codes": _sha(a.codes),
            "orientation": _sha(a.orientation),
            "csv": _sha(out["csv"]),
        }

    def verify(self, state: dict, out: dict) -> list[str]:
        return []


class SeaRoundtrip:
    """The CLI path a user runs: generate a Dirac sea file, validate, classify.

    Invoked in-process through ``cfslab.cli.main``; the only workload that
    writes files as well as reading them, bound by ``io``.
    """

    name = "sea_roundtrip"
    n_points = 4

    def setup(self, seed: int, nproc: int, workdir: Path) -> dict:
        rng = _rng(seed, 2)
        pts = [
            [float(rng.uniform(-0.5, 0.5)), *(float(v) for v in rng.uniform(-0.35, 0.35, 3))]
            for _ in range(self.n_points)
        ]
        cfg = _sea_config(pts)
        doc = {
            "kind": "minkowski",
            "mass": cfg.mass,
            "eps": cfg.eps,
            "torus_radius": cfg.torus_radius,
            "kmax": cfg.kmax,
            "sample_points": pts,
        }
        workdir.mkdir(parents=True, exist_ok=True)
        config = workdir / "config.json"
        config.write_text(json.dumps(doc))
        return {
            "expected": minkowski.build_system(cfg),
            "config": str(config),
            "system": str(workdir / "system.json"),
            "out": str(workdir / "reports"),
            "nproc": nproc,
        }

    def run(self, state: dict) -> dict:
        stdout = _stdio.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = [
                cli.main(["generate", "--config", state["config"], "--out", state["system"]]),
                cli.main(["validate", "--system", state["system"]]),
                cli.main(
                    ["classify", "--system", state["system"], "--out", state["out"],
                     "--workers", str(state["nproc"])]
                ),
            ]
        return {"codes": codes, "stdout": stdout.getvalue()}

    def work(self, state: dict) -> int:
        return self.n_points

    def digest(self, state: dict, out: dict) -> dict:
        csv = (Path(state["out"]) / "classification.csv").read_text()
        validated = [l for l in out["stdout"].splitlines() if l.startswith("ok:")]
        return {"classification_csv": _sha(csv), "validate": validated}

    def verify(self, state: dict, out: dict) -> list[str]:
        problems = []
        if out["codes"] != [0, 0, 0]:
            problems.append(f"exit codes {out['codes']} (generate, validate, classify)")
        got = cfs_io.read_system(state["system"])
        want = state["expected"]
        if (got.n, got.f, got.ids) != (want.n, want.f, want.ids):
            problems.append("read_system: shape or ids differ from the generated system")
        elif not all(
            a.weight == b.weight and np.array_equal(a.op.matrix, b.op.matrix)
            for a, b in zip(got.points, want.points)
        ):
            problems.append("write_system -> read_system round trip is not bit-exact")
        return problems


class CausalOrder:
    """Causal graph, Lorentzian distances, order and lattices of a Dirac sea.

    On this 5^3 momentum lattice a pair classifies as timelike when its
    points are closer than about 0.33 in space, whatever their time
    separation up to 0.6, and the time-direction functional orients it
    whenever their spatial positions differ.  The points sit on a 4 x 3 x 3
    spatial grid of spacing 0.3 at three time levels 0.2 apart, each site
    delayed by 0.005 per site index, and the seed shifts every point by at
    most 0.005 per axis: grid neighbours along an axis are related and
    diagonal ones are not, the same site one level apart falls below the
    length window and two levels apart inside it.  So every seed gives the
    same causal graph, and a pass costs the same, while the distances move
    with the seed.  Sites of one checkerboard colour are mutually unrelated:
    sub-systems drawn from such an antichain have 2^k closed sets, random
    ones 12 to 1024 over the recorded variants.  Bound by ``causal``.
    """

    name = "causal_order"
    window = causal.LengthScales(2.15, 2.7)
    # (number of points, drawn from): tens to ~10^5 closed sets
    lattices = ((8, "all"), (12, "all"), (10, "antichain"), (16, "antichain"))

    def setup(self, seed: int, nproc: int, workdir: Path) -> dict:
        rng = _rng(seed, 3)
        h = 0.3
        sites = list(itertools.product((-1.5, -0.5, 0.5, 1.5), (-1, 0, 1), (-1, 0, 1)))
        pts, antichain = [], []
        for level, t in enumerate((-0.2, 0.0, 0.2)):
            for s, (i, j, k) in enumerate(sites):
                if level == 1 and int(i + 1.5 + j + k) % 2 == 0:
                    antichain.append(len(pts))
                shift = rng.uniform(-0.005, 0.005, 3)
                pts.append((t + 0.005 * s, h * i + shift[0], h * j + shift[1], h * k + shift[2]))
        sea = minkowski.build_system(_sea_config(pts))
        subs = []
        for size, pool in self.lattices:
            drawn = np.arange(len(pts)) if pool == "all" else np.array(antichain)
            idx = sorted(int(i) for i in rng.choice(drawn, size, replace=False))
            subs.append(
                CausalFermionSystem(
                    sea.n,
                    [(sea.points[i].id, 1.0, sea.points[i].op) for i in idx],
                    tolerances=sea.tolerances,
                    metadata=sea.metadata,
                )
            )
        return {"sea": sea, "subs": subs, "nproc": nproc}

    def run(self, state: dict) -> dict:
        sea, nproc, scales = state["sea"], state["nproc"], self.window
        tol = sea.tolerances
        graph = causal.build_causal_graph(sea, scales, workers=nproc)
        dmat = causal.distance_matrix(graph)
        texts = {
            "distances": reports.distance_csv(graph.ids, dmat, tol, scales),
            "order": reports.order_csv(graph.ids, dmat, tol),
            "dot": reports.dot_graph(graph, tol),
        }
        lattices = [
            causal.enumerate_lattice(causal.build_causal_graph(sub, scales, workers=nproc), max_points=20)
            for sub in state["subs"]
        ]
        return {"graph": graph, "dmat": dmat, "texts": texts, "lattices": lattices}

    def work(self, state: dict) -> int:
        return len(state["sea"]) ** 2

    def digest(self, state: dict, out: dict) -> dict:
        graph, dmat = out["graph"], out["dmat"]
        finite = np.isfinite(dmat)
        weights = np.random.default_rng(0).uniform(0.5, 1.5, dmat.shape)
        return {
            "edges": _sha(json.dumps(sorted((u, v) for u, v, _ in graph.edges()))),
            "order": _sha(dmat > 0),
            "infinite": int(np.count_nonzero(~finite)),
            "distance_sum": float(dmat[finite].sum()),
            "distance_weighted_sum": float((dmat[finite] * weights[finite]).sum()),
            "closed_sets": [len(sets) for sets in out["lattices"]],
            "lattices": [_sha(json.dumps(sets)) for sets in out["lattices"]],
        }

    def verify(self, state: dict, out: dict) -> list[str]:
        problems = []
        graph, dmat, texts = out["graph"], out["dmat"], out["texts"]
        rows = [l.split(",") for l in texts["distances"].splitlines() if not l.startswith("#")]
        parsed = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        if rows[0][1:] != list(graph.ids) or not np.array_equal(parsed, dmat):
            problems.append("distances.csv does not parse back to the distance matrix")
        rows = [l.split(",") for l in texts["order"].splitlines() if not l.startswith("#")]
        order = np.array([[v == "1" for v in r[1:]] for r in rows[1:]])
        if not np.array_equal(order, (dmat > 0) | np.eye(len(graph), dtype=bool)):
            problems.append("order.csv disagrees with the distance matrix")
        arrows = [l for l in texts["dot"].splitlines() if " -> " in l]
        if len(arrows) != graph.n_edges:
            problems.append("graph.dot does not list every edge once")
        return problems


class SpinTransport:
    """Flat-space transport study plus spliced transport and holonomy on a path.

    ``transport_study`` scans the connection phase on every segment (the
    hinted metric connection), while ``compose_transport`` and ``holonomy``
    use the default phase with Clifford-frame splices, so ``spin`` is
    exercised both ways.  Bound by ``spin``.
    """

    name = "spin_transport"
    eps_list, refine_list = (4e-3, 2e-3), (4,)
    path_points = 9

    def setup(self, seed: int, nproc: int, workdir: Path) -> dict:
        rng = _rng(seed, 4)
        pts = [
            (0.075 * k + rng.uniform(-0.005, 0.005), *rng.uniform(-0.01, 0.01, 3))
            for k in range(self.path_points)
        ]
        return {
            "base": _sea_config(((0.0, 0.0, 0.0, 0.0),)),
            "duration": float(rng.uniform(0.5, 0.7)),
            "path": minkowski.build_system(_sea_config(pts)),
        }

    def run(self, state: dict) -> dict:
        rows = minkowski.transport_study(
            state["base"], self.eps_list, self.refine_list, duration=state["duration"]
        )
        system = state["path"]
        ids = list(system.ids)
        provider = minkowski.clifford_provider(system)
        total, records = spin.compose_transport(system, ids, provider)
        holonomies = [
            spin.holonomy(system, *ids[k : k + 3], clifford_provider=provider)
            for k in range(len(ids) - 2)
        ]
        return {"rows": rows, "total": total, "records": records, "holonomies": holonomies}

    def work(self, state: dict) -> int:
        # connection segments composed: both transports of every study row,
        # the path's segments, three per triangle
        study = 2 * len(self.eps_list) * sum(self.refine_list)
        return study + (self.path_points - 1) + 3 * (self.path_points - 2)

    def digest(self, state: dict, out: dict) -> dict:
        eye = np.eye(out["total"].shape[0])
        return {
            "study": [
                [r["spin_deviation"], r["frame_deviation"], r["max_segment_residual"]]
                for r in out["rows"]
            ],
            "phis": [r["phi"] for r in out["records"]],
            "composite": [
                float(np.linalg.norm(out["total"])),
                float(abs(np.trace(out["total"]))),
            ],
            "holonomy_identity_distance": [
                float(np.linalg.norm(h - eye)) for h in out["holonomies"]
            ],
        }

    def verify(self, state: dict, out: dict) -> list[str]:
        values = [out["total"], *out["holonomies"]]
        if not all(np.all(np.isfinite(v)) for v in values):
            return ["non-finite transport matrix"]
        return []


WORKLOADS = {w.name: w for w in (DenseClassify(), SeaRoundtrip(), CausalOrder(), SpinTransport())}


def compare(workload: str, got: dict, want: dict) -> list[str]:
    """Differences between a pass digest and the recorded reference."""
    rtol, tolerant = TOLERANT.get(workload, (0.0, set()))
    problems = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if key in tolerant and a is not None and b is not None:
            a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            scale = np.maximum(np.abs(a_arr), np.abs(b_arr)) if a_arr.shape == b_arr.shape else 0
            ok = a_arr.shape == b_arr.shape and bool(np.all(np.abs(a_arr - b_arr) <= rtol * scale + ATOL))
        else:
            ok = a == b
        if not ok:
            problems.append(f"{key}: got {a!r}, reference {b!r}")
    return problems
