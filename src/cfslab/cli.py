"""Command-line interface: generation, reports, and validation.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numeric
failure.  Reports are written into an output directory with fixed names and
are byte-identical for identical inputs regardless of the count of worker
threads the pair analysis runs on (override via --workers or the
CFSLAB_WORKERS environment variable).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import causal, minkowski, reports, spin
from .core import CausalFermionSystem, OperatorPoint, Tolerances
from .errors import CfsError, ValidationError
from .io import read_system, write_system
from .pairs import PairEngine

__all__ = ["main"]


def _with_tolerances(system: CausalFermionSystem, args) -> CausalFermionSystem:
    """Apply the tolerance flags that were given over the file's own block."""
    names = ("eig_rel", "imag_rel", "zero_abs")
    given = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    tol = dataclasses.replace(system.tolerances, **given)
    if tol == system.tolerances:
        return system
    ops = [e.op for e in system.points]
    if tol.zero_abs != system.tolerances.zero_abs:
        # ranks are decided by zero_abs when a point is built
        ops = [OperatorPoint.with_rank_bound(op.matrix, 2 * system.n, tol) for op in ops]
    return CausalFermionSystem(
        system.n,
        [(e.id, e.weight, op) for e, op in zip(system.points, ops)],
        tolerances=tol,
        metadata=system.metadata,
    )


def _add_tol_flags(p: argparse.ArgumentParser):
    """Tolerance overrides; a flag not given keeps the system file's value."""
    p.add_argument("--eig-rel", type=float)
    p.add_argument("--imag-rel", type=float)
    p.add_argument("--zero-abs", type=float)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _minkowski_config(doc: dict) -> minkowski.MinkowskiConfig:
    known = {
        "mass",
        "eps",
        "torus_radius",
        "kmax",
        "sample_points",
        "weights",
        "max_f",
    }
    extra = set(doc) - known - {"kind"}
    if extra:
        raise ValidationError(f"unknown config fields: {sorted(extra)}")
    doc = dict(doc)
    doc.pop("kind", None)
    if "sample_points" in doc:
        doc["sample_points"] = tuple(tuple(p) for p in doc["sample_points"])
    if doc.get("weights") is not None:
        doc["weights"] = tuple(doc["weights"])
    return minkowski.MinkowskiConfig(**doc)


def cmd_generate(args) -> int:
    doc = _load_config(args.config)
    kind = doc.get("kind", "minkowski")
    if kind == "minkowski":
        system = minkowski.build_system(_minkowski_config(doc))
    elif kind == "mixture":
        comps = [minkowski.build_system(_minkowski_config(c)) for c in doc["components"]]
        spec = minkowski.MixtureSpec(tuple(comps), tuple(doc["weights"]))
        system = minkowski.mix_systems(spec)
    else:
        raise ValidationError(f"unknown generator kind {kind!r}")
    write_system(system, args.out)
    print(f"wrote {args.out}: n={system.n} f={system.f} points={len(system)}")
    return 0


def cmd_classify(args) -> int:
    system = _with_tolerances(read_system(args.system), args)
    analysis = PairEngine(system, workers=args.workers).analyze()
    out = _outdir(args)
    text = reports.classification_csv(analysis, include_diagonal=args.include_diagonal)
    (out / "classification.csv").write_text(text)
    print(f"wrote {out / 'classification.csv'} ({len(system)} points)")
    return 0


def cmd_distance(args) -> int:
    system = _with_tolerances(read_system(args.system), args)
    scales = causal.LengthScales(args.lmin, args.lmax)
    graph = causal.build_causal_graph(system, scales, workers=args.workers)
    dmat = causal.distance_matrix(graph)
    out = _outdir(args)
    (out / "graph.dot").write_text(reports.dot_graph(graph, system.tolerances))
    (out / "distances.csv").write_text(
        reports.distance_csv(graph.ids, dmat, system.tolerances, scales)
    )
    (out / "order.csv").write_text(
        reports.order_csv(graph.ids, dmat, system.tolerances)
    )
    print(
        f"wrote graph.dot, distances.csv, order.csv in {out} "
        f"({graph.n_edges} edges)"
    )
    return 0


def cmd_lattice(args) -> int:
    system = _with_tolerances(read_system(args.system), args)
    scales = causal.LengthScales(args.lmin, args.lmax)
    graph = causal.build_causal_graph(system, scales, workers=args.workers)
    sets = causal.enumerate_lattice(graph, max_points=args.max_points)
    out = _outdir(args)
    (out / "lattice.json").write_text(
        reports.lattice_json(sets, system.tolerances)
    )
    print(f"wrote {out / 'lattice.json'} ({len(sets)} closed sets)")
    return 0


def _provider_if_minkowski(system):
    if system.metadata.get("generator") == "minkowski":
        return minkowski.clifford_provider(system)
    return None


def cmd_connect(args) -> int:
    system = _with_tolerances(read_system(args.system), args)
    path = args.path.split(",")
    provider = _provider_if_minkowski(system)
    total, records = spin.compose_transport(system, path, provider)
    out = _outdir(args)
    extras = {"path": path, "splices": provider is not None}
    (out / "connection.json").write_text(
        reports.connection_json(records, system.tolerances, total, extras)
    )
    print(f"wrote {out / 'connection.json'} ({len(records)} segments)")
    return 0


def cmd_holonomy(args) -> int:
    system = _with_tolerances(read_system(args.system), args)
    ids = args.triangle.split(",")
    if len(ids) != 3:
        raise ValidationError("--triangle needs exactly three ids")
    provider = _provider_if_minkowski(system)
    hol = spin.holonomy(system, *ids, clifford_provider=provider)
    gram = system.spin_space(ids[0]).gram_diag
    defect = spin.spin_adjoint(hol, gram, gram) @ hol - np.eye(hol.shape[0])
    extras = {
        "triangle": ids,
        "unitarity": float(np.linalg.norm(defect)),
        "identity_distance": float(np.linalg.norm(hol - np.eye(hol.shape[0]))),
    }
    out = _outdir(args)
    (out / "holonomy.json").write_text(
        reports.connection_json([], system.tolerances, hol, extras)
    )
    print(f"wrote {out / 'holonomy.json'}")
    return 0


def cmd_converge(args) -> int:
    doc = _load_config(args.config)
    cfg = _minkowski_config({**doc, "sample_points": ((0.0, 0.0, 0.0, 0.0),)})
    eps_list = [float(v) for v in args.eps_list.split(",")]
    refine_list = [int(v) for v in args.refine_list.split(",")]
    rows = minkowski.transport_study(
        cfg, eps_list, refine_list, duration=args.duration
    )
    out = _outdir(args)
    (out / "convergence.csv").write_text(
        reports.convergence_csv(rows, Tolerances())
    )
    print(f"wrote {out / 'convergence.csv'} ({len(rows)} rows)")
    return 0


def cmd_validate(args) -> int:
    system = _with_tolerances(read_system(args.system), args)
    failures = validate_system(system)
    for msg in failures:
        print(f"violation: {msg}")
    if failures:
        return 1
    print(f"ok: {len(system)} points, n={system.n}, f={system.f}")
    return 0


def validate_system(system: CausalFermionSystem) -> list[str]:
    """Invariant suite over points and pairs; returns human-readable violations.

    Each point's image basis and nonzero eigenvalues must reproduce its
    matrix within ``cut * sqrt(f) + 1e-12 * ||A||_F``: every eigenvalue they
    leave out is at most the cut.  Each ordered pair is computed on its own:
    the pair kernel runs once on the system and once on its points in
    reverse order, so for i < j the reversed run evaluates (x_j, x_i) where
    the first evaluates (x_i, x_j).
    """
    failures = []
    for e in system.points:
        op = e.op
        b = op.image_basis()
        defect = np.linalg.norm(op.matrix - (b * op.nonzero_eigenvalues()) @ b.conj().T)
        cut = system.tolerances.zero_abs * max(1.0, op.spectral_radius)
        if not defect <= cut * np.sqrt(op.f) + 1e-12 * np.linalg.norm(op.matrix):
            failures.append(
                f"point {e.id}: image basis and eigenvalues miss the matrix ({defect:.3e})"
            )
    engine = PairEngine(system)
    fwd = engine.analyze()
    points = [(e.id, e.weight, e.op) for e in reversed(system.points)]
    back = PairEngine(CausalFermionSystem(system.n, points, system.tolerances)).analyze()
    c_sum = fwd.cvals - back.cvals[::-1, ::-1]  # C(x_i, x_j) + C(x_j, x_i)
    antisym = np.abs(c_sum) > 1e-12 * np.maximum(1.0, np.abs(fwd.cvals))
    asym = fwd.codes != back.codes[::-1, ::-1]
    adjoint = engine.kernel_adjointness() > 1e-12
    ids = system.ids
    for i, j in zip(*np.nonzero(np.triu(antisym | asym, 1) | adjoint)):
        pair = f"pair ({ids[i]},{ids[j]})"
        if antisym[i, j]:
            failures.append(f"{pair}: antisymmetry defect {c_sum[i, j]:.3e}")
        if asym[i, j]:
            failures.append(f"{pair}: classification asymmetry")
        if adjoint[i, j]:
            failures.append(f"{pair}: kernel adjointness defect")
    return failures


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfslab",
        description="finite causal fermion systems: build, classify, measure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a system from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("classify", help="full causal classification matrix")
    p.add_argument("--system", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--include-diagonal", action="store_true")
    p.add_argument("--workers", type=int, default=None)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("distance", help="causal graph, distances, order")
    p.add_argument("--system", required=True)
    p.add_argument("--lmin", type=float, required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=int, default=None)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("lattice", help="orthogonality lattice")
    p.add_argument("--system", required=True)
    p.add_argument("--lmin", type=float, required=True)
    p.add_argument("--lmax", type=float, required=True)
    p.add_argument("--max-points", type=int, default=20)
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=int, default=None)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("connect", help="composed spin connections along a path")
    p.add_argument("--system", required=True)
    p.add_argument("--path", required=True, help="comma-separated point ids")
    p.add_argument("--out", default=".")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("holonomy", help="spin holonomy around a triangle")
    p.add_argument("--system", required=True)
    p.add_argument("--triangle", required=True, help="three comma-separated ids")
    p.add_argument("--out", default=".")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("converge", help="flat-space transport convergence table")
    p.add_argument("--config", required=True)
    p.add_argument("--eps-list", required=True)
    p.add_argument("--refine-list", required=True)
    p.add_argument("--duration", type=float, default=0.6)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("validate", help="run the invariant suite on a system")
    p.add_argument("--system", required=True)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow and invalid values end in a finiteness check or a LAPACK
        # error, reported below in one line; numpy's floating-point warnings,
        # raised in the pair analysis's worker threads too, would precede it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CfsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
