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
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import causal, minkowski, reports, spin
from .core import CausalFermionSystem, Tolerances
from .errors import CfsError, ValidationError
from .io import read_system, write_system
from .pairs import PairEngine

__all__ = ["main"]


_TOLERANCES = tuple(field.name for field in dataclasses.fields(Tolerances))


def _load(args) -> CausalFermionSystem:
    """The --system file, read with the tolerance flags that were given."""
    return read_system(args.system, **{k: getattr(args, k) for k in _TOLERANCES})


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ValidationError("a config must be a JSON object")
    return doc


def _tuples(value):
    """JSON lists as tuples, nested lists included."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _minkowski_config(doc: dict) -> minkowski.MinkowskiConfig:
    if not isinstance(doc, dict):
        raise ValidationError("a Minkowski config must be a JSON object")
    known = {field.name for field in dataclasses.fields(minkowski.MinkowskiConfig)}
    extra = set(doc) - known - {"kind"}
    if extra:
        raise ValidationError(f"unknown config fields: {sorted(extra)}")
    if doc.get("kind", "minkowski") != "minkowski":
        raise ValidationError(f"expected a Minkowski config, got kind {doc['kind']!r}")
    doc = {k: _tuples(v) for k, v in doc.items() if k != "kind"}
    return minkowski.MinkowskiConfig(**doc)


def cmd_generate(args) -> int:
    doc = _load_config(args.config)
    kind = doc.get("kind", "minkowski")
    if kind == "minkowski":
        system = minkowski._translated_system(_minkowski_config(doc))
    elif kind == "mixture":
        if not all(isinstance(doc.get(k), list) for k in ("components", "weights")):
            raise ValidationError("a mixture config needs lists 'components' and 'weights'")
        comps = [
            minkowski._translated_system(_minkowski_config(c)) for c in doc["components"]
        ]
        spec = minkowski.MixtureSpec(tuple(comps), tuple(doc["weights"]))
        system = minkowski.mix_systems(spec)
    else:
        raise ValidationError(f"unknown generator kind {kind!r}")
    write_system(system, args.out)
    print(f"wrote {args.out}: n={system.n} f={system.f} points={len(system)}")
    return 0


def cmd_classify(args) -> int:
    system = _load(args)
    analysis = PairEngine(system, workers=args.workers).analyze()
    out = _outdir(args)
    text = reports.classification_csv(analysis, include_diagonal=args.include_diagonal)
    (out / "classification.csv").write_text(text)
    print(f"wrote {out / 'classification.csv'} ({len(system)} points)")
    return 0


def _causal_graph(args):
    """The --system file, its length scales and its causal graph."""
    system = _load(args)
    scales = causal.LengthScales(args.lmin, args.lmax)
    return system, scales, causal.build_causal_graph(system, scales, workers=args.workers)


def cmd_distance(args) -> int:
    system, scales, graph = _causal_graph(args)
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
    system, _, graph = _causal_graph(args)
    sets = causal.enumerate_lattice(graph, max_points=args.max_points)
    out = _outdir(args)
    (out / "lattice.json").write_text(
        reports.lattice_json(sets, system.tolerances)
    )
    print(f"wrote {out / 'lattice.json'} ({len(sets)} closed sets)")
    return 0


def _known_ids(system, ids: list) -> list:
    unknown = [pid for pid in ids if pid not in system.ids]
    if unknown:
        raise ValidationError(f"unknown point ids: {unknown}")
    return ids


def _provider_if_minkowski(system):
    if system.metadata.get("generator") == "minkowski":
        return minkowski.clifford_provider(system)
    return None


def cmd_connect(args) -> int:
    system = _load(args)
    path = _known_ids(system, args.path.split(","))
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
    system = _load(args)
    ids = _known_ids(system, args.triangle.split(","))
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
    rows = minkowski.transport_study(
        cfg, args.eps_list, args.refine_list, duration=args.duration
    )
    out = _outdir(args)
    (out / "convergence.csv").write_text(
        reports.convergence_csv(rows, Tolerances())
    )
    print(f"wrote {out / 'convergence.csv'} ({len(rows)} rows)")
    return 0


def cmd_validate(args) -> int:
    system = _load(args)
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
    leave out is at most the cut.  Each ordered pair is computed on its own,
    from its own overlap, in one pass over the pair matrix.
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
    cvals, codes, adjointness = PairEngine(system).both_orders()
    c_sum = cvals + cvals.T  # C(x_i, x_j) + C(x_j, x_i)
    antisym = np.abs(c_sum) > 1e-12 * np.maximum(1.0, np.abs(cvals))
    asym = codes != codes.T
    adjoint = adjointness > 1e-12
    ids = system.ids
    for i, j in zip(*np.nonzero(np.triu(antisym | asym | adjoint, 1))):
        pair = f"pair ({ids[i]},{ids[j]})"
        if antisym[i, j]:
            failures.append(f"{pair}: antisymmetry defect {c_sum[i, j]:.3e}")
        if asym[i, j]:
            failures.append(f"{pair}: classification asymmetry")
        if adjoint[i, j]:
            failures.append(f"{pair}: kernel adjointness defect")
    return failures


def _positive(kind):
    """Argument type: one positive finite value of ``kind``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"value must be positive and finite: {text!r}")
        return value

    return parse


def _positive_list(kind):
    """Argument type: comma-separated positive finite values of ``kind``."""
    one = _positive(kind)
    return lambda text: [one(v) for v in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage text."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cfslab",
        description="finite causal fermion systems: build, classify, measure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by several commands
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--system", required=True)
    # tolerance overrides; a flag not given keeps the system file's value
    for name in _TOLERANCES:
        system.add_argument("--" + name.replace("_", "-"), type=float)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".")
    workers = argparse.ArgumentParser(add_help=False)
    workers.add_argument("--workers", type=_positive(int))
    scales = argparse.ArgumentParser(add_help=False)
    scales.add_argument("--lmin", type=float, required=True)
    scales.add_argument("--lmax", type=float, required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "build a system from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p = command(
        "classify", cmd_classify, "full causal classification matrix", system, out, workers
    )
    p.add_argument("--include-diagonal", action="store_true")
    command(
        "distance", cmd_distance, "causal graph, distances, order", system, scales, out, workers
    )
    p = command("lattice", cmd_lattice, "orthogonality lattice", system, scales, out, workers)
    p.add_argument("--max-points", type=_positive(int), default=20)
    p = command("connect", cmd_connect, "composed spin connections along a path", system, out)
    p.add_argument("--path", required=True, help="comma-separated point ids")
    p = command("holonomy", cmd_holonomy, "spin holonomy around a triangle", system, out)
    p.add_argument("--triangle", required=True, help="three comma-separated ids")
    p = command("converge", cmd_converge, "flat-space transport convergence table", out)
    p.add_argument("--config", required=True)
    p.add_argument("--eps-list", required=True, type=_positive_list(float))
    p.add_argument("--refine-list", required=True, type=_positive_list(int))
    p.add_argument("--duration", type=_positive(float), default=0.6)
    command("validate", cmd_validate, "run the invariant suite on a system", system)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a failure prints one line: warnings are recorded while the command
        # runs and shown only when it succeeds.  Overflow and invalid values
        # end in a finiteness check or a LAPACK error, so numpy's
        # floating-point warnings, raised in the pair analysis's worker
        # threads too, are dropped
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("ignore", RuntimeWarning)
            code = args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CfsError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return code


if __name__ == "__main__":
    sys.exit(main())
