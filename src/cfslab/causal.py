"""Lorentzian length space, causal-set order, and orthogonality lattice.

A finite system induces a weighted digraph: an edge points from one point to
a second one when the pair is timelike, the second lies in the future of the
first, and the pair's length functional falls inside a chosen window.  The
Lorentzian distance is the supremum of chain lengths.  One sweep over the
condensation of strongly connected components, in topological order, finds
the longest walk between every pair of points (any cycle on the way forces
an infinite supremum because all edge weights are positive); every distance
and order query reads that matrix.  From the distance derive a reflexive
transitive order, an orthogonality relation, and the lattice of
biorthogonally closed sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .core import (
    CausalFermionSystem,
    OperatorPoint,
    Tolerances,
    classify,
    CausalClass,
    product_spectrum,
    time_direction,
)
from .errors import ValidationError
from .pairs import PairEngine

__all__ = [
    "CausalGraph",
    "LengthScales",
    "build_causal_graph",
    "distance_matrix",
    "ell",
    "enumerate_lattice",
    "lorentzian_distance",
    "ortho_complement",
    "partial_order",
    "tangent_cone_histogram",
]


@dataclass(frozen=True)
class LengthScales:
    """Window (l_min, l_max) for the length functional, strict at both ends."""

    l_min: float
    l_max: float

    def __post_init__(self):
        if not (0 < self.l_min < self.l_max):
            raise ValidationError("need 0 < l_min < l_max")

    def windowed(self, value: float) -> float:
        return value if self.l_min < value < self.l_max else 0.0


def _product_magnitude(x: OperatorPoint, y: OperatorPoint, norm: str) -> float:
    if norm == "spectral":
        n = max(x.pos_eigs, x.neg_eigs, y.pos_eigs, y.neg_eigs, 1)
        return float(np.abs(product_spectrum(x, y, n)).max())
    if norm == "operator":
        # ||xy||_2 through the rank structure: right-multiplying by the
        # orthonormal basis of image(y) preserves singular values.
        m = (x.matrix @ y.image_basis()) * y.nonzero_eigenvalues()[None, :]
        sv = np.linalg.svd(m, compute_uv=False)
        return float(sv.max(initial=0.0))
    raise ValidationError(f"unknown norm {norm!r}")


def ell(
    x: OperatorPoint,
    y: OperatorPoint,
    scales: LengthScales,
    norm: str = "spectral",
) -> float:
    """Length functional: |xy|^(-1/6) windowed to (l_min, l_max), else 0.

    ``|xy|`` is the spectral radius of the product by default; the operator
    norm is available behind ``norm="operator"`` for comparison studies.  A
    vanishing product (infinite nominal length) returns 0.
    """
    mag = _product_magnitude(x, y, norm)
    if mag <= 0.0:
        return 0.0
    return scales.windowed(mag ** (-1.0 / 6.0))


class CausalGraph:
    """Weighted digraph of future-directed timelike relations.

    Vertices are point ids in system order; an edge ``u -> v`` carries the
    window value of the length functional.  The strongly-connected-component
    condensation and the matrix of longest walks are computed once and
    cached; every distance and order query reads that matrix.
    """

    def __init__(self, ids, edges):
        self.ids = tuple(ids)
        self._index = {pid: k for k, pid in enumerate(self.ids)}
        n = len(self.ids)
        self.adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self.weights: dict[tuple[int, int], float] = {}
        for (u, v), w in edges.items():
            self.adj[u].append((v, w))
            self.weights[(u, v)] = w
        for lst in self.adj:
            lst.sort()
        self._scc = None
        self._longest = None
        self._reach = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.weights)

    def index(self, pid: str) -> int:
        return self._index[pid]

    def edges(self):
        """Edges as (u_id, v_id, weight), deterministic order."""
        for u in range(len(self.ids)):
            for v, w in self.adj[u]:
                yield self.ids[u], self.ids[v], w

    def scc_labels(self) -> np.ndarray:
        """Strongly-connected-component label per vertex (cached)."""
        if self._scc is None:
            n = len(self.ids)
            if self.weights:
                rows, cols = zip(*self.weights.keys())
                mat = csr_matrix(
                    (np.ones(len(rows)), (rows, cols)), shape=(n, n)
                )
            else:
                mat = csr_matrix((n, n))
            _, labels = connected_components(
                mat, directed=True, connection="strong"
            )
            self._scc = labels
        return self._scc

    def cyclic_vertices(self) -> np.ndarray:
        """Boolean mask of vertices on a cycle: in a nontrivial component or
        carrying a self-loop."""
        labels = self.scc_labels()
        counts = np.bincount(labels, minlength=labels.max(initial=0) + 1)
        cyclic = counts[labels] > 1
        cyclic[[u for u, v in self.weights if u == v]] = True
        return cyclic

    def longest_walks(self) -> np.ndarray:
        """Matrix L of longest walks with >= 1 edge (cached).

        ``L[u, v]`` is -inf when no such walk leads from u to v, inf when
        one meets a cycle, and the longest path length otherwise.  One sweep
        visits the condensation in topological order and, per edge, updates
        the target's column for all sources at once.
        """
        if self._longest is None:
            n = len(self.ids)
            labels = self.scc_labels().tolist()
            cyclic = self.cyclic_vertices()
            members = [[] for _ in range(max(labels, default=-1) + 1)]
            for v, c in enumerate(labels):
                members[c].append(v)
            succ = [set() for _ in members]
            indeg = [0] * len(members)
            for u, v in self.weights:
                cu, cv = labels[u], labels[v]
                if cu != cv and cv not in succ[cu]:
                    succ[cu].add(cv)
                    indeg[cv] += 1
            order = [c for c, d in enumerate(indeg) if d == 0]
            for c in order:  # Kahn: the list grows while it is walked
                for t in succ[c]:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        order.append(t)
            longest = np.full((n, n), -math.inf)
            for c in order:
                vs = members[c]
                if cyclic[vs[0]]:
                    # every walk into or inside the component can loop
                    src = (longest[:, vs] > -math.inf).any(axis=1)
                    src[vs] = True
                    longest[np.ix_(src, vs)] = math.inf
                for w in vs:
                    start = longest[:, w].copy()
                    start[w] = max(start[w], 0.0)
                    for t, weight in self.adj[w]:
                        np.maximum(longest[:, t], start + weight, out=longest[:, t])
            self._longest = longest
        return self._longest

    def reachable(self) -> np.ndarray:
        """Boolean matrix R with R[u, v] true iff a walk with >= 1 edge exists."""
        if self._reach is None:
            self._reach = self.longest_walks() > -math.inf
        return self._reach


def build_causal_graph(
    system: CausalFermionSystem,
    scales: LengthScales,
    tol: Tolerances | None = None,
    workers=None,
) -> CausalGraph:
    """Causal graph of a system: edge u -> v iff the pair is timelike, v lies
    in the future of u, and the length functional is inside the window.

    Regular systems go through the batched pair engine; singular systems
    fall back to per-pair evaluation.
    """
    tol = tol or system.tolerances
    md = system.metadata
    eps, mass = md.get("eps"), md.get("mass")
    if eps is not None and scales.l_min <= eps:
        warnings.warn("l_min does not exceed the regularization length", stacklevel=2)
    if mass and scales.l_max >= 1.0 / mass:
        warnings.warn("l_max reaches the Compton scale 1/m", stacklevel=2)

    n = len(system)
    edges = {}
    if system.is_regular():
        res = PairEngine(system, workers=workers).analyze()
        timelike = res.codes == 1
        future = res.orientation == 1
        with np.errstate(divide="ignore"):
            nominal = np.where(res.specrad > 0, res.specrad ** (-1.0 / 6.0), 0.0)
        inside = (scales.l_min < nominal) & (nominal < scales.l_max)
        for u, v in zip(*np.nonzero(timelike & future & inside)):
            edges[(int(u), int(v))] = float(nominal[u, v])
    else:
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                x, y = system.points[u].op, system.points[v].op
                if classify(x, y, tol, n=system.n) is not CausalClass.TIMELIKE:
                    continue
                c = time_direction(x, y)
                if c <= tol.imag_rel * x.spectral_radius * y.spectral_radius:
                    continue
                w = ell(x, y, scales)
                if w > 0:
                    edges[(u, v)] = w
    return CausalGraph(system.ids, edges)


def lorentzian_distance(x_id: str, y_id: str, graph: CausalGraph) -> float:
    """Supremum of chain lengths from x to y.

    Zero when no chain exists (in particular for x == y without a cycle
    through x); infinite iff some walk from x to y meets a cycle, since
    every cycle has positive weight.  Otherwise the supremum is attained on
    a simple path.  Reads :meth:`CausalGraph.longest_walks`.
    """
    u, v = graph.index(x_id), graph.index(y_id)
    return max(float(graph.longest_walks()[u, v]), 0.0)


def distance_matrix(graph: CausalGraph) -> np.ndarray:
    """All-pairs Lorentzian distances; inf encodes unbounded chains."""
    walks = graph.longest_walks()
    return np.where(walks > 0, walks, 0.0)


def partial_order(x_id: str, y_id: str, graph: CausalGraph) -> bool:
    """Reflexive transitive order: x <= y iff x == y or d(x, y) > 0.

    Positivity of the distance is equivalent to reachability because every
    edge weight is positive; antisymmetry can fail on cyclic graphs.
    """
    if x_id == y_id:
        return True
    return bool(graph.reachable()[graph.index(x_id), graph.index(y_id)])


def _incomparability_masks(graph: CausalGraph) -> list[int]:
    """Bitmask of points orthogonal to each point (neither precedes the other)."""
    reach = graph.reachable()
    incomparable = ~(reach | reach.T | np.eye(len(graph), dtype=bool))
    return [sum(1 << v for v in np.flatnonzero(row).tolist()) for row in incomparable]


def ortho_complement(a_ids, graph: CausalGraph) -> set:
    """Set of points orthogonal to every member of ``a_ids``."""
    masks = _incomparability_masks(graph)
    full = (1 << len(graph)) - 1
    acc = full
    for pid in a_ids:
        acc &= masks[graph.index(pid)]
    return {graph.ids[v] for v in range(len(graph)) if acc >> v & 1}


def enumerate_lattice(graph: CausalGraph, max_points: int = 20) -> list:
    """All biorthogonally closed subsets, as id tuples in point order.

    Closed sets are exactly the complements of arbitrary subsets, i.e. the
    intersections of single-point complements together with the full set, so
    the enumeration is closure-driven rather than a scan of the power set.
    Ordered by (size, id tuple) for deterministic reports, with ids compared
    as strings; at most 63 points, so that every set fits one int64 mask.
    """
    n = len(graph)
    if n > min(max_points, 63):
        raise ValidationError(
            f"system has {n} points, more than max_points = {max_points} or 63"
        )
    masks = _incomparability_masks(graph)
    full = (1 << n) - 1
    closed = {full}
    for m in masks:
        closed |= {c & m for c in closed}
    # the empty set is always closed (its double complement is empty because
    # no point is orthogonal to itself)
    closed.add(0)
    bits = np.fromiter(closed, dtype=np.int64, count=len(closed))
    # key[k] is the string rank of each set's k-th member in point order
    rank = np.empty(n, dtype=np.int8)
    rank[sorted(range(n), key=graph.ids.__getitem__)] = np.arange(n)
    size = np.zeros(len(bits), dtype=np.int8)
    key = np.zeros((n, len(bits)), dtype=np.int8)
    for v in range(n):
        has = (bits >> v & 1).astype(bool)
        key[size[has], has] = rank[v]
        size += has
    bits = bits[np.lexsort((*key[::-1], size))]

    def unpack(b):
        return tuple(graph.ids[v] for v in range(n) if b >> v & 1)

    # each tuple is the concatenation of its low and high halves
    h = n // 2
    low = (1 << h) - 1
    lo = {b: unpack(b) for b in np.unique(bits & low).tolist()}
    hi = {b: unpack(b << h) for b in np.unique(bits >> h).tolist()}
    return [lo[b & low] + hi[b >> h] for b in bits.tolist()]


def tangent_cone_histogram(
    system: CausalFermionSystem,
    x_id: str,
    delta: float,
    bins,
) -> np.ndarray:
    """Weighted conical histogram of the local operator geometry at a point.

    Every point y of the system within operator-norm distance ``delta`` of x
    is mapped to the spin-space operator ``pi_x (y - x) x`` (a symmetric
    operator for the spin scalar product); its measure weight is assigned to
    every bin whose predicate accepts the image.  Masses are normalized by
    the measure of the ball.  Bin predicates must be scale-invariant (accept
    ``t A`` for all t > 0 whenever they accept ``A``) to qualify as conical.
    """
    if delta <= 0:
        raise ValidationError("delta must be positive")
    x = system.point(x_id)
    bx = x.image_basis()
    lam = x.nonzero_eigenvalues()
    masses = np.zeros(len(bins))
    total = 0.0
    for entry in system.points:
        diff = entry.op.matrix - x.matrix
        if np.linalg.norm(diff, ord=2) >= delta:
            continue
        total += entry.weight
        image = (bx.conj().T @ diff @ bx) * lam[None, :]
        for b, predicate in enumerate(bins):
            if predicate(image):
                masses[b] += entry.weight
    if total <= 0:
        raise ValidationError(f"the ball of radius {delta} around {x_id!r} has measure zero")
    return masses / total
