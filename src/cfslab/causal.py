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
from graphlib import TopologicalSorter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .core import CausalFermionSystem, OperatorPoint, _pair
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

    def windowed(self, value):
        """``value`` strictly inside the window, else 0; elementwise, and a
        float for a float."""
        return np.where((self.l_min < value) & (value < self.l_max), value, 0.0)[()]


def _lengths(specrad, scales: LengthScales) -> np.ndarray:
    """Length functional of pairs from the spectral radii ``|xy|`` of their
    products, elementwise."""
    with np.errstate(divide="ignore"):
        return scales.windowed(np.where(specrad > 0, specrad ** (-1.0 / 6.0), 0.0))


def ell(x: OperatorPoint, y: OperatorPoint, scales: LengthScales) -> float:
    """Length functional: |xy|^(-1/6) windowed to (l_min, l_max), else 0.

    ``|xy|`` is the spectral radius of the product, from the pair routine
    of :mod:`cfslab.core`, and the arithmetic is that of
    :func:`build_causal_graph`: the weight of an edge between the i-th and
    the j-th point, i < j, is ``ell`` of the pair in that order, to the bit.
    A vanishing product (infinite nominal length) returns 0.
    """
    return float(_lengths(np.asarray(_pair(x, y)[4]), scales))


def _grouped(values, keys, k: int) -> list[list]:
    """``values`` split by their ``keys`` in 0..k-1, each group in order."""
    ends = np.cumsum(np.bincount(keys, minlength=k)).tolist()
    values = values[np.argsort(keys, kind="stable")].tolist()
    return [values[a:b] for a, b in zip([0, *ends], ends)]


class CausalGraph:
    """Weighted digraph of future-directed timelike relations.

    Vertices are point ids in system order; ``edges``, kept as ``weights``,
    maps index pairs ``(u, v)`` to the window value of the length functional
    on ``u -> v``.  Endpoints must be vertex indices, and weights positive
    and finite: the distance and the order rely on every walk having
    positive length.  Every edge, component and walk query reads one sparse
    matrix of the edges, each row in target order.  The matrix of longest
    walks is computed once and cached; every distance and order query, and
    the orthogonality complement of any number of points, reads it.
    """

    def __init__(self, ids, edges):
        self.ids = tuple(ids)
        self._index = {pid: k for k, pid in enumerate(self.ids)}
        n = len(self.ids)
        self.weights: dict[tuple[int, int], float] = dict(edges)
        ends = np.array(list(self.weights), dtype=np.int64).reshape(-1, 2)
        w = np.array(list(self.weights.values()), dtype=np.float64)
        if not np.all((w > 0) & (w < math.inf)):
            raise ValidationError("edge weights must be positive and finite")
        if not np.all((ends >= 0) & (ends < n)):
            raise ValidationError(f"edge endpoints must be vertex indices below {n}")
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        indptr = np.r_[0, np.cumsum(np.bincount(ends[:, 0], minlength=n))]
        self._matrix = csr_matrix((w[order], ends[order, 1], indptr), shape=(n, n))
        self._scc = None
        self._longest = None
        self._reach = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return self._matrix.nnz

    def index(self, pid: str) -> int:
        return self._index[pid]

    def edges(self):
        """Edges as (u_id, v_id, weight), by source, then by target index."""
        m = self._matrix
        rows = np.repeat(np.arange(len(self)), np.diff(m.indptr))
        for u, v, w in zip(rows.tolist(), m.indices.tolist(), m.data.tolist()):
            yield self.ids[u], self.ids[v], w

    def scc_labels(self) -> np.ndarray:
        """Strongly-connected-component label per vertex (cached)."""
        if self._scc is None:
            _, self._scc = connected_components(
                self._matrix, directed=True, connection="strong"
            )
        return self._scc

    def cyclic_vertices(self) -> np.ndarray:
        """Boolean mask of vertices on a cycle: in a nontrivial component or
        carrying a self-loop."""
        labels = self.scc_labels()
        return (np.bincount(labels)[labels] > 1) | (self._matrix.diagonal() > 0)

    def longest_walks(self) -> np.ndarray:
        """Matrix L of longest walks with >= 1 edge (cached).

        ``L[u, v]`` is -inf when no such walk leads from u to v, inf when
        one meets a cycle, and the longest path length otherwise.  One sweep
        visits the condensation in topological order and, per vertex, updates
        the columns of all its targets for all sources at once.  Every entry
        is the maximum of the same sums in any topological order, so the
        matrix does not depend on the order chosen.
        """
        if self._longest is None:
            m, labels = self._matrix, self.scc_labels()
            n, k = m.shape[0], labels.max(initial=-1) + 1
            cyclic = self.cyclic_vertices()
            members = _grouped(np.arange(n), labels, k)
            # the condensation: the components with an edge into each one
            tail = labels[np.repeat(np.arange(n), np.diff(m.indptr))]
            head = labels[m.indices]
            cross = tail != head
            preds = _grouped(tail[cross], head[cross], k)
            longest = np.full((n, n), -math.inf)
            for c in TopologicalSorter(dict(enumerate(preds))).static_order():
                vs = members[c]
                if cyclic[vs[0]]:
                    # every walk into or inside the component can loop
                    src = (longest[:, vs] > -math.inf).any(axis=1)
                    src[vs] = True
                    longest[np.ix_(src, vs)] = math.inf
                for w in vs:
                    start = longest[:, w].copy()
                    start[w] = max(start[w], 0.0)
                    out = slice(m.indptr[w], m.indptr[w + 1])
                    t = m.indices[out]
                    longest[:, t] = np.maximum(longest[:, t], start[:, None] + m.data[out])
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
    workers=None,
) -> CausalGraph:
    """Causal graph of a system: edge u -> v iff the pair is timelike, v lies
    in the future of u, and the length functional is inside the window.

    Every pair goes through the batched pair engine, with the system's own
    tolerances; an edge and its mirror share the spectral radius of the pair
    in system order.
    """
    md = system.metadata
    eps, mass = md.get("eps"), md.get("mass")
    if eps is not None and scales.l_min <= eps:
        warnings.warn("l_min does not exceed the regularization length", stacklevel=2)
    if mass and scales.l_max >= 1.0 / mass:
        warnings.warn("l_max reaches the Compton scale 1/m", stacklevel=2)

    res = PairEngine(system, workers=workers).analyze()
    length = _lengths(res.specrad, scales)
    edges = {
        (int(u), int(v)): float(length[u, v])
        for u, v in zip(*np.nonzero((res.codes == 1) & (res.orientation == 1) & (length > 0)))
    }
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


def _incomparable(graph: CausalGraph) -> np.ndarray:
    """Boolean matrix of orthogonal pairs: neither point precedes the other."""
    reach = graph.reachable()
    return ~(reach | reach.T | np.eye(len(graph), dtype=bool))


def ortho_complement(a_ids, graph: CausalGraph) -> set:
    """Set of points orthogonal to every member of ``a_ids``; any number of
    points."""
    rows = _incomparable(graph)[[graph.index(pid) for pid in a_ids]]
    return {graph.ids[v] for v in np.flatnonzero(rows.all(axis=0)).tolist()}


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
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    closed = {int(bit.sum())}
    for mask in (_incomparable(graph) @ bit).tolist():
        closed |= {c & mask for c in closed}
    # the empty set is always closed (its double complement is empty because
    # no point is orthogonal to itself)
    closed.add(0)
    bits = np.fromiter(closed, dtype=np.int64, count=len(closed))
    # key[k] is the string rank of each set's k-th member in point order
    perm = sorted(range(n), key=graph.ids.__getitem__)
    rank = np.argsort(perm).astype(np.int8)
    size = np.zeros(len(bits), dtype=np.int8)
    key = np.zeros((n, len(bits)), dtype=np.int8)
    for v, has in enumerate((bits & bit[:, None]) != 0):
        key[size[has], has] = rank[v]
        size += has
    order = np.lexsort((*key[::-1], size))
    key, size = key[:, order], size[order]
    # the sets of size k are contiguous, and zip joins their k member columns
    by_rank = np.array(graph.ids, dtype=object)[perm]
    bounds = np.searchsorted(size, np.arange(n + 2)).tolist()
    sets = [()]  # the one set of size 0
    for k in range(1, n + 1):
        sets += zip(*by_rank[key[:k, bounds[k]:bounds[k + 1]]].tolist())
    return sets


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
    if not delta > 0:
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
