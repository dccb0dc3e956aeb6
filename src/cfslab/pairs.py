"""Batched all-pairs causal analysis over a system.

:class:`PairEngine` runs the pair routine of :mod:`cfslab.core`, which the
per-pair functions there run on a single pair, on lists of pairs.  For a
system of spin dimension ``n`` each pair needs one dense ``2n x 2n``
eigenproblem, built from the overlap matrix of the two image bases on the
side of the point of lower rank; the full ``f x f`` product is never formed.
A singular point fills its image basis and eigenvalues up to the ``2n``
slots with zeros, which add only zero eigenvalues to the product.  Work
proceeds over fixed-size tiles on and above the diagonal of the pair matrix,
spread over a pool of threads, so that results are bit-identical for any
count of worker threads.  A tile forms its overlaps in one batched product
and solves only the pairs it keeps: a diagonal tile each unordered pair once.
Entries below the diagonal are mirrors.  The batched products and
eigenproblems release the interpreter lock, so the threads run in parallel.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    _SYMBOLS, CausalFermionSystem, Tolerances, _overlaps, _padded_factors, _pair_block
)
from .errors import ValidationError

__all__ = ["PairAnalysis", "PairEngine", "resolve_workers"]

# Block edge of the pair-matrix tiling.  Fixed: the tiling, not the worker
# count, determines the shapes seen by BLAS/LAPACK, hence the output bytes.
# Each worker thread holds one block's temporaries; at 32 they stay small.
_BLOCK = 32


@dataclass(frozen=True)
class PairAnalysis:
    """All-pairs results in system point order.

    codes : (N, N) uint8, 0 = spacelike, 1 = timelike, 2 = lightlike
    orientation : (N, N) int8, sign of the time direction with noise cutoff
    cvals : (N, N) float64, the antisymmetric time-direction functional
    specrad : (N, N) float64, spectral radius of the pair product
    """

    ids: tuple[str, ...]
    codes: np.ndarray
    orientation: np.ndarray
    cvals: np.ndarray
    specrad: np.ndarray
    tolerances: Tolerances

    def symbol(self, i: int, j: int) -> str:
        return str(_SYMBOLS[self.codes[i, j]])


def resolve_workers(workers=None) -> int:
    """Worker count: explicit argument, else CFSLAB_WORKERS, else cpu count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("CFSLAB_WORKERS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValidationError(f"CFSLAB_WORKERS={env!r} is not a positive worker count")
        return count
    return os.cpu_count() or 1


class PairEngine:
    """Vectorized pair analysis for any system, singular points included.

    Parameters
    ----------
    system : CausalFermionSystem
    workers : int, optional
        Thread count; ``None`` resolves via CFSLAB_WORKERS / cpu count.
    """

    def __init__(self, system: CausalFermionSystem, workers=None):
        self.system = system
        self.workers = resolve_workers(workers)
        self._bases, self._lams = _padded_factors([e.op for e in system.points], system.n)

    def _compute_block(self, i0, i1, j0, j1):
        """Placements ``(rows, cols)`` of one tile's pairs i <= j and of their
        mirrors, then codes, orientation, time direction and spectral radius
        at each placement."""
        a, b = np.triu_indices(i1 - i0, i0 - j0, j1 - j0)
        i, j = i0 + a, j0 + b
        g = _overlaps(self._bases, i0, i1, j0, j1)[a, b]
        lams, tol = self._lams, self.system.tolerances
        _, codes, orient, cvals, specrad = _pair_block(g, lams[i], lams[j], tol)
        # the spectrum is symmetric, the time direction antisymmetric
        return (
            np.r_[i, j], np.r_[j, i], np.r_[codes, codes], np.r_[orient, -orient],
            np.r_[cvals, -cvals], np.r_[specrad, specrad],
        )

    def _both_orders_block(self, i0, i1, j0, j1):
        """Placements ``(rows, cols)`` of one tile's pairs i < j and of their
        mirrors, then time directions and class codes, each order (x, y) and
        (y, x) computed from its own overlap, and at i < j the relative
        defect of the kernel adjointness P(x, y)* = P(y, x).

        With P(x, y) = G_xy diag(l_y) and the spin Gram matrix diag(-l), the
        relation diag(-l_y) P(y, x) = P(x, y)^+ diag(-l_x) has the defect
        diag(l_y) (G_yx - G_xy^+) diag(l_x): multiplied through rather than
        divided by the Gram matrix, whose padded slots are zero.
        """
        a, b = np.triu_indices(i1 - i0, i0 - j0 + 1, j1 - j0)
        i, j = i0 + a, j0 + b
        g = _overlaps(self._bases, i0, i1, j0, j1)
        # a diagonal tile holds the overlaps of both orders
        g_yx = (g if i0 == j0 else _overlaps(self._bases, j0, j1, i0, i1))[b, a]
        g_xy = g[a, b]
        lx, ly, tol = self._lams[i], self._lams[j], self.system.tolerances
        _, codes_xy, _, c_xy, _ = _pair_block(g_xy, lx, ly, tol)
        _, codes_yx, _, c_yx, _ = _pair_block(g_yx, ly, lx, tol)
        e = g_yx - g_xy.conj().swapaxes(-1, -2)
        e *= ly[:, :, None] * lx[:, None, :]
        scale = np.maximum(1.0, np.abs(lx).max(axis=1) * np.abs(ly).max(axis=1))
        adjoint = np.linalg.norm(e, axis=(-2, -1)) / scale
        return (
            np.r_[i, j], np.r_[j, i], np.r_[c_xy, c_yx], np.r_[codes_xy, codes_yx],
            np.r_[adjoint, np.zeros_like(adjoint)],
        )

    def _map_blocks(self, block, dtypes):
        """Arrays of ``block``'s outputs, each tile's placed where it says."""
        n_pts = len(self.system)
        outs = [np.zeros((n_pts, n_pts), dtype=dt) for dt in dtypes]
        # the tiles on and above the diagonal, row by row
        edges = [*range(0, n_pts, _BLOCK), n_pts]
        spans = list(zip(edges, edges[1:]))
        tasks = [(i0, i1, j0, j1) for i0, i1 in spans for j0, j1 in spans if j0 >= i0]
        with ThreadPoolExecutor(max_workers=min(self.workers, len(tasks))) as pool:
            for rows, cols, *parts in pool.map(lambda t: block(*t), tasks):
                for out, part in zip(outs, parts):
                    out[rows, cols] = part
        return outs

    def analyze(self) -> PairAnalysis:
        codes, orient, cvals, specrad = self._map_blocks(
            self._compute_block, (np.uint8, np.int8, np.float64, np.float64)
        )
        # The time direction vanishes on self pairs.
        np.fill_diagonal(cvals, 0.0)
        np.fill_diagonal(orient, 0)
        return PairAnalysis(self.system.ids, codes, orient, cvals, specrad, self.system.tolerances)

    def both_orders(self):
        """Time directions and class codes ``(N, N)`` with entry (i, j), for
        i != j, computed on (x_i, x_j) itself rather than mirrored; and the
        relative defect of P(x_i, x_j)* = P(x_j, x_i), the Frobenius norm over
        max(1, |x_i| |x_j|), at i < j and zero elsewhere.
        """
        return self._map_blocks(self._both_orders_block, (np.float64, np.uint8, np.float64))
