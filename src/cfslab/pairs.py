"""Batched all-pairs causal analysis over a system.

:class:`PairEngine` runs the pair routine of :mod:`cfslab.core`, which the
per-pair functions there run on a single pair, on blocks of the pair matrix.
For a system of spin dimension ``n`` each pair needs one dense ``2n x 2n``
eigenproblem, built from the overlap matrix of the two image bases on the
side of the point of lower rank; the full ``f x f`` product is never formed.
A singular point fills its image basis and eigenvalues up to the ``2n``
slots with zeros, which add only zero eigenvalues to the product.  Work
proceeds over fixed-size blocks of the pair matrix, spread over a pool of
threads, so that results are bit-identical no matter how many worker threads
are used.  The batched products and eigenproblems release the interpreter
lock, so the threads run in parallel.
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
            return max(1, int(env))
        except ValueError:
            raise ValidationError(
                f"CFSLAB_WORKERS={env!r} is not an integer worker count"
            ) from None
    return os.cpu_count() or 1


def _block_pairs(n_points: int):
    """Upper-triangular block tiling of the pair matrix, row-major order."""
    edges = list(range(0, n_points, _BLOCK)) + [n_points]
    for bi in range(len(edges) - 1):
        for bj in range(bi, len(edges) - 1):
            yield edges[bi], edges[bi + 1], edges[bj], edges[bj + 1]


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
        self._srad = np.abs(self._lams).max(axis=1)

    def _compute_block(self, i0, i1, j0, j1):
        """Codes, orientation, time direction and spectral radius of one
        block of (row, column) point indices."""
        g = _overlaps(self._bases, i0, i1, j0, j1)
        lams, tol = self._lams, self.system.tolerances
        return _pair_block(g, lams[i0:i1], lams[j0:j1], tol)[1:]

    def _both_orders_block(self, i0, i1, j0, j1):
        """Time directions and class codes of a block's pairs (x, y) and,
        transposed, (y, x), each order from its own overlap; and the relative
        defect of the kernel adjointness P(x, y)* = P(y, x).

        With P(x, y) = G_xy diag(l_y) and the spin Gram matrix diag(-l), the
        relation diag(-l_y) P(y, x) = P(x, y)^+ diag(-l_x) has the defect
        diag(l_y) (G_yx - G_xy^+) diag(l_x): multiplied through rather than
        divided by the Gram matrix, whose padded slots are zero.
        """
        lx, ly, tol = self._lams[i0:i1], self._lams[j0:j1], self.system.tolerances
        g_xy = _overlaps(self._bases, i0, i1, j0, j1)
        g_yx = _overlaps(self._bases, j0, j1, i0, i1)
        _, codes_xy, _, c_xy, _ = _pair_block(g_xy, lx, ly, tol)
        _, codes_yx, _, c_yx, _ = _pair_block(g_yx, ly, lx, tol)
        e = g_yx.swapaxes(0, 1) - g_xy.conj().swapaxes(-1, -2)
        e *= ly[None, :, :, None] * lx[:, None, None, :]
        scale = np.maximum(1.0, self._srad[i0:i1, None] * self._srad[None, j0:j1])
        return c_xy, c_yx.T, codes_xy, codes_yx.T, np.linalg.norm(e, axis=(-2, -1)) / scale

    def _map_blocks(self, block, dtypes):
        """Arrays of ``block``'s outputs, filled tile by tile on and above
        the diagonal; zero below it."""
        n_pts = len(self.system)
        outs = [np.zeros((n_pts, n_pts), dtype=dt) for dt in dtypes]
        tasks = list(_block_pairs(n_pts))
        with ThreadPoolExecutor(max_workers=min(self.workers, len(tasks))) as pool:
            results = pool.map(lambda t: block(*t), tasks)
            for (i0, i1, j0, j1), parts in zip(tasks, results):
                for out, part in zip(outs, parts):
                    out[i0:i1, j0:j1] = part
        return outs

    def analyze(self) -> PairAnalysis:
        codes, orient, cvals, specrad = self._map_blocks(
            self._compute_block, (np.uint8, np.int8, np.float64, np.float64)
        )
        # The time direction is antisymmetric: zero on self pairs, and below
        # the diagonal, like the symmetric spectrum, a mirror of the entries
        # computed on the id-ordered representative.
        np.fill_diagonal(cvals, 0.0)
        np.fill_diagonal(orient, 0)
        lower = np.tri(len(self.system), k=-1, dtype=bool)
        return PairAnalysis(
            ids=self.system.ids,
            codes=np.where(lower, codes.T, codes),
            orientation=np.where(lower, -orient.T, orient),
            cvals=np.where(lower, -cvals.T, cvals),
            specrad=np.where(lower, specrad.T, specrad),
            tolerances=self.system.tolerances,
        )

    def both_orders(self):
        """Time directions and class codes ``(N, N)`` with entry (i, j), for
        i != j, computed on (x_i, x_j) itself rather than mirrored; and the
        relative defect of P(x_i, x_j)* = P(x_j, x_i), the Frobenius norm over
        max(1, |x_i| |x_j|), at i < j and zero elsewhere.
        """
        c_xy, c_yx, codes_xy, codes_yx, adjoint = self._map_blocks(
            self._both_orders_block, (np.float64, np.float64, np.uint8, np.uint8, np.float64)
        )
        lower = np.tri(len(self.system), k=-1, dtype=bool)
        cvals, codes = np.where(lower, c_yx.T, c_xy), np.where(lower, codes_yx.T, codes_xy)
        return cvals, codes, np.triu(adjoint, 1)
