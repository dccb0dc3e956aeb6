"""Batched all-pairs causal analysis over a system.

Every unordered pair needs the spectrum of the product of the two operators
restricted to the image of the first one.  For a system of spin dimension
``n`` that is one dense ``2n x 2n`` eigenproblem per pair, built from the
overlap matrix of the two image bases; the full ``f x f`` product is never
formed.  A singular point fills its image basis and eigenvalues up to the
``2n`` slots with zeros, which add only zero eigenvalues to the product: the
padding :func:`cfslab.core.product_spectrum` applies.  Work proceeds over
fixed-size blocks of the pair matrix, spread over a pool of threads, so that
results are bit-identical no matter how many worker threads are used.  The
batched products and eigenproblems release the interpreter lock, so the
threads run in parallel.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import CausalFermionSystem, Tolerances
from .errors import ValidationError

__all__ = ["PairAnalysis", "PairEngine", "resolve_workers"]

# Block edge of the pair-matrix tiling.  Fixed: the tiling, not the worker
# count, determines the shapes seen by BLAS/LAPACK, hence the output bytes.
# Each worker thread holds one block's temporaries; at 32 they stay small.
_BLOCK = 32

_CODES = {"S": 0, "T": 1, "L": 2}
_SYMBOLS = np.array(["S", "T", "L"])


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


def _overlaps(bases, i0, i1, j0, j1):
    """Overlap G[i, j] = B_i^+ B_j of a block, shape (ni, nj, r, r).

    One small GEMM per pair, which BLAS runs single-threaded, so worker
    threads do not contend for BLAS's own thread pool.
    """
    return bases[i0:i1].conj().swapaxes(1, 2)[:, None] @ bases[j0:j1][None]


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
        r = 2 * system.n
        n_pts = len(system)
        bases = np.zeros((n_pts, system.f, r), dtype=np.complex128)
        lams = np.zeros((n_pts, r), dtype=np.float64)
        for k, entry in enumerate(system.points):
            # A singular point leaves its last 2n - rank slots zero.
            rank = entry.op.rank
            bases[k, :, :rank] = entry.op.image_basis()
            lams[k, :rank] = entry.op.nonzero_eigenvalues()
        self._bases = bases
        self._lams = lams
        self._srad = np.abs(lams).max(axis=1)

    def _compute_block(self, i0, i1, j0, j1):
        """Pair quantities for one block of (row, column) point indices."""
        lams, srad = self._lams, self._srad
        eig_rel = self.system.tolerances.eig_rel
        imag_rel = self.system.tolerances.imag_rel

        g = _overlaps(self._bases, i0, i1, j0, j1)
        gh = g.conj().swapaxes(-1, -2)
        lx = lams[i0:i1]
        ly = lams[j0:j1]

        # Restricted product matrix M = diag(lx) G diag(ly) G^+ per pair.
        m = (lx[:, None, :, None] * g * ly[None, :, None, :]) @ gh
        w = np.linalg.eigvals(m)
        mods = np.abs(w)
        mx = mods.max(axis=-1)
        mn = mods.min(axis=-1)
        specrad = mx

        codes = np.full(mx.shape, _CODES["L"], dtype=np.uint8)
        spacelike = (mx - mn) <= eig_rel * mx
        timelike = np.all(np.abs(w.imag) <= imag_rel * mx[..., None], axis=-1)
        codes[timelike] = _CODES["T"]
        codes[spacelike] = _CODES["S"]

        # Time direction: C = -2 Im tr(G Ly G+ Lx G G+).
        a1 = (g * ly[None, :, None, :]) @ gh
        a2 = lx[:, None, :, None] * (g @ gh)
        tr1 = np.einsum("...ab,...ba->...", a1, a2)
        cvals = -2.0 * tr1.imag

        thr = imag_rel * srad[i0:i1, None] * srad[None, j0:j1]
        orient = np.zeros(cvals.shape, dtype=np.int8)
        orient[cvals > thr] = 1
        orient[cvals < -thr] = -1
        return codes, orient, cvals, specrad

    def _adjointness_block(self, i0, i1, j0, j1):
        """Relative defect of the kernel adjointness P(x, y)* = P(y, x) on a block.

        With P(x, y) = G_xy diag(l_y) and the spin Gram matrix diag(-l), the
        relation diag(-l_y) P(y, x) = P(x, y)^+ diag(-l_x) has the defect
        diag(l_y) (G_yx - G_xy^+) diag(l_x): multiplied through rather than
        divided by the Gram matrix, whose padded slots are zero.  Each order's
        overlap comes from its own GEMM.
        """
        lams, srad = self._lams, self._srad
        g_xy = _overlaps(self._bases, i0, i1, j0, j1)
        g_yx = _overlaps(self._bases, j0, j1, i0, i1).swapaxes(0, 1)
        e = g_yx - g_xy.conj().swapaxes(-1, -2)
        e *= lams[None, j0:j1, :, None] * lams[i0:i1, None, None, :]
        scale = np.maximum(1.0, srad[i0:i1, None] * srad[None, j0:j1])
        return (np.linalg.norm(e, axis=(-2, -1)) / scale,)

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

    def kernel_adjointness(self) -> np.ndarray:
        """Relative defect of the adjointness P(x, y)* = P(y, x) of the kernels.

        Entry (i, j) for i < j holds the Frobenius norm of the defect for
        (x_i, x_j) over max(1, |x_i| |x_j|); the rest of the matrix is zero.
        """
        (rel,) = self._map_blocks(self._adjointness_block, (np.float64,))
        return np.triu(rel, 1)
