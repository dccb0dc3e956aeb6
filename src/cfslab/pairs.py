"""Batched all-pairs causal analysis over a regular system.

Every unordered pair needs the spectrum of the product of the two operators
restricted to the image of the first one.  For a regular system of spin
dimension ``n`` that is one dense ``2n x 2n`` eigenproblem per pair, built
from the overlap matrix of the two image bases; the full ``f x f`` product is
never formed.  Work proceeds over fixed-size blocks of the pair matrix,
spread over a pool of threads, so that results are bit-identical no matter
how many worker threads are used.  The batched products and eigenproblems
release the interpreter lock, so the threads run in parallel.
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


def _compute_block(state, i0, i1, j0, j1):
    """Pair quantities for one block of (row, column) point indices."""
    bases = state["bases"]
    lams = state["lams"]
    srad = state["srad"]
    eig_rel = state["eig_rel"]
    imag_rel = state["imag_rel"]

    bi = bases[i0:i1]
    bj = bases[j0:j1]
    # Overlap G[i, j] = B_i^+ B_j, shape (ni, nj, r, r): one small GEMM per
    # pair, which BLAS runs single-threaded, so worker threads do not
    # contend for BLAS's own thread pool.
    g = bi.conj().swapaxes(1, 2)[:, None] @ bj[None]
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

    if i0 == j0:
        # Self pairs: the functional is antisymmetric, hence exactly zero.
        d = np.arange(i1 - i0)
        cvals[d, d] = 0.0
        orient[d, d] = 0
    return i0, j0, codes, orient, cvals, specrad


class PairEngine:
    """Vectorized pair analysis for a regular system.

    Parameters
    ----------
    system : CausalFermionSystem
        Must be regular (every point of rank ``2 n``); singular systems need
        the per-pair functions from :mod:`cfslab.core`.
    workers : int, optional
        Thread count; ``None`` resolves via CFSLAB_WORKERS / cpu count.
    """

    def __init__(self, system: CausalFermionSystem, workers=None):
        if not system.is_regular():
            raise ValidationError(
                "PairEngine needs a regular system; use restrict_to_regular "
                "or the per-pair functions in cfslab.core"
            )
        self.system = system
        self.workers = resolve_workers(workers)
        r = 2 * system.n
        n_pts = len(system)
        bases = np.empty((n_pts, system.f, r), dtype=np.complex128)
        lams = np.empty((n_pts, r), dtype=np.float64)
        for k, entry in enumerate(system.points):
            bases[k] = entry.op.image_basis()
            lams[k] = entry.op.nonzero_eigenvalues()
        self._state = {
            "bases": bases,
            "lams": lams,
            "srad": np.abs(lams).max(axis=1),
            "eig_rel": system.tolerances.eig_rel,
            "imag_rel": system.tolerances.imag_rel,
        }

    def analyze(self) -> PairAnalysis:
        n_pts = len(self.system)
        codes = np.zeros((n_pts, n_pts), dtype=np.uint8)
        orient = np.zeros((n_pts, n_pts), dtype=np.int8)
        cvals = np.zeros((n_pts, n_pts), dtype=np.float64)
        specrad = np.zeros((n_pts, n_pts), dtype=np.float64)

        tasks = list(_block_pairs(n_pts))
        with ThreadPoolExecutor(max_workers=min(self.workers, len(tasks))) as pool:
            results = pool.map(lambda t: _compute_block(self._state, *t), tasks)

        for i0, j0, bc, bo, bcv, bsr in results:
            ni, nj = bc.shape
            codes[i0 : i0 + ni, j0 : j0 + nj] = bc
            orient[i0 : i0 + ni, j0 : j0 + nj] = bo
            cvals[i0 : i0 + ni, j0 : j0 + nj] = bcv
            specrad[i0 : i0 + ni, j0 : j0 + nj] = bsr
            if i0 != j0:
                # Pair quantities are computed once on the id-ordered
                # representative; the mirror entries follow from the exact
                # symmetries (spectrum symmetric, time direction antisymmetric).
                codes[j0 : j0 + nj, i0 : i0 + ni] = bc.T
                orient[j0 : j0 + nj, i0 : i0 + ni] = -bo.T
                cvals[j0 : j0 + nj, i0 : i0 + ni] = -bcv.T
                specrad[j0 : j0 + nj, i0 : i0 + ni] = bsr.T
            else:
                iu = np.triu_indices(ni, k=1)
                codes[i0 : i0 + ni, j0 : j0 + nj].T[iu] = bc[iu]
                orient[i0 : i0 + ni, j0 : j0 + nj].T[iu] = -bo[iu]
                cvals[i0 : i0 + ni, j0 : j0 + nj].T[iu] = -bcv[iu]
                specrad[i0 : i0 + ni, j0 : j0 + nj].T[iu] = bsr[iu]

        return PairAnalysis(
            ids=self.system.ids,
            codes=codes,
            orientation=orient,
            cvals=cvals,
            specrad=specrad,
            tolerances=self.system.tolerances,
        )
