"""Canonical Riemannian structure on the operator manifold.

The Hilbert-Schmidt norm of the difference of two points is a distance
function whose squared quadratic expansion around a point yields the trace
form on tangent directions.  Tangent vectors at a regular point of the
fixed-signature stratum are self-adjoint matrices with no component mapping
the kernel of the point to itself; a first-order retraction replaces the
exponential map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, OperatorPoint, Tolerances, _cut, _hermitian
from .errors import DimensionMismatchError, LeftManifoldError, ValidationError

__all__ = [
    "TangentVector",
    "hs_distance",
    "metric_h",
    "project_tangent",
    "retract",
]


@dataclass(frozen=True)
class TangentVector:
    """A tangent direction at a base point of the fixed-rank stratum; its
    matrix is checked and symmetrized as a point's matrix is."""

    base: OperatorPoint
    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian(self.matrix)
        if m.shape != (self.base.f, self.base.f):
            raise DimensionMismatchError("tangent matrix has the wrong shape")
        object.__setattr__(self, "matrix", m)

    @property
    def norm(self) -> float:
        return _norm(self.matrix)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of ``a`` scaled as in ``core._hermitian``, so no square overflows."""
    s = float(np.abs(a).max(initial=0.0))
    return s * float(np.linalg.norm(a / (s or 1.0)))


def hs_distance(x: OperatorPoint, y: OperatorPoint) -> float:
    """Hilbert-Schmidt distance ``sqrt(tr((x - y)^2))``."""
    if x.f != y.f:
        raise DimensionMismatchError(f"points live on f={x.f} and f={y.f}")
    return _norm(x.matrix - y.matrix)


def metric_h(x: OperatorPoint, u: TangentVector, v: TangentVector) -> float:
    """Riemannian metric ``tr(u v)`` on tangent vectors at ``x``.

    Real by self-adjointness; positive definite.
    """
    if u.base is not x or v.base is not x:
        raise ValidationError("tangent vectors must be based at the given point")
    val = np.trace(u.matrix @ v.matrix)
    return float(val.real)


def project_tangent(x: OperatorPoint, w) -> TangentVector:
    """Tangent projection: remove the block mapping ker(x) into itself.

    The result is the self-adjoint matrix ``w - (1 - pi) w (1 - pi)`` with
    ``pi`` the projection onto the image of ``x``; projecting twice changes
    nothing.
    """
    w = _hermitian(w)
    if w.shape != (x.f, x.f):
        raise DimensionMismatchError("w has the wrong shape")
    if x.rank == 0:
        raise ValidationError("the base point is singular")
    b = x.image_basis()
    pw = b @ (b.conj().T @ w)
    proj = pw + pw.conj().T - b @ ((b.conj().T @ w @ b) @ b.conj().T)
    # symmetrized first: what is left of a w in the kernel block is rounding
    return TangentVector(x, 0.5 * (proj + proj.conj().T))


def retract(
    x: OperatorPoint,
    u: TangentVector,
    t: float,
    tol: Tolerances | None = None,
) -> OperatorPoint:
    """First-order retraction: step along ``u`` and truncate back to rank 2n.

    The step ``x + t u`` is projected to the nearest operator of the base
    point's rank by keeping the eigenvalues of largest magnitude.  If the
    kept eigenvalues no longer split into the base signature, or one of them
    is at or below the zero cut of ``tol``, the step left the fixed-signature
    stratum and an error carrying the offending eigenvalues is raised.  The
    point is built from the kept eigenpairs, without a second
    eigendecomposition.
    """
    if u.base is not x:
        raise ValidationError("tangent vector is not based at the given point")
    if x.pos_eigs != x.neg_eigs:
        raise ValidationError("retraction needs a balanced (n, n) signature")
    stepped = x.matrix + t * u.matrix
    w, v = np.linalg.eigh(stepped)
    order = np.argsort(-np.abs(w), kind="stable")
    keep = np.sort(order[: x.rank])
    kept_w = w[keep]
    n = x.pos_eigs
    pos = int(np.count_nonzero(kept_w > 0))
    neg = int(np.count_nonzero(kept_w < 0))
    if pos != n or neg != n:
        raise LeftManifoldError(
            f"retraction left the manifold: kept eigenvalues split ({pos},{neg}), "
            f"expected ({n},{n})",
            kept_w,
        )
    radius = float(np.abs(kept_w).max())
    if np.abs(kept_w).min() <= _cut(tol or DEFAULT_TOL, radius):
        raise LeftManifoldError(
            "retraction left the manifold: a kept eigenvalue is below the zero cut",
            kept_w,
        )
    vk = v[:, keep]
    truncated = _hermitian((vk * kept_w) @ vk.conj().T)
    # the kept eigenpairs are the point's, in descending order
    return OperatorPoint._from_factors(
        truncated, np.ascontiguousarray(vk[:, ::-1]), kept_w[::-1].copy(), radius
    )
