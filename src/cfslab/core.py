"""Operator points, discrete universal measures, and the causal structure.

A point of the operator manifold is a self-adjoint finite-rank matrix with a
bounded number of positive and negative eigenvalues.  A finite system is a
weighted list of such points together with a spin dimension.  The operations
here classify pairs of points as spacelike / timelike / lightlike from the
spectrum of their product and orient timelike pairs in time via the
commutator-trace functional.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySystemError,
    ValidationError,
)

__all__ = [
    "CausalClass",
    "CausalFermionSystem",
    "OperatorPoint",
    "SpinSpace",
    "SystemPoint",
    "Tolerances",
    "classify",
    "classify_spectrum",
    "is_regular",
    "product_spectrum",
    "restrict_to_regular",
    "spin_space",
    "time_direction",
    "time_orientation",
]

_HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used throughout the library.

    eig_rel : relative tolerance for eigenvalue-modulus equality,
    imag_rel : relative tolerance below which imaginary parts count as noise,
    zero_abs : cutoff below which eigenvalues count as zero (applied relative
        to the spectral radius of the operator at hand, with ``1`` as floor).
    """

    eig_rel: float = 1e-9
    imag_rel: float = 1e-9
    zero_abs: float = 1e-12

    def __post_init__(self):
        for name in ("eig_rel", "imag_rel", "zero_abs"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"tolerance {name} must be positive and finite")
        if self.eig_rel >= 1e-3 or self.imag_rel >= 1e-3:
            raise ValidationError("eig_rel and imag_rel must be below 1e-3")

    def as_dict(self):
        return {
            "eig_rel": self.eig_rel,
            "imag_rel": self.imag_rel,
            "zero_abs": self.zero_abs,
        }


DEFAULT_TOL = Tolerances()


class CausalClass(enum.Enum):
    """Causal relation of a pair of points."""

    SPACELIKE = "S"
    TIMELIKE = "T"
    LIGHTLIKE = "L"

    @property
    def symbol(self) -> str:
        return self.value


class OperatorPoint:
    """A self-adjoint finite-rank operator given as a dense matrix.

    The eigendecomposition is computed once at construction (LAPACK ``eigh``,
    deterministic for fixed input) and cached; eigenvalues are stored in
    descending order.  Eigenvalues of magnitude at most
    ``zero_abs * max(1, spectral radius)`` count as zero.

    Parameters
    ----------
    matrix : (f, f) array_like
        Finite complex matrix; must equal its conjugate transpose within
        ``1e-12 * ||matrix||_F``.
    tol : Tolerances, optional
    """

    __slots__ = (
        "matrix",
        "eigenvalues",
        "eigenvectors",
        "rank",
        "pos_eigs",
        "neg_eigs",
        "_spin",
    )

    def __init__(self, matrix, tol: Tolerances | None = None):
        tol = tol or DEFAULT_TOL
        a = np.ascontiguousarray(matrix, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {a.shape}")
        # NaN and inf propagate into the largest modulus s; the squared
        # norms of a / s cannot overflow
        s = np.abs(a).max(initial=0.0)
        if not math.isfinite(s):
            raise ValidationError("matrix has a non-finite entry")
        b = (a.view(np.float64) / (s or 1.0)).view(np.complex128)
        d = b - b.conj().T
        defect2 = np.vdot(d, d).real
        if defect2 > _HERMITICITY_RTOL**2 * np.vdot(b, b).real:
            raise ValidationError(
                f"matrix is not self-adjoint: ||A - A*|| = {math.sqrt(defect2) * s:.3e}"
            )
        # a + a* overflows for entries above 2**1022, a / 2 + a* / 2 cannot
        if s <= 2.0**1022:
            a = 0.5 * (a + a.conj().T)
        else:
            a = 0.5 * a
            a = a + a.conj().T
        w, v = np.linalg.eigh(a)
        order = np.argsort(-w, kind="stable")
        w = w[order]
        v = v[:, order]
        cut = tol.zero_abs * max(1.0, np.abs(w).max(initial=0.0))
        self.matrix = a
        self.eigenvalues = w
        self.eigenvectors = v
        self.pos_eigs = int(np.count_nonzero(w > cut))
        self.neg_eigs = int(np.count_nonzero(w < -cut))
        self.rank = self.pos_eigs + self.neg_eigs
        self._spin = None

    @property
    def f(self) -> int:
        """Dimension of the ambient Hilbert space."""
        return self.matrix.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max(initial=0.0))

    def is_regular(self, n: int) -> bool:
        """True iff the point has the maximal rank ``2 n``."""
        return self.rank == 2 * n

    def nonzero_eigenvalues(self) -> np.ndarray:
        """Nonzero eigenvalues in descending order (positives then negatives)."""
        return np.concatenate(
            [self.eigenvalues[: self.pos_eigs], self.eigenvalues[self.f - self.neg_eigs :]]
        )

    def image_basis(self) -> np.ndarray:
        """Orthonormal basis of the image, one column per nonzero eigenvalue."""
        return np.concatenate(
            [
                self.eigenvectors[:, : self.pos_eigs],
                self.eigenvectors[:, self.f - self.neg_eigs :],
            ],
            axis=1,
        )

    def spin_space(self) -> "SpinSpace":
        """Spin space of the point (cached)."""
        if self._spin is None:
            basis = self.image_basis()
            lam = self.nonzero_eigenvalues()
            self._spin = SpinSpace(
                point=self, basis=basis, gram=np.diag(-lam).astype(np.complex128)
            )
        return self._spin

    def __repr__(self):
        return (
            f"OperatorPoint(f={self.f}, rank={self.rank}, "
            f"signature=({self.pos_eigs},{self.neg_eigs}))"
        )


@dataclass(frozen=True)
class SpinSpace:
    """Image of a point with its indefinite spin scalar product.

    ``basis`` holds orthonormal (ambient scalar product) columns spanning the
    image of the base point; ``gram`` is the matrix of the spin scalar product
    ``(u, v) -> -<u | x v>`` in this basis.  In the eigenbasis used here the
    Gram matrix is diagonal with entries ``-eigenvalue``.
    """

    point: OperatorPoint
    basis: np.ndarray
    gram: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def gram_diag(self) -> np.ndarray:
        return np.real(np.diag(self.gram))

    @property
    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia of the Gram matrix."""
        d = self.gram_diag
        return int(np.count_nonzero(d > 0)), int(np.count_nonzero(d < 0))

    def inner(self, u, v) -> complex:
        """Spin scalar product of two coordinate vectors."""
        return complex(np.conj(u) @ self.gram @ v)

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of the orthogonal projection of an ambient vector."""
        return self.basis.conj().T @ vec


def spin_space(x: OperatorPoint) -> SpinSpace:
    """Spin space of ``x``; see :meth:`OperatorPoint.spin_space`."""
    return x.spin_space()


def is_regular(x: OperatorPoint, n: int) -> bool:
    """True iff ``x`` has the maximal possible rank ``2 n``."""
    return x.is_regular(n)


@dataclass(frozen=True)
class SystemPoint:
    id: str
    weight: float
    op: OperatorPoint


class CausalFermionSystem:
    """A finite system: spin dimension, Hilbert dimension, weighted points.

    The discrete universal measure is the weighted point list itself; its
    support is the full list.  Systems are read-only after construction.

    Parameters
    ----------
    n : int
        Spin dimension; every point must have at most ``n`` positive and at
        most ``n`` negative eigenvalues.
    points : iterable of (id, weight, OperatorPoint)
    tolerances : Tolerances, optional
    metadata : dict, optional
        Free-form generator metadata (kind, mass, regularization length,
        sample coordinates, ...), carried through serialization.
    """

    def __init__(self, n, points, tolerances=None, metadata=None):
        tolerances = tolerances or DEFAULT_TOL
        entries = []
        for pid, weight, op in points:
            entries.append(SystemPoint(str(pid), float(weight), op))
        if not entries:
            raise EmptySystemError("a system needs at least one point")
        f = entries[0].op.f
        for e in entries:
            if e.op.f != f:
                raise DimensionMismatchError(
                    f"point {e.id!r} has f={e.op.f}, expected {f}"
                )
            if e.op.pos_eigs > n or e.op.neg_eigs > n:
                raise ValidationError(
                    f"point {e.id!r} has signature ({e.op.pos_eigs},{e.op.neg_eigs}), "
                    f"exceeding spin dimension n={n}"
                )
            if not math.isfinite(e.weight) or e.weight < 0:
                raise ValidationError(f"point {e.id!r} has a negative or non-finite weight")
        if not any(e.weight > 0 for e in entries):
            raise ValidationError("all weights vanish; the measure is trivial")
        ids = [e.id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValidationError("point ids must be unique")
        self.n = int(n)
        self.f = f
        self.points = tuple(entries)
        self.tolerances = tolerances
        self.metadata = dict(metadata or {})
        self._index = {e.id: k for k, e in enumerate(self.points)}

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def index(self, pid: str) -> int:
        try:
            return self._index[pid]
        except KeyError:
            raise KeyError(f"no point with id {pid!r}") from None

    def point(self, pid: str) -> OperatorPoint:
        return self.points[self.index(pid)].op

    def weight(self, pid: str) -> float:
        return self.points[self.index(pid)].weight

    def spin_space(self, pid: str) -> SpinSpace:
        return self.point(pid).spin_space()

    def is_regular(self) -> bool:
        return all(e.op.is_regular(self.n) for e in self.points)

    def total_weight(self) -> float:
        return float(sum(e.weight for e in self.points))


def restrict_to_regular(system: CausalFermionSystem) -> CausalFermionSystem:
    """Drop singular points; weights of the survivors are untouched.

    Raises
    ------
    EmptySystemError
        If no regular point remains.
    """
    keep = [e for e in system.points if e.op.is_regular(system.n)]
    if not keep:
        raise EmptySystemError("no regular points remain")
    if len(keep) == len(system.points):
        return system
    return CausalFermionSystem(
        system.n,
        [(e.id, e.weight, e.op) for e in keep],
        tolerances=system.tolerances,
        metadata=system.metadata,
    )


def _check_same_f(x: OperatorPoint, y: OperatorPoint):
    if x.f != y.f:
        raise DimensionMismatchError(f"points live on f={x.f} and f={y.f}")


def product_spectrum(x: OperatorPoint, y: OperatorPoint, n: int) -> np.ndarray:
    """Nontrivial eigenvalues of the product ``x y``, zero-padded to ``2 n``.

    The product is restricted to the image of ``x`` (an invariant subspace
    containing every eigenvector with nonzero eigenvalue), so only a dense
    non-Hermitian eigenproblem of size ``rank(x)`` is solved; the full
    ``f x f`` product is never formed.

    Returns
    -------
    (2 n,) complex ndarray, algebraic multiplicities included.
    """
    _check_same_f(x, y)
    slots = 2 * int(n)
    if x.rank > slots:
        raise ValidationError(
            f"rank(x)={x.rank} exceeds 2n={slots}; spin dimension too small"
        )
    out = np.zeros(slots, dtype=np.complex128)
    if x.rank == 0 or y.rank == 0:
        return out
    bx = x.image_basis()
    lam = x.nonzero_eigenvalues()
    m = lam[:, None] * (bx.conj().T @ (y.matrix @ bx))
    out[: x.rank] = np.linalg.eigvals(m)
    return out


def classify_spectrum(lams, tol: Tolerances | None = None) -> CausalClass:
    """Causal class from a (padded) product spectrum.

    Spacelike if all moduli agree within ``eig_rel * max|lam|`` (in particular
    for the zero spectrum); else timelike if all imaginary parts are below
    ``imag_rel * max|lam|`` in magnitude; else lightlike.  The modulus test
    runs first, making the classification scale-free.
    """
    tol = tol or DEFAULT_TOL
    lams = np.asarray(lams, dtype=np.complex128)
    if lams.size == 0:
        return CausalClass.SPACELIKE
    mods = np.abs(lams)
    mx = float(mods.max())
    if mx - float(mods.min()) <= tol.eig_rel * mx:
        return CausalClass.SPACELIKE
    if np.all(np.abs(lams.imag) <= tol.imag_rel * mx):
        return CausalClass.TIMELIKE
    return CausalClass.LIGHTLIKE


def classify(
    x: OperatorPoint,
    y: OperatorPoint,
    tol: Tolerances | None = None,
    n: int | None = None,
) -> CausalClass:
    """Causal class of the pair ``(x, y)``.

    ``n`` fixes the number of eigenvalue slots (``2 n``, zeros included); when
    omitted it defaults to the smallest spin dimension admitting both points,
    which coincides with the system value for regular points.
    """
    if n is None:
        n = max(x.pos_eigs, x.neg_eigs, y.pos_eigs, y.neg_eigs, 1)
    return classify_spectrum(product_spectrum(x, y, n), tol)


def time_direction(x: OperatorPoint, y: OperatorPoint) -> float:
    """Time-direction functional ``i tr(y x pi_y pi_x - x y pi_x pi_y)``.

    Positive values mean ``y`` lies in the future of ``x``; the functional is
    antisymmetric and vanishes identically on the diagonal (returned as an
    exact ``0.0`` when the two matrices coincide).
    """
    _check_same_f(x, y)
    if x is y or np.array_equal(x.matrix, y.matrix):
        return 0.0
    gxy = x.image_basis().conj().T @ y.image_basis()
    lx = x.nonzero_eigenvalues()
    ly = y.nonzero_eigenvalues()
    # tr(y x pi_y pi_x) = tr(G Ly G+ Lx G G+) with G the basis overlap matrix;
    # the second trace is its conjugate, so C = -2 Im of the first.
    g_ly_gh = (gxy * ly) @ gxy.conj().T
    g_gh = gxy @ gxy.conj().T
    tr1 = np.trace(g_ly_gh @ (lx[:, None] * g_gh))
    return float(-2.0 * tr1.imag)


def time_orientation(
    x: OperatorPoint, y: OperatorPoint, tol: Tolerances | None = None
) -> int:
    """Sign of the time direction: +1 future, -1 past, 0 undirected.

    Values within ``imag_rel * ||x|| * ||y||`` of zero are reported as
    undirected rather than forced into future or past.
    """
    tol = tol or DEFAULT_TOL
    c = time_direction(x, y)
    thr = tol.imag_rel * x.spectral_radius * y.spectral_radius
    if c > thr:
        return 1
    if c < -thr:
        return -1
    return 0
