"""Operator points, discrete universal measures, and the causal structure.

A point of the operator manifold is a self-adjoint finite-rank matrix with a
bounded number of positive and negative eigenvalues.  A finite system is a
weighted list of such points together with a spin dimension.  One pair
routine classifies pairs of points as spacelike / timelike / lightlike from
the spectrum of their product, taken on the side of lower rank, and orients
timelike pairs in time via the commutator-trace functional, over a list of
pairs: the per-pair functions pass one, :class:`cfslab.pairs.PairEngine` a tile's.
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
_EPS = float(np.finfo(np.float64).eps)


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
    """Causal relation of a pair of points; array outputs code a class by
    its position here: 0 spacelike, 1 timelike, 2 lightlike."""

    SPACELIKE = "S"
    TIMELIKE = "T"
    LIGHTLIKE = "L"

    @property
    def symbol(self) -> str:
        return self.value


_CLASSES = tuple(CausalClass)
_SYMBOLS = np.array([c.symbol for c in CausalClass])


def _hermitian(matrix) -> np.ndarray:
    """``matrix`` as a symmetrized complex128 array.

    Refused unless it is square, finite and equal to its conjugate transpose
    within ``1e-12 * ||matrix||_F``.
    """
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
        return 0.5 * (a + a.conj().T)
    a = 0.5 * a
    return a + a.conj().T


def _wave_product(psi, form) -> np.ndarray:
    """The matrix ``-psi^+ form psi`` of a generated point, before the
    constructor's symmetrization.  A matrix product, not a sign flip of the
    entries: the signed zeros it leaves are the bits of a generated file."""
    return -(psi.conj().T @ (form @ psi))


def _cut(tol: Tolerances, radius: float) -> float:
    """Largest eigenvalue modulus that counts as zero."""
    return tol.zero_abs * max(1.0, radius)


def _eigh_parts(a: np.ndarray, tol: Tolerances):
    """Image basis, nonzero eigenvalues (descending) and spectral radius of a
    Hermitian matrix from its full eigendecomposition."""
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    radius = float(np.abs(w).max(initial=0.0))
    keep = np.abs(w) > _cut(tol, radius)
    return np.ascontiguousarray(v[:, order[keep]]), w[keep], radius


# Range finder: columns of the test matrix beyond the rank bound, and the
# seed that fixes the test matrix.
_OVERSAMPLE = 4
_RANGE_SEED = 20110101


def _range_parts(a: np.ndarray, max_rank: int, tol: Tolerances):
    """The parts :func:`_eigh_parts` returns, from a randomized range finder
    (Halko, Martinsson and Tropp, SIAM Review 53, 2011) where it certifies them.

    With Q an orthonormal basis of ``A Omega`` for a fixed Gaussian test
    matrix Omega of ``k = max_rank + 4`` columns and ``T = Q^+ A Q``, the
    residual ``R = A - Q T Q^+`` bounds how far each eigenvalue of A lies from
    the matching one of T padded with f - k zeros (Weyl: ``||R||_2 <=
    ||R||_F``).  The rank decision is the one a full ``eigh`` makes when the
    padding zeros and every Ritz value stay clear of the cut by that bound
    plus a rounding allowance ``f eps ||A||_F``; otherwise ``eigh`` decides,
    as it does below ``f = 4 k``, where it costs less.
    """
    f = a.shape[0]
    k = max_rank + _OVERSAMPLE
    if f < 4 * k:
        return _eigh_parts(a, tol)
    omega = np.random.default_rng(_RANGE_SEED).standard_normal((f, k))
    # huge entries may overflow below; the check then fails on inf or NaN
    with np.errstate(all="ignore"):
        q, _ = np.linalg.qr(a @ omega)
        t = q.conj().T @ (a @ q)
        t = 0.5 * (t + t.conj().T)
        if not np.isfinite(t).all():
            return _eigh_parts(a, tol)
        theta, s = np.linalg.eigh(t)
        residual = np.linalg.norm(a - (q @ t) @ q.conj().T)
        margin = (1.0 + tol.zero_abs) * residual + f * _EPS * np.linalg.norm(a)
    order = np.argsort(-theta, kind="stable")
    theta = theta[order]
    radius = float(np.abs(theta).max())
    cut = _cut(tol, radius)
    clear = margin < cut and bool(np.all(np.abs(np.abs(theta) - cut) > margin))
    if not clear:
        return _eigh_parts(a, tol)
    keep = np.abs(theta) > cut
    return np.ascontiguousarray(q @ s[:, order[keep]]), theta[keep], radius


class OperatorPoint:
    """A self-adjoint finite-rank operator, given as a dense matrix or, for a
    generated point, by a wave evaluation.

    A point keeps an orthonormal basis of its image, its nonzero eigenvalues
    in descending order (positives, then negatives) and its spectral radius.
    Eigenvalues of magnitude at most ``zero_abs * max(1, spectral radius)``
    count as zero.  They come from a full eigendecomposition (LAPACK
    ``eigh``, deterministic for fixed input), or given a bound ``max_rank``
    on the rank from :func:`_range_parts`, whose range finder leaves
    uncertified ranks to ``eigh``; eigenvalues and the image projector then
    agree with ``eigh``'s to rounding, but not the basis inside a degenerate
    eigenspace.

    A point built from a matrix keeps that matrix.  A generated point
    (:meth:`_from_waves`) keeps instead its wave evaluation ``psi`` (r x f)
    and the r x r spin form ``S`` of the operator ``-psi^+ S psi``, and
    :attr:`matrix` forms that operator on each access, caching nothing, to
    the bits the constructor decomposed.  Its arrays then take ``16 (f rank
    + r f)`` bytes, against ``16 (f^2 + f rank)`` for a matrix point: with
    r = rank = 4 at f = 250, 32 kB against 1 MB.

    Parameters
    ----------
    matrix : (f, f) array_like
        Finite complex matrix; must equal its conjugate transpose within
        ``1e-12 * ||matrix||_F``.
    tol : Tolerances, optional
    max_rank : int, optional
    """

    __slots__ = (
        "_matrix",
        "_waves",
        "spectral_radius",
        "rank",
        "pos_eigs",
        "neg_eigs",
        "_basis",
        "_eigenvalues",
        "_spin",
    )

    def __init__(self, matrix, tol: Tolerances | None = None, *, max_rank: int | None = None):
        a, tol = _hermitian(matrix), tol or DEFAULT_TOL
        parts = _eigh_parts(a, tol) if max_rank is None else _range_parts(a, max_rank, tol)
        self._build(a, *parts)

    @classmethod
    def _from_factors(cls, matrix, basis, eigenvalues, radius, waves=None):
        """The point of a Hermitian matrix whose factors are already known,
        taken as they are; see :meth:`_build`."""
        x = cls.__new__(cls)
        x._build(matrix, basis, eigenvalues, radius, waves)
        return x

    @classmethod
    def _from_waves(cls, waves, form, max_rank: int | None = None) -> list:
        """The generated points ``-psi^+ form psi``, one per ``psi`` of the
        iterable ``waves``: the constructor decomposes each matrix, and the
        point then holds ``psi`` and ``form`` in its place.

        Each matrix is freed only after the next point is built.  Freed at
        once, a point's last f x f array lets the allocator return all the
        decomposition's scratch memory to the system, and the next point
        faults it in again: at f = 250, about 1,700 more page faults and
        2-3 ms more per point (glibc, 2-vCPU x86-64 virtual machine).
        """
        points, held = [], None
        for psi in waves:
            x = cls(_wave_product(psi, form), max_rank=max_rank)
            held, x._matrix, x._waves = x._matrix, None, (psi, form)
            points.append(x)
        del held
        return points

    def _build(self, matrix, basis, eigenvalues, radius, waves=None):
        """The one constructor: a Hermitian matrix, the f x rank orthonormal
        basis of its image, the nonzero eigenvalues in descending order and
        the spectral radius; a generated point gives ``None`` for the matrix
        and the ``(psi, form)`` it is formed from.  The factor arrays are
        made read-only."""
        basis.flags.writeable = False
        eigenvalues.flags.writeable = False
        self._matrix = matrix
        self._waves = waves
        self._basis = basis
        self._eigenvalues = eigenvalues
        self.spectral_radius = radius
        self.pos_eigs = int(np.count_nonzero(eigenvalues > 0))
        self.neg_eigs = eigenvalues.size - self.pos_eigs
        self.rank = eigenvalues.size
        self._spin = None

    @property
    def matrix(self) -> np.ndarray:
        """The Hermitian matrix; a generated point forms it anew on each
        access."""
        if self._waves is None:
            return self._matrix
        return _hermitian(_wave_product(*self._waves))

    def _tril(self, tril) -> np.ndarray:
        """``matrix[tril]``, to the bit.  A generated point forms only its
        product and halves the entries at ``tril`` with their mirrors as
        :func:`_hermitian` does, which checked that product when the point
        was built; it falls back on ``_hermitian`` where that would halve
        differently (an entry above 2**1022) or refuse (a NaN)."""
        if self._waves is None:
            return self._matrix[tril]
        m = _wave_product(*self._waves)
        low, up = m[tril], m.T[tril].conj()
        if not np.maximum(np.abs(low).max(), np.abs(up).max()) <= 2.0**1022:
            return _hermitian(m)[tril]
        return 0.5 * (low + up)

    @property
    def f(self) -> int:
        """Dimension of the ambient Hilbert space."""
        return self._basis.shape[0]

    def _same(self, other: "OperatorPoint") -> bool:
        """True when the two matrices are known to be equal: two generated
        points compare their wave evaluations and forms, which fix the
        matrix, and any other pair compares matrices."""
        if self._waves is not None and other._waves is not None:
            return all(np.array_equal(a, b) for a, b in zip(self._waves, other._waves))
        return np.array_equal(self.matrix, other.matrix)

    def is_regular(self, n: int) -> bool:
        """True iff the point has the maximal rank ``2 n``."""
        return self.rank == 2 * n

    def nonzero_eigenvalues(self) -> np.ndarray:
        """Nonzero eigenvalues in descending order (positives then negatives)."""
        return self._eigenvalues

    def image_basis(self) -> np.ndarray:
        """Orthonormal basis of the image, one column per nonzero eigenvalue."""
        return self._basis

    def spin_space(self) -> "SpinSpace":
        """Spin space of the point (cached)."""
        if self._spin is None:
            self._spin = SpinSpace(
                point=self,
                basis=self._basis,
                gram=np.diag(-self._eigenvalues).astype(np.complex128),
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


def _padded_factors(points, n: int):
    """Image bases ``(N, f, 2n)`` and nonzero eigenvalues ``(N, 2n)`` of
    ``points``, zero-padded to the ``2 n`` slots; a rank above ``2 n`` is
    refused.  A padded slot adds only a zero eigenvalue to a pair product,
    and a point's rank is its count of nonzero padded eigenvalues.
    """
    slots = 2 * int(n)
    bases = np.zeros((len(points), points[0].f, slots), dtype=np.complex128)
    lams = np.zeros((len(points), slots), dtype=np.float64)
    for k, x in enumerate(points):
        if x.rank > slots:
            raise ValidationError(
                f"rank {x.rank} exceeds 2n={slots}; spin dimension too small"
            )
        bases[k, :, : x.rank] = x.image_basis()
        lams[k, : x.rank] = x.nonzero_eigenvalues()
    return bases, lams


def _overlaps(bases, i0, i1, j0, j1):
    """Overlap G[i, j] = B_i^+ B_j of a block, shape (ni, nj, r, r).

    One small GEMM per pair, which BLAS runs single-threaded, so worker
    threads do not contend for BLAS's own thread pool.
    """
    return bases[i0:i1].conj().swapaxes(1, 2)[:, None] @ bases[j0:j1][None]


def _class_codes(w, tol: Tolerances):
    """The rule of :func:`classify_spectrum` on ``(..., r)`` spectra: codes
    indexing ``_CLASSES``, and the spectral radii."""
    mods = np.abs(w)
    mx = mods.max(axis=-1, initial=0.0)
    spacelike = mx - mods.min(axis=-1, initial=np.inf) <= tol.eig_rel * mx
    timelike = np.all(np.abs(w.imag) <= tol.imag_rel * mx[..., None], axis=-1)
    return np.where(spacelike, 0, np.where(timelike, 1, 2)).astype(np.uint8), mx


def _pair_block(g, lx, ly, tol: Tolerances):
    """Pair quantities of a list of pairs (x, y), each independent of the
    list, from the ``(p, r, r)`` overlaps ``g`` of their padded image bases
    and the ``(p, r)`` padded eigenvalues ``lx`` and ``ly``.

    Returns the ``(p, r)`` product spectra, then ``(p,)`` class codes,
    orientation signs, time directions and spectral radii.
    """
    gh = g.conj().swapaxes(-1, -2)
    # The product on the side of lower rank: diag(lx) G diag(ly) G^+, or
    # diag(ly) G^+ diag(lx) G where rank(x) > rank(y).  Both have the nonzero
    # spectrum of xy; the padded slots of the lower-rank side are zero rows,
    # so every eigenvalue beyond its rank is an exact zero.
    m = (lx[:, :, None] * g * ly[:, None, :]) @ gh
    k = np.count_nonzero(lx, axis=1) > np.count_nonzero(ly, axis=1)
    m[k] = (ly[k, :, None] * gh[k] * lx[k, None, :]) @ g[k]
    w = np.linalg.eigvals(m)
    codes, specrad = _class_codes(w, tol)
    # Time direction: tr(y x pi_y pi_x) = tr(G Ly G+ Lx G G+), and the
    # second trace is its conjugate, so C = -2 Im of the first.
    a1 = (g * ly[:, None, :]) @ gh
    a2 = lx[:, :, None] * (g @ gh)
    cvals = -2.0 * np.einsum("...ab,...ba->...", a1, a2).imag
    sx, sy = (np.abs(lam).max(axis=1, initial=0.0) for lam in (lx, ly))
    thr = tol.imag_rel * sx * sy
    orient = (cvals > thr).astype(np.int8) - (cvals < -thr)
    return w, codes, orient, cvals, specrad


def _pair(x: OperatorPoint, y: OperatorPoint, n: int | None = None, tol=None):
    """:func:`_pair_block`'s outputs for the one pair ``(x, y)``, with ``n``
    defaulting as in :func:`classify`; two points with equal matrices (two
    generated points: equal wave evaluations) get an exact zero time
    direction and orientation."""
    if x.f != y.f:
        raise DimensionMismatchError(f"points live on f={x.f} and f={y.f}")
    if n is None:
        n = max(x.pos_eigs, x.neg_eigs, y.pos_eigs, y.neg_eigs, 1)
    bases, lams = _padded_factors((x, y), n)
    out = _pair_block(_overlaps(bases, 0, 1, 1, 2)[0], lams[:1], lams[1:], tol or DEFAULT_TOL)
    if x is y or x._same(y):
        out[2][:] = out[3][:] = 0
    return [part[0] for part in out]


def product_spectrum(x: OperatorPoint, y: OperatorPoint, n: int) -> np.ndarray:
    """Eigenvalues of the product ``x y`` in ``2 n`` slots.

    The product is built from the two points' factors, zero-padded to the
    ``2 n`` slots, on the side of lower rank: with the overlap ``G = Bx^+ By``
    of their image bases it is ``diag(lx) G diag(ly) G^+``, or ``diag(ly) G^+
    diag(lx) G`` when ``rank(x) > rank(y)``, as for every pair of
    :class:`cfslab.pairs.PairEngine`.  So only a dense non-Hermitian
    eigenproblem of size ``2 n`` is solved, the full ``f x f`` product is
    never formed, and eigenvalues below the cut do not enter.

    Returns
    -------
    (2 n,) complex ndarray, algebraic multiplicities included, in no fixed
    order.  Each padded slot of the side the product is taken on gives an
    exact zero.  A rank of ``x`` or of ``y`` above ``2 n`` is refused.
    """
    return _pair(x, y, n)[0]


def classify_spectrum(lams, tol: Tolerances | None = None) -> CausalClass:
    """Causal class from a (padded) product spectrum.

    Spacelike if all moduli agree within ``eig_rel * max|lam|`` (in particular
    for the zero spectrum); else timelike if all imaginary parts are below
    ``imag_rel * max|lam|`` in magnitude; else lightlike.  The modulus test
    runs first, making the classification scale-free.  This is the rule
    :func:`classify` and :class:`cfslab.pairs.PairEngine` apply.
    """
    codes, _ = _class_codes(np.asarray(lams, dtype=np.complex128), tol or DEFAULT_TOL)
    return _CLASSES[int(codes)]


def classify(
    x: OperatorPoint,
    y: OperatorPoint,
    tol: Tolerances | None = None,
    n: int | None = None,
) -> CausalClass:
    """Causal class of the pair ``(x, y)`` from its :func:`product_spectrum`.

    ``n`` fixes the number of eigenvalue slots (``2 n``, zeros included); when
    omitted it defaults to the smallest spin dimension admitting both points,
    which coincides with the system value for regular points.
    """
    return _CLASSES[_pair(x, y, n, tol)[1]]


def time_direction(x: OperatorPoint, y: OperatorPoint) -> float:
    """Time-direction functional ``i tr(y x pi_y pi_x - x y pi_x pi_y)``.

    Positive values mean ``y`` lies in the future of ``x``; the functional is
    antisymmetric and vanishes identically on the diagonal (returned as an
    exact ``0.0`` when the two matrices coincide).
    """
    return float(_pair(x, y)[3])


def time_orientation(
    x: OperatorPoint, y: OperatorPoint, tol: Tolerances | None = None
) -> int:
    """Sign of the time direction: +1 future, -1 past, 0 undirected.

    Values within ``imag_rel * ||x|| * ||y||`` of zero are reported as
    undirected rather than forced into future or past.
    """
    return int(_pair(x, y, tol=tol)[2])
