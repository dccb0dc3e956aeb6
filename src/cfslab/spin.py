"""The spinorial layer of a finite system.

Wave functions live in the spin spaces of the points; the relational object
between two points is the kernel map obtained by projecting one operator onto
the image of the other.  From it derive the closed chain, the proper
timelike relation, sign operators, the spin connection, splice maps between
Clifford subspaces, holonomy around triangles, and the induced metric
connection on tangent-space representatives.

All operators on a spin space are given as matrices in the eigenbasis of the
base point, where the spin Gram matrix is diagonal.  Adjoints are always
taken with respect to the indefinite spin scalar products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import CausalFermionSystem, SpinSpace, Tolerances
from .errors import NotSpinConnectableError, SpliceError, ValidationError

__all__ = [
    "CliffordSubspace",
    "ClosedChain",
    "KernelMap",
    "SignOperator",
    "SpinConnection",
    "closed_chain",
    "compose_transport",
    "directional_sign",
    "euclidean_sign",
    "grassmann_residual",
    "holonomy",
    "kernel",
    "metric_connection",
    "physical_wave_function",
    "properly_timelike",
    "spin_adjoint",
    "spin_connectable",
    "spin_connection",
    "splice_map",
    "verify_clifford",
]

#: Default connection phase, the upper end of the admissible upper range.
PHI_DEFAULT = 0.75 * math.pi

#: Admissible (open) phase ranges for the connection.
PHI_RANGES = (
    (0.5 * math.pi, 0.75 * math.pi),
    (-0.75 * math.pi, -0.5 * math.pi),
)


# ---------------------------------------------------------------------------
# kernels and wave functions


@dataclass(frozen=True)
class KernelMap:
    """Projection kernel from the spin space at ``y`` to the one at ``x``."""

    x_id: str
    y_id: str
    matrix: np.ndarray


def physical_wave_function(system: CausalFermionSystem, u) -> dict:
    """Project a Hilbert vector onto every spin space.

    Returns a dict mapping point id to the coordinate vector of the
    orthogonal projection in that point's spin basis.
    """
    u = np.asarray(u, dtype=np.complex128)
    if np.linalg.norm(u) == 0:
        raise ValidationError("the zero vector has no wave function")
    return {e.id: e.op.spin_space().project(u) for e in system.points}


def kernel(system: CausalFermionSystem, x_id: str, y_id: str) -> KernelMap:
    """Kernel map P(x, y): matrix of ``pi_x  y`` restricted to the image of y."""
    x = system.point(x_id)
    y = system.point(y_id)
    g = x.image_basis().conj().T @ y.image_basis()
    return KernelMap(x_id, y_id, g * y.nonzero_eigenvalues()[None, :])


def spin_adjoint(matrix, gram_from, gram_to) -> np.ndarray:
    """Adjoint of a map between spin spaces w.r.t. the spin scalar products.

    ``matrix`` maps (S_from, gram_from) to (S_to, gram_to); both Gram matrices
    are given as diagonal vectors.  The adjoint maps back.
    """
    gf = np.asarray(gram_from, dtype=np.float64)
    gt = np.asarray(gram_to, dtype=np.float64)
    return (matrix.conj().T * gt[None, :]) / gf[:, None]


# ---------------------------------------------------------------------------
# closed chain and its spectral splitting


@dataclass(frozen=True)
class ChainCluster:
    """One eigenvalue cluster of a closed chain.

    ``sign`` is +1 / -1 for a positive / negative definite eigenspace and 0
    when the eigenspace is indefinite, degenerate, or defective.
    """

    value: complex
    vectors: np.ndarray
    gram_form: np.ndarray
    sign: int

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class ClosedChain:
    """The chain A_xy = P(x,y) P(y,x) on the spin space at ``x``."""

    x_id: str
    y_id: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    clusters: tuple[ChainCluster, ...]

    @property
    def definite(self) -> bool:
        return all(c.sign != 0 for c in self.clusters)


def _cluster_spectrum(a, gram_diag, tol: Tolerances):
    """Eigenvalue clusters of a Gram-symmetric matrix, with definiteness."""
    w, v = np.linalg.eig(a)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    scale = np.abs(w).max(initial=0.0)
    ctol = max(tol.eig_rel, 1e-8) * max(scale, 1e-300)

    clusters = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or abs(w[k] - w[start]) > ctol:
            vc = v[:, start:k]
            m = vc.conj().T @ (gram_diag[:, None] * vc)
            m = 0.5 * (m + m.conj().T)
            mu = np.linalg.eigvalsh(m)
            dtol = 1e-10 * max(1.0, np.abs(mu).max(initial=0.0))
            if mu.min() > dtol:
                sign = 1
            elif mu.max() < -dtol:
                sign = -1
            else:
                sign = 0
            clusters.append(
                ChainCluster(
                    value=complex(np.mean(w[start:k])),
                    vectors=vc,
                    gram_form=m,
                    sign=sign,
                )
            )
            start = k
    return w, tuple(clusters)


def _chain(system: CausalFermionSystem, x_id: str, y_id: str):
    """Closed chain of the pair and its kernel P(x, y), both from the one
    overlap ``G = B_x^+ B_y``: ``P(x, y) = G diag(l_y)``, ``P(y, x) = G^+ diag(l_x)``."""
    x, y = system.point(x_id), system.point(y_id)
    g = x.image_basis().conj().T @ y.image_basis()
    p_xy = g * y.nonzero_eigenvalues()[None, :]
    a = p_xy @ (g.conj().T * x.nonzero_eigenvalues()[None, :])
    gram = system.spin_space(x_id).gram_diag
    w, clusters = _cluster_spectrum(a, gram, system.tolerances)
    return ClosedChain(x_id, y_id, a, w, clusters), p_xy


def closed_chain(system: CausalFermionSystem, x_id: str, y_id: str) -> ClosedChain:
    """Closed chain of the pair, with eigenspace definiteness per cluster."""
    return _chain(system, x_id, y_id)[0]


def _positive_spectrum(w, tol: Tolerances) -> bool:
    """Nonzero spectrum, real within ``imag_rel`` and positive beyond
    ``zero_abs``, both relative to the largest modulus."""
    scale = np.abs(w).max(initial=0.0)
    return bool(
        scale != 0.0
        and not np.any(np.abs(w.imag) > tol.imag_rel * scale)
        and not np.any(w.real <= tol.zero_abs * scale)
    )


def properly_timelike(system: CausalFermionSystem, x_id: str, y_id: str) -> bool:
    """True iff the closed chain has a strictly positive spectrum and every
    eigenspace is definite for the spin scalar product."""
    chain = closed_chain(system, x_id, y_id)
    return _positive_spectrum(chain.eigenvalues, system.tolerances) and chain.definite


def _split_chain(system: CausalFermionSystem, x_id: str, y_id: str):
    """Sign operator ``v``, ``A^(-1/2)`` and the kernel ``P(x, y)`` of the
    closed chain A_xy.

    The chain is built once, and each eigenvalue cluster's spectral
    projector is formed once and added into ``v`` with the cluster's sign
    and into ``A^(-1/2)`` with ``1 / sqrt(eigenvalue)``.  Raises
    ``NotSpinConnectableError`` for a spectrum that is not strictly positive
    within the system's tolerances, an indefinite eigenspace, or a definite
    splitting of dimensions other than ``(n, n)``.
    """
    chain, p_xy = _chain(system, x_id, y_id)
    if not _positive_spectrum(chain.eigenvalues, system.tolerances):
        raise NotSpinConnectableError(
            f"closed chain of ({x_id}, {y_id}) has non-positive spectrum: "
            f"{np.array2string(chain.eigenvalues, max_line_width=np.inf)}"
        )
    dims = {1: 0, -1: 0}
    for c in chain.clusters:
        if c.sign == 0:
            raise NotSpinConnectableError(
                f"indefinite chain eigenspace for pair ({x_id}, {y_id})"
            )
        dims[c.sign] += c.dim
    n = system.n
    if dims[1] != n or dims[-1] != n:
        raise NotSpinConnectableError(
            f"definite splitting has dimensions ({dims[1]},{dims[-1]}), "
            f"expected ({n},{n})"
        )
    gram = system.spin_space(x_id).gram_diag
    v = np.zeros_like(chain.matrix)
    inv_half = np.zeros_like(chain.matrix)
    for c in chain.clusters:
        proj = c.vectors @ np.linalg.solve(c.gram_form, c.vectors.conj().T * gram[None, :])
        v += c.sign * proj
        inv_half += (1.0 / math.sqrt(c.value.real)) * proj
    return v, inv_half, p_xy


# ---------------------------------------------------------------------------
# sign operators


@dataclass(frozen=True)
class SignOperator:
    """An involution on a spin space from a spectral splitting."""

    kind: str
    base_id: str
    matrix: np.ndarray


def euclidean_sign(system: CausalFermionSystem, x_id: str) -> SignOperator:
    """Sign operator of the splitting into the spectral subspaces of ``-x``.

    +1 on the negative eigenvectors of ``x``, -1 on the positive ones; in the
    descending eigenbasis used here the matrix is diagonal.
    """
    x = system.point(x_id)
    if not x.is_regular(system.n):
        raise ValidationError(f"point {x_id!r} is singular")
    diag = np.concatenate([-np.ones(x.pos_eigs), np.ones(x.neg_eigs)])
    return SignOperator("euclidean", x_id, np.diag(diag).astype(np.complex128))


def directional_sign(system: CausalFermionSystem, x_id: str, y_id: str) -> SignOperator:
    """Sign operator of the definite splitting of the closed chain.

    Requires the positive and negative definite eigenspaces of A_xy to have
    dimension ``n`` each; otherwise the pair is not spin-connectable.
    """
    v = _split_chain(system, x_id, y_id)[0]
    return SignOperator("directional", x_id, v)


# ---------------------------------------------------------------------------
# Clifford subspaces


@dataclass(frozen=True)
class CliffordSubspace:
    """A space of spin-symmetric operators with scalar anticommutators.

    ``metric`` holds the induced bilinear form in the generator basis;
    ``signature`` its inertia.
    """

    generators: tuple
    metric: np.ndarray
    signature: tuple[int, int]

    @property
    def dim(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def _frame(self):
        """:func:`_eta_frame` of the subspace, built when first spliced; a
        :class:`SpliceError` is not cached and is raised again on every use."""
        return _eta_frame(self)


def verify_clifford(generators, spin_sp: SpinSpace, tol: float = 1e-9) -> CliffordSubspace:
    """Check the Clifford conditions and build the subspace.

    Every generator must be symmetric for the spin scalar product, pairwise
    anticommutators must be real multiples of the identity within ``tol``
    (relative to the generator scales), and the induced bilinear form must be
    nondegenerate.

    Raises
    ------
    ValidationError
        On a non-symmetric generator, a non-scalar anticommutator, or a
        degenerate form.
    """
    gens = tuple(np.asarray(g, dtype=np.complex128) for g in generators)
    if not gens:
        raise ValidationError("a Clifford subspace needs at least one generator")
    g = np.stack(gens)
    r = g.shape[1]
    norms = np.linalg.norm(g, axis=(1, 2))
    weighted = spin_sp.gram_diag[:, None] * g
    sym_defect = np.linalg.norm(weighted - weighted.conj().swapaxes(1, 2), axis=(1, 2))
    # a refusal names the first failing generator, then pair i <= j (row-major)
    for i in np.flatnonzero(sym_defect > tol * np.maximum(1.0, norms)):
        raise ValidationError(
            f"generator {i} is not symmetric for the spin scalar product "
            f"(defect {sym_defect[i]:.3e})"
        )
    # every ordered product at once; {g_i, g_j} = 2 c_ij * identity + residual
    prod = g[:, None] @ g[None]
    anti = prod + prod.swapaxes(0, 1)
    c = np.trace(anti, axis1=2, axis2=3) / (2.0 * r)
    resid = np.linalg.norm(anti - 2.0 * c[..., None, None] * np.eye(r), axis=(2, 3))
    scale = tol * np.maximum(np.outer(norms, norms), 1.0)
    for i, j in np.argwhere(np.triu((resid > scale) | (np.abs(c.imag) > scale))):
        raise ValidationError(
            f"anticommutator of generators {i}, {j} is not a real "
            f"multiple of the identity"
        )
    metric = c.real
    mu = np.linalg.eigvalsh(metric)
    if np.abs(mu).min() <= tol * max(1.0, np.abs(mu).max()):
        raise ValidationError("the induced bilinear form is degenerate")
    signature = (int(np.count_nonzero(mu > 0)), int(np.count_nonzero(mu < 0)))
    return CliffordSubspace(gens, metric, signature)


def _subspace_frame(generators) -> np.ndarray:
    """Euclidean-orthonormal basis of the vectorized generator span."""
    mat = np.stack([g.ravel() for g in generators], axis=1)
    q, r = np.linalg.qr(mat)
    if np.abs(np.diag(r)).min() < 1e-12 * np.abs(np.diag(r)).max():
        raise ValidationError("generators are linearly dependent")
    return q


def _largest_sine(a, b) -> np.ndarray:
    """Sine of the largest principal angle between the spans of orthonormal
    columns ``a`` and ``b`` (either batched): the largest singular value of
    the part of the smaller span's columns off the larger span."""
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    off = a - b @ (b.conj().swapaxes(-1, -2) @ a)
    return np.linalg.svd(off, compute_uv=False)[..., 0]


def grassmann_residual(k1: CliffordSubspace, k2: CliffordSubspace) -> float:
    """Sine of the largest principal angle between the generator spans
    (:func:`_largest_sine`), in either order and for any two dimensions."""
    return float(_largest_sine(_subspace_frame(k1.generators), _subspace_frame(k2.generators)))


def _eta_frame(subspace: CliffordSubspace):
    """Pseudo-orthonormal generator frame, positives first.

    Pivoted Gram-Schmidt in the induced bilinear form, in one sweep: each
    round pivots on the first largest ``|form(h, h)|`` among the remaining
    residuals, normalizes it, and projects only the remaining residuals off
    the new frame vector, so every residual carries its earlier projections
    in the order a from-scratch projection would make them.  The pivot
    depends only on form values, so in exact arithmetic the construction
    commutes with unitary conjugation of the whole subspace.  In floating
    point it need not: for a frame that is already pseudo-orthonormal every
    candidate reads 1 to within about 1e-15, so rounding picks the pivot and
    with it the returned vectors.
    """

    def form(u, v):
        return (np.trace(u @ v + v @ u) / (2.0 * u.shape[0])).real

    remaining = list(subspace.generators)
    frame, signs = [], []
    while remaining:
        forms = [form(h, h) for h in remaining]
        best = int(np.argmax(np.abs(forms)))
        q = forms[best]
        if abs(q) < 1e-10:
            raise SpliceError("degenerate direction while building the frame")
        e = remaining.pop(best) / math.sqrt(abs(q))
        s = 1.0 if q > 0 else -1.0
        frame.append(e)
        signs.append(s)
        remaining = [h - (form(h, e) / s) * e for h in remaining]
    order = sorted(range(len(frame)), key=lambda i: (-signs[i], i))
    return tuple(frame[i] for i in order), tuple(signs[i] for i in order)


def splice_map(
    spin_sp: SpinSpace, k_from: CliffordSubspace, k_to: CliffordSubspace
) -> np.ndarray:
    """Unitary on the spin space conjugating one Clifford subspace to another.

    Pseudo-orthonormal frames of both subspaces are aligned: the returned U
    satisfies ``b_i = U a_i U^{-1}`` for the matched frames, is unitary for
    the spin scalar product, and its global phase is fixed by making the
    largest-modulus entry real positive.

    Raises
    ------
    SpliceError
        On signature mismatch, a non-unique intertwiner, or when no
        Krein-unitary intertwiner exists within a relative 1e-8.
    """
    if k_from.signature != k_to.signature:
        raise SpliceError(
            f"signature mismatch {k_from.signature} vs {k_to.signature}"
        )
    frame_a, signs_a = k_from._frame
    frame_b, signs_b = k_to._frame
    if signs_a != signs_b:
        raise SpliceError("frame sign patterns disagree")

    # rows (1 (x) b_i - a_i^T (x) 1) of vec(U), np.kron's products to the bit (signed zeros too)
    a, b = np.stack(frame_a), np.stack(frame_b)
    r = a.shape[1]
    eye = np.eye(r)
    stacked = (
        eye[:, None, :, None] * b[:, None, :, None, :]
        - a.swapaxes(1, 2)[:, :, None, :, None] * eye[:, None, :]
    ).reshape(-1, r * r)
    _, sing, vh = np.linalg.svd(stacked)
    scale = max(sing.max(initial=0.0), 1.0)
    null_rows = vh[sing <= 1e-8 * scale] if sing.size else vh[-1:]
    if null_rows.shape[0] == 0:
        raise SpliceError(
            f"no intertwiner: smallest residual {sing[-1]:.3e} exceeds tolerance"
        )
    # when the frames do not generate the full algebra the intertwiner space
    # is degenerate; the element closest to the identity is the convention
    basis = null_rows.conj().T
    vec_eye = eye.ravel(order="F").astype(np.complex128)
    coeff = basis.conj().T @ vec_eye
    u_vec = basis @ coeff
    if np.linalg.norm(u_vec) < 1e-8:
        u_vec = basis[:, -1]
    u = u_vec.reshape(r, r, order="F")

    gd = spin_sp.gram_diag
    uu = spin_adjoint(u, gd, gd) @ u
    c = np.trace(uu) / r
    if np.linalg.norm(uu - c * eye) > 1e-8 * max(abs(c), 1.0) * r:
        raise SpliceError("intertwiner is not Krein-normalizable")
    if c.real <= 0 or abs(c.imag) > 1e-8 * abs(c):
        raise SpliceError("no Krein-unitary intertwiner (negative normalization)")
    u = u / math.sqrt(c.real)

    idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    phase = u[idx] / abs(u[idx])
    return u * np.conj(phase)


# ---------------------------------------------------------------------------
# spin connection


@dataclass(frozen=True)
class SpinConnection:
    """Unitary connection from the spin space at ``y`` to the one at ``x``."""

    x_id: str
    y_id: str
    phi: float | None
    matrix: np.ndarray
    metadata: dict = field(default_factory=dict)


def spin_connectable(system: CausalFermionSystem, x_id: str, y_id: str) -> bool:
    """Working criterion: properly timelike both ways with (n, n)-definite
    chain splittings on both sides."""
    if x_id == y_id:
        return True
    try:
        directional_sign(system, x_id, y_id)
        directional_sign(system, y_id, x_id)
    except NotSpinConnectableError:
        return False
    return True


def _connection_map(system: CausalFermionSystem, x_id: str, y_id: str):
    """The pair's connection ``phi -> (cos phi + i sin phi v) A^(-1/2) P(x, y)``,
    with its sign operator ``v`` and ``K = A^(-1/2) P(x, y)``.

    ``v``, ``A^(-1/2)`` and ``P(x, y)`` come from one :func:`_split_chain`,
    so evaluating the returned function forms only the rotation and two
    products.  ``v`` and ``K`` do not depend on ``phi``; the phase scan
    builds its closed form from them once (:func:`_phase_residuals`).
    Raises ``NotSpinConnectableError`` as :func:`_split_chain` does.
    """
    v, inv_half, p = _split_chain(system, x_id, y_id)
    eye = np.eye(v.shape[0])

    def at(phi: float) -> np.ndarray:
        rot = math.cos(phi) * eye + 1j * math.sin(phi) * v
        return rot @ inv_half @ p

    return at, v, inv_half @ p


def _phase_residuals(gx, gy, v, k, generators, target):
    """Condition-(ii) residual of the connection ``(v, k)`` as a function of
    an array of phases, in closed form.

    With ``D = (c + i s v) K``, ``c = cos phi``, ``s = sin phi`` and
    ``v^2 = 1``, every ``generators`` entry ``g`` (at x) maps to
    ``D* g D = c^2 K*gK + s^2 K*v*gvK + c s i (K*gvK - K*v*gK)`` (at y),
    where ``*`` is the exact spin adjoint.  The three stacked terms are
    formed once; each evaluation is one batched QR of the mapped generator
    spans and one batched :func:`_largest_sine` against ``target``, an
    orthonormal frame (:func:`_subspace_frame`) of the reference span at y.
    """
    gens = np.stack(generators)
    k_adj = spin_adjoint(k, gy, gx)
    v_adj = spin_adjoint(v, gx, gx)
    gv, vg = gens @ v, v_adj @ gens
    terms = [k_adj @ m @ k for m in (gens, vg @ v, 1j * (gv - vg))]
    t0, t1, t2 = (t.reshape(len(gens), -1).T for t in terms)

    def residuals(phis) -> np.ndarray:
        c, s = np.cos(phis)[:, None, None], np.sin(phis)[:, None, None]
        return _largest_sine(np.linalg.qr(c * c * t0 + s * s * t1 + c * s * t2)[0], target)

    return residuals


def _scan_phi(system, x_id, y_id, connection, v, k, k_xy, k_yx):
    """Best condition-(ii) phase of the pair's ``connection`` map, with sign
    operator ``v`` and ``K = k``, over both admissible ranges.

    The residual is the Grassmann mismatch of ``k_yx`` and the ``k_xy``
    generators conjugated by the connection at a phase.  Both ranges of
    ``PHI_RANGES`` are searched together, as arrays with one entry per
    range: the coarse grid is one batched closed-form evaluation
    (:func:`_phase_residuals`) of both ranges' 39 interior phases, and each
    golden-section step evaluates the same closed form at one phase per
    range, every range taking its own branch.  Each range's result is then
    evaluated explicitly, conjugating by ``connection(phi)`` and comparing
    the generator spans with :func:`_largest_sine`, the arithmetic of
    :func:`grassmann_residual`; that value is the one returned and
    compared.  On a tie the positive range wins, keeping reports
    deterministic.
    """
    gx = system.spin_space(x_id).gram_diag
    gy = system.spin_space(y_id).gram_diag
    target = _subspace_frame(k_yx.generators)
    closed_form = _phase_residuals(gx, gy, v, k, k_xy.generators, target)

    def explicit(phi):
        d = connection(phi)
        d_inv = spin_adjoint(d, gy, gx)
        mapped = _subspace_frame([d_inv @ g @ d for g in k_xy.generators])
        return float(_largest_sine(mapped, target))

    # one column per range
    lo, hi = np.array(PHI_RANGES).T
    grid = np.linspace(lo, hi, 41)[1:-1]
    i_min = np.argmin(closed_form(grid.ravel()).reshape(grid.shape), axis=0)
    cols = np.arange(len(PHI_RANGES))
    a = grid[np.maximum(i_min - 1, 0), cols]
    b = grid[np.minimum(i_min + 1, len(grid) - 1), cols]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = closed_form(c), closed_form(d)
    for _ in range(40):
        # fc < fd keeps [a, d] and probes a new c; otherwise [c, b] and a new d
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = np.where(left, b - gr * (b - a), d), np.where(left, c, a + gr * (b - a))
        f = closed_form(np.where(left, c, d))
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    phi = 0.5 * (a + b)
    res = [explicit(p) for p in phi]
    # strict improvement keeps the positive range on exact ties
    best = 1 if res[1] < res[0] - 1e-15 else 0
    return phi[best], res[best]


def spin_connection(
    system: CausalFermionSystem,
    x_id: str,
    y_id: str,
    clifford_hint=None,
    cond2_tol: float = 1e-6,
) -> SpinConnection:
    """Spin connection D_(x,y) of a spin-connectable pair.

    The unitary has the form ``exp(i phi v) A^(-1/2) P(x,y)`` with the
    directional sign operator ``v`` of the pair.  The phase is chosen as
    follows: with a ``clifford_hint`` pair ``(K_xy, K_yx)`` it minimizes the
    subspace mismatch of the two hints under the connection (scan plus
    golden-section, error if the best residual exceeds ``cond2_tol``);
    otherwise the default ``3 pi / 4`` is used and recorded in the metadata.
    The connection is built for the canonical pair, lower index first, from
    one chain split; the reversed pair gets its spin adjoint, so
    ``D_(y,x) = D_(x,y)^(-1) = D_(x,y)^*`` holds exactly, and records the
    negative phase.

    The degenerate pair ``x == y`` returns the identity: no admissible phase
    is compatible with the inverse property on the diagonal, and triangle
    holonomy must be trivial there.
    """
    if x_id == y_id:
        r = system.point(x_id).rank
        return SpinConnection(
            x_id, y_id, None, np.eye(r, dtype=np.complex128), {"degenerate": True}
        )
    ix, iy = system.index(x_id), system.index(y_id)
    canonical = ix < iy
    a_id, b_id = (x_id, y_id) if canonical else (y_id, x_id)
    hint = clifford_hint if canonical or not clifford_hint else clifford_hint[::-1]
    connection, v, k = _connection_map(system, a_id, b_id)
    if hint is not None:
        phi_abs, residual = _scan_phi(system, a_id, b_id, connection, v, k, *hint)
        if residual > cond2_tol:
            raise NotSpinConnectableError(
                f"no admissible phase matches the Clifford hint for "
                f"({x_id}, {y_id}); best residual {residual:.3e}"
            )
        meta = {"phi_source": "hint", "hint_residual": residual}
    else:
        phi_abs = PHI_DEFAULT
        meta = {"phi_source": "default"}
    meta["canonical_order"] = canonical
    d = connection(phi_abs)
    if canonical:
        return SpinConnection(x_id, y_id, phi_abs, d, meta)
    g_a, g_b = (system.spin_space(i).gram_diag for i in (a_id, b_id))
    return SpinConnection(x_id, y_id, -phi_abs, spin_adjoint(d, g_b, g_a), meta)


# ---------------------------------------------------------------------------
# transport, holonomy, metric connection


def _splice(system: CausalFermionSystem, clifford_provider, at, from_id, to_id):
    """Splice map at ``at`` from the reference subspace for the pair
    ``(at, from_id)`` to the one for ``(at, to_id)``; the identity without
    a provider."""
    if clifford_provider is None:
        return np.eye(system.point(at).rank, dtype=np.complex128)
    return splice_map(
        system.spin_space(at),
        clifford_provider(at, from_id),
        clifford_provider(at, to_id),
    )


def compose_transport(
    system: CausalFermionSystem,
    path_ids,
    clifford_provider=None,
):
    """Compose spin connections along a discrete path, splicing at the stops.

    Every segment uses the default connection phase.
    ``clifford_provider(a_id, b_id)`` must return the reference Clifford
    subspace at ``a`` for the pair ``(a, b)``; without a provider the splice
    maps are identities (recorded in the segment metadata).

    Returns the composite map from the first to the last spin space together
    with one record per segment.
    """
    path = list(path_ids)
    if len(path) < 2:
        raise ValidationError("a path needs at least two points")
    records = []
    total = None
    for k in range(1, len(path)):
        prev, cur = path[k - 1], path[k]
        conn = spin_connection(system, cur, prev)
        g_prev = system.spin_space(prev).gram_diag
        g_cur = system.spin_space(cur).gram_diag
        defect = spin_adjoint(conn.matrix, g_prev, g_cur) @ conn.matrix
        defect -= np.eye(defect.shape[0])
        seg = {
            "from": prev,
            "to": cur,
            "phi": conn.phi,
            "unitarity": float(np.linalg.norm(defect)),
            **conn.metadata,
        }
        if total is None:
            total = conn.matrix
        else:
            u = _splice(system, clifford_provider, prev, path[k - 2], cur)
            seg["splice"] = clifford_provider is not None
            total = conn.matrix @ u @ total
        records.append(seg)
    return total, records


def holonomy(
    system: CausalFermionSystem,
    x_id: str,
    y_id: str,
    z_id: str,
    clifford_provider=None,
) -> np.ndarray:
    """Holonomy of the spin connection around the triangle (x, y, z).

    The spliced transport along x -> z -> y -> x (:func:`compose_transport`),
    closed by the splice at ``x`` from the pair subspace of ``(x, y)`` to the
    one of ``(x, z)``; without a provider every splice is the identity.  The
    result is a unitary on the spin space at ``x``.
    """
    total, _ = compose_transport(system, [x_id, z_id, y_id, x_id], clifford_provider)
    return _splice(system, clifford_provider, x_id, y_id, z_id) @ total


@dataclass(frozen=True)
class MetricTransport:
    """Isometry between tangent-space representatives, in generator bases."""

    x_id: str
    y_id: str
    matrix: np.ndarray
    residuals: dict


def metric_connection(
    system: CausalFermionSystem,
    x_id: str,
    y_id: str,
    t_x: CliffordSubspace,
    t_y: CliffordSubspace,
    k_xy: CliffordSubspace | None = None,
    k_yx: CliffordSubspace | None = None,
    cond2_tol: float = 1e-6,
) -> MetricTransport:
    """Metric connection: splice to the pair subspaces, conjugate with the
    spin connection, splice back to the tangent representatives.

    Given both pair subspaces ``k_xy`` and ``k_yx``, the connection phase is
    scanned to best map them onto each other (accepting mismatches up to
    ``cond2_tol``); otherwise the default phase is used and the tangent
    representatives stand in for them.  The returned matrix expresses the
    transported generators of ``t_y`` in the generator basis of ``t_x``; the
    residuals record how far the image lies outside the target span and the
    isometry defect of the induced bilinear forms.
    """
    hint = (k_xy, k_yx) if k_xy is not None and k_yx is not None else None
    k_xy = t_x if k_xy is None else k_xy
    k_yx = t_y if k_yx is None else k_yx
    spin_x = system.spin_space(x_id)
    spin_y = system.spin_space(y_id)
    v_y = splice_map(spin_y, k_from=t_y, k_to=k_yx)
    w_x = splice_map(spin_x, k_from=k_xy, k_to=t_x)
    d = spin_connection(
        system, x_id, y_id, clifford_hint=hint, cond2_tol=cond2_tol
    ).matrix
    gx, gy = spin_x.gram_diag, spin_y.gram_diag
    d_inv = spin_adjoint(d, gy, gx)
    v_inv = spin_adjoint(v_y, gy, gy)
    w_inv = spin_adjoint(w_x, gx, gx)

    # every generator of t_y mapped at once, one least-squares column each
    gens = np.stack(t_y.generators)
    imgs = (w_x @ (d @ (v_y @ gens @ v_inv) @ d_inv) @ w_inv).reshape(len(gens), -1).T
    basis = np.stack([g.ravel() for g in t_x.generators], axis=1)
    coef = np.linalg.lstsq(basis, imgs, rcond=None)[0]
    span = np.linalg.norm(imgs - basis @ coef, axis=0) / np.maximum(
        np.linalg.norm(imgs, axis=0), 1e-300
    )
    mat = coef.real
    iso_defect = float(
        np.linalg.norm(mat.T @ t_x.metric @ mat - t_y.metric)
        / max(np.linalg.norm(t_y.metric), 1e-300)
    )
    imag = float(np.abs(coef.imag).max(initial=0.0))
    residuals = {"span": float(span.max()), "imag": imag, "isometry": iso_defect}
    return MetricTransport(x_id, y_id, mat, residuals)
