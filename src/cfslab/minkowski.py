"""Concrete systems from regularized Dirac seas on a flat spatial 3-torus.

The Hilbert space is spanned by the negative-energy plane-wave solutions of
the free Dirac equation with momenta on a finite lattice, orthonormal in the
Cauchy-surface scalar product.  Evaluating the exponentially momentum-damped
waves at a space-time point yields the local correlation operator there; a
finite list of sample points then gives a system of spin dimension two.
Finite convex mixtures of such systems over a shared Hilbert space model
superpositions of geometries.

Conventions: metric signature (+, -, -, -), Dirac representation of the
gamma matrices, torus of spatial period ``2 pi L`` with momenta in ``Z / L``.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import CausalFermionSystem, OperatorPoint, Tolerances
from .errors import DimensionMismatchError, ValidationError
from .spin import CliffordSubspace, verify_clifford

__all__ = [
    "GAMMA",
    "MinkowskiConfig",
    "MixtureSpec",
    "ModeSet",
    "build_modes",
    "build_system",
    "dirac_frame",
    "evaluation_matrix",
    "local_correlation",
    "minkowski_interval",
    "mix_systems",
]

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

_GAMMA0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(np.complex128)


def _gamma_spatial(i):
    g = np.zeros((4, 4), dtype=np.complex128)
    g[:2, 2:] = _SIGMA[i]
    g[2:, :2] = -_SIGMA[i]
    return g


#: Dirac matrices (gamma^0, gamma^1, gamma^2, gamma^3), Dirac representation.
GAMMA = (_GAMMA0, _gamma_spatial(0), _gamma_spatial(1), _gamma_spatial(2))

_ETA = np.diag([1.0, -1.0, -1.0, -1.0])

#: gamma^0 gamma^i, i = 1, 2, 3: the one-particle Hamiltonian is
#: ``sum_i alpha_i k_i + m gamma^0``.
_ALPHA = tuple(_GAMMA0 @ g for g in GAMMA[1:])


def minkowski_interval(a, b) -> float:
    """Lorentzian interval (+,-,-,-) of the coordinate difference ``b - a``."""
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    return float(d @ _ETA @ d)


def gamma_contract(u) -> np.ndarray:
    """Clifford multiplication by a coordinate 4-vector: {g(u),g(v)} = 2 eta(u,v)."""
    u = np.asarray(u, dtype=float)
    return sum((_ETA[j, j] * u[j]) * GAMMA[j] for j in range(4))


_SEQUENCES = (tuple, list, np.ndarray)


def _real(value) -> bool:
    """True iff ``value`` is a finite real number (not a bool)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _reals(values, length: int) -> bool:
    """True iff ``values`` is a sequence of ``length`` finite real numbers."""
    return (
        isinstance(values, _SEQUENCES)
        and len(values) == length
        and all(_real(v) for v in values)
    )


@dataclass(frozen=True)
class MinkowskiConfig:
    """Parameters of a regularized Dirac-sea system on the torus.

    mass : rest mass (> 0)
    eps : regularization length; every mode is damped by ``exp(-eps omega)``
    torus_radius : L; momenta are integer multiples of ``1/L`` per axis
    kmax : momentum cutoff in lattice units per axis
    sample_points : space-time coordinates (t, x1, x2, x3) of the points
    weights : optional per-point measure weights (default 1)
    max_f : guard on the Hilbert dimension ``2 (2 kmax + 1)^3``
    """

    mass: float = 1.0
    eps: float = 1e-3
    torus_radius: float = 1.0
    kmax: int = 1
    sample_points: tuple = ()
    weights: tuple | None = None
    max_f: int = 1024

    def __post_init__(self):
        for name in ("mass", "eps", "torus_radius", "kmax", "max_f"):
            value = getattr(self, name)
            integral = name in ("kmax", "max_f")
            if not _real(value) or (integral and not isinstance(value, numbers.Integral)):
                kind = "an integer" if integral else "a finite number"
                raise ValidationError(f"{name} must be {kind}, got {value!r}")
        if self.mass <= 0 or self.eps <= 0 or self.torus_radius <= 0:
            raise ValidationError("mass, eps, and torus_radius must be positive")
        if self.kmax < 0:
            raise ValidationError("kmax must be nonnegative")
        # f norm^2 bounds a local correlation entry; build_modes refuses f > max_f
        norm = _mode_norm(self.torus_radius)
        if not (norm > 0.0 and norm * norm * min(self.f, self.max_f) < math.inf):
            raise ValidationError(
                f"torus_radius = {self.torus_radius!r} gives a torus volume or mode "
                "normalization that is not finite and positive"
            )
        points = self.sample_points
        if not isinstance(points, _SEQUENCES) or not all(_reals(p, 4) for p in points):
            raise ValidationError("every sample point needs 4 finite coordinates")
        if self.weights is not None and not _reals(self.weights, len(points)):
            raise ValidationError("weights must be finite numbers, one per sample point")
        if self.eps * self.mass > 0.01:
            warnings.warn(
                f"eps * mass = {self.eps * self.mass:.3g} is not small; the "
                "admissible window between regularization and Compton scale "
                "shrinks",
                stacklevel=2,
            )

    @property
    def f(self) -> int:
        return 2 * (2 * self.kmax + 1) ** 3


@dataclass(frozen=True)
class ModeSet:
    """Negative-energy plane-wave modes, orthonormal on the Cauchy surface.

    momenta : (f, 3) physical momenta,
    omegas : (f,) frequencies ``sqrt(|k|^2 + m^2)``,
    amplitudes : (f, 4) spinor amplitudes including the volume normalization,
    so a mode evaluates to ``amplitude * exp(i (k.x + omega t))``.
    """

    mass: float
    torus_radius: float
    momenta: np.ndarray
    spins: np.ndarray
    omegas: np.ndarray
    amplitudes: np.ndarray

    def __len__(self) -> int:
        return self.momenta.shape[0]


def _mode_norm(torus_radius) -> float:
    """Volume normalization ``1 / sqrt(2 pi V)`` of a mode on the torus of
    volume ``V = (2 pi L)^3``; 0.0 when V or ``2 pi V`` is not finite and
    positive, so that no mode can be normalized."""
    try:
        volume = (2.0 * math.pi * torus_radius) ** 3
    except OverflowError:
        return 0.0
    if not 0.0 < volume < math.inf:
        return 0.0
    return 1.0 / math.sqrt(2.0 * math.pi * volume)


def build_modes(config: MinkowskiConfig) -> ModeSet:
    """All negative-energy modes with lattice momenta up to the cutoff.

    Two spin states per momentum; the amplitudes are eigenvectors of the
    one-particle Hamiltonian on the lower branch, normalized so the mode
    Gram matrix in the Cauchy-surface scalar product is exactly the identity.
    """
    if config.f > config.max_f:
        raise ValidationError(
            f"f = {config.f} exceeds the configured maximum {config.max_f}"
        )
    m, el = config.mass, config.torus_radius
    rng = range(-config.kmax, config.kmax + 1)
    k = np.array(list(itertools.product(rng, rng, rng)), dtype=float) / el
    # one Hamiltonian per momentum, summed in the order of the terms
    h = sum(_ALPHA[i] * k[:, i, None, None] for i in range(3)) + m * _GAMMA0
    w, v = np.linalg.eigh(h)
    # |k|^2 as one stacked product, which rounds as the dot product k @ k
    omega = np.sqrt((k[:, None, :] @ k[:, :, None])[:, 0, 0] + m * m)
    if np.any(np.abs(w[:, :2] + omega[:, None]) > 1e-12 * omega[:, None]):
        raise ValidationError("lower Dirac branch not found")
    # two spin states per momentum, the lower-branch eigenvectors as rows
    amps = np.ascontiguousarray(v[:, :, :2].swapaxes(1, 2)).reshape(-1, 4)
    return ModeSet(
        mass=m,
        torus_radius=el,
        momenta=np.repeat(k, 2, axis=0),
        spins=np.tile(np.array([0, 1], dtype=np.int8), len(k)),
        omegas=np.repeat(omega, 2),
        amplitudes=_mode_norm(el) * amps,
    )


def dirac_residual(modes: ModeSet) -> float:
    """Largest residual of the momentum-space Dirac equation on the lower branch.

    Checks ``gamma(p) w = m w`` for the 4-momentum ``p = (-omega, k)`` of each
    mode, i.e. the negative-energy branch.
    """
    p4 = np.column_stack([-modes.omegas, modes.momenta]) * np.diag(_ETA)
    w = modes.amplitudes
    lhs = np.einsum("aj,jkl,al->ak", p4, np.stack(GAMMA), w) - modes.mass * w
    return float((np.linalg.norm(lhs, axis=1) / np.linalg.norm(w, axis=1)).max(initial=0.0))


def evaluation_matrix(modes: ModeSet, point, eps: float) -> np.ndarray:
    """Evaluation of every mode at a space-time point, as a 4 x f matrix.

    Each mode is damped by ``exp(-eps omega)``.
    """
    t = float(point[0])
    x = np.asarray(point[1:], dtype=float)
    phases = np.exp(1j * (modes.momenta @ x + modes.omegas * t))
    damp = np.exp(-eps * modes.omegas)
    return (modes.amplitudes * (phases * damp)[:, None]).T


def local_correlation(modes: ModeSet, point, eps: float) -> OperatorPoint:
    """Local correlation operator at a space-time point.

    With the evaluation matrix E, every mode damped by ``exp(-eps omega)``,
    the operator is ``-E^+ Sigma E`` where Sigma is the spinor inner-product
    matrix; it has rank at most four with at most two positive and two
    negative eigenvalues.

    The point is a generated one: it holds E (4 x f) and Sigma, not the f x f
    matrix, which exists only while ``eigh`` decomposes it; ``matrix`` forms
    it anew on each access, to the same bits.  With its f x 4 image basis
    the point holds ``16 (4 f + 4 f)`` bytes of arrays (32 kB at f = 250)
    where a matrix point holds ``16 (f^2 + 4 f)`` (1 MB).
    """
    return OperatorPoint._from_waves([evaluation_matrix(modes, point, eps)], _GAMMA0)[0]


def _translates(modes: ModeSet, eps: float, coords) -> list[OperatorPoint]:
    """Local correlation operators at ``coords`` with no f x f ``eigh``.

    The regularized vacuum is translation invariant: with ``a`` the shift
    from the first coordinate, every mode picks up the phase
    ``exp(i (k.a + omega a^0))``, so ``E(p + a) = E(p) D_a`` with ``D_a``
    the diagonal unitary of these phases and ``F(p + a) = D_a^+ F(p) D_a``.
    The first point is built with ``max_rank=4`` from the certified range
    finder (``eigh`` where it cannot certify the rank), a second route beside
    :func:`local_correlation`'s ``eigh``.  Every other point takes the image
    basis ``D_a^+ B`` and the first point's eigenvalues and spectral radius,
    so all points share one rank decision, and never forms its matrix.
    Eigenvalues and projectors agree with a point's own ``eigh`` to rounding;
    the basis inside a degenerate eigenspace may differ.

    Every point is a generated one, as in :func:`local_correlation`: it
    holds its own evaluation matrix E (4 x f), and ``matrix`` forms
    ``-E^+ Sigma E`` on each access, to the bits ``local_correlation``'s
    point gives; ``16 (4 f + 4 f)`` bytes of arrays per point against
    ``16 (f^2 + 4 f)`` for a matrix point.

    Two callers build their points here: :func:`transport_study`, once per
    regularization length, and ``cfslab generate`` (:func:`_translated_system`),
    once per config, whose files keep only the matrices.
    """
    (first,) = OperatorPoint._from_waves(
        [evaluation_matrix(modes, coords[0], eps)], _GAMMA0, max_rank=4
    )
    basis, eigs = first.image_basis(), first.nonzero_eigenvalues()
    origin = np.asarray(coords[0], dtype=float)
    points = [first]
    for p in coords[1:]:
        a = np.asarray(p, dtype=float) - origin
        phase = np.exp(1j * (modes.momenta @ a[1:] + modes.omegas * a[0]))
        points.append(OperatorPoint._from_factors(
            None,
            np.conj(phase)[:, None] * basis,
            eigs,
            first.spectral_radius,
            (evaluation_matrix(modes, p, eps), _GAMMA0),
        ))
    return points


def build_system(
    config: MinkowskiConfig, tolerances: Tolerances | None = None
) -> CausalFermionSystem:
    """System with one point per sample coordinate, spin dimension two.

    Point ids are ``p0000, p0001, ...`` in sample order; the coordinates and
    generator parameters are kept in the metadata so that reports and the
    Clifford-frame constructor can refer back to them.  The points are
    generated ones (:func:`local_correlation`), holding no f x f array.
    """
    if not config.sample_points:
        raise ValidationError("config has no sample points")
    return _build_system(config, build_modes(config), tolerances)


def _translated_system(config: MinkowskiConfig) -> CausalFermionSystem:
    """:func:`build_system`'s system without an f x f eigendecomposition,
    for ``cfslab generate``.

    A file keeps only the matrices, which every point forms and symmetrizes
    as ``build_system``'s do, so the bytes written are the same; every point
    after the first takes its image basis as a translate of the first's
    (:func:`_translates`) instead of from its own ``eigh``.  The points are
    generated ones, each holding its 4 x f evaluation matrix, and the writer
    forms each point's product, not its symmetrized matrix, when it writes
    that point's triangle (``OperatorPoint._tril``).  This path goes away
    once ``build_system`` itself builds from translates.
    """
    if not config.sample_points:
        raise ValidationError("config has no sample points")
    modes = build_modes(config)
    ops = _translates(modes, config.eps, config.sample_points)
    return _build_system(config, modes, ops=ops)


def _build_system(config, modes: ModeSet, tolerances=None, ops=None) -> CausalFermionSystem:
    """The system of ``config``; ``ops`` are its points in sample order,
    each decomposed as by :func:`local_correlation` when not given."""
    if ops is None:
        waves = (evaluation_matrix(modes, p, config.eps) for p in config.sample_points)
        ops = OperatorPoint._from_waves(waves, _GAMMA0)
    weights = config.weights or tuple(1.0 for _ in config.sample_points)
    points = []
    coords = {}
    for k, (p, w, op) in enumerate(zip(config.sample_points, weights, ops)):
        pid = f"p{k:04d}"
        points.append((pid, w, op))
        coords[pid] = [float(c) for c in p]
    metadata = {
        "generator": "minkowski",
        "mass": config.mass,
        "eps": config.eps,
        "torus_radius": config.torus_radius,
        "kmax": config.kmax,
        "coordinates": coords,
    }
    return CausalFermionSystem(2, points, tolerances=tolerances, metadata=metadata)


def modes_for_system(system: CausalFermionSystem) -> ModeSet:
    """Rebuild the mode set of a system generated by :func:`build_system`."""
    md = system.metadata
    if md.get("generator") != "minkowski":
        raise ValidationError("system was not generated from a Minkowski config")
    try:
        fields = {k: md[k] for k in ("mass", "eps", "torus_radius", "kmax")}
    except KeyError as exc:
        raise ValidationError(f"system metadata lacks the generator field {exc}") from None
    modes = build_modes(MinkowskiConfig(**fields, sample_points=((0.0, 0.0, 0.0, 0.0),)))
    if len(modes) != system.f:
        raise ValidationError(f"metadata's kmax gives f={len(modes)}, the points f={system.f}")
    return modes


# ---------------------------------------------------------------------------
# distinguished Clifford subspaces


def _minkowski_frame(xi=None):
    """Pseudo-orthonormal coordinate frame, time axis along ``xi`` if timelike."""
    axes = [np.eye(4)[j] for j in range(4)]
    if xi is None:
        return axes
    xi = np.asarray(xi, dtype=float)
    q = float(xi @ _ETA @ xi)
    if not math.isfinite(q):
        raise ValidationError("the Minkowski interval of a coordinate difference overflows")
    if q <= 0:
        return axes
    e0 = xi / math.sqrt(q)
    if e0[0] < 0:
        e0 = -e0
    frame = [e0]
    for cand in (axes[1], axes[2], axes[3], axes[0]):
        v = cand.astype(float)
        for e in frame:
            ee = float(e @ _ETA @ e)
            v = v - (float(v @ _ETA @ e) / ee) * e
        vv = float(v @ _ETA @ v)
        if abs(vv) < 1e-12:
            continue
        frame.append(v / math.sqrt(abs(vv)))
        if len(frame) == 4:
            break
    if len(frame) != 4:
        raise ValidationError("could not complete the adapted frame")
    return frame


def _isometry(system: CausalFermionSystem, modes: ModeSet, coords: dict, pid: str):
    """Evaluation isometry of a point's spin space into the spinors at
    ``coords[pid]``, and its left inverse through the spin inner product."""
    x = system.point(pid)
    if not x.is_regular(system.n):
        raise ValidationError(f"point {pid!r} is singular")
    spin_sp = x.spin_space()
    iota = evaluation_matrix(modes, coords[pid], system.metadata["eps"]) @ spin_sp.basis
    iota_inv = (1.0 / spin_sp.gram_diag)[:, None] * (iota.conj().T @ _GAMMA0)
    return iota, iota_inv


def _coordinates(system: CausalFermionSystem) -> dict:
    """Sample coordinates of a system whose points :func:`evaluation_matrix`
    reproduces, as four finite floats per point id; metadata naming another
    damping kernel is refused."""
    md = system.metadata
    if md.get("damping", "exponential") != "exponential":
        raise ValidationError(f"unsupported damping kernel {md['damping']!r}")
    try:
        table = np.array([md["coordinates"][pid] for pid in system.ids], dtype=float)
    except (KeyError, TypeError, ValueError):
        table = np.zeros(0)
    if table.shape != (len(system), 4) or not np.isfinite(table).all():
        raise ValidationError("system metadata needs four finite coordinates for every point")
    return dict(zip(system.ids, table))


def dirac_frame(
    system: CausalFermionSystem,
    modes: ModeSet,
    x_id: str,
    y_id: str | None = None,
) -> CliffordSubspace:
    """Distinguished Clifford subspace at a point of a Minkowski system.

    The ambient Dirac matrices, contracted with a pseudo-orthonormal frame
    adapted to the pair's relative direction (time axis along the coordinate
    difference when it is timelike), are pulled back to the spin space
    through the damped evaluation isometry.  The result has signature (1, 3).
    """
    coords = _coordinates(system)
    iota, iota_inv = _isometry(system, modes, coords, x_id)
    xi = None if y_id in (None, x_id) else coords[y_id] - coords[x_id]
    gens = tuple(
        iota_inv @ gamma_contract(e) @ iota for e in _minkowski_frame(xi)
    )
    return verify_clifford(gens, system.spin_space(x_id), tol=1e-7)


def clifford_provider(system: CausalFermionSystem, modes: ModeSet | None = None):
    """Pair-indexed Clifford subspace provider for a Minkowski system.

    ``provide(a_id, None)`` is the coordinate frame at ``a``, the tangent
    representative of the metric connection.
    """
    _coordinates(system)
    if modes is None:
        modes = modes_for_system(system)
    cache: dict = {}

    def provide(a_id: str, b_id: str | None) -> CliffordSubspace:
        key = (a_id, b_id)
        if key not in cache:
            cache[key] = dirac_frame(system, modes, a_id, b_id)
        return cache[key]

    return provide


# ---------------------------------------------------------------------------
# flat-space transport studies


def _transport_deviations(system, modes: ModeSet, path_ids) -> dict:
    """Deviations of the composed spin and metric transports from the identity.

    Both transports read their frames from one provider.  The spin transport
    (default phase, Clifford-frame splices) is identified between the
    endpoint spin spaces through the evaluation isometries; its deviation is
    the Frobenius distance to the nearest unitary multiple of the identity,
    since the physical transport is defined up to a global phase.  The metric
    transport takes every point's coordinate frame as its tangent
    representative and scans the connection phase.  Subspace mismatches are
    accepted up to 0.2 and reported.  That tolerance covers the scan, not the
    geometry: when the best grid phase is the first one, at
    ``pi/2 + pi/160``, the golden-section bracket starts there, so the
    interval below it, where these pairs' minimum lies, is never searched,
    and the scan returns a residual of about 1e-2.  Its composite acts on
    matched frame labels, so the identity is the exact flat-space reference.
    """
    from .spin import compose_transport, metric_connection

    provider = clifford_provider(system, modes)
    total, records = compose_transport(system, path_ids, provider)
    coords = _coordinates(system)
    iota = _isometry(system, modes, coords, path_ids[-1])[0]
    mapped = iota @ total @ _isometry(system, modes, coords, path_ids[0])[1]
    # min over |c| = 1 of |T - c 1|^2 is |T|^2 + dim - 2 |tr T|
    sq = float(np.linalg.norm(mapped)) ** 2 + mapped.shape[0]
    spin_dev = math.sqrt(max(sq - 2.0 * abs(complex(np.trace(mapped))), 0.0))
    worst = max((r["unitarity"] for r in records), default=0.0)
    comp = np.eye(4)
    for y_id, x_id in zip(path_ids, path_ids[1:]):
        mt = metric_connection(
            system, x_id, y_id,
            provider(x_id, None), provider(y_id, None),
            provider(x_id, y_id), provider(y_id, x_id), cond2_tol=0.2,
        )
        comp = mt.matrix @ comp
        worst = max(worst, mt.residuals["span"], mt.residuals["isometry"])
    return {
        "spin_deviation": spin_dev,
        "frame_deviation": float(np.linalg.norm(comp - np.eye(4))),
        "max_segment_residual": worst,
    }


def transport_study(
    base_config: MinkowskiConfig,
    eps_list,
    refine_list,
    duration: float = 0.6,
) -> list[dict]:
    """Convergence table for transport along a purely timelike geodesic.

    For every regularization length and every segment count, a system is
    built on the equally spaced path points and both the spin and the frame
    transport deviations from the identity are recorded.  The mode set
    depends on neither, so it is built once.  Every path starts at the
    origin, and its points are exact time translates of the origin's
    (:func:`_translates`), so one decomposition of the origin's point per
    regularization length, by the range finder, serves every segment count.

    The other caller of :func:`_translates` is ``cfslab generate``, which
    writes only the matrices.  :func:`build_system` still decomposes each
    point on its own.  Translates pick another basis inside the degenerate
    eigenspaces, and the Clifford-frame splices of spin transport along a
    general path depend on that basis (``_eta_frame`` pivots on form values
    that tie to rounding), so switching the builder would move those outputs.
    """
    modes = build_modes(base_config)
    paths = [
        tuple((duration * k / n_steps, 0.0, 0.0, 0.0) for k in range(n_steps + 1))
        for n_steps in refine_list
    ]
    if not paths:
        return []
    coords = list(dict.fromkeys(p for pts in paths for p in pts))
    rows = []
    for eps in eps_list:
        ops = dict(zip(coords, _translates(modes, float(eps), coords)))
        for n_steps, pts in zip(refine_list, paths):
            cfg = replace(base_config, eps=float(eps), sample_points=pts)
            system = _build_system(cfg, modes, ops=[ops[p] for p in pts])
            dev = _transport_deviations(system, modes, list(system.ids))
            rows.append({"eps": float(eps), "n_steps": int(n_steps), **dev})
    return rows


# ---------------------------------------------------------------------------
# mixtures


@dataclass(frozen=True)
class MixtureSpec:
    """A finite convex combination of systems over a shared Hilbert space."""

    systems: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.systems) != len(self.weights) or not self.systems:
            raise ValidationError("systems and weights must match and be nonempty")
        if not all(_real(w) and w >= 0 for w in self.weights):
            raise ValidationError("mixture weights must be nonnegative numbers")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValidationError("mixture weights must sum to one")


def mix_systems(spec: MixtureSpec) -> CausalFermionSystem:
    """Union of the component point lists with rescaled weights.

    Point ids are prefixed with the component index, so the support of the
    mixture is the disjoint union of the component supports even when the
    same operators occur in several components.
    """
    first = spec.systems[0]
    for s in spec.systems[1:]:
        if (s.n, s.f) != (first.n, first.f):
            raise DimensionMismatchError(
                "mixture components must share spin and Hilbert dimensions"
            )
    points = []
    for k, (s, w) in enumerate(zip(spec.systems, spec.weights)):
        for e in s.points:
            points.append((f"m{k}:{e.id}", w * e.weight, e.op))
    metadata = {
        "generator": "mixture",
        "weights": [float(w) for w in spec.weights],
        "components": [s.metadata for s in spec.systems],
    }
    return CausalFermionSystem(
        first.n, points, tolerances=first.tolerances, metadata=metadata
    )
