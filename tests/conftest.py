"""Shared generators and oracles for the test suite."""

import numpy as np
import pytest
import scipy.linalg

from cfslab.core import CausalFermionSystem, OperatorPoint


def random_point(f, pos, neg, rng, lam_lo=0.5, lam_hi=2.0):
    """Random self-adjoint operator with ``pos`` positive and ``neg`` negative
    eigenvalues in [lam_lo, lam_hi] magnitude."""
    a = rng.normal(size=(f, pos + neg)) + 1j * rng.normal(size=(f, pos + neg))
    q, _ = np.linalg.qr(a)
    lam = np.concatenate(
        [rng.uniform(lam_lo, lam_hi, pos), -rng.uniform(lam_lo, lam_hi, neg)]
    )
    return OperatorPoint((q * lam) @ q.conj().T)


def random_regular_point(f, n, rng, lam_lo=0.5, lam_hi=2.0):
    """Random rank-2n self-adjoint operator with n positive and n negative
    eigenvalues in [lam_lo, lam_hi] magnitude."""
    return random_point(f, n, n, rng, lam_lo, lam_hi)


def mixed_rank_system(n_points, f, n, rng):
    """System whose signatures cycle through every (pos, neg) up to (n, n),
    so ranks run from 0 to 2n."""
    sigs = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    pts = [
        (f"p{k:04d}", 1.0, random_point(f, *sigs[k % len(sigs)], rng))
        for k in range(n_points)
    ]
    return CausalFermionSystem(n, pts)


def random_regular_system(n_points, f, n, rng, weights=None):
    pts = [
        (f"p{k:04d}", 1.0 if weights is None else weights[k], random_regular_point(f, n, rng))
        for k in range(n_points)
    ]
    return CausalFermionSystem(n, pts)


def sorted_eigenvectors(x):
    """All f eigenvectors of ``x``, ordered as ``OperatorPoint`` orders its
    eigenvalues (descending), so the null-space columns sit between the
    positive and the negative ones."""
    w, v = np.linalg.eigh(x.matrix)
    return v[:, np.argsort(-w, kind="stable")]


def nearby_point(x, rng, rotation=0.1, n=None):
    """A regular point with slightly rotated eigenbasis and fresh eigenvalues.

    Pairs (x, nearby_point(x)) are almost surely properly timelike separated
    because the closed chain stays close to the positive definite self case.
    """
    f = x.f
    n = n or x.pos_eigs
    k = rng.normal(size=(f, f)) + 1j * rng.normal(size=(f, f))
    k = 0.5 * (k - k.conj().T)
    w = scipy.linalg.expm(rotation * k)
    basis = w @ sorted_eigenvectors(x)[:, : 2 * n]
    lam = np.concatenate(
        [rng.uniform(0.8, 1.8, n), -rng.uniform(0.8, 1.8, n)]
    )
    return OperatorPoint((basis * lam) @ basis.conj().T)


def connectable_pair_system(f, n, rng, rotation=0.15):
    x = random_regular_point(f, n, rng)
    y = nearby_point(x, rng, rotation=rotation, n=n)
    return CausalFermionSystem(n, [("x", 1.0, x), ("y", 1.0, y)])


def full_product_spectrum(x, y, n):
    """Independent oracle: nontrivial product eigenvalues from the dense
    f x f eigendecomposition, zero-padded to 2n slots."""
    lam = np.linalg.eigvals(x.matrix @ y.matrix)
    lam = lam[np.argsort(-np.abs(lam))]
    out = np.zeros(2 * n, dtype=np.complex128)
    keep = min(2 * n, lam.size)
    out[:keep] = lam[:keep]
    return out


def match_multisets(u, v, rtol, atol=0.0):
    """Greedy multiset matching of two complex spectra within tolerance."""
    v = list(np.asarray(v))
    scale = max(np.abs(u).max(initial=0.0), np.abs(v).max(initial=0.0), 1e-300)
    for a in np.asarray(u):
        j = min(range(len(v)), key=lambda i: abs(v[i] - a))
        if abs(v[j] - a) > rtol * scale + atol:
            return False
        v.pop(j)
    return True


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Shapes of the matrices ``np.linalg.eigh`` is called on in the test."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return shapes


@pytest.fixture(scope="session")
def small_minkowski():
    """Shared desk-scale system: 6 points on and off the time axis, kmax=1."""
    from cfslab import minkowski as mk

    cfg = mk.MinkowskiConfig(
        mass=1.0,
        eps=1e-3,
        torus_radius=0.8,
        kmax=1,
        sample_points=(
            (0.0, 0.0, 0.0, 0.0),
            (0.2, 0.0, 0.0, 0.0),
            (0.4, 0.0, 0.0, 0.0),
            (0.6, 0.0, 0.0, 0.0),
            (0.0, 0.5, 0.0, 0.0),
            (0.05, 0.0, 0.45, 0.0),
        ),
    )
    system = mk.build_system(cfg)
    modes = mk.build_modes(cfg)
    return cfg, system, modes
