"""Hilbert-Schmidt distance, trace metric, tangent projection, retraction."""

import warnings

import numpy as np
import pytest

from cfslab.ambient import (
    TangentVector,
    hs_distance,
    metric_h,
    project_tangent,
    retract,
)
from cfslab.core import OperatorPoint
from cfslab.errors import DimensionMismatchError, LeftManifoldError, ValidationError

from conftest import random_regular_point, sorted_eigenvectors


def random_tangent(x, rng, scale=1.0):
    f = x.f
    w = rng.normal(size=(f, f)) + 1j * rng.normal(size=(f, f))
    w = 0.5 * (w + w.conj().T)
    return project_tangent(x, scale * w)


class TestDistance:
    def test_coincident(self):
        x = OperatorPoint(np.diag([1.0, -1.0]))
        assert hs_distance(x, x) == 0.0

    def test_hand_example(self):
        x = OperatorPoint(np.diag([1.0, -1.0]))
        y = OperatorPoint(np.diag([1.0, 1.0]))
        assert hs_distance(x, y) == pytest.approx(2.0)

    def test_norm_axioms(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            a = random_regular_point(6, 1, rng)
            b = random_regular_point(6, 1, rng)
            c = random_regular_point(6, 1, rng)
            assert hs_distance(a, b) == pytest.approx(hs_distance(b, a))
            assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-12

    def test_huge_entries(self):
        # squared entries above about 1e154 overflow an unscaled norm
        x = OperatorPoint(np.diag([1e200, -1e200, 0.0]))
        y = OperatorPoint(np.diag([-1e200, 1e200, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hs_distance(x, y) == pytest.approx(np.sqrt(8.0) * 1e200)
            assert TangentVector(x, 1e200 * np.eye(3)).norm == pytest.approx(np.sqrt(3.0) * 1e200)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_distance(
                OperatorPoint(np.diag([1.0, -1.0])),
                OperatorPoint(np.diag([1.0, -1.0, 0.0])),
            )


class TestMetric:
    def test_unit_direction(self):
        x = random_regular_point(4, 1, np.random.default_rng(61))
        u = np.zeros((4, 4))
        u[0, 0] = 1.0
        tv = TangentVector(x, u.astype(complex))
        assert metric_h(x, tv, tv) == pytest.approx(1.0)

    def test_positive_definite(self):
        rng = np.random.default_rng(62)
        x = random_regular_point(8, 2, rng)
        for _ in range(100):
            u = random_tangent(x, rng)
            if u.norm == 0:
                continue
            assert metric_h(x, u, u) > 0
            assert metric_h(x, u, u) == pytest.approx(u.norm**2)

    def test_quadratic_expansion_exact(self):
        rng = np.random.default_rng(63)
        x = random_regular_point(8, 2, rng)
        for t in (1e-3, 1e-2, 0.1):
            u = random_tangent(x, rng, scale=0.05)
            stepped = OperatorPoint(x.matrix + t * u.matrix)
            lhs = hs_distance(x, stepped) ** 2
            rhs = t * t * metric_h(x, u, u)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_first_derivative_vanishes(self):
        rng = np.random.default_rng(64)
        x = random_regular_point(8, 2, rng)
        u = random_tangent(x, rng)
        u = TangentVector(x, u.matrix / u.norm)
        step = 1e-4

        def sq(t):
            return hs_distance(x, OperatorPoint(x.matrix + t * u.matrix)) ** 2

        derivative = (sq(step) - sq(-step)) / (2 * step)
        assert abs(derivative) < 1e-6


class TestProjection:
    def test_image_supported_unchanged(self):
        rng = np.random.default_rng(65)
        x = random_regular_point(8, 2, rng)
        b = x.image_basis()
        h = rng.normal(size=(4, 4))
        h = h + h.T
        w = b @ h @ b.conj().T
        out = project_tangent(x, w)
        assert np.linalg.norm(out.matrix - w) < 1e-12 * np.linalg.norm(w)

    def test_kernel_block_removed(self):
        rng = np.random.default_rng(66)
        x = random_regular_point(8, 2, rng)
        nullb = sorted_eigenvectors(x)[:, x.pos_eigs : x.f - x.neg_eigs]
        h = rng.normal(size=(4, 4))
        h = h + h.T
        w = nullb @ h @ nullb.conj().T
        out = project_tangent(x, w)
        assert np.linalg.norm(out.matrix) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(67)
        x = random_regular_point(8, 2, rng)
        w = rng.normal(size=(8, 8))
        w = w + w.T
        once = project_tangent(x, w)
        twice = project_tangent(x, once.matrix)
        assert np.linalg.norm(once.matrix - twice.matrix) < 1e-12

    def test_generated_base_matrix_not_formed(self, monkeypatch):
        # the shape checks read f; only a generated point's matrix is formed
        from cfslab import core
        from cfslab import minkowski as mk

        cfg = mk.MinkowskiConfig(kmax=1, sample_points=((0, 0, 0, 0),))
        x = mk.local_correlation(mk.build_modes(cfg), (0.1, 0.2, 0.0, -0.1), 1e-3)
        w = np.eye(x.f)

        def refuse(*args):
            raise AssertionError("matrix formed")

        monkeypatch.setattr(core, "_wave_product", refuse)
        u = project_tangent(x, w)
        assert TangentVector(x, u.matrix).matrix.shape == (x.f, x.f)
        with pytest.raises(DimensionMismatchError):
            project_tangent(x, np.eye(x.f + 1))
        with pytest.raises(DimensionMismatchError):
            TangentVector(x, np.eye(x.f - 1))

    def test_rejects_non_selfadjoint(self):
        x = random_regular_point(6, 1, np.random.default_rng(68))
        with pytest.raises(ValidationError):
            project_tangent(x, np.triu(np.ones((6, 6)), k=1))

    @pytest.mark.parametrize(
        "bad",
        [np.full((6, 6), np.nan), np.diag([np.inf, 1, 1, 1, 1, 1]), np.ones((6, 5)), np.eye(4)],
        ids=["nan", "inf", "non-square", "wrong-size"],
    )
    def test_rejects_what_a_point_would(self, bad):
        # the self-adjointness rule of a point's matrix, without numpy warnings
        x = random_regular_point(6, 1, np.random.default_rng(68))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                project_tangent(x, bad)
            with pytest.raises(ValidationError):
                TangentVector(x, bad)


class TestRetract:
    def test_zero_step(self):
        rng = np.random.default_rng(69)
        x = random_regular_point(8, 2, rng)
        u = random_tangent(x, rng)
        out = retract(x, u, 0.0)
        assert hs_distance(x, out) < 1e-12

    def test_eigenvalue_perturbation_first_order(self):
        # oracle: finite differences of the exact eigenvalues against the
        # first-order formula <v | u | v> for simple eigenvalues
        rng = np.random.default_rng(70)
        x = random_regular_point(8, 2, rng)
        u = random_tangent(x, rng)
        u = TangentVector(x, u.matrix / u.norm)
        lam0 = x.nonzero_eigenvalues()
        vecs = x.image_basis()
        predicted = np.real(
            np.array([np.vdot(vecs[:, k], u.matrix @ vecs[:, k]) for k in range(4)])
        )
        t = 1e-6
        plus = retract(x, u, t).nonzero_eigenvalues()
        minus = retract(x, u, -t).nonzero_eigenvalues()
        fd = (plus - minus) / (2 * t)
        assert np.allclose(fd, predicted, atol=1e-4)

    def test_signature_violation_raises(self):
        x = OperatorPoint(np.diag([1.0, -0.1, 0.0, 0.0]))
        direction = np.zeros((4, 4), dtype=complex)
        direction[1, 1] = 1.0
        u = TangentVector(x, direction)
        with pytest.raises(LeftManifoldError) as err:
            retract(x, u, 0.5)  # pushes the negative eigenvalue across zero
        assert len(err.value.args) >= 2  # offending eigenvalues attached

    def test_one_eigendecomposition(self, monkeypatch):
        # the retracted point is built from the eigenpairs the truncation kept
        rng = np.random.default_rng(71)
        x = random_regular_point(8, 2, rng)
        u = random_tangent(x, rng)
        eigh = np.linalg.eigh
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        out = retract(x, u, 1e-3)
        monkeypatch.undo()
        assert calls == [(8, 8)]
        want = OperatorPoint(out.matrix)
        assert np.allclose(out.nonzero_eigenvalues(), want.nonzero_eigenvalues(), atol=1e-12)
        b, c = out.image_basis(), want.image_basis()
        assert np.allclose(b @ b.conj().T, c @ c.conj().T, atol=1e-10)

    def test_kept_eigenvalue_below_zero_cut_raises(self):
        # the signature still splits (1, 1), but the negative eigenvalue is
        # pushed to -1e-14, below the zero cut
        x = OperatorPoint(np.diag([1.0, -1.0, 0.0, 0.0]))
        direction = np.zeros((4, 4), dtype=complex)
        direction[1, 1] = 1.0 - 1e-14
        with pytest.raises(LeftManifoldError):
            retract(x, TangentVector(x, direction), 1.0)

    def test_unbalanced_signature_rejected(self):
        x = OperatorPoint(np.diag([1.0, 1.0, -1.0, 0.0]))
        u = TangentVector(x, np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValidationError):
            retract(x, u, 0.1)
