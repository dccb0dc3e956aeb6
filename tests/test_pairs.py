"""Batched pair engine against dense f x f oracles and the per-pair functions."""

import sys
import threading

import numpy as np
import pytest

from cfslab.core import (
    CausalClass,
    CausalFermionSystem,
    OperatorPoint,
    classify,
    classify_spectrum,
    product_spectrum,
    time_direction,
    time_orientation,
)
from cfslab.errors import ValidationError
from cfslab.pairs import PairEngine, resolve_workers

from conftest import (
    full_product_spectrum,
    full_time_direction,
    mixed_rank_system,
    random_point,
    random_regular_system,
)

_CLS = {0: CausalClass.SPACELIKE, 1: CausalClass.TIMELIKE, 2: CausalClass.LIGHTLIKE}


def assert_matches_oracle(res, system, i, j):
    """Entry (i, j) of an analysis against the dense f x f oracles."""
    x, y, tol = system.points[i].op, system.points[j].op, system.tolerances
    spectrum = full_product_spectrum(x, y, system.n)
    assert _CLS[res.codes[i, j]] is classify_spectrum(spectrum, tol)
    c = full_time_direction(x, y)
    assert res.cvals[i, j] == pytest.approx(c, rel=1e-9, abs=1e-12)
    thr = tol.imag_rel * x.spectral_radius * y.spectral_radius
    assert res.orientation[i, j] == (c > thr) - (c < -thr)
    sr = np.abs(spectrum).max()
    assert res.specrad[i, j] == pytest.approx(sr, rel=1e-9, abs=1e-300)


def assert_identical(a, b):
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.orientation, b.orientation)
    assert np.array_equal(a.cvals, b.cvals)
    assert np.array_equal(a.specrad, b.specrad)


class TestEngineAgainstCore:
    def test_matches_per_pair_functions(self):
        rng = np.random.default_rng(90)
        system = random_regular_system(30, 12, 2, rng)
        res = PairEngine(system, workers=1).analyze()
        tol = system.tolerances
        for i, ei in enumerate(system.points):
            for j, ej in enumerate(system.points):
                if i == j:
                    continue
                assert_matches_oracle(res, system, i, j)
                assert _CLS[res.codes[i, j]] is classify(ei.op, ej.op, tol, n=2)
                c = time_direction(ei.op, ej.op)
                assert res.cvals[i, j] == pytest.approx(c, rel=1e-9, abs=1e-12)
                assert res.orientation[i, j] == time_orientation(ei.op, ej.op, tol)
                sr = np.abs(product_spectrum(ei.op, ej.op, 2)).max()
                assert res.specrad[i, j] == pytest.approx(sr, rel=1e-9)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(91)
        system = random_regular_system(25, 8, 2, rng)
        res = PairEngine(system, workers=1).analyze()
        assert np.array_equal(res.cvals, -res.cvals.T)
        assert np.array_equal(res.orientation, -res.orientation.T)
        assert np.array_equal(res.codes, res.codes.T)
        assert np.all(np.diag(res.cvals) == 0.0)

    def test_spans_multiple_blocks(self):
        # 70 points span three 32-wide tiles, the last one partial
        rng = np.random.default_rng(92)
        system = random_regular_system(70, 6, 1, rng)
        res = PairEngine(system, workers=1).analyze()
        for i, j in [(0, 65), (63, 64), (69, 1)]:
            assert_matches_oracle(res, system, i, j)
            x, y = system.points[i].op, system.points[j].op
            assert _CLS[res.codes[i, j]] is classify(x, y, system.tolerances, n=1)
            assert res.cvals[i, j] == pytest.approx(
                time_direction(x, y), rel=1e-9, abs=1e-12
            )

    def test_byte_identity_across_workers(self):
        # 150 points span five 32-wide tiles per row, the last one partial;
        # 8 workers are more threads than tiles in a row and than cores.
        rng = np.random.default_rng(93)
        system = random_regular_system(150, 8, 2, rng)
        r1 = PairEngine(system, workers=1).analyze()
        for workers in (2, 3, 8):
            assert_identical(r1, PairEngine(system, workers=workers).analyze())

    def test_concurrent_analyses_agree(self):
        rng = np.random.default_rng(94)
        system = random_regular_system(100, 8, 2, rng)
        want = PairEngine(system, workers=1).analyze()
        results = [None, None]

        def run(k):
            results[k] = PairEngine(system, workers=2).analyze()

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got is not None
            assert_identical(got, want)

    def test_singular_points_match_per_pair_functions(self):
        # ranks 0 to 4 over 40 points, which span two 32-wide tiles
        rng = np.random.default_rng(95)
        system = mixed_rank_system(40, 6, 2, rng)
        assert {e.op.rank for e in system.points} == {0, 1, 2, 3, 4}
        res = PairEngine(system, workers=2).analyze()
        tol = system.tolerances
        for i, ei in enumerate(system.points):
            for j, ej in enumerate(system.points):
                if i == j:
                    continue
                assert_matches_oracle(res, system, i, j)
                x, y = ei.op, ej.op
                assert _CLS[res.codes[i, j]] is classify(x, y, tol, n=2)
                assert res.orientation[i, j] == time_orientation(x, y, tol)
                c = time_direction(x, y)
                assert res.cvals[i, j] == pytest.approx(c, rel=1e-9, abs=1e-12)
                sr = np.abs(product_spectrum(x, y, 2)).max()
                assert res.specrad[i, j] == pytest.approx(sr, rel=1e-9, abs=1e-300)

    def test_rank_one_point_nearly_in_the_kernel(self):
        # y = |v><v| with v in ker(x) up to a 1e-5 component in its image:
        # xy has the real spectrum {lambda, 0, 0, 0} with |lambda| ~ 3e-10.
        # Multiplying by the full matrix of y let its rounding, of order
        # 1e-16, decide the class; the factors of y carry none of it.
        rng = np.random.default_rng(0)
        x = random_point(10, 2, 1, rng)
        bx = x.image_basis()
        k = rng.normal(size=10) + 1j * rng.normal(size=10)
        k -= bx @ (bx.conj().T @ k)
        v = k / np.linalg.norm(k) + 1e-5 * (bx[:, :2] @ (rng.normal(size=2) + 1j * rng.normal(size=2)))
        y = OperatorPoint(np.outer(v, v.conj()) / np.vdot(v, v).real)
        assert y.rank == 1
        system = CausalFermionSystem(2, [("x", 1.0, x), ("y", 1.0, y)])
        res = PairEngine(system, workers=1).analyze()
        assert classify(x, y, system.tolerances, n=2) is CausalClass.TIMELIKE
        assert _CLS[res.codes[0, 1]] is CausalClass.TIMELIKE
        spectrum = product_spectrum(x, y, 2)
        assert np.abs(spectrum.imag).max() <= 1e-12 * np.abs(spectrum).max()

        # y = 1.3 |v><v| with v in the image of x and <v|x|v> 1e-6 to 1e-5 of
        # |x|: the product on the side of x, of rank 3, is near-defective and
        # rounding put imaginary parts above imag_rel on its zero
        # eigenvalues.  On the side of y the spectrum {lambda, 0, 0, 0} is
        # exact, in both orders.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = random_point(10, 2, 1, rng)
            lx = x.nonzero_eigenvalues()
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            q = lx[0] * abs(c[0]) ** 2 + lx[1] * abs(c[1]) ** 2
            target = 10.0 ** rng.uniform(-6, -5) * np.abs(lx).max()
            c[2] *= np.sqrt((q - target) / -lx[2]) / abs(c[2])
            v = x.image_basis() @ c
            v /= np.linalg.norm(v)
            y = OperatorPoint(1.3 * np.outer(v, v.conj()))
            assert y.rank == 1
            assert classify(x, y, n=2) is CausalClass.TIMELIKE
            assert classify(y, x, n=2) is CausalClass.TIMELIKE
            for pts in ([("x", 1.0, x), ("y", 1.0, y)], [("y", 1.0, y), ("x", 1.0, x)]):
                res = PairEngine(CausalFermionSystem(2, pts), workers=1).analyze()
                assert _CLS[res.codes[0, 1]] is CausalClass.TIMELIKE
            assert np.count_nonzero(product_spectrum(x, y, 2) == 0) == 3


class TestWorkerResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("CFSLAB_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CFSLAB_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("CFSLAB_WORKERS", raising=False)
        assert resolve_workers(None) >= 1

    def test_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("CFSLAB_WORKERS", "abc")
        with pytest.raises(ValidationError, match="CFSLAB_WORKERS='abc'"):
            resolve_workers(None)
