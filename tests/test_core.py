"""Operator points, product spectra, causal classification, time direction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfslab.core import (
    DEFAULT_TOL,
    CausalClass,
    CausalFermionSystem,
    OperatorPoint,
    Tolerances,
    classify,
    classify_spectrum,
    is_regular,
    product_spectrum,
    restrict_to_regular,
    spin_space,
    time_direction,
    time_orientation,
    _range_parts,
)
from cfslab.pairs import PairEngine
from cfslab.errors import (
    DimensionMismatchError,
    EmptySystemError,
    ValidationError,
)

from conftest import (
    full_product_spectrum,
    match_multisets,
    mixed_rank_system,
    random_point,
    random_regular_point,
    random_regular_system,
)


class TestOperatorPoint:
    def test_diagonal_bookkeeping(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        assert (x.rank, x.pos_eigs, x.neg_eigs) == (2, 1, 1)
        assert x.is_regular(1)
        assert not x.is_regular(2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            OperatorPoint(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_cutoff_is_scale_relative(self):
        x = OperatorPoint(np.diag([1e6, 1e-8, -1e6]))
        assert x.rank == 2  # 1e-8 is below 1e-12 * 1e6
        y = OperatorPoint(np.diag([1.0, 1e-8, -1.0]))
        assert y.rank == 3

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, complex(0.0, np.nan), complex(1.5e308, 1.5e308)]
    )
    def test_rejects_non_finite_entry(self, bad):
        # NaN compares false, so the Hermiticity test alone let it through;
        # the last entry has finite parts but a modulus that overflows
        m = np.diag([1.0, -1.0]).astype(complex)
        m[1, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            OperatorPoint(m)

    def test_rejects_non_hermitian_near_float64_limit(self):
        # the Frobenius norms of this matrix overflow unless taken scaled
        with pytest.raises(ValidationError, match="not self-adjoint"):
            OperatorPoint(np.array([[1e200, 1e200], [0.0, 1e200]]))

    def test_entries_near_float64_limit_stay_finite(self):
        x = OperatorPoint(np.diag([1.7e308, -1.0, 0.0]))
        assert np.isfinite(x.matrix).all()
        assert x.matrix[0, 0] == 1.7e308
        assert x.nonzero_eigenvalues()[0] == 1.7e308

    def test_singular_rank(self):
        assert not OperatorPoint(np.diag([2.0, 0.0])).is_regular(1)
        x = np.zeros((4, 4))
        x[0, 0] = x[1, 1] = 1.0
        x[2, 2] = -1.0
        assert not is_regular(OperatorPoint(x), 2)


def _range_point(matrix, max_rank):
    """The point of a Hermitian matrix decomposed by the range finder, as
    the reader of version 1 and 2 files builds it."""
    return OperatorPoint._from_factors(matrix, *_range_parts(matrix, max_rank, DEFAULT_TOL))


class TestRankBound:
    """:func:`_range_parts`: the constructor's rank decision without an
    f x f eigendecomposition."""

    @pytest.mark.parametrize("signature", [(2, 2), (2, 1), (0, 1), (0, 0)])
    def test_agrees_with_constructor(self, signature, eigh_shapes):
        rng = np.random.default_rng(61)
        x = random_point(64, *signature, rng)
        eigh_shapes.clear()
        y = _range_point(x.matrix, 4)
        assert (64, 64) not in eigh_shapes
        assert np.array_equal(y.matrix, x.matrix)
        assert (y.pos_eigs, y.neg_eigs) == signature
        lx, ly = x.nonzero_eigenvalues(), y.nonzero_eigenvalues()
        assert np.abs(ly - lx).max(initial=0.0) <= 1e-12 * x.spectral_radius
        assert y.spectral_radius == pytest.approx(x.spectral_radius, rel=1e-12, abs=1e-15)
        bx, by = x.image_basis(), y.image_basis()
        assert np.abs(by @ by.conj().T - bx @ bx.conj().T).max() <= 1e-12

    def test_small_f_takes_eigh(self, eigh_shapes):
        # below f = 4 (2n + 4) the full eigendecomposition is cheaper
        x = random_regular_point(16, 2, np.random.default_rng(62))
        eigh_shapes.clear()
        y = _range_point(x.matrix, 4)
        assert eigh_shapes == [(16, 16)]
        assert np.array_equal(y.image_basis(), x.image_basis())
        assert np.array_equal(y.nonzero_eigenvalues(), x.nonzero_eigenvalues())

    def test_huge_entries_fall_back_quietly(self, eigh_shapes):
        # ||A||_F overflows, so the residual bound cannot certify the rank
        m = 1e300 * random_regular_point(64, 2, np.random.default_rng(63)).matrix
        x = OperatorPoint(m)
        eigh_shapes.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = _range_point(x.matrix, 4)
        assert eigh_shapes.count((64, 64)) == 1
        assert np.array_equal(y.image_basis(), x.image_basis())
        assert np.array_equal(y.nonzero_eigenvalues(), x.nonzero_eigenvalues())

    def test_factors_are_read_only(self):
        x = random_regular_point(8, 2, np.random.default_rng(64))
        with pytest.raises(ValueError):
            x.image_basis()[0, 0] = 0.0
        with pytest.raises(ValueError):
            x.nonzero_eigenvalues()[0] = 0.0


class TestProductSpectrum:
    def test_diagonal_pair(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        lam = product_spectrum(x, x, 1)
        assert match_multisets(lam, [4.0, 1.0], 1e-12)

    def test_zero_operator(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        z = OperatorPoint(np.zeros((2, 2)))
        assert np.array_equal(product_spectrum(x, z, 1), np.zeros(2))
        assert product_spectrum(z, z, 0).shape == (0,)

    def test_dimension_mismatch(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        y = OperatorPoint(np.diag([2.0, -1.0, 0.0]))
        with pytest.raises(DimensionMismatchError):
            product_spectrum(x, y, 1)

    def test_matches_full_space_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = random_regular_point(8, 2, rng)
            y = random_regular_point(8, 2, rng)
            assert match_multisets(
                product_spectrum(x, y, 2), full_product_spectrum(x, y, 2), 1e-9
            )

    def test_refuses_either_rank_above_the_slots(self):
        x = OperatorPoint(np.diag([2.0, 0.0, 0.0]))
        y = OperatorPoint(np.diag([2.0, -1.0, 1.0]))
        for pair in ((x, y), (y, x)):
            with pytest.raises(ValidationError, match="rank 3 exceeds 2n=2"):
                product_spectrum(*pair, 1)

    def test_singular_x_gets_exact_zeros_in_its_padded_slots(self):
        rng = np.random.default_rng(10)
        for pos, neg in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            for _ in range(20):
                x = random_point(8, pos, neg, rng)
                y = random_regular_point(8, 2, rng)
                lam = product_spectrum(x, y, 2)
                assert np.count_nonzero(lam == 0) == 4 - x.rank
                want = full_product_spectrum(x, y, 2)[: x.rank]
                assert match_multisets(lam[lam != 0], want, 1e-9)

    def test_spectrum_of_xy_equals_yx(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = random_regular_point(6, 1, rng)
            y = random_regular_point(6, 1, rng)
            assert match_multisets(
                product_spectrum(x, y, 1), product_spectrum(y, x, 1), 1e-9
            )


class TestClassify:
    def test_diagonal_timelike(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        assert classify(x, x) is CausalClass.TIMELIKE

    def test_orthogonal_images_spacelike(self):
        x = OperatorPoint(np.diag([1.0, -1.0, 0.0, 0.0]))
        y = OperatorPoint(np.diag([0.0, 0.0, 1.0, -1.0]))
        assert classify(x, y) is CausalClass.SPACELIKE

    def test_modulus_test_runs_first(self):
        # all moduli equal but not all real: spacelike by evaluation order
        assert classify_spectrum([1.0, 1j, -1.0, -1j]) is CausalClass.SPACELIKE
        assert classify_spectrum([1.0, 2.0]) is CausalClass.TIMELIKE
        assert classify_spectrum([1.0, 2.0j]) is CausalClass.LIGHTLIKE

    def test_scaling_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = random_regular_point(8, 2, rng)
            y = random_regular_point(8, 2, rng)
            sx = OperatorPoint(3.7 * x.matrix)
            sy = OperatorPoint(3.7 * y.matrix)
            assert classify(sx, sy) is classify(x, y)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        for _ in range(20):
            x = random_regular_point(8, 2, rng)
            y = random_regular_point(8, 2, rng)
            ux = OperatorPoint(q @ x.matrix @ q.conj().T)
            uy = OperatorPoint(q @ y.matrix @ q.conj().T)
            assert classify(ux, uy) is classify(x, y)
            assert np.isclose(
                time_direction(ux, uy), time_direction(x, y), rtol=1e-9, atol=1e-12
            )

    def test_classification_symmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = random_regular_point(6, 1, rng)
            y = random_regular_point(6, 1, rng)
            assert classify(x, y) is classify(y, x)


class TestTimeDirection:
    def test_exactly_zero_on_diagonal(self):
        rng = np.random.default_rng(12)
        x = random_regular_point(8, 2, rng)
        assert time_direction(x, x) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = random_regular_point(8, 2, rng)
            y = random_regular_point(8, 2, rng)
            c_xy = time_direction(x, y)
            c_yx = time_direction(y, x)
            assert abs(c_xy + c_yx) <= 1e-12 * max(1.0, abs(c_xy))

    def test_system_n_matches_pair_engine(self):
        # ranks 0 to 4 in 2n = 4 slots: without n the slots are counted per
        # pair, and the padding moves 90 of these 780 time directions in
        # their last bits.  Exact equality, not bytes: the per-pair function
        # gives two equal (here zero) points +0.0, the engine -0.0
        system = mixed_rank_system(40, 6, 2, np.random.default_rng(95))
        analysis = PairEngine(system).analyze()
        ops = [e.op for e in system.points]
        for i, j in zip(*np.triu_indices(len(ops), 1)):
            assert time_direction(ops[i], ops[j], n=2) == analysis.cvals[i, j]
            assert time_orientation(ops[i], ops[j], n=2) == analysis.orientation[i, j]

    def test_orientation_thresholding(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        assert time_orientation(x, x) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    def test_antisymmetry_and_scaling_property(self, seed, scale):
        rng = np.random.default_rng(seed)
        x = random_regular_point(6, 1, rng)
        y = random_regular_point(6, 1, rng)
        c = time_direction(x, y)
        assert abs(c + time_direction(y, x)) <= 1e-12 * max(1.0, abs(c))
        sx = OperatorPoint(scale * x.matrix)
        sy = OperatorPoint(scale * y.matrix)
        assert classify(sx, sy) is classify(x, y)


class TestSpinSpace:
    def test_unit_diagonal(self):
        x = OperatorPoint(np.diag([1.0, -1.0]))
        sp = spin_space(x)
        assert np.allclose(np.abs(sp.basis), np.eye(2))
        assert np.allclose(np.diag(sp.gram), [-1.0, 1.0])

    def test_gram_matches_eigenvalues(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        assert np.allclose(np.diag(spin_space(x).gram), [-2.0, 1.0])

    def test_random_regular_signature(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = random_regular_point(10, 2, rng)
            sp = x.spin_space()
            # the defining formula puts the minus sign on the positive
            # eigenvectors, so the inertia counts swap roles
            assert sp.signature == (x.neg_eigs, x.pos_eigs) == (2, 2)
            assert np.linalg.cond(sp.gram) < 1e12

    def test_gram_is_spin_scalar_product(self):
        rng = np.random.default_rng(15)
        x = random_regular_point(8, 2, rng)
        sp = x.spin_space()
        u = sp.basis[:, 1]
        v = sp.basis[:, 2]
        direct = -np.vdot(u, x.matrix @ v)
        assert abs(sp.inner(np.eye(4)[1], np.eye(4)[2]) - direct) < 1e-12


class TestSystem:
    def test_invariants(self):
        rng = np.random.default_rng(16)
        with pytest.raises(EmptySystemError):
            CausalFermionSystem(2, [])
        x = random_regular_point(8, 2, rng)
        with pytest.raises(ValidationError):
            CausalFermionSystem(1, [("a", 1.0, x)])  # signature exceeds n
        with pytest.raises(ValidationError):
            CausalFermionSystem(2, [("a", -1.0, x)])
        with pytest.raises(ValidationError):
            CausalFermionSystem(2, [("a", 0.0, x)])
        with pytest.raises(ValidationError):
            CausalFermionSystem(2, [("a", 1.0, x), ("a", 1.0, x)])
        for weight in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="non-finite"):
                CausalFermionSystem(2, [("a", 1.0, x), ("b", weight, x)])

    def test_restrict_to_regular_identity(self):
        rng = np.random.default_rng(17)
        system = random_regular_system(4, 8, 2, rng)
        assert restrict_to_regular(system) is system

    def test_restrict_drops_singular(self):
        rng = np.random.default_rng(18)
        good = [random_regular_point(6, 1, rng) for _ in range(3)]
        bad = OperatorPoint(np.diag([1.0, 0, 0, 0, 0, 0]))
        system = CausalFermionSystem(
            1,
            [("g0", 1.0, good[0]), ("s", 1.0, bad), ("g1", 1.0, good[1]), ("g2", 1.0, good[2])],
        )
        out = restrict_to_regular(system)
        assert out.ids == ("g0", "g1", "g2")
        assert all(e.op.is_regular(1) for e in out.points)
        assert [e.weight for e in out.points] == [1.0, 1.0, 1.0]

    def test_restrict_empty_errors(self):
        bad = OperatorPoint(np.diag([1.0, 0.0]))
        system = CausalFermionSystem(1, [("s", 1.0, bad)])
        with pytest.raises(EmptySystemError):
            restrict_to_regular(system)

    def test_mixed_random_survivors_regular(self):
        rng = np.random.default_rng(19)
        pts = []
        for k in range(10):
            if k % 3 == 0:
                m = np.zeros((8, 8), dtype=complex)
                m[0, 0] = 1.0
                pts.append((f"p{k}", 1.0, OperatorPoint(m)))
            else:
                pts.append((f"p{k}", 1.0, random_regular_point(8, 2, rng)))
        system = CausalFermionSystem(2, pts)
        survivors = restrict_to_regular(system)
        assert all(e.op.is_regular(2) for e in survivors.points)
        assert len(survivors) == sum(
            1 for e in system.points if e.op.is_regular(2)
        )


class TestTolerances:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Tolerances(eig_rel=0.0)
        with pytest.raises(ValidationError):
            Tolerances(eig_rel=1e-2)
        with pytest.raises(ValidationError):
            Tolerances(imag_rel=-1e-9)
        assert Tolerances().as_dict()["zero_abs"] == 1e-12

    @pytest.mark.parametrize("name", ["eig_rel", "imag_rel", "zero_abs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValidationError, match="finite"):
            Tolerances(**{name: value})
