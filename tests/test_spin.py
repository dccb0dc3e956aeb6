"""Kernels, closed chains, sign operators, Clifford subspaces, connections."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import cfslab as cl
from cfslab import minkowski as mk
from cfslab import spin
from cfslab.core import CausalClass, CausalFermionSystem, OperatorPoint, classify
from cfslab.errors import NotSpinConnectableError, SpliceError, ValidationError
from cfslab.spin import CliffordSubspace, grassmann_residual, spin_adjoint

from conftest import (
    connectable_pair_system,
    full_product_spectrum,
    match_multisets,
    random_regular_system,
    sorted_eigenvectors,
)


def provider_frames(system, modes):
    """Every frame the Minkowski provider hands out on ``system``: the
    tangent frame and each pair frame at every point, with its spin space."""
    provide = mk.clifford_provider(system, modes)
    return [
        (system.spin_space(a), provide(a, b))
        for a in system.ids
        for b in (None, *system.ids)
        if b != a
    ]


def pairwise_metric(gens):
    """The induced form with one anticommutator per generator pair: the
    loop form of ``verify_clifford``'s batched product."""
    k = len(gens)
    metric = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            anti = gens[i] @ gens[j] + gens[j] @ gens[i]
            metric[i, j] = metric[j, i] = (np.trace(anti) / (2.0 * len(anti))).real
    return metric


def reference_eta_frame(subspace):
    """Pivoted Gram-Schmidt rebuilding every candidate from its generator in
    each round: every remaining generator is projected off all frame
    vectors so far, then the first largest ``|form(h, h)|`` is taken."""

    def form(u, v):
        return (np.trace(u @ v + v @ u) / (2.0 * u.shape[0])).real

    remaining = list(subspace.generators)
    frame, signs = [], []
    while remaining:
        candidates = []
        for g in remaining:
            h = g.copy()
            for e, s in zip(frame, signs):
                h = h - (form(h, e) / s) * e
            candidates.append((h, form(h, h)))
        best = max(range(len(candidates)), key=lambda i: abs(candidates[i][1]))
        h, q = candidates[best]
        if abs(q) < 1e-10:
            raise SpliceError("degenerate direction while building the frame")
        frame.append(h / math.sqrt(abs(q)))
        signs.append(1.0 if q > 0 else -1.0)
        del remaining[best]
    order = sorted(range(len(frame)), key=lambda i: (-signs[i], i))
    return tuple(frame[i] for i in order), tuple(signs[i] for i in order)


def kron_system(k_from, k_to):
    """The intertwiner system of ``splice_map``, stacked from one ``np.kron``
    pair per frame pair."""
    (frame_a, _), (frame_b, _) = k_from._frame, k_to._frame
    eye = np.eye(frame_a[0].shape[0])
    rows = [np.kron(eye, b) - np.kron(a.T, eye) for a, b in zip(frame_a, frame_b)]
    return np.concatenate(rows, axis=0)


def kron_splice(spin_sp, k_from, k_to):
    """``splice_map`` solving :func:`kron_system`, error checks left out."""
    r = spin_sp.gram_diag.shape[0]
    eye = np.eye(r)
    _, sing, vh = np.linalg.svd(kron_system(k_from, k_to))
    basis = vh[sing <= 1e-8 * max(sing.max(), 1.0)].conj().T
    u_vec = basis @ (basis.conj().T @ eye.ravel(order="F").astype(np.complex128))
    if np.linalg.norm(u_vec) < 1e-8:
        u_vec = basis[:, -1]
    u = u_vec.reshape(r, r, order="F")
    gd = spin_sp.gram_diag
    u = u / math.sqrt((np.trace(spin_adjoint(u, gd, gd) @ u) / r).real)
    idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    return u * np.conj(u[idx] / abs(u[idx]))


class TestWaveFunctions:
    def test_projection_identities(self):
        rng = np.random.default_rng(21)
        system = random_regular_system(3, 8, 2, rng)
        x = system.points[0].op
        # u inside the image keeps its norm, u orthogonal projects to zero
        u_in = x.image_basis() @ rng.normal(size=4)
        psi = cl.physical_wave_function(system, u_in)
        assert np.isclose(np.linalg.norm(psi["p0000"]), np.linalg.norm(u_in))
        null_cols = sorted_eigenvectors(x)[:, x.pos_eigs : x.f - x.neg_eigs]
        kernel_vec = null_cols @ rng.normal(size=null_cols.shape[1])
        psi0 = cl.physical_wave_function(system, kernel_vec)
        assert np.linalg.norm(psi0["p0000"]) < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(22)
        system = random_regular_system(2, 8, 2, rng)
        x = system.points[0].op
        sp = x.spin_space()
        for _ in range(10):
            u = rng.normal(size=8) + 1j * rng.normal(size=8)
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            lhs = sp.inner(sp.project(u), sp.project(v))
            rhs = -np.vdot(u, x.matrix @ v)
            assert abs(lhs - rhs) < 1e-10

    def test_zero_vector_rejected(self):
        rng = np.random.default_rng(23)
        system = random_regular_system(1, 6, 1, rng)
        with pytest.raises(ValidationError):
            cl.physical_wave_function(system, np.zeros(6))


class TestKernel:
    def test_self_kernel_is_eigenvalue_diagonal(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        system = CausalFermionSystem(1, [("x", 1.0, x)])
        p = cl.kernel(system, "x", "x").matrix
        assert np.allclose(p, np.diag([2.0, -1.0]))

    def test_adjoint_relation(self):
        rng = np.random.default_rng(24)
        system = random_regular_system(4, 10, 2, rng)
        for a in system.ids:
            for b in system.ids:
                p_ab = cl.kernel(system, a, b).matrix
                p_ba = cl.kernel(system, b, a).matrix
                ga = system.spin_space(a).gram_diag
                gb = system.spin_space(b).gram_diag
                scale = max(np.linalg.norm(p_ab), 1.0)
                assert np.linalg.norm(spin_adjoint(p_ab, gb, ga) - p_ba) < 1e-12 * scale

    def test_chain_matches_ambient_oracle(self):
        rng = np.random.default_rng(25)
        system = random_regular_system(3, 8, 2, rng)
        for a in system.ids:
            for b in system.ids:
                chain = cl.closed_chain(system, a, b).matrix
                x = system.point(a)
                y = system.point(b)
                bx = x.image_basis()
                ambient = bx.conj().T @ (y.matrix @ (x.matrix @ bx))
                assert np.linalg.norm(chain - ambient) < 1e-10 * max(
                    np.linalg.norm(ambient), 1.0
                )


class TestClosedChain:
    def test_diagonal_case(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        system = CausalFermionSystem(1, [("x", 1.0, x)])
        chain = cl.closed_chain(system, "x", "x")
        assert np.allclose(chain.matrix, np.diag([4.0, 1.0]))
        assert match_multisets(chain.eigenvalues, [4.0, 1.0], 1e-12)
        assert chain.definite

    def test_spectrum_matches_product(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            system = random_regular_system(2, 8, 2, rng)
            a, b = system.ids
            chain = cl.closed_chain(system, a, b)
            oracle = full_product_spectrum(system.point(a), system.point(b), 2)
            assert match_multisets(chain.eigenvalues, oracle, 1e-9)

    def test_chain_spectra_symmetric(self):
        rng = np.random.default_rng(27)
        for _ in range(30):
            system = random_regular_system(2, 8, 2, rng)
            a, b = system.ids
            assert match_multisets(
                cl.closed_chain(system, a, b).eigenvalues,
                cl.closed_chain(system, b, a).eigenvalues,
                1e-9,
            )


class TestProperlyTimelike:
    def test_diagonal_true(self):
        x = OperatorPoint(np.diag([2.0, -1.0]))
        system = CausalFermionSystem(1, [("x", 1.0, x)])
        assert cl.properly_timelike(system, "x", "x")

    def test_orthogonal_images_false(self):
        x = OperatorPoint(np.diag([1.0, -1.0, 0.0, 0.0]))
        y = OperatorPoint(np.diag([0.0, 0.0, 1.0, -1.0]))
        system = CausalFermionSystem(1, [("x", 1.0, x), ("y", 1.0, y)])
        assert not cl.properly_timelike(system, "x", "y")

    def test_symmetry_and_implication(self):
        rng = np.random.default_rng(28)
        hits = 0
        for _ in range(60):
            system = connectable_pair_system(8, 2, rng, rotation=0.2)
            fwd = cl.properly_timelike(system, "x", "y")
            bwd = cl.properly_timelike(system, "y", "x")
            assert fwd == bwd
            if fwd:
                hits += 1
                assert (
                    classify(system.point("x"), system.point("y"), n=2)
                    is CausalClass.TIMELIKE
                )
        assert hits >= 20  # the sampler hits the properly timelike regime


class TestSignOperators:
    def test_euclidean_example(self):
        x = OperatorPoint(np.diag([1.0, -1.0]))
        system = CausalFermionSystem(1, [("x", 1.0, x)])
        s = cl.euclidean_sign(system, "x")
        assert np.allclose(s.matrix, np.diag([-1.0, 1.0]))
        assert np.allclose(s.matrix @ s.matrix, np.eye(2))

    def test_euclidean_span_is_clifford(self):
        rng = np.random.default_rng(29)
        system = random_regular_system(1, 8, 2, rng)
        pid = system.ids[0]
        s = cl.euclidean_sign(system, pid)
        sub = cl.verify_clifford([s.matrix], system.spin_space(pid))
        assert sub.signature == (1, 0)

    def test_euclidean_rejects_singular(self):
        x = OperatorPoint(np.diag([1.0, 0.0]))
        system = CausalFermionSystem(1, [("x", 1.0, x)])
        with pytest.raises(ValidationError):
            cl.euclidean_sign(system, "x")

    def test_directional_self_pair(self):
        x = OperatorPoint(np.diag([2.0, -1.0, -1.0, 2.0]))
        system = CausalFermionSystem(2, [("x", 1.0, x)])
        v = cl.directional_sign(system, "x", "x")
        assert np.allclose(v.matrix @ v.matrix, np.eye(4), atol=1e-12)
        g = system.spin_space("x").gram_diag
        sym = g[:, None] * v.matrix
        assert np.linalg.norm(sym - sym.conj().T) < 1e-12

    def test_directional_random_pairs(self):
        rng = np.random.default_rng(30)
        found = 0
        for _ in range(20):
            system = connectable_pair_system(8, 2, rng)
            try:
                v = cl.directional_sign(system, "x", "y")
            except NotSpinConnectableError:
                continue
            found += 1
            assert np.linalg.norm(v.matrix @ v.matrix - np.eye(4)) < 1e-10
            g = system.spin_space("x").gram_diag
            sym = g[:, None] * v.matrix
            assert np.linalg.norm(sym - sym.conj().T) < 1e-10
        assert found >= 10

    def test_directional_exists_in_minkowski(self, small_minkowski):
        _, system, _ = small_minkowski
        v = cl.directional_sign(system, "p0000", "p0001")
        assert np.linalg.norm(v.matrix @ v.matrix - np.eye(4)) < 1e-10


class TestVerifyClifford:
    def test_dirac_quadruple(self):
        x = OperatorPoint(-np.diag([1.0, 1.0, -1.0, -1.0]))
        sub = cl.verify_clifford(mk.GAMMA, x.spin_space())
        assert sub.signature == (1, 3)
        assert np.allclose(sub.metric, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_perturbation_rejected(self):
        x = OperatorPoint(-np.diag([1.0, 1.0, -1.0, -1.0]))
        sp = x.spin_space()
        tol = 1e-9
        rng = np.random.default_rng(31)
        noise = rng.normal(size=(4, 4))
        noise = 10 * tol * (noise + noise.T) / np.linalg.norm(noise)
        bad = [g.copy() for g in mk.GAMMA]
        bad[1] = bad[1] + noise
        with pytest.raises(ValidationError):
            cl.verify_clifford(bad, sp, tol=tol)

    def test_non_symmetric_generator_rejected(self):
        x = OperatorPoint(-np.diag([1.0, 1.0, -1.0, -1.0]))
        sp = x.spin_space()
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValidationError):
            cl.verify_clifford([bad], sp)

    def test_metric_matches_pairwise_loop_on_provider_frames(self, small_minkowski):
        _, system, modes = small_minkowski
        for sp, frame in provider_frames(system, modes):
            sub = cl.verify_clifford(frame.generators, sp, tol=1e-7)
            assert sub.signature == (1, 3)
            assert np.abs(sub.metric - pairwise_metric(frame.generators)).max() <= 1e-14

    @staticmethod
    def _dirac_space():
        return OperatorPoint(-np.diag([1.0, 1.0, -1.0, -1.0])).spin_space()

    def test_first_non_symmetric_generator_named(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        gens = [mk.GAMMA[0], bad, 2 * bad, mk.GAMMA[3]]
        with pytest.raises(ValidationError, match=r"^generator 1 is not symmetric"):
            cl.verify_clifford(gens, self._dirac_space())

    def test_first_non_scalar_anticommutator_in_row_major_order(self):
        g0, g1, g2, _ = mk.GAMMA
        # i g0 g2 and i g1 g2 are symmetric; {g1, i g0 g2} and {g0, i g1 g2}
        # are the only non-scalar anticommutators, and (0, 3) precedes (1, 2)
        gens = [g0, g1, 1j * g0 @ g2, 1j * g1 @ g2]
        with pytest.raises(ValidationError, match=r"generators 0, 3 is not"):
            cl.verify_clifford(gens, self._dirac_space())
        with pytest.raises(ValidationError, match=r"generators 1, 2 is not"):
            cl.verify_clifford(gens[:3], self._dirac_space())

    def test_degenerate_form_rejected(self):
        # every anticommutator is 2 * identity, so the form is [[1, 1], [1, 1]]
        with pytest.raises(ValidationError, match="induced bilinear form is degenerate"):
            cl.verify_clifford([mk.GAMMA[0], mk.GAMMA[0]], self._dirac_space())


class TestSpinConnection:
    def test_self_pair_sign_structure(self):
        # the functional-calculus square root times the self kernel recovers
        # the eigenvalue sign pattern
        x = OperatorPoint(np.diag([2.0, -1.0, -1.5, 2.5]))
        system = CausalFermionSystem(2, [("x", 1.0, x)])
        from cfslab.spin import _split_chain

        _, inv_half, p = _split_chain(system, "x", "x")
        assert np.array_equal(p, cl.kernel(system, "x", "x").matrix)
        signs = np.sign(x.nonzero_eigenvalues())
        assert np.allclose(inv_half @ p, np.diag(signs), atol=1e-10)
        conn = cl.spin_connection(system, "x", "x")
        assert np.array_equal(conn.matrix, np.eye(4))
        assert conn.metadata.get("degenerate")

    def test_properties_random_pairs(self):
        rng = np.random.default_rng(32)
        checked = 0
        for _ in range(40):
            system = connectable_pair_system(8, 2, rng)
            if not cl.spin_connectable(system, "x", "y"):
                continue
            checked += 1
            d_xy = cl.spin_connection(system, "x", "y")
            d_yx = cl.spin_connection(system, "y", "x")
            gx = system.spin_space("x").gram_diag
            gy = system.spin_space("y").gram_diag
            eye = np.eye(4)
            assert np.linalg.norm(spin_adjoint(d_xy.matrix, gy, gx) @ d_xy.matrix - eye) < 1e-9
            assert np.linalg.norm(d_yx.matrix @ d_xy.matrix - eye) < 1e-9
            assert np.linalg.norm(d_yx.matrix - spin_adjoint(d_xy.matrix, gy, gx)) < 1e-9
            a_xy = cl.closed_chain(system, "x", "y").matrix
            a_yx = cl.closed_chain(system, "y", "x").matrix
            assert (
                np.linalg.norm(d_xy.matrix @ a_yx @ d_yx.matrix - a_xy)
                < 1e-9 * max(np.linalg.norm(a_xy), 1.0)
            )
        assert checked >= 15

    def test_reversed_pair_is_the_spin_adjoint(self, small_minkowski):
        # the reversed pair's matrix is the adjoint of the canonical one, bit
        # for bit, with the default phase and with a scanned one
        def check(system, x, y, hint=None, **kw):
            d_xy = cl.spin_connection(system, x, y, clifford_hint=hint, **kw)
            rev = hint[::-1] if hint else None
            d_yx = cl.spin_connection(system, y, x, clifford_hint=rev, **kw)
            gx = system.spin_space(x).gram_diag
            gy = system.spin_space(y).gram_diag
            assert np.array_equal(d_yx.matrix, spin_adjoint(d_xy.matrix, gy, gx))
            assert d_yx.phi == -d_xy.phi

        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(20):
            system = connectable_pair_system(8, 2, rng)
            if cl.spin_connectable(system, "x", "y"):
                check(system, "x", "y")
                checked += 1
        assert checked >= 8
        _, system, modes = small_minkowski
        x, y = "p0000", "p0001"
        check(system, x, y)
        hint = (mk.dirac_frame(system, modes, x, y), mk.dirac_frame(system, modes, y, x))
        check(system, x, y, hint, cond2_tol=0.2)

    def test_hinted_connection_splits_its_chain_once(self, small_minkowski, monkeypatch):
        from cfslab import spin

        _, system, modes = small_minkowski
        calls = []
        split = spin._split_chain

        def counted(*args):
            calls.append(args[1:3])
            return split(*args)

        monkeypatch.setattr(spin, "_split_chain", counted)
        hint = (
            mk.dirac_frame(system, modes, "p0001", "p0000"),
            mk.dirac_frame(system, modes, "p0000", "p0001"),
        )
        cl.spin_connection(system, "p0001", "p0000", clifford_hint=hint, cond2_tol=0.2)
        assert calls == [("p0000", "p0001")]

    def test_minkowski_pair_roundtrip(self, small_minkowski):
        _, system, _ = small_minkowski
        d_xy = cl.spin_connection(system, "p0000", "p0001")
        d_yx = cl.spin_connection(system, "p0001", "p0000")
        assert np.linalg.norm(d_xy.matrix @ d_yx.matrix - np.eye(4)) < 1e-9

    def test_not_connectable_raises(self):
        x = OperatorPoint(np.diag([1.0, -1.0, 0.0, 0.0]))
        y = OperatorPoint(np.diag([0.0, 0.0, 1.0, -1.0]))
        system = CausalFermionSystem(1, [("x", 1.0, x), ("y", 1.0, y)])
        with pytest.raises(NotSpinConnectableError):
            cl.spin_connection(system, "x", "y")

    def test_matches_closed_form_oracle(self):
        # exp(i phi v) A^(-1/2) P(x, y) with the square root from scipy
        # instead of the chain's spectral projectors
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(30):
            system = connectable_pair_system(8, 2, rng)
            if not cl.spin_connectable(system, "x", "y"):
                continue
            checked += 1
            for a, b in (("x", "y"), ("y", "x")):
                conn = cl.spin_connection(system, a, b)
                v = cl.directional_sign(system, a, b).matrix
                chain = cl.closed_chain(system, a, b).matrix
                p = cl.kernel(system, a, b).matrix
                rot = np.cos(conn.phi) * np.eye(4) + 1j * np.sin(conn.phi) * v
                want = rot @ np.linalg.inv(scipy.linalg.sqrtm(chain)) @ p
                assert np.linalg.norm(conn.matrix - want) <= 1e-8 * np.linalg.norm(want)
        assert checked >= 15

    def test_not_properly_timelike_raises(self):
        rng = np.random.default_rng(34)
        rejected = 0
        for _ in range(30):
            system = random_regular_system(2, 6, 2, rng)
            a, b = system.ids
            if cl.properly_timelike(system, a, b):
                continue
            rejected += 1
            with pytest.raises(NotSpinConnectableError):
                cl.directional_sign(system, a, b)
            with pytest.raises(NotSpinConnectableError):
                cl.spin_connection(system, a, b)
        assert rejected >= 10

    def test_hint_residual_matches_grassmann(self, small_minkowski):
        _, system, modes = small_minkowski
        x, y = "p0000", "p0001"
        k_xy = mk.dirac_frame(system, modes, x, y)
        k_yx = mk.dirac_frame(system, modes, y, x)
        conn = cl.spin_connection(system, x, y, clifford_hint=(k_xy, k_yx), cond2_tol=0.2)
        assert conn.metadata["canonical_order"]
        d = conn.matrix
        gx = system.spin_space(x).gram_diag
        gy = system.spin_space(y).gram_diag
        d_inv = spin_adjoint(d, gy, gx)
        mapped = CliffordSubspace(
            tuple(d_inv @ g @ d for g in k_xy.generators), k_xy.metric, k_xy.signature
        )
        # the scan evaluates this same arithmetic at the returned phase
        assert conn.metadata["hint_residual"] == grassmann_residual(mapped, k_yx)

    def test_hint_scan_records_phase(self, small_minkowski):
        _, system, modes = small_minkowski
        k_xy = mk.dirac_frame(system, modes, "p0001", "p0000")
        k_yx = mk.dirac_frame(system, modes, "p0000", "p0001")
        # desk-scale flat pairs minimize the subspace mismatch near the open
        # boundary of the admissible phase ranges; a tight tolerance must
        # reject, a loose one records the scanned phase
        with pytest.raises(NotSpinConnectableError):
            cl.spin_connection(
                system, "p0001", "p0000", clifford_hint=(k_xy, k_yx), cond2_tol=1e-6
            )
        conn = cl.spin_connection(
            system, "p0001", "p0000", clifford_hint=(k_xy, k_yx), cond2_tol=0.2
        )
        assert conn.metadata["phi_source"] == "hint"
        assert conn.metadata["hint_residual"] < 0.2

    @staticmethod
    def _explicit_residual(system, x, y, connection, k_xy, k_yx):
        """Condition-(ii) residual by its definition: conjugate every
        generator by the connection at ``phi`` and compare the spans."""
        gx = system.spin_space(x).gram_diag
        gy = system.spin_space(y).gram_diag

        def residual(phi):
            d = connection(phi)
            d_inv = spin_adjoint(d, gy, gx)
            mapped = CliffordSubspace(
                tuple(d_inv @ g @ d for g in k_xy.generators), k_xy.metric, k_xy.signature
            )
            return grassmann_residual(mapped, k_yx)

        return residual

    @pytest.mark.parametrize("x, y", [("p0000", "p0001"), ("p0001", "p0000")])
    def test_closed_form_residual_matches_definition(self, small_minkowski, x, y):
        from cfslab import spin

        _, system, modes = small_minkowski
        k_xy = mk.dirac_frame(system, modes, x, y)
        k_yx = mk.dirac_frame(system, modes, y, x)
        connection, v, k = spin._connection_map(system, x, y)
        closed_form = spin._phase_residuals(
            system.spin_space(x).gram_diag,
            system.spin_space(y).gram_diag,
            v,
            k,
            k_xy.generators,
            spin._subspace_frame(k_yx.generators),
        )
        explicit = self._explicit_residual(system, x, y, connection, k_xy, k_yx)
        rng = np.random.default_rng(41)
        phis = np.concatenate([rng.uniform(lo, hi, 50) for lo, hi in spin.PHI_RANGES])
        want = np.array([explicit(p) for p in phis])
        assert np.abs(closed_form(phis) - want).max() <= 1e-12

    @pytest.mark.parametrize(
        "x, y, offset, search",
        [
            pytest.param("p0000", "p0001", None, "explicit", id="p0000-p0001"),
            pytest.param("p0001", "p0000", None, "explicit", id="p0001-p0000"),
            # the positive range's minimum is interior, so its golden-section
            # steps branch both ways (19 left, 21 right) and compare residuals
            # that differ by rounding: the search must read the scan's own
            # closed form, one phase at a time
            pytest.param(
                "p0000", "p0001", (0.5, 0.1, 0.05, 0.0), "closed_form", id="interior-minimum"
            ),
        ],
    )
    def test_scan_matches_explicit_reference_scan(self, small_minkowski, x, y, offset, search):
        # the grid, bracket and golden-section steps of the scan, one range
        # after the other, each range's result evaluated by its definition
        from cfslab import spin

        cfg, system, modes = small_minkowski
        if offset is not None:
            cfg = dataclasses.replace(cfg, sample_points=((0.0, 0.0, 0.0, 0.0), offset))
            system, modes = mk.build_system(cfg), mk.build_modes(cfg)
        k_xy = mk.dirac_frame(system, modes, x, y)
        k_yx = mk.dirac_frame(system, modes, y, x)
        connection, v, k = spin._connection_map(system, x, y)
        explicit = self._explicit_residual(system, x, y, connection, k_xy, k_yx)
        residual = explicit
        if search == "closed_form":
            closed_form = spin._phase_residuals(
                system.spin_space(x).gram_diag,
                system.spin_space(y).gram_diag,
                v,
                k,
                k_xy.generators,
                spin._subspace_frame(k_yx.generators),
            )

            def residual(phi):
                return float(closed_form(np.array([phi]))[0])

        best = None
        for lo, hi in spin.PHI_RANGES:
            grid = np.linspace(lo, hi, 41)[1:-1]
            i = int(np.argmin([residual(p) for p in grid]))
            a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
            gr = (math.sqrt(5.0) - 1.0) / 2.0
            c, d = b - gr * (b - a), a + gr * (b - a)
            fc, fd = residual(c), residual(d)
            for _ in range(40):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - gr * (b - a)
                    fc = residual(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + gr * (b - a)
                    fd = residual(d)
            phi = 0.5 * (a + b)
            res = explicit(phi)
            if best is None or res < best[1] - 1e-15:
                best = (phi, res)
        assert spin._scan_phi(system, x, y, connection, v, k, k_xy, k_yx) == best


class TestSplice:
    def _flat_space(self):
        x = OperatorPoint(-np.diag([1.0, 1.0, -1.0, -1.0]))
        return x.spin_space()

    def test_identity(self):
        sp = self._flat_space()
        k = cl.verify_clifford(mk.GAMMA, sp)
        u = cl.splice_map(sp, k, k)
        assert np.linalg.norm(u - np.eye(4)) < 1e-10

    def test_conjugation_action(self):
        import scipy.linalg

        sp = self._flat_space()
        g = sp.gram_diag
        k = cl.verify_clifford(mk.GAMMA, sp)
        rng = np.random.default_rng(33)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = 0.5 * (h + spin_adjoint(h, g, g))
        w = scipy.linalg.expm(0.3j * h)
        w_inv = spin_adjoint(w, g, g)
        k2 = cl.verify_clifford([w @ gam @ w_inv for gam in mk.GAMMA], sp)
        u = cl.splice_map(sp, k, k2)
        u_inv = spin_adjoint(u, g, g)
        assert np.linalg.norm(u_inv @ u - np.eye(4)) < 1e-9
        for gam in mk.GAMMA:
            assert np.linalg.norm(u @ gam @ u_inv - w @ gam @ w_inv) < 1e-8

    def test_eta_frame_matches_reference_to_the_bit(self, small_minkowski):
        # the one-sweep frame against the round-by-round reconstruction, on
        # the provider's frames, Krein-unitary conjugates of the Dirac
        # matrices and two-generator subspaces
        _, system, modes = small_minkowski
        subspaces = [k for _, k in provider_frames(system, modes)]
        sp = self._flat_space()
        g = sp.gram_diag
        rng = np.random.default_rng(35)
        for _ in range(8):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = 0.5 * (h + spin_adjoint(h, g, g))
            w = scipy.linalg.expm(0.3j * h)
            w_inv = spin_adjoint(w, g, g)
            conj = [w @ gam @ w_inv for gam in mk.GAMMA]
            subspaces += [cl.verify_clifford(conj, sp), cl.verify_clifford(conj[1:3], sp)]
        subspaces.append(cl.verify_clifford(mk.GAMMA[:2], sp))
        for k in subspaces:
            frame, signs = spin._eta_frame(k)
            want_frame, want_signs = reference_eta_frame(k)
            assert signs == want_signs
            assert [e.tobytes() for e in frame] == [e.tobytes() for e in want_frame]

    def test_degenerate_direction_rejected(self):
        # gamma^0 + gamma^1 is null for the induced form
        null = mk.GAMMA[0] + mk.GAMMA[1]
        k = CliffordSubspace((mk.GAMMA[2], null), np.diag([-1.0, 0.0]), (0, 1))
        for build in (spin._eta_frame, reference_eta_frame):
            with pytest.raises(SpliceError, match="degenerate direction"):
                build(k)

    def test_signature_mismatch_rejected(self):
        sp = self._flat_space()
        k = cl.verify_clifford(mk.GAMMA, sp)
        k1 = cl.verify_clifford([mk.GAMMA[0]], sp)
        with pytest.raises(SpliceError):
            cl.splice_map(sp, k, k1)

    def test_maps_match_kron_oracle_to_the_bit(self, small_minkowski, monkeypatch):
        # the system solved, signed zeros included, and the map it gives
        _, system, modes = small_minkowski
        solved = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: solved.append(m) or svd(m, **kw))
        frames = provider_frames(system, modes)
        pairs = [(sp, a, b) for sp, a in frames for sp_b, b in frames if sp_b is sp]
        # two generators do not generate the full algebra: the degenerate
        # intertwiner space and its closest-to-identity convention, on a
        # tilted pair frame
        sp5 = system.spin_space("p0005")
        tilted = (mk.dirac_frame(system, modes, "p0005", y) for y in (None, "p0003"))
        two = [cl.verify_clifford(k.generators[:2], sp5, tol=1e-7) for k in tilted]
        assert two[0].dim == 2 and np.linalg.norm(kron_splice(sp5, *two) - np.eye(4)) > 0.1
        for sp, a, b in pairs + [(sp5, *two)]:
            want = kron_splice(sp, a, b).tobytes()
            solved.clear()
            assert cl.splice_map(sp, a, b).tobytes() == want
            assert [m.tobytes() for m in solved] == [kron_system(a, b).tobytes()]


class TestGrassmannResidual:
    @staticmethod
    def _span(gens):
        return CliffordSubspace(tuple(gens), np.eye(len(gens)), (len(gens), 0))

    @staticmethod
    def _scipy_sine(k1, k2):
        angles = scipy.linalg.subspace_angles(
            np.stack([g.ravel() for g in k1.generators], axis=1),
            np.stack([g.ravel() for g in k2.generators], axis=1),
        )
        return np.sin(angles).max()

    def test_matches_scipy_subspace_angles(self, small_minkowski):
        _, system, modes = small_minkowski
        rng = np.random.default_rng(43)
        frames = [frame for _, frame in provider_frames(system, modes)]
        spans = [
            self._span(rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4)))
            for k in (1, 2, 4, 4, 7)
        ]
        # provider frames at one point, and random spans of unequal dimensions
        cases = [(frames[0], f) for f in frames[1:6]] + [
            (a, b) for a in spans for b in spans if a is not b
        ]
        for k1, k2 in cases:
            got = grassmann_residual(k1, k2)
            assert abs(got - self._scipy_sine(k1, k2)) <= 1e-12
            if k1.dim != k2.dim:
                assert grassmann_residual(k2, k1) == got
            else:
                assert abs(grassmann_residual(k2, k1) - got) <= 1e-14

    def test_nested_spans_read_zero(self, small_minkowski):
        _, system, modes = small_minkowski
        k = mk.dirac_frame(system, modes, "p0000", "p0001")
        for sub in (k.generators[:1], k.generators[1:3], k.generators):
            assert grassmann_residual(self._span(sub), k) <= 1e-15
            assert grassmann_residual(k, self._span(sub)) <= 1e-15
        # a span of coordinate matrices and a sub-span read exactly 0
        units = np.eye(16).reshape(16, 4, 4)[:5]
        assert grassmann_residual(self._span(units[:2]), self._span(units)) == 0.0


class TestHolonomy:
    def test_degenerate_triangle(self):
        rng = np.random.default_rng(34)
        system = random_regular_system(1, 8, 2, rng)
        pid = system.ids[0]
        h = cl.holonomy(system, pid, pid, pid)
        assert np.linalg.norm(h - np.eye(4)) < 1e-9

    def test_unitary_on_minkowski_triangle(self):
        cfg = mk.MinkowskiConfig(
            mass=1.0,
            eps=1e-3,
            torus_radius=0.8,
            kmax=1,
            sample_points=((0, 0, 0, 0), (0.25, 0.04, 0, 0), (0.5, 0, 0, 0)),
        )
        system = mk.build_system(cfg)
        provider = mk.clifford_provider(system, mk.build_modes(cfg))
        h = cl.holonomy(system, "p0000", "p0001", "p0002", provider)
        g = system.spin_space("p0000").gram_diag
        assert np.linalg.norm(spin_adjoint(h, g, g) @ h - np.eye(4)) < 1e-9

    def test_deviation_band_under_shrinking(self):
        # the admissible connection phases contribute a fixed order-one twist
        # to every loop, so the triangle holonomy does not trivialize as the
        # triangle shrinks; the regression band below freezes the measured
        # desk-scale behavior (the straight-path transport in the acceptance
        # suite carries the convergence statement)
        devs = []
        for scale in (1.0, 0.75, 0.5):
            cfg = mk.MinkowskiConfig(
                mass=1.0,
                eps=1e-3,
                torus_radius=0.8,
                kmax=1,
                sample_points=(
                    (0, 0, 0, 0),
                    (0.25 * scale, 0.04 * scale, 0, 0),
                    (0.5 * scale, 0, 0, 0),
                ),
            )
            system = mk.build_system(cfg)
            provider = mk.clifford_provider(system, mk.build_modes(cfg))
            h = cl.holonomy(system, "p0000", "p0001", "p0002", provider)
            devs.append(np.linalg.norm(h - np.eye(4)))
        assert all(np.isfinite(d) for d in devs)
        assert all(1.0 < d < 4.0 for d in devs)


class TestMetricConnection:
    def test_identity_on_self(self, small_minkowski):
        _, system, modes = small_minkowski
        t_x = mk.dirac_frame(system, modes, "p0000")
        out = cl.metric_connection(system, "p0000", "p0000", t_x, t_x)
        assert np.allclose(out.matrix, np.eye(4), atol=1e-9)

    def test_isometry_on_minkowski_pair(self, small_minkowski):
        _, system, modes = small_minkowski
        t_x = mk.dirac_frame(system, modes, "p0001")
        t_y = mk.dirac_frame(system, modes, "p0000")
        k_xy = mk.dirac_frame(system, modes, "p0001", "p0000")
        k_yx = mk.dirac_frame(system, modes, "p0000", "p0001")
        out = cl.metric_connection(
            system, "p0001", "p0000", t_x, t_y, k_xy, k_yx, cond2_tol=0.2
        )
        # the transported generators stay inside the target span up to the
        # recorded mismatch, and the bilinear forms agree at that level
        assert out.residuals["span"] < 0.05
        assert out.residuals["isometry"] < 0.05
        mat = out.matrix
        eta = t_y.metric
        assert np.linalg.norm(mat.T @ t_x.metric @ mat - eta) < 0.05

    def test_exact_isometry_on_intertwined_subspaces(self):
        # the connection intertwines the two directional sign operators
        # exactly, so their spans transport onto each other with machine
        # precision and the induced map is an exact isometry
        rng = np.random.default_rng(35)
        found = 0
        for _ in range(20):
            system = connectable_pair_system(8, 2, rng)
            if not cl.spin_connectable(system, "x", "y"):
                continue
            found += 1
            v_xy = cl.directional_sign(system, "x", "y").matrix
            v_yx = cl.directional_sign(system, "y", "x").matrix
            t_x = cl.verify_clifford([v_xy], system.spin_space("x"))
            t_y = cl.verify_clifford([v_yx], system.spin_space("y"))
            out = cl.metric_connection(system, "x", "y", t_x, t_y)
            assert out.residuals["span"] < 1e-9
            assert out.residuals["isometry"] < 1e-9
            assert abs(abs(out.matrix[0, 0]) - 1.0) < 1e-9
        assert found >= 10

    def test_euclidean_extension_regression_band(self):
        # with the generic Euclidean-sign representatives the admissible
        # connection phase twists the span by an amount set by the distance
        # between the directional and Euclidean splittings; the band freezes
        # the measured behavior for nearby pairs
        rng = np.random.default_rng(35)
        found = 0
        for _ in range(20):
            system = connectable_pair_system(8, 2, rng, rotation=0.05)
            if not cl.spin_connectable(system, "x", "y"):
                continue
            found += 1
            sx = cl.euclidean_sign(system, "x").matrix
            sy = cl.euclidean_sign(system, "y").matrix
            t_x = cl.verify_clifford([sx], system.spin_space("x"))
            t_y = cl.verify_clifford([sy], system.spin_space("y"))
            out = cl.metric_connection(system, "x", "y", t_x, t_y)
            assert out.residuals["span"] < 0.5
            assert abs(out.matrix[0, 0] - 1.0) < 0.1
        assert found >= 10


class TestComposeTransport:
    def test_needs_two_points(self):
        rng = np.random.default_rng(36)
        system = random_regular_system(2, 8, 2, rng)
        with pytest.raises(ValidationError):
            cl.compose_transport(system, ["p0000"])

    def test_segments_recorded(self, small_minkowski):
        _, system, modes = small_minkowski
        provider = mk.clifford_provider(system, modes)
        total, records = cl.compose_transport(
            system, ["p0000", "p0001", "p0002"], provider
        )
        assert len(records) == 2
        assert records[0]["splice"] is False if "splice" in records[0] else True
        assert records[1]["splice"] is True
        assert all(r["unitarity"] < 1e-9 for r in records)
        g0 = system.spin_space("p0000").gram_diag
        g2 = system.spin_space("p0002").gram_diag
        assert np.linalg.norm(spin_adjoint(total, g0, g2) @ total - np.eye(4)) < 1e-9

    def test_builds_each_frame_once(self, small_minkowski, monkeypatch):
        # the path revisits p0001 and turns back at p0002, so its three
        # splices use the subspaces of (p1, p0), (p1, p2) and (p2, p1) twice each
        _, system, modes = small_minkowski
        built = []
        eta_frame = spin._eta_frame
        monkeypatch.setattr(spin, "_eta_frame", lambda k: built.append(k) or eta_frame(k))
        provider = mk.clifford_provider(system, modes)
        cl.compose_transport(system, ["p0000", "p0001", "p0002", "p0001", "p0000"], provider)
        assert len(built) == len({id(k) for k in built}) == 3
