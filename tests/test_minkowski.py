"""Dirac-sea systems on the torus: modes, correlation operators, mixtures."""

import numpy as np
import pytest

from cfslab import minkowski as mk
from cfslab.core import CausalFermionSystem
from cfslab.errors import DimensionMismatchError, ValidationError


def cauchy_gram(modes):
    """Oracle: mode Gram matrix from the discretized Cauchy-surface integral.

    The trapezoidal sum over an equispaced grid is exact for trigonometric
    polynomials below the Nyquist degree, so a grid finer than twice the
    momentum cutoff integrates the products exactly.
    """
    kmax_int = int(round(np.abs(modes.momenta).max() * modes.torus_radius))
    ng = 2 * (2 * kmax_int) + 3
    period = 2 * np.pi * modes.torus_radius
    grid = np.linspace(0, period, ng, endpoint=False)
    vol = period**3
    n_modes = len(modes)
    vals = np.empty((n_modes, ng, ng, ng, 4), dtype=complex)
    for a in range(n_modes):
        k = modes.momenta[a]
        phase = np.exp(
            1j
            * (
                k[0] * grid[:, None, None]
                + k[1] * grid[None, :, None]
                + k[2] * grid[None, None, :]
            )
        )
        vals[a] = phase[..., None] * modes.amplitudes[a]
    flat = vals.reshape(n_modes, -1, 4)
    return 2 * np.pi * (vol / ng**3) * np.einsum("agc,bgc->ab", flat.conj(), flat)


class TestModes:
    def test_rest_frame_count(self):
        cfg = mk.MinkowskiConfig(kmax=0, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        assert len(modes) == 2
        assert np.allclose(modes.omegas, cfg.mass)

    def test_counting(self):
        cfg = mk.MinkowskiConfig(kmax=1, sample_points=((0, 0, 0, 0),))
        assert cfg.f == 54
        assert len(mk.build_modes(cfg)) == 54

    def test_gram_is_identity(self):
        cfg = mk.MinkowskiConfig(kmax=1, torus_radius=0.7, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        gram = cauchy_gram(modes)
        assert np.abs(gram - np.eye(len(modes))).max() < 1e-12

    def test_dirac_equation_residual(self):
        cfg = mk.MinkowskiConfig(kmax=1, sample_points=((0, 0, 0, 0),))
        assert mk.dirac_residual(mk.build_modes(cfg)) < 1e-12

    def test_f_cap(self):
        with pytest.raises(ValidationError):
            mk.build_modes(
                mk.MinkowskiConfig(kmax=3, max_f=100, sample_points=((0, 0, 0, 0),))
            )

    def test_eps_mass_warning(self):
        with pytest.warns(UserWarning):
            mk.MinkowskiConfig(mass=1.0, eps=0.5, sample_points=((0, 0, 0, 0),))


class TestLocalCorrelation:
    def test_single_mode_rank_one(self):
        cfg = mk.MinkowskiConfig(kmax=0, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        single = mk.ModeSet(
            mass=modes.mass,
            torus_radius=modes.torus_radius,
            momenta=modes.momenta[:1],
            spins=modes.spins[:1],
            omegas=modes.omegas[:1],
            amplitudes=modes.amplitudes[:1],
        )
        p = (0.3, 0.1, 0.0, 0.0)
        x = mk.local_correlation(single, p, 1e-3)
        assert x.rank == 1
        value = mk.evaluation_matrix(single, p, 1e-3)[:, 0]
        expected = -np.vdot(value, mk.GAMMA[0] @ value).real
        assert abs(x.nonzero_eigenvalues()[0] - expected) < 1e-12

    def test_signature_bound(self):
        cfg = mk.MinkowskiConfig(kmax=1, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.uniform(-1, 1, size=4)
            x = mk.local_correlation(modes, p, 1e-3)
            assert x.pos_eigs <= 2 and x.neg_eigs <= 2 and x.rank <= 4
            defect = np.linalg.norm(x.matrix - x.matrix.conj().T)
            assert defect <= 1e-12 * max(np.linalg.norm(x.matrix), 1.0)

    def test_translation_covariance(self):
        cfg = mk.MinkowskiConfig(kmax=1, torus_radius=0.6, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        a = mk.local_correlation(modes, (0.2, 0.1, 0.0, 0.3), 1e-3)
        b = mk.local_correlation(modes, (0.2, 0.5, -0.2, 0.45), 1e-3)
        assert np.allclose(
            np.linalg.eigvalsh(a.matrix),
            np.linalg.eigvalsh(b.matrix),
            rtol=1e-10,
            atol=1e-10 * a.spectral_radius,
        )

    def test_monotone_regularization(self):
        cfg = mk.MinkowskiConfig(kmax=1, torus_radius=0.8, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        for p in [(0.0, 0, 0, 0), (0.3, 0.1, 0.0, 0.0)]:
            prev = None
            for eps in (1e-3, 1e-2, 0.1, 0.4):
                mags = np.sort(
                    np.abs(mk.local_correlation(modes, p, eps).nonzero_eigenvalues())
                )[::-1][:4]
                if prev is not None:
                    assert np.all(mags <= prev + 1e-15)
                prev = mags


class TestBuildSystem:
    def test_single_point(self):
        cfg = mk.MinkowskiConfig(kmax=0, sample_points=((0.1, 0, 0, 0),))
        system = mk.build_system(cfg)
        assert len(system) == 1 and system.n == 2 and system.f == 2

    def test_duplicate_coordinates_determinism(self):
        cfg = mk.MinkowskiConfig(
            kmax=1, sample_points=((0.1, 0.2, 0, 0), (0.1, 0.2, 0, 0))
        )
        system = mk.build_system(cfg)
        a, b = system.points[0].op.matrix, system.points[1].op.matrix
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()
        assert system.ids == ("p0000", "p0001")

    def test_grid_all_regular(self):
        rng = np.random.default_rng(3)
        pts = tuple(
            (rng.uniform(-0.4, 0.4), *rng.uniform(-0.3, 0.3, 3)) for _ in range(20)
        )
        cfg = mk.MinkowskiConfig(kmax=1, torus_radius=0.8, sample_points=pts)
        system = mk.build_system(cfg)
        singular = [e.id for e in system.points if not e.op.is_regular(system.n)]
        assert singular == []

    def test_weights_passthrough(self):
        cfg = mk.MinkowskiConfig(
            kmax=0, sample_points=((0, 0, 0, 0), (0.1, 0, 0, 0)), weights=(2.0, 3.0)
        )
        system = mk.build_system(cfg)
        assert [e.weight for e in system.points] == [2.0, 3.0]


class TestMixtures:
    def _two_systems(self):
        c1 = mk.MinkowskiConfig(
            mass=1.0, kmax=0, sample_points=((0, 0, 0, 0), (0.2, 0, 0, 0))
        )
        c2 = mk.MinkowskiConfig(
            mass=1.4, kmax=0, sample_points=((0.1, 0, 0, 0), (0.3, 0, 0, 0))
        )
        return mk.build_system(c1), mk.build_system(c2)

    def test_single_component_identity(self):
        s1, _ = self._two_systems()
        mixed = mk.mix_systems(mk.MixtureSpec((s1,), (1.0,)))
        assert len(mixed) == len(s1)
        for e_new, e_old in zip(mixed.points, s1.points):
            assert e_new.weight == e_old.weight
            assert np.array_equal(e_new.op.matrix, e_old.op.matrix)

    def test_two_components_halved(self):
        s1, s2 = self._two_systems()
        mixed = mk.mix_systems(mk.MixtureSpec((s1, s2), (0.5, 0.5)))
        assert len(mixed) == 4
        assert all(e.weight == 0.5 for e in mixed.points)
        assert mixed.ids == ("m0:p0000", "m0:p0001", "m1:p0000", "m1:p0001")

    def test_total_measure_linearity(self):
        s1, s2 = self._two_systems()
        w = (0.25, 0.75)
        mixed = mk.mix_systems(mk.MixtureSpec((s1, s2), w))
        expected = w[0] * s1.total_weight() + w[1] * s2.total_weight()
        assert abs(mixed.total_weight() - expected) < 1e-12

    def test_incompatible_dimensions(self):
        s1, _ = self._two_systems()
        other = mk.build_system(
            mk.MinkowskiConfig(kmax=1, sample_points=((0, 0, 0, 0),))
        )
        with pytest.raises(DimensionMismatchError):
            mk.mix_systems(mk.MixtureSpec((s1, other), (0.5, 0.5)))

    def test_weight_validation(self):
        s1, s2 = self._two_systems()
        with pytest.raises(ValidationError):
            mk.MixtureSpec((s1, s2), (0.5, 0.6))
        with pytest.raises(ValidationError):
            mk.MixtureSpec((s1, s2), (-0.5, 1.5))


class TestDiracFrame:
    def test_signature_and_metric(self, small_minkowski):
        _, system, modes = small_minkowski
        k = mk.dirac_frame(system, modes, "p0001", "p0000")
        assert k.signature == (1, 3)
        assert np.allclose(k.metric, np.diag([1.0, -1.0, -1.0, -1.0]), atol=1e-9)

    def test_standard_frame_without_pair(self, small_minkowski):
        _, system, modes = small_minkowski
        k = mk.dirac_frame(system, modes, "p0000")
        assert k.signature == (1, 3)

    def test_refuses_other_damping_kernels(self, small_minkowski):
        # points built with another damping kernel would get frames pulled
        # back through the wrong evaluation isometry
        _, system, modes = small_minkowski
        old = CausalFermionSystem(
            system.n,
            [(e.id, e.weight, e.op) for e in system.points],
            metadata={**system.metadata, "damping": "gaussian"},
        )
        with pytest.raises(ValidationError, match="gaussian"):
            mk.dirac_frame(old, modes, "p0000")
        with pytest.raises(ValidationError, match="gaussian"):
            mk.clifford_provider(old, modes)
        with pytest.raises(ValidationError, match="gaussian"):
            mk.clifford_provider(old)
        stated = CausalFermionSystem(
            system.n,
            [(e.id, e.weight, e.op) for e in system.points],
            metadata={**system.metadata, "damping": "exponential"},
        )
        assert mk.dirac_frame(stated, modes, "p0000").signature == (1, 3)


class TestTransportStudy:
    def test_one_frame_per_point_and_partner(self, monkeypatch):
        # a 4-segment row needs the coordinate frame at each of its 5 points
        # and both pair frames of each of its 4 segments: 13 frames
        calls = []
        frame = mk.dirac_frame

        def counting(system, modes, x_id, y_id=None):
            calls.append((x_id, y_id))
            return frame(system, modes, x_id, y_id)

        monkeypatch.setattr(mk, "dirac_frame", counting)
        cfg = mk.MinkowskiConfig(
            kmax=1, torus_radius=0.8, sample_points=((0.0, 0.0, 0.0, 0.0),)
        )
        (row,) = mk.transport_study(cfg, [4e-3], [4])
        assert len(calls) == 13
        assert len(set(calls)) == 13
        assert all(np.isfinite(row[k]) for k in ("spin_deviation", "frame_deviation"))

    def test_builds_the_mode_set_once(self, monkeypatch):
        built = []
        build = mk.build_modes
        monkeypatch.setattr(mk, "build_modes", lambda cfg: built.append(cfg) or build(cfg))
        cfg = mk.MinkowskiConfig(
            kmax=1, torus_radius=0.8, sample_points=((0.0, 0.0, 0.0, 0.0),)
        )
        rows = mk.transport_study(cfg, [4e-3, 2e-3], [2])
        assert len(rows) == 2 and len(built) == 1
