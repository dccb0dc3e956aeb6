"""Dirac-sea systems on the torus: modes, correlation operators, mixtures."""

import base64
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cfslab import core
from cfslab import minkowski as mk
from cfslab.cli import validate_system
from cfslab.core import (
    CausalFermionSystem,
    OperatorPoint,
    _hermitian,
    time_direction,
    time_orientation,
)
from cfslab.errors import DimensionMismatchError, ValidationError
from cfslab.io import system_to_json


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


def loop_modes(config):
    """Oracle: the mode set from one 4 x 4 ``eigh`` per momentum, in a loop."""
    m, el = config.mass, config.torus_radius
    norm = mk._mode_norm(el)
    rng = range(-config.kmax, config.kmax + 1)
    momenta, spins, omegas, amps = [], [], [], []
    for trip in itertools.product(rng, rng, rng):
        k = np.array(trip, dtype=float) / el
        h = sum(mk._GAMMA0 @ mk.GAMMA[i + 1] * k[i] for i in range(3)) + m * mk._GAMMA0
        w, v = np.linalg.eigh(h)
        omega = math.sqrt(float(k @ k) + m * m)
        assert abs(w[0] + omega) <= 1e-12 * omega and abs(w[1] + omega) <= 1e-12 * omega
        for s in (0, 1):
            momenta.append(k)
            spins.append(s)
            omegas.append(omega)
            amps.append(norm * v[:, s])
    return mk.ModeSet(
        mass=m,
        torus_radius=el,
        momenta=np.array(momenta),
        spins=np.array(spins, dtype=np.int8),
        omegas=np.array(omegas),
        amplitudes=np.array(amps),
    )


class TestBatchedModes:
    @pytest.mark.parametrize("kmax", [0, 1, 2, 3])
    @pytest.mark.parametrize("mass, radius", [(1.0, 0.8), (0.37, 2.9), (4.0, 0.123)])
    def test_bit_identical_to_per_momentum_loop(self, kmax, mass, radius):
        cfg = mk.MinkowskiConfig(mass=mass, torus_radius=radius, kmax=kmax)
        got, want = mk.build_modes(cfg), loop_modes(cfg)
        for name in ("momenta", "spins", "omegas", "amplitudes"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous
            # bytes, so that signed zeros count too
            assert a.tobytes() == b.tobytes(), name

    def test_lower_branch_check_kept(self, monkeypatch):
        eigh = np.linalg.eigh

        def shifted(a):
            w, v = eigh(a)
            return w + 1e-6, v

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(ValidationError, match="lower Dirac branch"):
            mk.build_modes(mk.MinkowskiConfig(kmax=1))


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


class TestTranslates:
    def test_match_local_correlation(self):
        # time translates along the axis and general shifts off it
        cfg = mk.MinkowskiConfig(kmax=1, torus_radius=0.8, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        coords = [
            (0.05, 0.1, 0.0, -0.1),
            (0.25, 0.1, 0.0, -0.1),
            (0.3, 0.4, -0.2, 0.05),
            (-0.4, -0.3, 0.5, 0.2),
            (0.05, 0.1, 0.0, -0.1),
        ]
        translates = mk._translates(modes, 2e-3, coords)
        for p, x in zip(coords, translates):
            y = mk.local_correlation(modes, p, 2e-3)
            assert np.array_equal(x.matrix, y.matrix)
            assert (x.rank, x.pos_eigs) == (y.rank, y.pos_eigs)
            assert np.allclose(x.nonzero_eigenvalues(), y.nonzero_eigenvalues(), rtol=0, atol=1e-12)
            bx, by = x.image_basis(), y.image_basis()
            assert np.abs(bx @ bx.conj().T - by @ by.conj().T).max() <= 1e-12
        system = CausalFermionSystem(2, [(f"p{k}", 1.0, x) for k, x in enumerate(translates)])
        assert validate_system(system) == []


    @pytest.mark.parametrize("kmax", [0, 1, 2])
    def test_first_point_matches_local_correlation(self, kmax, eigh_shapes):
        # f = 2 at kmax 0 is below 4 (4 + 4) = 32, where the full eigh runs
        cfg = mk.MinkowskiConfig(kmax=kmax, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        p = (0.1, 0.2, -0.3, 0.05)
        eigh_shapes.clear()
        (x,) = mk._translates(modes, 1e-3, [p])
        assert eigh_shapes.count((cfg.f, cfg.f)) == (cfg.f < 32)
        y = mk.local_correlation(modes, p, 1e-3)
        assert np.array_equal(x.matrix, y.matrix)
        assert (x.rank, x.pos_eigs, x.neg_eigs) == (y.rank, y.pos_eigs, y.neg_eigs)
        assert x.rank == min(cfg.f, 4)
        lx, ly = x.nonzero_eigenvalues(), y.nonzero_eigenvalues()
        assert np.abs(lx - ly).max() <= 1e-12 * y.spectral_radius
        assert x.spectral_radius == pytest.approx(y.spectral_radius, rel=1e-12)
        bx, by = x.image_basis(), y.image_basis()
        assert np.abs(bx @ bx.conj().T - by @ by.conj().T).max() <= 1e-12


def _held_arrays(x):
    """Every array a point holds, in its slots and the tuples there."""
    for name in type(x).__slots__:
        value = getattr(x, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def _dense_matrix(modes, p, eps):
    """A local correlation matrix as a point built from that matrix stores
    it: ``-E^+ Sigma E``, symmetrized by the point constructor."""
    e = mk.evaluation_matrix(modes, p, eps)
    return _hermitian(-(e.conj().T @ (mk.GAMMA[0] @ e)))


class TestGeneratedPoints:
    # the origin's phases are exact ones, so its matrix has signed zeros
    COORDS = (
        (0.0, 0.0, 0.0, 0.0),
        (0.1, 0.2, -0.3, 0.05),
        (0.25, 0.2, -0.3, 0.05),
        (-0.4, -0.3, 0.5, 0.2),
    )

    def test_hold_no_f_by_f_array(self):
        cfg = mk.MinkowskiConfig(kmax=2, torus_radius=0.8, sample_points=self.COORDS[:3])
        for system in (mk.build_system(cfg), mk._translated_system(cfg)):
            for e in system.points:
                sizes = [a.size for a in _held_arrays(e.op)]
                assert sizes and max(sizes) < cfg.f**2
                assert e.op.f == cfg.f and e.op.matrix.shape == (cfg.f, cfg.f)

    @pytest.mark.parametrize("kmax", [0, 1, 2])
    def test_matrix_bytes_unchanged(self, kmax):
        cfg = mk.MinkowskiConfig(kmax=kmax, torus_radius=0.8, sample_points=self.COORDS)
        modes = mk.build_modes(cfg)
        want = [_dense_matrix(modes, p, cfg.eps).tobytes() for p in self.COORDS]
        built = {
            "local_correlation": [mk.local_correlation(modes, p, cfg.eps) for p in self.COORDS],
            "build_system": [e.op for e in mk.build_system(cfg).points],
            "_translates": mk._translates(modes, cfg.eps, self.COORDS),
        }
        for ops in built.values():
            assert [x.matrix.tobytes() for x in ops] == want
            # formed anew on each access, with the same bits
            assert ops[1].matrix is not ops[1].matrix
            assert ops[1].matrix.tobytes() == want[1]

    def test_equal_points_compare_waves(self, monkeypatch):
        cfg = mk.MinkowskiConfig(kmax=1, sample_points=((0, 0, 0, 0),))
        modes = mk.build_modes(cfg)
        x, y = (mk.local_correlation(modes, self.COORDS[1], 1e-3) for _ in range(2))
        z = mk.local_correlation(modes, self.COORDS[2], 1e-3)

        def refuse(*args):
            raise AssertionError("matrix formed")

        monkeypatch.setattr(core, "_wave_product", refuse)
        assert x is not y
        assert time_direction(x, y) == 0.0 and time_orientation(x, y) == 0
        assert time_direction(x, z) != 0.0

    @pytest.mark.parametrize("kmax", [0, 2])
    def test_written_and_validated_from_one_product_each(self, kmax, monkeypatch):
        # the writer halves only the stored triangle's entries with their
        # mirrors, to the bits of the matrix; neither it nor validate_system
        # forms a point's product twice
        cfg = mk.MinkowskiConfig(kmax=kmax, torus_radius=0.8, sample_points=self.COORDS)
        system = mk.build_system(cfg)
        tril = np.tril_indices(cfg.f)
        want = [
            base64.b64encode(e.op.matrix[tril].astype("<c16").tobytes()).decode("ascii")
            for e in system.points
        ]
        calls = []
        product = core._wave_product
        monkeypatch.setattr(core, "_wave_product", lambda *a: calls.append(a) or product(*a))
        with monkeypatch.context() as m:
            m.setattr(core, "_hermitian", None)  # the full matrix is never symmetrized
            doc = json.loads(system_to_json(system))
        assert [p["matrix"] for p in doc["points"]] == want
        assert len(calls) == len(system)
        calls.clear()
        assert validate_system(system) == []
        assert len(calls) == len(system)

    def test_written_triangle_of_huge_entries(self):
        # above 2**1022 the constructor halves before it adds; the writer
        # then symmetrizes the whole matrix as the constructor does
        rng = np.random.default_rng(1)
        psi = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
        psi[0, 0] = 1.5 * 2.0**511
        (x,) = OperatorPoint._from_waves([psi], mk.GAMMA[0])
        tril = np.tril_indices(12)
        assert np.abs(x.matrix).max() > 2.0**1022
        assert x._tril(tril).tobytes() == x.matrix[tril].tobytes()


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
        assert mk.transport_study(cfg, [4e-3], []) == []

    def test_no_full_eigendecomposition(self, eigh_shapes):
        # each eps decomposes the origin's point by the range finder
        cfg = mk.MinkowskiConfig(
            kmax=1, torus_radius=0.8, sample_points=((0.0, 0.0, 0.0, 0.0),)
        )
        mk.transport_study(cfg, [4e-3, 2e-3], [2, 4])
        assert (cfg.f, cfg.f) not in eigh_shapes

    def test_rows_match_per_point_systems(self):
        # oracle: every point decomposed on its own, as build_system does
        cfg = mk.MinkowskiConfig(
            kmax=1, torus_radius=0.8, sample_points=((0.0, 0.0, 0.0, 0.0),)
        )
        modes = mk.build_modes(cfg)
        rows = mk.transport_study(cfg, [4e-3, 2e-3], [2, 4], duration=0.6)
        for row in rows:
            n = row["n_steps"]
            pts = tuple((0.6 * k / n, 0.0, 0.0, 0.0) for k in range(n + 1))
            system = mk._build_system(replace(cfg, eps=row["eps"], sample_points=pts), modes)
            want = mk._transport_deviations(system, modes, list(system.ids))
            for key, value in want.items():
                assert row[key] == pytest.approx(value, rel=1e-9, abs=0.0)
