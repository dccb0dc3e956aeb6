"""Length functional, causal graphs, Lorentzian distance, order, lattice."""

import math

import numpy as np
import pytest

import cfslab as cl
from cfslab.causal import (
    CausalGraph,
    LengthScales,
    build_causal_graph,
    distance_matrix,
    ell,
    enumerate_lattice,
    lorentzian_distance,
    ortho_complement,
    partial_order,
    tangent_cone_histogram,
)
from cfslab.core import (
    CausalClass,
    CausalFermionSystem,
    OperatorPoint,
    classify,
    time_direction,
)
from cfslab.errors import ValidationError

from conftest import nearby_point, random_regular_point, random_regular_system


def make_graph(n, edges):
    """Graph on ids g0..g{n-1} from an edge dict {(u, v): weight}."""
    return CausalGraph([f"g{k}" for k in range(n)], edges)


def brute_distance(graph, u, v):
    """Oracle: enumerate chains with at most two visits per vertex.

    A repeated vertex on a walk from u to v witnesses a positive-weight cycle
    on the way, which makes the supremum infinite; otherwise the supremum is
    over simple chains.  Each chain's weights are added from its start, as
    the longest-walk sweep adds them, so the two agree to the bit.
    """
    n = len(graph)
    adj = [[] for _ in range(n)]
    for (a, b), weight in sorted(graph.weights.items()):
        adj[a].append((b, weight))
    best = [0.0]
    infinite = [False]

    def dfs(w, counts, length, revisited):
        if w == v and length > 0:
            if revisited:
                infinite[0] = True
            elif length > best[0]:
                best[0] = length
        for t, weight in adj[w]:
            if counts[t] >= 2:
                continue
            counts[t] += 1
            dfs(t, counts, length + weight, revisited or counts[t] == 2)
            counts[t] -= 1

    counts = {w: 0 for w in range(n)}
    counts[u] = 1
    dfs(u, counts, 0.0, False)
    if infinite[0]:
        return math.inf
    return best[0]


def random_graph(rng, n=None, p=None):
    n = n if n is not None else int(rng.integers(2, 11))
    p = p if p is not None else 1.8 / n
    edges = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                edges[(u, v)] = float(rng.uniform(0.2, 2.0))
    return make_graph(n, edges)


class TestEll:
    def test_window_examples(self):
        x = OperatorPoint(np.diag([8.0, -8.0]))  # spectral radius of x*x = 64
        assert ell(x, x, LengthScales(0.1, 1.0)) == pytest.approx(0.5)
        assert ell(x, x, LengthScales(0.6, 1.0)) == 0.0

    def test_zero_product(self):
        x = OperatorPoint(np.diag([1.0, -1.0, 0.0, 0.0]))
        y = OperatorPoint(np.diag([0.0, 0.0, 1.0, -1.0]))
        assert ell(x, y, LengthScales(0.01, 100.0)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(40)
        scales = LengthScales(1e-3, 1e3)
        for _ in range(20):
            x = random_regular_point(8, 2, rng)
            y = random_regular_point(8, 2, rng)
            assert ell(x, y, scales) == pytest.approx(ell(y, x, scales), rel=1e-9)

    def test_scales_validation(self):
        with pytest.raises(ValidationError):
            LengthScales(1.0, 0.5)
        with pytest.raises(ValidationError):
            LengthScales(0.0, 1.0)


class TestBuildGraph:
    def test_single_point_no_edges(self):
        rng = np.random.default_rng(42)
        system = random_regular_system(1, 8, 2, rng)
        graph = build_causal_graph(system, LengthScales(1e-3, 1e3))
        assert graph.n_edges == 0

    def test_edges_match_per_pair_oracle(self):
        rng = np.random.default_rng(43)
        scales = LengthScales(0.5, 1.5)
        for trial in range(5):
            pts = [("a", 1.0, random_regular_point(8, 2, rng))]
            for k in range(4):
                pts.append(
                    (f"b{k}", 1.0, nearby_point(pts[0][2], rng, rotation=0.3))
                )
            # a singular point of rank 2 < 2n
            pts.append(("s", 1.0, nearby_point(pts[0][2], rng, rotation=0.3, n=1)))
            system = CausalFermionSystem(2, pts)
            assert not system.is_regular()
            graph = build_causal_graph(system, scales)
            tol = system.tolerances
            edges = {(u, v): w for u, v, w in graph.edges()}
            for eu in system.points:
                for ev in system.points:
                    if eu.id == ev.id:
                        continue
                    x, y = eu.op, ev.op
                    is_t = classify(x, y, tol, n=2) is CausalClass.TIMELIKE
                    c = time_direction(x, y)
                    thr = tol.imag_rel * x.spectral_radius * y.spectral_radius
                    w = ell(x, y, scales)
                    expect = is_t and c > thr and w > 0
                    assert ((eu.id, ev.id) in edges) == expect
                    if expect:
                        assert edges[(eu.id, ev.id)] == pytest.approx(w, rel=1e-9)

    def test_edge_weight_is_ell_of_the_pair_in_system_order(self):
        # an edge and its mirror share the spectral radius of the pair in
        # system order, which ell recomputes with the same arithmetic
        rng = np.random.default_rng(60)
        scales = LengthScales(1e-2, 1e2)
        system = random_regular_system(40, 8, 2, rng)
        graph = build_causal_graph(system, scales)
        pts = [e.op for e in system.points]
        assert {u < v for u, v in graph.weights} == {True, False}
        for (u, v), w in graph.weights.items():
            assert ell(pts[min(u, v)], pts[max(u, v)], scales) == w
            assert ell(pts[u], pts[v], scales) == pytest.approx(w, rel=1e-12)

    def test_never_both_directions(self):
        rng = np.random.default_rng(44)
        for _ in range(5):
            system = random_regular_system(6, 8, 2, rng)
            graph = build_causal_graph(system, LengthScales(1e-2, 1e2))
            edges = set((u, v) for u, v, _ in graph.edges())
            for u, v in edges:
                assert (v, u) not in edges

    def test_deterministic_three_chain(self):
        # near-commuting family ordered by the time-direction functional
        rng = np.random.default_rng(45)
        base = random_regular_point(8, 2, rng)
        a = nearby_point(base, rng, rotation=0.12)
        b = nearby_point(base, rng, rotation=0.12)
        system = CausalFermionSystem(
            2, [("u", 1.0, base), ("v", 1.0, a), ("w", 1.0, b)]
        )
        graph = build_causal_graph(system, LengthScales(1e-3, 1e3))
        # whatever the orientations, edges agree with the functional's signs
        tol = system.tolerances
        edges = {(u, v) for u, v, _ in graph.edges()}
        assert edges
        for eu in system.points:
            for ev in system.points:
                if eu.id == ev.id:
                    continue
                c = time_direction(eu.op, ev.op)
                thr = tol.imag_rel * eu.op.spectral_radius * ev.op.spectral_radius
                if (eu.id, ev.id) in edges:
                    assert c > thr


class TestCausalGraph:
    @pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan])
    def test_refuses_weight_not_positive_and_finite(self, weight):
        with pytest.raises(ValidationError):
            make_graph(3, {(0, 1): 1.0, (1, 2): weight})

    @pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 1), (1, -1)])
    def test_refuses_endpoint_outside_vertex_range(self, edge):
        with pytest.raises(ValidationError):
            make_graph(3, {(0, 1): 1.0, edge: 1.0})

    def test_edges_by_source_then_target(self):
        g = make_graph(3, {(2, 0): 0.5, (0, 2): 1.5, (1, 1): 2.0, (0, 1): 1.0})
        assert list(g.edges()) == [
            ("g0", "g1", 1.0), ("g0", "g2", 1.5), ("g1", "g1", 2.0), ("g2", "g0", 0.5)
        ]
        assert g.n_edges == 4


class TestLorentzianDistance:
    def test_hand_example(self):
        g = make_graph(3, {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.5})
        assert lorentzian_distance("g0", "g2", g) == pytest.approx(2.0)

    def test_unreachable_is_zero(self):
        g = make_graph(3, {(0, 1): 1.0})
        assert lorentzian_distance("g1", "g0", g) == 0.0
        assert lorentzian_distance("g2", "g0", g) == 0.0

    def test_cycle_gives_infinity(self):
        g = make_graph(3, {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 0.5})
        assert lorentzian_distance("g0", "g2", g) == math.inf
        assert lorentzian_distance("g0", "g0", g) == math.inf

    def test_self_distance_zero_without_cycle(self):
        g = make_graph(2, {(0, 1): 1.0})
        assert lorentzian_distance("g0", "g0", g) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            g = random_graph(rng)
            ids = g.ids
            u = int(rng.integers(len(ids)))
            v = int(rng.integers(len(ids)))
            assert lorentzian_distance(ids[u], ids[v], g) == brute_distance(g, u, v)

    def test_distance_matrix_consistent(self):
        rng = np.random.default_rng(47)
        g = random_graph(rng, n=7, p=0.3)
        dmat = distance_matrix(g)
        for i, u in enumerate(g.ids):
            for j, v in enumerate(g.ids):
                single = lorentzian_distance(u, v, g)
                if math.isinf(single):
                    assert math.isinf(dmat[i, j])
                else:
                    assert dmat[i, j] == pytest.approx(single, abs=1e-12)

    def test_self_loops_and_two_cycles_match_brute_force(self):
        g = make_graph(3, {(0, 1): 1.0, (1, 1): 0.5, (1, 2): 1.0})
        assert list(g.cyclic_vertices()) == [False, True, False]
        dmat = distance_matrix(g)
        for u, v in [(0, 1), (0, 2), (1, 1), (1, 2)]:
            assert dmat[u, v] == math.inf and g.reachable()[u, v]
        rng = np.random.default_rng(57)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            edges = {}
            for u in range(n):
                if rng.random() < 0.25:
                    edges[(u, u)] = float(rng.uniform(0.2, 2.0))
                for v in range(u + 1, n):
                    r = rng.random()
                    if r < 0.2:
                        edges[(u, v)] = edges[(v, u)] = float(rng.uniform(0.2, 2.0))
                    elif r < 0.45:
                        edges[(u, v)] = float(rng.uniform(0.2, 2.0))
            g = make_graph(n, edges)
            dmat = distance_matrix(g)
            for u in range(n):
                for v in range(n):
                    assert dmat[u, v] == brute_distance(g, u, v)

    def test_queries_read_one_matrix(self):
        rng = np.random.default_rng(58)
        cyclic = 0
        for _ in range(20):
            g = random_graph(rng, n=9, p=0.3)
            cyclic += bool(g.cyclic_vertices().any())
            dmat = distance_matrix(g)
            reach = g.reachable()
            for i, u in enumerate(g.ids):
                for j, v in enumerate(g.ids):
                    d = lorentzian_distance(u, v, g)
                    assert d == dmat[i, j]
                    assert reach[i, j] == (d > 0)
                    assert partial_order(u, v, g) == (i == j or d > 0)
        assert cyclic >= 10

    def test_reverse_triangle_inequality(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            g = random_graph(rng, n=7, p=0.25)
            dmat = distance_matrix(g)
            n = len(g.ids)
            for x in range(n):
                for y in range(n):
                    for z in range(n):
                        if dmat[x, y] > 0 and dmat[y, z] > 0:
                            assert dmat[x, z] >= dmat[x, y] + dmat[y, z] - 1e-9


class TestPartialOrder:
    def test_reflexive(self):
        g = make_graph(2, {})
        assert partial_order("g0", "g0", g)

    def test_transitive_chain(self):
        g = make_graph(3, {(0, 1): 1.0, (1, 2): 1.0})
        assert partial_order("g0", "g2", g)

    def test_cycle_breaks_antisymmetry(self):
        g = make_graph(2, {(0, 1): 1.0, (1, 0): 1.0})
        assert partial_order("g0", "g1", g) and partial_order("g1", "g0", g)

    def test_transitivity_exhaustive(self):
        rng = np.random.default_rng(49)
        for _ in range(20):
            g = random_graph(rng, n=8, p=0.25)
            n = len(g.ids)
            rel = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(n):
                    rel[i, j] = partial_order(g.ids[i], g.ids[j], g)
            for i in range(n):
                assert rel[i, i]
                for j in range(n):
                    for k in range(n):
                        if rel[i, j] and rel[j, k]:
                            assert rel[i, k]


class TestLattice:
    def test_empty_complement_is_everything(self):
        g = make_graph(3, {(0, 1): 1.0})
        assert ortho_complement([], g) == {"g0", "g1", "g2"}

    def test_comparable_pair(self):
        g = make_graph(2, {(0, 1): 1.0})
        assert ortho_complement(["g0"], g) == set()
        assert enumerate_lattice(g) == [(), ("g0", "g1")]

    def test_incomparable_pair(self):
        g = make_graph(2, {})
        assert ortho_complement(["g0"], g) == {"g1"}
        assert enumerate_lattice(g) == [(), ("g0",), ("g1",), ("g0", "g1")]

    def test_complement_beyond_63_points_matches_order(self):
        rng = np.random.default_rng(61)
        g = random_graph(rng, n=70, p=0.02)
        order = np.array([[partial_order(u, v, g) for v in g.ids] for u in g.ids])
        orthogonal = ~(order | order.T)
        for a in [[], [69], [3], [0, 64], list(rng.choice(70, 3, replace=False))]:
            want = {g.ids[v] for v in np.flatnonzero(orthogonal[a].all(axis=0))}
            assert ortho_complement([g.ids[u] for u in a], g) == want
            assert any(int(pid[1:]) >= 63 for pid in want)

    def test_size_cap(self):
        g = make_graph(5, {})
        with pytest.raises(ValidationError):
            enumerate_lattice(g, max_points=4)
        # closed sets are sorted as int64 bit masks: 63 points at most
        chain = make_graph(64, {(k, k + 1): 1.0 for k in range(63)})
        with pytest.raises(ValidationError):
            enumerate_lattice(chain, max_points=100)
        chain = make_graph(63, {(k, k + 1): 1.0 for k in range(62)})
        assert enumerate_lattice(chain, max_points=100) == [(), chain.ids]

    def _brute_closed_sets(self, g):
        n = len(g.ids)
        masks = []
        reach = g.reachable()
        comparable = reach | reach.T | np.eye(n, dtype=bool)
        for u in range(n):
            m = 0
            for v in range(n):
                if not comparable[u, v]:
                    m |= 1 << v
            masks.append(m)
        full = (1 << n) - 1

        def perp(bits):
            acc = full
            for v in range(n):
                if bits >> v & 1:
                    acc &= masks[v]
            return acc

        closed = sorted(
            bits for bits in range(1 << n) if perp(perp(bits)) == bits
        )
        out = []
        for bits in closed:
            out.append(tuple(g.ids[v] for v in range(n) if bits >> v & 1))
        return sorted(out, key=lambda s: (len(s), s)), perp

    def test_matches_power_set_brute_force(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            g = random_graph(rng, n=int(rng.integers(2, 9)), p=0.3)
            want, _ = self._brute_closed_sets(g)
            got = enumerate_lattice(g)
            assert got == want

    @pytest.mark.parametrize("shuffled", [True, False])
    def test_fourteen_points_in_string_order(self, shuffled):
        # ids compare as strings: g10 < g2, and shuffled ids leave point
        # order and string order unrelated
        rng = np.random.default_rng(59 + shuffled)
        g = random_graph(rng, n=14, p=0.04)
        if shuffled:
            g = CausalGraph([f"g{k}" for k in rng.permutation(14)], g.weights)
        want, _ = self._brute_closed_sets(g)
        assert len(want) > 100
        assert enumerate_lattice(g) == want

    def test_galois_laws(self):
        rng = np.random.default_rng(51)
        g = random_graph(rng, n=8, p=0.3)
        _, perp = self._brute_closed_sets(g)
        for bits in range(1 << 8):
            p1 = perp(bits)
            assert bits & perp(p1) == bits  # A subset of its double complement
            assert perp(perp(p1)) == p1  # triple complement equals complement

    def test_closed_under_intersection_and_join(self):
        rng = np.random.default_rng(52)
        g = random_graph(rng, n=7, p=0.3)
        sets = enumerate_lattice(g)
        closed = {frozenset(s) for s in sets}
        want, perp = self._brute_closed_sets(g)
        idx = {pid: k for k, pid in enumerate(g.ids)}

        def to_bits(s):
            bits = 0
            for pid in s:
                bits |= 1 << idx[pid]
            return bits

        def from_bits(bits):
            return frozenset(g.ids[v] for v in range(len(g.ids)) if bits >> v & 1)

        for a in closed:
            for b in closed:
                assert a & b in closed  # meet is the intersection
                join = from_bits(perp(perp(to_bits(a) | to_bits(b))))
                assert join in closed


class TestTangentCone:
    def _tube_system(self, rng, scale=1.0, delta=0.5):
        base = random_regular_point(8, 2, rng)
        pts = [("x", 1.0, base)]
        b = base.image_basis()
        for k in range(4):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = 0.5 * (h + h.conj().T)
            w = b @ h @ b.conj().T
            w *= 0.05 * scale * (k + 1) / np.linalg.norm(w, ord=2)
            pts.append((f"y{k}", 0.5 + 0.25 * k, OperatorPoint(base.matrix + w)))
        return CausalFermionSystem(2, pts), delta

    def test_center_maps_to_zero(self):
        rng = np.random.default_rng(53)
        system, delta = self._tube_system(rng)
        bins = [lambda a: np.linalg.norm(a) == 0.0]
        masses = tangent_cone_histogram(system, "x", delta, bins)
        # only the base point itself lands exactly on zero
        assert masses[0] == pytest.approx(
            system.weight("x") / system.total_weight()
        )

    def test_full_bin_mass_one(self):
        rng = np.random.default_rng(54)
        system, delta = self._tube_system(rng)
        masses = tangent_cone_histogram(system, "x", delta, [lambda a: True])
        assert masses[0] == pytest.approx(1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(55)
        seed_state = rng.bit_generator.state
        system1, delta = self._tube_system(rng)
        rng2 = np.random.default_rng(55)
        system2, _ = self._tube_system(rng2, scale=0.5)

        def trace_sign(a):
            return np.trace(a).real > 0

        def offdiag_dominant(a):
            d = np.abs(np.diag(a)).sum()
            return np.abs(a).sum() - d > d

        bins = [trace_sign, offdiag_dominant]
        m1 = tangent_cone_histogram(system1, "x", delta, bins)
        m2 = tangent_cone_histogram(system2, "x", delta, bins)
        assert np.allclose(m1, m2)

    @pytest.mark.parametrize("delta", [0.0, -0.5, math.nan])
    def test_radius_must_be_positive(self, delta):
        system, _ = self._tube_system(np.random.default_rng(53))
        with pytest.raises(ValidationError):
            tangent_cone_histogram(system, "x", delta, [lambda a: True])

    def test_empty_ball_errors(self):
        # the open ball around a support point always contains the point, so
        # the measure can only vanish when the center itself carries none
        rng = np.random.default_rng(56)
        base = random_regular_point(8, 2, rng)
        far = OperatorPoint(100.0 * base.matrix)
        system = CausalFermionSystem(2, [("x", 0.0, base), ("y", 1.0, far)])
        with pytest.raises(ValidationError):
            tangent_cone_histogram(system, "x", 1e-3, [lambda a: True])


class TestMinkowskiGraph:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_desk_scale_chain(self):
        # a slightly boosted timelike chain: purely time-axis pairs have an
        # exactly vanishing time-direction functional on this lattice, so the
        # sample points carry small spatial offsets; the window is calibrated
        # to the measured product magnitudes of this configuration
        from cfslab import minkowski as mk

        cfg = mk.MinkowskiConfig(
            mass=1.0,
            eps=1e-3,
            torus_radius=0.8,
            kmax=1,
            sample_points=(
                (0.0, 0.02, 0.0, 0.0),
                (0.22, 0.0, 0.0, 0.0),
                (0.44, 0.015, 0.0, 0.0),
            ),
        )
        system = mk.build_system(cfg)
        scales = LengthScales(3.0, 3.5)
        graph = build_causal_graph(system, scales)
        edges = {(u, v) for u, v, _ in graph.edges()}
        # the functional orients desk-scale pairs against coordinate time
        assert edges == {("p0002", "p0001"), ("p0001", "p0000"), ("p0002", "p0000")}
        for _, _, w in graph.edges():
            assert scales.l_min < w < scales.l_max
        d = lorentzian_distance("p0002", "p0000", graph)
        two_step = graph.weights[(2, 1)] + graph.weights[(1, 0)]
        direct = graph.weights[(2, 0)]
        assert d == pytest.approx(max(two_step, direct))

    def test_compton_warning(self, small_minkowski):
        _, system, _ = small_minkowski
        with pytest.warns(UserWarning):
            build_causal_graph(system, LengthScales(0.45, 1.0))
