import numpy as np
import pytest
from numpy.testing import assert_allclose

import heatmetric as hm
from heatmetric import flow
from conftest import complete_graph_space, hypercube_space


class TestDtilde:
    def test_zero_time_is_original_metric(self, circle16):
        _, space, hs = circle16
        assert_allclose(hm.dtilde_matrix(hs, 0.0), space.dist, rtol=0, atol=0)

    def test_two_point_closed_form(self, two_point, two_point_scaled):
        for (_, hs), a in [(two_point, 1.0), (two_point_scaled, 2.5)]:
            for t in (0.1, 0.5, 1.0):
                val = hm.dtilde_matrix(hs, t)[0, 1]
                assert abs(val - a * np.exp(-t)) < 1e-9

    def test_diagonal_zero(self, circle16):
        _, _, hs = circle16
        dt = hm.dtilde_matrix(hs, 0.2)
        assert np.all(np.diag(dt) == 0)

    def test_axioms_and_positivity(self, circle16):
        _, space, hs = circle16
        fm = hm.flow_matrices(hs, 0.15)
        assert fm.max_axiom_violation() <= 1e-8
        off = fm.dtilde[~np.eye(space.n, dtype=bool)]
        assert off.min() > 0

    def test_cap(self, circle16):
        _, big = hm.model_circle(2 * np.pi, flow.FULL_MATRIX_CAP + 1)
        big_hs = hm.spectral_decompose(big)
        for t in (0.0, 0.1):  # t = 0 needs no solve and is capped all the same
            with pytest.raises(hm.FlowError, match="dtilde_pairs"):
                hm.dtilde_matrix(big_hs, t)
        _, _, hs = circle16
        vals = hm.dtilde_pairs(hs, 0.1, [(0, 8), (1, 5)])
        full = hm.dtilde_matrix(hs, 0.1)
        assert_allclose(vals, [full[0, 8], full[1, 5]], rtol=1e-12)

    def test_negative_time(self, circle16):
        _, _, hs = circle16
        with pytest.raises(hm.FlowError):
            hm.dtilde_matrix(hs, -0.1)

    def test_pairs_compute_each_heat_measure_once(self, circle16, monkeypatch):
        _, _, hs = circle16
        calls = []
        original = flow.heat_apply

        def counted(hs, t, mu):
            calls.append(int(np.argmax(mu)))
            return original(hs, t, mu)

        monkeypatch.setattr(flow, "heat_apply", counted)
        pairs = [(0, 8), (0, 5), (8, 5), (5, 0)]
        vals = hm.dtilde_pairs(hs, 0.1, pairs)
        # (8, 5) is solved as its orbit's representative (0, 3)
        assert sorted(calls) == [0, 3, 5, 8]
        full = hm.dtilde_matrix(hs, 0.1)
        assert vals.tolist() == [full[x, y] for x, y in pairs]

    @pytest.mark.parametrize("build, size, rate", [(hypercube_space, 4, 1.0),
                                                   (complete_graph_space, 8, 4.0)],
                             ids=["hypercube16", "complete8"])
    def test_edges_closed_form(self, build, size, rate):
        # unit masses and edge lengths: a hypercube edge is the two-point space
        # tensorized, dtilde_t = e^{-t}; on the complete graph on 8 points
        # H_t delta_x - H_t delta_y = e^{-8t} (delta_x - delta_y), dtilde_t = e^{-4t}
        space = build(size)
        hs = hm.spectral_decompose(space)
        for t in (1e-4, 1e-3, 0.01, 0.1, 0.5, 2.0):
            assert_allclose(hm.dtilde_pairs(hs, t, space.edges), np.exp(-rate * t), rtol=1e-9)

    def test_percont_bound(self, circle16):
        _, space, hs = circle16
        for t in (0.1, 0.4):
            dtil = hm.dtilde_matrix(hs, t)
            assert float((dtil - np.exp(-space.K * t) * space.dist).max()) <= 1e-8

    def test_semigroup_decay(self, circle16):
        _, space, hs = circle16
        t, h = 0.1, 0.15
        d1 = hm.dtilde_matrix(hs, t)
        d2 = hm.dtilde_matrix(hs, t + h)
        assert float((d2 - np.exp(-space.K * h) * d1).max()) <= 1e-8


def _counted_batch(monkeypatch, solve=True):
    """Patch flow's transport batch to record the number of pairs of each
    call; with solve=False it returns zeros instead of solving."""
    counts = []
    original = flow._w2_exact_batch

    def counted(pairs, dist):
        counts.append(len(pairs))
        return original(pairs, dist) if solve else np.zeros(len(pairs))

    monkeypatch.setattr(flow, "_w2_exact_batch", counted)
    return counts


class TestOrbits:
    """One transport solve per orbit of point pairs under the declared
    symmetries of the model grids."""

    def test_solves_per_orbit(self, circle24, torus8, monkeypatch):
        counts = _counted_batch(monkeypatch)
        hm.dtilde_matrix(circle24[2], 0.25)
        hm.dtilde_matrix(torus8[2], 0.25)
        assert counts == [12, 14]

    def test_orbits_of_the_16x16_torus_counted(self, monkeypatch):
        counts = _counted_batch(monkeypatch, solve=False)
        _, space = hm.model_torus(2 * np.pi, 2 * np.pi, 16, 16)
        hm.dtilde_matrix(hm.spectral_decompose(space), 0.25)
        assert counts == [44]

    @pytest.mark.parametrize("fixture", ["circle24", "torus8"])
    def test_matches_lone_solves(self, fixture, request):
        _, space, hs = request.getfixturevalue(fixture)
        full = hm.dtilde_matrix(hs, 0.25)
        # every orbit holds a pair (0, y); add pairs away from the origin
        pairs = [(0, y) for y in range(1, space.n)] + [(9, 20), (space.n - 1, 5), (7, 3)]
        heat = {x: hm.heat_apply(hs, 0.25, space.delta(x)) for x in {x for p in pairs for x in p}}
        lone = [hm.w2_exact(heat[x], heat[y], space.dist).value for x, y in pairs]
        assert_allclose([full[p] for p in pairs], lone, rtol=1e-12)

    @pytest.mark.parametrize("fixture", ["circle24", "torus8"])
    def test_matrix_invariant_under_the_group(self, fixture, request):
        _, space, hs = request.getfixturevalue(fixture)
        full = hm.dtilde_matrix(hs, 0.25)
        for g in space.symmetries:
            assert np.array_equal(full[np.ix_(g, g)], full)

    def test_pairs_equal_matrix_entries(self, circle24):
        _, _, hs = circle24
        pairs = [(5, 17), (17, 5), (0, 12), (23, 1)]
        full = hm.dtilde_matrix(hs, 0.25)
        assert hm.dtilde_pairs(hs, 0.25, pairs).tolist() == [full[p] for p in pairs]

    def test_space_without_symmetries_solves_each_pair(self, monkeypatch):
        counts = _counted_batch(monkeypatch)
        space = hypercube_space(3)
        hm.dtilde_matrix(hm.spectral_decompose(space), 0.2)
        assert counts == [28]


class TestDtArc:
    def test_zero_time(self, circle16):
        _, space, hs = circle16
        dt = hm.dt_arc_matrix(space, hm.dtilde_matrix(hs, 0.0))
        assert_allclose(dt, space.dist, atol=1e-12)

    def test_two_point_equals_dtilde(self, two_point):
        space, hs = two_point
        dtil = hm.dtilde_matrix(hs, 0.3)
        assert_allclose(hm.dt_arc_matrix(space, dtil), dtil, atol=0)

    def test_path_additivity(self):
        space = hm.build_space(3, [(0, 1, 1.0), (1, 2, 1.0)], np.ones(3), K=0.0)
        hs = hm.spectral_decompose(space)
        dtil = hm.dtilde_matrix(hs, 0.2)
        dt = hm.dt_arc_matrix(space, dtil)
        # no direct (0, 2) edge: the arc distance is the two-edge sum
        assert_allclose(dt[0, 2], dtil[0, 1] + dtil[1, 2], rtol=1e-12)

    def test_dominates_dtilde(self, circle16):
        _, space, hs = circle16
        dtil = hm.dtilde_matrix(hs, 0.25)
        dt = hm.dt_arc_matrix(space, dtil)
        assert float((dtil - dt).max()) <= 1e-10


class TestContraction:
    def test_circle_ratios_below_one(self, circle16):
        _, space, _ = circle16
        rep = hm.contraction_report(space, [0.05, 0.2, 0.6], [(0, 8), (2, 5)])
        assert rep.passed()
        assert all(r.ratio <= 1 + 1e-9 for r in rep.records)

    def test_zero_time_ratio_one(self, circle16):
        _, space, _ = circle16
        rep = hm.contraction_report(space, [0.0], [(0, 4)])
        assert_allclose(rep.records[0].ratio, 1.0, rtol=0)

    def test_zero_time_recomputes_the_same_bits(self, circle16, rng):
        _, space, _ = circle16
        mu, nu = rng.random(space.n) + 0.05, rng.random(space.n) + 0.05
        rep = hm.contraction_report(space, [0.0, 0.1], [(0, 4), (mu / mu.sum(), nu / nu.sum())])
        zero = [r for r in rep.records if r.t == 0]
        assert len(zero) == 2 and all(r.w2_evolved == r.w2_initial for r in zero)

    @pytest.mark.parametrize("times, pairs", [([0.1], []), ([], [(0, 1)])],
                             ids=["no-pairs", "no-times"])
    def test_needs_a_pair_and_a_time(self, circle16, monkeypatch, times, pairs):
        def refuse(space):
            raise AssertionError("decomposed without a pair or a time")

        monkeypatch.setattr(flow, "spectral_decompose", refuse)
        _, space, _ = circle16
        with pytest.raises(hm.FlowError, match="needs at least one pair and one time"):
            hm.contraction_report(space, times, pairs)

    def test_two_point_strict_contraction(self, two_point):
        space, _ = two_point
        rep = hm.contraction_report(space, [0.3, 0.7], [(0, 1)])
        for r in rep.records:
            assert_allclose(r.ratio, np.exp(-r.t), rtol=1e-9)
            assert r.bound == 1.0

    def test_measure_pairs(self, circle16, rng):
        _, space, _ = circle16
        mu = rng.random(space.n) + 0.05
        nu = rng.random(space.n) + 0.05
        mu, nu = mu / mu.sum(), nu / nu.sum()
        rep = hm.contraction_report(space, [0.1, 0.5], [(mu, nu)])
        assert rep.passed()

    def test_missing_K(self):
        space = hm.build_space(3, [(0, 1, 1.0), (1, 2, 1.0)], np.ones(3))
        with pytest.raises(hm.FlowError):
            hm.contraction_report(space, [0.1], [(0, 2)])

    @pytest.mark.parametrize("times, pair", [([-0.1], (0, 1)), ([0.1], (0, 99))])
    def test_input_checked_before_decomposition(self, circle16, monkeypatch, times, pair):
        def refuse(space):
            raise AssertionError("decomposed before the input checks")

        monkeypatch.setattr(flow, "spectral_decompose", refuse)
        _, space, _ = circle16
        with pytest.raises(hm.FlowError):
            hm.contraction_report(space, times, [pair])

    @pytest.mark.parametrize("pair", [(0, 1.5), (0.0, 1), ("0", 1)])
    def test_point_indices_are_integers(self, circle16, pair):
        _, space, hs = circle16
        message = "does not hold two point indices"
        with pytest.raises(hm.FlowError, match=message):
            hm.dtilde_pairs(hs, 0.1, [pair])
        with pytest.raises(hm.FlowError, match=message):
            hm.contraction_report(space, [0.1], [pair])

    def test_numpy_point_indices(self, circle16):
        _, _, hs = circle16
        assert (hm.dtilde_pairs(hs, 0.1, [(np.int64(0), np.int32(1))])
                == hm.dtilde_pairs(hs, 0.1, [(0, 1)])).all()

    def test_complete_graph_and_hypercube(self):
        for space in (complete_graph_space(8), hypercube_space(4)):
            rep = hm.contraction_report(space, [0.1, 0.5], [(0, space.n - 1)])
            assert rep.passed()


@pytest.fixture(scope="module")
def sphere():
    return hm.SphereGeometry(1.0, 1024, 120)


class TestSphereContraction:

    def test_pole_atoms_initial_distance(self, sphere):
        mu = hm.ZonalMeasure.pole(sphere)
        nu = hm.ZonalMeasure.pole(sphere, south=True)
        assert_allclose(hm.w2_zonal(mu, nu), np.pi, rtol=1e-12)

    def test_kernel_pair_contraction(self, sphere):
        pairs = [
            (hm.ZonalMeasure.pole(sphere), hm.ZonalMeasure.pole(sphere, south=True)),
            (hm.ZonalMeasure.heat_kernel(sphere, 0.1),
             hm.ZonalMeasure.heat_kernel(sphere, 0.1, south=True)),
            (hm.ZonalMeasure.heat_kernel(sphere, 0.3),
             hm.ZonalMeasure.heat_kernel(sphere, 0.3, south=True)),
        ]
        rep = hm.sphere_contraction_report(sphere, [0.05, 0.1, 0.2, 0.5], pairs)
        assert rep.passed()
        # strict margins, far beyond rounding in the exact monotone coupling
        assert rep.max_excess < -1e-3

    @pytest.mark.parametrize("theta0", [0.0, 0.9])
    def test_uniform_against_ring_closed_form(self, sphere, theta0):
        # every cell of the uniform law goes to the ring, so
        # W_2^2 = sum_k m_k (a_k^2 + a_k b_k + b_k^2) / 3 over its faces a_k, b_k
        coeffs = np.zeros(sphere.l_max + 1)
        coeffs[0] = 1 / (4 * np.pi * sphere.r**2)
        uniform = hm.ZonalMeasure(sphere, coeffs=coeffs)
        faces = sphere.faces()
        m = 0.5 * (np.cos(faces[:-1]) - np.cos(faces[1:]))
        a, b = faces[:-1] - theta0, faces[1:] - theta0
        expected = sphere.r * np.sqrt(np.sum(m * (a * a + a * b + b * b)) / 3)
        ring = hm.ZonalMeasure.ring(sphere, theta0)
        assert_allclose(hm.w2_zonal(uniform, ring), expected, rtol=1e-12)
        assert_allclose(hm.w2_zonal(ring, uniform), expected, rtol=1e-12)

    def test_atoms_have_no_cell_masses(self, sphere):
        with pytest.raises(hm.FlowError, match="a ring has no density"):
            hm.ZonalMeasure.ring(sphere, 0.9).cell_masses()

    @pytest.mark.parametrize("theta", [5.0, -0.1, np.nan, np.inf])
    def test_ring_colatitude_in_range(self, sphere, theta):
        with pytest.raises(hm.FlowError, match=r"colatitude must lie in \[0, pi\], not"):
            hm.ZonalMeasure.ring(sphere, theta)

    def test_ring_fields(self, sphere):
        ring = hm.ZonalMeasure.ring(sphere, np.pi)
        assert ring == hm.ZonalMeasure.pole(sphere, south=True)
        assert ring.colatitude == np.pi and ring.coeffs is None

    def test_zero_time_and_empty_lists(self, sphere):
        mu, nu = hm.ZonalMeasure.ring(sphere, 0.8), hm.ZonalMeasure.heat_kernel(sphere, 0.1)
        rep = hm.sphere_contraction_report(sphere, [0.0, 0.1], [(mu, nu)])
        assert rep.records[0].w2_evolved == rep.records[0].w2_initial
        for times, pairs in (([0.1], []), ([], [(mu, nu)])):
            with pytest.raises(hm.FlowError, match="needs at least one pair and one time"):
                hm.sphere_contraction_report(sphere, times, pairs)

    def test_ring_pair(self, sphere):
        mu = hm.ZonalMeasure.ring(sphere, 0.8)
        nu = hm.ZonalMeasure.ring(sphere, 2.1)
        assert_allclose(hm.w2_zonal(mu, nu), 1.3, rtol=1e-12)
        rep = hm.sphere_contraction_report(sphere, [0.1], [(mu, nu)])
        assert rep.passed()


class TestTimeContinuity:
    def test_two_point_closed_form(self, two_point):
        space, _ = two_point
        t = 0.2
        deltas = [0.2, 0.1, 0.05, 0.025, 0.0]
        rep = hm.time_continuity_report(space, t, deltas)
        expected = np.exp(-t) * (1 - np.exp(-rep.deltas))
        assert_allclose(rep.sup_differences, expected, atol=1e-9)
        assert rep.passed()
        # halving deltas asymptotically halves the difference
        pos = rep.sup_differences[rep.deltas > 0]
        ratios = pos[1:] / pos[:-1]
        assert np.all(np.abs(ratios - 0.5) < 0.05)

    def test_circle_monotone_bound(self, circle16):
        _, space, _ = circle16
        rep = hm.time_continuity_report(space, 0.1, [0.08, 0.04, 0.02, 0.01])
        assert rep.passed()
        assert rep.semigroup_excess <= 1e-8


    def test_no_deltas_rejected_before_decomposition(self, two_point, monkeypatch):
        def refuse(space):
            raise AssertionError("decomposed before the input checks")

        monkeypatch.setattr(flow, "spectral_decompose", refuse)
        with pytest.raises(hm.FlowError, match="time continuity needs at least one delta"):
            hm.time_continuity_report(two_point[0], 0.1, [])


class TestRefinement:
    def test_small_study_order(self):
        rep = hm.refinement_stability(2 * np.pi, 0.1, [16, 32, 64], [(0.0, 0.5)])
        assert rep.min_order >= 1.0
        assert rep.limit_consistent()

    def test_determinism(self):
        a = hm.refinement_stability(2 * np.pi, 0.1, [16, 32, 64], [(0.0, 0.5)])
        b = hm.refinement_stability(2 * np.pi, 0.1, [16, 32, 64], [(0.0, 0.5)])
        assert np.array_equal(a.probe_values, b.probe_values)

    def test_two_grids_have_no_order(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built for two grid sizes")

        monkeypatch.setattr(flow, "model_circle", no_grid)
        with pytest.raises(hm.FlowError, match="at least three grid sizes"):
            hm.refinement_stability(2 * np.pi, 0.1, [16, 32], [(0.0, 0.5)])

    def test_empty_probe_list(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built for an empty probe list")

        monkeypatch.setattr(flow, "model_circle", no_grid)
        with pytest.raises(hm.FlowError, match="at least one probe pair"):
            hm.refinement_stability(2 * np.pi, 0.1, [16, 32, 64], [])

    @pytest.mark.parametrize("sizes, bad", [([8.5, 16, 32], "8.5"), ([16, 32, 64.0], "64.0")])
    def test_grid_sizes_are_integers(self, monkeypatch, sizes, bad):
        def no_grid(*args):
            raise AssertionError("a grid was built before the sizes were checked")

        monkeypatch.setattr(flow, "model_circle", no_grid)
        with pytest.raises(hm.FlowError, match=f"each grid size must be an integer, got {bad}"):
            hm.refinement_stability(2 * np.pi, 0.1, sizes, [(0.0, 0.5)])

    def test_unrepresentable_probe(self):
        with pytest.raises(hm.FlowError):
            hm.refinement_stability(1.0, 0.1, [16, 32, 64], [(0.0, 1.0 / 3.0)])

    def test_grids_must_increase(self):
        with pytest.raises(hm.FlowError):
            hm.refinement_stability(1.0, 0.1, [16, 32, 32], [(0.0, 0.5)])
