import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import heatmetric as hm


def brute_force_shortest(n, edges, a, b):
    """Oracle: minimum length over all simple paths."""
    adj = {}
    for i, j, ell in edges:
        adj.setdefault(i, []).append((j, ell))
        adj.setdefault(j, []).append((i, ell))
    best = np.inf

    def walk(node, seen, acc):
        nonlocal best
        if node == b:
            best = min(best, acc)
            return
        for nxt, ell in adj.get(node, []):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, acc + ell)

    walk(a, {a}, 0.0)
    return best


class TestBuildSpace:
    def test_single_edge(self):
        space = hm.build_space(2, [(0, 1, 3.0)], [0.5, 0.5])
        assert space.dist[0, 1] == 3.0

    def test_path_concatenation(self):
        space = hm.build_space(3, [(0, 1, 1.0), (1, 2, 1.0)], np.ones(3))
        assert space.dist[0, 2] == 2.0

    def test_triangle_shortcut(self):
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)]
        space = hm.build_space(3, edges, np.ones(3))
        assert space.dist[0, 2] == brute_force_shortest(3, edges, 0, 2) == 2.0

    def test_disconnected(self):
        with pytest.raises(hm.DisconnectedGraph):
            hm.build_space(4, [(0, 1, 1.0), (2, 3, 1.0)], np.ones(4))

    def test_nonpositive_weight(self):
        with pytest.raises(hm.NonpositiveWeight):
            hm.build_space(2, [(0, 1, 1.0)], [1.0, 0.0])

    def test_nonpositive_edge(self):
        with pytest.raises(hm.NonpositiveEdgeLength):
            hm.build_space(2, [(0, 1, -2.0)], [1.0, 1.0])

    def test_triangle_inequality_exact(self):
        rng = np.random.default_rng(7)
        edges = [(i, (i + 1) % 7, float(rng.uniform(0.5, 2.0))) for i in range(7)]
        edges += [(0, 3, 1.1), (2, 5, 0.7)]
        space = hm.build_space(7, edges, rng.uniform(0.5, 2.0, 7))
        d = space.dist
        worst = -np.inf
        for i, j, k in itertools.product(range(7), repeat=3):
            worst = max(worst, d[i, k] - d[i, j] - d[j, k])
        assert worst <= 1e-12
        assert_allclose(d, d.T, rtol=0, atol=0)
        assert np.all(np.diag(d) == 0)
        offdiag = d[~np.eye(7, dtype=bool)]
        assert np.all(offdiag > 0)


class TestModelCircle:
    def test_antipodal(self):
        _, space = hm.model_circle(2 * np.pi, 8)
        assert_allclose(space.dist[0, 4], np.pi, rtol=1e-15)

    def test_total_measure(self):
        _, space = hm.model_circle(5.0, 16)
        assert_allclose(space.total_mass, 5.0, rtol=1e-12)

    def test_shorter_arc(self):
        _, space = hm.model_circle(1.0, 8)
        assert_allclose(space.dist[0, 3], 3.0 / 8.0, rtol=1e-15)

    def test_too_small(self):
        with pytest.raises(hm.GeometryError, match="circle grid needs n >= 8"):
            hm.model_circle(1.0, 4)

    def test_volume_weights(self):
        geom, _ = hm.model_circle(2 * np.pi, 32)
        assert_allclose(geom.volume_weights().sum(), 2 * np.pi, rtol=1e-10)
        assert geom.ricci(0.3, 2.0) == 0.0


class TestModelTorus:
    def test_axis_distance(self):
        geom, space = hm.model_torus(1.0, 1.0, 8, 8)
        # nodes (0,0) and (0,3): pure axis pair
        assert_allclose(space.dist[0, 3], 3.0 / 8.0, rtol=1e-12)

    def test_diagonal_neighbor(self):
        geom, space = hm.model_torus(1.0, 1.0, 8, 8)
        h = 1.0 / 8.0
        # (0,0) -> (1,1) is one diagonal edge
        assert_allclose(space.dist[0, 8 + 1], h * np.sqrt(2), rtol=1e-12)

    def test_octile_overestimate(self):
        geom, space = hm.model_torus(1.0, 1.0, 8, 8)
        h = 1.0 / 8.0
        for (i1, j1), (i2, j2) in [((0, 0), (2, 1)), ((0, 0), (3, 2)), ((1, 1), (4, 7))]:
            dx = min(abs(i1 - i2), 8 - abs(i1 - i2)) * h
            dy = min(abs(j1 - j2), 8 - abs(j1 - j2)) * h
            euclid = np.hypot(dx, dy)
            got = space.dist[i1 * 8 + j1, i2 * 8 + j2]
            assert euclid - 1e-12 <= got <= euclid * 1.083

    def test_flat_ricci_and_volume(self):
        geom, _ = hm.model_torus(2.0, 3.0, 8, 8)
        assert geom.ricci((0.1, 0.2), (1.0, -2.0)) == 0.0
        assert_allclose(geom.volume_weights().sum(), 6.0, rtol=1e-10)


class TestModelSphere:
    def test_unit_ricci(self):
        geom = hm.SphereGeometry(1.0, 64, 40)
        assert_allclose(geom.ricci(None, 1.0), 1.0, rtol=1e-15)

    def test_quadratic_form(self):
        geom = hm.SphereGeometry(2.0, 64, 40)
        v = np.array([0.3, -0.4])
        assert_allclose(geom.ricci(None, 2 * v), 4 * geom.ricci(None, v), rtol=1e-14)

    def test_area(self):
        geom = hm.SphereGeometry(1.7, 128, 60)
        assert_allclose(geom.volume_weights().sum(), 4 * np.pi * 1.7**2, rtol=1e-10)

    def test_parameter_guards(self):
        with pytest.raises(hm.GeometryError):
            hm.SphereGeometry(1.0, 32, 60)
        with pytest.raises(hm.GeometryError):
            hm.SphereGeometry(1.0, 128, 20)
        with pytest.raises(hm.TruncationError):
            hm.metric_gt(hm.SphereGeometry(1.0, 64, 40), 0.001)


class TestGeometryGuards:
    """Each geometry type checks its own parameters when constructed."""

    @pytest.mark.parametrize("geometry, args, message", [
        (hm.CircleGeometry, (2 * np.pi, 4), "circle grid needs n >= 8"),
        (hm.CircleGeometry, (-1.0, 64), "L must be > 0"),
        (hm.TorusGeometry, (1.0, 1.0, 8, 0), "torus grid needs n1, n2 >= 8"),
        (hm.TorusGeometry, (1.0, 0.0, 8, 8), "torus side lengths must be > 0"),
        (hm.SphereGeometry, (1.0, 8, 40), "sphere grid needs n_theta >= 64"),
        (hm.SphereGeometry, (1.0, 64, 20), "sphere series needs l_max >= 40"),
        (hm.SphereGeometry, (0.0, 64, 40), "radius must be > 0"),
        (hm.CircleGeometry, (2 * np.pi, 16.5), "n must be an integer, got 16.5"),
        (hm.model_circle, (2 * np.pi, 16.0), "n must be an integer, got 16.0"),
        (hm.TorusGeometry, (1.0, 1.0, 8, 8.0), "n2 must be an integer"),
        (hm.SphereGeometry, (1.0, 64.0, 40), "n_theta must be an integer"),
        (hm.SphereGeometry, (1.0, 64, "40"), "l_max must be an integer"),
    ])
    def test_rejects(self, geometry, args, message):
        with pytest.raises(hm.GeometryError, match=message):
            geometry(*args)

