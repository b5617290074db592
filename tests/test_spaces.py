import itertools
import re

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose

import heatmetric as hm
from heatmetric import spaces
from conftest import TRANSLATION_GRIDS, glide_torus, hypercube_with_translations, uniform_ring


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


class TestBuildSpaceInputs:
    """build_space rejects each bad input with a SpaceError naming it."""

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"measure": [1.0, np.nan]}, hm.NonpositiveWeight,
         "measure weights must be finite and > 0, not nan"),
        ({"measure": [np.inf, 1.0]}, hm.NonpositiveWeight, "not inf"),
        ({"measure": [1.0, 1.0, 1.0]}, hm.SpaceError, r"measure must have shape \(2,\)"),
        ({"edges": [(0, 1, np.nan)]}, hm.NonpositiveEdgeLength,
         "edge lengths must be finite and > 0, not nan"),
        ({"edges": [(0, 1, np.inf)]}, hm.NonpositiveEdgeLength, "not inf"),
        ({"edges": [(0, 2, 1.0)]}, hm.SpaceError, "edge endpoint out of range"),
        ({"edges": [(0, 1, 1.0), (1, 1, 1.0)]}, hm.SpaceError, "self loops are not allowed"),
        ({"edges": []}, hm.DisconnectedGraph, "edge graph has 2 components"),
        ({"conductances": [np.nan]}, hm.SpaceError,
         "conductances must be finite and >= 0, not nan"),
        ({"conductances": [np.inf]}, hm.SpaceError, "not inf"),
        ({"conductances": [-1.0]}, hm.SpaceError, "not -1.0"),
        ({"conductances": [1.0, 1.0]}, hm.SpaceError, "conductances must match the edge list"),
        ({"K": np.nan}, hm.SpaceError, "K must be finite, not nan"),
        ({"K": -np.inf}, hm.SpaceError, "K must be finite, not -inf"),
        ({"points": 2.9}, hm.SpaceError, "the point count must be an integer, got 2.9"),
        ({"points": 2.0}, hm.SpaceError, "the point count must be an integer, got 2.0"),
        ({"edges": [(0, 1.7, 1.0)]}, hm.SpaceError,
         "each edge endpoint must be an integer, got 1.7"),
        ({"edges": [(np.float64(0), 1, 1.0)]}, hm.SpaceError,
         "each edge endpoint must be an integer"),
        ({"points": True}, hm.SpaceError, "the point count must be an integer, got True"),
        ({"edges": [(True, 0, 1.0)]}, hm.SpaceError,
         "each edge endpoint must be an integer, got True"),
        ({"edges": [(0, np.True_, 1.0)]}, hm.SpaceError,
         "each edge endpoint must be an integer, got np.True_"),
    ], ids=["measure-nan", "measure-inf", "measure-shape", "length-nan", "length-inf",
            "endpoint", "self-loop", "no-edges", "conductance-nan", "conductance-inf",
            "conductance-negative", "conductance-count", "K-nan", "K-inf", "points-float",
            "points-integral-float", "endpoint-float", "endpoint-numpy-float", "points-bool",
            "endpoint-bool", "endpoint-numpy-bool"])
    def test_rejects(self, kwargs, error, message):
        args = {"points": 2, "edges": [(0, 1, 1.0)], "measure": [1.0, 1.0], **kwargs}
        with pytest.raises(error, match=message):
            hm.build_space(**args)

    @pytest.mark.parametrize("points, edges, pair", [
        (2, [(0, 1, 1.0), (1, 0, 1.0)], "(0, 1)"),
        (3, [(0, 1, 1.0), (1, 2, 1.0), (1, 2, 2.0)], "(1, 2)"),
        (3, [(0, 1, 1.0), (2, 1, 1.0), (1, 0, 3.0), (1, 2, 1.0)], "(0, 1)"),
    ], ids=["reversed", "parallel", "two-pairs"])
    def test_edge_given_twice(self, points, edges, pair):
        # a repeated edge used to have its lengths summed into one edge
        with pytest.raises(hm.SpaceError, match=re.escape(f"the edge {pair} is given twice")):
            hm.build_space(points, edges, np.ones(points))

    def test_numpy_integers(self):
        space = hm.build_space(np.int64(2), [(np.int32(0), np.uint8(1), 1.0)], [1.0, 1.0])
        assert space.n == 2 and space.edges.tolist() == [[0, 1]]

    def test_edges_read_once(self):
        # a generator of edges is spent by its first pass
        space = hm.build_space(2, ((0, 1, 1.0) for _ in range(1)), [1.0, 1.0])
        assert space.edges.tolist() == [[0, 1]] and space.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_single_point(self):
        space = hm.build_space(1, [], [2.0], K=0.0)
        assert space.dist.tolist() == [[0.0]]
        assert space.edges.shape == (0, 2) and space.conductances.shape == (0,)
        assert hm.spectral_decompose(space).eigenvalues.tolist() == [0.0]

    def test_default_conductances(self):
        # min(m_i, m_j) / length^2 per edge, resolved once by build_space
        space = hm.build_space(3, [(0, 1, 2.0), (1, 2, 0.5)], [1.0, 3.0, 2.0])
        assert space.conductances.tolist() == [0.25, 8.0]


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
        assert geom.K == 0.0


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
        assert geom.K == 0.0
        assert_allclose(geom.volume_weights().sum(), 6.0, rtol=1e-10)


def circle_oracle(L, n):
    """The circle grid written out point by point: edges, measure,
    conductances, declared symmetries and group coordinates."""
    h = L / n
    edges = [(i, (i + 1) % n, h) for i in range(n)]
    symmetries = [[(i + 1) % n for i in range(n)], [-i % n for i in range(n)]]
    return edges, [h] * n, [h / h**2] * n, symmetries, [[i] for i in range(n)]


def torus_oracle(L1, L2, n1, n2):
    """The torus grid written out point by point, as circle_oracle."""
    h1, h2 = L1 / n1, L2 / n2
    hd, cell = float(np.hypot(h1, h2)), h1 * h2

    def idx(i, j):
        return (i % n1) * n2 + j % n2

    edges, cond = [], []
    for i in range(n1):
        for j in range(n2):
            edges += [(idx(i, j), idx(i + 1, j), h1), (idx(i, j), idx(i, j + 1), h2),
                      (idx(i, j), idx(i + 1, j + 1), hd), (idx(i, j), idx(i + 1, j - 1), hd)]
            cond += [cell / h1**2, cell / h2**2, 0.0, 0.0]
    points = [(i, j) for i in range(n1) for j in range(n2)]
    symmetries = [[idx(i + 1, j) for i, j in points], [idx(i, j + 1) for i, j in points],
                  [idx(-i, j) for i, j in points], [idx(i, -j) for i, j in points]]
    if (L1, n1) == (L2, n2):
        symmetries.append([idx(j, i) for i, j in points])
    return edges, [cell] * len(points), cond, symmetries, [list(p) for p in points]


GRIDS = {
    **{f"circle{n}": (hm.model_circle, circle_oracle, (2 * np.pi, n)) for n in (8, 9, 255)},
    **{f"torus{a}x{b}": (hm.model_torus, torus_oracle, (2 * np.pi, 2 * np.pi, a, b))
       for a, b in ((8, 8), (8, 12), (9, 15))},
    "torus8x8-sides1x2": (hm.model_torus, torus_oracle, (1.0, 2.0, 8, 8)),
}


class TestGridBuilder:
    """model_circle and model_torus build one periodic-grid space each,
    field for field and in order the one their edge lists describe."""

    @pytest.mark.parametrize("model, oracle, args", GRIDS.values(), ids=GRIDS)
    def test_every_field_against_an_edge_list(self, model, oracle, args):
        geom, space = model(*args)
        edges, measure, cond, symmetries, coords = oracle(*args)
        assert space.n == len(measure) and space.K == 0.0
        assert space.edges.tolist() == [[i, j] for i, j, _ in edges]
        assert space.lengths.tolist() == [ell for _, _, ell in edges]
        assert space.conductances.tolist() == cond
        assert space.measure.tolist() == measure
        assert np.array_equal(space.measure, geom.volume_weights().ravel())
        assert [g.tolist() for g in space.symmetries] == symmetries
        assert space.translation_coords.tolist() == coords
        # the metric of the edge list from all pairs, with no group declared
        plain = hm.build_space(space.n, edges, measure, conductances=cond)
        assert np.array_equal(space.dist, plain.dist)


class TestModelSphere:
    def test_unit_ricci(self):
        # Ric(v, v) = K |v|^2 with K = 1 / r^2
        assert hm.SphereGeometry(1.0, 64, 40).K == 1.0
        assert hm.SphereGeometry(2.0, 64, 40).K == 0.25

    def test_quadratic_form(self):
        # the Ricci pairing K g_t(v, v) and the Bochner derivative are
        # quadratic in v
        geom = hm.SphereGeometry(2.0, 64, 40)
        v = np.array([0.3, -0.4])
        assert_allclose(hm.metric_gt(geom, 0.0, v=2 * v), 4 * hm.metric_gt(geom, 0.0, v=v),
                        rtol=1e-14)
        assert_allclose(geom.K * hm.metric_gt(geom, 0.2, v=2 * v),
                        4 * geom.K * hm.metric_gt(geom, 0.2, v=v), rtol=1e-14)
        assert_allclose(hm.gt_derivative_bochner(geom, 0.2, v=2 * v),
                        4 * hm.gt_derivative_bochner(geom, 0.2, v=v), rtol=1e-14)

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
        (hm.CircleGeometry, (np.nan, 16), "L must be > 0 and finite, not nan"),
        (hm.CircleGeometry, (np.inf, 16), "L must be > 0 and finite, not inf"),
        (hm.TorusGeometry, (np.nan, 1.0, 8, 8), "torus side lengths must be > 0 and finite, not nan"),
        (hm.TorusGeometry, (1.0, np.inf, 8, 8), "torus side lengths must be > 0 and finite, not inf"),
        (hm.SphereGeometry, (np.nan, 64, 80), "radius must be > 0 and finite, not nan"),
        (hm.SphereGeometry, (np.inf, 64, 80), "radius must be > 0 and finite, not inf"),
        (hm.model_torus, (np.nan, 1.0, 8, 8), "not nan"),
        (hm.CircleGeometry, (2 * np.pi, True), "n must be an integer, got True"),
        (hm.TorusGeometry, (1.0, 1.0, 8, np.True_), "n2 must be an integer, got np.True_"),
    ])
    def test_rejects(self, geometry, args, message):
        with pytest.raises(hm.GeometryError, match=message):
            geometry(*args)



def _ring(n, lengths=None, measure=None, cond=None):
    """The n-cycle with unit lengths, masses and conductances unless given."""
    lengths = np.ones(n) if lengths is None else lengths
    edges = [(i, (i + 1) % n, lengths[i]) for i in range(n)]
    return edges, np.ones(n) if measure is None else measure, np.ones(n) if cond is None else cond


class TestSymmetries:
    """Declared point permutations are checked exactly, never trusted."""

    ROTATION = (np.arange(6) + 1) % 6

    def test_ring_rotation_and_reflection_accepted(self):
        edges, measure, cond = _ring(6)
        space = hm.build_space(6, edges, measure, conductances=cond,
                               symmetries=[self.ROTATION, -np.arange(6) % 6])
        assert len(space.symmetries) == 2
        assert not space.symmetries[0].flags.writeable

    @pytest.mark.parametrize("g", [[0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6],
                                   [1.0, 2.0, 3.0, 4.0, 5.0, 0.0], [1, 2, 3, 4, 5, False]],
                             ids=["repeat", "short", "out-of-range", "float", "bool"])
    def test_non_permutation(self, g):
        edges, measure, cond = _ring(6)
        with pytest.raises(hm.SpaceError, match="permutation of 0..5"):
            hm.build_space(6, edges, measure, conductances=cond, symmetries=[g])

    @pytest.mark.parametrize("what, kwargs, message", [
        ("measure", {"measure": np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])}, "measure"),
        ("length", {"lengths": np.array([1.0, 1.0, 1.0, 1.5, 1.0, 1.0])}, "edges"),
        ("conductance", {"cond": np.array([1.0, 1.0, 2.0, 1.0, 1.0, 1.0])}, "edges"),
    ])
    def test_rotation_of_a_broken_ring(self, what, kwargs, message):
        edges, measure, cond = _ring(6, **kwargs)
        hm.build_space(6, edges, measure, conductances=cond)  # valid without the rotation
        with pytest.raises(hm.SpaceError, match=message):
            hm.build_space(6, edges, measure, conductances=cond, symmetries=[self.ROTATION])

    def test_default_conductances_compare_lengths(self):
        edges, measure, _ = _ring(6, lengths=np.array([1.0, 1.0, 1.0, 1.5, 1.0, 1.0]))
        with pytest.raises(hm.SpaceError, match="edges"):
            hm.build_space(6, edges, measure, symmetries=[self.ROTATION])

    def test_lengthened_model_circle_edge(self):
        _, space = hm.model_circle(2 * np.pi, 24)
        lengths = space.lengths.copy()
        lengths[5] *= 1.25
        edges = [(i, j, ell) for (i, j), ell in zip(space.edges, lengths)]
        with pytest.raises(hm.SpaceError, match="edges"):
            hm.build_space(24, edges, space.measure, conductances=space.conductances,
                           symmetries=space.symmetries)

    @pytest.mark.parametrize("build, count", [
        (lambda: hm.model_circle(2 * np.pi, 24), 2),
        (lambda: hm.model_torus(2 * np.pi, 2 * np.pi, 8, 8), 5),
        (lambda: hm.model_torus(2 * np.pi, 2 * np.pi, 8, 12), 4),
    ], ids=["circle24", "torus8x8", "torus8x12"])
    def test_model_generators_preserve_the_metric(self, build, count):
        _, space = build()
        assert len(space.symmetries) == count
        for g in space.symmetries:
            assert np.array_equal(space.dist[np.ix_(g, g)], space.dist)
            assert np.array_equal(space.measure[g], space.measure)

    def test_none_declared(self):
        assert hm.build_space(2, [(0, 1, 1.0)], [1.0, 1.0]).symmetries == ()



class TestTranslationGroup:
    """Declared symmetries without a fixed point that commute, whose orders
    multiply to n and whose orbit of point 0 is everything, give each point
    its coordinates in the group."""

    def test_circle_coordinates(self):
        _, space = hm.model_circle(2 * np.pi, 24)  # the reflection fixes 0 and is left out
        assert space.translation_coords.tolist() == [[i] for i in range(24)]
        assert not space.translation_coords.flags.writeable

    def test_torus_coordinates(self):
        _, space = hm.model_torus(2 * np.pi, 2 * np.pi, 8, 8)  # the axis swap fixes the diagonal
        assert space.translation_coords.tolist() == [[i, j] for i in range(8) for j in range(8)]

    def test_hypercube_coordinates(self):
        space = hypercube_with_translations(3)
        assert space.translation_coords.tolist() == [[x & 1, x >> 1 & 1, x >> 2] for x in range(8)]

    def test_space_file_rotation(self):
        space = uniform_ring(12, rotation=1)
        assert space.translation_coords.ravel().tolist() == list(range(12))

    def test_rotation_by_two_is_not_transitive(self):
        # order 6 on 12 points: the orbit of 0 is the even points
        assert uniform_ring(12, rotation=2).translation_coords is None

    def test_glide_is_not_transitive(self):
        assert glide_torus().translation_coords is None

    def test_non_commuting_generators(self):
        # on the 6-cycle the rotation and the reflection i -> 1 - i have no fixed
        # point, but they do not commute
        edges, measure, cond = _ring(6)
        space = hm.build_space(6, edges, measure, conductances=cond,
                               symmetries=[(np.arange(6) + 1) % 6, (1 - np.arange(6)) % 6])
        assert space.translation_coords is None

    def test_no_symmetries(self):
        assert hm.build_space(2, [(0, 1, 1.0)], [1.0, 1.0]).translation_coords is None

    @pytest.mark.parametrize("build", [*TRANSLATION_GRIDS.values(), lambda: uniform_ring(3, rotation=1)],
                             ids=[*TRANSLATION_GRIDS, "circle3"])
    def test_metric_is_the_all_pairs_metric(self, build):
        space = build()
        assert space.translation_coords is not None
        adj = spaces._adjacency(space.n, space.edges, space.lengths)
        assert np.array_equal(space.dist, spaces._path_metric(adj))

    # the torus flows at t = 0 only, where dtilde_0 = d needs no transport
    @pytest.mark.parametrize("build, t", [
        pytest.param(lambda: hm.model_circle(2 * np.pi, 24), 0.25, id="circle24"),
        pytest.param(lambda: hm.model_torus(2 * np.pi, 2 * np.pi, 16, 12), 0.0, id="torus16x12"),
    ])
    def test_sparse_grid_takes_one_source(self, build, t, monkeypatch):
        # both d and d_t: the flow chains dtilde_t by the space's own rule
        def refuse(*args, **kwargs):
            raise AssertionError("all-pairs shortest paths on a translation grid")

        monkeypatch.setattr(scipy.sparse.csgraph, "shortest_path", refuse)
        _, space = build()
        fm = hm.flow_matrices(hm.spectral_decompose(space), t)
        monkeypatch.undo()
        weights = fm.dtilde[space.edges[:, 0], space.edges[:, 1]]
        adj = spaces._adjacency(space.n, space.edges, weights)
        assert np.array_equal(fm.dt, spaces._path_metric(adj))

    def test_dense_circulant_keeps_floyd_warshall_bits(self):
        # every chord of the 12-cycle, with a random length per offset: scipy's
        # all-pairs search runs Floyd-Warshall, and with these lengths (seed 28)
        # one-source Dijkstra sums some paths to other last bits
        rng = np.random.default_rng(28)
        n, lengths = 12, rng.uniform(0.3, 3.0, 7)
        edges = [(i, (i + o) % n, lengths[o]) for o in range(1, 7) for i in range(n if o < 6 else 6)]
        space = hm.build_space(n, edges, np.ones(n), symmetries=[(np.arange(n) + 1) % n])
        adj = spaces._adjacency(n, space.edges, space.lengths)
        assert space.translation_coords is not None and adj.nnz >= n * n / 4
        assert not np.array_equal(spaces._translation_metric(adj, space.translation_coords),
                                  spaces._path_metric(adj))
        assert np.array_equal(space.dist, spaces._path_metric(adj))
