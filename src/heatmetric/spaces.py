"""Finite metric-measure spaces and discretized model-geometry grids.

A finite metric-measure space is a connected edge-weighted graph carrying a
strictly positive measure on its points; its metric is the shortest-path
metric, so the triangle inequality holds exactly. Model geometries (circle,
flat torus) are discretized onto such spaces with grid measures and
conductances chosen so the graph Laplacian is second-order consistent with
the Laplace-Beltrami operator.

A space may declare symmetries: point permutations that preserve its
measure and its edges with their lengths and conductances, hence its metric
and its heat semigroup. build_space checks every declared permutation and
never infers one; the model grids declare generators of their groups,
and a space file may declare its own. When the declared symmetries without
a fixed point generate a translation group (one that acts regularly: the
model circle's rotation, the model torus's unit translations, the XOR
translations of a hypercube), build_space keeps each point's coordinates in
that group; the metric of a sparse graph is then one single-source
shortest-path row gathered over the group, and the heat spectrum comes from
the group's characters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import CircleGeometry, TorusGeometry, _require_integers

__all__ = [
    "SpaceError",
    "DisconnectedGraph",
    "NonpositiveWeight",
    "NonpositiveEdgeLength",
    "FiniteMetricMeasureSpace",
    "build_space",
    "model_circle",
    "model_torus",
]


class SpaceError(ValueError):
    """Invalid finite metric-measure space input."""


class DisconnectedGraph(SpaceError):
    """The edge graph is not connected."""


class NonpositiveWeight(SpaceError):
    """A measure weight is not strictly positive."""


class NonpositiveEdgeLength(SpaceError):
    """An edge length is not strictly positive."""


@dataclass(frozen=True)
class FiniteMetricMeasureSpace:
    """Points with an edge graph, shortest-path metric and positive weights.

    Attributes
    ----------
    n : int
        Point count.
    edges : ndarray, shape (m, 2), int
        Undirected edge endpoints.
    lengths : ndarray, shape (m,)
        Edge lengths, all > 0.
    dist : ndarray, shape (n, n)
        All-pairs shortest-path metric.
    measure : ndarray, shape (n,)
        Mass per point, all > 0. Kept as given; operations that need a
        probability measure normalize internally.
    K : float or None
        Declared lower Ricci bound, finite when given. Never computed;
        operations that need it fail when absent.
    conductances : ndarray, shape (m,)
        Per-edge heat conductances, finite and >= 0: the ones given to
        build_space, or its default min(m_i, m_j) / length^2. Never None.
    symmetries : tuple of ndarray, shape (n,), int
        Checked point permutations g that preserve the space: m(g x) = m(x),
        and the edge (g i, g j) carries the length and conductance of
        (i, j). They generate the declared group; empty when none is
        declared.
    translation_coords : ndarray, shape (n, k), int, or None
        Coordinates of each point in the declared translation group
        Z_{o_1} x ... x Z_{o_k} (see build_space): point x is
        g_1^{c_1} ... g_k^{c_k}(0) for c = translation_coords[x], so point 0
        has coordinates 0 and each order o_j is one more than the column's
        maximum. None when the declared symmetries form no translation group.
    """

    n: int
    edges: np.ndarray
    lengths: np.ndarray
    dist: np.ndarray
    measure: np.ndarray
    conductances: np.ndarray
    K: float | None = None
    symmetries: tuple = ()
    translation_coords: np.ndarray | None = None

    @property
    def total_mass(self) -> float:
        return float(self.measure.sum())

    def probability_measure(self) -> np.ndarray:
        """The normalized reference measure m / m(X)."""
        return self.measure / self.total_mass

    def delta(self, x: int) -> np.ndarray:
        """Unit point mass at x, as a vector."""
        mu = np.zeros(self.n)
        mu[x] = 1.0
        return mu


def _adjacency(n, edges, values):
    m = scipy.sparse.coo_matrix(
        (np.concatenate([values, values]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    )
    return m.tocsr()


def _path_metric(adj, coords=None):
    """All-pairs shortest paths over the weighted adjacency adj, made exactly
    symmetric with a zero diagonal: the space's metric, and d_t.

    shortest_path runs Dijkstra when adj has fewer than n^2 / 4 entries and
    Floyd-Warshall otherwise, and the two sum paths differently in the last
    bits. With coords, the coordinates of a translation group that carries
    the graph onto itself, a sparse graph takes one single-source Dijkstra
    instead (_translation_metric), which gives the same bits."""
    n = adj.shape[0]
    if coords is not None and adj.nnz < n * n / 4:
        return _translation_metric(adj, coords)
    dist = scipy.sparse.csgraph.shortest_path(adj, directed=False)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def _translation_coords(n, symmetries):
    """Each point's coordinates in the translation group of the checked
    symmetries, or None when they form none.

    The generators g_1..g_k are the symmetries without a fixed point. They
    form a translation group when they pairwise commute, the product of
    their orders o_j (each read at point 0) is n, and the orbit of point 0
    covers every point. Then the group has at most n elements and acts
    transitively, so it acts regularly as Z_{o_1} x ... x Z_{o_k}, and
    c -> g_1^{c_1} ... g_k^{c_k}(0) is a bijection onto the points.
    """
    gens = [g for g in symmetries if np.all(g != np.arange(n))]
    if not gens or any(not np.array_equal(g[h], h[g]) for g, h in combinations(gens, 2)):
        return None
    # orbit holds g_1^{c_1} ... g_j^{c_j}(0) at the flat index of (c_j, ..., c_1)
    orbit, orders = np.zeros(1, dtype=int), []
    for g in gens:
        step = g.tolist()
        x, order = step[0], 1
        while x != 0:
            x, order = step[x], order + 1
        if orbit.size * order > n:
            return None
        layers, power = orbit[None, :], g  # layers[b] = g^b(orbit), doubled up to the order
        while len(layers) < order:
            layers, power = np.concatenate([layers, power[layers]]), power[power]
        orbit, orders = layers[:order].ravel(), [order, *orders]
    if orbit.size != n or not np.array_equal(np.sort(orbit), np.arange(n)):
        return None
    coords = np.empty((n, len(orders)), dtype=int)
    coords[orbit] = np.stack(np.unravel_index(np.arange(n), orders)[::-1], axis=1)
    coords.flags.writeable = False
    return coords


def _translation_metric(adj, coords):
    """The all-pairs Dijkstra metric of a graph carried onto itself by the
    translation group of coords, from one single-source Dijkstra.

    Dijkstra's value at y is the least, over paths, of the path's lengths
    summed from the source, so the group's translations carry it over:
    all-pairs Dijkstra would give D[x, y] = d0[c(y) - c(x)] with d0 the row
    of point 0, and _path_metric keeps min(D, D.T), which is
    min(d0[c(y) - c(x)], d0[c(x) - c(y)]).
    """
    orders = tuple(int(o) for o in coords.max(axis=0) + 1)
    row = np.empty(orders)
    row[tuple(coords.T)] = scipy.sparse.csgraph.dijkstra(adj, directed=False, indices=0)
    row = np.minimum(row, row[np.ix_(*[-np.arange(o) % o for o in orders])])
    # row[c' - c] is wide[o - c, c'] = tiled[o - c + c'], with o - c + c' in [1, 2o)
    wide = sliding_window_view(np.tile(row, (2,) * len(orders)), orders)
    return wide[tuple((o - c)[:, None] for o, c in zip(orders, coords.T))
                + tuple(c[None, :] for c in coords.T)]


def _edge_table(edges, lengths, cond):
    """Rows (min end, max end, length, conductance) in lexicographic order:
    one canonical form of the edge multiset."""
    table = np.column_stack([np.sort(edges, axis=1), lengths, cond])
    return table[np.lexsort(table.T[::-1])]


def _checked_symmetry(g, n, edges, lengths, measure, cond, table):
    """g as a read-only int permutation, once it is checked to map the
    measure and the edge multiset (lengths and conductances included, table
    its _edge_table) onto themselves exactly. The metric is the edges'
    shortest-path metric, so it is preserved too."""
    if not isinstance(g, np.ndarray):
        g = list(g)
        _require_integers(f"each entry of a symmetry, a permutation of 0..{n - 1},",
                          g, SpaceError)
    g = np.array(g)
    if (g.shape != (n,) or g.dtype.kind not in "iu"
            or not np.array_equal(np.sort(g), np.arange(n))):
        raise SpaceError(f"a symmetry must be a permutation of 0..{n - 1}")
    if not np.array_equal(measure[g], measure):
        raise SpaceError("a symmetry does not preserve the measure")
    if not np.array_equal(_edge_table(g[edges], lengths, cond), table):
        raise SpaceError("a symmetry does not map the edges, their lengths "
                         "and their conductances onto themselves")
    g = g.astype(int)
    g.flags.writeable = False
    return g


def _reject(values, ok, error, what):
    """Raise error naming the first of values that is non-finite or not ok."""
    bad = values[~(ok & np.isfinite(values))]
    if bad.size:
        raise error(f"{what}, not {bad[0]}")


def build_space(points, edges, measure, K=None, conductances=None,
                symmetries=()) -> FiniteMetricMeasureSpace:
    """Construct a finite metric-measure space from an edge list.

    Parameters
    ----------
    points : int
        Number of points, a Python or NumPy integer (not a boolean).
    edges : iterable of (i, j, length)
        Undirected edges between distinct points, given by Python or NumPy
        integers (not booleans), lengths finite and > 0, each pair of points
        at most once (in either order). It is read once.
    measure : array_like, shape (points,)
        Finite, strictly positive weights.
    K : float, optional
        Declared lower Ricci bound, finite.
    conductances : array_like, optional
        Per-edge heat conductances, finite and >= 0. When omitted, each edge
        gets the default min(m_i, m_j) / length^2, so the space always
        carries its conductances.
    symmetries : sequence of array_like, optional
        Point permutations declared to preserve the space, each an integer
        array or a sequence of Python or NumPy integers (not booleans); each
        is checked exactly (O(m log m) for m edges) and kept as a generator.
        When those without a fixed point form a translation group (they
        pairwise commute, their orders multiply to n and the orbit of point
        0 is every point), the space keeps each point's coordinates in it as
        translation_coords, the metric of a sparse graph (fewer than n^2 / 4
        adjacency entries) is the shortest-path row of point 0 carried over
        by the group (the all-pairs metric to the bit, from one single-source
        Dijkstra), and spectral_decompose takes the group's characters.
        Reflections and the axis swap fix points and are left out of the
        rule; every other space takes all-pairs shortest paths.

    Raises
    ------
    DisconnectedGraph, NonpositiveWeight, NonpositiveEdgeLength
        The last two also on a non-finite weight or length. SpaceError,
        naming the value, also on a point count or edge endpoint that is not
        an integer, on a non-finite K or conductance, on an edge given twice
        (naming its pair), and when a declared symmetry holds a non-integer,
        is not a permutation or moves the measure, an edge, its length or its
        conductance.
    """
    _require_integers("the point count", [points], SpaceError)
    n = int(points)
    measure = np.asarray(measure, dtype=float)
    if measure.shape != (n,):
        raise SpaceError(f"measure must have shape ({n},)")
    _reject(measure, measure > 0, NonpositiveWeight, "measure weights must be finite and > 0")
    K = None if K is None else float(K)
    if K is not None and not np.isfinite(K):
        raise SpaceError(f"K must be finite, not {K}")

    edges = list(edges)
    _require_integers("each edge endpoint", [e for i, j, _ in edges for e in (i, j)], SpaceError)
    edge_arr = np.array([(i, j) for i, j, _ in edges], dtype=int).reshape(-1, 2)
    lengths = np.array([float(ell) for _, _, ell in edges], dtype=float)
    _reject(lengths, lengths > 0, NonpositiveEdgeLength, "edge lengths must be finite and > 0")
    if np.any((edge_arr < 0) | (edge_arr >= n)):
        raise SpaceError("edge endpoint out of range")
    if np.any(edge_arr[:, 0] == edge_arr[:, 1]):
        raise SpaceError("self loops are not allowed")
    _, first, counts = np.unique(np.sort(edge_arr, axis=1) @ [n, 1],
                                 return_index=True, return_counts=True)
    if np.any(counts > 1):
        i, j = edge_arr[first[counts > 1].min()]
        raise SpaceError(f"the edge ({i}, {j}) is given twice")

    adj = _adjacency(n, edge_arr, lengths)
    ncomp, _ = scipy.sparse.csgraph.connected_components(adj, directed=False)
    if ncomp != 1:
        raise DisconnectedGraph(f"edge graph has {ncomp} components")

    if conductances is None:
        cond = np.minimum(measure[edge_arr[:, 0]], measure[edge_arr[:, 1]]) / lengths**2
    else:
        cond = np.asarray(conductances, dtype=float)
        if cond.shape != (len(edge_arr),):
            raise SpaceError("conductances must match the edge list")
        _reject(cond, cond >= 0, SpaceError, "conductances must be finite and >= 0")

    table = _edge_table(edge_arr, lengths, cond)
    symmetries = tuple(_checked_symmetry(g, n, edge_arr, lengths, measure, cond, table)
                       for g in symmetries)
    coords = _translation_coords(n, symmetries)
    dist = _path_metric(adj, coords)
    return FiniteMetricMeasureSpace(
        n=n, edges=edge_arr, lengths=lengths, dist=dist, measure=measure,
        conductances=cond, K=K, symmetries=symmetries, translation_coords=coords,
    )


def _grid_space(geometry):
    """The space of a periodic grid geometry (circle or torus), from its
    axes (geometry.periodic_axes) and K. Nodes carry the cell measure
    prod h_a (geometry.volume_weights()), h_a = L_a / n_a. A unit step along
    axis a is an edge of length h_a and conductance cell / h_a^2; on two
    axes the diagonals (1, 1) and (1, -1) are metric-only edges of length
    hypot(h1, h2). Edges run point-major in that offset order, and the
    symmetries are each axis's unit translation, then each axis's
    reflection, then the swap of two equal axes: the character spectrum
    reads both orders to the bit."""
    axes = geometry.periodic_axes
    h = [L / n for L, n in axes]
    cell = math.prod(h)
    # (offset, length, conductance) of each edge at a point, in edge order
    stencil = [(tuple(e), s, cell / s**2) for e, s in zip(np.eye(len(h), dtype=int), h)]
    if len(h) == 2:
        stencil += [(diagonal, float(np.hypot(*h)), 0.0) for diagonal in ((1, 1), (1, -1))]
    offsets, lengths, cond = zip(*stencil)
    weights = geometry.volume_weights()
    ids = np.arange(weights.size).reshape(weights.shape)

    def moved(offset):  # moved(offset)[x] is the point x + offset
        return np.roll(ids, [-s for s in offset], axis=tuple(range(ids.ndim))).ravel()

    ends = np.stack([moved(o) for o in offsets], axis=1).ravel()
    starts = np.repeat(np.arange(ids.size), len(offsets))
    reflections = [np.take(ids, -np.arange(m) % m, axis=a).ravel() for a, m in enumerate(ids.shape)]
    swap = [ids.T.ravel()] if len(axes) == 2 and axes[0] == axes[1] else []
    return build_space(ids.size, zip(starts.tolist(), ends.tolist(), lengths * ids.size),
                       weights.ravel(), K=geometry.K, conductances=np.tile(cond, ids.size),
                       symmetries=[moved(o) for o in offsets[:len(axes)]] + reflections + swap)


def model_circle(L, n):
    """Equispaced circle grid of circumference L with n nodes: the
    CircleGeometry, which checks L and n, and its one-axis periodic grid
    (_grid_space), whose generator is the standard second-order periodic
    Laplacian. K = 0. The space declares its dihedral group by two
    generators: the one-step rotation and the reflection i -> -i."""
    geom = CircleGeometry(L, n)
    return geom, _grid_space(geom)


def model_torus(L1, L2, n1, n2):
    """Flat torus grid, L1 x L2 with n1 x n2 nodes: the TorusGeometry, which
    checks the sides and the grid, and its two-axis periodic grid
    (_grid_space). The 8-neighbour stencil gives an octile path metric that
    overestimates the flat metric by at most 8.3%. The diagonals carry no
    heat conductance: the grid rule on them would double the generator and
    break the second-order consistency with the flat Laplacian. The space
    declares the unit translations and reflections of both axes, and the
    axis swap when L1 == L2 and n1 == n2."""
    geom = TorusGeometry(L1, L2, n1, n2)
    return geom, _grid_space(geom)
