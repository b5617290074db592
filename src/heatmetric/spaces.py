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
never infers one; the model grids declare generators of their groups.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

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
    """

    n: int
    edges: np.ndarray
    lengths: np.ndarray
    dist: np.ndarray
    measure: np.ndarray
    conductances: np.ndarray
    K: float | None = None
    symmetries: tuple = ()

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
    m = sp.coo_matrix(
        (np.concatenate([values, values]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    )
    return m.tocsr()


def _path_metric(adj):
    """All-pairs shortest paths over the weighted adjacency adj, made exactly
    symmetric with a zero diagonal: the space's metric, and d_t."""
    dist = shortest_path(adj, directed=False)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def _edge_table(edges, lengths, cond):
    """Rows (min end, max end, length, conductance) in lexicographic order:
    one canonical form of the edge multiset."""
    table = np.column_stack([np.sort(edges, axis=1), lengths, cond])
    return table[np.lexsort(table.T[::-1])]


def _checked_symmetry(g, n, edges, lengths, measure, cond):
    """g as a read-only int permutation, once it is checked to map the
    measure and the edge multiset (lengths and conductances included) onto
    themselves exactly. The metric is the edges' shortest-path metric, so
    it is preserved too."""
    g = np.array(g)
    if (g.shape != (n,) or g.dtype.kind not in "iu"
            or not np.array_equal(np.sort(g), np.arange(n))):
        raise SpaceError(f"a symmetry must be a permutation of 0..{n - 1}")
    if not np.array_equal(measure[g], measure):
        raise SpaceError("a symmetry does not preserve the measure")
    if not np.array_equal(_edge_table(g[edges], lengths, cond),
                          _edge_table(edges, lengths, cond)):
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
        Number of points, a Python or NumPy integer.
    edges : sequence of (i, j, length)
        Undirected edges between distinct points, given by Python or NumPy
        integers, lengths finite and > 0.
    measure : array_like, shape (points,)
        Finite, strictly positive weights.
    K : float, optional
        Declared lower Ricci bound, finite.
    conductances : array_like, optional
        Per-edge heat conductances, finite and >= 0. When omitted, each edge
        gets the default min(m_i, m_j) / length^2, so the space always
        carries its conductances.
    symmetries : sequence of array_like, optional
        Point permutations declared to preserve the space; each is checked
        exactly (O(m log m) for m edges) and kept as a generator.

    Raises
    ------
    DisconnectedGraph, NonpositiveWeight, NonpositiveEdgeLength
        The last two also on a non-finite weight or length. SpaceError,
        naming the value, also on a point count or edge endpoint that is not
        an integer, on a non-finite K or conductance, and when a
        declared symmetry is not a permutation or moves the measure, an
        edge, its length or its conductance.
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

    _require_integers("each edge endpoint", [e for i, j, _ in edges for e in (i, j)], SpaceError)
    edge_arr = np.array([(i, j) for i, j, _ in edges], dtype=int).reshape(-1, 2)
    lengths = np.array([float(ell) for _, _, ell in edges], dtype=float)
    _reject(lengths, lengths > 0, NonpositiveEdgeLength, "edge lengths must be finite and > 0")
    if np.any((edge_arr < 0) | (edge_arr >= n)):
        raise SpaceError("edge endpoint out of range")
    if np.any(edge_arr[:, 0] == edge_arr[:, 1]):
        raise SpaceError("self loops are not allowed")

    adj = _adjacency(n, edge_arr, lengths)
    ncomp, _ = connected_components(adj, directed=False)
    if ncomp != 1:
        raise DisconnectedGraph(f"edge graph has {ncomp} components")

    dist = _path_metric(adj)

    if conductances is None:
        cond = np.minimum(measure[edge_arr[:, 0]], measure[edge_arr[:, 1]]) / lengths**2
    else:
        cond = np.asarray(conductances, dtype=float)
        if cond.shape != (len(edge_arr),):
            raise SpaceError("conductances must match the edge list")
        _reject(cond, cond >= 0, SpaceError, "conductances must be finite and >= 0")

    symmetries = tuple(_checked_symmetry(g, n, edge_arr, lengths, measure, cond)
                       for g in symmetries)
    return FiniteMetricMeasureSpace(
        n=n, edges=edge_arr, lengths=lengths, dist=dist, measure=measure,
        conductances=cond, K=K, symmetries=symmetries,
    )


def model_circle(L, n):
    """Equispaced circle grid of circumference L with n nodes.

    Returns (CircleGeometry, FiniteMetricMeasureSpace); the geometry checks
    L and n. Nodes carry measure L/n, adjacent nodes are joined by edges of
    length L/n with conductance mean(m)/h^2, so the spectral generator is the
    standard second-order periodic Laplacian. K = 0, Ricci = 0. The space
    declares its dihedral group by two generators: the one-step rotation
    and the reflection i -> -i.
    """
    geom = CircleGeometry(L, n)
    h = L / n
    edges = [(i, (i + 1) % n, h) for i in range(n)]
    measure = np.full(n, h)
    cond = np.full(n, h / h**2)  # mean-of-neighbors measure / h^2
    i = np.arange(n)
    space = build_space(n, edges, measure, K=0.0, conductances=cond,
                        symmetries=[(i + 1) % n, -i % n])
    return geom, space


def model_torus(L1, L2, n1, n2):
    """Flat torus grid, L1 x L2 with n1 x n2 nodes.

    Returns (TorusGeometry, FiniteMetricMeasureSpace); the geometry checks
    the sides and the grid. The metric graph uses 8-neighbour stencils (axis
    edges of length h and diagonal edges of length sqrt(h1^2 + h2^2)); the
    induced octile path metric overestimates the flat metric by at most 8.3%.
    Heat conductances m/h^2 sit on the axis edges only; diagonal edges are
    metric-only (conductance 0), because putting the grid rule on diagonals
    as well would double the generator and break the second-order
    consistency with the flat Laplacian. The space declares the unit
    translations along both axes and both axis reflections, and the axis
    swap when L1 == L2 and n1 == n2.
    """
    geom = TorusGeometry(L1, L2, n1, n2)
    h1, h2 = L1 / n1, L2 / n2
    hd = float(np.hypot(h1, h2))
    cell = h1 * h2

    def idx(i, j):
        return (i % n1) * n2 + (j % n2)

    edges, cond = [], []
    for i in range(n1):
        for j in range(n2):
            edges.append((idx(i, j), idx(i + 1, j), h1))
            cond.append(cell / h1**2)
            edges.append((idx(i, j), idx(i, j + 1), h2))
            cond.append(cell / h2**2)
            edges.append((idx(i, j), idx(i + 1, j + 1), hd))
            cond.append(0.0)
            edges.append((idx(i, j), idx(i + 1, j - 1), hd))
            cond.append(0.0)
    measure = np.full(n1 * n2, cell)
    i, j = np.divmod(np.arange(n1 * n2), n2)
    symmetries = [idx(i + 1, j), idx(i, j + 1), idx(-i, j), idx(i, -j)]
    if L1 == L2 and n1 == n2:
        symmetries.append(idx(j, i))
    space = build_space(n1 * n2, edges, measure, K=0.0, conductances=np.asarray(cond),
                        symmetries=symmetries)
    return geom, space

