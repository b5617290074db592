"""Finite metric-measure spaces and discretized model-geometry grids.

A finite metric-measure space is a connected edge-weighted graph carrying a
strictly positive measure on its points; its metric is the shortest-path
metric, so the triangle inequality holds exactly. Model geometries (circle,
flat torus) are discretized onto such spaces with grid measures and
conductances chosen so the graph Laplacian is second-order consistent with
the Laplace-Beltrami operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

from .geometry import CircleGeometry, TorusGeometry

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
        Declared lower Ricci bound. Never computed; operations that need it
        fail when absent.
    conductances : ndarray, shape (m,) or None
        Per-edge heat conductances. When None, the heat module applies its
        default rule min(m_i, m_j) / length^2.
    """

    n: int
    edges: np.ndarray
    lengths: np.ndarray
    dist: np.ndarray
    measure: np.ndarray
    K: float | None = None
    conductances: np.ndarray | None = None

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

    def edge_pairs(self):
        """Iterate (i, j, length) over edges."""
        for (i, j), ell in zip(self.edges, self.lengths):
            yield int(i), int(j), float(ell)


def _adjacency(n, edges, values):
    m = sp.coo_matrix(
        (np.concatenate([values, values]),
         (np.concatenate([edges[:, 0], edges[:, 1]]),
          np.concatenate([edges[:, 1], edges[:, 0]]))),
        shape=(n, n),
    )
    return m.tocsr()


def build_space(points, edges, measure, K=None, conductances=None) -> FiniteMetricMeasureSpace:
    """Construct a finite metric-measure space from an edge list.

    Parameters
    ----------
    points : int
        Number of points.
    edges : sequence of (i, j, length)
        Undirected edges, lengths > 0.
    measure : array_like, shape (points,)
        Strictly positive weights.
    K : float, optional
        Declared lower Ricci bound.
    conductances : array_like, optional
        Per-edge heat conductances overriding the default rule.

    Raises
    ------
    DisconnectedGraph, NonpositiveWeight, NonpositiveEdgeLength
    """
    n = int(points)
    measure = np.asarray(measure, dtype=float)
    if measure.shape != (n,):
        raise SpaceError(f"measure must have shape ({n},)")
    if np.any(measure <= 0):
        raise NonpositiveWeight("all measure weights must be > 0")

    edge_arr = np.array([(int(i), int(j)) for i, j, _ in edges], dtype=int)
    lengths = np.array([float(ell) for _, _, ell in edges], dtype=float)
    if len(edge_arr) == 0:
        if n > 1:
            raise DisconnectedGraph("no edges on a multi-point space")
        edge_arr = np.zeros((0, 2), dtype=int)
    if np.any(lengths <= 0):
        raise NonpositiveEdgeLength("all edge lengths must be > 0")
    if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= n):
        raise SpaceError("edge endpoint out of range")
    if edge_arr.size and np.any(edge_arr[:, 0] == edge_arr[:, 1]):
        raise SpaceError("self loops are not allowed")

    adj = _adjacency(n, edge_arr, lengths) if n > 1 else sp.csr_matrix((1, 1))
    ncomp, _ = connected_components(adj, directed=False)
    if ncomp != 1:
        raise DisconnectedGraph(f"edge graph has {ncomp} components")

    dist = shortest_path(adj, directed=False)
    dist = np.minimum(dist, dist.T)
    np.fill_diagonal(dist, 0.0)

    cond = None
    if conductances is not None:
        cond = np.asarray(conductances, dtype=float)
        if cond.shape != (len(edge_arr),):
            raise SpaceError("conductances must match the edge list")
        if np.any(cond < 0):
            raise SpaceError("conductances must be >= 0")

    return FiniteMetricMeasureSpace(
        n=n, edges=edge_arr, lengths=lengths, dist=dist,
        measure=measure, K=None if K is None else float(K),
        conductances=cond,
    )


def model_circle(L, n):
    """Equispaced circle grid of circumference L with n nodes.

    Returns (CircleGeometry, FiniteMetricMeasureSpace); the geometry checks
    L and n. Nodes carry measure L/n, adjacent nodes are joined by edges of
    length L/n with conductance mean(m)/h^2, so the spectral generator is the
    standard second-order periodic Laplacian. K = 0, Ricci = 0.
    """
    geom = CircleGeometry(L, n)
    h = L / n
    edges = [(i, (i + 1) % n, h) for i in range(n)]
    measure = np.full(n, h)
    cond = np.full(n, h / h**2)  # mean-of-neighbors measure / h^2
    space = build_space(n, edges, measure, K=0.0, conductances=cond)
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
    consistency with the flat Laplacian.
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
    space = build_space(n1 * n2, edges, measure, K=0.0, conductances=np.asarray(cond))
    return geom, space

