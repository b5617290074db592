"""Reference computations made apart from heatmetric.

Nothing here imports heatmetric. Heat measures come from the matrix
exponential of a generator assembled from the space's edges, conductances
and measure; W2 comes from a transport LP solved with tight feasibility
tolerances; distances come from Floyd-Warshall; the circle and square-torus
metric comes from the closed form g_t = |v|^2 (1 - L^2 / I_t), with I_t the
loop integral of 1/rho_t by the periodic trapezoid rule.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import linprog

TIGHT_LP = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class Space:
    """A finite metric-measure space described by its edges, independent of
    heatmetric's own construction."""

    def __init__(self, n, edges, lengths, measure, conductances=None):
        self.n = n
        self.edges = np.asarray(edges, dtype=int).reshape(-1, 2)
        self.lengths = np.asarray(lengths, dtype=float)
        self.measure = np.asarray(measure, dtype=float)
        self.conductances = None if conductances is None else np.asarray(conductances, float)
        self.dist = floyd_warshall(n, self.edges, self.lengths)

    def generator(self):
        """(Lf)(i) = (1/m_i) sum_j w_ij (f(i) - f(j)); default conductance
        rule w_ij = min(m_i, m_j) / length^2."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        m = self.measure
        w = (self.conductances if self.conductances is not None
             else np.minimum(m[i], m[j]) / self.lengths**2)
        W = np.zeros((self.n, self.n))
        np.add.at(W, (i, j), w)
        np.add.at(W, (j, i), w)
        return (np.diag(W.sum(axis=1)) - W) / m[:, None]

    def heat_measures(self, t):
        """Row x holds H_t(delta_x) as a mass vector."""
        return scipy.linalg.expm(-t * self.generator())


def floyd_warshall(n, edges, lengths):
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    for (a, b), ell in zip(edges, lengths):
        D[a, b] = D[b, a] = min(D[a, b], ell)
    for k in range(n):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    return D


def circle_space(L, n):
    h = L / n
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Space(n, edges, np.full(n, h), np.full(n, h), np.full(n, 1.0 / h))


def torus_space(L, side):
    """The 8-neighbour flat-torus grid: axis edges carry conductance
    cell / h^2, diagonal edges are metric-only."""
    h = L / side
    hd = math.hypot(h, h)
    edges, lengths, cond = [], [], []
    for i in range(side):
        for j in range(side):
            for (di, dj), ell, c in (((1, 0), h, 1.0), ((0, 1), h, 1.0),
                                     ((1, 1), hd, 0.0), ((1, -1), hd, 0.0)):
                edges.append((i * side + j, (i + di) % side * side + (j + dj) % side))
                lengths.append(ell)
                cond.append(c)
    return Space(side * side, edges, lengths, np.full(side * side, h * h), cond)


def graph_space(spec):
    e = np.array(spec["edges"], dtype=float)
    return Space(int(spec["points"]), e[:, :2].astype(int), e[:, 2], spec["measure"])


def w2_lp(mu, nu, dist):
    """Exact W2 from the coupling LP with feasibility tolerances 1e-10."""
    mu = np.asarray(mu, float)
    nu = np.asarray(nu, float) * (mu.sum() / np.sum(nu))
    n = len(mu)
    rows = np.concatenate([np.repeat(np.arange(n), n), n + np.tile(np.arange(n), n)])
    cols = np.concatenate([np.arange(n * n), np.arange(n * n)])
    A = sp.csr_matrix((np.ones(2 * n * n), (rows, cols)), shape=(2 * n, n * n))
    res = linprog((np.asarray(dist) ** 2).ravel(), A_eq=A, b_eq=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs", options=TIGHT_LP)
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return math.sqrt(max(res.fun, 0.0))


def circle_density(t, L, s):
    """Periodic heat kernel by images, accurate in relative terms far into
    the tails, where the Fourier series cancels."""
    s = np.asarray(s, dtype=float)
    z = s[..., None] + L * np.arange(-3, 4)
    return np.exp(-z**2 / (4 * t)).sum(axis=-1) / math.sqrt(4 * math.pi * t)


def circle_gt(t, L, speed_sq, points=1 << 17):
    """|v|^2 (1 - L^2 / I_t) with I_t = int_0^L ds / rho_t(s)."""
    s = np.arange(points) * (L / points)
    I_t = float(np.sum(1.0 / circle_density(t, L, s)) * (L / points))
    return speed_sq * (1.0 - L**2 / I_t)
