"""Quadratic optimal transport on finite spaces.

w2_exact takes its optimal plan from one of two sources and certifies both
in the same way.

* On the metric of an equispaced circle, dist[i, j] = h min(|i - j|,
  n - |i - j|) within 1e-12 n h for n >= 3 (a model_circle grid, or any
  space that happens to be such a cycle), transport is a 1-D problem over
  one mass shift theta between the unrolled quantile functions (Delon,
  Salomon & Sobolevski 2010; Rabin, Delon & Gousseau 2011). Bisection on
  the sign of the lifted cost's slope finds the optimal shift, and one walk
  over the masses builds the periodic quantile coupling and its potentials,
  instead of an LP with n^2 variables. flow.w2_zonal runs the same walk
  (_monotone_segments) on the sphere's colatitude profiles.
* Every other metric goes to HiGHS as a linear program over the complete
  bipartite coupling polytope, whose equality-constraint duals become the
  potentials. The model is built through scipy's bundled HiGHS binding
  (scipy.optimize._highspy, a private module, so scipy is held to the
  checked 1.17 series) and runs the dual simplex with presolve off and
  primal and dual feasibility tolerances of 1e-10, far inside the
  certificate window. The binding, and with it scipy.optimize, is loaded
  on the first LP, so a command that solves none never imports it.

Both scale the second measure of the solve's orientation (below) to the
first's total: MASS_TOL admits totals 1e-9 apart, which the LP's equality
rows and the circle's common period do not.

_w2_exact_batch solves a list of pairs on one metric as one batch, and
_solve_order alone decides the order of its solves and their orientation
(which measure is on the rows). A circle batch keeps the given order, each
pair with the lexicographically smaller measure on the rows. An LP batch
walks its heat measures along a nearest-neighbour tour, so that
consecutive solves share the measure on the rows and each warm start
changes one marginal. The solve order is cut into _BATCH_CHUNKS contiguous
chunks that run on the process's cores. Within a chunk one LP model serves
every solve on the same support pair. A later solve changes only the row
bounds (the marginals) that moved, so the last optimal basis stays dual
feasible and the dual simplex restarts from it. A new support pair
rebuilds the model, and every chunk starts cold. Nothing is kept between
batches.

Either way, the value comes from the plan on the given dist, and the
potentials, for the halved-cost convention phi(x) + phi^c(y) <= d^2(x, y)/2,
are extended off the support and made c-concave by a double c-transform.
Every solve returns a duality-gap certificate; a solve whose gap leaves the
window raises SolverFailure. Primal objective uses d^2 (so value = W_2),
duals use d^2/2.

Values are unique; plans need not be. The LP pivot order is HiGHS's
deterministic default (not lowest-index), and within a chunk it depends on
the solves before, so a batched value may differ from a lone w2_exact in its
last bits. A circle solve keeps no state, and an LP batch's order and
chunking depend only on its set of pairs, so the values depend neither on
the order of the pairs nor on the order within a pair, and the same batch
gives the same bits on any machine and with any number of cores. A
lone w2_exact is a batch of one: it puts the lexicographically smaller
measure on the rows and swaps the plan and potentials back, so
w2_exact(mu, nu) == w2_exact(nu, mu) exactly. w2_sinkhorn orders its pair by
the same rule.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "TransportError",
    "SolverFailure",
    "SinkhornNonConvergence",
    "TransportPlan",
    "DualPotentials",
    "W2Result",
    "w2_exact",
    "c_transform",
    "dual_gap",
    "w2_sinkhorn",
]

MASS_TOL = 1e-9
GAP_TOL = 1e-8
# w2_sinkhorn: epsilon factor per stage, sweeps at the final epsilon (a
# tenth, at least 50, at each stage above it), and the row-marginal
# violation that ends every stage
SINKHORN_SCHEDULE = 0.5
SINKHORN_MAX_ITER = 4000
SINKHORN_MARGINAL_TOL = 1e-6
# HiGHS options of every coupling LP: presolve off, and feasibility
# tolerances that keep warm-started solves as accurate as cold ones
_HIGHS_OPTIONS = {"output_flag": False, "presolve": "off", "solver": "simplex",
                  "simplex_strategy": 1,  # dual
                  "primal_feasibility_tolerance": 1e-10,
                  "dual_feasibility_tolerance": 1e-10}
# quantile levels closer than this fraction of the mass coincide on circles
_LEVEL_TOL = 1e-13
# contiguous chunks of a batch, each with its own cold-started LP model; a
# constant, so the values never depend on the core count
_BATCH_CHUNKS = 4


def __getattr__(name):  # only perfbench's tracer reads transport.linprog
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class TransportError(ValueError):
    """Invalid optimal-transport input."""


class SolverFailure(TransportError):
    """The solver ran on valid input but returned no certified optimum: the
    LP failed, or the duality gap left the certificate window."""


class SinkhornNonConvergence(RuntimeError):
    """Sinkhorn did not reach the marginal tolerance within the iteration cap
    (signals a too aggressive epsilon schedule)."""


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix with prescribed marginals."""

    gamma: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def marginal_violation(self) -> float:
        row = np.abs(self.gamma.sum(axis=1) - self.mu).max()
        col = np.abs(self.gamma.sum(axis=0) - self.nu).max()
        return float(max(row, col))


@dataclass(frozen=True)
class DualPotentials:
    """Kantorovich potentials phi, phi^c for the cost d^2/2."""

    phi: np.ndarray
    phi_c: np.ndarray

    def feasibility_violation(self, dist) -> float:
        """max over pairs of phi(x) + phi_c(y) - d^2(x,y)/2 (<= 0 feasible)."""
        slack = self.phi[:, None] + self.phi_c[None, :] - 0.5 * np.asarray(dist) ** 2
        return float(slack.max())


class W2Result(NamedTuple):
    value: float
    plan: TransportPlan
    potentials: DualPotentials


def c_transform(phi, dist) -> np.ndarray:
    """phi^c(y) = min_x d^2(x, y)/2 - phi(x), exactly over the finite set."""
    phi = np.asarray(phi, dtype=float)
    cost = 0.5 * np.asarray(dist, dtype=float) ** 2
    return (cost - phi[:, None]).min(axis=0)


def _validate_pair(mu, nu):
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != nu.shape or mu.ndim != 1:
        raise TransportError("marginals must be vectors on the same space")
    if not (np.isfinite(mu).all() and np.isfinite(nu).all()):
        raise TransportError("masses must be finite")
    if np.any(mu < 0) or np.any(nu < 0):
        raise TransportError("negative masses")
    if not (mu.sum() > 0 and nu.sum() > 0):
        raise TransportError("marginals carry no mass")
    if abs(mu.sum() - nu.sum()) > MASS_TOL:
        raise TransportError(
            f"marginal mass mismatch {abs(mu.sum() - nu.sum()):.2e} > {MASS_TOL}"
        )
    return mu, nu


class _CouplingLP:
    """HiGHS model of the coupling LP min <cost, gamma> over gamma >= 0 with
    row sums a and column sums b, on one support pair.

    The model is built once; each solve changes only the row bounds (the
    marginals) that moved, so the last optimal basis stays dual feasible and
    the dual simplex restarts from it. The first solve starts cold.
    """

    def __init__(self, cost):
        from scipy.optimize._highspy import _core as highs
        n, m = cost.shape
        lp = highs.HighsLp()
        lp.num_col_, lp.num_row_ = n * m, n + m
        lp.col_cost_ = cost.ravel()
        lp.col_lower_ = np.zeros(n * m)
        lp.col_upper_ = np.full(n * m, highs.kHighsInf)
        lp.row_lower_ = lp.row_upper_ = np.zeros(n + m)
        # column (i, j) has a one in row i (its row sum) and row n + j
        A = lp.a_matrix_
        A.format_ = highs.MatrixFormat.kColwise
        A.num_col_, A.num_row_ = n * m, n + m
        A.start_ = np.arange(0, 2 * n * m + 1, 2, dtype=np.int32)
        A.index_ = np.stack([np.repeat(np.arange(n), m),
                             n + np.tile(np.arange(m), n)], axis=1).ravel().astype(np.int32)
        A.value_ = np.ones(2 * n * m)
        self.model = highs._Highs()
        for key, value in _HIGHS_OPTIONS.items():
            self.model.setOptionValue(key, value)
        self.model.passModel(lp)
        self.optimal = highs.HighsModelStatus.kOptimal
        self.shape = (n, m)
        self.bounds = np.zeros(n + m)

    def solve(self, a, b):
        """Plan and potentials phi on a's atoms (for the cost halved)."""
        model = self.model
        bounds = np.concatenate([a, b])
        changed = np.flatnonzero(bounds != self.bounds)
        for row, mass in zip(changed.tolist(), bounds[changed].tolist()):
            model.changeRowBounds(row, mass, mass)
        self.bounds = bounds
        model.run()
        status = model.getModelStatus()
        if status != self.optimal:
            raise SolverFailure(f"LP solver failed: {model.modelStatusToString(status)}")
        solution = model.getSolution()
        gamma = np.array(solution.col_value, dtype=float).reshape(self.shape)
        # duals for cost d^2 -> potentials for cost d^2/2
        return gamma, 0.5 * np.array(solution.row_dual[:self.shape[0]])


def _circle_spacing(dist):
    """Grid step h when dist is the metric of an equispaced circle,
    dist[i, j] = h min(|i - j|, n - |i - j|) within 1e-12 n h for n >= 3;
    otherwise None."""
    n = len(dist)
    if n < 3 or not dist[0, 1] > 0:
        return None
    h = float(dist[0, 1])
    k = np.arange(n)
    # row i of the circulant is the doubled row 0 from n - i on: a view, no n x n array
    wide = sliding_window_view(np.tile(h * np.minimum(k, n - k), 2), n)
    dev = np.abs(dist - wide[n:0:-1]).max()
    return h if dev <= 1e-12 * n * h else None


def _monotone_segments(a, b):
    """Monotone coupling of ordered masses a and b with equal totals: mass
    seg_m[k] of a[seg_i[k]] goes to b[seg_j[k]], both indices nondecreasing.
    Subtracting the smaller remainder from the larger on Python floats keeps
    the relative precision of tail masses; a tie leaves a zero-mass segment."""
    A, B = len(a), len(b)
    aw = np.asarray(a, dtype=float).tolist() + [0.0]
    bw = np.asarray(b, dtype=float).tolist() + [0.0]
    seg_i, seg_j, seg_m = [], [], []
    i = j = 0
    ar, br = aw[0], bw[0]
    while i < A and j < B:
        seg_i.append(i)
        seg_j.append(j)
        if ar <= br:
            seg_m.append(ar)
            br -= ar
            i += 1
            ar = aw[i]
        else:
            seg_m.append(br)
            ar -= br
            j += 1
            br = bw[j]
    return np.array(seg_i), np.array(seg_j), np.array(seg_m)


def _solve_circle(p, a, q, b, n):
    """Optimal plan between masses a at grid positions p and b at q (both
    ascending, equal totals) on the n-point equispaced circle, with
    potentials phi on p in grid units (cost (i - j)^2 / 2).

    Unrolled onto the line, the quantile functions satisfy X(u + M) =
    X(u) + n, and the lifted cost C(theta) = int_0^M (X(u) - Y(u + theta))^2 du
    is convex and piecewise linear in the mass shift theta; its minimum is
    W_2^2 (Delon, Salomon & Sobolevski 2010). The slope of C is a sum of
    one integer term per nu level, so bisection on its sign finds a minimising
    breakpoint, where a nu level meets a mu level. Cutting both measures at
    that corner leaves a 1-D monotone coupling (_monotone_segments).
    """
    A, B = len(p), len(q)
    F, G = np.cumsum(a), np.cumsum(b)
    M = F[-1]
    tol = _LEVEL_TOL * M
    gap = np.diff(q, append=q[0] + n)  # grid steps from nu atom l to l + 1
    pair = 2 * q + gap                 # y_l + y_{l+1}

    def atoms_under(theta):
        # lifted index of the mu atom holding each nu level, G_l - theta
        u = G - theta
        lap = np.ceil(u / M) - 1
        k = np.minimum(np.searchsorted(F, u - lap * M), A - 1)
        return k + A * lap.astype(np.int64)

    def slope(S):
        # moving theta moves every nu level's jump y_l -> y_{l+1} past the
        # mu atom under it
        return int(gap @ (pair - 2 * (p[S % A] + n * (S // A))))

    lo, hi = -M, M
    S_lo, S_hi = atoms_under(lo), atoms_under(hi)
    while slope(S_lo) >= 0:
        lo -= M
        S_lo = atoms_under(lo)
    while slope(S_hi) < 0:
        hi += M
        S_hi = atoms_under(hi)
    while hi - lo > tol:
        moved = np.flatnonzero(S_lo != S_hi)
        if (S_lo[moved] - S_hi[moved]).max() == 1:
            # every level still crossing in (lo, hi) meets a mu level at the
            # same shift, up to rounding: that shift is the breakpoint
            top = S_hi[moved]
            cross = G[moved] - F[top % A] - M * (top // A)
            if cross.max() - cross.min() <= tol:
                break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        S = atoms_under(mid)
        if slope(S) < 0:
            lo, S_lo = mid, S
        else:
            hi, S_hi = mid, S
    # the corner: nu level l0 crosses the top of mu atom S_hi[l0]
    l0 = int(np.flatnonzero(S_lo != S_hi)[0])
    s0, t0 = int(S_hi[l0]) + 1, l0 + 1

    # one lap of each measure from the corner; the potentials skip zero-mass
    # segments (ties) like any other segment below the level tolerance
    seg_i, seg_j, seg_m = _monotone_segments(np.roll(a, -s0), np.roll(b, -t0))
    gamma = np.zeros((A, B))
    gamma[(s0 + seg_i) % A, (t0 + seg_j) % B] = seg_m

    # Potentials along the staircase of segments wider than the level
    # tolerance, closed by the wrap to the first segment one lap on. A step
    # that changes one atom fixes the next potential. A corner, where both
    # change (the cut, and every level pair that coincides within rounding),
    # admits a slack in [0, dx dy]; the slacks absorb the closure, which lies
    # in [0, sum dx dy] exactly when theta is optimal.
    main = np.flatnonzero(seg_m > tol)
    mi = np.append(seg_i[main], seg_i[main[0]] + A)
    mj = np.append(seg_j[main], seg_j[main[0]] + B)
    X = (p[(s0 + mi) % A] + n * ((s0 + mi) // A)).tolist()
    Y = (q[(t0 + mj) % B] + n * ((t0 + mj) // B)).tolist()
    phi = [0.0] * len(X)
    psi = 0.5 * (X[0] - Y[0]) ** 2
    corner = [0.0] * len(X)
    for k in range(1, len(X)):
        if Y[k] == Y[k - 1]:
            phi[k] = 0.5 * (X[k] - Y[k]) ** 2 - psi
        elif X[k] == X[k - 1]:
            phi[k] = phi[k - 1]
            psi = 0.5 * (X[k] - Y[k]) ** 2 - phi[k]
        else:
            phi[k] = 0.5 * (X[k] - Y[k - 1]) ** 2 - psi
            psi = 0.5 * (X[k] - Y[k]) ** 2 - phi[k]
            corner[k] = (X[k] - X[k - 1]) * (Y[k] - Y[k - 1])
    slack = np.cumsum(corner)
    phi = np.array(phi) - slack * min(max(phi[-1] / slack[-1], 0.0), 1.0)
    phi_atoms = np.full(A, -np.inf)
    phi_atoms[(s0 + mi[:-1]) % A] = phi[:-1]
    return gamma, phi_atoms


def w2_exact(mu, nu, dist) -> W2Result:
    """Exact quadratic transport distance with plan and dual certificate.

    Parameters
    ----------
    mu, nu : array_like
        Probability vectors (finite, equal masses within 1e-9) on the same
        space.
    dist : ndarray
        Symmetric metric matrix.

    Returns
    -------
    W2Result
        value = sqrt(sum gamma_xy d^2(x, y)) at an optimal plan; the returned
        potentials are c-concave and certify optimality with duality gap
        value^2/2 - (<phi, mu> + <phi_c, nu>) <= 1e-8.

    Zero-mass points are dropped before the solve and reinserted as zero
    rows/columns of the plan. The second measure of the solve's orientation
    (the lexicographically larger one) is scaled to the first's total, so
    when the totals differ the plan and potentials are those of the scaled
    pair, and dual_gap on the unscaled pair can exceed 1e-8 by MASS_TOL
    times the largest potential. On the metric of an equispaced circle the
    plan comes from the periodic quantile coupling, otherwise from the LP,
    which starts cold: this is a batch of one (see _w2_exact_batch).
    """
    mu, nu = _validate_pair(mu, nu)
    dist = _square_metric(dist, len(mu))
    h = _circle_spacing(dist)
    [(_, swapped)], _ = _solve_order([(mu, nu)], h is not None)
    if not swapped:
        return _Batch(dist, h).solve(mu, nu)
    value, plan, potentials = _Batch(dist, h).solve(nu, mu)
    return W2Result(value, TransportPlan(plan.gamma.T.copy(), mu, nu),
                    DualPotentials(phi=potentials.phi_c, phi_c=potentials.phi))


def _w2_exact_batch(pairs, dist) -> np.ndarray:
    """Values of w2_exact(mu, nu, dist) for each (mu, nu) in pairs, each
    solve certified in the same way, as one batch on the metric dist.

    The batch checks dist, with its circle check, once for all its chunks,
    and validates every pair first. _solve_order fixes the order and the
    orientation of the solves. The batch then cuts that order into
    min(solves, _BATCH_CHUNKS) contiguous chunks. Each chunk keeps one LP
    model while the support pair stays the same, so each solve after the
    chunk's first restarts from the last optimal basis. A value can
    therefore differ from a lone w2_exact call in its last bits. The calling
    thread and up to one helper thread per further core pull chunks from one
    shared iterator (HiGHS releases the GIL); the values depend on the
    chunking only, so the same batch gives the same bits with any number of
    cores. An error in a chunk ends that chunk, and the first failing
    chunk's exception is raised in the caller.
    """
    dist = _square_metric(dist)
    h = _circle_spacing(dist)
    pairs = [_validate_pair(mu, nu) for mu, nu in pairs]
    for mu, _ in pairs:
        _square_metric(dist, len(mu))
    order, slot = _solve_order(pairs, h is not None)
    count = len(order)
    chunks = min(count, _BATCH_CHUNKS)
    bounds = [count * k // max(chunks, 1) for k in range(chunks + 1)]
    values = np.empty(count)
    errors = [None] * chunks
    todo = iter(range(chunks))  # next() on a range iterator is atomic under the GIL

    def drain():
        for k in todo:
            batch = _Batch(dist, h)
            try:
                for s in range(bounds[k], bounds[k + 1]):
                    i, swapped = order[s]
                    mu, nu = pairs[i]
                    values[s] = (batch.solve(nu, mu) if swapped else batch.solve(mu, nu)).value
            except Exception as exc:  # re-raised by the caller
                errors[k] = exc

    if h is None:  # load the HiGHS binding here, so that no helper thread imports it
        from scipy.optimize._highspy import _core  # noqa: F401
    helpers = [threading.Thread(target=drain)
               for _ in range(min(chunks, _cores()) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return values[slot]


def _solve_order(pairs, circle):
    """The solves of a batch of validated pairs, as (pair index, swapped) in
    solve order, and the index of each pair's solve; swapped puts the pair's
    second measure on the rows.

    A circle solve keeps no state, so a circle batch solves its pairs in
    the given order, each with the lexicographically smaller measure on the
    rows. An LP batch walks its heat measures so that each warm start
    changes one marginal. A greedy L1 nearest-neighbour tour visits its
    distinct measures, starting from the one in the most pairs; ties, in
    the start and in each step, go to the lexicographically smallest
    measure. Each distinct pair is solved once, with the measure that comes
    earlier in the tour on the rows, and the solves run in boustrophedon
    order over (rank of the row measure, +-rank of the column measure). So
    consecutive solves share their row measure while the column measure
    moves to a tour neighbour, and the bits depend neither on the order of
    the pairs nor on the order within a pair. A batch of one puts the
    lexicographically smaller measure on the rows, as a circle does.
    """
    if circle or not pairs:
        return ([(i, _canonical_swap(mu, nu)) for i, (mu, nu) in enumerate(pairs)],
                np.arange(len(pairs)))
    # each array object is stacked once; equal arrays are one measure
    arrays = {id(m): m for pair in pairs for m in pair}
    measures, ids = np.unique(list(arrays.values()), axis=0, return_inverse=True)
    known = dict(zip(arrays, ids.tolist()))
    ids = np.array([[known[id(mu)], known[id(nu)]] for mu, nu in pairs])
    size = len(measures)
    # each distinct pair's measures, its first pair, and each pair's distinct pair
    ends, first, slot = np.unique(np.sort(ids, axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    left = np.ones(size, dtype=bool)
    tour = [int(np.argmax(np.bincount(ends.ravel(), minlength=size)))]
    left[tour[0]] = False
    for _ in range(size - 1):
        steps = np.abs(measures - measures[tour[-1]]).sum(axis=1)
        tour.append(int(np.argmin(np.where(left, steps, np.inf))))
        left[tour[-1]] = False
    rank = np.empty(size, dtype=int)
    rank[tour] = np.arange(size)
    row, col = np.sort(rank[ends], axis=1).T
    lane = np.unique(row, return_inverse=True)[1]
    walk = np.lexsort((np.where(lane % 2, -col, col), row))
    position = np.empty(len(walk), dtype=int)
    position[walk] = np.arange(len(walk))
    order = [(int(i), bool(rank[ids[i, 0]] > rank[ids[i, 1]])) for i in first[walk]]
    return order, position[slot]


def _cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0))


def _square_metric(dist, n=None):
    """dist as a square float matrix, on n points when n is given."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or (n is not None and n != len(dist)):
        raise TransportError("dist must be square on the marginals' space")
    return dist


class _Batch:
    """Solves on one square metric dist and its circle spacing h (or None),
    keeping the LP model of the last support pair; each batch starts cold."""

    def __init__(self, dist, h):
        self.h = h
        self.cost = dist**2
        self.half = 0.5 * self.cost  # the cost of the potentials
        self.lp = self.support = None

    def solve(self, mu, nu) -> W2Result:
        """Certified solve of validated marginals on the batch's space, mu on
        the rows."""
        n = len(mu)
        smu = np.flatnonzero(mu > 0)
        snu = np.flatnonzero(nu > 0)
        # both solvers need equal totals (MASS_TOL admits a 1e-9 mismatch):
        # the LP's equality rows are otherwise infeasible, and the circle's
        # quantile functions lose their common period
        a = mu[smu]
        b = nu[snu] * (a.sum() / nu[snu].sum())
        if self.h is None:
            if self.support is None or not (np.array_equal(smu, self.support[0])
                                            and np.array_equal(snu, self.support[1])):
                self.lp = _CouplingLP(self.cost[np.ix_(smu, snu)])
                self.support = (smu, snu)
            gamma_s, phi_s = self.lp.solve(a, b)
        else:
            gamma_s, phi_s = _solve_circle(smu, a, snu, b, n)
            phi_s = self.h * self.h * phi_s
        gamma = np.zeros((n, n))
        gamma[np.ix_(smu, snu)] = gamma_s
        value = float(np.sqrt(max((self.cost * gamma).sum(), 0.0)))

        # potentials extended off-support conservatively, then made c-concave
        # (phi^cc, phi^c); feasibility and the gap bound are structural from the
        # c-transform definition.
        phi = np.full(n, -np.inf)
        phi[smu] = phi_s
        phi_c = (self.half - phi[:, None]).min(axis=0)
        phi = (self.half - phi_c[None, :]).min(axis=1)

        # the certificate of the pair solved; against the unscaled nu the gap
        # also carries the mismatch times phi_c
        gap = 0.5 * value**2 - (phi @ mu + phi_c[snu] @ b)
        if not (-1e-7 <= gap <= GAP_TOL):  # pragma: no cover
            raise SolverFailure(f"optimality certificate failed: gap {gap:.3e}")
        return W2Result(value, TransportPlan(gamma, mu, nu), DualPotentials(phi=phi, phi_c=phi_c))


def _canonical_swap(mu, nu) -> bool:
    for a, b in zip(mu, nu):
        if a < b:
            return False
        if a > b:
            return True
    return False


def dual_gap(mu, nu, value, potentials: DualPotentials, dist) -> float:
    """Duality gap value^2/2 - (<phi, mu> + <phi_c, nu>).

    Nonnegative for feasible potentials (weak duality) and <= 1e-8 at an
    optimum. Potentials infeasible on dist raise, since their gap bounds
    nothing; so does a dist that is not square on the marginals' space.
    """
    mu, nu = _validate_pair(mu, nu)
    viol = potentials.feasibility_violation(_square_metric(dist, len(mu)))
    if viol > 1e-10:
        raise TransportError(f"infeasible potentials (violation {viol:.2e})")
    return float(0.5 * value**2 - (potentials.phi @ mu + potentials.phi_c @ nu))


# ---------------------------------------------------------------------------
# entropic approximation

def _sinkhorn_core(mu, nu, cost, eps_final):
    """Sinkhorn scaling with absorbed potentials and geometric epsilon
    scaling from max cost (Schmitzer 2019).

    Each stage forms K = exp((f + g - cost) / eps) once and sweeps the
    scalings u = mu / (K v), v = nu / (K^T u). Every check absorbs eps log u
    and eps log v into f and g and rebuilds K, so the scalings restart at 1
    and stay moderate. Returns the plan at eps_final, f and the sweep count.
    """
    max_iter, tol = SINKHORN_MAX_ITER, SINKHORN_MARGINAL_TOL
    f = np.zeros_like(mu)
    g = np.zeros_like(nu)
    eps0 = max(cost.max(), eps_final)
    stages = [eps0]
    while stages[-1] > eps_final:
        stages.append(max(stages[-1] * SINKHORN_SCHEDULE, eps_final))

    sweeps = 0
    for eps in stages:
        last = eps == stages[-1]
        iters, every = (max_iter, 25) if last else (max(50, max_iter // 10), 10)
        K = np.exp((f[:, None] + g[None, :] - cost) / eps)
        v = np.ones_like(nu)
        viol = np.inf
        prev = np.inf
        for it in range(iters):
            u = mu / (K @ v)
            v = nu / (u @ K)
            sweeps += 1
            if it % every == every - 1:
                f += eps * np.log(u)
                g += eps * np.log(v)
                K = np.exp((f[:, None] + g[None, :] - cost) / eps)
                v = np.ones_like(nu)
                # column marginals are exact after the v-update; rows
                # measure convergence
                viol = np.abs(K.sum(axis=1) - mu).max()
                if viol < tol:
                    break
                # at small eps the iteration plateaus well above tol while
                # the plan is already accurate; stop once progress stalls and
                # let the rounding step restore the marginals exactly
                if last and it % 200 == 199:
                    if viol > prev * 0.995:
                        break
                    prev = viol
        if last and viol > max(100 * tol, 1e-4):
            raise SinkhornNonConvergence(
                f"marginal violation {viol:.2e} after {max_iter} iterations "
                "(epsilon schedule too aggressive)"
            )
    return K, f, sweeps


def _round_to_marginals(gamma, mu, nu):
    """Rescale rows/columns and add a rank-one correction so the plan hits
    the marginals exactly (up to rounding)."""
    r = gamma.sum(axis=1)
    gamma = gamma * np.minimum(1.0, mu / np.where(r > 0, r, 1.0))[:, None]
    c = gamma.sum(axis=0)
    gamma = gamma * np.minimum(1.0, nu / np.where(c > 0, c, 1.0))[None, :]
    dr = mu - gamma.sum(axis=1)
    dc = nu - gamma.sum(axis=0)
    total = dr.sum()
    if total > 0:
        gamma = gamma + np.outer(dr, dc) / total
    return gamma


def w2_sinkhorn(mu, nu, dist, eps_final):
    """Entropically regularized W_2 with epsilon scaling.

    The regularization is lowered geometrically (factor SINKHORN_SCHEDULE)
    from eps_0 = max d^2 down to eps_final. The sweeps run in the scaling
    domain, with the potentials absorbed at every check of the row
    marginals. Each stage above eps_final stops once they are within
    SINKHORN_MARGINAL_TOL (checked every 10 sweeps) or after
    max(50, SINKHORN_MAX_ITER // 10) sweeps. At eps_final the iteration
    stops at the same tolerance (checked every 25 sweeps), when progress
    stalls, or after SINKHORN_MAX_ITER sweeps; a violation still above
    max(100 * SINKHORN_MARGINAL_TOL, 1e-4) raises SinkhornNonConvergence.
    The final plan is rounded to exact marginals, so the reported marginal
    violation is at rounding level. As in w2_exact, one solve runs in a
    canonical argument order (the plan is transposed back when the arguments
    were swapped), making w2_sinkhorn(mu, nu) == w2_sinkhorn(nu, mu)
    bit-exact.

    Returns (value, info): info holds the plan's marginal violation, the
    diagonal-feasibility bias bound sqrt(2 eps_final log n) relevant for
    the mu == nu case, the plan, the total number of sweeps, and a bracket
    (lower, upper) on W_2. upper is the value: the rounded plan is
    feasible, so its cost bounds W_2^2 from above. lower is
    sqrt(<phi, mu> + <psi, nu>) for psi = f^c and phi = psi^c, the
    c-transforms of the final potential f for the cost d^2 on the support:
    a feasible dual, so it bounds W_2^2 from below. The bracket holds only
    up to rounding: where it closes on near point masses, either end can
    cross the exact value by ~1e-15 relative. It is reported, not enforced.
    dist is checked as in w2_exact, without the circle detection, which
    Sinkhorn does not use.
    """
    mu, nu = _validate_pair(mu, nu)
    if eps_final <= 0:
        raise TransportError("eps_final must be > 0")
    dist = _square_metric(dist, len(mu))

    swapped = _canonical_swap(mu, nu)
    a, b = (nu, mu) if swapped else (mu, nu)
    sa = np.flatnonzero(a > 0)
    sb = np.flatnonzero(b > 0)
    cost = dist[np.ix_(sa, sb)] ** 2
    gamma, f, sweeps = _sinkhorn_core(a[sa], b[sb], cost, eps_final)
    gamma = _round_to_marginals(gamma, a[sa], b[sb])
    value = float(np.sqrt(max((gamma * cost).sum(), 0.0)))

    psi = (cost - f[:, None]).min(axis=0)
    phi = (cost - psi[None, :]).min(axis=1)
    lower = float(np.sqrt(max(phi @ a[sa] + psi @ b[sb], 0.0)))
    full = np.zeros((len(a), len(b)))
    full[np.ix_(sa, sb)] = gamma
    plan = TransportPlan(full.T.copy() if swapped else full, mu, nu)
    info = {
        "marginal_violation": plan.marginal_violation(),
        "bias_bound": float(np.sqrt(2.0 * eps_final * np.log(max(len(mu), 2)))),
        "plan": plan,
        "bracket": (lower, value),
        "sweeps": sweeps,
    }
    return value, info
