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
  potentials.

Either way, the value comes from the plan on the given dist, and the
potentials, for the halved-cost convention phi(x) + phi^c(y) <= d^2(x, y)/2,
are extended off the support and made c-concave by a double c-transform.
Every solve returns a duality-gap certificate; a solve whose gap leaves the
window raises SolverFailure. Primal objective uses d^2 (so value = W_2),
duals use d^2/2.

Values are unique; plans need not be. The LP pivot order is HiGHS's
deterministic default (not lowest-index), and w2_exact canonicalizes its
argument order internally so that w2(mu, nu) == w2(nu, mu) exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import eye, kron, vstack

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
# w2_sinkhorn: epsilon factor per stage, iterations at the final epsilon,
# and the row-marginal violation that ends them
SINKHORN_SCHEDULE = 0.5
SINKHORN_MAX_ITER = 4000
SINKHORN_MARGINAL_TOL = 1e-6
# quantile levels closer than this fraction of the mass coincide on circles
_LEVEL_TOL = 1e-13


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
    if np.any(mu < 0) or np.any(nu < 0):
        raise TransportError("negative masses")
    if not (mu.sum() > 0 and nu.sum() > 0):
        raise TransportError("marginals carry no mass")
    if abs(mu.sum() - nu.sum()) > MASS_TOL:
        raise TransportError(
            f"marginal mass mismatch {abs(mu.sum() - nu.sum()):.2e} > {MASS_TOL}"
        )
    return mu, nu


@lru_cache(maxsize=8)
def _marginal_constraints(n, m):
    """Row-sum and column-sum equality matrix of an n x m coupling."""
    return vstack([
        kron(eye(n, format="csr"), np.ones((1, m))),
        kron(np.ones((1, n)), eye(m, format="csr")),
    ]).tocsr()


def _solve_lp(mu, nu, cost):
    """Coupling LP on the supports: plan and potentials phi on mu's atoms."""
    n, m = len(mu), len(nu)
    res = linprog(
        cost.ravel(), A_eq=_marginal_constraints(n, m), b_eq=np.concatenate([mu, nu]),
        bounds=(0, None), method="highs",
    )
    if res.status != 0:  # pragma: no cover
        raise SolverFailure(f"LP solver failed: {res.message}")
    # duals for cost d^2 -> potentials for cost d^2/2
    return res.x.reshape(n, m), 0.5 * res.eqlin.marginals[:n]


def _circle_spacing(dist):
    """Grid step h when dist is the metric of an equispaced circle,
    dist[i, j] = h min(|i - j|, n - |i - j|) within 1e-12 n h for n >= 3;
    otherwise None."""
    n = len(dist)
    if n < 3 or not dist[0, 1] > 0:
        return None
    h = float(dist[0, 1])
    off = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    dev = np.abs(dist - h * np.minimum(off, n - off)).max()
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
    ascending) on the n-point equispaced circle, with potentials phi on p in
    grid units (cost (i - j)^2 / 2).

    Unrolled onto the line, the quantile functions satisfy X(u + M) =
    X(u) + n, and the lifted cost C(theta) = int_0^M (X(u) - Y(u + theta))^2 du
    is convex and piecewise linear in the mass shift theta; its minimum is
    W_2^2 (Delon, Salomon & Sobolevski 2010). The slope of C is a sum of
    one integer term per nu level, so bisection on its sign finds a minimising
    breakpoint, where a nu level meets a mu level. Cutting both measures at
    that corner leaves a 1-D monotone coupling (_monotone_segments).
    """
    A, B = len(p), len(q)
    b = b * (a.sum() / b.sum())  # one period M for both level sets
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
        Probability vectors (equal masses within 1e-9) on the same space.
    dist : ndarray
        Symmetric metric matrix.

    Returns
    -------
    W2Result
        value = sqrt(sum gamma_xy d^2(x, y)) at an optimal plan; the returned
        potentials are c-concave and certify optimality with duality gap
        value^2/2 - (<phi, mu> + <phi_c, nu>) <= 1e-8.

    Zero-mass points are dropped before the solve and reinserted as zero
    rows/columns of the plan. On the metric of an equispaced circle the plan
    comes from the periodic quantile coupling, otherwise from the LP.
    """
    mu, nu = _validate_pair(mu, nu)
    dist = np.asarray(dist, dtype=float)
    n = len(mu)
    if dist.shape != (n, n):
        raise TransportError("dist must be square on the marginals' space")

    # canonical argument order makes the value exactly symmetric in (mu, nu)
    swapped = _canonical_swap(mu, nu)
    if swapped:
        res = w2_exact(nu, mu, dist)
        return W2Result(
            res.value,
            TransportPlan(res.plan.gamma.T.copy(), mu, nu),
            DualPotentials(res.potentials.phi_c, res.potentials.phi),
        )

    smu = np.flatnonzero(mu > 0)
    snu = np.flatnonzero(nu > 0)
    h = _circle_spacing(dist)
    if h is None:
        gamma_s, phi_s = _solve_lp(mu[smu], nu[snu], dist[np.ix_(smu, snu)] ** 2)
    else:
        gamma_s, phi_s = _solve_circle(smu, mu[smu], snu, nu[snu], n)
        phi_s = h * h * phi_s

    gamma = np.zeros((n, n))
    gamma[np.ix_(smu, snu)] = gamma_s
    value = float(np.sqrt(max((dist**2 * gamma).sum(), 0.0)))

    # potentials extended off-support conservatively, then made c-concave
    # (phi^cc, phi^c); feasibility and the gap bound are structural from the
    # c-transform definition.
    phi = np.full(n, -np.inf)
    phi[smu] = phi_s
    phi_c = c_transform(phi, dist)
    phi = c_transform(phi_c, dist.T)
    potentials = DualPotentials(phi=phi, phi_c=phi_c)

    gap = 0.5 * value**2 - (phi @ mu + phi_c @ nu)
    if not (-1e-7 <= gap <= GAP_TOL):  # pragma: no cover
        raise SolverFailure(f"optimality certificate failed: gap {gap:.3e}")
    return W2Result(value, TransportPlan(gamma, mu, nu), potentials)


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
    nothing.
    """
    mu, nu = _validate_pair(mu, nu)
    viol = potentials.feasibility_violation(dist)
    if viol > 1e-10:
        raise TransportError(f"infeasible potentials (violation {viol:.2e})")
    return float(0.5 * value**2 - (potentials.phi @ mu + potentials.phi_c @ nu))


# ---------------------------------------------------------------------------
# entropic approximation

def _sinkhorn_core(mu, nu, cost, eps_final):
    """Log-domain Sinkhorn with geometric epsilon scaling from max cost."""
    max_iter, tol = SINKHORN_MAX_ITER, SINKHORN_MARGINAL_TOL
    logmu = np.log(mu)
    lognu = np.log(nu)
    f = np.zeros_like(mu)
    g = np.zeros_like(nu)
    eps0 = max(cost.max(), eps_final)
    stages = [eps0]
    while stages[-1] > eps_final:
        stages.append(max(stages[-1] * SINKHORN_SCHEDULE, eps_final))

    for eps in stages:
        last = eps == stages[-1]
        iters = max_iter if last else max(50, max_iter // 10)
        viol = np.inf
        prev = np.inf
        for it in range(iters):
            f = eps * (logmu - _lse((g[None, :] - cost) / eps, axis=1))
            g = eps * (lognu - _lse((f[:, None] - cost) / eps, axis=0))
            if last and it % 25 == 24:
                # column marginals are exact after the g-update; rows measure
                # convergence
                row = np.exp(_lse((f[:, None] + g[None, :] - cost) / eps, axis=1))
                viol = np.abs(row - mu).max()
                if viol < tol:
                    break
                # at small eps the iteration plateaus well above tol while the
                # plan is already accurate; stop once progress stalls and let
                # the rounding step restore the marginals exactly
                if it % 200 == 199:
                    if viol > prev * 0.995:
                        break
                    prev = viol
        if last and viol > max(100 * tol, 1e-4):
            raise SinkhornNonConvergence(
                f"marginal violation {viol:.2e} after {max_iter} iterations "
                "(epsilon schedule too aggressive)"
            )
    return np.exp((f[:, None] + g[None, :] - cost) / eps_final)


def _lse(z, axis):
    zmax = z.max(axis=axis, keepdims=True)
    out = np.log(np.exp(z - zmax).sum(axis=axis))
    return out + np.squeeze(zmax, axis=axis)


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


def w2_sinkhorn(mu, nu, dist, eps_final, return_info=False):
    """Entropically regularized W_2 with epsilon scaling.

    The regularization is lowered geometrically (factor SINKHORN_SCHEDULE)
    from eps_0 = max d^2 down to eps_final. There the iteration stops once
    the row marginals are within SINKHORN_MARGINAL_TOL, when progress stalls,
    or after SINKHORN_MAX_ITER iterations; a violation still above
    max(100 * SINKHORN_MARGINAL_TOL, 1e-4) raises SinkhornNonConvergence.
    The final plan is rounded to exact marginals, so the reported marginal
    violation is at rounding level. As in w2_exact, one solve runs in a
    canonical argument order (the plan is transposed back when the arguments
    were swapped), making w2_sinkhorn(mu, nu) == w2_sinkhorn(nu, mu)
    bit-exact.

    With return_info=True also returns a dict with the plan's marginal
    violation and the diagonal-feasibility bias bound sqrt(2 eps_final log n)
    relevant for the mu == nu case.
    """
    mu, nu = _validate_pair(mu, nu)
    if eps_final <= 0:
        raise TransportError("eps_final must be > 0")
    dist = np.asarray(dist, dtype=float)

    swapped = _canonical_swap(mu, nu)
    a, b = (nu, mu) if swapped else (mu, nu)
    sa = np.flatnonzero(a > 0)
    sb = np.flatnonzero(b > 0)
    cost = dist[np.ix_(sa, sb)] ** 2
    gamma = _sinkhorn_core(a[sa], b[sb], cost, eps_final)
    gamma = _round_to_marginals(gamma, a[sa], b[sb])
    value = float(np.sqrt(max((gamma * cost).sum(), 0.0)))

    if not return_info:
        return value
    full = np.zeros((len(a), len(b)))
    full[np.ix_(sa, sb)] = gamma
    plan = TransportPlan(full.T.copy() if swapped else full, mu, nu)
    info = {
        "marginal_violation": plan.marginal_violation(),
        "bias_bound": float(np.sqrt(2.0 * eps_final * np.log(max(len(mu), 2)))),
        "plan": plan,
    }
    return value, info
