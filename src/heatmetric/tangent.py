"""Velocity potentials, the evolving metric g_t, and its time derivative.

For a model geometry with heat kernel rho(t, x, .), the velocity potential of
a tangent vector v solves the weighted Poisson equation

    div(rho grad(phi)) = eta,      eta(y) = -grad_x rho(t, x, y) . v,

with the zero-mean gauge. The metric value is the kinetic energy

    g_t(v, v) = int |grad(phi)|^2 rho dvol,

its exact time derivative is the quadrature

    d/dt (1/2) g_t(v, v) = int (-|Hess(phi)|^2 - Ric(grad, grad)) rho dvol,

and the small-t slope of g_t recovers -2 Ric(v, v). Every model geometry has
constant curvature K, so Ric(w, w) = K |w|^2 throughout.

Two discretizations serve the three geometries, picked in one place
(_discretization). The circle and the flat torus are periodic product grids
with one and two axes (``geometry.periodic_axes``) and share one path: the
kernel and its source are products of circle_kernel factors, the flux
operator is a conservative second-order stencil with one face family per
axis (constant mode deflated), the plan is staggered on those faces, and the
Hessian is a central-difference stencil. On the sphere the source and
solution of a unit tangent at the pole are pure first-azimuthal modes,
eta = G(theta) cos(psi), phi = u(theta) cos(psi), which collapses the PDE to
a tridiagonal ODE on the colatitude grid with natural pole regularity (the
sin(theta) flux factor vanishes at both poles).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from . import transport
from .geometry import CircleGeometry, SphereGeometry, legendre_table_with_derivative
from .heat import circle_kernel, sphere_kernel_coefficients
from .spaces import model_circle

__all__ = [
    "TangentError",
    "NonzeroMeanSource",
    "NonpositiveDensity",
    "UnresolvedTime",
    "UncertifiedSolve",
    "VelocityPotential",
    "TangentPlan",
    "TangencyReport",
    "MetricSpeedReport",
    "solve_weighted_poisson",
    "velocity_potential",
    "metric_gt",
    "gt_derivative_bochner",
    "ric_pairing",
    "squared_hessian_mass",
    "tangent_plan",
    "metric_speed_check",
    "tangency_experiment",
    "poisson_energy_gradient",
]

RESIDUAL_TOL = 1e-8


class TangentError(ValueError):
    """Invalid tangent-module request."""


class NonzeroMeanSource(TangentError):
    """Poisson source does not integrate to zero."""


class NonpositiveDensity(TangentError):
    """Weight density must be strictly positive."""


class UnresolvedTime(TangentError):
    """Requested time is below the grid's resolution floor."""


class UncertifiedSolve(TangentError):
    """Valid input whose linear solve residual is above RESIDUAL_TOL."""


@dataclass(frozen=True)
class VelocityPotential:
    """Solution of the weighted Poisson equation on a model geometry.

    phi holds grid values (circle: (n,), torus: (n1, n2)); on the sphere it
    holds the colatitude profile u of the first-azimuthal mode
    phi(theta, psi) = u(theta) cos(psi). The zero-mean gauge holds against
    the volume measure (automatic for the sphere mode). residual is the
    relative norm of the discrete operator residual, certified <= 1e-8.
    """

    geometry: object
    phi: np.ndarray
    rho: np.ndarray
    eta: np.ndarray
    residual: float


@dataclass(frozen=True)
class TangentPlan:
    """Quadrature form of the plan (y, grad(phi)(y)) pushed by rho dvol.

    weights sum to 1 (kernel mass), grad_sq holds |grad(phi)|^2 at the
    quadrature nodes (the faces of each axis on a periodic grid, the
    colatitude nodes on the sphere, azimuthally averaged), so the second
    moment equals g_t(v, v) exactly by construction.
    """

    weights: np.ndarray
    grad_sq: np.ndarray

    def mass(self) -> float:
        return float(self.weights.sum())

    def second_moment(self) -> float:
        return float(self.weights @ self.grad_sq)


@dataclass(frozen=True)
class TangencyReport:
    """Small-time slopes of g_t(v, v) against the -2 Ric(v, v) target."""

    ts: np.ndarray
    gt_values: np.ndarray
    slopes: np.ndarray
    hessian_mass: np.ndarray
    extrapolated_slope: float
    target: float
    deviation: float
    speed_sq: float
    one_sided_ok: bool
    tol: ClassVar[float] = 0.05  # the relative slope deviation that passes

    def passed(self, tol=tol) -> bool:
        return self.deviation <= tol and self.one_sided_ok

    def rows(self):
        for t, g, s, hm in zip(self.ts, self.gt_values, self.slopes, self.hessian_mass):
            yield {"t": t, "g_t": g, "slope": s, "hessian_mass": hm,
                   "target": self.target,
                   "deviation": abs(s - self.target) / max(abs(self.target), self.speed_sq)}


@dataclass(frozen=True)
class MetricSpeedReport:
    """Two routes to the metric speed of s -> H_t(delta_{gamma_s})."""

    t: float
    h_requested: float
    h_effective: float
    gt_value: float
    w2_quotient_sq: float

    @property
    def rel_mismatch(self) -> float:
        return abs(self.w2_quotient_sq - self.gt_value) / abs(self.gt_value)


# ---------------------------------------------------------------------------
# shared numerics

def _solve_deflated(A, rhs, weights):
    """Solve the singular system A phi = rhs (constants in the kernel) by
    pinning one unknown, then restore the volume-weighted zero-mean gauge.

    The system is symmetrically Jacobi-equilibrated first: kernel densities
    span hundreds of orders of magnitude at small times, and the raw LU
    factorization breaks down without the scaling. The first unknown is
    pinned to zero by slicing it off, and sparse LU factors the rest once,
    ordered by MMD_AT_PLUS_A because the equilibrated operator is symmetric.
    """
    d = np.sqrt(np.abs(A.diagonal()))
    d = np.where(d > 0, d, 1.0)
    Dinv = sp.diags(1.0 / d)
    As = (Dinv @ A @ Dinv).tocsc()
    phi = np.zeros_like(rhs)
    phi[1:] = spla.spsolve(As[1:, 1:], rhs[1:] / d[1:], permc_spec="MMD_AT_PLUS_A") / d[1:]
    phi -= (weights @ phi) / weights.sum()
    res = A @ phi - rhs
    scale = np.linalg.norm(rhs)
    return phi, float(np.linalg.norm(res) / scale) if scale > 0 else 0.0


def _floor_density(rho):
    # kernel densities fall hundreds of orders of magnitude below their peak
    # at small times; the floor (mass fraction < 1e-13) keeps the solve
    # well scaled without touching any resolved region
    return np.maximum(rho, rho.max() * 1e-13)


# ---------------------------------------------------------------------------
# periodic product grids: the circle (one axis) and the flat torus (two)

def _product(factors):
    """Tensor product of one 1-D factor per axis."""
    return reduce(np.multiply.outer, factors)


class _PeriodicGrid:
    """Circle and flat torus: conservative flux stencils on the periodic
    product grid of geometry.periodic_axes, one (L, n) pair per axis."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.lengths = [L for L, _ in geometry.periodic_axes]
        self.h = [L / n for L, n in geometry.periodic_axes]
        self.coords = [np.arange(n) * h for (_, n), h in zip(geometry.periodic_axes, self.h)]

    def check_resolution(self, t):
        hmax = max(self.h)
        if t < 4 * hmax**2:
            raise UnresolvedTime(f"t={t} below 4 h^2 = {4 * hmax**2:.3e}")

    def _point(self, x):
        x0 = np.zeros(len(self.h)) if x is None else np.atleast_1d(np.asarray(x, dtype=float))
        if x0.shape != (len(self.h),):
            raise TangentError(f"points need one coordinate per grid axis ({len(self.h)})")
        return x0

    def _kernels(self, t, x0, deriv=0, shift=0.0):
        """circle_kernel factor of each axis at the nodes shifted by
        shift * h, relative to the kernel center x0."""
        return [circle_kernel(t, L, y + shift * h - c, deriv=deriv)
                for L, h, y, c in zip(self.lengths, self.h, self.coords, x0)]

    def operator(self, rho):
        """Flux operator div(rho grad .): face densities are the averages of
        the two adjacent nodes, one face family per axis."""
        idx = np.arange(rho.size).reshape(rho.shape)
        cols, vals = [], []
        for a, h in enumerate(self.h):
            face = 0.5 * (rho + np.roll(rho, -1, axis=a)) / h**2
            cols += [np.roll(idx, -1, axis=a), np.roll(idx, 1, axis=a)]
            vals += [face, np.roll(face, 1, axis=a)]
        vals.insert(0, -sum(vals))
        cols.insert(0, idx)
        return sp.coo_matrix(
            (np.concatenate([v.ravel() for v in vals]),
             (np.tile(idx.ravel(), len(cols)), np.concatenate([c.ravel() for c in cols]))),
            shape=(rho.size, rho.size),
        ).tocsr()

    def solve(self, rho, eta):
        w = self.geometry.volume_weights()
        total = float(np.abs(eta).ravel() @ w.ravel())
        mean = float(eta.ravel() @ w.ravel())
        if total > 0 and abs(mean) > 1e-10 * total:
            raise NonzeroMeanSource(f"source mean {mean:.2e} exceeds 1e-10 * ||eta||_1")
        eta = eta - mean / w.sum()
        phi, residual = _solve_deflated(self.operator(rho), eta.ravel(), w.ravel())
        return VelocityPotential(self.geometry, phi.reshape(eta.shape), rho, eta, residual)

    def energy_gradient(self, vp, direction):
        A = self.operator(vp.rho)
        grad = (-(A @ vp.phi.ravel()) + vp.eta.ravel()) * self.geometry.volume_weights().ravel()
        return float(grad @ np.asarray(direction, dtype=float).ravel())

    def potential(self, t, x, v):
        x0 = self._point(x)
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if v.shape != x0.shape:
            raise TangentError(f"tangent vectors need one component per grid axis ({len(self.h)})")
        k = self._kernels(t, x0)
        dk = self._kernels(t, x0, deriv=1)
        # eta = -grad_x rho . v: the offset derivative of one factor per axis
        eta = sum(v[a] * _product(k[:a] + [dk[a]] + k[a + 1:]) for a in range(len(k)))
        return solve_weighted_poisson(self.geometry, _floor_density(_product(k)), eta)

    def plan(self, t, x, vp):
        # staggered quadrature: each face family carries one gradient
        # component; splitting the kernel mass evenly between the d families
        # (and scaling the squared component by d) keeps the total weight at
        # 1 while reproducing the energy sum exactly
        x0 = self._point(x)
        d = len(self.h)
        k = self._kernels(t, x0)
        kf = self._kernels(t, x0, shift=0.5)
        w = self.geometry.volume_weights()
        weights, grads = [], []
        for a, h in enumerate(self.h):
            weights.append((_product(k[:a] + [kf[a]] + k[a + 1:]) * w / d).ravel())
            grads.append(d * ((np.roll(vp.phi, -1, axis=a) - vp.phi) / h).ravel() ** 2)
        return TangentPlan(np.concatenate(weights), np.concatenate(grads))

    def hessian_mass(self, t, x, vp):
        # |Hess phi|^2 = sum over axis pairs of squared second differences
        # (pure) and nested central differences (mixed)
        phi, hess2 = vp.phi, 0.0
        for a, ha in enumerate(self.h):
            for b, hb in enumerate(self.h):
                if a == b:
                    hab = (np.roll(phi, -1, axis=a) - 2 * phi + np.roll(phi, 1, axis=a)) / ha**2
                else:
                    da = (np.roll(phi, -1, axis=a) - np.roll(phi, 1, axis=a)) / (2 * ha)
                    hab = (np.roll(da, -1, axis=b) - np.roll(da, 1, axis=b)) / (2 * hb)
                hess2 = hess2 + hab**2
        return float(np.sum(hess2 * vp.rho * self.geometry.volume_weights()))


# ---------------------------------------------------------------------------
# the sphere's first-azimuthal-mode reduction

def _solve_sphere_m1(geom, rho_profile, rhs):
    h = geom.h
    sc, sf = np.sin(geom.nodes()), np.sin(geom.faces())
    rho_f = np.empty(geom.n_theta + 1)
    rho_f[1:-1] = 0.5 * (rho_profile[:-1] + rho_profile[1:])
    rho_f[0] = rho_f[-1] = 0.0  # multiplied by sin(0) = sin(pi) = 0 anyway
    a = sf[:-1] * rho_f[:-1] / h**2 / sc
    b = sf[1:] * rho_f[1:] / h**2 / sc
    diag = -(a + b) - rho_profile / sc**2
    ab = np.zeros((3, geom.n_theta))
    ab[0, 1:] = b[:-1]
    ab[1] = diag
    ab[2, :-1] = a[1:]
    u = solve_banded((1, 1), ab, rhs)
    res = a * np.concatenate([[0.0], u[:-1]]) + diag * u + b * np.concatenate([u[1:], [0.0]]) - rhs
    scale = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(res) / scale) if scale > 0 else 0.0
    return u, residual


def _centered_gradient(u, h):
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    du[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
    du[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    return du


class _SphereMode:
    """Round sphere: the first azimuthal mode on the colatitude grid. The
    sphere is homogeneous, so every potential is computed at the north pole
    and x is ignored."""

    def __init__(self, geometry):
        self.geometry = geometry

    def check_resolution(self, t):
        # the one truncation rule: the kernel series raises on its tail
        sphere_kernel_coefficients(t, self.geometry.r, self.geometry.l_max)

    def solve(self, rho, eta):
        geometry = self.geometry
        if rho.shape != (geometry.n_theta,) or eta.shape != rho.shape:
            raise TangentError("sphere profiles must live on the colatitude grid")
        # reduced ODE: (sin F u')'/sin - F u / sin^2 = r^2 G
        u, residual = _solve_sphere_m1(geometry, rho, geometry.r**2 * eta)
        return VelocityPotential(geometry, u, rho, eta, residual)

    def energy_gradient(self, vp, direction):
        raise TangentError("energy gradient check is defined on periodic grids")

    def profiles(self, t):
        return _sphere_profiles(self.geometry, t)

    def potential(self, t, x, v):
        # G(theta) = |v| K'(theta) / r, sign fixed by finite-difference
        # validation of grad_x rho . v
        speed = float(np.linalg.norm(np.atleast_1d(np.asarray(v, dtype=float))))
        K, dK, _ = self.profiles(t)
        G = speed * dK / self.geometry.r
        return solve_weighted_poisson(self.geometry, K, G)

    def plan(self, t, x, vp):
        geometry = self.geometry
        theta = geometry.nodes()
        _, _, masses = self.profiles(t)
        u = vp.phi
        du = _centered_gradient(u, geometry.h)
        grad2 = (du**2 + (u / np.sin(theta)) ** 2) / (2 * geometry.r**2)
        return TangentPlan(masses, grad2)

    def hessian_mass(self, t, x, vp):
        r, h = self.geometry.r, self.geometry.h
        theta = self.geometry.nodes()
        sc = np.sin(theta)
        cot = np.cos(theta) / sc
        u = vp.phi
        du = _centered_gradient(u, h)
        ddu = np.empty_like(u)
        ddu[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        ddu[0] = ddu[1]
        ddu[-1] = ddu[-2]
        # orthonormal-frame Hessian of u(theta) cos(psi); the psi-average of
        # each squared component contributes a factor 1/2
        H11 = ddu / r**2
        H12 = (u * cot - du) / (r**2 * sc)
        H22 = (du * cot - u / sc**2) / r**2
        hess2_avg = 0.5 * (H11**2 + 2 * H12**2 + H22**2)
        _, _, masses = self.profiles(t)
        return float(masses @ hess2_avg)


@lru_cache(maxsize=32)
def _sphere_profiles(geometry, t):
    """Kernel profile K(theta), its theta-derivative, and exact cell masses,
    computed once per (sphere, t) for the potential, the plan and the Hessian.

    At small t the kernel is exponentially small near the antipode, below
    the roundoff noise of the Legendre series; the profile is floored at
    max(K) * 1e-13 so the solver density stays positive and well scaled.
    The floored region carries a mass fraction below 1e-13, negligible in
    every quadrature.
    """
    c = sphere_kernel_coefficients(t, geometry.r, geometry.l_max)
    theta = geometry.nodes()
    P, dP = legendre_table_with_derivative(geometry.l_max, np.cos(theta))
    K = c @ P
    K = np.maximum(K, K.max() * 1e-13)
    dK = c @ (-np.sin(theta) * dP)
    out = (K, dK, geometry.zone_integrals(c))
    for arr in out:  # shared by every caller at this (geometry, t)
        arr.flags.writeable = False
    return out


def _discretization(geometry):
    """The discretization of a model geometry: the periodic grid or the
    sphere reduction."""
    if isinstance(geometry, SphereGeometry):
        return _SphereMode(geometry)
    if hasattr(geometry, "periodic_axes"):
        return _PeriodicGrid(geometry)
    raise TangentError(f"unsupported geometry {type(geometry).__name__}")


def _resolved(geometry, t):
    """The geometry's discretization, once it is checked to resolve t."""
    if t <= 0:
        raise TangentError("velocity potentials require t > 0")
    disc = _discretization(geometry)
    disc.check_resolution(t)
    return disc


# ---------------------------------------------------------------------------
# public entry points

def solve_weighted_poisson(geometry, rho, eta) -> VelocityPotential:
    """Solve div(rho grad(phi)) = eta with the zero-mean gauge.

    The geometry fixes the azimuthal mode: 0 (plain grid values) on the
    periodic grids, 1 (phi = u(theta) cos(psi)) on the sphere.

    Parameters
    ----------
    geometry : CircleGeometry | TorusGeometry | SphereGeometry
    rho : ndarray
        Strictly positive weight density on the geometry's grid (sphere:
        zonal colatitude profile).
    eta : ndarray
        Source. On the periodic grids it must integrate to zero against the
        volume weights within 1e-10 * ||eta||_1; the residual incompatibility
        (at rounding level) is projected out before solving. On the sphere
        eta is the profile G(theta) of the source G(theta) cos(psi), which
        has zero mean automatically.

    Raises
    ------
    NonpositiveDensity, NonzeroMeanSource, UncertifiedSolve, TangentError
    """
    rho = np.asarray(rho, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.any(rho <= 0):
        raise NonpositiveDensity("rho must be strictly positive")
    vp = _discretization(geometry).solve(rho, eta)
    if vp.residual > RESIDUAL_TOL:
        raise UncertifiedSolve(f"linear solve residual {vp.residual:.2e} above {RESIDUAL_TOL:.0e}")
    return vp


def poisson_energy_gradient(vp: VelocityPotential, direction) -> float:
    """Directional derivative of the discrete energy
    (1/2) int rho |grad(phi)|^2 + int eta phi at the solution.

    First-order optimality of the linear solve: vanishes within 1e-8 for any
    direction (the sign convention on eta only flips the stationary point's
    identity, not stationarity itself). Defined on the periodic grids.
    """
    return _discretization(vp.geometry).energy_gradient(vp, direction)


def velocity_potential(geometry, t, x=None, v=1.0) -> VelocityPotential:
    """Potential phi_{t,x,v} of the moving heat kernel.

    eta(y) = -grad_x rho(t, x, y) . v is built analytically (circle/torus:
    kernel offset derivative; sphere: the first-azimuthal reduction with
    G(theta) = |v| K'(theta)/r). x and v have one component per axis on the
    periodic grids; the sphere is homogeneous, so x is ignored there and the
    potential is computed at the north pole. Solver densities are floored at
    max(rho) * 1e-13 for conditioning.
    """
    return _resolved(geometry, t).potential(t, x, v)


def tangent_plan(geometry, t, x=None, v=1.0) -> TangentPlan:
    """Quadrature plan (kernel weights, |grad phi|^2) for (t, x, v)."""
    disc = _resolved(geometry, t)
    return disc.plan(t, x, disc.potential(t, x, v))


def metric_gt(geometry, t, x=None, v=1.0) -> float:
    """The evolving metric g_t(v, v) = int |grad phi|^2 rho dvol.

    t = 0 returns |v|^2 (the continuity of g_t at zero), computed exactly.
    On the circle the value admits the closed form |v|^2 (1 - L^2 / I_t) with
    I_t the loop integral of 1/rho_t, used as an independent oracle in tests.
    """
    if t == 0:
        return float(np.sum(np.square(v)))
    return tangent_plan(geometry, t, x, v).second_moment()


def ric_pairing(geometry, t, x=None, v=1.0) -> float:
    """int Ric(grad phi, grad phi) rho dvol via the tangent plan.

    The Ricci form is K |w|^2 on every model geometry, so the pairing is
    K g_t(v, v): zero on the flat circle and torus, g_t(v, v) / r^2 on the
    sphere.
    """
    return geometry.K * tangent_plan(geometry, t, x, v).second_moment()


def squared_hessian_mass(geometry, t, x=None, v=1.0) -> float:
    """Reported quantity int |Hess(phi)|^2 rho dvol (no assertion attached:
    whether it vanishes as t -> 0 is left open)."""
    disc = _resolved(geometry, t)
    return disc.hessian_mass(t, x, disc.potential(t, x, v))


def gt_derivative_bochner(geometry, t, x=None, v=1.0) -> float:
    """Exact derivative d/dt (1/2) g_t(v, v) by quadrature of
    -(|Hess phi|^2 + Ric(grad phi, grad phi)) rho.

    Matches the centered finite difference of metric_gt within 1% in the
    resolved range and always lies below -K g_t (up to 1e-8).
    """
    disc = _resolved(geometry, t)
    vp = disc.potential(t, x, v)
    hess = disc.hessian_mass(t, x, vp)
    return -hess - geometry.K * disc.plan(t, x, vp).second_moment()


def metric_speed_check(geometry, t, h) -> MetricSpeedReport:
    """Cross-validate g_t against the squared W_2 difference quotient.

    For the unit-speed rotation curve gamma_s on the circle, compares
    g_t(gamma', gamma') with (W_2(mu_{t, gamma_{s+h}}, mu_{t, gamma_s}) / h)^2
    computed by exact discrete optimal transport on the geometry's grid. The
    probe step is snapped to the nearest positive multiple of the grid
    spacing: for sub-grid steps the discrete transport cost is dominated by
    grid quantization (it scales like h * h_grid instead of h^2), while at
    grid multiples the shifted kernel measure is an exact translate and the
    quotient converges at first order in h.
    """
    if not isinstance(geometry, CircleGeometry):
        raise TangentError("metric speed check is implemented on the circle")
    _resolved(geometry, t)
    grid_h = geometry.h
    k = max(1, int(round(h / grid_h)))
    h_eff = k * grid_h
    if t < 4 * h_eff**2:
        raise UnresolvedTime(f"t={t} under-resolves the probe step {h_eff:.3e}")

    _, space = model_circle(geometry.L, geometry.n)
    y = geometry.nodes()

    def measure(center):
        dens = circle_kernel(t, geometry.L, y - center) * grid_h
        return dens / dens.sum()

    w2 = transport.w2_exact(measure(0.0), measure(h_eff), space.dist).value
    g = metric_gt(geometry, t, x=0.0, v=1.0)
    return MetricSpeedReport(t=t, h_requested=float(h), h_effective=h_eff,
                             gt_value=g, w2_quotient_sq=(w2 / h_eff) ** 2)


def tangency_experiment(geometry, x=None, v=1.0, t_grid=None) -> TangencyReport:
    """Small-time slopes of g_t(v, v) against the -2 Ric(v, v) target.

    t_grid must decrease geometrically (ratio about 1/2) to a t_min resolved
    by the discretization. Slopes (g_t - |v|^2)/t are Richardson-extrapolated
    to t = 0 from the two smallest times; the report also records the
    one-sided bound that every sufficiently small-t slope stays below
    -2 Ric(v,v) (1 - 0.05) + 0.05 |v|^2.
    """
    if t_grid is None:
        raise TangentError("t_grid is required")
    ts = np.asarray(sorted(t_grid, reverse=True), dtype=float)
    if len(ts) < 2 or np.any(ts <= 0):
        raise TangentError("t_grid needs at least two positive times")
    ratios = ts[1:] / ts[:-1]
    if np.any(ratios < 0.25) or np.any(ratios > 0.85):
        raise TangentError("t_grid should decrease geometrically (ratio about 1/2)")
    disc = _discretization(geometry)
    for t in ts:
        disc.check_resolution(t)

    sp2 = float(np.sum(np.square(v)))
    gts, hms = [], []
    for t in ts:
        vp = disc.potential(t, x, v)
        gts.append(disc.plan(t, x, vp).second_moment())
        hms.append(disc.hessian_mass(t, x, vp))
    gts = np.array(gts)
    hms = np.array(hms)
    slopes = (gts - sp2) / ts

    # one Richardson level on the halving grid kills the O(t) term
    extrapolated = float(2 * slopes[-1] - slopes[-2])
    target = -2.0 * geometry.ricci(x, v)
    deviation = abs(extrapolated - target) / max(abs(target), sp2)
    bound = target * (1 - 0.05) + 0.05 * sp2
    one_sided = bool(np.all(slopes[-2:] <= bound + 1e-9))
    return TangencyReport(ts=ts, gt_values=gts, slopes=slopes, hessian_mass=hms,
                          extrapolated_slope=extrapolated, target=target,
                          deviation=float(deviation), speed_sq=sp2,
                          one_sided_ok=one_sided)
