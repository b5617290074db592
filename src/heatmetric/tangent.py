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
Hessian is a second-difference stencil. The operator is a Kronecker sum, so
each axis gets one tridiagonal circle solve (first node pinned, density
floored per axis factor) and their sum is certified on the full stencil,
applied without a matrix. On the sphere the source and solution of a unit
tangent at the pole are pure first-azimuthal modes, eta = G(theta) cos(psi),
phi = u(theta) cos(psi), which collapses the PDE to a tridiagonal ODE on the
colatitude grid with natural pole regularity (the sin(theta) flux factor
vanishes at both poles). Each solve is one banded LU (_solve_tridiagonal).

Each discretization has three methods. check_resolution(t) raises when the
grid or the kernel series cannot resolve t. solve(rho, eta) solves one
weighted Poisson system and measures its residual; it is reached only
through solve_weighted_poisson, which checks the input and certifies the
residual. evaluate(t, v) builds the source of (t, v) at the origin, solves
it once through solve_weighted_poisson, and returns its TangentState: the
potential, the tangent plan and the Hessian mass int |Hess phi|^2 rho dvol.
That call is the public tangent_state; every other public quantity reads its
fields.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import ClassVar, NamedTuple

import numpy as np
import scipy
from numpy.polynomial import legendre

from . import transport
from .geometry import CircleGeometry, SphereGeometry
from .heat import circle_kernel, sphere_kernel_coefficients
from .spaces import _grid_space

__all__ = [
    "TangentError",
    "NonzeroMeanSource",
    "NonpositiveDensity",
    "UnresolvedTime",
    "UncertifiedSolve",
    "VelocityPotential",
    "TangentPlan",
    "TangentState",
    "TangencyReport",
    "MetricSpeedReport",
    "solve_weighted_poisson",
    "tangent_state",
    "metric_gt",
    "gt_derivative_bochner",
    "metric_speed_check",
    "tangency_experiment",
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

    def second_moment(self) -> float:
        return float(self.weights @ self.grad_sq)


class TangentState(NamedTuple):
    """Everything at (t, v) from one Poisson solve: the potential
    phi_{t,v}, its plan (y, grad(phi)(y)) pushed by rho dvol, and the
    reported Hessian mass int |Hess(phi)|^2 rho dvol."""

    potential: VelocityPotential
    plan: TangentPlan
    hessian_mass: float


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

def _solve_tridiagonal(lower, diag, upper, rhs):
    """Solve the tridiagonal system lower[i] x[i-1] + diag[i] x[i] +
    upper[i] x[i+1] = rhs[i] (lower[0] and upper[-1] are unused) by banded LU.

    Both callers' operators are diagonally dominant, so banded LU is stable
    without equilibration, however many decades the densities span.
    """
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = upper[:-1]
    ab[1] = diag
    ab[2, :-1] = lower[1:]
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def _per_axis(arrays, shapes):
    """One 1-D float array per grid axis; a one-axis grid also takes it plain."""
    arrays = [arrays] if len(shapes) == 1 and np.ndim(arrays) == 1 else arrays
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if [a.shape for a in arrays] != shapes or not all(np.isfinite(a).all() for a in arrays):
        raise TangentError(f"rho and eta need one finite 1-D array per grid axis, shapes {shapes}")
    return arrays


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
        self.shapes = [(n,) for _, n in geometry.periodic_axes]

    def check_resolution(self, t):
        hmax = max(self.h)
        if t < 4 * hmax**2:
            raise UnresolvedTime(f"t={t} below 4 h^2 = {4 * hmax**2:.3e}")

    def check_vector(self, v):
        v = np.atleast_1d(v)
        if v.shape != (len(self.h),):
            raise TangentError(f"tangent vectors need one component per grid axis ({len(self.h)})")
        return v

    def _kernels(self, t, deriv=0, shift=0.0):
        """circle_kernel factor of each axis, centered at the origin, at the
        nodes shifted by shift * h."""
        return [circle_kernel(t, L, y + shift * h, deriv=deriv)
                for L, h, y in zip(self.lengths, self.h, self.coords)]

    def flux(self, rho, phi):
        """div(rho grad phi) on the full grid without a matrix, faces as in solve."""
        out = np.zeros_like(phi)
        for a, h in enumerate(self.h):
            face = 0.5 * (rho + np.roll(rho, -1, axis=a)) / h**2
            current = face * (np.roll(phi, -1, axis=a) - phi)
            out += current - np.roll(current, 1, axis=a)
        return out

    def solve(self, rho, eta):
        # phi = sum_a psi_a(y_a), one circle solve div(rho_a grad psi_a) = eta_a per axis
        psis = []
        for a, (r, h) in enumerate(zip(rho, self.h)):
            w = np.full(r.size, h)
            mean = float(eta[a] @ w)
            if abs(mean) > 1e-10 * float(np.abs(eta[a]) @ w):
                raise NonzeroMeanSource(f"source mean {mean:.2e} exceeds 1e-10 * ||eta||_1")
            eta[a] = eta[a] - mean / w.sum()
            # constants are the null space: pin psi[0] = 0 and drop its row,
            # which leaves the tridiagonal block of the other n - 1 nodes
            face = 0.5 * (r + np.roll(r, -1)) / h**2
            psi = np.zeros(r.size)
            psi[1:] = _solve_tridiagonal(face[:-1], -(face[:-1] + face[1:]), face[1:], eta[a][1:])
            psis.append(psi - (w @ psi) / w.sum())
        phi, rho_full = reduce(np.add.outer, psis), _product(rho)
        eta_full = sum(_product(rho[:a] + [e] + rho[a + 1:]) for a, e in enumerate(eta))
        res, scale = self.flux(rho_full, phi) - eta_full, np.linalg.norm(eta_full)
        residual = float(np.linalg.norm(res) / scale) if scale > 0 else 0.0
        return VelocityPotential(phi, rho_full, eta_full, residual)

    def evaluate(self, t, v):
        # eta = -grad_x rho . v: per axis, v_a times its factor's offset derivative
        k = self._kernels(t)
        eta = [va * dk for va, dk in zip(v, self._kernels(t, deriv=1))]
        vp = solve_weighted_poisson(self.geometry, [_floor_density(f) for f in k], eta)
        # staggered quadrature: each face family carries one gradient
        # component; splitting the kernel mass evenly between the d families
        # (and scaling the squared component by d) keeps the total weight at
        # 1 while reproducing the energy sum exactly
        phi, d, w = vp.phi, len(self.h), self.geometry.volume_weights()
        kf = self._kernels(t, shift=0.5)
        weights, grads = [], []
        for a, h in enumerate(self.h):
            weights.append((_product(k[:a] + [kf[a]] + k[a + 1:]) * w / d).ravel())
            grads.append(d * ((np.roll(phi, -1, axis=a) - phi) / h).ravel() ** 2)
        # phi is a sum of one function per axis, so its Hessian is diagonal:
        # |Hess phi|^2 is the sum of the squared second differences
        hess2 = sum(((np.roll(phi, -1, axis=a) - 2 * phi + np.roll(phi, 1, axis=a)) / h**2) ** 2
                    for a, h in enumerate(self.h))
        return TangentState(vp, TangentPlan(np.concatenate(weights), np.concatenate(grads)),
                            float(np.sum(hess2 * vp.rho * w)))


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
    u = _solve_tridiagonal(a, diag, b, rhs)
    res = a * np.concatenate([[0.0], u[:-1]]) + diag * u + b * np.concatenate([u[1:], [0.0]]) - rhs
    scale = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(res) / scale) if scale > 0 else 0.0
    return u, residual


class _SphereMode:
    """Round sphere: the first azimuthal mode on the colatitude grid, with
    the kernel centered at the north pole."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.shapes = [(geometry.n_theta,)]

    def check_resolution(self, t):
        # the one truncation rule: the kernel series raises on its tail
        sphere_kernel_coefficients(t, self.geometry.r, self.geometry.l_max)

    def check_vector(self, v):
        v = np.atleast_1d(v)
        if v.ndim != 1 or v.size > 2:
            raise TangentError(f"tangent vectors on the sphere have at most two components, "
                               f"not shape {v.shape}")
        return v

    def solve(self, rho, eta):
        geometry, rho, eta = self.geometry, rho[0], eta[0]
        # reduced ODE: (sin F u')'/sin - F u / sin^2 = r^2 G
        u, residual = _solve_sphere_m1(geometry, rho, geometry.r**2 * eta)
        return VelocityPotential(u, rho, eta, residual)

    def evaluate(self, t, v):
        # G(theta) = |v| K'(theta) / r, sign fixed by finite-difference
        # validation of grad_x rho . v
        r, h = self.geometry.r, self.geometry.h
        speed = float(np.linalg.norm(v))
        K, dK, masses = _sphere_profiles(self.geometry, t)
        vp = solve_weighted_poisson(self.geometry, K, speed * dK / r)
        theta = self.geometry.nodes()
        sc = np.sin(theta)
        cot = np.cos(theta) / sc
        u = vp.phi
        du = np.empty_like(u)
        du[1:-1] = (u[2:] - u[:-2]) / (2 * h)
        du[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
        du[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
        ddu = np.empty_like(u)
        ddu[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        ddu[0] = ddu[1]
        ddu[-1] = ddu[-2]
        # orthonormal-frame Hessian of u(theta) cos(psi); the psi-average of
        # each squared component (and of |grad|^2) contributes a factor 1/2
        H11 = ddu / r**2
        H12 = (u * cot - du) / (r**2 * sc)
        H22 = (du * cot - u / sc**2) / r**2
        hess2_avg = 0.5 * (H11**2 + 2 * H12**2 + H22**2)
        grad2 = (du**2 + (u / sc) ** 2) / (2 * r**2)
        return TangentState(vp, TangentPlan(masses, grad2), float(masses @ hess2_avg))


@lru_cache(maxsize=32)
def _sphere_profiles(geometry, t):
    """Kernel profile K(theta), its theta-derivative, and exact cell masses,
    cached per (sphere, t) across calls: its three Legendre series (numpy's
    legval of the coefficients, of their legder and, in zone_integrals, of
    their legint) dominate a cold evaluation. A tangency_experiment on sphere
    4096/400 (t = 0.2 halved down to 0.00625) takes 0.085-0.090 s cold and
    0.003 s warm on a 2-core machine; at 16384/1000, 0.57-0.58 s and 0.010 s.

    At small t the kernel near the antipode sinks below the roundoff of the
    Legendre series, so the profile is floored like every solver density.
    """
    c = sphere_kernel_coefficients(t, geometry.r, geometry.l_max)
    theta = geometry.nodes()
    x = np.cos(theta)
    K = _floor_density(legendre.legval(x, c))
    dK = -np.sin(theta) * legendre.legval(x, legendre.legder(c))
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
    if not 0 < t < np.inf:
        raise TangentError(f"tangent states require a finite t > 0, not t={t}")
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
    rho : ndarray or sequence of ndarray
        Strictly positive weight density: one 1-D factor per periodic axis (a
        one-axis grid also takes it plain), or the sphere's zonal profile.
    eta : ndarray or sequence of ndarray
        Source: one 1-D term eta_a per periodic axis, standing for
        sum_a rho_1 x .. eta_a .. x rho_d, each integrating to zero against
        its axis's volume weights within 1e-10 * ||eta_a||_1 (the rounding
        left is projected out; the residual is taken on the full grid). On
        the sphere, the profile G(theta) of the source G(theta) cos(psi),
        which has zero mean automatically.

    Raises
    ------
    NonpositiveDensity, NonzeroMeanSource, UncertifiedSolve, TangentError
    """
    disc = _discretization(geometry)
    rho, eta = _per_axis(rho, disc.shapes), _per_axis(eta, disc.shapes)
    if any(np.any(r <= 0) for r in rho):
        raise NonpositiveDensity("rho must be strictly positive")
    vp = disc.solve(rho, eta)
    if not vp.residual <= RESIDUAL_TOL:  # a NaN residual fails too
        raise UncertifiedSolve(f"linear solve residual {vp.residual:.2e} above {RESIDUAL_TOL:.0e}")
    return vp


def tangent_state(geometry, t, v=1.0) -> TangentState:
    """The velocity of s -> H_s(delta_x) at s = t in the direction v.

    Every model geometry is homogeneous, so x is the origin: the first grid
    node on the circle and the torus, the north pole on the sphere.
    eta(y) = -grad_x rho(t, x, y) . v is built analytically (circle/torus: v_a
    times the offset derivative of axis a's kernel factor; sphere: the first
    azimuthal mode, G(theta) = |v| K'(theta)/r). v has one finite component
    per axis on the periodic grids, and is a scalar or at most two finite
    components on the sphere's tangent plane. Solver densities are floored
    at max * 1e-13 for conditioning, per axis factor on the grids. The
    Hessian mass is reported only; its limit as t -> 0 is left open.
    """
    disc = _resolved(geometry, t)
    return disc.evaluate(t, _tangent_vector(disc, v))


def _tangent_vector(disc, v):
    """v as a float array, once it is checked to be finite and to have the
    components the discretization disc takes."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise TangentError(f"tangent vector v must be finite, not v={v.tolist()}")
    return disc.check_vector(v)


def metric_gt(geometry, t, v=1.0) -> float:
    """The evolving metric g_t(v, v) = int |grad phi|^2 rho dvol.

    t = 0 returns |v|^2 (the continuity of g_t at zero), computed exactly.
    On the circle the value admits the closed form |v|^2 (1 - L^2 / I_t) with
    I_t the loop integral of 1/rho_t, used as an independent oracle in tests.
    The pairing int Ric(grad phi, grad phi) rho dvol is K g_t(v, v), since
    every model geometry has Ric = K |w|^2.
    """
    if t == 0:
        return float(np.sum(np.square(_tangent_vector(_discretization(geometry), v))))
    return tangent_state(geometry, t, v).plan.second_moment()


def gt_derivative_bochner(geometry, t, v=1.0) -> float:
    """Exact derivative d/dt (1/2) g_t(v, v) by quadrature of
    -(|Hess phi|^2 + Ric(grad phi, grad phi)) rho.

    Matches the centered finite difference of metric_gt within 1% in the
    resolved range and always lies below -K g_t (up to 1e-8).
    """
    _, plan, hess = tangent_state(geometry, t, v)
    return -hess - geometry.K * plan.second_moment()


def metric_speed_check(geometry, t, h) -> MetricSpeedReport:
    """Cross-validate g_t against the squared W_2 difference quotient.

    For the unit-speed rotation curve gamma_s on the circle, compares
    g_t(gamma', gamma') with (W_2(mu_{t, gamma_{s+h}}, mu_{t, gamma_s}) / h)^2
    computed by exact discrete optimal transport on the geometry's grid. The
    probe step is snapped to the nearest positive multiple of the grid
    spacing: for sub-grid steps the discrete transport cost is dominated by
    grid quantization (it scales like h * h_grid instead of h^2), while at
    grid multiples the shifted kernel measure is an exact translate and the
    quotient converges at first order in h, which must be finite and > 0.
    """
    if not isinstance(geometry, CircleGeometry):
        raise TangentError("metric speed check is implemented on the circle")
    if not 0 < h < np.inf:
        raise TangentError(f"the probe step must be finite and > 0, not h={h}")
    _resolved(geometry, t)
    grid_h = geometry.h
    k = max(1, int(round(h / grid_h)))
    h_eff = k * grid_h
    if t < 4 * h_eff**2:
        raise UnresolvedTime(f"t={t} under-resolves the probe step {h_eff:.3e}")

    space = _grid_space(geometry)
    y = geometry.nodes()

    def measure(center):
        dens = circle_kernel(t, geometry.L, y - center) * grid_h
        return dens / dens.sum()

    w2 = transport.w2_exact(measure(0.0), measure(h_eff), space.dist).value
    g = metric_gt(geometry, t)
    return MetricSpeedReport(t=t, h_requested=float(h), h_effective=h_eff,
                             gt_value=g, w2_quotient_sq=(w2 / h_eff) ** 2)


def tangency_experiment(geometry, v=1.0, *, t_grid) -> TangencyReport:
    """Small-time slopes of g_t(v, v) against the -2 Ric(v, v) = -2 K |v|^2
    target.

    v must be finite and nonzero (the deviation is relative to |v|^2); it is
    checked once, before any solve. t_grid must decrease geometrically (each
    ratio within [0.25, 0.85]) to a t_min resolved by the discretization.
    Slopes (g_t - |v|^2)/t are Richardson-extrapolated to t = 0 from the two
    smallest times, with their own ratio q: (s_min - q s_prev) / (1 - q).
    The report also records the one-sided bound that every sufficiently
    small-t slope stays below -2 Ric(v,v) (1 - 0.05) + 0.05 |v|^2.
    """
    ts = np.asarray(sorted(t_grid, reverse=True), dtype=float)
    if len(ts) < 2 or not np.all((0 < ts) & (ts < np.inf)):
        raise TangentError(f"t_grid needs at least two finite positive times, not {ts.tolist()}")
    ratios = ts[1:] / ts[:-1]
    if np.any(ratios < 0.25) or np.any(ratios > 0.85):
        raise TangentError("t_grid should decrease geometrically (ratio about 1/2)")
    disc = _discretization(geometry)
    v = _tangent_vector(disc, v)
    sp2 = float(np.sum(np.square(v)))
    if sp2 == 0:
        raise TangentError("tangency needs a nonzero tangent vector v, not |v|^2 = 0")
    for t in ts:
        disc.check_resolution(t)

    gts, hms = np.zeros(ts.size), np.zeros(ts.size)
    for i, t in enumerate(ts):
        state = disc.evaluate(t, v)
        gts[i], hms[i] = state.plan.second_moment(), state.hessian_mass
    slopes = (gts - sp2) / ts

    # one Richardson level kills the O(t) term; on a halving grid (q = 1/2)
    # this is 2 s_min - s_prev to the last bit
    q = ts[-1] / ts[-2]
    extrapolated = float((slopes[-1] - q * slopes[-2]) / (1 - q))
    target = -2.0 * geometry.K * sp2 + 0.0  # +0.0, not -0.0, where K = 0
    deviation = abs(extrapolated - target) / max(abs(target), sp2)
    bound = target * (1 - 0.05) + 0.05 * sp2
    one_sided = bool(np.all(slopes[-2:] <= bound + 1e-9))
    return TangencyReport(ts=ts, gt_values=gts, slopes=slopes, hessian_mass=hms,
                          extrapolated_slope=extrapolated, target=target,
                          deviation=float(deviation), speed_sq=sp2,
                          one_sided_ok=one_sided)
