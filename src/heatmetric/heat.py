"""Heat semigroups: spectral on finite spaces, analytic on model geometries.

The generator on a finite space is (Lf)(i) = (1/m_i) sum_j w_ij (f(i) - f(j))
with conductances w_ij taken from the space (model grids set them so L is the
second-order discrete Laplace-Beltrami operator) or from the default rule
w_ij = min(m_i, m_j) / length(i,j)^2. The semigroup is e^{-tL}, computed from
the full dense eigendecomposition, which is exact up to rounding and keeps
everything deterministic; inputs beyond n = 4096 are rejected rather than
approximated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .geometry import TruncationError, legendre_table
from .spaces import FiniteMetricMeasureSpace, _adjacency

__all__ = [
    "HeatError",
    "HeatStructure",
    "spectral_decompose",
    "heat_apply",
    "heat_kernel_matrix",
    "circle_kernel",
    "sphere_kernel",
    "sphere_kernel_coefficients",
    "entropy",
    "heat_injectivity_margin",
]

MAX_DENSE_N = 4096


class HeatError(ValueError):
    """Invalid heat-semigroup request."""


@dataclass(frozen=True)
class HeatStructure:
    """Spectral data of the generator on a finite space, with that space.

    eigenvalues are sorted ascending with lambda_0 = 0; eigenvector columns
    are orthonormal in the measure-weighted inner product
    <u, w>_m = sum_i u(i) w(i) m_i. Functions that take a HeatStructure read
    the space from it and never take the space again.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    space: FiniteMetricMeasureSpace

    @property
    def n(self) -> int:
        return self.space.n

    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def conductance_matrix(space: FiniteMetricMeasureSpace) -> sp.csr_matrix:
    """Symmetric conductance matrix W from the space's edges.

    Uses explicit per-edge conductances when the space carries them,
    otherwise the default rule min(m_i, m_j) / length^2.
    """
    if space.conductances is not None:
        w = space.conductances
    else:
        m = space.measure
        w = np.array([
            min(m[i], m[j]) / ell**2 for i, j, ell in space.edge_pairs()
        ])
    return _adjacency(space.n, space.edges, w)


def spectral_decompose(space: FiniteMetricMeasureSpace) -> HeatStructure:
    """Full eigendecomposition of the measure-weighted graph generator.

    The generator is symmetrized as M^{-1/2} (D - W) M^{-1/2} so a dense
    symmetric eigensolver applies; eigenvectors are mapped back to be
    orthonormal in the m-weighted inner product.
    """
    if space.n > MAX_DENSE_N:
        raise HeatError(f"space too large for dense decomposition (n > {MAX_DENSE_N})")
    W = conductance_matrix(space).toarray()
    deg = W.sum(axis=1)
    lap = np.diag(deg) - W
    s = 1.0 / np.sqrt(space.measure)
    sym = lap * s[:, None] * s[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        lam, V = scipy.linalg.eigh(sym)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise HeatError(f"eigen-solver failure: {exc}") from exc
    lam = np.clip(lam, 0.0, None)
    lam[0] = 0.0
    U = V * s[:, None]
    return HeatStructure(eigenvalues=lam, eigenvectors=U, space=space)


def _clip_reconstruction_noise(v):
    # spectral reconstruction of strictly positive vectors leaves roundoff
    # negatives of order 1e-16 * max; anything larger passes through and
    # fails downstream validation loudly
    floor = -1e-12 * max(float(v.max()), 0.0)
    return np.where((v < 0) & (v >= floor), 0.0, v)


def heat_apply(hs: HeatStructure, t: float, mu) -> np.ndarray:
    """Evolve a non-negative measure: H_t(mu) as a mass vector.

    Mass is preserved exactly up to rounding; t = 0 returns mu unchanged.
    """
    if t < 0:
        raise HeatError("negative time")
    mu = np.asarray(mu, dtype=float)
    if t == 0:
        return mu.copy()
    U, lam = hs.eigenvectors, hs.eigenvalues
    coeff = U.T @ mu
    coeff *= np.exp(-lam * t)
    return _clip_reconstruction_noise(hs.space.measure * (U @ coeff))


def heat_kernel_matrix(hs: HeatStructure, t: float) -> np.ndarray:
    """Kernel matrix rho_ij = sum_k e^{-lambda_k t} u_k(i) u_k(j), t > 0: row
    i is the density of H_t(delta_i) with respect to m."""
    if t <= 0:
        raise HeatError("kernel requires t > 0")
    U, lam = hs.eigenvectors, hs.eigenvalues
    rho = (U * np.exp(-lam * t)) @ U.T
    return 0.5 * (rho + rho.T)


# ---------------------------------------------------------------------------
# analytic kernels on model geometries

def _circle_fourier(t, L, s, deriv):
    # k_max per the truncation rule e^{-(2 pi k / L)^2 t} < 1e-14
    kmax = int(np.ceil(L / (2 * np.pi) * np.sqrt(32.24 / t))) + 1
    k = np.arange(1, kmax + 1)
    om = 2 * np.pi * k / L
    decay = np.exp(-om**2 * t)
    s = np.asarray(s, dtype=float)
    arg = np.outer(s, om)
    if deriv == 0:
        vals = 1.0 + 2.0 * np.cos(arg) @ decay
    elif deriv == 1:
        vals = -2.0 * np.sin(arg) @ (om * decay)
    elif deriv == 2:
        vals = -2.0 * np.cos(arg) @ (om**2 * decay)
    else:
        raise HeatError("deriv must be 0, 1 or 2")
    return vals / L


def _circle_images(t, L, s, deriv):
    s = np.asarray(s, dtype=float)
    smax = float(np.max(np.abs(s))) if s.size else 0.0
    jmax = int(np.ceil((np.sqrt(4 * t * 40.0) + smax) / L)) + 1
    out = np.zeros_like(s)
    norm = 1.0 / np.sqrt(4 * np.pi * t)
    for j in range(-jmax, jmax + 1):
        z = s + j * L
        g = norm * np.exp(-z**2 / (4 * t))
        if deriv == 0:
            out += g
        elif deriv == 1:
            out += g * (-z / (2 * t))
        elif deriv == 2:
            out += g * (z**2 / (4 * t**2) - 1.0 / (2 * t))
        else:
            raise HeatError("deriv must be 0, 1 or 2")
    return out


def circle_kernel(t, L, s, deriv=0):
    """Periodic heat kernel on the circle of circumference L at offset s.

    Uses the Fourier series for t >= L^2 / (4 pi) and the Gaussian image sum
    otherwise; the two representations agree at the crossover to ~1e-15.
    deriv selects d/ds (1) or d^2/ds^2 (2); the latter equals d/dt by the
    heat equation.
    """
    if t <= 0:
        raise HeatError("kernel requires t > 0")
    scalar = np.isscalar(s)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if t >= L**2 / (4 * np.pi):
        out = _circle_fourier(t, L, s, deriv)
    else:
        out = _circle_images(t, L, s, deriv)
    return float(out[0]) if scalar else out


def _sphere_decay(t, r, l_max):
    """Sphere heat decay e^{-l(l+1)t/r^2}, l = 0..l_max; TruncationError when
    the kernel's last coefficient is not below 1e-12 (series not converged)."""
    if t <= 0:
        raise HeatError("kernel requires t > 0")
    ls = np.arange(l_max + 1)
    decay = np.exp(-ls * (ls + 1) * t / r**2)
    tail = (2 * l_max + 1) / (4 * np.pi * r**2) * decay[-1]
    if tail > 1e-12:
        raise TruncationError(
            f"sphere kernel tail {tail:.2e} above 1e-12 at t={t}; raise l_max"
        )
    return decay


def sphere_kernel_coefficients(t, r, l_max):
    """Legendre coefficients c_l = (2l+1)/(4 pi r^2) e^{-l(l+1)t/r^2}, under
    the truncation rule of _sphere_decay."""
    ls = np.arange(l_max + 1)
    return (2 * ls + 1) / (4 * np.pi * r**2) * _sphere_decay(t, r, l_max)


def sphere_kernel(t, theta, r, l_max):
    """Heat kernel on the round sphere at angular separation theta."""
    c = sphere_kernel_coefficients(t, r, l_max)
    scalar = np.isscalar(theta)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    P = legendre_table(l_max, np.cos(theta))
    out = c @ P
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# functionals and diagnostics

def entropy(mu, m) -> float:
    """Relative entropy sum rho log(rho) m with rho = mu/m and 0 log 0 = 0.

    Returns +inf when mu charges a point of zero m-weight (absolute
    continuity fails); spaces built here always have m > 0.
    """
    mu = np.asarray(mu, dtype=float)
    m = np.asarray(m, dtype=float)
    if np.any(mu[m == 0] > 0):
        return np.inf
    pos = mu > 0
    rho = mu[pos] / m[pos]
    return float(np.sum(rho * np.log(rho) * m[pos]))


def heat_injectivity_margin(hs: HeatStructure, t: float) -> float:
    """Smallest singular value of the heat operator minus e^{-lambda_max t}.

    Singular values are taken in the m-weighted inner product, where the
    operator is self-adjoint: sigma_k = e^{-lambda_k t} exactly, so the
    margin is nonnegative up to rounding; a value >= -1e-12 certifies
    invertibility of the heat map at time t.
    """
    if t <= 0:
        raise HeatError("injectivity margin requires t > 0")
    rho = heat_kernel_matrix(hs, t)
    sqm = np.sqrt(hs.space.measure)
    S = rho * sqm[:, None] * sqm[None, :]
    smin = float(np.linalg.svd(S, compute_uv=False)[-1])
    return smin - np.exp(-hs.lambda_max() * t)

