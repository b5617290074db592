"""Heat semigroups: spectral on finite spaces, analytic on model geometries.

The generator on a finite space is (Lf)(i) = (1/m_i) sum_j w_ij (f(i) - f(j))
with the space's conductances w_ij: build_space resolves them, to the given
ones (model grids set them so L is the second-order discrete Laplace-Beltrami
operator) or to its default min(m_i, m_j) / length(i,j)^2. The semigroup is
e^{-tL}, computed from a full eigendecomposition, which is exact up to
rounding and keeps everything deterministic. On a space with a translation
group (the model circle and torus, see build_space) it is the group's real
characters, in closed form; on every other space it is the dense symmetric
eigensolver. Inputs beyond n = 4096 are rejected rather than approximated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy
from numpy.polynomial import legendre

from .geometry import TruncationError
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


def spectral_decompose(space: FiniteMetricMeasureSpace) -> HeatStructure:
    """Full eigendecomposition of the measure-weighted graph generator.

    On a space with a translation group (space.translation_coords, see
    build_space) the generator commutes with the group, so the group's real
    characters are its eigenvectors, in closed form (_character_pairs).
    Every other space takes the dense path: the generator is symmetrized as
    M^{-1/2} (D - W) M^{-1/2} so a dense symmetric eigensolver applies, and
    eigenvectors are mapped back to be orthonormal in the m-weighted inner
    product.
    """
    if space.n > MAX_DENSE_N:
        raise HeatError(f"space too large for dense decomposition (n > {MAX_DENSE_N})")
    if space.translation_coords is not None:
        lam, U = _character_pairs(space)
        return HeatStructure(eigenvalues=lam, eigenvectors=U, space=space)
    W = _adjacency(space.n, space.edges, space.conductances).toarray()
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


def _character_pairs(space):
    """Eigenvalues and m-orthonormal eigenvectors of the generator from the
    real characters of the space's translation group.

    The character of the point k has phase p_k(x) = sum_j c_j(k) c_j(x) M / o_j
    mod M at x, with c the group coordinates, o_j the orders and M their
    lcm: chi_k(x) = exp(2 pi i p_k(x) / M). The measure and the conductances
    are invariant, so L chi_k = lambda_k chi_k with
    lambda_k = sum_y w(0, y) (1 - cos(2 pi p_k(y) / M)) / m, evaluated as
    2 sin^2(pi p_k(y) / M) to keep the small eigenvalues to full relative
    precision. k and -k share lambda_k and give the columns cos(2 pi p_k / M)
    and sin(2 pi p_k / M), scaled to unit m-norm; a k equal to -k gives its
    cosine alone. Columns are stably sorted by eigenvalue, so lambda_0 = 0
    belongs to the constant column.
    """
    coords, n = space.translation_coords, space.n
    orders = coords.max(axis=0) + 1
    M = math.lcm(*(int(o) for o in orders))
    steps = M // orders

    def phases(points, chars):
        # p[x, c] for the points x and the characters of the points chars
        p = sum(np.multiply.outer(coords[points, j] * steps[j], coords[chars, j])
                for j in range(len(steps)))
        p %= M
        return p

    point_of = np.empty(n, dtype=int)
    point_of[np.ravel_multi_index(coords.T, tuple(orders))] = np.arange(n)
    negated = point_of[np.ravel_multi_index((-coords % orders).T, tuple(orders))]
    chars = np.flatnonzero(np.arange(n) <= negated)  # one of each pair {k, -k}
    paired = chars < negated[chars]

    touching = (space.edges == 0).any(axis=1)  # an edge at point 0 ends at its endpoints' sum
    ends, w, m = space.edges[touching].sum(axis=1), space.conductances[touching], space.measure[0]
    lam = 2 * (w @ np.sin(np.pi * phases(ends, chars) / M) ** 2) / m
    lam = np.concatenate([lam, lam[paired]])
    order = np.argsort(lam, kind="stable")
    col_char = np.concatenate([chars, chars[paired]])[order]
    scale = np.where(col_char == negated[col_char], 1.0, np.sqrt(2.0)) / np.sqrt(n * m)
    p = phases(np.arange(n), col_char)
    p += M * (order >= len(chars))  # the sine columns read the second half of the table
    angles = 2 * np.pi * np.arange(M) / M
    U = np.concatenate([np.cos(angles), np.sin(angles)])[p]
    U *= scale
    return lam[order], U


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
    if not 0 <= t < np.inf:
        raise HeatError(f"time must be finite and >= 0, not {t}")
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
    if not 0 < t < np.inf:
        raise HeatError(f"kernel requires a finite t > 0, not {t}")
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
    else:
        vals = -2.0 * np.sin(arg) @ (om * decay)
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
        else:
            out += g * (-z / (2 * t))
    return out


def circle_kernel(t, L, s, deriv=0):
    """Periodic heat kernel on the circle of circumference L at offset s.

    Uses the Fourier series for t >= L^2 / (4 pi) and the Gaussian image sum
    otherwise; the two representations agree at the crossover to ~1e-15.
    deriv 1 selects d/ds.
    """
    if not 0 < t < np.inf:
        raise HeatError(f"kernel requires a finite t > 0, not {t}")
    if deriv not in (0, 1):
        raise HeatError("deriv must be 0 or 1")
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
    if not 0 < t < np.inf:
        raise HeatError(f"kernel requires a finite t > 0, not {t}")
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
    """Heat kernel on the round sphere at angular separation theta: the
    series sum_l c_l P_l(cos theta), by numpy's Clenshaw sum."""
    c = sphere_kernel_coefficients(t, r, l_max)
    out = legendre.legval(np.cos(np.asarray(theta, dtype=float)), c)
    return float(out) if np.isscalar(theta) else out


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
    if not 0 < t < np.inf:
        raise HeatError(f"injectivity margin requires a finite t > 0, not {t}")
    rho = heat_kernel_matrix(hs, t)
    sqm = np.sqrt(hs.space.measure)
    S = rho * sqm[:, None] * sqm[None, :]
    smin = float(np.linalg.svd(S, compute_uv=False)[-1])
    return smin - np.exp(-hs.eigenvalues[-1] * t)

