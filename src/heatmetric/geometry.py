"""Model geometries: circle, flat torus, round sphere.

Each geometry carries its curvature as one number K: every model geometry
here has Ric(v, v) = K |v|^2 exactly, so K is both the lower Ricci bound and
the Ricci form. It also carries a quadrature grid whose weights sum to the
total volume exactly, and enough structure for the analytic heat kernels in
:mod:`heatmetric.heat`. The sphere is represented by a one-dimensional
colatitude grid: every operation on it here reduces an azimuthally symmetric
or first-azimuthal-mode problem to that grid, so no 2-D mesh is ever built.
Each geometry checks its own parameters when it is constructed and raises
GeometryError on values it cannot discretize.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "GeometryError",
    "TruncationError",
    "CircleGeometry",
    "TorusGeometry",
    "SphereGeometry",
    "legendre_table",
    "legendre_table_with_derivative",
]


class GeometryError(ValueError):
    """Invalid model-geometry parameters."""


class TruncationError(GeometryError):
    """Spectral truncation too small for the requested evaluation."""


def _require_integers(what, values, error=GeometryError):
    """Raise error naming the first of values that is not an integer."""
    bad = [v for v in values if not isinstance(v, (int, np.integer))]
    if bad:
        raise error(f"{what} must be an integer, got {bad[0]!r}")


def _require_lengths(what, *values):
    for value in values:
        if not 0 < value < np.inf:
            raise GeometryError(f"{what} must be > 0 and finite, not {value}")


def legendre_table(l_max, x):
    """Legendre polynomials P_0..P_{l_max} at points x, via the three-term
    recurrence. Returns an array of shape (l_max + 1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    P = np.zeros((l_max + 1,) + x.shape)
    P[0] = 1.0
    if l_max >= 1:
        P[1] = x
    for l in range(1, l_max):
        P[l + 1] = ((2 * l + 1) * x * P[l] - l * P[l - 1]) / (l + 1)
    return P


def legendre_table_with_derivative(l_max, x):
    """P_l(x) and dP_l/dx, using (1 - x^2) P_l' = l (P_{l-1} - x P_l).

    Valid for |x| < 1; the colatitude grids used here are cell-centered and
    never touch the poles.
    """
    x = np.asarray(x, dtype=float)
    P = legendre_table(l_max, x)
    dP = np.zeros_like(P)
    one = 1.0 - x**2
    for l in range(1, l_max + 1):
        dP[l] = l * (P[l - 1] - x * P[l]) / one
    return P, dP


@dataclass(frozen=True)
class CircleGeometry:
    """Circle of finite circumference L > 0 on n >= 8 equispaced nodes, n an
    integer."""

    L: float
    n: int
    K: ClassVar[float] = 0.0

    def __post_init__(self):
        _require_integers("n", [self.n])
        _require_lengths("L", self.L)
        if self.n < 8:
            raise GeometryError("circle grid needs n >= 8")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def periodic_axes(self):
        """(L, n) of each periodic grid axis: one axis."""
        return ((self.L, self.n),)

    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def volume_weights(self) -> np.ndarray:
        return np.full(self.n, self.h)


@dataclass(frozen=True)
class TorusGeometry:
    """Flat torus [0, L1) x [0, L2), discretized by an n1 x n2 grid; the sides
    must be finite and > 0, and n1, n2 integers >= 8."""

    L1: float
    L2: float
    n1: int
    n2: int
    K: ClassVar[float] = 0.0

    def __post_init__(self):
        _require_integers("n1", [self.n1])
        _require_integers("n2", [self.n2])
        _require_lengths("torus side lengths", self.L1, self.L2)
        if self.n1 < 8 or self.n2 < 8:
            raise GeometryError("torus grid needs n1, n2 >= 8")

    @property
    def h(self):
        return (self.L1 / self.n1, self.L2 / self.n2)

    @property
    def periodic_axes(self):
        """(L, n) of each periodic grid axis: two axes."""
        return ((self.L1, self.n1), (self.L2, self.n2))

    def volume_weights(self) -> np.ndarray:
        h1, h2 = self.h
        return np.full((self.n1, self.n2), h1 * h2)


@dataclass(frozen=True)
class SphereGeometry:
    """Round 2-sphere of radius r, reduced to a colatitude grid.

    The grid is cell-centered: theta_i = (i + 1/2) * pi / n_theta, with cell
    faces at multiples of pi / n_theta. Quadrature weights are the exact
    spherical zone areas 2 pi r^2 (cos(theta_left) - cos(theta_right)), which
    agree with 2 pi r^2 sin(theta) dtheta to second order and telescope to
    the exact total area 4 pi r^2.

    Requires a finite r > 0 and integers n_theta >= 64, l_max >= 40. Small
    times also need the kernel's last Legendre coefficient at most 1e-12
    (TruncationError).
    """

    r: float
    n_theta: int
    l_max: int

    def __post_init__(self):
        _require_integers("n_theta", [self.n_theta])
        _require_integers("l_max", [self.l_max])
        _require_lengths("radius", self.r)
        if self.n_theta < 64:
            raise GeometryError("sphere grid needs n_theta >= 64")
        if self.l_max < 40:
            raise GeometryError("sphere series needs l_max >= 40")

    @property
    def K(self) -> float:
        """Ric(v, v) = K |v|^2 with K = 1 / r^2 ((n - 1) / r^2 at n = 2)."""
        return 1.0 / self.r**2

    @property
    def h(self) -> float:
        return np.pi / self.n_theta

    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_theta) + 0.5) * self.h

    def faces(self) -> np.ndarray:
        return np.arange(self.n_theta + 1) * self.h

    def volume_weights(self) -> np.ndarray:
        cf = np.cos(self.faces())
        return 2.0 * np.pi * self.r**2 * (cf[:-1] - cf[1:])

    def zone_integrals(self, coeffs) -> np.ndarray:
        """Exact integrals of the zonal series sum_l c_l P_l(cos theta) over
        the colatitude cells, from int P_l dx = (P_{l+1} - P_{l-1})/(2l+1)."""
        xf = np.cos(self.faces())
        Pf = legendre_table(self.l_max + 1, xf)
        anti = np.empty_like(Pf[:-1])
        anti[0] = xf
        for l in range(1, self.l_max + 1):
            anti[l] = (Pf[l + 1] - Pf[l - 1]) / (2 * l + 1)
        return 2 * np.pi * self.r**2 * (coeffs @ (anti[:, :-1] - anti[:, 1:]))
