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
from numpy.polynomial import legendre

__all__ = [
    "GeometryError",
    "TruncationError",
    "CircleGeometry",
    "TorusGeometry",
    "SphereGeometry",
]


class GeometryError(ValueError):
    """Invalid model-geometry parameters."""


class TruncationError(GeometryError):
    """Spectral truncation too small for the requested evaluation."""


def _is_integer(value) -> bool:
    """A Python or NumPy integer; booleans are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_integers(what, values, error=GeometryError):
    """Raise error naming the first of values (a sequence) that is not an
    integer; the values are searched only when one of their types fails."""
    if not all(issubclass(k, (int, np.integer)) and k is not bool for k in set(map(type, values))):
        bad = next(v for v in values if not _is_integer(v))
        raise error(f"{what} must be an integer, got {bad!r}")


def _require_lengths(what, *values):
    for value in values:
        if not 0 < value < np.inf:
            raise GeometryError(f"{what} must be > 0 and finite, not {value}")


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
        """Exact integrals of the zonal series sum_l c_l P_l(cos theta),
        l = 0..l_max, over the colatitude cells (GeometryError for any other
        number of coefficients): its antiderivative in x = cos theta is one
        Legendre series, summed once at the faces."""
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (self.l_max + 1,):
            raise GeometryError(
                f"zonal series needs l_max + 1 = {self.l_max + 1} coefficients, got shape {c.shape}"
            )
        anti = legendre.legval(np.cos(self.faces()), legendre.legint(c))
        return 2 * np.pi * self.r**2 * (anti[:-1] - anti[1:])
