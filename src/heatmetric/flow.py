"""The coupled and intrinsic flow distances on finite spaces.

dtilde_t(x, y) = W_2(H_t(delta_x), H_t(delta_y)) is the chord distance of the
heat-kernel embedding; d_t is the induced arc distance, discretized as
shortest paths over the original edge set with dtilde_t edge weights (curves
are constrained to the original graph exactly as the length competitors are
constrained to be d-Lipschitz). t = 0 short-circuits to the original metric,
where the equality dtilde_0 = d_0 = d is exact.

The module also provides the report-style experiments: contraction ratios
against e^{-Kt}, time continuity of t -> dtilde_t, and the grid-refinement
stability study on circles embedded in a common circle. Sphere contraction
uses the azimuthal symmetry reduction: zonal measures evolve by Legendre
coefficient decay, and their W_2 is the exact monotone coupling of the
colatitude profiles by the circle solver's walk (meridian coupling attains
the colatitude lower bound for product-with-uniform-azimuth measures).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import ClassVar

import numpy as np
from numpy.polynomial import legendre

from .geometry import SphereGeometry, _is_integer, _require_integers
from .heat import _sphere_decay, heat_apply, spectral_decompose
from .spaces import _adjacency, _path_metric, model_circle
from .transport import _monotone_segments, _w2_exact_batch

__all__ = [
    "FlowError",
    "FlowDistanceMatrix",
    "dtilde_matrix",
    "dtilde_pairs",
    "dt_arc_matrix",
    "flow_matrices",
    "ContractionRecord",
    "ContractionReport",
    "contraction_report",
    "ZonalMeasure",
    "w2_zonal",
    "sphere_contraction_report",
    "TimeContinuityReport",
    "time_continuity_report",
    "RefinementReport",
    "refinement_stability",
]

FULL_MATRIX_CAP = 256


class FlowError(ValueError):
    """Invalid flow-module request."""


@dataclass(frozen=True)
class FlowDistanceMatrix:
    """Chord and arc distance matrices at a fixed time."""

    t: float
    dtilde: np.ndarray
    dt: np.ndarray

    def max_axiom_violation(self) -> float:
        """Worst violation of the pseudo-distance axioms over both matrices."""
        worst = 0.0
        for mat in (self.dtilde, self.dt):
            worst = max(worst, float(np.abs(mat - mat.T).max()))
            worst = max(worst, float(np.abs(np.diag(mat)).max()))
            worst = max(worst, _triangle_violation(mat))
        worst = max(worst, float((self.dtilde - self.dt).max()))
        return worst


def _triangle_violation(mat) -> float:
    # max over (i, j, k) of d(i,k) - d(i,j) - d(j,k)
    n = mat.shape[0]
    worst = -np.inf
    for j in range(n):
        worst = max(worst, float((mat - mat[:, j][:, None] - mat[j][None, :]).max()))
    return worst


def _point_pair(space, pair):
    """The pair's point indices, each checked to be an integer in 0..n-1."""
    x, y = pair
    if not all(_is_integer(i) for i in pair):
        raise FlowError(f"pair {x}:{y} does not hold two point indices")
    if not (0 <= x < space.n and 0 <= y < space.n):
        raise FlowError(f"pair {x}:{y} is out of range for {space.n} points")
    return int(x), int(y)


def dtilde_matrix(hs, t) -> np.ndarray:
    """Full matrix of dtilde_t(x, y) = W_2(H_t delta_x, H_t delta_y) on the
    space of hs.

    Spaces beyond FULL_MATRIX_CAP points are rejected first, at every t
    (use dtilde_pairs for a pair list). The upper triangle goes to
    dtilde_pairs, which checks t, so one transport solve serves each orbit
    of point pairs under the space's declared symmetries (12 solves on
    circle 24, 14 on the 8x8 torus), and the matrix is exactly invariant
    under them; with none declared it costs n(n - 1)/2 solves. t = 0
    returns the original metric exactly, since build_space makes it exactly
    symmetric with a zero diagonal.
    """
    space = hs.space
    if space.n > FULL_MATRIX_CAP:
        raise FlowError(f"full matrices capped at n = {FULL_MATRIX_CAP}; "
                        "use dtilde_pairs (--pairs on the command line)")
    upper = np.triu_indices(space.n, 1)
    out = np.zeros((space.n, space.n))
    out[upper] = dtilde_pairs(hs, t, zip(*upper))
    return out + out.T


def dtilde_pairs(hs, t, pairs) -> np.ndarray:
    """dtilde_t for an explicit list of point pairs of the space of hs;
    t must be finite and >= 0, and each index an integer (not a boolean)
    inside the space (FlowError otherwise). t = 0 reads the original metric.

    A symmetry of the space commutes with H_t, so dtilde_t is constant on
    each orbit of pairs under the declared symmetries and (x, y) -> (y, x).
    Each asked pair is mapped to its orbit's representative, the
    lexicographically smallest (x, y) with x <= y. The distinct
    representatives, in order of first appearance, are solved as one
    transport batch, with one heat measure per point they touch, and every
    asked pair takes its representative's value. So equal orbits give equal
    bits, and on a space without symmetries only a repeated or reversed
    pair is solved once.
    """
    space = hs.space
    if not 0 <= t < np.inf:
        raise FlowError(f"time must be finite and >= 0, not {t}")
    pairs = [_point_pair(space, p) for p in pairs]
    if t == 0:
        return np.array([space.dist[x, y] for x, y in pairs])
    reps, which = _orbit_representatives(pairs, space.symmetries)
    points = dict.fromkeys(x for pair in reps for x in pair)
    measures = {x: heat_apply(hs, t, space.delta(x)) for x in points}
    values = _w2_exact_batch([(measures[x], measures[y]) for x, y in reps], space)
    return values[np.array(which, dtype=int)]


def _orbit_representatives(pairs, symmetries):
    """The distinct orbit representatives of pairs, in order of first
    appearance, and the index of each pair's representative among them.

    Each orbit is searched from its first asked pair over the generators,
    and the pairs it labels are skipped afterwards, so the cost follows the
    orbits touched, not the n^2 pairs of the space.
    """
    generators = [g.tolist() for g in symmetries]
    label, reps, which = {}, [], []
    for x, y in pairs:
        key = (x, y) if x <= y else (y, x)
        if key not in label:
            orbit, frontier = {key}, [key]
            while frontier:
                a, b = frontier.pop()
                for g in generators:
                    u, v = g[a], g[b]
                    image = (u, v) if u <= v else (v, u)
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            label.update(dict.fromkeys(orbit, len(reps)))
            reps.append(min(orbit))
        which.append(label[key])
    return reps, which


def dt_arc_matrix(space, dtilde) -> np.ndarray:
    """Arc distance: the space's own path-metric builder over the original
    edge set with dtilde edge weights, so at t = 0 it is the original metric
    exactly. It dominates dtilde entrywise by its triangle inequality. A graph
    file has no grid scale to take longer jumps from, so d_t stays on it."""
    dtilde = np.asarray(dtilde)
    return _path_metric(_adjacency(space.n, space.edges,
                                   dtilde[space.edges[:, 0], space.edges[:, 1]]),
                        space.translation_coords)


def flow_matrices(hs, t) -> FlowDistanceMatrix:
    """dtilde_t and d_t on the space of hs."""
    dtil = dtilde_matrix(hs, t)
    return FlowDistanceMatrix(t=float(t), dtilde=dtil, dt=dt_arc_matrix(hs.space, dtil))


# ---------------------------------------------------------------------------
# contraction

@dataclass(frozen=True)
class ContractionRecord:
    t: float
    pair: tuple
    w2_initial: float
    w2_evolved: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.w2_evolved / self.w2_initial

    @property
    def excess(self) -> float:
        """Relative excess of the ratio over the bound (<= 0 when satisfied)."""
        return self.ratio / self.bound - 1.0


@dataclass(frozen=True)
class ContractionReport:
    K: float
    records: list
    rel_tol: ClassVar[float] = 1e-6  # the relative excess that passes

    @property
    def max_excess(self) -> float:
        return max(r.excess for r in self.records)

    def passed(self) -> bool:
        return self.max_excess <= self.rel_tol


def _as_measure_pair(space, pair):
    a, b = pair
    if np.isscalar(a):
        x, y = _point_pair(space, pair)
        return space.delta(x), space.delta(y), (x, y)
    return np.asarray(a, float), np.asarray(b, float), ("mu", "nu")


def _contraction(K, times, labels, w2_at) -> ContractionReport:
    """Ratios w2_at(t) / w2_at(0) against e^{-Kt}, pair-major; w2_at(t) returns
    every labelled pair's W_2 after time t, each checked > 0 at t = 0 first."""
    bad = [t for t in times if not 0 <= t < np.inf]
    if bad:
        raise FlowError(f"time must be finite and >= 0, not {bad[0]}")
    if len(times) == 0 or not labels:
        raise FlowError("contraction needs at least one pair and one time")
    initial = w2_at(0.0)
    for (a, b), w0 in zip(labels, initial):
        if w0 == 0:
            raise FlowError(f"pair {a}:{b} is at W2 distance 0, so it has no contraction ratio")
    evolved = [w2_at(t) for t in times]
    return ContractionReport(K=float(K), records=[
        ContractionRecord(t=float(t), pair=label, w2_initial=float(w0), w2_evolved=float(wt[k]),
                          bound=float(np.exp(-K * t)))
        for k, (label, w0) in enumerate(zip(labels, initial)) for t, wt in zip(times, evolved)])


def contraction_report(space, times, pairs) -> ContractionReport:
    """Contraction ratios W_2(H_t mu, H_t nu) / W_2(mu, nu) against e^{-Kt}.

    pairs may list point-index pairs (delta measures) or explicit measure
    pairs. K is the space's declared bound and is required. K, the pair
    indices and the times are all checked before the space is decomposed.
    Each time, 0 included, is one transport batch of every pair, as in
    dtilde_pairs."""
    if space.K is None:
        raise FlowError("contraction needs a declared curvature bound K")
    labelled = [_as_measure_pair(space, p) for p in pairs]
    decompose = cache(lambda: spectral_decompose(space))  # first called at the first t > 0

    def w2_at(t):
        evolve = (lambda mu: mu) if t == 0 else partial(heat_apply, decompose(), t)
        return _w2_exact_batch([(evolve(mu), evolve(nu)) for mu, nu, _ in labelled], space)

    return _contraction(space.K, times, [label for *_, label in labelled], w2_at)


# ---------------------------------------------------------------------------
# zonal measures on the sphere (azimuthal symmetry reduction)

@dataclass(frozen=True)
class ZonalMeasure:
    """Rotation-invariant probability measure on the sphere.

    Either the unit ring at one colatitude in [0, pi] (a pole at 0 or pi) or
    a density given by its l_max + 1 Legendre coefficients of its profile
    with respect to the volume measure; exactly one of the two is set
    (FlowError otherwise). Heat evolution multiplies the coefficients by
    e^{-l(l+1)t/r^2} under the sphere kernel's truncation rule (a tail above
    1e-12 raises TruncationError); a ring is expanded with the exact
    coefficients (2l+1) P_l(cos theta0) / (4 pi r^2) when evolved.
    """

    geometry: SphereGeometry
    coeffs: np.ndarray | None = None
    colatitude: float | None = None

    def __post_init__(self):
        if (self.coeffs is None) == (self.colatitude is None):
            raise FlowError("a zonal measure needs exactly one of coeffs and colatitude")
        if self.colatitude is not None and not 0 <= self.colatitude <= np.pi:
            raise FlowError(f"a ring's colatitude must lie in [0, pi], not {self.colatitude}")
        if self.coeffs is not None and np.shape(self.coeffs) != (self.geometry.l_max + 1,):
            raise FlowError(f"a zonal density needs l_max + 1 = {self.geometry.l_max + 1} "
                            f"coefficients, got shape {np.shape(self.coeffs)}")

    @staticmethod
    def ring(geometry, colatitude):
        """The unit ring at a colatitude in [0, pi]."""
        return ZonalMeasure(geometry, colatitude=float(colatitude))

    @staticmethod
    def pole(geometry, south=False):
        return ZonalMeasure.ring(geometry, np.pi if south else 0.0)

    @staticmethod
    def heat_kernel(geometry, t, south=False):
        """H_t of a pole mass, as exact coefficients."""
        return ZonalMeasure.pole(geometry, south=south).evolve(t)

    def evolve(self, t) -> "ZonalMeasure":
        if t == 0:
            return self
        r, l_max = self.geometry.r, self.geometry.l_max
        c = self.coeffs
        if c is None:
            P = legendre.legvander(np.cos(self.colatitude), l_max)[0]
            c = (2 * np.arange(l_max + 1) + 1) * P / (4 * np.pi * r**2)
        return ZonalMeasure(self.geometry, coeffs=c * _sphere_decay(t, r, l_max))

    def cell_masses(self) -> np.ndarray:
        """Exact integrals of the density over the colatitude cells."""
        if self.coeffs is None:
            raise FlowError("a ring has no density; w2_zonal couples it as one atom")
        return np.clip(self.geometry.zone_integrals(self.coeffs), 0.0, None)


def w2_zonal(mu: ZonalMeasure, nu: ZonalMeasure) -> float:
    """W_2 between zonal measures by the monotone colatitude coupling.

    Transport runs along meridians, so the sphere distance reduces to
    r |theta - theta'| and the optimal coupling is monotone in colatitude.
    The circle solver's walk couples the ordered pieces (a ring, or cells of
    uniform density between their faces). Both quantile functions are
    linear on each segment of mass m, so W_2^2 is the exact sum of
    m (d0^2 + d0 d1 + d1^2) / 3 over the segments' end gaps d0 and d1.
    """
    a, b = _pieces(mu), _pieces(nu)
    i, j, m = _monotone_segments(a[0], b[0])
    end = np.cumsum(m)
    d0, d1 = (_quantile(a, i, u) - _quantile(b, j, u) for u in (end - m, end))
    return mu.geometry.r * float(np.sqrt(np.sum(m * (d0 * d0 + d0 * d1 + d1 * d1)) / 3))


def _pieces(measure):
    """(mass, lo, hi) of the ordered colatitude pieces of total mass 1: a
    ring is one piece with lo == hi, a density its cells of positive mass
    (clipped cells are dropped)."""
    if measure.colatitude is not None:
        theta = np.array([measure.colatitude])
        return np.ones(1), theta, theta
    faces = measure.geometry.faces()
    mass, lo, hi = measure.cell_masses(), faces[:-1], faces[1:]
    keep = mass > 0
    return mass[keep] / mass.sum(), lo[keep], hi[keep]


def _quantile(pieces, k, u):
    """Quantile at cumulative mass u, which lies in piece k."""
    mass, lo, hi = pieces
    start = np.cumsum(mass) - mass
    return lo[k] + (hi - lo)[k] * ((u - start[k]) / mass[k])


def sphere_contraction_report(geometry, times, pairs) -> ContractionReport:
    """Contraction ratios on the sphere (K = 1/r^2) for zonal measure pairs."""
    pairs = list(pairs)

    def w2_at(t):  # evolves nothing at t = 0, where every pair is checked
        return [w2_zonal(*(m.evolve(t) if t else m for m in pair)) for pair in pairs]

    labels = [(f"zonal{idx}a", f"zonal{idx}b") for idx in range(len(pairs))]
    return _contraction(geometry.K, times, labels, w2_at)


# ---------------------------------------------------------------------------
# time continuity and refinement stability

@dataclass(frozen=True)
class TimeContinuityReport:
    t: float
    deltas: np.ndarray
    sup_differences: np.ndarray
    semigroup_excess: float
    decreasing: bool
    tol: ClassVar[float] = 1e-8  # the semigroup excess that passes

    def passed(self) -> bool:
        return self.decreasing and self.semigroup_excess <= self.tol


def time_continuity_report(space, t, deltas) -> TimeContinuityReport:
    """Right continuity of the flow: sup |dtilde_{t+d} - dtilde_t| per delta,
    plus the semigroup bounds dtilde_{t+d} <= e^{-Kd} dtilde_t and
    d_{t+d} <= e^{-Kd} d_t entrywise, with K the space's declared bound.
    K and the deltas (at least one, none negative) are checked before the
    space is decomposed."""
    K = space.K
    if K is None:
        raise FlowError("time continuity bounds need a declared K")
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=float)
    if deltas.size == 0:
        raise FlowError("time continuity needs at least one delta")
    bad = [d for d in deltas if not 0 <= d < np.inf]
    if bad:
        raise FlowError(f"deltas must be >= 0 and finite, not {bad[0]}")
    hs = spectral_decompose(space)
    base = flow_matrices(hs, t)
    sups, excess = [], 0.0
    for d in deltas:
        if d == 0:
            sups.append(0.0)
            continue
        shifted = flow_matrices(hs, t + d)
        sups.append(float(np.abs(shifted.dtilde - base.dtilde).max()))
        factor = np.exp(-K * d)
        excess = max(excess, float((shifted.dtilde - factor * base.dtilde).max()))
        excess = max(excess, float((shifted.dt - factor * base.dt).max()))
    sups = np.array(sups)
    pos = sups[deltas > 0]
    decreasing = bool(np.all(np.diff(pos) <= 1e-12))
    return TimeContinuityReport(t=float(t), deltas=deltas, sup_differences=sups,
                                semigroup_excess=excess, decreasing=decreasing)


@dataclass(frozen=True)
class RefinementReport:
    grid_sizes: tuple
    t: float
    probe_values: np.ndarray  # (n_probes, n_grids)
    differences: np.ndarray   # successive |value_{k+1} - value_k|
    orders: np.ndarray        # log2 ratios of successive differences

    @property
    def min_order(self) -> float:
        return float(self.orders.min())

    def limit_consistent(self) -> bool:
        """Finest value sits within the last difference of the extrapolated
        limit, for every probe."""
        last = self.differences[:, -1]
        return bool(np.all(last <= np.maximum(self.differences[:, -2], 1e-15)))


def refinement_stability(L, t, grid_sizes, probe_pairs) -> RefinementReport:
    """Common-embedding refinement study on circle grids.

    probe_pairs are pairs of circle fractions in [0, 1); each must land on
    two distinct nodes of every grid. Reports dtilde_{n,t} at the matched
    nodes, successive differences, and the empirical convergence order
    (expected >= 1). t must be finite and > 0 (at t = 0 every difference is
    rounding), the grid sizes integers and the fractions in [0, 1), checked
    before any grid is built; both lists are read once, so they may be
    generators."""
    if not 0 < t < np.inf:
        raise FlowError(f"refinement needs a finite t > 0, not t={t}")
    grid_sizes, probe_pairs = tuple(grid_sizes), list(probe_pairs)
    _require_integers("each grid size", grid_sizes, FlowError)
    sizes = tuple(int(n) for n in grid_sizes)
    if len(sizes) < 3:  # an order compares two differences
        raise FlowError("refinement needs at least three grid sizes")
    if len(probe_pairs) == 0:
        raise FlowError("refinement needs at least one probe pair")
    for fa, fb in probe_pairs:
        if not (0 <= fa < 1 and 0 <= fb < 1):
            raise FlowError(f"probe ({fa}, {fb}) needs circle fractions in [0, 1)")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise FlowError("grid sizes must be strictly increasing")
    vals = np.zeros((len(probe_pairs), len(sizes)))
    for gi, n in enumerate(sizes):
        pairs_idx = []
        for fa, fb in probe_pairs:
            ia, ib = fa * n, fb * n
            if abs(ia - round(ia)) > 1e-9 or abs(ib - round(ib)) > 1e-9:
                raise FlowError(f"probe ({fa}, {fb}) not representable on n={n}")
            a, b = int(round(ia)) % n, int(round(ib)) % n
            if a == b:
                raise FlowError(f"probe ({fa}, {fb}) lands both ends on node {a} of n={n}")
            pairs_idx.append((a, b))
        _, space = model_circle(L, n)
        vals[:, gi] = dtilde_pairs(spectral_decompose(space), t, pairs_idx)
    diffs = np.abs(np.diff(vals, axis=1))
    safe = np.maximum(diffs, 1e-300)
    orders = np.log2(safe[:, :-1] / safe[:, 1:])
    return RefinementReport(grid_sizes=sizes, t=float(t), probe_values=vals,
                            differences=diffs, orders=orders)
