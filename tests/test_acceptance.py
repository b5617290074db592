"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""
import time

import numpy as np
import pytest
from scipy.integrate import quad

import heatmetric as hm
from heatmetric import tangent
from heatmetric.heat import circle_kernel
from conftest import complete_graph_space, hypercube_space

L2PI = 2 * np.pi


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sphere512():
    return hm.SphereGeometry(1.0, 512, 120)


@pytest.fixture(scope="module")
def circle512():
    return hm.CircleGeometry(L=L2PI, n=512)


def circle_gt_oracle(L, t):
    """Independent oracle: adaptive quadrature of 1/rho_t against the
    analytic periodic kernel."""
    I_t = quad(lambda s: 1.0 / circle_kernel(t, L, s), 0, L, limit=800)[0]
    return 1 - L**2 / I_t


def test_criterion_1_circle_closed_form(circle512):
    t0 = time.time()
    worst = 0.0
    for t in (0.05, 0.1, 0.25):
        got = hm.metric_gt(circle512, t, v=1.0)
        ref = circle_gt_oracle(L2PI, t)
        worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.time() - t0
    _report(1, "circle closed-form oracle",
            worst <= 1e-3 and elapsed < 10.0,
            f"max rel err {worst:.2e} (tol 1e-3), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_ricci_tangency(sphere512, circle512, monkeypatch):
    t0 = time.time()
    grid = [0.2, 0.1, 0.05, 0.025, 0.0125]
    sph = hm.tangency_experiment(sphere512, v=1.0, t_grid=grid)
    # read the residual of each 256x256 torus solve as it is reported
    residuals = []
    solve = tangent.solve_weighted_poisson

    def recorded(*args):
        vp = solve(*args)
        residuals.append(vp.residual)
        return vp

    monkeypatch.setattr(tangent, "solve_weighted_poisson", recorded)
    torus = hm.TorusGeometry(L1=L2PI, L2=L2PI, n1=256, n2=256)
    tor = hm.tangency_experiment(torus, v=(0.6, 0.8), t_grid=grid)
    monkeypatch.undo()
    cir = hm.tangency_experiment(circle512, v=1.0, t_grid=grid)
    elapsed = time.time() - t0
    ok = (abs(sph.extrapolated_slope + 2.0) / 2.0 <= 0.05
          and abs(tor.extrapolated_slope) <= 0.05
          and abs(cir.extrapolated_slope) <= 0.05
          and len(residuals) == len(grid) and max(residuals) <= 1e-8
          and elapsed < 120.0)
    _report(2, "Ricci tangency",
            ok,
            f"sphere {sph.extrapolated_slope:+.4f} (target -2 within 5%), "
            f"torus {tor.extrapolated_slope:+.4f}, circle {cir.extrapolated_slope:+.4f} "
            f"(within 0.05 of 0), torus residuals <= {max(residuals):.1e} (<= 1e-8) "
            f"in {len(residuals)} solves, runtime {elapsed:.0f}s (< 120s)")


def test_criterion_3_bochner_identity(sphere512):
    circle_snr = hm.CircleGeometry(L=2.0, n=512)

    def fd_half(geom, t):
        dt = t / 8
        f = lambda s: hm.metric_gt(geom, s, v=1.0)
        fd1 = (f(t + dt) - f(t - dt)) / (2 * dt) / 2
        fd2 = (f(t + dt / 2) - f(t - dt / 2)) / dt / 2
        return (4 * fd2 - fd1) / 3

    worst = 0.0
    for geom in (circle_snr, sphere512):
        for t in (0.05, 0.1, 0.2, 0.3):
            b = hm.gt_derivative_bochner(geom, t, v=1.0)
            fd = fd_half(geom, t)
            worst = max(worst, abs(b - fd) / abs(fd))
    _report(3, "Bochner derivative identity", worst <= 0.01,
            f"max rel deviation {worst:.2e} (tol 1%) on circle and unit sphere, "
            "t in [0.05, 0.3]")


def test_criterion_4_contraction(sphere512):
    times = [0.05, 0.1, 0.2, 0.5]
    excesses = []

    _, c64 = hm.model_circle(L2PI, 64)
    rng = np.random.default_rng(11)
    mu = rng.random(64) + 0.05
    nu = rng.random(64) + 0.05
    pairs = [(0, 32), (5, 20), (10, 11), (mu / mu.sum(), nu / nu.sum())]
    excesses.append(hm.contraction_report(c64, times, pairs).max_excess)

    _, t8 = hm.model_torus(L2PI, L2PI, 8, 8)
    excesses.append(hm.contraction_report(t8, times, [(0, 36), (3, 30)]).max_excess)

    zonal = [
        (hm.ZonalMeasure.pole(sphere512), hm.ZonalMeasure.pole(sphere512, south=True)),
        (hm.ZonalMeasure.heat_kernel(sphere512, 0.1),
         hm.ZonalMeasure.heat_kernel(sphere512, 0.1, south=True)),
        (hm.ZonalMeasure.heat_kernel(sphere512, 0.3),
         hm.ZonalMeasure.heat_kernel(sphere512, 0.3, south=True)),
        (hm.ZonalMeasure.ring(sphere512, 0.9), hm.ZonalMeasure.ring(sphere512, 2.4)),
    ]
    excesses.append(hm.sphere_contraction_report(sphere512, times, zonal).max_excess)

    worst = max(excesses)
    _report(4, "heat-flow W2 contraction", worst <= 1e-6,
            f"max ratio/bound - 1 = {worst:.2e} over circle (K=0), torus (K=0), "
            "unit sphere (K=1)")


def _flow_fixture_set():
    fixtures = [("two_point_a1", hm.build_space(2, [(0, 1, 1.0)], [1.0, 1.0],
                                                K=0.0, conductances=[1.0]), 1.0)]
    fixtures.append(("two_point_a2.5", hm.build_space(2, [(0, 1, 2.5)], [1.0, 1.0],
                                                      K=0.0, conductances=[1.0]), 2.5))
    _, c16 = hm.model_circle(L2PI, 16)
    fixtures.append(("circle16", c16, None))
    fixtures.append(("complete8", complete_graph_space(8), None))
    fixtures.append(("hypercube16", hypercube_space(4), None))
    _, t64 = hm.model_torus(L2PI, L2PI, 8, 8)
    fixtures.append(("torus8x8", t64, None))
    return fixtures


def test_criterion_5_flow_axioms():
    worst_axiom = 0.0
    worst_scaled = -np.inf
    worst_closed = 0.0
    for name, space, a in _flow_fixture_set():
        hs = hm.spectral_decompose(space)
        assert np.array_equal(hm.dtilde_matrix(hs, 0.0), space.dist), name
        times = (0.1, 0.5) if space.n <= 16 else (0.25,)
        for t in times:
            fm = hm.flow_matrices(hs, t)
            worst_axiom = max(worst_axiom, fm.max_axiom_violation())
            scale = np.exp(-space.K * t)
            worst_scaled = max(worst_scaled, float((fm.dt - scale * space.dist).max()))
            if a is not None:
                worst_closed = max(worst_closed, abs(fm.dtilde[0, 1] - a * np.exp(-t)))
    ok = worst_axiom <= 1e-8 and worst_scaled <= 1e-8 and worst_closed <= 1e-9
    _report(5, "flow distance axioms", ok,
            f"axiom violation {worst_axiom:.2e} (tol 1e-8), "
            f"scaled-original excess {worst_scaled:.2e} (tol 1e-8), "
            f"two-point closed form dev {worst_closed:.2e} (tol 1e-9)")


def test_criterion_6_metric_speed():
    geom = hm.CircleGeometry(L=L2PI, n=256)
    rep = hm.metric_speed_check(geom, 0.2, 1e-3 * L2PI)
    _report(6, "metric speed identity", rep.rel_mismatch <= 0.02,
            f"rel mismatch {rep.rel_mismatch:.2e} (tol 2%) at n=256, t=0.2, "
            f"h={rep.h_effective:.4f} (requested 1e-3 L, snapped to grid)")


def test_criterion_7_duality():
    rng = np.random.default_rng(16)
    worst_gap = -np.inf
    for n in (8, 16, 33):
        _, space = hm.model_circle(1.0, n)
        for _ in range(4):
            mu = rng.random(n) + 0.01
            nu = rng.random(n) + 0.01
            mu[rng.integers(0, n)] = 0.0  # exercise the degenerate path
            mu, nu = mu / mu.sum(), nu / nu.sum()
            res = hm.w2_exact(mu, nu, space)
            worst_gap = max(worst_gap, hm.dual_gap(mu, nu, res.value, res.potentials,
                                                   dist=space.dist))
    _, c32 = hm.model_circle(L2PI, 32)
    phi = 0.01 * np.sin(2 * np.pi * np.arange(32) / 32)
    phi_cc = hm.c_transform(hm.c_transform(phi, c32.dist), c32.dist)
    inv = float(np.abs(phi_cc - phi).max())

    rng16 = np.random.default_rng(0)
    mu = rng16.random(16) + 0.05
    nu = rng16.random(16) + 0.05
    mu, nu = mu / mu.sum(), nu / nu.sum()
    _, c16 = hm.model_circle(1.0, 16)
    exact = hm.w2_exact(mu, nu, c16).value
    sink, _ = hm.w2_sinkhorn(mu, nu, c16.dist, eps_final=1e-3 * c16.dist.max() ** 2)
    sink_err = abs(sink - exact) / exact

    ok = worst_gap <= 1e-8 and inv <= 1e-9 and sink_err <= 0.01
    _report(7, "duality certificates", ok,
            f"max gap {worst_gap:.2e} (tol 1e-8), involution {inv:.2e} (tol 1e-9), "
            f"sinkhorn vs exact {sink_err:.2e} (tol 1%)")


def test_criterion_8_refinement_stability():
    rep = hm.refinement_stability(L2PI, 0.1, [64, 128, 256, 512], [(0.0, 0.5)])
    ok = rep.min_order >= 1.0 and rep.limit_consistent()
    diffs = ", ".join(f"{d:.2e}" for d in rep.differences[0])
    _report(8, "refinement stability", ok,
            f"probe diffs [{diffs}], empirical orders "
            f"{np.round(rep.orders[0], 2).tolist()} (need >= 1)")


def test_criterion_9_heat_sanity():
    worst_ck = 0.0
    worst_mass = 0.0
    worst_entropy = 0.0
    worst_inject = np.inf
    fixtures = [hm.model_circle(L2PI, 24)[1], complete_graph_space(8),
                hm.model_torus(L2PI, L2PI, 8, 8)[1],
                hm.build_space(2, [(0, 1, 1.0)], [1.0, 1.0], K=0.0, conductances=[1.0])]
    for space in fixtures:
        hs = hm.spectral_decompose(space)
        s, t = 0.15, 0.35
        rho_s = hm.heat_kernel_matrix(hs, s)
        rho_t = hm.heat_kernel_matrix(hs, t)
        rho_st = hm.heat_kernel_matrix(hs, s + t)
        worst_ck = max(worst_ck, float(np.abs(
            rho_s @ (space.measure[:, None] * rho_t) - rho_st).max()))
        worst_mass = max(worst_mass, float(np.abs(rho_t @ space.measure - 1).max()))
        mbar = space.probability_measure()
        ents = [hm.entropy(hm.heat_apply(hs, u, space.delta(0)), mbar)
                for u in np.linspace(0, 2.0, 9)]
        worst_entropy = max(worst_entropy, float(np.max(np.diff(ents))))
        for u in (0.1, 0.5):
            worst_inject = min(worst_inject, hm.heat_injectivity_margin(hs, u))
    ok = (worst_ck <= 1e-9 and worst_mass <= 1e-8
          and worst_entropy <= 1e-12 and worst_inject >= -1e-12)
    _report(9, "heat semigroup sanity", ok,
            f"Chapman-Kolmogorov {worst_ck:.2e} (tol 1e-9), mass {worst_mass:.2e} "
            f"(tol 1e-8), entropy increase {worst_entropy:.2e} (tol 0), "
            f"injectivity margin {worst_inject:.2e} (>= -1e-12)")
