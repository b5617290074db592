import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import heatmetric as hm
from heatmetric import tangent
from heatmetric.heat import circle_kernel, sphere_kernel


CIRCLE = hm.CircleGeometry(L=2 * np.pi, n=256)
CIRCLE_SNR = hm.CircleGeometry(L=2.0, n=256)  # strong-signal circle for derivatives
TORUS = hm.TorusGeometry(L1=2 * np.pi, L2=2 * np.pi, n1=32, n2=32)


def circle_gt_closed_form(L, t, v=1.0):
    I = quad(lambda s: 1.0 / circle_kernel(t, L, s), 0, L, limit=500)[0]
    return v**2 * (1 - L**2 / I)


def dense_flux_operator(geom, rho):
    """Dense div(rho grad .) on the full periodic grid: each face between a
    node and its successor along an axis conducts the average of their two
    densities over h^2."""
    idx = np.arange(rho.size).reshape(rho.shape)
    A = np.zeros((rho.size, rho.size))
    for a, (L, n) in enumerate(geom.periodic_axes):
        face = (0.5 * (rho + np.roll(rho, -1, axis=a)) / (L / n) ** 2).ravel()
        i, j = idx.ravel(), np.roll(idx, -1, axis=a).ravel()
        A[i, j] += face
        A[j, i] += face
        A[i, i] -= face
        A[j, j] -= face
    return A


def fd_half_derivative(geom, t, **kw):
    """Centered difference of (1/2) g_t with step t/8 and one Richardson level."""
    dt = t / 8
    f = lambda s: hm.metric_gt(geom, s, **kw)
    fd1 = (f(t + dt) - f(t - dt)) / (2 * dt) / 2
    fd2 = (f(t + dt / 2) - f(t - dt / 2)) / dt / 2
    return (4 * fd2 - fd1) / 3


class TestSolveWeightedPoisson:
    def test_zero_source(self):
        rho = np.ones(CIRCLE.n)
        vp = hm.solve_weighted_poisson(CIRCLE, rho, np.zeros(CIRCLE.n))
        assert np.abs(vp.phi).max() == 0.0

    def test_circle_fourier_mode(self):
        # rho = 1: plain Poisson, phi = -(L/2pi)^2 cos(2 pi y / L)
        L, n = 1.0, 128
        geom = hm.CircleGeometry(L=L, n=n)
        y = geom.nodes()
        eta = np.cos(2 * np.pi * y / L)
        vp = hm.solve_weighted_poisson(geom, np.ones(n), eta)
        expected = -((L / (2 * np.pi)) ** 2) * np.cos(2 * np.pi * y / L)
        assert np.abs(vp.phi - expected).max() < 1e-3
        assert vp.residual <= 1e-8

    def test_linearity_in_source(self):
        rho = circle_kernel(0.3, CIRCLE.L, CIRCLE.nodes())
        eta = circle_kernel(0.3, CIRCLE.L, CIRCLE.nodes(), deriv=1)
        one = hm.solve_weighted_poisson(CIRCLE, rho, eta)
        three = hm.solve_weighted_poisson(CIRCLE, rho, 3.0 * eta)
        assert np.abs(three.phi - 3.0 * one.phi).max() < 1e-10

    def test_zero_mean_gauge(self):
        rho = circle_kernel(0.3, CIRCLE.L, CIRCLE.nodes())
        eta = circle_kernel(0.3, CIRCLE.L, CIRCLE.nodes(), deriv=1)
        vp = hm.solve_weighted_poisson(CIRCLE, rho, eta)
        w = CIRCLE.volume_weights()
        assert abs(vp.phi @ w) <= 1e-10 * np.abs(vp.phi).max() * w.sum()

    def test_nonzero_mean_rejected(self):
        with pytest.raises(hm.NonzeroMeanSource):
            hm.solve_weighted_poisson(CIRCLE, np.ones(CIRCLE.n), np.ones(CIRCLE.n))

    def test_nonpositive_density_rejected(self):
        rho = np.ones(CIRCLE.n)
        rho[3] = 0.0
        with pytest.raises(hm.NonpositiveDensity):
            hm.solve_weighted_poisson(CIRCLE, rho, np.zeros(CIRCLE.n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_rejected(self, bad):
        # such input used to solve to a NaN potential that passed the certificate
        eta = circle_kernel(0.3, CIRCLE.L, CIRCLE.nodes(), deriv=1)
        rho = np.ones(CIRCLE.n)
        rho[3] = bad
        with pytest.raises(hm.TangentError, match="finite"):
            hm.solve_weighted_poisson(CIRCLE, rho, eta)
        eta[3] = bad
        with pytest.raises(hm.TangentError, match="finite"):
            hm.solve_weighted_poisson(CIRCLE, np.ones(CIRCLE.n), eta)

    def test_one_array_per_axis(self):
        # a torus takes one factor and one source term per axis, never the
        # assembled grid arrays
        with pytest.raises(hm.TangentError, match="1-D array per grid axis"):
            hm.solve_weighted_poisson(TORUS, np.ones((32, 32)), np.zeros((32, 32)))
        vp = hm.solve_weighted_poisson(TORUS, [np.ones(32)] * 2, [np.zeros(32)] * 2)
        assert vp.rho.shape == vp.phi.shape == (32, 32)

    @pytest.mark.parametrize("geom, t, v", [
        (hm.TorusGeometry(L1=1.0, L2=1.5, n1=12, n2=10), 0.1, (0.6, -0.8)),
        (hm.CircleGeometry(L=2.0, n=16), 0.1, 1.0),
        # the floored kernel spans 13 decades here
        (hm.TorusGeometry(L1=2 * np.pi, L2=2 * np.pi, n1=64, n2=64), 0.05, (0.6, 0.8)),
    ])
    def test_matches_dense_reference(self, geom, t, v):
        # Dense reference with no pinned unknown: the equilibrated singular
        # system bordered by its null vector D 1, then the same volume-weighted
        # gauge. (np.linalg.lstsq on the singular system cuts off the small
        # singular values of the 13-decade operator and lands 1.4 relative
        # off on the 64 x 64 torus.)
        vp = hm.tangent_state(geom, t, v=v).potential
        A = dense_flux_operator(geom, vp.rho)
        d = np.sqrt(-A.diagonal())
        n = d.size
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = A / np.outer(d, d)
        M[:n, n] = M[n, :n] = d / np.linalg.norm(d)
        ref = np.linalg.solve(M, np.append(vp.eta.ravel() / d, 0.0))[:n] / d
        w = geom.volume_weights().ravel()
        ref -= (w @ ref) / w.sum()
        assert np.abs(vp.phi.ravel() - ref).max() <= 1e-9 * np.abs(ref).max()
        assert vp.residual <= 1e-8

    @pytest.mark.parametrize("geom", [CIRCLE, TORUS, hm.SphereGeometry(1.0, 128, 60)],
                             ids=["circle", "torus", "sphere"])
    def test_uncertified_solve_raises(self, uncertified_poisson, geom):
        with pytest.raises(tangent.UncertifiedSolve, match="linear solve residual 1.00e-03"):
            hm.tangent_state(geom, 0.2, v=(1.0, -0.5) if geom is TORUS else 1.0)


class TestVelocityPotential:
    def test_zero_vector(self):
        vp = hm.tangent_state(CIRCLE, 0.2, v=0.0).potential
        assert np.abs(vp.phi).max() == 0.0
        sph = hm.SphereGeometry(1.0, 128, 60)
        assert np.abs(hm.tangent_state(sph, 0.2, v=0.0).potential.phi).max() == 0.0

    def test_linearity_in_v(self):
        a = hm.tangent_state(CIRCLE, 0.2, v=1.0).potential
        b = hm.tangent_state(CIRCLE, 0.2, v=-2.5).potential
        assert np.abs(b.phi + 2.5 * a.phi).max() < 1e-10

    def test_circle_flux_oracle(self):
        # integrate the flux ODE once: phi' = v + C / rho, C = -vL / I_t
        L, t, v = CIRCLE.L, 0.2, 1.0
        I = quad(lambda s: 1.0 / circle_kernel(t, L, s), 0, L, limit=500)[0]
        C = -v * L / I
        for n, tol in ((256, 0.05), (512, 0.025)):
            geom = hm.CircleGeometry(L=L, n=n)
            vp = hm.tangent_state(geom, t, v=v).potential
            dphi = (np.roll(vp.phi, -1) - vp.phi) / geom.h
            oracle = v + C / circle_kernel(t, L, geom.nodes() + 0.5 * geom.h)
            rel = np.abs((dphi - oracle) / oracle).max()
            assert rel < tol  # first-order at the antipodal density minimum

    def test_sphere_source_sign_via_finite_difference(self):
        # grad_x rho . v against rotating the center: eta = -grad_x rho . v,
        # probed at exact cell centers
        geom = hm.SphereGeometry(1.0, 256, 100)
        t = 0.15
        vp = hm.tangent_state(geom, t, v=1.0).potential
        eps = 1e-5
        for i in (30, 100, 180):
            theta = geom.nodes()[i]
            for psi in (0.0, 1.0, 2.5):
                cosa = lambda e: np.cos(e) * np.cos(theta) + np.sin(e) * np.sin(theta) * np.cos(psi)
                fd = (sphere_kernel(t, np.arccos(cosa(eps)), 1.0, 100)
                      - sphere_kernel(t, np.arccos(cosa(-eps)), 1.0, 100)) / (2 * eps)
                eta_here = vp.eta[i] * np.cos(psi)
                assert abs(fd + eta_here) < 1e-6 * max(abs(fd), 1e-3)

    def test_sphere_pole_gradient_recovers_v(self):
        geom = hm.SphereGeometry(1.0, 512, 120)
        ups = []
        for t in (0.025, 0.0125):
            u = hm.tangent_state(geom, t, v=1.0).potential.phi
            ups.append((-3 * u[0] + 4 * u[1] - u[2]) / (2 * geom.h))
        extrapolated = 2 * ups[1] - ups[0]
        assert abs(extrapolated - 1.0) < 0.02

    def test_under_resolved_time(self):
        coarse = hm.CircleGeometry(L=2 * np.pi, n=16)
        with pytest.raises(hm.UnresolvedTime):
            hm.tangent_state(coarse, 0.05, v=1.0)


class TestMetricGt:
    @pytest.mark.parametrize("v", [1.0, (1.0, 0.0, 0.0)], ids=["vector-short", "vector-long"])
    def test_component_count(self, v):
        with pytest.raises(hm.TangentError,
                           match=r"tangent vectors need one component per grid axis \(2\)"):
            hm.tangent_state(TORUS, 0.2, v=v)

    @pytest.mark.parametrize("v", [(1.0, 2.0, 3.0), [[1.0, 2.0]]], ids=["three", "matrix"])
    def test_sphere_component_count(self, v, monkeypatch):
        def refuse(*args):
            raise AssertionError("solved with a tangent vector off the tangent plane")

        monkeypatch.setattr(tangent, "solve_weighted_poisson", refuse)
        with pytest.raises(hm.TangentError, match="on the sphere have at most two components"):
            hm.tangent_state(hm.SphereGeometry(1.0, 64, 40), 0.2, v=v)

    @pytest.mark.parametrize("geom, v", [
        (hm.CircleGeometry(2 * np.pi, 64), np.nan),
        (hm.CircleGeometry(2 * np.pi, 64), np.inf),
        (TORUS, (np.nan, 1.0)),
        (hm.SphereGeometry(1.0, 64, 40), np.nan),
    ], ids=["circle-nan", "circle-inf", "torus-nan", "sphere-nan"])
    def test_nonfinite_tangent_vector(self, geom, v, monkeypatch):
        def refuse(*args):
            raise AssertionError("solved with a non-finite tangent vector")

        monkeypatch.setattr(tangent, "solve_weighted_poisson", refuse)
        for t in (0.0, 0.2):
            with pytest.raises(hm.TangentError,
                               match=r"tangent vector v must be finite, not v=.*(nan|inf)"):
                hm.metric_gt(geom, t, v=v)
        with pytest.raises(hm.TangentError, match="tangent vector v must be finite"):
            hm.tangent_state(geom, 0.2, v=v)

    def test_unsupported_geometry(self):
        with pytest.raises(hm.TangentError, match="unsupported geometry object"):
            hm.metric_gt(object(), 0.2)

    def test_zero_time_returns_speed(self):
        assert hm.metric_gt(CIRCLE, 0.0, v=3.0) == 9.0
        assert hm.metric_gt(TORUS, 0.0, v=(0.6, 0.8)) == pytest.approx(1.0, abs=1e-15)
        assert hm.metric_gt(hm.SphereGeometry(1.0, 64, 40), 0.0, v=1.0) == 1.0

    @pytest.mark.parametrize("geom, message", [
        (hm.TorusGeometry(2 * np.pi, 2 * np.pi, 64, 64), "one component per grid axis"),
        (hm.SphereGeometry(1.0, 64, 40), "at most two components"),
    ], ids=["torus", "sphere"])
    def test_zero_time_checks_the_components(self, geom, message):
        for t in (0.0, 0.1):
            with pytest.raises(hm.TangentError, match=message):
                hm.metric_gt(geom, t, v=(1.0, 2.0, 3.0))

    def test_circle_closed_form(self):
        for t in (0.2, 0.3):
            got = hm.metric_gt(CIRCLE, t, v=1.0)
            ref = circle_gt_closed_form(CIRCLE.L, t)
            assert abs(got - ref) / ref < 1e-4

    def test_quadratic_scaling(self):
        g1 = hm.metric_gt(CIRCLE, 0.2, v=1.0)
        g2 = hm.metric_gt(CIRCLE, 0.2, v=2.0)
        assert_allclose(g2, 4 * g1, rtol=1e-12)

    def test_continuity_at_zero(self):
        # g_t -> |v|^2 as t decreases; n = 512 keeps the discrete bias below
        # the limit's approach
        geom = hm.CircleGeometry(L=2 * np.pi, n=512)
        vals = [hm.metric_gt(geom, t, v=1.0) for t in (0.3, 0.2, 0.05)]
        assert abs(vals[0] - 1.0) > abs(vals[-1] - 1.0)
        assert abs(vals[-1] - 1.0) < 1e-6

    def test_torus_separable_matches_circle(self):
        g_t = hm.metric_gt(TORUS, 0.3, v=(1.0, 0.0))
        ref = circle_gt_closed_form(TORUS.L1, 0.3)
        assert abs(g_t - ref) / ref < 1e-3

    def test_polarization_identity(self):
        t = 0.25
        v = np.array([1.0, 0.0])
        w = np.array([0.3, -0.7])
        gvw = hm.metric_gt(TORUS, t, v=v + w)
        gvmw = hm.metric_gt(TORUS, t, v=v - w)
        gv = hm.metric_gt(TORUS, t, v=v)
        gw = hm.metric_gt(TORUS, t, v=w)
        assert abs(gvw + gvmw - 2 * gv - 2 * gw) < 1e-8

    def test_exponential_contraction_bound(self):
        # g_t <= e^{-2Kt} |v|^2 within 1e-6 relative (needs the resolved
        # grid: the coarse-grid bias exceeds the tolerance near t = 0)
        geom = hm.CircleGeometry(L=2 * np.pi, n=512)
        for t in (0.05, 0.1, 0.2):
            assert hm.metric_gt(geom, t, v=1.0) <= 1.0 + 1e-6
        sph = hm.SphereGeometry(1.0, 512, 120)
        for t in (0.05, 0.1, 0.2):
            assert hm.metric_gt(sph, t, v=1.0) <= np.exp(-2 * t) * (1 + 1e-6)


class TestPeriodicGrid:
    def test_torus_axis_reproduces_circle(self):
        # the circle is the one-axis case of the periodic grid: a torus
        # tangent (v, 0) solves the same problem on every slice of axis 2
        circle = hm.CircleGeometry(L=2 * np.pi, n=64)
        torus = hm.TorusGeometry(L1=2 * np.pi, L2=1.0, n1=64, n2=16)
        for t in (0.2, 0.1):
            g_c = hm.metric_gt(circle, t, v=0.7)
            g_t = hm.metric_gt(torus, t, v=(0.7, 0.0))
            assert abs(g_t - g_c) <= 1e-12 * abs(g_c)
            m_c = hm.tangent_state(circle, t, v=0.7).hessian_mass
            m_t = hm.tangent_state(torus, t, v=(0.7, 0.0)).hessian_mass
            assert abs(m_t - m_c) <= 1e-12 * abs(m_c)

    @pytest.mark.parametrize("t", [0.1, 0.005])
    def test_torus_is_sum_of_circles(self, t):
        # the torus potential is the sum of one circle potential per axis, so
        # g_t and the Hessian mass are the v_a^2-weighted sums of the circles'
        # (at t = 0.005 the kernel's corners fall below 1e-13 of its peak)
        v = (0.6, -0.8)
        torus = hm.TorusGeometry(L1=1.0, L2=1.5, n1=64, n2=48)
        circles = (hm.CircleGeometry(L=1.0, n=64), hm.CircleGeometry(L=1.5, n=48))
        hessian_mass = lambda geom, t, v: hm.tangent_state(geom, t, v=v).hessian_mass
        for f in (hm.metric_gt, hessian_mass):
            expected = sum(va**2 * f(c, t, v=1.0) for va, c in zip(v, circles))
            assert abs(f(torus, t, v=v) - expected) <= 1e-12 * expected

    def test_large_torus_within_seconds(self, monkeypatch):
        residuals = []
        solve = tangent.solve_weighted_poisson

        def recorded(*args):
            vp = solve(*args)
            residuals.append(vp.residual)
            return vp

        monkeypatch.setattr(tangent, "solve_weighted_poisson", recorded)
        grid = [0.2, 0.1, 0.05, 0.025, 0.0125]
        torus = hm.TorusGeometry(L1=2 * np.pi, L2=2 * np.pi, n1=1024, n2=1024)
        t0 = time.perf_counter()
        rep = hm.tangency_experiment(torus, v=(0.6, 0.8), t_grid=grid)
        elapsed = time.perf_counter() - t0
        assert len(residuals) == len(grid) and max(residuals) <= 1e-8
        assert abs(rep.extrapolated_slope) <= 0.05
        assert elapsed < 10.0


class TestTangentPlan:
    def test_mass_and_moment_circle(self):
        plan = hm.tangent_state(CIRCLE, 0.2, v=1.0).plan
        assert abs(plan.weights.sum() - 1.0) < 1e-8
        assert plan.second_moment() == hm.metric_gt(CIRCLE, 0.2, v=1.0)
        assert np.all(np.isfinite(plan.grad_sq))

    def test_mass_and_moment_sphere(self):
        sph = hm.SphereGeometry(1.0, 256, 100)
        plan = hm.tangent_state(sph, 0.1, v=1.0).plan
        assert abs(plan.weights.sum() - 1.0) < 1e-8
        assert plan.second_moment() == hm.metric_gt(sph, 0.1, v=1.0)

    def test_mass_and_moment_torus(self):
        plan = hm.tangent_state(TORUS, 0.3, v=(0.6, 0.8)).plan
        assert abs(plan.weights.sum() - 1.0) < 1e-8
        assert plan.second_moment() == hm.metric_gt(TORUS, 0.3, v=(0.6, 0.8))


class TestBochnerDerivative:
    def test_circle_matches_finite_difference(self):
        for t in (0.05, 0.3):
            b = hm.gt_derivative_bochner(CIRCLE_SNR, t, v=1.0)
            fd = fd_half_derivative(CIRCLE_SNR, t, v=1.0)
            assert abs(b - fd) / abs(fd) < 0.01
            assert b <= 0  # flat: -int (phi'')^2 rho

    def test_sphere_matches_and_bounds(self):
        sph = hm.SphereGeometry(1.0, 512, 120)
        for t in (0.1, 0.2):
            b = hm.gt_derivative_bochner(sph, t, v=1.0)
            fd = fd_half_derivative(sph, t, v=1.0)
            assert abs(b - fd) / abs(fd) < 0.01
            assert b <= -sph.K * hm.metric_gt(sph, t, v=1.0) + 1e-8

    def test_zero_vector(self):
        assert hm.gt_derivative_bochner(CIRCLE_SNR, 0.1, v=0.0) == 0.0

    def test_torus_strictly_negative(self):
        val = hm.gt_derivative_bochner(TORUS, 0.25, v=(1.0, 0.5))
        assert val < 0

    def test_hessian_mass_reported(self):
        sph = hm.SphereGeometry(1.0, 256, 100)
        vals = [hm.tangent_state(sph, t, v=1.0).hessian_mass for t in (0.2, 0.1, 0.05)]
        assert np.all(np.isfinite(vals))
        assert np.all(np.array(vals) >= 0)


class TestRicPairing:
    def test_small_time_limit_unit_sphere(self):
        # int Ric(grad phi, grad phi) rho dvol = K g_t(v, v) tends to K |v|^2
        sph = hm.SphereGeometry(1.0, 512, 120)
        p1 = sph.K * hm.metric_gt(sph, 0.05, v=1.0)
        p2 = sph.K * hm.metric_gt(sph, 0.025, v=1.0)
        assert abs(2 * p2 - p1 - 1.0) < 0.05


class TestMetricSpeed:
    def test_circle_two_percent(self):
        rep = hm.metric_speed_check(CIRCLE, 0.2, 1e-3 * CIRCLE.L)
        assert rep.h_effective == CIRCLE.h
        assert rep.rel_mismatch <= 0.02

    def test_quotient_changes_linearly_in_h(self):
        r1 = hm.metric_speed_check(CIRCLE, 0.2, CIRCLE.h)
        r2 = hm.metric_speed_check(CIRCLE, 0.2, 2 * CIRCLE.h)
        assert abs(r2.w2_quotient_sq - r1.w2_quotient_sq) <= 0.05 * r1.h_effective

    def test_rotation_invariance_of_w2_side(self):
        # both sides are constant along the rotation curve
        t, k = 0.2, 1
        _, space = hm.model_circle(CIRCLE.L, CIRCLE.n)
        y = CIRCLE.nodes()

        def measure(c):
            d = circle_kernel(t, CIRCLE.L, y - c) * CIRCLE.h
            return d / d.sum()

        w_a = hm.w2_exact(measure(0.0), measure(k * CIRCLE.h), space.dist).value
        s0 = 5 * CIRCLE.h
        w_b = hm.w2_exact(measure(s0), measure(s0 + k * CIRCLE.h), space.dist).value
        assert abs(w_a - w_b) < 1e-10

    @pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1.0])
    def test_probe_step_must_be_positive_and_finite(self, h, monkeypatch):
        def refuse(*args):
            raise AssertionError("solved with an invalid probe step")

        monkeypatch.setattr(tangent, "solve_weighted_poisson", refuse)
        monkeypatch.setattr(hm.transport, "w2_exact", refuse)
        with pytest.raises(hm.TangentError, match=f"probe step must be finite and > 0, not h={h}"):
            hm.metric_speed_check(hm.CircleGeometry(2 * np.pi, 64), 0.2, h)

    def test_under_resolved(self):
        coarse = hm.CircleGeometry(L=2 * np.pi, n=16)
        with pytest.raises(hm.UnresolvedTime):
            hm.metric_speed_check(coarse, 0.2, coarse.h)

    def test_under_resolved_probe_step(self):
        # the grid resolves t = 0.2, the snapped step 12 h = 0.29 does not
        with pytest.raises(hm.UnresolvedTime, match="under-resolves the probe step"):
            hm.metric_speed_check(CIRCLE, 0.2, 0.3)

    def test_circle_only(self):
        with pytest.raises(hm.TangentError, match="implemented on the circle"):
            hm.metric_speed_check(TORUS, 0.2, TORUS.h[0])


class TestTangencyExperiment:
    @pytest.mark.parametrize("geom", [
        CIRCLE, hm.SphereGeometry(1.0, 64, 40),
        hm.TorusGeometry(L1=2 * np.pi, L2=2 * np.pi, n1=64, n2=64),
    ], ids=["circle", "sphere", "torus"])
    def test_nonfinite_tangent_vector(self, geom, monkeypatch):
        def refuse(*args):
            raise AssertionError("solved with a non-finite tangent vector")

        monkeypatch.setattr(tangent, "solve_weighted_poisson", refuse)
        with pytest.raises(hm.TangentError, match=r"tangent vector v must be finite, not v=\[nan, 1.0\]"):
            hm.tangency_experiment(geom, v=(np.nan, 1.0), t_grid=[0.4, 0.2])

    @pytest.mark.parametrize("geom, v", [
        (CIRCLE, 0.0), (hm.SphereGeometry(1.0, 64, 80), 0.0),
        (hm.TorusGeometry(L1=2 * np.pi, L2=2 * np.pi, n1=64, n2=64), (0.0, -0.0)),
    ], ids=["circle", "sphere", "torus"])
    def test_zero_tangent_vector(self, geom, v, monkeypatch):
        # the relative slope deviation divides by |v|^2
        def refuse(*args):
            raise AssertionError("solved with a zero tangent vector")

        monkeypatch.setattr(tangent, "solve_weighted_poisson", refuse)
        with pytest.raises(hm.TangentError, match=r"nonzero tangent vector v, not \|v\|\^2 = 0"):
            hm.tangency_experiment(geom, v=v, t_grid=[0.4, 0.2])

    def test_circle_slope_to_zero(self):
        rep = hm.tangency_experiment(CIRCLE, v=1.0, t_grid=[0.2, 0.1, 0.05, 0.025])
        assert abs(rep.extrapolated_slope) < 0.05
        assert rep.passed(tol=0.05)

    def test_torus_slope_to_zero(self):
        geom = hm.TorusGeometry(L1=2 * np.pi, L2=2 * np.pi, n1=64, n2=64)
        rep = hm.tangency_experiment(geom, v=(1.0, 0.0), t_grid=[0.4, 0.2, 0.1])
        assert abs(rep.extrapolated_slope) < 0.05

    def test_sphere_slope_to_minus_two(self):
        sph = hm.SphereGeometry(1.0, 256, 120)
        rep = hm.tangency_experiment(sph, v=1.0, t_grid=[0.2, 0.1, 0.05, 0.025])
        assert rep.deviation <= 0.05
        assert rep.one_sided_ok
        assert rep.target == -2.0

    def test_sphere_profiles_once_per_time(self):
        # the potential, the plan and the Hessian share one profile per t
        sph = hm.SphereGeometry(1.0, 128, 60)
        grid = [0.4, 0.2, 0.1]
        tangent._sphere_profiles.cache_clear()
        hm.tangency_experiment(sph, v=1.0, t_grid=grid)
        assert tangent._sphere_profiles.cache_info().misses == len(grid)

    @pytest.mark.parametrize("geom, v", [
        (CIRCLE, 1.0), (TORUS, (0.6, 0.8)), (hm.SphereGeometry(1.0, 256, 100), 1.0),
    ], ids=["circle", "torus", "sphere"])
    def test_one_evaluation_per_time(self, monkeypatch, geom, v):
        # every quantity at (t, v) is read from one solve of the same potential
        solves = []
        solve = tangent.solve_weighted_poisson

        def counted(*args):
            solves.append(args[0])
            return solve(*args)

        monkeypatch.setattr(tangent, "solve_weighted_poisson", counted)
        grid = [0.8, 0.4, 0.2]
        rep = hm.tangency_experiment(geom, v=v, t_grid=grid)
        assert len(solves) == len(grid)
        for t, g, hess in zip(rep.ts, rep.gt_values, rep.hessian_mass):
            solves.clear()
            state = hm.tangent_state(geom, t, v=v)
            assert isinstance(state, hm.TangentState) and len(solves) == 1
            assert state.plan.second_moment() == g and state.hessian_mass == hess
            assert hm.metric_gt(geom, t, v=v) == g
            assert hm.gt_derivative_bochner(geom, t, v=v) == -hess - geom.K * g
            assert len(solves) == 3

    def test_extrapolates_with_the_grid_ratio(self):
        # a ratio-0.8 grid: extrapolating as if it halved lands at -1.98
        sph = hm.SphereGeometry(1.0, 512, 120)
        rep = hm.tangency_experiment(sph, v=1.0, t_grid=[0.1, 0.08, 0.064, 0.0512, 0.04096])
        assert abs(rep.extrapolated_slope + 2.0) <= 5e-3

    def test_grid_validation(self):
        with pytest.raises(hm.TangentError):
            hm.tangency_experiment(CIRCLE, v=1.0, t_grid=[0.2])
        with pytest.raises(hm.TangentError):
            hm.tangency_experiment(CIRCLE, v=1.0, t_grid=[0.2, 0.19, 0.18])

    def test_unresolved_t_min(self):
        sph = hm.SphereGeometry(1.0, 128, 40)
        with pytest.raises(hm.TruncationError):
            hm.tangency_experiment(sph, v=1.0, t_grid=[0.02, 0.01, 0.005])

    def test_truncation_checked_before_any_solve(self, monkeypatch):
        # l_max (l_max + 1) t = 26.1 at t = 0.0018, yet the last kernel
        # coefficient is 8.6e-11: the time must fail before the first solve
        def no_solve(*args):
            raise AssertionError("a Poisson solve ran at an unresolved time")

        monkeypatch.setattr(tangent, "_solve_sphere_m1", no_solve)
        sph = hm.SphereGeometry(1.0, 512, 120)
        with pytest.raises(hm.TruncationError, match="sphere kernel tail"):
            hm.tangency_experiment(sph, v=1.0, t_grid=[0.0072, 0.0036, 0.0018])
