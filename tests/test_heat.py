import numpy as np
import pytest
from numpy.testing import assert_allclose

import heatmetric as hm
from heatmetric.heat import _circle_fourier, _circle_images


class TestSpectralDecompose:
    def test_two_point_eigenvalues(self, two_point):
        _, hs = two_point
        assert_allclose(hs.eigenvalues, [0.0, 2.0], atol=1e-12)

    def test_constant_eigenvector_at_zero(self, circle24):
        _, space, hs = circle24
        u0 = hs.eigenvectors[:, 0]
        assert hs.eigenvalues[0] == 0.0
        assert np.abs(u0 - u0[0]).max() < 1e-10

    def test_m_orthonormality(self, circle24):
        _, space, hs = circle24
        U = hs.eigenvectors
        gram = U.T @ (space.measure[:, None] * U)
        assert np.abs(gram - np.eye(space.n)).max() < 1e-10

    def test_circle_stencil_eigenvalues(self):
        L, n = 2 * np.pi, 24
        _, space = hm.model_circle(L, n)
        hs = hm.spectral_decompose(space)
        h = L / n
        ks = np.arange(n)
        expected = np.sort((2 / h**2) * (1 - np.cos(2 * np.pi * ks * h / L)))
        assert_allclose(np.sort(hs.eigenvalues), expected, atol=1e-9)
        # small-k agreement with the continuum symbol to O(h^2)
        for k in (1, 2, 3):
            omega2 = (2 * np.pi * k / L) ** 2
            lam = (2 / h**2) * (1 - np.cos(2 * np.pi * k * h / L))
            assert abs(lam - omega2) <= omega2**2 * h**2 / 12 * 1.01

    def test_dense_cap(self):
        fake = hm.FiniteMetricMeasureSpace(
            n=4097, edges=np.zeros((0, 2), dtype=int), lengths=np.zeros(0),
            dist=np.zeros((1, 1)), measure=np.ones(4097), conductances=np.zeros(0),
        )
        with pytest.raises(hm.HeatError):
            hm.spectral_decompose(fake)


class TestHeatApply:
    def test_identity_at_zero(self, circle24):
        _, space, hs = circle24
        mu = space.delta(3)
        assert_allclose(hm.heat_apply(hs, 0.0, mu), mu, rtol=0, atol=0)

    def test_negative_time(self, circle24):
        _, space, hs = circle24
        with pytest.raises(hm.HeatError):
            hm.heat_apply(hs, -0.1, space.delta(0))

    def test_mass_preserved(self, circle24, rng):
        _, space, hs = circle24
        mu = rng.random(space.n)
        out = hm.heat_apply(hs, 0.7, mu)
        assert abs(out.sum() - mu.sum()) < 1e-10
        assert np.all(out > 0)

    def test_stationary_limit(self, circle24):
        _, space, hs = circle24
        t_large = 40.0 / hs.eigenvalues[1]
        out = hm.heat_apply(hs, t_large, space.delta(0))
        assert_allclose(out, space.measure / space.total_mass, atol=1e-12)

    def test_semigroup_law(self, circle24, rng):
        _, space, hs = circle24
        mu = rng.random(space.n)
        one = hm.heat_apply(hs, 0.7, hm.heat_apply(hs, 0.4, mu))
        two = hm.heat_apply(hs, 1.1, mu)
        assert np.abs(one - two).max() < 1e-9


class TestKernelMatrix:
    def test_two_point_closed_form(self, two_point):
        _, hs = two_point
        t = 0.35
        rho = hm.heat_kernel_matrix(hs, t)
        assert_allclose(rho[0, 0], (1 + np.exp(-2 * t)) / 2, rtol=1e-13)
        assert_allclose(rho[0, 1], (1 - np.exp(-2 * t)) / 2, rtol=1e-13)

    def test_row_mass_symmetry_positivity(self, circle24):
        _, space, hs = circle24
        rho = hm.heat_kernel_matrix(hs, 0.2)
        assert np.abs(rho @ space.measure - 1).max() < 1e-8
        assert np.abs(rho - rho.T).max() < 1e-10
        assert rho.min() > 0

    def test_long_time_limit(self, circle24):
        _, space, hs = circle24
        rho = hm.heat_kernel_matrix(hs, 40.0 / hs.eigenvalues[1])
        assert_allclose(rho, 1.0 / space.total_mass, atol=1e-12)

    def test_requires_positive_time(self, circle24):
        _, _, hs = circle24
        with pytest.raises(hm.HeatError):
            hm.heat_kernel_matrix(hs, 0.0)

    def test_chapman_kolmogorov(self, circle24):
        _, space, hs = circle24
        s, t = 0.15, 0.4
        rho_s = hm.heat_kernel_matrix(hs, s)
        rho_t = hm.heat_kernel_matrix(hs, t)
        rho_st = hm.heat_kernel_matrix(hs, s + t)
        composed = rho_s @ (space.measure[:, None] * rho_t)
        assert np.abs(composed - rho_st).max() < 1e-9

    def test_delta_evolution_column(self, circle24):
        # H_t(delta_x) = rho(t, x, .) m
        _, space, hs = circle24
        mu = hm.heat_apply(hs, 0.3, space.delta(5))
        rho = hm.heat_kernel_matrix(hs, 0.3)
        assert_allclose(mu, rho[5] * space.measure, atol=1e-12)


class TestCircleKernel:
    def test_unit_mass(self):
        L = 2 * np.pi
        s = (np.arange(4096) + 0.5) * L / 4096
        for t in (0.05, 0.5, 4.0):
            mass = hm.circle_kernel(t, L, s).sum() * L / 4096
            assert abs(mass - 1.0) < 1e-10

    def test_equilibrium(self):
        L = 3.0
        vals = hm.circle_kernel(50.0, L, np.linspace(0, L, 17))
        assert np.abs(vals - 1 / L).max() < 1e-12

    def test_crossover_agreement(self):
        L = 2 * np.pi
        t_star = L**2 / (4 * np.pi)
        s = np.linspace(0, L, 33)
        a = _circle_fourier(t_star, L, s, 0)
        b = _circle_images(t_star, L, s, 0)
        assert np.abs(a - b).max() < 1e-10
        a = _circle_fourier(t_star, L, s, 1)
        b = _circle_images(t_star, L, s, 1)
        assert np.abs(a - b).max() < 1e-10

    def test_derivative_consistency(self):
        # d/ds of the kernel against a centered difference
        L, t = 2 * np.pi, 0.3
        s = np.linspace(0.1, L - 0.1, 11)
        eps = 1e-6
        fd = (hm.circle_kernel(t, L, s + eps) - hm.circle_kernel(t, L, s - eps)) / (2 * eps)
        assert np.abs(fd - hm.circle_kernel(t, L, s, deriv=1)).max() < 1e-7

    @pytest.mark.parametrize("deriv", [2, -1, 0.5])
    def test_first_derivatives_only(self, deriv):
        with pytest.raises(hm.HeatError, match="deriv must be 0 or 1"):
            hm.circle_kernel(0.3, 2 * np.pi, 0.0, deriv=deriv)

    def test_positive_time_required(self):
        with pytest.raises(hm.HeatError):
            hm.circle_kernel(0.0, 1.0, 0.0)


class TestSphereKernel:
    def test_unit_mass_exact_cells(self):
        geom = hm.SphereGeometry(1.0, 128, 80)
        for t in (0.05, 0.3, 2.0):
            masses = hm.ZonalMeasure.heat_kernel(geom, t).cell_masses()
            assert abs(masses.sum() - 1.0) < 1e-8

    def test_composite_quadrature_sanity(self):
        geom = hm.SphereGeometry(1.0, 512, 80)
        vals = hm.sphere_kernel(0.3, geom.nodes(), 1.0, 80)
        assert abs(vals @ geom.volume_weights() - 1.0) < 1e-4

    def test_equilibrium(self):
        r = 1.3
        val = hm.sphere_kernel(50.0, np.array([0.4, 2.0]), r, 60)
        assert np.abs(val - 1 / (4 * np.pi * r**2)).max() < 1e-12

    def test_monotone_pole_to_antipode(self):
        for t in (0.1, 0.5, 2.0):
            near = hm.sphere_kernel(t, 1e-3, 1.0, 80)
            far = hm.sphere_kernel(t, np.pi - 1e-3, 1.0, 80)
            assert near > far

    def test_truncation_error(self):
        with pytest.raises(hm.TruncationError):
            hm.sphere_kernel(1e-4, 0.3, 1.0, 60)


class TestEntropy:
    def test_uniform_zero(self):
        m = np.full(5, 0.2)
        assert hm.entropy(m, m) == 0.0

    def test_delta_on_two_point(self, two_point):
        space, _ = two_point
        assert hm.entropy(space.delta(0), space.measure) == 0.0

    def test_nonincreasing_along_flow(self, circle24):
        _, space, hs = circle24
        mu = space.delta(0)
        mbar = space.probability_measure()
        ts = np.linspace(0.0, 2.0, 9)
        vals = [hm.entropy(hm.heat_apply(hs, t, mu), mbar) for t in ts]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_infinite_when_not_absolutely_continuous(self):
        assert hm.entropy(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == np.inf


class TestDiagnostics:
    # ultracontractivity: max rho(t) is the semigroup's L1 -> Linf norm
    def test_ultracontractivity_two_point(self, two_point):
        _, hs = two_point
        assert_allclose(hm.heat_kernel_matrix(hs, 0.1).max(), (1 + np.exp(-0.2)) / 2,
                        rtol=1e-13)

    def test_ultracontractivity_monotone(self, circle24):
        _, space, hs = circle24
        ts = [0.05, 0.1, 0.2, 0.5, 1.0, 3.0, 45.0]
        vals = [hm.heat_kernel_matrix(hs, t).max() for t in ts]
        assert np.all(np.diff(vals) <= 1e-12)
        assert abs(vals[-1] - 1 / space.total_mass) < 1e-8

    def test_injectivity_margin(self, circle24):
        _, _, hs = circle24
        for t in (0.1, 0.5, 2.0):
            assert hm.heat_injectivity_margin(hs, t) >= -1e-12



NONFINITE_TIME_CALLS = {
    "heat_apply": lambda hs, t: hm.heat_apply(hs, t, hs.space.delta(0)),
    "heat_kernel_matrix": hm.heat_kernel_matrix,
    "circle_kernel": lambda hs, t: hm.circle_kernel(t, 2 * np.pi, 0.5),
    "sphere_kernel": lambda hs, t: hm.sphere_kernel(t, 0.5, 1.0, 40),
    "heat_injectivity_margin": hm.heat_injectivity_margin,
    "metric_gt_circle": lambda hs, t: hm.metric_gt(hm.CircleGeometry(2 * np.pi, 64), t),
    "tangent_state_sphere": lambda hs, t: hm.tangent_state(hm.SphereGeometry(1.0, 64, 40), t),
    "tangency_experiment": lambda hs, t: hm.tangency_experiment(
        hm.CircleGeometry(2 * np.pi, 64), t_grid=[0.4, 0.2, t]),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", NONFINITE_TIME_CALLS.values(), ids=NONFINITE_TIME_CALLS)
def test_nonfinite_time_rejected(circle16, call, bad):
    # such times used to return NaNs or 0, or fail deep inside the numerics
    _, _, hs = circle16
    with pytest.raises((hm.HeatError, hm.TangentError), match=f"not .*{bad}"):
        call(hs, bad)
