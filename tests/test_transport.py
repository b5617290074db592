import concurrent.futures
import itertools
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs

import heatmetric as hm
from conftest import uniform_ring
from heatmetric import transport


def permutation_oracle(units_mu, units_nu, dist):
    """Independent oracle: marginals split into equal-mass units, exact
    minimization over all unit assignments."""
    n = len(units_mu)
    mass = 1.0 / n
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(dist[units_mu[i], units_nu[perm[i]]] ** 2 for i in range(n)) * mass
        best = min(best, cost)
    return np.sqrt(best)


PATH3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def lp_oracle(mu, nu, dist):
    """Independent oracle: the coupling LP on the supports, solved by HiGHS
    with primal and dual feasibility tolerances 1e-10. Presolve is off: with
    it, HiGHS declares some instances whose masses span 1e-12..1 infeasible."""
    sm, sn = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
    a, b = len(sm), len(sn)
    rows = np.concatenate([np.repeat(np.arange(a), b), a + np.tile(np.arange(b), a)])
    cols = np.tile(np.arange(a * b), 2)
    A = sp.csr_matrix((np.ones(2 * a * b), (rows, cols)), shape=(a + b, a * b))
    res = linprog((dist[np.ix_(sm, sn)] ** 2).ravel(), A_eq=A,
                  b_eq=np.concatenate([mu[sm], nu[sn]]), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10, "presolve": False})
    assert res.status == 0, res.message
    return np.sqrt(max(res.fun, 0.0))


def assert_certified(res, mu, nu, dist, gap_tol=1e-10, marginal_tol=1e-12):
    gap = hm.dual_gap(mu, nu, res.value, res.potentials, dist=dist)
    assert abs(gap) <= gap_tol
    assert res.plan.marginal_violation() <= marginal_tol
    assert res.plan.gamma.min() >= 0


def circle_space(n, L=1.0):
    return hm.model_circle(L, n)[1]


def staircase_loop(X, Y):
    """Oracle: the potentials along a closed circle staircase, one branch per
    kind of step (the loop transport._staircase_potentials replaced)."""
    X, Y = X.tolist(), Y.tolist()
    phi = [0.0] * len(X)
    psi = 0.5 * (X[0] - Y[0]) ** 2
    corner = [0.0] * len(X)
    for k in range(1, len(X)):
        if Y[k] == Y[k - 1]:
            phi[k] = 0.5 * (X[k] - Y[k]) ** 2 - psi
        elif X[k] == X[k - 1]:
            phi[k] = phi[k - 1]
            psi = 0.5 * (X[k] - Y[k]) ** 2 - phi[k]
        else:
            phi[k] = 0.5 * (X[k] - Y[k - 1]) ** 2 - psi
            psi = 0.5 * (X[k] - Y[k]) ** 2 - phi[k]
            corner[k] = (X[k] - X[k - 1]) * (Y[k] - Y[k - 1])
    slack = np.cumsum(corner)
    return np.array(phi) - slack * min(max(phi[-1] / slack[-1], 0.0), 1.0)


def heat_rows(n, t, offsets):
    _, space = hm.model_circle(2 * np.pi, n)
    hs = hm.spectral_decompose(space)
    return space, [hm.heat_apply(hs, t, space.delta(k)) for k in offsets]


class TestW2Exact:
    @pytest.mark.parametrize("mu, dist, message", [
        (np.full(2, 0.5), PATH3, "marginals must be vectors on the same space"),
        (np.full(3, 1 / 3), np.ones((3, 2)), "dist must be square"),
    ], ids=["unequal-shapes", "non-square-dist"])
    def test_input_shapes(self, mu, dist, message):
        with pytest.raises(hm.TransportError, match=message):
            hm.w2_exact(mu, np.full(3, 1 / 3), dist)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_masses(self, bad):
        third, mu = np.full(3, 1 / 3), np.array([bad, 0.5, 0.5])
        for pair in ((mu, third), (third, mu)):
            with pytest.raises(hm.TransportError, match="masses must be finite"):
                hm.w2_exact(*pair, PATH3)
            with pytest.raises(hm.TransportError, match="masses must be finite"):
                transport._w2_exact_batch([(third, third), pair], PATH3)
            with pytest.raises(hm.TransportError, match="masses must be finite"):
                hm.w2_sinkhorn(*pair, PATH3, 0.1)

    def test_identical_marginals(self, rng):
        mu = rng.random(6) + 0.1
        mu /= mu.sum()
        dist = hm.model_circle(1.0, 8)[1].dist[:6, :6].copy()
        np.fill_diagonal(dist, 0.0)
        res = hm.w2_exact(mu, mu, dist)
        assert res.value == 0.0
        offdiag = res.plan.gamma[~np.eye(6, dtype=bool)]
        assert np.abs(offdiag).max() == 0.0

    def test_delta_to_delta_exhaustive(self):
        _, space = hm.model_circle(2 * np.pi, 64)
        for x in range(0, 64, 7):
            for y in range(64):
                val = hm.w2_exact(space.delta(x), space.delta(y), space).value
                assert abs(val - space.dist[x, y]) < 1e-12

    def test_three_point_path(self):
        mu = np.array([0.5, 0.5, 0.0])
        nu = np.array([0.0, 0.5, 0.5])
        res = hm.w2_exact(mu, nu, PATH3)
        oracle = permutation_oracle([0, 1], [1, 2], PATH3)
        assert_allclose(res.value, oracle, rtol=1e-12)
        assert_allclose(res.value, 1.0, rtol=1e-12)

    def test_random_against_unit_oracle(self, rng):
        # six unit atoms a side on a 5-point path metric
        dist = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
        for _ in range(5):
            um = [int(rng.integers(0, 5)) for _ in range(6)]
            un = [int(rng.integers(0, 5)) for _ in range(6)]
            mu = np.bincount(um, minlength=5) / 6.0
            nu = np.bincount(un, minlength=5) / 6.0
            res = hm.w2_exact(mu, nu, dist)
            assert_allclose(res.value, permutation_oracle(um, un, dist), rtol=1e-10)

    def test_mass_mismatch(self):
        with pytest.raises(hm.TransportError):
            hm.w2_exact(np.array([0.6, 0.5]), np.array([0.5, 0.5]), PATH3[:2, :2])

    def test_negative_mass(self):
        with pytest.raises(hm.TransportError):
            hm.w2_exact(np.array([-0.1, 1.1]), np.array([0.5, 0.5]), PATH3[:2, :2])

    @pytest.mark.parametrize("dist, n", [(PATH3, 3), (circle_space(8), 8)], ids=["lp", "circle"])
    def test_zero_mass(self, dist, n):
        zero = np.zeros(n)
        with pytest.raises(hm.TransportError):
            hm.w2_exact(zero, zero, dist)

    def test_marginals_of_plan(self, rng):
        _, space = hm.model_circle(1.0, 12)
        mu = rng.random(12) + 0.05
        nu = rng.random(12) + 0.05
        mu, nu = mu / mu.sum(), nu / nu.sum()
        res = hm.w2_exact(mu, nu, space)
        assert res.plan.marginal_violation() < 1e-9
        assert res.plan.gamma.min() >= 0

    def test_degenerate_marginals_reinserted(self, rng):
        _, space = hm.model_circle(1.0, 10)
        mu = np.zeros(10)
        mu[[0, 4]] = 0.5
        nu = np.zeros(10)
        nu[[2, 7]] = 0.5
        res = hm.w2_exact(mu, nu, space)
        assert res.plan.gamma.shape == (10, 10)
        assert res.plan.marginal_violation() < 1e-12
        assert np.all(res.plan.gamma[1] == 0)

    def test_value_symmetry_exact(self, rng):
        _, space = hm.model_circle(1.0, 9)
        mu = rng.random(9) + 0.02
        nu = rng.random(9) + 0.02
        mu, nu = mu / mu.sum(), nu / nu.sum()
        assert hm.w2_exact(mu, nu, space).value == hm.w2_exact(nu, mu, space).value

    def test_triangle_inequality(self, rng):
        _, space = hm.model_circle(1.0, 8)
        for _ in range(6):
            a, b, c = (rng.random(8) + 0.05 for _ in range(3))
            a, b, c = a / a.sum(), b / b.sum(), c / c.sum()
            dab = hm.w2_exact(a, b, space).value
            dbc = hm.w2_exact(b, c, space).value
            dac = hm.w2_exact(a, c, space).value
            assert dac <= dab + dbc + 1e-8


class TestDuality:
    def test_certificate_on_random_instances(self, rng):
        _, space = hm.model_circle(2.0, 16)
        for _ in range(8):
            mu = rng.random(16) + 0.01
            nu = rng.random(16) + 0.01
            mu, nu = mu / mu.sum(), nu / nu.sum()
            res = hm.w2_exact(mu, nu, space)
            gap = hm.dual_gap(mu, nu, res.value, res.potentials, dist=space.dist)
            assert -1e-10 <= gap <= 1e-8
            assert res.potentials.feasibility_violation(space.dist) <= 1e-10

    def test_potentials_are_c_concave(self, rng):
        _, space = hm.model_circle(2.0, 12)
        mu = rng.random(12) + 0.01
        nu = rng.random(12) + 0.01
        mu, nu = mu / mu.sum(), nu / nu.sum()
        pot = hm.w2_exact(mu, nu, space).potentials
        back = hm.c_transform(pot.phi_c, space.dist)
        assert np.abs(back - pot.phi).max() < 1e-12

    def test_zero_potentials_on_delta_pair(self):
        _, space = hm.model_circle(2 * np.pi, 8)
        mu, nu = space.delta(0), space.delta(3)
        d = space.dist[0, 3]
        phi = np.zeros(8)
        pots = hm.DualPotentials(phi, hm.c_transform(phi, space.dist))
        gap = hm.dual_gap(mu, nu, d, pots, dist=space.dist)
        assert_allclose(gap, d**2 / 2, rtol=1e-12)

    def test_gauge_invariance(self, rng):
        _, space = hm.model_circle(2.0, 10)
        mu = rng.random(10) + 0.01
        nu = rng.random(10) + 0.01
        mu, nu = mu / mu.sum(), nu / nu.sum()
        res = hm.w2_exact(mu, nu, space)
        shifted = hm.DualPotentials(res.potentials.phi + 0.37, res.potentials.phi_c - 0.37)
        g0 = hm.dual_gap(mu, nu, res.value, res.potentials, dist=space.dist)
        g1 = hm.dual_gap(mu, nu, res.value, shifted, dist=space.dist)
        assert abs(g0 - g1) < 1e-13

    def test_infeasible_potentials_rejected(self):
        _, space = hm.model_circle(1.0, 8)
        bad = hm.DualPotentials(np.full(8, 10.0), np.full(8, 10.0))
        with pytest.raises(hm.TransportError):
            hm.dual_gap(space.delta(0), space.delta(1), 0.1, bad, dist=space.dist)

    @pytest.mark.parametrize("dist", [np.ones((3, 3)), np.ones((8, 7)), np.ones(8)],
                             ids=["wrong-size", "non-square", "vector"])
    def test_dist_shape_checked(self, dist):
        _, space = hm.model_circle(1.0, 8)
        res = hm.w2_exact(space.delta(0), space.delta(1), space)
        with pytest.raises(hm.TransportError, match="dist must be square on the marginals' space"):
            hm.dual_gap(space.delta(0), space.delta(1), res.value, res.potentials, dist=dist)


class TestCTransform:
    def test_zero_function(self):
        _, space = hm.model_circle(1.0, 8)
        assert np.abs(hm.c_transform(np.zeros(8), space.dist)).max() == 0.0

    def test_double_transform_dominates(self, rng):
        _, space = hm.model_circle(1.0, 12)
        phi = rng.normal(size=12)
        phi_cc = hm.c_transform(hm.c_transform(phi, space.dist), space.dist)
        assert np.all(phi_cc >= phi - 1e-14)

    def test_involution_for_small_smooth(self):
        _, space = hm.model_circle(2 * np.pi, 32)
        phi = 0.01 * np.sin(2 * np.pi * np.arange(32) / 32)
        phi_cc = hm.c_transform(hm.c_transform(phi, space.dist), space.dist)
        assert np.abs(phi_cc - phi).max() < 1e-9


# reference for w2_sinkhorn on selftest's fixture, seeds 0-39, from a
# log-domain solver that ran 400 sweeps at every stage above eps_final:
# seeds 1 and 2 raise SinkhornNonConvergence, the others give these values
SELFTEST_RAISING_SEEDS = [1, 2]
SELFTEST_SINKHORN_VALUES = {
    0: 0.07632685977151801, 3: 0.06435598602677077, 4: 0.04758534003131936,
    5: 0.08116126951528216, 6: 0.061354123729084185, 7: 0.06325521948564002,
    8: 0.04542982045912252, 9: 0.07661577815222828, 10: 0.06679238430638394,
    11: 0.05110855003065474, 12: 0.041684333531661406, 13: 0.05734615895873131,
    14: 0.04278729787615783, 15: 0.06337653290523843, 16: 0.04807524891677608,
    17: 0.05021066318424043, 18: 0.049977093538707655, 19: 0.04646895859499833,
    20: 0.05165731830333587, 21: 0.043631973284998835, 22: 0.07647811368961928,
    23: 0.04762144249083485, 24: 0.03566857361706395, 25: 0.080697933801222,
    26: 0.05397157985285095, 27: 0.04461483051964247, 28: 0.06465460167414394,
    29: 0.08873135453676152, 30: 0.0501633752571712, 31: 0.05464928773018116,
    32: 0.049196136973303606, 33: 0.06808927946388182, 34: 0.04504674602197925,
    35: 0.051069329104934544, 36: 0.0485676490783893, 37: 0.05575155284957383,
    38: 0.04282043043241924, 39: 0.047040650962314315,
}


def selftest_sinkhorn_fixture(seed):
    """selftest's Sinkhorn comparison: a seeded pair on the 16-point circle
    of circumference 1, at eps_final = 1e-3 max d^2."""
    rng = np.random.default_rng(seed)
    mu = rng.random(16) + 0.05
    nu = rng.random(16) + 0.05
    _, space = hm.model_circle(1.0, 16)
    return mu / mu.sum(), nu / nu.sum(), space.dist, 1e-3 * space.dist.max() ** 2


class TestSinkhorn:
    def test_against_exact(self, rng):
        _, space = hm.model_circle(1.0, 16)
        mu = rng.random(16) + 0.05
        nu = rng.random(16) + 0.05
        mu, nu = mu / mu.sum(), nu / nu.sum()
        exact = hm.w2_exact(mu, nu, space).value
        approx, _ = hm.w2_sinkhorn(mu, nu, space.dist, eps_final=1e-3 * space.dist.max() ** 2)
        assert abs(approx - exact) / exact <= 0.01

    def test_symmetry_exact(self, rng):
        _, space = hm.model_circle(1.0, 12)
        mu = rng.random(12) + 0.05
        nu = rng.random(12) + 0.05
        mu, nu = mu / mu.sum(), nu / nu.sum()
        eps = 1e-3 * space.dist.max() ** 2
        assert (hm.w2_sinkhorn(mu, nu, space.dist, eps)[0]
                == hm.w2_sinkhorn(nu, mu, space.dist, eps)[0])

    def test_swapped_arguments_transpose_the_plan(self):
        _, space = hm.model_circle(1.0, 12)
        k = np.arange(12)
        mu = 1 + 0.5 * np.sin(2 * np.pi * k / 12)
        nu = 1 + 0.5 * np.cos(2 * np.pi * k / 12)
        mu, nu = mu / mu.sum(), nu / nu.sum()
        eps = 1e-3 * space.dist.max() ** 2
        v1, info1 = hm.w2_sinkhorn(mu, nu, space.dist, eps)
        v2, info2 = hm.w2_sinkhorn(nu, mu, space.dist, eps)
        assert v1 == v2
        assert np.array_equal(info2["plan"].gamma, info1["plan"].gamma.T)
        assert max(info1["marginal_violation"], info2["marginal_violation"]) <= 1e-8

    def test_self_transport_bias(self, rng):
        _, space = hm.model_circle(1.0, 16)
        mu = rng.random(16) + 0.05
        mu /= mu.sum()
        val, info = hm.w2_sinkhorn(mu, mu, space.dist, 1e-3 * space.dist.max() ** 2)
        assert val <= info["bias_bound"]
        assert info["marginal_violation"] <= 1e-8

    def test_parameter_guards(self):
        _, space = hm.model_circle(1.0, 8)
        mu = np.full(8, 1 / 8)
        with pytest.raises(hm.TransportError):
            hm.w2_sinkhorn(mu, mu, space.dist, eps_final=0.0)

    @pytest.mark.parametrize("dist", [np.ones((3, 3)), np.ones((16, 3))],
                             ids=["wrong-size", "non-square"])
    def test_dist_shape_checked(self, dist):
        mu = np.full(16, 1 / 16)
        with pytest.raises(hm.TransportError, match="dist must be square on the marginals' space"):
            hm.w2_sinkhorn(mu, mu, dist, 0.1)

    def test_nonconvergence_signalled(self, rng, monkeypatch):
        # the default cap and tolerance converge on this fixture even at tiny
        # epsilon, so the raise is reached by starving the final stage
        monkeypatch.setattr(transport, "SINKHORN_MAX_ITER", 1)
        monkeypatch.setattr(transport, "SINKHORN_MARGINAL_TOL", 1e-12)
        _, space = hm.model_circle(1.0, 12)
        mu = rng.random(12) + 0.05
        nu = rng.random(12) + 0.05
        mu, nu = mu / mu.sum(), nu / nu.sum()
        with pytest.raises(hm.SinkhornNonConvergence):
            hm.w2_sinkhorn(mu, nu, space.dist, 1e-5 * space.dist.max() ** 2)

    def test_selftest_seeds_match_the_log_domain_solver(self):
        raising = []
        for seed in range(40):
            mu, nu, dist, eps = selftest_sinkhorn_fixture(seed)
            try:
                value, _ = hm.w2_sinkhorn(mu, nu, dist, eps)
            except hm.SinkhornNonConvergence:
                raising.append(seed)
                continue
            assert_allclose(value, SELFTEST_SINKHORN_VALUES[seed], rtol=1e-6)
        assert raising == SELFTEST_RAISING_SEEDS

    def test_stages_stop_at_the_tolerance(self):
        # 400 sweeps at each of the ten stages above eps_final took 4,400
        _, info = hm.w2_sinkhorn(*selftest_sinkhorn_fixture(0))
        assert info["sweeps"] <= 1600

    def test_bracket_holds_the_exact_value(self):
        circle = circle_space(16)
        for seed in sorted(SELFTEST_SINKHORN_VALUES)[:16]:
            mu, nu, dist, eps = selftest_sinkhorn_fixture(seed)
            value, info = hm.w2_sinkhorn(mu, nu, dist, eps)
            _, swapped = hm.w2_sinkhorn(nu, mu, dist, eps)
            lower, upper = info["bracket"]
            assert lower <= hm.w2_exact(mu, nu, circle).value <= upper == value
            assert upper - lower <= 0.03 * value
            assert swapped["bracket"] == info["bracket"]

    @pytest.mark.parametrize("eps_rel", [1e-2, 1e-3])
    def test_masses_spanning_twelve_decades(self, eps_rel):
        # the bracket closes on point masses, where it holds to rounding;
        # warnings are errors, so an overflow of the scalings would fail too
        _, space = hm.model_circle(1.0, 16)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mu = 10.0 ** rng.uniform(-12, 0, 16)
            nu = 10.0 ** rng.uniform(-12, 0, 16)
            mu, nu = mu / mu.sum(), nu / nu.sum()
            value, info = hm.w2_sinkhorn(mu, nu, space.dist, eps_rel * space.dist.max() ** 2)
            exact = hm.w2_exact(mu, nu, space).value
            lower, upper = info["bracket"]
            assert np.isfinite([value, lower, upper]).all()
            assert lower <= exact * (1 + 1e-12) and exact <= upper * (1 + 1e-12)
            assert info["marginal_violation"] <= 1e-8


# the dist argument of each transport path case: only a space with one
# periodic axis takes the circle path, whatever the values of its metric
PATH_CASES = {
    "model_circle": lambda: circle_space(16, 2 * np.pi),
    "bare_dist": lambda: circle_space(16, 2 * np.pi).dist,
    "uniform_ring": lambda: uniform_ring(16),
    "triangle": lambda: np.ones((3, 3)) - np.eye(3),
    "sub_circle": lambda: circle_space(8).dist[:6, :6].copy(),
    "uneven_cycle": lambda: hm.build_space(
        6, [(i, (i + 1) % 6, 1.5 if i == 5 else 1.0) for i in range(6)], np.ones(6)),
    "torus": lambda: hm.model_torus(2 * np.pi, 2 * np.pi, 8, 8)[1],
}


class TestCirclePath:
    """The periodic quantile coupling taken on equispaced circle metrics,
    checked against the HiGHS oracle and its own certificate."""

    @pytest.mark.parametrize("n", [8, 16, 33])
    def test_random_against_lp_oracle(self, n):
        rng = np.random.default_rng(n)
        space = circle_space(n)
        for trial in range(6):
            mu, nu = rng.random(n), rng.random(n)
            if trial % 2:
                mu[rng.random(n) < 0.4] = 0.0
                nu[rng.random(n) < 0.4] = 0.0
                mu[0] += 0.1
                nu[n // 2] += 0.1
            mu, nu = mu / mu.sum(), nu / nu.sum()
            res = hm.w2_exact(mu, nu, space)
            assert_allclose(res.value, lp_oracle(mu, nu, space.dist), rtol=1e-9)
            assert_certified(res, mu, nu, space.dist)

    @pytest.mark.parametrize("n", [8, 16, 33])
    def test_translate(self, n):
        rng = np.random.default_rng(100 + n)
        space = circle_space(n)
        mu = rng.random(n)
        mu /= mu.sum()
        for shift in (1, n // 2, n - 1):
            nu = np.roll(mu, shift)
            res = hm.w2_exact(mu, nu, space)
            assert_allclose(res.value, lp_oracle(mu, nu, space.dist), rtol=1e-9)
            assert_certified(res, mu, nu, space.dist)
        res = hm.w2_exact(mu, mu, space)
        assert res.value == 0.0
        assert np.abs(res.plan.gamma[~np.eye(n, dtype=bool)]).max() == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.sampled_from([8, 16, 33]), seed=st.integers(0, 2**32 - 1),
           zeros=st.booleans())
    def test_masses_spanning_twelve_decades(self, n, seed, zeros):
        # the oracle's feasibility tolerance is absolute, so it blurs masses
        # below 1e-10 and drifts up to ~5e-9 relative here; the certificate
        # (gap, feasibility, marginals) is the tight check
        rng = np.random.default_rng(seed)
        mu = 10.0 ** rng.uniform(-12, 0, n)
        nu = 10.0 ** rng.uniform(-12, 0, n)
        if zeros:
            mu[rng.random(n) < 0.3] = 0.0
            nu[rng.random(n) < 0.3] = 0.0
            mu[rng.integers(n)] += 0.5
            nu[rng.integers(n)] += 0.5
        mu, nu = mu / mu.sum(), nu / nu.sum()
        space = circle_space(n)
        res = hm.w2_exact(mu, nu, space)
        assert_allclose(res.value, lp_oracle(mu, nu, space.dist), rtol=2e-8)
        assert_certified(res, mu, nu, space.dist)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.sampled_from([8, 16, 33, 256]), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["decades", "zeros", "ties"]))
    def test_potentials_match_the_staircase_loop(self, n, seed, kind):
        # the telescoping sum gives the loop's potentials bit for bit, and so
        # the same plan, value and c-transforms
        rng = np.random.default_rng(seed)
        mu = 10.0 ** rng.uniform(-12, 0, n)
        nu = 10.0 ** rng.uniform(-12, 0, n)
        if kind == "zeros":
            mu[rng.random(n) < 0.3] = 0.0
            nu[rng.random(n) < 0.3] = 0.0
            mu[rng.integers(n)] += 0.5
            nu[rng.integers(n)] += 0.5
        elif kind == "ties":  # quantile levels of the two measures coincide
            mu = np.ones(n)
            nu = np.roll(np.where(rng.random(n) < 0.5, 1.0, 3.0), rng.integers(n))
        mu, nu = mu / mu.sum(), nu / nu.sum()
        space = circle_space(n)
        summed = hm.w2_exact(mu, nu, space)
        staircases = []

        def loop(X, Y):
            staircases.append(len(X))
            return staircase_loop(X, Y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, "_staircase_potentials", loop)
            looped = hm.w2_exact(mu, nu, space)
        assert staircases
        assert summed.value == looped.value
        for got, want in ((summed.plan.gamma, looped.plan.gamma),
                          (summed.potentials.phi, looped.potentials.phi),
                          (summed.potentials.phi_c, looped.potentials.phi_c)):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(na=st.integers(1, 20), nb=st.integers(1, 20),
           seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    def test_monotone_segments(self, na, nb, seed, ties):
        rng = np.random.default_rng(seed)
        a = 10.0 ** rng.uniform(-12, 0, na)
        b = a.copy() if ties else 10.0 ** rng.uniform(-12, 0, nb)
        a, b = a / a.sum(), b / b.sum()
        i, j, m = transport._monotone_segments(a, b)
        assert np.all(np.diff(i) >= 0) and np.all(np.diff(j) >= 0)
        assert np.all(m >= 0)
        # every piece but each side's last keeps its mass to relative
        # rounding; the last ones absorb the totals' rounding difference
        for piece, mass in ((i, a), (j, b)):
            sums = np.bincount(piece, weights=m, minlength=len(mass))
            assert_allclose(sums[:-1], mass[:-1], rtol=1e-12, atol=0)
            assert_allclose(sums[-1], mass[-1], rtol=0, atol=1e-14)

    def test_mass_mismatch_within_tolerance(self):
        # totals may differ by MASS_TOL; both level sets must share one period
        rng = np.random.default_rng(11)
        for n in (8, 16, 33):
            space = circle_space(n)
            for excess in (9e-10, -9e-10):
                mu, nu = rng.random(n), rng.random(n)
                mu, nu = mu / mu.sum(), nu / nu.sum() * (1 + excess)
                res = hm.w2_exact(mu, nu, space)
                assert_certified(res, mu, nu, space.dist, marginal_tol=1e-9)
                same_total = nu * (mu.sum() / nu.sum())
                assert_allclose(res.value, lp_oracle(mu, same_total, space.dist), rtol=1e-8)

    def test_heat_offsets_n64_against_oracle(self):
        space, rows = heat_rows(64, 0.1, range(33))
        for k in range(1, 33):
            res = hm.w2_exact(rows[0], rows[k], space)
            assert_allclose(res.value, lp_oracle(rows[0], rows[k], space.dist), rtol=1e-9)
            assert_certified(res, rows[0], rows[k], space.dist)

    @pytest.mark.parametrize("n", [128, 256])
    def test_heat_offsets_certified(self, n):
        space, rows = heat_rows(n, 0.1, range(n // 2 + 1))
        for k in range(1, n // 2 + 1):
            res = hm.w2_exact(rows[0], rows[k], space)
            assert_certified(res, rows[0], rows[k], space.dist)
            if n == 128 and k in (3, 40, 64):
                assert_allclose(res.value, lp_oracle(rows[0], rows[k], space.dist), rtol=1e-9)

    def test_value_symmetry_exact(self):
        space, rows = heat_rows(64, 0.1, [0, 5, 32])
        rng = np.random.default_rng(7)
        pairs = [(rows[0], rows[1]), (rows[1], rows[2])]
        for _ in range(4):
            a, b = rng.random(64), rng.random(64)
            pairs.append((a / a.sum(), b / b.sum()))
        for mu, nu in pairs:
            assert hm.w2_exact(mu, nu, space).value == hm.w2_exact(nu, mu, space).value

    @staticmethod
    def _check_path(case, monkeypatch):
        # the path's value matches the oracle, lone and batched; on the circle
        # cases it also matches the other path's value on the same measures
        model = circle_space(16, 2 * np.pi)
        dist = PATH_CASES[case]()
        matrix = getattr(dist, "dist", dist)
        rng = np.random.default_rng(3)
        mu, nu = rng.random(len(matrix)) + 0.05, rng.random(len(matrix)) + 0.05
        mu, nu = mu / mu.sum(), nu / nu.sum()
        circle = case == "model_circle"
        other = {"model_circle": model.dist, "bare_dist": model, "uniform_ring": model}.get(case)
        reference = None if other is None else hm.w2_exact(mu, nu, other).value

        def refuse(*args):
            raise AssertionError(f"{'LP' if circle else 'circle path'} reached on {case}")

        monkeypatch.setattr(transport, "_CouplingLP" if circle else "_solve_circle", refuse)
        res = hm.w2_exact(mu, nu, dist)
        assert_allclose(transport._w2_exact_batch([(mu, nu), (nu, mu)], dist), res.value,
                        rtol=1e-12)
        assert_allclose(res.value, lp_oracle(mu, nu, matrix), rtol=1e-6)
        if reference is not None:
            assert_allclose(res.value, reference, rtol=1e-9)

    def test_circle_metric_never_reaches_the_lp(self, monkeypatch):
        self._check_path("model_circle", monkeypatch)

    @pytest.mark.parametrize("case", [case for case in PATH_CASES if case != "model_circle"])
    def test_other_metrics_take_the_lp(self, case, monkeypatch):
        self._check_path(case, monkeypatch)


def first_of_each_pair(edges):
    """The edges without repeats: build_space rejects a pair given twice, so
    only the first edge drawn between two points is kept."""
    kept = {}
    for i, j, ell in edges:
        kept.setdefault(frozenset((i, j)), (i, j, ell))
    return list(kept.values())


def random_graph_dist(rng, n):
    """Metric of a random connected graph: a random spanning tree plus up to
    n extra edges, lengths uniform in [0.5, 2]."""
    edges = [(int(rng.integers(k)), k, rng.uniform(0.5, 2.0)) for k in range(1, n)]
    for _ in range(n):
        i, j = rng.choice(n, 2, replace=False)
        edges.append((int(i), int(j), rng.uniform(0.5, 2.0)))
    return hm.build_space(n, first_of_each_pair(edges), np.ones(n)).dist


class TestLPPath:
    """The HiGHS coupling LP taken on every metric that is not a circle, lone
    and batched, checked against the oracle."""

    def test_path_metric_tiny_masses(self):
        # at HiGHS's default 1e-7 feasibility tolerance 63 of these seeds
        # failed: 53 on the certificate, 10 as "infeasible" under presolve
        dist = np.abs(np.subtract.outer(np.arange(16), np.arange(16))).astype(float)
        pairs = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            mu, nu = rng.random(16) ** 8, rng.random(16) ** 8
            pairs.append((mu / mu.sum(), nu / nu.sum()))
        oracle = [lp_oracle(mu, nu, dist) for mu, nu in pairs]
        lone = [hm.w2_exact(mu, nu, dist).value for mu, nu in pairs]
        assert_allclose(lone, oracle, rtol=1e-9)
        assert_allclose(transport._w2_exact_batch(pairs, dist), oracle, rtol=1e-9)

    @settings(max_examples=70, deadline=None, derandomize=True)
    @given(n=st.integers(4, 14), seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
    def test_random_graph_batch_masses_spanning_twelve_decades(self, n, seed, zeros):
        rng = np.random.default_rng(seed)
        dist = random_graph_dist(rng, n)
        pairs = []
        for _ in range(16):
            mu = 10.0 ** rng.uniform(-12, 0, n)
            nu = 10.0 ** rng.uniform(-12, 0, n)
            if zeros:  # a new support pair rebuilds the model
                mu[rng.random(n) < 0.3] = 0.0
                nu[rng.random(n) < 0.3] = 0.0
                mu[rng.integers(n)] += 0.5
                nu[rng.integers(n)] += 0.5
            pairs.append((mu / mu.sum(), nu / nu.sum()))
        values = transport._w2_exact_batch(pairs, dist)
        oracle = [lp_oracle(mu, nu, dist) for mu, nu in pairs]
        assert_allclose(values, oracle, rtol=1e-6)
        # no state leaks between batches, and each solve is canonical
        assert transport._w2_exact_batch(pairs, dist).tolist() == values.tolist()
        swapped = [(nu, mu) for mu, nu in pairs]
        assert transport._w2_exact_batch(swapped, dist).tolist() == values.tolist()

    def test_mass_mismatch_within_tolerance(self):
        # totals may differ by MASS_TOL, but the LP's equality rows admit no
        # mismatch: the second measure of the canonical order is scaled to the
        # first's total, lone and batched, and certified as the scaled pair
        rng = np.random.default_rng(11)
        path16 = np.abs(np.subtract.outer(np.arange(16), np.arange(16))).astype(float)
        for dist in (path16, PATH3):
            n = len(dist)
            pairs, oracle = [], []
            for excess in (9e-10, -9e-10):
                mu, nu = rng.random(n), rng.random(n)
                mu, nu = mu / mu.sum(), nu / nu.sum() * (1 + excess)
                if transport._canonical_swap(mu, nu):
                    mu, nu = nu, mu
                same_total = nu * (mu.sum() / nu.sum())
                res = hm.w2_exact(mu, nu, dist)
                assert_certified(res, mu, same_total, dist, marginal_tol=1e-9)
                pairs.append((mu, nu))
                oracle.append(lp_oracle(mu, same_total, dist))
                assert_allclose(res.value, oracle[-1], rtol=1e-8)
            assert_allclose(transport._w2_exact_batch(pairs, dist), oracle, rtol=1e-8)

    def test_batch_matches_lone_solves(self, torus8):
        _, space, hs = torus8
        rows = [hm.heat_apply(hs, 0.2, space.delta(x)) for x in (0, 9, 27, 63)]
        pairs = [(rows[0], rows[k]) for k in (1, 2, 3)] + [(rows[2], rows[1])]
        lone = [hm.w2_exact(mu, nu, space.dist).value for mu, nu in pairs]
        assert_allclose(transport._w2_exact_batch(pairs, space.dist), lone, rtol=1e-12)

    @staticmethod
    def _graph_batch(count):
        rng = np.random.default_rng(5)
        dist = random_graph_dist(rng, 10)
        pairs = []
        for _ in range(count):
            mu, nu = rng.random(10), rng.random(10)
            pairs.append((mu / mu.sum(), nu / nu.sum()))
        return pairs, dist

    @staticmethod
    def _heat_measures(count):
        """Heat measures of count points on a random 12-point graph, t = 0.5."""
        rng = np.random.default_rng(17)
        edges = [(int(rng.integers(k)), k, rng.uniform(0.5, 2.0)) for k in range(1, 12)]
        edges += [(k, (k + 5) % 12, rng.uniform(0.5, 2.0)) for k in range(12)]
        space = hm.build_space(12, first_of_each_pair(edges), 10.0 ** rng.uniform(-1, 1, 12))
        hs = hm.spectral_decompose(space)
        return [hm.heat_apply(hs, 0.5, space.delta(x)) for x in range(count)], space.dist

    @pytest.mark.parametrize("shape", ["star", "all-pairs"])
    def test_walk_matches_lone_solves_and_the_oracle(self, shape):
        measures, dist = self._heat_measures(9)
        if shape == "star":  # every pair shares one measure, on either side
            pairs = [(measures[4], m) if k % 2 else (m, measures[4])
                     for k, m in enumerate(measures) if k != 4]
        else:
            pairs = list(itertools.combinations(measures, 2))
        values = transport._w2_exact_batch(pairs, dist)
        assert_allclose(values, [hm.w2_exact(mu, nu, dist).value for mu, nu in pairs],
                        rtol=1e-12)
        assert_allclose(values, [lp_oracle(mu, nu, dist) for mu, nu in pairs], rtol=1e-9)

    def test_walk_bits_do_not_depend_on_the_pair_order(self):
        measures, dist = self._heat_measures(9)
        pairs = list(itertools.combinations(measures, 2))
        values = transport._w2_exact_batch(pairs, dist)
        rng = np.random.default_rng(2)
        perm = rng.permutation(len(pairs))
        flip = rng.random(len(pairs)) < 0.5
        shuffled = [pairs[k][::-1] if f else pairs[k] for k, f in zip(perm, flip)]
        assert transport._w2_exact_batch(shuffled, dist).tolist() == values[perm].tolist()
        # a repeated pair is solved once, so it cannot move the others
        repeated = pairs + [pairs[3][::-1], pairs[20]]
        assert (transport._w2_exact_batch(repeated, dist).tolist()
                == values.tolist() + [values[3], values[20]])

    def test_walk_changes_one_marginal_per_warm_start(self, monkeypatch):
        # within a chunk the row marginal changes only where the row measure
        # switches, at most count - 2 times over an all-pairs batch; every
        # other warm start rewrites only column rows
        count = 9
        measures, dist = self._heat_measures(count)
        pairs = list(itertools.combinations(measures, 2))
        log = []

        class Recording(highs._Highs):
            def changeRowBounds(self, row, lower, upper):
                log.append((self, row))  # holds the model, so its id stays its own
                return super().changeRowBounds(row, lower, upper)

            def run(self):
                log.append((self, None))
                return super().run()

        monkeypatch.setattr(transport, "_cores", lambda: 1)
        monkeypatch.setattr(highs, "_Highs", Recording)
        transport._w2_exact_batch(pairs, dist)
        solves = {}
        for model, row in log:
            rows = solves.setdefault(id(model), [[]])
            if row is None:
                rows.append([])
            else:
                rows[-1].append(row)
        assert len(solves) == transport._BATCH_CHUNKS
        n = len(dist)
        warm = [rows for chunk in solves.values() for rows in chunk[1:-1]]
        assert len(warm) == len(pairs) - transport._BATCH_CHUNKS
        assert all(rows for rows in warm) and all(len(set(r)) == len(r) for r in warm)
        assert sum(min(rows) < n for rows in warm) <= count - 2

    def test_batch_of_one_is_the_lone_solve(self):
        measures, dist = self._heat_measures(2)
        for mu, nu in (measures, measures[::-1]):
            lone = hm.w2_exact(mu, nu, dist)
            assert transport._w2_exact_batch([(mu, nu)], dist).tolist() == [lone.value]
            back = hm.w2_exact(nu, mu, dist)
            assert back.value == lone.value
            assert back.plan.gamma.tolist() == lone.plan.gamma.T.tolist()
            assert back.potentials.phi.tolist() == lone.potentials.phi_c.tolist()
            assert back.potentials.phi_c.tolist() == lone.potentials.phi.tolist()

    def test_batch_bits_do_not_depend_on_the_cores(self, monkeypatch):
        pairs, dist = self._graph_batch(11)
        values = []
        for cores in (1, 2):
            monkeypatch.setattr(transport, "_cores", lambda: cores)
            values.append(transport._w2_exact_batch(pairs, dist).tolist())
        assert values[0] == values[1]
        oracle = [lp_oracle(mu, nu, dist) for mu, nu in pairs]
        assert_allclose(values[0], oracle, rtol=1e-9)

    @staticmethod
    def _count_workers(monkeypatch, cores):
        """Record the worker count of every thread pool a batch opens, and the
        threads its solves run on."""
        pools, threads = [], set()
        solve = transport._Batch.solve

        class Counted(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        def recorded(batch, mu, nu):
            threads.add(threading.current_thread())
            return solve(batch, mu, nu)

        monkeypatch.setattr(transport, "_cores", lambda: cores)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(transport._Batch, "solve", recorded)
        return pools, threads

    @pytest.mark.parametrize("count, workers", [(0, 0), (1, 0), (3, 3), (11, 4)])
    def test_batch_helper_threads(self, monkeypatch, count, workers):
        # an LP batch of c chunks on k cores runs min(c, k) workers when that
        # is above one, and otherwise runs its chunks in the calling thread
        self._check_workers(monkeypatch, count, 8, workers)

    @pytest.mark.parametrize("cores, workers", [(1, 0), (2, 2), (3, 3)])
    def test_batch_workers_at_most_the_cores(self, monkeypatch, cores, workers):
        self._check_workers(monkeypatch, 11, cores, workers)

    def _check_workers(self, monkeypatch, count, cores, workers):
        pools, threads = self._count_workers(monkeypatch, cores)
        pairs, dist = self._graph_batch(count)
        assert transport._w2_exact_batch(pairs, dist).shape == (count,)
        assert pools == ([workers] if workers else [])
        if count and not workers:
            assert threads == {threading.current_thread()}
        elif workers:
            assert threading.current_thread() not in threads

    def test_circle_batch_starts_no_worker(self, monkeypatch):
        pools, threads = self._count_workers(monkeypatch, 8)
        space, rows = heat_rows(32, 0.1, range(12))
        pairs = [(rows[0], rows[k]) for k in range(1, 12)]
        values = transport._w2_exact_batch(pairs, space)
        assert pools == [] and threads == {threading.current_thread()}
        assert values.tolist() == [hm.w2_exact(mu, nu, space).value for mu, nu in pairs]

    @pytest.mark.parametrize("circle", [False, True], ids=["lp", "circle"])
    def test_batch_squares_the_metric_once(self, monkeypatch, circle):
        # every chunk shares one d^2 and one d^2/2, which none writes
        shared, init = [], transport._Batch.__init__

        def recorded(batch, cost, half, h):
            init(batch, cost, half, h)
            shared.append((batch.cost, batch.half))

        monkeypatch.setattr(transport._Batch, "__init__", recorded)
        if circle:
            dist, rows = heat_rows(32, 0.1, range(9))
            pairs = [(rows[0], rows[k]) for k in range(1, 9)]
            matrix = dist.dist
        else:
            pairs, dist = self._graph_batch(8)
            matrix = dist
        before = matrix.copy()
        transport._w2_exact_batch(pairs, dist)
        assert len(shared) == transport._BATCH_CHUNKS
        cost, half = shared[0]
        assert all(c is cost and hh is half for c, hh in shared)
        assert cost.tobytes() == (matrix**2).tobytes()
        assert half.tobytes() == (0.5 * matrix**2).tobytes()
        assert matrix.tobytes() == before.tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_bad_pair_in_the_last_chunk(self, monkeypatch, cores):
        monkeypatch.setattr(transport, "_cores", lambda: cores)
        third = np.full(3, 1 / 3)
        with pytest.raises(hm.TransportError, match="dist must be square"):
            transport._w2_exact_batch([(third, third)] * 8 + [(np.ones(2) / 2,) * 2], PATH3)
        with pytest.raises(hm.TransportError, match="negative masses"):
            transport._w2_exact_batch([(third, third)] * 8 + [(-third, third)], PATH3)

    def test_batch_stress_more_workers_than_cores(self, monkeypatch):
        # every chunk is taken exactly once and every value lands, with four
        # workers on a short switch interval
        pairs, dist = self._graph_batch(9)
        monkeypatch.setattr(transport, "_cores", lambda: 1)
        serial = transport._w2_exact_batch(pairs, dist).tolist()
        init, taken = transport._Batch.__init__, []

        def counted(batch, cost, half, h):
            taken.append(1)
            init(batch, cost, half, h)

        monkeypatch.setattr(transport, "_cores", lambda: 4)
        monkeypatch.setattr(transport._Batch, "__init__", counted)
        interval, threads = sys.getswitchinterval(), threading.active_count()
        sys.setswitchinterval(1e-6)
        try:
            for rep in range(10):
                assert transport._w2_exact_batch(pairs, dist).tolist() == serial
                assert len(taken) == 4 * (rep + 1)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads  # every helper joined

    def test_helper_thread_error_reaches_the_caller(self, monkeypatch):
        solve = transport._Batch.solve

        def solve_or_fail(batch, mu, nu):
            if threading.current_thread() is not threading.main_thread():
                raise hm.SolverFailure("failed in a helper thread")
            return solve(batch, mu, nu)

        monkeypatch.setattr(transport, "_cores", lambda: 2)
        monkeypatch.setattr(transport._Batch, "solve", solve_or_fail)
        pairs, dist = self._graph_batch(8)
        with pytest.raises(hm.SolverFailure, match="failed in a helper thread"):
            transport._w2_exact_batch(pairs, dist)

    def test_batch_inputs(self):
        assert transport._w2_exact_batch([], PATH3).shape == (0,)
        third = np.full(3, 1 / 3)
        with pytest.raises(hm.TransportError, match="square"):
            transport._w2_exact_batch([(third, third), (np.ones(2) / 2, np.ones(2) / 2)], PATH3)
        with pytest.raises(hm.TransportError, match="negative"):
            transport._w2_exact_batch([(third, third), (-third, third)], PATH3)
