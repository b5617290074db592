import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_legendre, legendre_p_all

import heatmetric as hm
from heatmetric import tangent
from heatmetric.heat import sphere_kernel_coefficients


def _table_masses(geom, c):
    """Cell masses from scipy's table of P_0..P_{l_max+1} at the faces and
    the antiderivatives int P_l dx = (P_{l+1} - P_{l-1}) / (2l + 1),
    int P_0 dx = x."""
    xf = np.cos(geom.faces())
    Pf = legendre_p_all(geom.l_max + 1, xf)[0]
    anti = np.empty_like(Pf[:-1])
    anti[0] = xf
    for l in range(1, geom.l_max + 1):
        anti[l] = (Pf[l + 1] - Pf[l - 1]) / (2 * l + 1)
    return 2 * np.pi * geom.r**2 * (c @ (anti[:, :-1] - anti[:, 1:]))


def _max_relative(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestLegendreSums:
    """The sphere's Legendre series (numpy's Clenshaw sums) against scipy's
    independent tables of P_l and P_l'."""

    @pytest.mark.parametrize("l_max, n_theta", [(60, 128), (400, 4096)])
    @pytest.mark.parametrize("t", [0.05, 0.2])
    def test_matches_tables(self, l_max, n_theta, t):
        geom = hm.SphereGeometry(1.3, n_theta, l_max)
        c = sphere_kernel_coefficients(t, geom.r, l_max)
        theta = geom.nodes()
        x = np.cos(theta)
        # the nodes nearest the poles sit half a cell off them
        assert 1 - np.abs(x).max() < 2 / n_theta**2
        P, dP = legendre_p_all(l_max, x, diff_n=1)
        tangent._sphere_profiles.cache_clear()
        K, dK, masses = tangent._sphere_profiles(geom, t)
        assert _max_relative(K, tangent._floor_density(c @ P)) < 1e-14
        assert _max_relative(dK, -np.sin(theta) * (c @ dP)) < 1e-14
        assert _max_relative(hm.sphere_kernel(t, theta, geom.r, l_max), c @ P) < 1e-14
        assert _max_relative(masses, _table_masses(geom, c)) < 1e-11
        assert masses.sum() == pytest.approx(c[0] * 4 * np.pi * geom.r**2, rel=1e-13)

    def test_ring_coefficients(self):
        geom = hm.SphereGeometry(1.3, 128, 60)
        t, ls = 0.1, np.arange(geom.l_max + 1)
        kernel = sphere_kernel_coefficients(t, geom.r, geom.l_max)
        assert np.array_equal(hm.ZonalMeasure.heat_kernel(geom, t).coeffs, kernel)
        south = hm.ZonalMeasure.heat_kernel(geom, t, south=True).coeffs
        assert np.array_equal(south, (-1.0) ** ls * kernel)
        ring = hm.ZonalMeasure.ring(geom, 0.8).evolve(t).coeffs
        oracle = kernel * eval_legendre(ls, np.cos(0.8))
        assert _max_relative(ring, oracle) < 1e-14

    @pytest.mark.parametrize("length", [60, 62, 1])
    def test_zone_integrals_reject_wrong_length(self, length):
        geom = hm.SphereGeometry(1.0, 128, 60)
        with pytest.raises(hm.GeometryError, match=rf"l_max \+ 1 = 61 .*\({length},\)"):
            geom.zone_integrals(np.ones(length))


class TestSpherePathMemory:
    """No (l_max + 1) x n_theta array on the sphere path: at 4096/400 one
    table would take 13 MB, the streamed sums a few arrays of 33 kB."""

    GEOM = hm.SphereGeometry(1.0, 4096, 400)
    T = 0.05

    @staticmethod
    def _peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_sphere_profiles(self):
        tangent._sphere_profiles.cache_clear()
        assert self._peak_mb(lambda: tangent._sphere_profiles(self.GEOM, self.T)) < 2.0

    def test_zone_integrals(self):
        c = sphere_kernel_coefficients(self.T, self.GEOM.r, self.GEOM.l_max)
        assert self._peak_mb(lambda: self.GEOM.zone_integrals(c)) < 2.0

    def test_sphere_kernel(self):
        theta = self.GEOM.nodes()
        peak = self._peak_mb(lambda: hm.sphere_kernel(self.T, theta, 1.0, self.GEOM.l_max))
        assert peak < 2.0
