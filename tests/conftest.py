import numpy as np
import pytest

import heatmetric as hm
from heatmetric import tangent


@pytest.fixture(scope="session")
def two_point():
    """Two points, unit conductance, m = (1, 1), distance 1: lambda = {0, 2}."""
    space = hm.build_space(2, [(0, 1, 1.0)], [1.0, 1.0], K=0.0, conductances=[1.0])
    return space, hm.spectral_decompose(space)


@pytest.fixture(scope="session")
def two_point_scaled():
    """Same generator but edge length a = 2.5: dtilde_t = a e^{-t}."""
    space = hm.build_space(2, [(0, 1, 2.5)], [1.0, 1.0], K=0.0, conductances=[1.0])
    return space, hm.spectral_decompose(space)


@pytest.fixture(scope="session")
def circle16():
    geom, space = hm.model_circle(2 * np.pi, 16)
    return geom, space, hm.spectral_decompose(space)


@pytest.fixture(scope="session")
def circle24():
    geom, space = hm.model_circle(2 * np.pi, 24)
    return geom, space, hm.spectral_decompose(space)


@pytest.fixture(scope="session")
def torus8():
    geom, space = hm.model_torus(2 * np.pi, 2 * np.pi, 8, 8)
    return geom, space, hm.spectral_decompose(space)


@pytest.fixture()
def uncertified_poisson(monkeypatch):
    """Every periodic-grid Poisson solve returns phi scaled by 1.001, so its
    residual is 1e-3."""
    solve = tangent._solve_deflated

    def perturbed(A, rhs, weights):
        phi = 1.001 * solve(A, rhs, weights)[0]
        return phi, float(np.linalg.norm(A @ phi - rhs) / np.linalg.norm(rhs))

    monkeypatch.setattr(tangent, "_solve_deflated", perturbed)


def complete_graph_space(n):
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    return hm.build_space(n, edges, np.ones(n), K=0.0)


def hypercube_space(k):
    n = 1 << k
    edges = [(i, i ^ (1 << b), 1.0) for i in range(n) for b in range(k) if i < (i ^ (1 << b))]
    return hm.build_space(n, edges, np.ones(n), K=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240813)
