import numpy as np
import pytest

import heatmetric as hm
from heatmetric import flow, tangent


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
    """Every Poisson solve (each periodic axis and the sphere's mode) returns
    its tridiagonal solution scaled by 1.001, so its residual is 1e-3."""
    solve = tangent._solve_tridiagonal

    def perturbed(lower, diag, upper, rhs):
        return 1.001 * solve(lower, diag, upper, rhs)

    monkeypatch.setattr(tangent, "_solve_tridiagonal", perturbed)


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


def counted_batch(monkeypatch, solve=True):
    """Patch flow's transport batch to record the number of pairs of each
    call; with solve=False it returns zeros instead of solving."""
    counts = []
    original = flow._w2_exact_batch

    def counted(pairs, dist):
        counts.append(len(pairs))
        return original(pairs, dist) if solve else np.zeros(len(pairs))

    monkeypatch.setattr(flow, "_w2_exact_batch", counted)
    return counts
