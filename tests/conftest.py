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


def uniform_ring(n, rotation=None):
    """The uniform n-cycle of circumference 2 pi, declaring its rotation by
    that many steps when one is given."""
    edges = [(i, (i + 1) % n, 2 * np.pi / n) for i in range(n)]
    symmetries = [] if rotation is None else [(np.arange(n) + rotation) % n]
    return hm.build_space(n, edges, np.ones(n), K=0.0, symmetries=symmetries)


def hypercube_with_translations(k):
    """The k-cube with unit edges, declaring its k coordinate flips x -> x ^ 2^b."""
    n = 1 << k
    edges = [(i, i ^ (1 << b), 1.0) for i in range(n) for b in range(k) if i < (i ^ (1 << b))]
    return hm.build_space(n, edges, np.ones(n), K=0.0,
                          symmetries=[np.arange(n) ^ (1 << b) for b in range(k)])


def glide_torus():
    """The 8x8 model torus declaring the glide (i, j) -> (i + 1, -j) and the
    translation (i, j) -> (i + 1, j). They commute and their orders multiply
    to 64, but the orbit of point 0 is the row j = 0: no translation group."""
    _, torus = hm.model_torus(2 * np.pi, 2 * np.pi, 8, 8)
    i, j = np.divmod(np.arange(64), 8)
    edges = [(a, b, ell) for (a, b), ell in zip(torus.edges.tolist(), torus.lengths)]
    return hm.build_space(64, edges, torus.measure, K=0.0, conductances=torus.conductances,
                          symmetries=[(i + 1) % 8 * 8 + -j % 8, (i + 1) % 8 * 8 + j])


# spaces with a translation group, by name
TRANSLATION_GRIDS = {
    **{f"circle{n}": (lambda n=n: hm.model_circle(2 * np.pi, n)[1])
       for n in (8, 9, 24, 255, 256, 512)},
    **{f"torus{a}x{b}": (lambda a=a, b=b: hm.model_torus(2 * np.pi, 2 * np.pi, a, b)[1])
       for a, b in ((8, 8), (12, 16), (9, 15))},
    "cube4": lambda: hypercube_with_translations(4),
}
