"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import strategies as st

from propclust import Instance


def random_instance(rng, n_max=12, modes=("unconstrained", "discrete")):
    """A small random instance with deliberate tie opportunities.

    Points are drawn on an integer lattice 20% of the time so that
    coincident points and repeated distances show up regularly.
    """
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, min(n, 6) + 1))
    dim = int(rng.integers(1, 4))
    if rng.random() < 0.2:
        pts = rng.integers(0, 4, size=(n, dim)).astype(float)
    else:
        pts = rng.normal(size=(n, dim))
    metric = "euclidean" if rng.random() < 0.7 else "manhattan"
    mode = modes[int(rng.integers(0, len(modes)))]
    if mode == "unconstrained":
        return Instance.unconstrained(pts, k=k, metric=metric)
    m = int(rng.integers(k, n + 4))
    if rng.random() < 0.2:
        cands = rng.integers(0, 4, size=(m, dim)).astype(float)
    else:
        cands = rng.normal(size=(m, dim))
    return Instance.discrete(pts, cands, k=k, metric=metric)


def all_outcomes(inst):
    """Every possible outcome of exactly k distinct candidate indices."""
    from itertools import combinations

    from propclust import Outcome

    return [Outcome(c) for c in combinations(range(inst.m), inst.k)]


def random_outcome(rng, inst, size=None):
    from propclust import Outcome

    size = inst.k if size is None else size
    sel = rng.choice(inst.m, size=size, replace=False)
    return Outcome(tuple(int(j) for j in sel))


@st.composite
def small_instances(draw):
    """Small instances rich in ties: coincident lattice points, integer matrices."""
    kind = draw(st.sampled_from(("unconstrained", "discrete", "precomputed-shared", "precomputed")))
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(("any", "k=n", "m=k")))
    k = n if shape == "k=n" else draw(st.integers(1, n))
    m = k if shape == "m=k" else draw(st.integers(k, n + 3))
    if kind.startswith("precomputed"):
        entry = st.integers(0, 4).map(float)
        if kind == "precomputed-shared":
            half = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
            mat = np.triu(half, 1) + np.triu(half, 1).T
            return Instance.precomputed(mat, k=k, shared_candidates=True)
        mat = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m))).reshape(n, m)
        return Instance.precomputed(mat, k=k)
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        coord = st.integers(0, 2).map(float)
    else:
        coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    metric = draw(st.sampled_from(("euclidean", "manhattan")))

    def points(count):
        return np.array(draw(st.lists(coord, min_size=count * dim, max_size=count * dim))).reshape(count, dim)

    if kind == "unconstrained":
        return Instance.unconstrained(points(n), k=k, metric=metric)
    return Instance.discrete(points(n), points(m), k=k, metric=metric)


def pinned_instance(name):
    """One of four n = 300 instances whose outputs the tests pin by digest."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "gaussian-2d":
        return Instance.unconstrained(rng.normal(size=(300, 2)), k=20)
    if name == "gaussian-2d-discrete":
        return Instance.discrete(rng.normal(size=(300, 2)), rng.normal(size=(150, 2)), k=12)
    grid = rng.integers(0, 3, size=(300, 8)).astype(float)
    if name == "grid-8d":
        return Instance.unconstrained(grid, k=20)
    return Instance.unconstrained(grid, k=7, metric="manhattan")


@st.composite
def sweep_instances(draw):
    """Instances with 16 < n <= 200, rich in ties, for the sampled checkers.

    Coordinates sit on a small integer lattice half the time, so many
    agents coincide; precomputed matrices hold small integers, shared ones
    symmetric with a zero diagonal, and need not be metrics.
    """
    kind = draw(st.sampled_from(("unconstrained", "discrete", "precomputed-shared", "precomputed")))
    n = draw(st.integers(17, 200))
    k = draw(st.integers(1, min(n, 30)))
    m = draw(st.integers(k, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "precomputed-shared":
        half = np.triu(rng.integers(0, 5, size=(n, n)), 1).astype(float)
        return Instance.precomputed(half + half.T, k=k, shared_candidates=True)
    if kind == "precomputed":
        return Instance.precomputed(rng.integers(0, 5, size=(n, m)).astype(float), k=k)
    dim = draw(st.integers(1, 3))
    lattice = draw(st.booleans())
    metric = draw(st.sampled_from(("euclidean", "manhattan")))

    def points(count):
        if lattice:
            return rng.integers(0, 3, size=(count, dim)).astype(float)
        return rng.normal(size=(count, dim))

    if kind == "unconstrained":
        return Instance.unconstrained(points(n), k=k, metric=metric)
    return Instance.discrete(points(n), points(m), k=k, metric=metric)
