import math
import tracemalloc
import warnings

import numpy as np
import pytest

from propclust import (
    Instance,
    InputError,
    Outcome,
    distance,
    select_prf_centers,
)
from propclust import core
from util import random_instance


def test_distance_unit_interval():
    assert distance((0,), (1,)) == 1.0


def test_distance_euclidean_manhattan():
    p, q = (0.0, 0.0), (3.0, 4.0)
    assert distance(p, q) == 5.0
    assert distance(p, q, metric="manhattan") == 7.0


def test_distance_rejects_unknown_metric():
    with pytest.raises(InputError):
        distance((0,), (1,), metric="chebyshev")


def test_distance_rejects_dimension_mismatch():
    with pytest.raises(InputError):
        distance((0.0,), (1.0, 2.0))


def test_distance_overflow_raises_input_error():
    # the same rule as the distance build of an Instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="overflow"):
            distance((0.0,), (1e300,))
        with pytest.raises(InputError, match="overflow"):
            distance((-1e308,), (1e308,), metric="manhattan")
        assert distance((0.0,), (1e300,), metric="manhattan") == 1e300


def test_unconstrained_candidates_are_agents():
    inst = Instance.unconstrained([(0.0,), (1.0,), (2.0,)], k=2)
    assert inst.n == 3
    assert inst.m == 3
    assert inst.dim == 1
    assert inst.is_unconstrained
    np.testing.assert_array_equal(inst.agents, inst.candidates)


def test_discrete_mode_separates_candidates():
    inst = Instance.discrete([(0.0,), (1.0,)], [(0.5,), (2.0,), (3.0,)], k=1)
    assert inst.n == 2
    assert inst.m == 3
    assert not inst.is_unconstrained


def test_distance_matrix_matches_pointwise():
    rng = np.random.default_rng(0)
    for _ in range(25):
        inst = random_instance(rng)
        dm = inst.distance_matrix
        assert dm.shape == (inst.n, inst.m)
        for i in range(inst.n):
            for j in range(inst.m):
                want = distance(
                    inst.agents[i], inst.candidates[j], inst.metric
                )
                assert dm[i, j] == pytest.approx(want, abs=0.0)


def test_distance_blocks_match_one_block(monkeypatch):
    # building the matrix a few rows at a time must not move a single bit
    rng = np.random.default_rng(3)
    for _ in range(25):
        inst = random_instance(rng, n_max=30)
        whole = inst.distance_matrix
        for rows in (1, 3, inst.n):
            monkeypatch.setattr(core, "_PLANE", rows * inst.m)
            again = core._pairwise(inst.agents, inst.candidates, inst.metric)
            assert again.tobytes() == whole.tobytes()


def _reference_pairwise(a, b, metric):
    diff = a[:, None] - b[None]
    return np.sqrt((diff**2).sum(-1)) if metric == "euclidean" else np.abs(diff).sum(-1)


# numpy's pairwise sum changes shape at 8, 128 and 256 terms
PLANE_DIMS = [*range(1, 18), 63, 64, 65, 127, 128, 129, 136, 255, 256, 257, 300]


@pytest.mark.parametrize(
    "rows, dims",
    [(1, PLANE_DIMS), (2, PLANE_DIMS), (None, range(1, 301))],
    ids=["one-row", "two-rows", "whole-matrix"],
)
def test_pairwise_bit_identical_to_one_sum(monkeypatch, rows, dims):
    # the term planes are added in np.add.reduce's order, so every entry is the
    # same float as summing the (n, m, dim) terms over the last axis
    rng = np.random.default_rng(17)
    for dim in dims:
        # coordinates of mixed magnitudes, so a different summation order shows
        a = rng.normal(size=(5, dim)) * 10.0 ** rng.uniform(-4, 4, size=dim)
        for b in (a, rng.normal(size=(3, dim)) * 10.0 ** rng.uniform(-4, 4, size=dim)):
            monkeypatch.setattr(core, "_PLANE", b.shape[0] * (rows or a.shape[0]))
            for metric in ("euclidean", "manhattan"):
                got = core._pairwise(a, b, metric)
                assert got.tobytes() == _reference_pairwise(a, b, metric).tobytes(), (dim, metric)


@pytest.mark.parametrize("plane", [1, 60, 1 << 16], ids=["one-row", "growing", "all-rows"])
@pytest.mark.parametrize("tile", [1, 7, core._TILE])
def test_symmetric_half_build_bit_identical(monkeypatch, plane, tile):
    # with b is a each slab is built from its own first column on and mirrored below;
    # at 40 rows a plane of 60 entries grows the blocks from one row to all those left
    rng = np.random.default_rng(23)
    grid = rng.integers(0, 3, size=(40, 8)).astype(float)  # coincident points and tied distances
    mixed = rng.normal(size=(40, 9)) * 10.0 ** rng.uniform(-4, 4, size=9)
    monkeypatch.setattr(core, "_PLANE", plane)
    monkeypatch.setattr(core, "_TILE", tile)
    for a in (grid, mixed):
        for metric in ("euclidean", "manhattan"):
            got = core._pairwise(a, a, metric)
            assert got.tobytes() == _reference_pairwise(a, a, metric).tobytes(), metric
            assert got.tobytes() == got.T.tobytes(order="C"), metric


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_discrete_agent_distances_equal_one_sum(metric):
    # 300 agents span three slabs; the candidates play no part
    rng = np.random.default_rng(29)
    agents = rng.normal(size=(300, 6)) * 10.0 ** rng.uniform(-3, 3, size=6)
    inst = Instance.discrete(agents, agents[:50] + 0.5, k=3, metric=metric)
    aa = inst.agent_distances
    assert aa.tobytes() == _reference_pairwise(agents, agents, metric).tobytes()
    assert aa.tobytes() == aa.T.tobytes(order="C")


def test_distance_build_peak_memory():
    # the matrix is written in place: besides it only a few 2^16-entry planes live
    inst = Instance.unconstrained(np.random.default_rng(5).normal(size=(1000, 8)), k=5)
    tracemalloc.start()
    try:
        dm = inst.distance_matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * dm.nbytes


def test_discrete_agent_distances_peak_memory():
    rng = np.random.default_rng(5)
    inst = Instance.discrete(rng.normal(size=(1000, 8)), rng.normal(size=(40, 8)), k=5)
    tracemalloc.start()
    try:
        aa = inst.agent_distances
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * aa.nbytes


def test_pairwise_too_large_raises_before_building():
    # broadcast views: (10**8, 1) points ask for an 8e16-byte matrix without holding any memory
    points = np.broadcast_to(np.zeros(1), (10**8, 1))
    with pytest.raises(InputError, match=r"100000000 x 100000000 .* 74505806\.0 GiB"):
        core._pairwise(points, points, "euclidean")


def test_agent_distances_symmetric_zero_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(10):
        inst = random_instance(rng)
        aa = inst.agent_distances
        assert aa.shape == (inst.n, inst.n)
        np.testing.assert_array_equal(aa, aa.T)
        assert np.all(np.diag(aa) == 0.0)


def test_precomputed_matrix():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    inst = Instance.precomputed(d, k=1, shared_candidates=True)
    assert inst.n == 2
    np.testing.assert_array_equal(inst.distance_matrix, d)
    np.testing.assert_array_equal(inst.agent_distances, d)


def test_precomputed_rejects_asymmetric_shared():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InputError):
        Instance.precomputed(d, k=1, shared_candidates=True)


def test_precomputed_rejects_nonzero_diagonal_shared():
    # a shared candidate is the agent itself, at distance 0 from it
    for d in (
        [[1, 0, 1, 3], [0, 2, 2, 1], [1, 2, 2, 3], [3, 1, 3, 2]],
        [[1, 2], [2, 1]],
    ):
        with pytest.raises(InputError):
            Instance.precomputed(np.array(d, dtype=float), k=2, shared_candidates=True)
        assert Instance.precomputed(np.array(d, dtype=float), k=2).n == len(d)


def test_rejects_bad_k():
    pts = [(0.0,), (1.0,)]
    with pytest.raises(InputError):
        Instance.unconstrained(pts, k=0)
    with pytest.raises(InputError):
        Instance.unconstrained(pts, k=3)


def test_rejects_nonfinite_coordinates():
    with pytest.raises(InputError):
        Instance.unconstrained([(0.0,), (math.nan,)], k=1)
    with pytest.raises(InputError):
        Instance.unconstrained([(0.0,), (math.inf,)], k=1)


def test_rejects_empty_candidate_set():
    with pytest.raises(InputError):
        Instance.discrete([(0.0,)], np.empty((0, 1)), k=1)


def test_with_k():
    inst = Instance.unconstrained([(0.0,), (1.0,), (2.0,)], k=1)
    inst3 = inst.with_k(3)
    assert inst3.k == 3
    assert inst.k == 1
    np.testing.assert_array_equal(inst.agents, inst3.agents)


def test_with_k_reuses_built_distances():
    inst = Instance.discrete([(0.0,), (1.0,), (2.0,)], [(0.5,), (3.0,)], k=1)
    before = inst.digest
    matrix, agent = inst.distance_matrix, inst.agent_distances
    inst2 = inst.with_k(2)
    assert inst2.distance_matrix is matrix
    assert inst2.agent_distances is agent
    assert inst2.digest != before
    assert inst2.digest == Instance.discrete([(0.0,), (1.0,), (2.0,)], [(0.5,), (3.0,)], k=2).digest
    # nothing built yet, so nothing is carried: the new instance builds its own
    fresh = Instance.unconstrained([(0.0,), (1.0,)], k=1).with_k(2)
    assert "distance_matrix" not in fresh.__dict__
    np.testing.assert_array_equal(fresh.distance_matrix, [[0.0, 1.0], [1.0, 0.0]])


def test_digest_stable_and_sensitive():
    pts = [(0.0,), (1.0,)]
    a = Instance.unconstrained(pts, k=1)
    b = Instance.unconstrained(pts, k=1)
    assert a.digest == b.digest
    assert a.digest != Instance.unconstrained(pts, k=2).digest
    assert a.digest != Instance.unconstrained([(0.0,), (1.5,)], k=1).digest
    assert a.digest != Instance.unconstrained(pts, k=1, metric="manhattan").digest


def test_outcome_requires_distinct_indices():
    with pytest.raises(InputError):
        Outcome((1, 1))
    inst = Instance.unconstrained([(0.0,), (1.0,)], k=1)
    with pytest.raises(InputError):
        Outcome(()).validate(inst)


def test_outcome_validate_checks_range_not_size():
    inst = Instance.unconstrained([(0.0,), (1.0,), (2.0,)], k=2)
    Outcome((0,)).validate(inst)  # underfilled outcomes are legal
    Outcome((0, 1, 2)).validate(inst)
    with pytest.raises(InputError):
        Outcome((0, 3)).validate(inst)
    with pytest.raises(InputError):
        Outcome((-1,)).validate(inst)


def test_overflowing_distances_raise_input_error():
    # finite coordinates whose squared differences overflow: the distance
    # build must refuse them rather than let the sweep run at radius inf
    points = [(0.0,), (0.0,), (1e300,), (-1e300,), (1e300,)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inst = Instance.unconstrained(points, k=3)
        with pytest.raises(InputError, match="overflow"):
            inst.distance_matrix
        with pytest.raises(InputError, match="overflow"):
            select_prf_centers(inst)
        # the agent-candidate distances fit, the agent-agent ones do not
        inst = Instance.discrete([(1e154,), (-1e154,)], [(0.0,)], k=1)
        assert inst.distance_matrix.tolist() == [[1e154], [1e154]]
        with pytest.raises(InputError, match="overflow"):
            inst.agent_distances

