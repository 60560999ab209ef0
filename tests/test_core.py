import math
import warnings

import numpy as np
import pytest

from propclust import (
    Instance,
    InputError,
    Outcome,
    distance,
    nearest_j,
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
        for block in (1, 7, 40):
            monkeypatch.setattr(core, "_PAIRWISE_BLOCK", block)
            again = core._pairwise(inst.agents, inst.candidates, inst.metric)
            assert again.tobytes() == whole.tobytes()


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


def test_nearest_j_hand_case():
    inst = Instance.unconstrained([(0.0,), (1.0,), (2.0,)], k=3)
    out = Outcome((0, 1, 2))
    assert nearest_j(inst, 0, out, 1) == [(0, 0.0)]
    assert nearest_j(inst, 0, out, 2) == [(0, 0.0), (1, 1.0)]


def test_nearest_j_breaks_ties_by_index():
    inst = Instance.unconstrained([(0.0,), (1.0,), (1.0,)], k=3)
    out = Outcome((0, 1, 2))
    assert nearest_j(inst, 0, out, 2) == [(0, 0.0), (1, 1.0)]
    assert nearest_j(inst, 0, out, 3) == [(0, 0.0), (1, 1.0), (2, 1.0)]


def test_nearest_j_rejects_bad_j():
    inst = Instance.unconstrained([(0.0,), (1.0,)], k=1)
    out = Outcome((0,))
    with pytest.raises(InputError):
        nearest_j(inst, 0, out, 0)
    with pytest.raises(InputError):
        nearest_j(inst, 0, out, 2)
