import hashlib
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_distance_rejects_nonfinite_points_and_the_precomputed_metric():
    for p, q in (((0.0, math.nan), (1.0, 2.0)), ((0.0,), (math.inf,))):
        with pytest.raises(InputError, match="^points must have finite coordinates$"):
            distance(p, q)
    with pytest.raises(InputError, match="^precomputed metric has no pointwise distance"):
        distance((0.0,), (1.0,), metric="precomputed")


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


# coordinates whose distances fit, of mixed magnitudes, with signed zeros and subnormals
_FITTING_COORDINATES = (
    st.floats(-4.0, 4.0)
    | st.floats(-1e150, 1e150)
    | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300])
)
# near zero, where a difference of subnormals that is not exact shows in a manhattan sum
_TINY_COORDINATES = st.floats(-1e-300, 1e-300) | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.5e-323])
# and with any finite coordinate, whose differences or squares may overflow
_EDGE_COORDINATES = (
    _FITTING_COORDINATES
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e154, -1e154, 1e308, -1e308])
)


@settings(max_examples=300)
@given(
    st.sampled_from([*range(1, 18), 127, 128, 129]),
    st.integers(1, 6),
    st.none() | st.integers(1, 5),
    st.sampled_from([_FITTING_COORDINATES, _TINY_COORDINATES, _EDGE_COORDINATES]).flatmap(
        lambda c: st.lists(c, min_size=1, max_size=12)
    ),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["euclidean", "manhattan"]),
    st.sampled_from([1, 2, 1 << 16]),
    st.sampled_from([1, 2, core._TILE]),
)
def test_pairwise_property_bit_identical_to_one_sum(dim, n, m, values, seed, metric, rows, tile):
    # each term is a_j - b_j rounded once, so the matrix is the (n, m, dim) sum's bytes
    # or, where that overflows, the build raises; m None takes the half build (b is a).
    # The drawn values are laid out by a seeded generator, so 129 coordinates cost 12 draws
    rng = np.random.default_rng(seed)
    values = np.array(values)
    a = values[rng.integers(len(values), size=(n, dim))]
    b = a if m is None else values[rng.integers(len(values), size=(m, dim))]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_pairwise(a, b, metric)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_PLANE", rows * b.shape[0])
        mp.setattr(core, "_TILE", tile)
        if np.isfinite(want).all():
            assert core._pairwise(a, b, metric).tobytes() == want.tobytes()
        else:
            with pytest.raises(InputError, match="^coordinates are too large: some distances overflow to infinity$"):
                core._pairwise(a, b, metric)


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


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize(
    "matrix",
    [[[0.0, 1.0], [1.0]], [["a", 1.0], [1.0, 0.0]]],
    ids=["ragged", "non-numeric"],
)
def test_precomputed_rejects_matrix_that_is_not_numeric_2d(matrix, shared):
    with pytest.raises(InputError, match="2-D array"):
        Instance.precomputed(matrix, k=1, shared_candidates=shared)


_SQUARE = [[0.0, 1.0], [1.0, 0.0]]
_NOT_2D = "distance matrix must be a nonempty 2-D array"
_NEGATIVE = "distance matrix entries must be finite and nonnegative"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Instance(None, k=1, metric="precomputed"), "precomputed metric requires a distance matrix"),
        (lambda: Instance([(0.0,), (1.0,)], k=1, metric="precomputed", matrix=_SQUARE),
         "precomputed instances take a matrix, not coordinates"),
        (lambda: Instance(None, [(0.0,)], k=1, metric="precomputed", matrix=_SQUARE),
         "precomputed instances take a matrix, not coordinates"),
        (lambda: Instance.precomputed([0.0, 1.0], k=1), _NOT_2D),
        (lambda: Instance.precomputed(np.zeros((2, 2, 1)), k=1), _NOT_2D),
        (lambda: Instance.precomputed(np.empty((0, 2)), k=1), _NOT_2D),
        # the sort of each row's distances relies on this guard: no entry is negative
        (lambda: Instance.precomputed([[0.0, -1.0], [1.0, 0.0]], k=1), _NEGATIVE),
        (lambda: Instance.precomputed([[0.0, -1e-300]], k=1), _NEGATIVE),
        (lambda: Instance.precomputed([[0.0, math.inf]], k=1), _NEGATIVE),
        (lambda: Instance.precomputed([[0.0, math.nan]], k=1), _NEGATIVE),
        (lambda: Instance.precomputed([[0.0, 1.0]], k=1, shared_candidates=True),
         "shared candidates need a square distance matrix"),
        (lambda: Instance([(0.0,), (1.0,)], k=1, matrix=_SQUARE), "metric 'euclidean' does not accept a distance matrix"),
        (lambda: Instance(None, k=1), "coordinate instances require agent points"),
        (lambda: Instance.unconstrained(np.empty((0, 2)), k=1), "agents must be a nonempty 2-D array of coordinates"),
        (lambda: Instance.discrete([(0.0, 1.0)], [(0.0,)], k=1), "agents have dimension 2 but candidates have 1"),
    ],
    ids=["no-matrix", "agents", "candidates", "1-D", "3-D", "no-rows", "negative", "tiny-negative", "inf", "nan",
         "shared-not-square", "coordinates-with-matrix", "no-agents", "empty-agents", "dimensions-differ"],
)
def test_instance_input_guards(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_precomputed_matrix_may_hold_negative_zero():
    inst = Instance.precomputed([[0.0, -0.0], [-0.0, 0.0]], k=1, shared_candidates=True)
    assert select_prf_centers(inst)[0].selected == (0,)


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


@pytest.mark.parametrize("mode", ["unconstrained", "discrete", "precomputed"])
def test_with_k_shares_everything_but_the_digest(mode):
    pts = np.random.default_rng(3).normal(size=(6, 2))
    inst = Instance.unconstrained(pts, k=1)
    if mode == "precomputed":
        inst = Instance.precomputed(inst.distance_matrix, k=1, shared_candidates=True)
    elif mode == "discrete":
        inst = Instance.discrete(pts, pts[:4] + 0.5, k=1)
    before = inst.digest
    built = {attr: getattr(inst, attr) for attr in ("distance_matrix", "agent_distances")}
    out = inst.with_k(3)
    for attr in ("agents", "candidates", "matrix", "metric", "shared_candidates"):
        assert getattr(out, attr) is getattr(inst, attr), attr
    for attr, value in built.items():
        assert getattr(out, attr) is value, attr
    assert (out.k, inst.k, inst.digest) == (3, 1, before)
    assert "digest" not in out.__dict__
    assert out.digest == replace(inst, k=3).digest != before


def test_with_k_variants_share_one_read_only_candidate_order():
    rng = np.random.default_rng(6)
    inst = Instance.discrete(rng.normal(size=(20, 2)), rng.normal(size=(8, 2)), k=1)
    order = inst._candidate_order
    assert inst.with_k(2)._candidate_order is order
    assert inst.with_k(3).with_k(4)._candidate_order is order
    with pytest.raises(ValueError, match="read-only"):
        order[0, 0] = 0


@pytest.mark.parametrize("mode", ["unconstrained", "discrete"])
def test_candidate_order_sorts_each_candidates_column(monkeypatch, mode):
    # blocks of 4 rows (rows of the shared matrix, transposed columns of the discrete
    # one); rounding makes runs of equal distances, whose last agent is marked
    monkeypatch.setattr(core, "_BLOCK", 4 * 30)
    rng = np.random.default_rng(7)
    points = np.round(rng.normal(size=(30, 2)), 0)
    if mode == "discrete":
        inst = Instance.discrete(points, np.round(rng.normal(size=(11, 2)), 0), k=2)
    else:
        inst = Instance.unconstrained(points, k=2)
    dm = inst.distance_matrix
    order = inst._candidate_order
    assert order.shape == (inst.m, inst.n) and order.dtype == np.int32
    for c in range(inst.m):
        col = dm[:, c]
        expected = np.argsort(col, kind="stable")
        assert np.array_equal(core._unmarked(order[c]), expected)
        ends = np.append(col[expected][1:] != col[expected][:-1], True)
        assert np.array_equal(order[c] < 0, ends)


def test_with_k_of_a_precomputed_instance_allocates_no_matrix():
    matrix = Instance.unconstrained(np.random.default_rng(4).normal(size=(2000, 2)), k=1).distance_matrix
    inst = Instance.precomputed(matrix, k=1, shared_candidates=True)
    built = inst.distance_matrix, inst.agent_distances
    tracemalloc.start()
    try:
        out = inst.with_k(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert out.matrix is out.distance_matrix is out.agent_distances is built[0] is built[1]


def test_shared_candidates_get_the_half_build(monkeypatch):
    halves = []  # one entry per distance build: whether it was the symmetric half build
    real = core._pairwise
    monkeypatch.setattr(core, "_pairwise", lambda a, b, metric: halves.append(b is a) or real(a, b, metric))
    pts = np.random.default_rng(6).normal(size=(40, 3))
    # a k-variant taken before any build, and candidates passed as a copy of the agents
    variant = Instance.unconstrained(pts, k=2).with_k(5)
    copied = Instance.discrete(pts, pts.copy(), k=2)
    assert copied.candidates is copied.agents and copied.is_unconstrained
    for inst in (variant, copied):
        assert inst.distance_matrix.tobytes() == _reference_pairwise(pts, pts, "euclidean").tobytes()
    assert halves == [True, True]


def test_signed_zero_candidates_stay_their_own_array():
    # -0.0 equals 0.0, so the candidates are shared, but their bits (and the digest) differ
    agents = np.array([[0.0], [1.0]])
    inst = Instance.discrete(agents, [[-0.0], [1.0]], k=1)
    assert inst.is_unconstrained and inst.candidates is not inst.agents
    assert inst.digest != Instance.discrete(agents, agents.copy(), k=1).digest


@pytest.mark.parametrize(
    "k, message",
    [
        (0, "k must satisfy 1 <= k <= n, got k=0 with n=3"),
        (4, "k must satisfy 1 <= k <= n, got k=4 with n=3"),
        (2.0, "k must be an integer, got 2.0"),
    ],
)
def test_with_k_checks_k_as_construction_does(k, message):
    inst = Instance.unconstrained([(0.0,), (1.0,), (2.0,)], k=1)
    for make in (inst.with_k, lambda k: Instance.unconstrained(inst.agents, k=k)):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            make(k)
    assert inst.with_k(np.int64(2)).k == 2 and type(inst.with_k(np.int64(2)).k) is int


def test_digest_stable_and_sensitive():
    pts = [(0.0,), (1.0,)]
    a = Instance.unconstrained(pts, k=1)
    b = Instance.unconstrained(pts, k=1)
    assert a.digest == b.digest
    assert a.digest != Instance.unconstrained(pts, k=2).digest
    assert a.digest != Instance.unconstrained([(0.0,), (1.5,)], k=1).digest
    assert a.digest != Instance.unconstrained(pts, k=1, metric="manhattan").digest


def _reference_digest(inst):
    payload = {
        "schema": "instance/1",
        "metric": inst.metric,
        "k": inst.k,
        "agents": None if inst.agents is None else inst.agents.tolist(),
        "candidates": None if inst.candidates is None else inst.candidates.tolist(),
        "matrix": None if inst.matrix is None else inst.matrix.tolist(),
        "shared_candidates": inst.shared_candidates,
    }
    return hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode("utf-8")).hexdigest()


def _digest_cases():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(30, 3))
    signed = np.array([[0.0, 1.0], [2.0, -0.0], [3.0, 4.0]])
    unconstrained = Instance.unconstrained(pts, k=2)
    return {
        "unconstrained": unconstrained,
        "manhattan": Instance.unconstrained(pts, k=2, metric="manhattan"),
        "discrete": Instance.discrete(pts, rng.normal(size=(12, 3)), k=2),
        "copied-candidates": Instance.discrete(pts, pts.copy(), k=2),
        "signed-zero-candidates": Instance.discrete(signed, [[-0.0, 1.0], [2.0, 0.0], [3.0, 4.0]], k=2),
        "precomputed-shared": Instance.precomputed(unconstrained.distance_matrix, k=2, shared_candidates=True),
        "precomputed": Instance.precomputed(rng.uniform(0, 5, size=(7, 4)), k=2),
    }


@pytest.mark.parametrize("name", list(_digest_cases()))
def test_digest_equals_the_json_dumps_reference(name):
    inst = _digest_cases()[name]
    if name == "signed-zero-candidates":
        assert inst.is_unconstrained and inst.candidates is not inst.agents
    for variant in (inst, inst.with_k(1), inst.with_k(3), inst.with_k(1).with_k(2)):
        assert variant.digest == _reference_digest(variant)
    assert inst.with_k(3)._coordinate_json is inst._coordinate_json


_COORDINATES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16, 0.1]
)


@given(
    st.integers(1, 3).flatmap(
        lambda dim: st.tuples(
            st.lists(st.lists(_COORDINATES, min_size=dim, max_size=dim), min_size=1, max_size=6),
            st.none() | st.lists(st.lists(_COORDINATES, min_size=dim, max_size=dim), min_size=1, max_size=6),
        )
    )
)
def test_digest_property_over_edge_coordinates(points):
    agents, candidates = points
    inst = Instance.discrete(agents, agents if candidates is None else candidates, k=1)
    assert inst.digest == _reference_digest(inst)
    assert inst.with_k(len(agents)).digest == _reference_digest(inst.with_k(len(agents)))


def test_frozen_arrays_are_used_as_they_are():
    # another instance's frozen arrays: an n = 2000 copy would keep a second 30.5 MiB matrix
    source = Instance.unconstrained(np.random.default_rng(9).normal(size=(2000, 2)), k=1)
    matrix = source.distance_matrix
    tracemalloc.start()
    try:
        inst = Instance.precomputed(matrix, k=3, shared_candidates=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**20 and peak < matrix.nbytes / 4
    assert inst.matrix is inst.distance_matrix is matrix
    points = Instance.discrete(source.agents, source.agents, k=3)
    assert points.agents is points.candidates is source.agents


@pytest.mark.parametrize("view", [False, True])
def test_writable_input_is_still_copied(view):
    # a read-only view of a writable array can still change through that array
    rng = np.random.default_rng(10)
    matrix = rng.uniform(0, 5, size=(6, 4))
    pts = rng.normal(size=(6, 2))
    given_matrix, given_pts = (matrix.view(), pts.view()) if view else (matrix, pts)
    if view:
        given_matrix.flags.writeable = given_pts.flags.writeable = False
    pre = Instance.precomputed(given_matrix, k=2)
    unc = Instance.unconstrained(given_pts, k=2)
    before = [(inst.distance_matrix.copy(), inst.digest) for inst in (pre, unc)]
    matrix += 1.0
    pts += 1.0
    for inst, (distances, digest) in zip((pre, unc), before):
        assert inst.distance_matrix.tobytes() == distances.tobytes()
        assert replace(inst).digest == digest


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

