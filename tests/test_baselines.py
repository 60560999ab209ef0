import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propclust import (
    Instance,
    InputError,
    Outcome,
    greedy_capture,
    kmeans_cost,
    kmeanspp,
)
from propclust import engine
from propclust.data_io import generate
from reference_greedy import reference_greedy
from reference_kmeanspp import reference_kmeanspp
from util import pinned_instance, random_instance, small_instances


def test_greedy_stops_short_when_masses_run_out():
    # one mass of two and one singleton: a third ball would capture nobody
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=3)
    result = greedy_capture(inst)
    assert result.opened == (0, 2)
    assert result.outcome.selected == (0, 2)
    assert result.underfilled
    assert result.padded == ()


def test_greedy_padding_fills_to_k():
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=3)
    result = greedy_capture(inst, pad=True)
    assert result.opened == (0, 2)
    assert result.underfilled
    assert len(result.outcome.selected) == 3
    assert result.padded == (1,)


def test_greedy_two_mass_opens_both_locations():
    inst = generate("two_mass")
    result = greedy_capture(inst)
    coords = inst.candidates[list(result.outcome.selected)].ravel()
    assert set(coords) == {0.0, 1.0}


def test_greedy_openings_are_ordered_and_capped():
    rng = np.random.default_rng(30)
    for _ in range(60):
        inst = random_instance(rng, n_max=20)
        result = greedy_capture(inst)
        radii = [r for _, r in result.openings]
        assert radii == sorted(radii)
        assert len(result.opened) <= inst.k
        assert len(set(result.outcome.selected)) == len(result.outcome.selected)
        if result.underfilled:
            assert len(result.opened) < inst.k
        else:
            assert len(result.opened) == inst.k
        padded = greedy_capture(inst, pad=True)
        assert padded.opened == result.opened
        assert len(padded.outcome.selected) == inst.k
        assert set(padded.padded).isdisjoint(padded.opened)


def test_greedy_opening_radii_hold_a_quota():
    # the first ball to open must hold a full quota of agents, and every
    # opening is recorded at a realized agent-candidate distance
    rng = np.random.default_rng(31)
    for _ in range(40):
        inst = random_instance(rng, n_max=15)
        result = greedy_capture(inst)
        dm = inst.distance_matrix
        quota = -(-inst.n // inst.k)
        open_radius = dict(result.openings)
        assert set(open_radius) == set(result.opened)
        first, r_first = result.openings[0]
        assert int((dm[:, first] <= r_first).sum()) >= quota
        realized = set(np.unique(dm))
        assert all(r in realized for _, r in result.openings)


@settings(max_examples=500)
@given(small_instances(), st.booleans(), st.sampled_from((1, 2, engine._CHUNK)), st.sampled_from((1, 7, engine._BLOCK)))
def test_greedy_matches_reference(inst, pad, chunk, block):
    # small chunks make the threshold advance take several passes even at small n,
    # and small blocks split the sort, the passes and the charges into several slices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK", chunk)
        mp.setattr(engine, "_BLOCK", block)
        result = greedy_capture(inst, pad=pad)
    assert result == reference_greedy(inst, pad=pad)


# SHA-256 of each padded run's (opened, openings, padded, underfilled) as the
# event-per-distance greedy produced it.  All four runs underfill and pad.
@pytest.mark.parametrize(
    "name, digest",
    [
        ("gaussian-2d", "a807c08a859ffdbbaa1a6cd7e54d19ed9087977664cf21692e4b8cc6c31b8c62"),
        ("gaussian-2d-discrete", "bc82da43c9098a828719145852b62e4fb992e4de476b103158cfd3a5d14d28e0"),
        ("grid-8d", "6e85c0891d310fe70220d4d4c1c6b460daa25784186a6c01a294d533d2602e89"),
        ("grid-8d-manhattan", "ab184eebcfeef73a6f67317bc2d78cd576a7b1299cd2729481c9e7b0a058940f"),
    ],
)
def test_pinned_greedy_digest(name, digest):
    r = greedy_capture(pinned_instance(name), pad=True)
    blob = json.dumps([r.opened, r.openings, r.padded, r.underfilled], separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_greedy_peak_memory(k):
    # the ball-threshold structure's int32 order and rank plus blocks of at most _BLOCK entries
    inst = Instance.unconstrained(np.random.default_rng(11).normal(size=(1000, 2)), k=k)
    dm = inst.distance_matrix
    tracemalloc.start()
    try:
        greedy_capture(inst, pad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * dm.nbytes


def test_kmeanspp_shape_and_determinism():
    rng = np.random.default_rng(32)
    for _ in range(30):
        inst = random_instance(rng, n_max=20)
        out = kmeanspp(inst, seed=5)
        assert len(out.selected) == inst.k
        assert len(set(out.selected)) == inst.k
        out.validate(inst)
        assert kmeanspp(inst, seed=5).selected == out.selected


def test_kmeanspp_seeds_differ_sometimes():
    inst = Instance.unconstrained(np.random.default_rng(33).normal(size=(40, 2)), k=4)
    picks = {kmeanspp(inst, seed=s).selected for s in range(8)}
    assert len(picks) > 1


def test_kmeanspp_handles_coincident_agents():
    inst = Instance.unconstrained([(0.0,), (0.0,), (0.0,)], k=2)
    out = kmeanspp(inst, seed=0)
    assert len(out.selected) == 2


def test_kmeanspp_separated_blobs_get_one_center_each():
    inst = generate("two_blobs")
    for seed in range(5):
        out = kmeanspp(inst, seed=seed)
        xs = inst.candidates[list(out.selected)][:, 0]
        assert (xs < 5.0).sum() == 1
        assert (xs > 5.0).sum() == 1


def test_kmeanspp_three_circles_seed_zero_is_proportional():
    inst = generate("three_circles")
    out = kmeanspp(inst, seed=0)
    xs = inst.candidates[list(out.selected)][:, 0]
    # one center per circle: two on the small pair, one on the big ring
    assert (xs < 3.0).sum() == 2
    assert (xs > 3.0).sum() == 1


def _lloyd_events(inst, centers):
    """Whether a Lloyd round from ``centers`` meets an empty cluster, and a
    cluster whose cheapest candidate was already placed in the round."""
    sq = inst.distance_matrix**2
    assign = np.argmin(inst.distance_matrix[:, list(centers)], axis=1)
    empty = blocked = False
    placed = []
    for j, center in enumerate(centers):
        members = np.flatnonzero(assign == j)
        if members.size == 0:
            empty = True
            placed.append(center)
            continue
        cost = sq[members].sum(axis=0)
        pick = int(np.argmin(cost))
        # the cluster's own center costs no more and has the lower index
        assert pick not in centers[j + 1 :]
        if pick in placed:
            blocked = True
            cost[placed] = np.inf
            pick = int(np.argmin(cost))
        placed.append(pick)
    return empty, blocked


def _kmeanspp_cases():
    rng = np.random.default_rng(34)
    for k in range(1, 21):
        n = int(rng.integers(max(k, 30), 160))
        yield Instance.unconstrained(rng.normal(size=(n, 2)), k=k)
        yield Instance.unconstrained(rng.integers(0, 3, size=(n, 3)).astype(float), k=k)
        m = int(rng.integers(k, n))
        pts, cands = np.round(rng.normal(size=(n, 2)), 1), np.round(rng.normal(size=(m, 2)), 1)
        yield Instance.discrete(pts, cands, k=k, metric="manhattan")
        yield Instance.discrete(rng.normal(size=(n, 4)), rng.normal(size=(k, 4)), k=k)
        # fewer distinct locations than centers: seeding runs out of mass
        spots = rng.normal(size=(max(1, k // 3), 2))
        yield Instance.unconstrained(spots[rng.integers(0, len(spots), size=n)], k=k)
        # one candidate about 1 from every agent: clusters compete for it
        hub = rng.uniform(0, 6, size=(n, m))
        hub[:, rng.integers(0, m)] = 1.0 + 0.1 * rng.random(n)
        yield Instance.precomputed(hub, k=k)


def test_kmeanspp_matches_reference():
    empty = blocked = 0
    for i, inst in enumerate(_kmeanspp_cases()):
        for seed in (i, i + 1000):
            got = kmeanspp(inst, seed=seed, return_history=True)
            assert got == reference_kmeanspp(inst, seed=seed, return_history=True)
            assert kmeanspp(inst, seed=seed) == got[0]
            for centers in got[1][:-1]:
                e, b = _lloyd_events(inst, centers)
                empty, blocked = empty + e, blocked + b
    # both branches of a round are exercised, not only the common path
    assert empty > 0 and blocked > 0


@settings(max_examples=300)
@given(small_instances(), st.integers(0, 2**32 - 1))
def test_kmeanspp_matches_reference_on_small_instances(inst, seed):
    got = kmeanspp(inst, seed=seed, return_history=True)
    assert got == reference_kmeanspp(inst, seed=seed, return_history=True)


# SHA-256 of the (outcome, history) of seeds 0-4 as the k-means++ with one
# np.nonzero per cluster and round produced them.
@pytest.mark.parametrize(
    "name, digest",
    [
        ("gaussian-2d", "a301b4313c70df726b74d292c296573cf64fb3cd1454094aad5a932a5c657b7b"),
        ("gaussian-2d-discrete", "02caf20d3feacb050f1c34f715cc9486ad5bf7221d2483cb3756b5c97c832e33"),
        ("grid-8d", "65a459fa97c2249d7c381e8c388e7848cd19e0911c22aadd340c9bb7caf2035a"),
        ("grid-8d-manhattan", "d2df8089473b9e605d2217642a9725fb9c2d1dec639905c1c622bb079cb97d95"),
    ],
)
def test_pinned_kmeanspp_digest(name, digest):
    inst = pinned_instance(name)
    runs = []
    for seed in range(5):
        outcome, history = kmeanspp(inst, seed=seed, return_history=True)
        runs.append([outcome.selected, history])
    blob = json.dumps(runs, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_kmeans_cost_hand_value():
    inst = Instance.unconstrained([(0.0,), (1.0,), (3.0,)], k=2)
    # centers at 0 and 3: costs 0, 1, 0
    assert kmeans_cost(inst, Outcome((0, 2))) == pytest.approx(1.0)
    assert kmeans_cost(inst, Outcome((1,))) == pytest.approx(1.0 + 0.0 + 4.0)


def test_overflowing_squares_raise_input_error():
    # the distances fit in a float, their squares do not
    inst = Instance.unconstrained([(0.0,), (1e200,), (2e200,), (3e200,)], k=2, metric="manhattan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="squares overflow"):
            kmeanspp(inst)
        with pytest.raises(InputError, match="squares overflow"):
            kmeans_cost(inst, Outcome((0, 1)))
        # squares that fit still work, however close to the limit
        inst = Instance.unconstrained([(0.0,), (1e153,), (2e153,), (3e153,)], k=2, metric="manhattan")
        assert kmeans_cost(inst, kmeanspp(inst)) == pytest.approx(2e306)


def test_insufficient_candidates_rejected():
    inst = Instance.discrete([(0.0,), (1.0,), (2.0,)], [(0.0,)], k=2)
    with pytest.raises(InputError):
        greedy_capture(inst)
    with pytest.raises(InputError):
        kmeanspp(inst)


def test_kmeanspp_rejects_a_negative_seed():
    inst = Instance.unconstrained([(0.0,), (1.0,), (2.0,)], k=2)
    with pytest.raises(InputError, match="non-negative"):
        kmeanspp(inst, seed=-1)
