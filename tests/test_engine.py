import hashlib
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propclust import Instance, InputError, select_prf_centers
from propclust import engine
from propclust.baselines import greedy_capture
from propclust.core import _unmarked
from propclust.data_io import generate, trace_to_json_obj
from reference_sweep import reduce_weights, reference_sweep, weighted_support
from util import pinned_instance, random_instance, small_instances

ONES = Fraction(1)


def test_two_coincident_agents_and_an_outlier():
    # quota is 1; at radius 0 both copies of the origin support each other,
    # the lowest index wins each time, then the outlier claims itself
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=3)
    outcome, trace = select_prf_centers(inst)
    assert outcome.selected == (0, 1, 2)
    assert [r.radius for r in trace.rounds] == [0.0, 0.0, 0.0]
    assert trace.rounds[0].support == Fraction(2)
    assert trace.rounds[1].support == Fraction(1)


def test_single_center_takes_full_weight():
    inst = Instance.unconstrained([(0.0,), (1.0,)], k=1)
    outcome, trace = select_prf_centers(inst)
    assert outcome.selected == (0,)
    assert trace.rounds[0].radius == 1.0
    assert trace.rounds[0].support == Fraction(2)


def test_two_mass_selection():
    inst = generate("two_mass")
    outcome, trace = select_prf_centers(inst)
    assert len(trace.rounds) == 11
    # ten centers on the heavy location, one on the light one
    assert outcome.selected[:10] == tuple(range(10))
    assert outcome.selected[10] == 100
    assert trace.rounds[0].support == Fraction(100)


def test_discrete_candidates():
    inst = Instance.discrete([(0.0,), (1.0,)], [(0.25,), (0.5,), (2.0,)], k=1)
    outcome, trace = select_prf_centers(inst)
    # candidate 0 reaches both agents at radius 0.75; candidate 1 needs only 0.5
    assert outcome.selected == (1,)
    assert trace.rounds[0].radius == 0.5


def test_insufficient_candidates():
    inst = Instance.discrete([(0.0,), (1.0,), (2.0,)], [(0.0,)], k=2)
    with pytest.raises(InputError):
        select_prf_centers(inst)


def test_always_selects_exactly_k_distinct():
    rng = np.random.default_rng(10)
    for _ in range(60):
        inst = random_instance(rng, n_max=20)
        outcome, trace = select_prf_centers(inst)
        assert len(outcome.selected) == inst.k
        assert len(set(outcome.selected)) == inst.k
        assert len(trace.rounds) == inst.k


def test_deterministic_across_repeats():
    rng = np.random.default_rng(11)
    for _ in range(10):
        inst = random_instance(rng)
        first = select_prf_centers(inst)
        second = select_prf_centers(inst)
        assert first[0].selected == second[0].selected
        assert first[1] == second[1]


def test_trace_invariants():
    rng = np.random.default_rng(12)
    quota_checked = 0
    for _ in range(40):
        inst = random_instance(rng, n_max=15)
        quota = Fraction(inst.n, inst.k)
        _, trace = select_prf_centers(inst)
        radii = [r.radius for r in trace.rounds]
        assert radii == sorted(radii)
        for rnd in trace.rounds:
            assert list(rnd.supporters) == sorted(rnd.supporters)
            assert len(rnd.weights_before) == len(rnd.supporters)
            assert len(rnd.weights_after) == len(rnd.supporters)
            # support counts every unit of weight within the radius
            assert sum(rnd.weights_before, Fraction(0)) == rnd.support
            assert rnd.support >= quota
            # each selection consumes exactly one quota of weight
            paid = sum(rnd.weights_before, Fraction(0)) - sum(
                rnd.weights_after, Fraction(0)
            )
            assert paid == quota
            quota_checked += 1
    assert quota_checked > 0


def test_weights_zeroed_in_distance_then_index_order():
    rng = np.random.default_rng(13)
    for _ in range(30):
        inst = random_instance(rng, n_max=15)
        D = inst.distance_matrix
        _, trace = select_prf_centers(inst)
        for rnd in trace.rounds:
            sup = np.asarray(rnd.supporters)
            order = np.lexsort((sup, D[sup, rnd.winner]))
            before = [rnd.weights_before[i] for i in order]
            after = [rnd.weights_after[i] for i in order]
            # after the cut point nothing is touched; before it all is spent
            touched = [i for i, (b, a) in enumerate(zip(before, after)) if a != b]
            if touched:
                cut = touched[-1]
                assert all(a == 0 for a in after[:cut])
                assert after[cut] >= 0
                assert all(a == b for a, b in zip(after[cut + 1 :], before[cut + 1 :]))


def test_total_weight_is_exhausted():
    rng = np.random.default_rng(14)
    for _ in range(20):
        inst = random_instance(rng)
        _, trace = select_prf_centers(inst)
        spent = sum(
            (
                sum(r.weights_before, Fraction(0)) - sum(r.weights_after, Fraction(0))
                for r in trace.rounds
            ),
            Fraction(0),
        )
        assert spent == Fraction(inst.n)


def test_reduce_weights_order_rule():
    # two equal-weight, equidistant supporters: the lower index pays first
    new = reduce_weights((ONES,) * 2, (0, 1), (0.0, 0.0), Fraction(1))
    assert new == (Fraction(0), Fraction(1))


def test_reduce_weights_fractional_remainder():
    new = reduce_weights((ONES,) * 3, (0, 1, 2), (0.0, 0.0, 0.0), Fraction(3, 2))
    assert new == (Fraction(0), Fraction(1, 2), Fraction(1))


def test_reduce_weights_prefers_closer_supporters():
    # agent 1 is closer to the probe than agent 0, so it pays first
    new = reduce_weights((ONES,) * 3, (0, 1), (2.0, 1.0), Fraction(1))
    assert new == (Fraction(1), Fraction(0), Fraction(1))


def test_reduce_weights_rejects_overdraw():
    with pytest.raises(InputError):
        reduce_weights((ONES,) * 2, (0,), (0.0,), Fraction(2))


def test_weighted_support_matches_trace():
    rng = np.random.default_rng(15)
    for _ in range(15):
        inst = random_instance(rng, n_max=12)
        quota = Fraction(inst.n, inst.k)
        D = inst.distance_matrix
        outcome, trace = select_prf_centers(inst)
        weights = (ONES,) * inst.n
        for rnd in trace.rounds:
            assert weighted_support(weights, D, rnd.winner, rnd.radius) == rnd.support
            weights = reduce_weights(
                weights,
                rnd.supporters,
                tuple(float(D[i, rnd.winner]) for i in rnd.supporters),
                quota,
            )
        assert sum(weights, Fraction(0)) == 0


def test_no_candidate_beats_winner_at_selection():
    # at the instant of selection no unselected candidate holds more weight
    rng = np.random.default_rng(16)
    for _ in range(15):
        inst = random_instance(rng, n_max=12)
        quota = Fraction(inst.n, inst.k)
        D = inst.distance_matrix
        _, trace = select_prf_centers(inst)
        weights = (ONES,) * inst.n
        chosen = set()
        for rnd in trace.rounds:
            for c in range(inst.m):
                if c in chosen or c == rnd.winner:
                    continue
                rival = weighted_support(weights, D, c, rnd.radius)
                assert rival <= rnd.support
                if rival == rnd.support:
                    assert rnd.winner < c
            chosen.add(rnd.winner)
            weights = reduce_weights(
                weights,
                rnd.supporters,
                tuple(float(D[i, rnd.winner]) for i in rnd.supporters),
                quota,
            )


def test_scale_invariance_spot():
    rng = np.random.default_rng(17)
    for _ in range(15):
        inst = random_instance(rng)
        base, _ = select_prf_centers(inst)
        for alpha in (0.5, 2.0, 3.0):
            scaled = Instance(
                agents=inst.agents * alpha,
                candidates=None if inst.is_unconstrained else inst.candidates * alpha,
                k=inst.k,
                metric=inst.metric,
            )
            got, _ = select_prf_centers(scaled)
            assert got.selected == base.selected


def test_trace_radii_scale_with_coordinates():
    inst = generate("two_mass")
    _, trace = select_prf_centers(inst)
    scaled = Instance.unconstrained(inst.agents * 2.0, k=inst.k)
    _, trace2 = select_prf_centers(scaled)
    assert [r.radius for r in trace2.rounds] == [2.0 * r.radius for r in trace.rounds]


@settings(max_examples=500)
@given(small_instances(), st.sampled_from((1, 2, engine._CHUNK)), st.sampled_from((1, 7, engine._BLOCK)))
def test_trace_matches_reference_sweep(inst, chunk, block):
    # small chunks make the prefix advance take several passes even at small n, and
    # small blocks split the sort, the passes, the charges and the tied supports into slices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK", chunk)
        mp.setattr(engine, "_BLOCK", block)
        outcome, trace = select_prf_centers(inst)
    assert trace == reference_sweep(inst)
    assert outcome.selected == tuple(r.winner for r in trace.rounds)


# SHA-256 of each serialized trace as the radius-by-radius sweep produced it.
# These instances reach chunk boundaries and large tie groups, and are too
# large for the Fraction reference.
@pytest.mark.parametrize(
    "name, digest",
    [
        ("gaussian-2d", "e0f25218de227ae484d58818d7628a88b05d8447faccf88821ab10e5949b026c"),
        ("gaussian-2d-discrete", "c372416400d6dc4e35a884c66f63965b1a0ef2e35cf09d641d63602283b75115"),
        ("grid-8d", "61d9a98577147ac1ab38dc6487324c4876d49121d5a2ac15472b4f106a9deb4c"),
        ("grid-8d-manhattan", "b3ee2648581ab824aa4ccde9c3247c65c0dbe31189d326ddf9598d5014db89ff"),
    ],
)
def test_pinned_trace_digest(name, digest):
    _, trace = select_prf_centers(pinned_instance(name))
    blob = json.dumps(trace_to_json_obj(trace), separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_advance_past_row_end_raises():
    # a row whose whole weight is below the quota breaks the sweep's invariant
    inst = Instance.precomputed([[0.0, 1.0], [2.0, 0.0], [1.0, 2.0]], k=1)
    w = np.array([1, 1, 1], dtype=np.int64)
    with pytest.raises(RuntimeError, match="candidate 0 holds 3 .* quota 4"):
        engine._Thresholds(inst, w, 4)


def _assert_balls_match_brute_force(balls, inst, w, quota, live):
    # every live candidate's support, radius and counted prefix, read straight off its column
    D = inst.distance_matrix
    order = _unmarked(balls._order)
    for c in np.flatnonzero(live):
        col, radius = D[:, c], balls.radius[c]
        assert balls.support[c] == w[col <= radius].sum()
        # radius is the smallest distance at which that weight reaches the quota
        assert radius in col and balls.support[c] >= quota and w[col < radius].sum() < quota
        assert balls._pos[c] + 1 == (col <= radius).sum()
        # the counted prefix ends a run of equal distances, and that end is marked
        assert balls._order[c, balls._pos[c]] < 0
        if balls._pos[c] + 1 < inst.n:
            assert D[order[c, balls._pos[c] + 1], c] > radius


@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("decimals", [None, 0])
@pytest.mark.parametrize("chunk, block", [(engine._CHUNK, engine._BLOCK), (1, 7)])
def test_thresholds_match_brute_force_after_charges(discrete, decimals, chunk, block):
    # rounding to whole numbers makes long runs of equal distances; the sweep's weights
    # (k each, quota n), greedy's (1 each, quota ceil(n/k)) and weights that are not uniform
    rng = np.random.default_rng(10)
    points = rng.normal(scale=2, size=(60, 2))
    cands = rng.normal(scale=2, size=(25, 2))
    if decimals is not None:
        points, cands = np.round(points, decimals), np.round(cands, decimals)
    inst = Instance.discrete(points, cands, k=5) if discrete else Instance.unconstrained(points, k=5)
    n, m = inst.n, inst.m
    for w0, quota in (
        (np.full(n, 5, dtype=np.int64), n),
        (np.ones(n, dtype=np.int64), -(-n // 5)),
        (rng.integers(1, 4, size=n).astype(np.int64), n // 5),
    ):
        w = w0.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK", chunk)
            mp.setattr(engine, "_BLOCK", block)
            balls = engine._Thresholds(inst, w, quota)
            live = np.ones(m, dtype=bool)
            _assert_balls_match_brute_force(balls, inst, w, quota, live)
            for _ in range(8):
                agents = rng.choice(np.flatnonzero(w > 0), size=int(rng.integers(1, 12)), replace=False)
                amounts = rng.integers(1, w[agents] + 1)
                if w.sum() - amounts.sum() < quota:
                    break  # every row holds all the weight, so it must keep a quota
                w[agents] -= amounts
                live[rng.integers(m)] = False
                balls.charge(agents, amounts, live)
                _assert_balls_match_brute_force(balls, inst, w, quota, live)


def test_matrix_layout_does_not_change_the_selection():
    # the passes gather from C-ordered rows; a Fortran-ordered matrix must give the same results
    rng = np.random.default_rng(14)
    dm = Instance.unconstrained(np.round(rng.normal(size=(50, 2)), 1), k=6).distance_matrix
    for shared in (True, False):
        c_order = Instance.precomputed(dm, k=6, shared_candidates=shared)
        f_order = Instance.precomputed(np.asfortranarray(dm), k=6, shared_candidates=shared)
        assert not f_order.distance_matrix.flags.c_contiguous
        assert select_prf_centers(f_order) == select_prf_centers(c_order)
        assert greedy_capture(f_order, pad=True) == greedy_capture(c_order, pad=True)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_thresholds_setup_peak_memory():
    # the int32 order is half the matrix's bytes; no other temporary of the set-up, its
    # advance passes or its charges holds more than about _BLOCK entries.  At n = 1000
    # those blocks are under a tenth of the matrix (at n = 600 about a fifth).
    # Small k makes large quotas, and so long first prefixes and large payments
    points = np.random.default_rng(11).normal(size=(1000, 2))
    for k in (1, 2, 5, 20):
        inst = Instance.unconstrained(points, k=k)
        dm = inst.distance_matrix
        setup = _traced_peak(lambda: engine._Thresholds(inst, np.full(inst.n, k, dtype=np.int64), inst.n))
        assert setup <= 0.65 * dm.nbytes, k
        assert _traced_peak(lambda: select_prf_centers(inst)) <= dm.nbytes, k


def test_sweep_peak_memory_with_large_tie_groups():
    # on a 3-level 8-D grid hundreds of candidates share a threshold radius; their
    # supports are kept by the ball thresholds, so no row of the group is read
    points = np.random.default_rng(0).integers(0, 3, size=(1000, 8)).astype(float)
    inst = Instance.unconstrained(points, k=20)
    dm = inst.distance_matrix
    assert _traced_peak(lambda: select_prf_centers(inst)) <= 1.3 * dm.nbytes


def _prefix_start(balls, w, quota):
    # each row's threshold read from position 0, and the end of its run of equal distances
    order = _unmarked(balls._order)
    cums = np.cumsum(w[order], axis=1)
    rows = np.arange(cums.shape[0])
    D = balls.D
    radius = D[order[rows, (cums >= quota).argmax(axis=1)], rows]
    pos = (D <= radius).sum(axis=0) - 1
    return pos, cums[rows, pos], radius


@pytest.mark.parametrize("k", [1, 3, 7, 40])
@pytest.mark.parametrize("discrete", [False, True])
def test_direct_start_matches_prefix_sums_from_zero(k, discrete):
    # the sweep's weights (k each, quota n), greedy's (1 each, quota ceil(n/k)) and,
    # for the fallback start at position 0, weights that are not uniform;
    # k = n = 40 puts the first threshold at position 0 (p = 0)
    rng = np.random.default_rng(12)
    points = np.round(rng.normal(size=(40, 2)), 1)
    inst = (
        Instance.discrete(points, np.round(rng.normal(size=(15, 2)), 1), k=k)
        if discrete
        else Instance.unconstrained(points, k=k)
    )
    n = inst.n
    for w, quota in (
        (np.full(n, k, dtype=np.int64), n),
        (np.ones(n, dtype=np.int64), -(-n // k)),
        (rng.integers(1, 4, size=n).astype(np.int64), n // k),
    ):
        balls = engine._Thresholds(inst, w, quota)
        pos, prefix, radius = _prefix_start(balls, w, quota)
        assert np.array_equal(balls._pos, pos)
        assert np.array_equal(balls.support, prefix)
        assert np.array_equal(balls.radius, radius)


def test_thresholds_too_large_to_allocate_raise_input_error():
    # a stand-in instance whose order cannot be allocated: 10**8 x 10**8 entries
    huge = SimpleNamespace(n=10**8, m=10**8, is_unconstrained=True, distance_matrix=np.zeros((1, 1)))
    with pytest.raises(InputError, match=r"100000000 agents and 100000000 candidates need 37252903\.0 GiB"):
        engine._Thresholds(huge, np.ones(1, dtype=np.int64), 1)


@pytest.mark.parametrize("alloc", ["keys", "empty"])
def test_thresholds_allocation_failure_raises_input_error(monkeypatch, alloc):
    # "empty" fails every np.empty, so the int32 order (7 x 30 entries, 4 bytes
    # each) first; "keys" fails only the sort's int64 key buffer
    rng = np.random.default_rng(13)
    inst = Instance.discrete(rng.normal(size=(30, 2)), rng.normal(size=(7, 2)), k=3)
    inst.distance_matrix
    empty = np.empty

    def fail(shape, dtype=float, *args, **kwargs):
        if alloc == "empty" or np.dtype(dtype) == np.int64:
            raise MemoryError
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(engine.np, "empty", fail)
    with pytest.raises(InputError, match=r"30 agents and 7 candidates need 0\.0 GiB"):
        engine._Thresholds(inst, np.full(inst.n, inst.k, dtype=np.int64), inst.n)


def test_thresholds_reject_more_agents_than_int32_positions():
    # checked before the matrix is read, so a stand-in instance is enough
    too_many = SimpleNamespace(n=2**31, m=1)
    with pytest.raises(InputError, match="2147483648 agents"):
        engine._Thresholds(too_many, np.ones(1, dtype=np.int64), 1)


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_last_round_takes_no_charge(monkeypatch, k):
    # after round k - 1 the weight left is one quota, so the last thresholds are read directly
    calls = []
    charge = engine._Thresholds.charge

    def counted(self, *args):
        calls.append(args)
        return charge(self, *args)

    monkeypatch.setattr(engine._Thresholds, "charge", counted)
    inst = Instance.unconstrained(np.random.default_rng(3).normal(size=(30, 2)), k=k)
    outcome, _ = select_prf_centers(inst)
    assert len(outcome.selected) == k
    assert len(calls) == max(0, k - 2)


def _last_round_ties(inst, trace):
    # candidates left whose farthest agent with weight lies at the last radius
    w = np.full(inst.n, inst.k, dtype=np.int64)
    for rnd in trace.rounds[:-1]:
        w[list(rnd.supporters)] = [int(a * inst.k) for a in rnd.weights_after]
    far = inst.distance_matrix[w > 0].max(axis=0)
    left = np.ones(inst.m, dtype=bool)
    left[[r.winner for r in trace.rounds[:-1]]] = False
    return int((left & (far == trace.rounds[-1].radius)).sum())


@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("block", [7, engine._BLOCK])
def test_last_round_matches_reference_on_ties(discrete, block):
    # points rounded to whole numbers: many candidates reach the last radius together,
    # and a 7-entry block reads their rows one at a time
    rng = np.random.default_rng(32)
    points = np.round(rng.normal(size=(36, 2)))
    inst = (
        Instance.discrete(points, np.round(rng.normal(size=(20, 2))), k=2)
        if discrete
        else Instance.unconstrained(points, k=2)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_BLOCK", block)
        _, trace = select_prf_centers(inst)
    assert trace == reference_sweep(inst)
    assert _last_round_ties(inst, trace) >= 8
