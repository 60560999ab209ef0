import hashlib
import json
import tracemalloc
from dataclasses import replace
from itertools import combinations
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propclust import (
    AxiomReport,
    Instance,
    InputError,
    Outcome,
    Witness,
    check_core,
    check_pf,
    check_prf2,
    check_prf3,
    check_prf_discrete,
    check_prf_unconstrained,
    check_up,
    recheck_witness,
    select_prf_centers,
)
from propclust import axioms, core
from propclust.baselines import greedy_capture, kmeanspp
from propclust.core import _marked_order, _unmarked
from propclust.data_io import generate
from reference_axioms import (
    check_core_bruteforce,
    check_pf_bruteforce,
    reference_prf_discrete_sample,
    reference_prf_unconstrained_sample,
)
from util import (
    all_outcomes,
    pinned_instance,
    random_instance,
    random_outcome,
    small_instances,
    sweep_instances,
)


def ceil_div(a, b):
    return -(-a // b)


# -- direct quantifier translations used as oracles -------------------------


def oracle_pf(inst, outcome):
    dm = inst.distance_matrix
    d_out = dm[:, list(outcome.selected)].min(axis=1)
    t = ceil_div(inst.n, inst.k)
    for c in range(inst.m):
        for size in range(t, inst.n + 1):
            for S in combinations(range(inst.n), size):
                S = list(S)
                if all(dm[i, c] <= d_out[i] for i in S) and any(
                    dm[i, c] < d_out[i] for i in S
                ):
                    return False
    return True


def oracle_core(inst, outcome):
    dm = inst.distance_matrix
    d_out = dm[:, list(outcome.selected)].min(axis=1)
    t = ceil_div(inst.n, inst.k)
    for c in range(inst.m):
        for size in range(t, inst.n + 1):
            for S in combinations(range(inst.n), size):
                if sum(d_out[i] - dm[i, c] for i in S) > 0.0:
                    return False
    return True


def oracle_prf_unconstrained(inst, outcome):
    aa = inst.agent_distances
    dm = inst.distance_matrix
    sel = list(outcome.selected)
    for size in range(1, inst.n + 1):
        need = size * inst.k // inst.n
        if need == 0:
            continue
        for S in combinations(range(inst.n), size):
            diam = max((aa[i, j] for i in S for j in S), default=0.0)
            got = sum(1 for c in sel if min(dm[i, c] for i in S) <= diam)
            if got < need:
                return False
    return True


def _prf_group_counts(inst, outcome, S, y):
    dm = inst.distance_matrix
    sel = list(outcome.selected)
    avail = sum(1 for c in range(inst.m) if max(dm[i, c] for i in S) <= y)
    got_any = sum(1 for c in sel if min(dm[i, c] for i in S) <= y)
    got_one = max(sum(1 for c in sel if dm[i, c] <= y) for i in S)
    got_all = sum(1 for c in sel if max(dm[i, c] for i in S) <= y)
    return avail, got_any, got_one, got_all


def _oracle_prf_family(inst, outcome, which):
    radii = np.unique(inst.distance_matrix)
    for size in range(1, inst.n + 1):
        ell = size * inst.k // inst.n
        if ell == 0:
            continue
        for S in combinations(range(inst.n), size):
            for y in radii:
                avail, got_any, got_one, got_all = _prf_group_counts(
                    inst, outcome, S, float(y)
                )
                req = min(ell, avail)
                got = {"any": got_any, "one": got_one, "all": got_all}[which]
                if got < req:
                    return False
    return True


def oracle_prf_discrete(inst, outcome):
    return _oracle_prf_family(inst, outcome, "any")


def oracle_prf2(inst, outcome):
    return _oracle_prf_family(inst, outcome, "one")


def oracle_prf3(inst, outcome):
    return _oracle_prf_family(inst, outcome, "all")


TWO_MASS_GOOD = Outcome(tuple(range(10)) + (100,))
TWO_MASS_SWAPPED = Outcome((0,) + tuple(range(100, 110)))


# -- coincident-group entitlement --------------------------------------------


def test_up_two_mass():
    inst = generate("two_mass")
    assert check_up(inst, TWO_MASS_GOOD).satisfied
    report = check_up(inst, TWO_MASS_SWAPPED)
    assert not report.satisfied
    assert report.witness.required == 10
    assert report.witness.found == 1
    assert report.witness.radius == 0.0
    assert set(report.witness.agents) == set(range(100))
    assert recheck_witness(inst, TWO_MASS_SWAPPED, report)


def test_up_small_groups_unconstrained():
    # three coincident agents, n=5, k=2: entitled to 1 center at their spot
    pts = [(0.0,), (0.0,), (0.0,), (4.0,), (5.0,)]
    inst = Instance.unconstrained(pts, k=2)
    assert check_up(inst, Outcome((0, 3))).satisfied
    report = check_up(inst, Outcome((3, 4)))
    assert not report.satisfied
    assert report.witness.required == 1


def test_up_groups_signed_zeros_together():
    # -0.0 and 0.0 are one location: four coincident agents, n=6, k=3, owed 2
    pts = [(0.0,), (-0.0,), (0.0,), (-0.0,), (5.0,), (6.0,)]
    inst = Instance.unconstrained(pts, k=3)
    out = Outcome((0, 4, 5))
    report = check_up(inst, out)
    assert not report.satisfied
    assert report.witness.agents == (0, 1, 2, 3)
    assert (report.witness.required, report.witness.found) == (2, 1)
    assert recheck_witness(inst, out, report)


def test_up_precomputed_groups_need_identical_zero_sets():
    # not a metric: agent 0 is 0.0 from agents 1 and 2, which are 5 apart.
    # No two rows are 0.0 at the same agents, so no group reaches
    # ceil(5/2) = 3; grouping agent 0's zeros flagged (0, 1, 2), a witness
    # its own recheck rejected.  With agents 1 and 2 at 0.0 the group is real
    mat = np.array(
        [[0, 0, 0, 1, 1], [0, 0, 5, 1, 1], [0, 5, 0, 1, 1], [1, 1, 1, 0, 1], [1, 1, 1, 1, 0]],
        dtype=float,
    )
    out = Outcome((3, 4))
    inst = Instance.precomputed(mat, k=2, shared_candidates=True)
    report = check_up(inst, out)
    assert report.satisfied
    mat[1, 2] = mat[2, 1] = 0.0
    inst = Instance.precomputed(mat, k=2, shared_candidates=True)
    report = check_up(inst, out)
    assert report.witness.agents == (0, 1, 2)
    assert recheck_witness(inst, out, report)


def test_up_group_below_threshold_is_unconstrained():
    # two coincident agents, n=5, k=2: 2 < ceil(5/2), no entitlement
    pts = [(0.0,), (0.0,), (4.0,), (5.0,), (6.0,)]
    inst = Instance.unconstrained(pts, k=2)
    assert check_up(inst, Outcome((2, 3))).satisfied


# -- coalition deviation to one candidate ------------------------------------


def test_pf_two_mass_swapped_outcome_passes():
    inst = generate("two_mass")
    assert check_pf(inst, TWO_MASS_SWAPPED).satisfied
    assert check_core(inst, TWO_MASS_SWAPPED).satisfied


def test_pf_hand_violation():
    inst = Instance.discrete([(0.0,), (0.0,), (1.0,), (1.0,)], [(0.0,), (1.0,), (2.0,)], k=2)
    report = check_pf(inst, Outcome((1, 2)))
    assert not report.satisfied
    assert report.witness.candidate == 0
    assert set(report.witness.agents) == {0, 1}
    assert recheck_witness(inst, Outcome((1, 2)), report)
    assert check_pf(inst, Outcome((0, 1))).satisfied


def test_pf_requires_a_strict_improver():
    inst = Instance.discrete([(0.0,), (0.0,)], [(0.0,), (0.0,)], k=1)
    assert check_pf(inst, Outcome((0,))).satisfied
    assert check_pf_bruteforce(inst, Outcome((0,))).satisfied


def test_pf_impossible_on_hexagon():
    inst = generate("hexagon")
    for out in all_outcomes(inst):
        assert not check_pf(inst, out).satisfied
        assert not check_pf_bruteforce(inst, out).satisfied


def test_core_hand_violation():
    inst = Instance.discrete([(0.0,), (0.0,), (0.0,), (1.0,)], [(0.5,), (0.0,)], k=1)
    out = Outcome((0,))
    for checker in (check_core, check_core_bruteforce):
        report = checker(inst, out)
        assert not report.satisfied
        assert report.witness.candidate == 1
        assert recheck_witness(inst, out, report)


# -- proportional group representation ----------------------------------------


def test_prf_unconstrained_hand_cases():
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,), (1.0,)], k=2)
    report = check_prf_unconstrained(inst, Outcome((2, 3)))
    assert not report.satisfied
    assert report.witness.required == 1
    assert report.witness.found == 0
    assert report.witness.radius == 0.0
    assert recheck_witness(inst, Outcome((2, 3)), report)
    assert check_prf_unconstrained(inst, Outcome((0, 3))).satisfied
    engine_out, _ = select_prf_centers(inst)
    assert check_prf_unconstrained(inst, engine_out).satisfied


def test_prf_discrete_single_candidate_location_owed():
    # both masses have a dedicated candidate; leaving one mass with nothing,
    # despite a candidate sitting on it, is a violation
    inst = Instance.discrete([(0.0,), (0.0,), (1.0,), (1.0,)], [(0.0,), (1.0,), (1.0,)], k=2)
    report = check_prf_discrete(inst, Outcome((1, 2)))
    assert not report.satisfied
    assert set(report.witness.agents) == {0, 1}
    assert report.witness.radius == 0.0
    assert recheck_witness(inst, Outcome((1, 2)), report)
    assert check_prf_discrete(inst, Outcome((0, 1))).satisfied


def test_prf2_counterexample_instance():
    inst = generate("prf2_counterexample")
    for out in all_outcomes(inst):
        for checker in (check_prf2, check_prf3):
            report = checker(inst, out)
            assert not report.satisfied
            assert recheck_witness(inst, out, report)
    # the plain discrete form is satisfiable on the same instance
    assert check_prf_discrete(inst, Outcome((0, 3))).satisfied


def test_prf2_passes_where_prf3_fails():
    agents = [(2.0,), (1.0,), (1.0,), (0.0,), (0.0,), (0.0,)]
    cands = [(4.0,), (3.0,), (4.0,), (2.0,)]
    inst = Instance.discrete(agents, cands, k=3)
    out = Outcome((0, 2, 3))
    assert check_prf2(inst, out).satisfied
    report = check_prf3(inst, out)
    assert not report.satisfied
    assert report.witness.required == 2
    assert report.witness.found == 1
    assert report.witness.radius == 3.0
    assert recheck_witness(inst, out, report)


def test_prf_variant_implications():
    # within y of the whole group -> seen by one member -> near some member,
    # so verdicts can only weaken along that chain
    rng = np.random.default_rng(20)
    seen_direction = 0
    for _ in range(200):
        inst = random_instance(rng, n_max=7)
        out = random_outcome(rng, inst)
        disc = check_prf_discrete(inst, out).satisfied
        two = check_prf2(inst, out).satisfied
        three = check_prf3(inst, out).satisfied
        if three:
            assert two
        if two:
            assert disc
        if disc != three:
            seen_direction += 1
    assert seen_direction > 0


# -- oracle agreement ---------------------------------------------------------


def test_checkers_agree_with_subset_oracles():
    rng = np.random.default_rng(21)
    disagreements = []
    for _ in range(150):
        inst = random_instance(rng, n_max=7)
        out = random_outcome(rng, inst)
        pairs = [
            (check_pf, oracle_pf),
            (check_pf_bruteforce, oracle_pf),
            (check_core, oracle_core),
            (check_core_bruteforce, oracle_core),
            (check_prf_discrete, oracle_prf_discrete),
            (check_prf2, oracle_prf2),
            (check_prf3, oracle_prf3),
        ]
        if inst.is_unconstrained:
            pairs.append((check_prf_unconstrained, oracle_prf_unconstrained))
        for checker, oracle in pairs:
            got = checker(inst, out)
            want = oracle(inst, out)
            if got.satisfied != want:
                disagreements.append((checker.__name__, inst, out))
            if not got.satisfied:
                assert recheck_witness(inst, out, got)
    assert disagreements == []


def test_engine_output_satisfies_prf():
    rng = np.random.default_rng(22)
    for _ in range(40):
        inst = random_instance(rng, n_max=10)
        out, _ = select_prf_centers(inst)
        if inst.is_unconstrained:
            assert check_prf_unconstrained(inst, out).satisfied
        else:
            assert check_prf_discrete(inst, out).satisfied


# -- sampling mode ------------------------------------------------------------


def test_sampling_clean_pass_is_not_definitive():
    rng = np.random.default_rng(23)
    inst = Instance.unconstrained(rng.normal(size=(30, 2)), k=3)
    out, _ = select_prf_centers(inst)
    report = check_prf_unconstrained(inst, out)
    assert report.satisfied
    assert not report.definitive


def test_sampling_violations_are_sound():
    # anything sampling flags must be a genuine exhaustive violation
    def precomputed(rng):
        # no agent-agent distances: only the random subsets are sampled
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        m = int(rng.integers(k, n + 4))
        return Instance.precomputed(rng.integers(0, 4, size=(n, m)).astype(float), k=k)

    draws = [(np.random.default_rng(24), lambda rng: random_instance(rng, n_max=12))] * 120
    draws += [(np.random.default_rng(26), lambda rng: random_instance(rng, 12, ("discrete",)))] * 60
    draws += [(np.random.default_rng(27), precomputed)] * 60
    flagged = {"unconstrained": 0, "discrete": 0, "precomputed": 0}
    for rng, draw in draws:
        inst = draw(rng)
        out = random_outcome(rng, inst)
        checker = (
            check_prf_unconstrained if inst.is_unconstrained else check_prf_discrete
        )
        sampled = checker(inst, out, exhaustive=False)
        exact = checker(inst, out, exhaustive=True)
        if not sampled.satisfied:
            kind = "unconstrained" if inst.is_unconstrained else "discrete"
            flagged["precomputed" if inst.agents is None else kind] += 1
            assert sampled.definitive
            assert not exact.satisfied
            assert recheck_witness(inst, out, sampled)
    assert min(flagged.values()) > 0


def _sampled_reports_match_reference(inst, out, seed, samples):
    sel = np.asarray(out.selected, dtype=np.intp)
    pairs = [(check_prf_discrete, reference_prf_discrete_sample)]
    if inst.is_unconstrained:
        pairs.append((check_prf_unconstrained, reference_prf_unconstrained_sample))
    for checker, reference in pairs:
        report = checker(inst, out, exhaustive=False, seed=seed, samples=samples)
        witness = reference(inst, sel, seed, samples)
        assert report == AxiomReport(
            report.axiom,
            satisfied=witness is None,
            witness=witness,
            definitive=witness is not None,
        )


@settings(max_examples=500)
@given(small_instances(), st.data())
def test_sampled_prf_checkers_match_reference(inst, data):
    # prf outcomes mostly pass; random ones, also short or long, fail often
    if data.draw(st.booleans(), label="prf outcome"):
        out, _ = select_prf_centers(inst)
    else:
        picks = data.draw(st.permutations(range(inst.m)), label="candidates")
        out = Outcome(tuple(picks[: data.draw(st.integers(1, inst.m), label="size")]))
    seed = data.draw(st.integers(0, 3), label="seed")
    samples = data.draw(st.sampled_from((0, 20)), label="samples")
    _sampled_reports_match_reference(inst, out, seed, samples)


@settings(max_examples=60, deadline=None)
@given(sweep_instances(), st.integers(0, 3))
def test_sweep_output_gets_no_sampled_violation(inst, seed):
    # the paper's guarantee above the exhaustive limit: a sampled violation
    # is definitive, so any report here is a fault of the sweep
    out, _ = select_prf_centers(inst)
    report = check_prf_discrete(inst, out, seed=seed, samples=20)
    assert report.satisfied, report.witness
    if inst.is_unconstrained:
        report = check_prf_unconstrained(inst, out, seed=seed, samples=20)
        assert report.satisfied, report.witness


def test_sampled_bound_short_where_diameter_is_not():
    # not a metric: agents 1 and 2 are 10 apart but 1 from agent 0.  Seed
    # 0's first tested prefix {0, 1, 2} owes one center; the bound from
    # agent 0's row is 1, with both centers 5 away, but its diameter is 10
    mat = np.array(
        [
            [0, 1, 1, 5, 5, 5],
            [1, 0, 10, 5, 5, 5],
            [1, 10, 0, 5, 5, 5],
            [5, 5, 5, 0, 1, 1],
            [5, 5, 5, 1, 0, 1],
            [5, 5, 5, 1, 1, 0],
        ],
        dtype=float,
    )
    inst = Instance.precomputed(mat, k=2, shared_candidates=True)
    out = Outcome((3, 4))
    assert mat[0, :3].max() < mat[:3, 3:5].min()
    assert check_prf_unconstrained(inst, out, exhaustive=True).satisfied
    for samples in (0, 20):
        _sampled_reports_match_reference(inst, out, seed=0, samples=samples)
    assert check_prf_unconstrained(inst, out, exhaustive=False).satisfied


def test_sampled_bound_reads_the_first_member_not_the_seed():
    # agents 2..5 each coincide with agent 6 but lie 3 apart, so seed 6's
    # first four neighbors are 2..5 and its prefix of four leaves it out.
    # That group owes 3 centers within radius 0 (candidates 0, 1 and 6 are
    # 0 from all of it) and finds only 0 and 1.  A bound taken with seed 6's
    # own row of distances, 5 to candidates 0 and 1, would pass this seed,
    # and no other seed reaches the group
    n, group, seed = 20, [2, 3, 4, 5], 6
    mat = np.ones((n, n))

    def link(a, b, d):
        mat[np.ix_(a, b)] = mat[np.ix_(b, a)] = d

    link(group, group, 3)
    link(group, [0, 1, seed], 0)
    link([seed], [0, 1], 5)
    link(group, [7], 1)
    link(group + [seed], range(8, n), 2)
    link([seed], [7], 2)
    np.fill_diagonal(mat, 0)
    inst = Instance.precomputed(mat, k=15, shared_candidates=True)
    out = Outcome((0, 1, *range(7, n)))
    assert np.array_equal(np.argsort(mat[seed], kind="stable")[:5], [*group, seed])
    report = check_prf_discrete(inst, out, exhaustive=False, samples=0)
    assert report.witness == Witness(
        agents=tuple(group),
        radius=0.0,
        required=3,
        found=2,
        note="agent-seeded neighborhood is under-covered",
    )
    assert recheck_witness(inst, out, report)
    for samples in (0, 20):
        _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


_TIERS = ("pre-test", "bound", "radii", "fails")


def _diameter_step_tiers(inst, out):
    """Which test settles each entitlement step of each seed, by definition.

    These are the tests of the unconstrained sampled scan.  The pre-test
    reads the selected centers' distances from the prefix's first member
    and its members at the steps so far, the bound reads them from every
    member, and both compare against the first member's farthest distance
    into the prefix.  A step short at that bound ends at the exact
    diameter: "radii" if it passes there, "fails" if not.
    """
    aa = inst.agent_distances
    dsel = inst.distance_matrix[:, list(out.selected)]
    n, k = inst.n, inst.k
    steps = [(ell * n + k - 1) // k - 1 for ell in range(1, k + 1)]

    def kth(rows, ell):
        near = np.sort(dsel[rows].min(axis=0))
        return near[ell] if ell < near.size else np.inf

    seeds = []
    for i in range(n):
        order = np.argsort(aa[i], kind="stable")
        tiers = []
        for ell, t in enumerate(steps):
            prefix = order[: t + 1]
            low = aa[order[0], prefix].max()
            exact = kth(prefix, ell)
            if exact > aa[np.ix_(prefix, prefix)].max():
                tiers.append("fails")
            elif exact > low:
                tiers.append("radii")
            elif kth(order[[0, *steps[: ell + 1]]], ell) > low:
                tiers.append("bound")
            else:
                tiers.append("pre-test")
        seeds.append(tiers)
    return seeds


def _diameter_tiers(inst, out):
    """The test that settles each seed: the last one any of its steps needs."""
    return [max(tiers, key=_TIERS.index) for tiers in _diameter_step_tiers(inst, out)]


def _random_precomputed(seed, k):
    # 12 agents at symmetric integer distances 1..9, k random agents selected
    rng = np.random.default_rng(seed)
    mat = rng.integers(1, 10, size=(12, 12)).astype(float)
    mat = np.minimum(mat, mat.T)
    np.fill_diagonal(mat, 0)
    selected = sorted(int(c) for c in rng.choice(12, size=k, replace=False))
    return Instance.precomputed(mat, k=k, shared_candidates=True), Outcome(tuple(selected))


def test_sampled_seeds_settled_by_each_test():
    # seeds 4, 8 and 11 are left open by the pre-test but pass at the bound
    # from their exact nearest-center distances; seed 5 is short there and
    # passes only at its exact diameters
    inst, out = _random_precomputed(34, k=3)
    assert _diameter_tiers(inst, out) == [
        "pre-test", "pre-test", "pre-test", "pre-test", "bound", "radii",
        "pre-test", "pre-test", "bound", "pre-test", "pre-test", "bound",
    ]
    assert check_prf_unconstrained(inst, out, exhaustive=False, samples=0).satisfied
    for samples in (0, 20):
        _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


def test_sampled_witness_from_exact_radii():
    # the first failing seed, 7, comes after seeds settled by every test
    inst, out = _random_precomputed(2480, k=4)
    tiers = _diameter_tiers(inst, out)
    assert tiers[:8] == [
        "bound", "bound", "pre-test", "pre-test", "radii", "pre-test", "pre-test", "fails",
    ]
    report = check_prf_unconstrained(inst, out, exhaustive=False, samples=0)
    assert report.witness == Witness(
        agents=(0, 4, 7),
        radius=1.0,
        required=1,
        found=0,
        note="agent-seeded neighborhood holds too few centers",
    )
    assert recheck_witness(inst, out, report)
    for samples in (0, 20):
        _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


def test_sampled_witness_after_a_step_that_passes_at_its_radii():
    # seed 0 is short at its bound at steps 0 and 1; step 0 passes at its
    # exact diameter and step 1 fails, so the exact radii must run past the
    # first short step
    rng = np.random.default_rng(330)
    inst = Instance.unconstrained(rng.normal(size=(30, 2)), k=6)
    out = Outcome(tuple(sorted(int(c) for c in rng.choice(30, size=6, replace=False))))
    assert _diameter_step_tiers(inst, out)[0][:2] == ["radii", "fails"]
    report = check_prf_unconstrained(inst, out, exhaustive=False, samples=0)
    assert (len(report.witness.agents), report.witness.required) == (10, 2)
    for samples in (0, 20):
        _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


@pytest.mark.parametrize("block_entries", [1, 40, None])
def test_sampled_reports_do_not_depend_on_the_block(monkeypatch, block_entries):
    # 1: one seed per block, and one open seed or random subset per batch;
    # 40: two or three seeds per block (12 agents, k <= 4 centers), one or
    # two open seeds and 2-10 subsets per batch; None: every seed in one
    # block and every open seed and subset in one batch
    if block_entries is not None:
        monkeypatch.setattr(core, "_BLOCK", 4 * block_entries)
    for seed, k in ((34, 3), (2480, 4), (647, 4)):
        inst, out = _random_precomputed(seed, k)
        for samples in (0, 20, 200):
            _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


def test_sampled_first_failing_seed_of_a_batch_is_the_witness():
    # seeds 0, 3, 7 and 9 are short at the bound, all in one block and one
    # batch; seed 0 passes at its exact diameters, and of the three that
    # fail the lowest, seed 3, gives the witness (seed 9's prefix differs)
    inst, out = _random_precomputed(647, k=4)
    # a seed's pre-test arrays hold k * s = 16 entries
    assert core._BLOCK // 4 // 16 >= inst.n
    tiers = _diameter_tiers(inst, out)
    assert [i for i, tier in enumerate(tiers) if tier in ("radii", "fails")] == [0, 3, 7, 9]
    assert [i for i, tier in enumerate(tiers) if tier == "fails"] == [3, 7, 9]
    report = check_prf_unconstrained(inst, out, exhaustive=False, samples=0)
    size = len(report.witness.agents)
    prefix = {i: tuple(sorted(np.argsort(inst.agent_distances[i], kind="stable")[:size])) for i in (3, 9)}
    assert report.witness.agents == prefix[3] != prefix[9]
    assert recheck_witness(inst, out, report)
    for samples in (0, 20):
        _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


def _subset_fails(inst, sel, ell, members):
    """Whether a random subset fails the discrete form, from the definition."""
    rows = inst.distance_matrix[members]
    cover = np.sort(rows.max(axis=0))
    nearest = rows[:, sel].min(axis=0)
    return any(np.count_nonzero(nearest <= cover[r]) < min(ell, r + 1) for r in range(min(inst.k, inst.m)))


@pytest.mark.parametrize("block_entries", [1, 36, None])
def test_sampled_first_failing_subset_drawn_is_the_witness(monkeypatch, block_entries):
    # 28 agents 1 from candidates 0-3 and 5 from 4-7, and agents 10 and 20
    # the other way round; the outcome takes 4-7.  A random subset fails
    # exactly when it holds neither 10 nor 20.  With no agent distances
    # only random subsets are drawn, each counting its members times 4
    # centers plus a row of 8 entries against the budget of core._BLOCK, here
    # 4 * block_entries: all 18 entitled draws fit in one batch by default,
    # each has its own at 1, and at 36 draws 1-3 (36 + 68 + 40 entries) share one
    if block_entries is not None:
        monkeypatch.setattr(core, "_BLOCK", 4 * block_entries)
    n, k = 30, 5
    mat = np.full((n, 8), 5.0)
    mat[:, :4] = 1.0
    mat[[10, 20]] = [5.0] * 4 + [1.0] * 4
    inst = Instance.precomputed(mat, k=k)
    out = Outcome((4, 5, 6, 7))
    rng = np.random.default_rng(2)
    draws = []
    for _ in range(20):
        size = int(rng.integers(1, n + 1))
        if size * k // n:
            members = np.sort(rng.choice(n, size=size, replace=False))
            draws.append((members, _subset_fails(inst, list(out.selected), size * k // n, members)))
    failing = [i for i, (_, fails) in enumerate(draws) if fails]
    assert failing[:3] == [1, 3, 6] and len(failing) >= 8
    report = check_prf_discrete(inst, out, exhaustive=False, seed=2, samples=20)
    assert report.witness.agents == tuple(draws[1][0])
    assert recheck_witness(inst, out, report)
    _sampled_reports_match_reference(inst, out, seed=2, samples=20)


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.data())
def test_sampled_batches_match_reference(inst, data):
    # blocks of one to a few seeds, and batches of one to a few open seeds
    # and random subsets
    if data.draw(st.booleans(), label="prf outcome"):
        out, _ = select_prf_centers(inst)
    else:
        picks = data.draw(st.permutations(range(inst.m)), label="candidates")
        out = Outcome(tuple(picks[: data.draw(st.integers(1, inst.m), label="size")]))
    block = data.draw(st.sampled_from((1, 8, 40, 200)), label="block")
    with patch.object(core, "_BLOCK", 4 * block):
        _sampled_reports_match_reference(inst, out, data.draw(st.integers(0, 3), label="seed"), 200)


def test_sampled_first_failure_in_a_later_block():
    # two lines of 100 agents, 1000 apart, with every center on the first:
    # each seed on the second line fails its first step, and the first of
    # them, agent 100, lies past the first block of seeds
    points = np.concatenate([np.arange(100.0), 1000.0 + np.arange(100.0)])[:, None]
    inst = Instance.unconstrained(points, k=20)
    out = Outcome(tuple(range(0, 100, 5)))
    assert core._BLOCK // 4 // inst.n <= 100
    report = check_prf_unconstrained(inst, out, exhaustive=False, samples=0)
    assert report.witness.agents == tuple(range(100, 110))
    assert check_prf_discrete(inst, out, exhaustive=False, samples=0).witness.agents[0] >= 100
    for samples in (0, 20):
        _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_checks_peak_memory():
    # beside the matrices, the scan's seed blocks, open-seed gathers and subset
    # batches are shares of core._BLOCK entries, plus a few arrays of n.  On the
    # sweep's outcome the unconstrained check peaks at about 1.3 budgets at
    # n = 1000 and 1.7 at n = 2000; a block of every seed peaks at 31 at n = 1000
    budget = core._BLOCK * 8
    for n in (1000, 2000):
        points = np.random.default_rng(11).normal(size=(n, 2))
        inst = Instance.unconstrained(points, k=20)
        out, _ = select_prf_centers(inst)
        assert _traced_peak(lambda: check_prf_unconstrained(inst, out)) <= 3 * budget, n
    # the discrete form's bound is a share of the (n, m) matrix, which the scan
    # reads in blocks, as the unconstrained form does the (n, n) one: it peaks at
    # about 0.25 of it here
    points = points[:1000]
    inst = Instance.discrete(points, points[1::2], k=20)
    out, _ = select_prf_centers(inst)
    dm, _ = inst.distance_matrix, inst.agent_distances
    assert _traced_peak(lambda: check_prf_discrete(inst, out)) <= 0.6 * dm.nbytes


def test_exact_tier_peak_memory(monkeypatch):
    # 2-D points in six clumps: on the padded greedy outcome 14 seeds reach
    # their exact diameters and the last fails there; on the k-means++ outcome
    # of the discrete form (m = 1000) 242 seeds and a random subset reach their
    # exact cover radii.  Each folds its rows a block at a time, so beside the
    # matrices the check stays within 3 budgets, as a scan that never reaches
    # the exact tier does (a fold of all a group's rows at once peaked at 5.2
    # and 6.8 MiB here, 10 and 14 budgets)
    budget = core._BLOCK * 8
    rng = np.random.default_rng(0)
    points = rng.normal(scale=3.0, size=(6, 2))[rng.integers(0, 6, size=2000)] + rng.normal(size=(2000, 2))
    notes = []
    exact = axioms._first_short_prefix

    def spy(rule, order, ends, nearest, kth, req, note):
        notes.append(note)
        return exact(rule, order, ends, nearest, kth, req, note)

    monkeypatch.setattr(axioms, "_first_short_prefix", spy)
    unconstrained = Instance.unconstrained(points, k=20)
    discrete = Instance.discrete(points, points[1::2], k=20)
    cases = [
        (check_prf_unconstrained, unconstrained, greedy_capture(unconstrained, pad=True).outcome),
        (check_prf_discrete, discrete, kmeanspp(discrete)),
    ]
    ran = []
    for check, inst, out in cases:
        inst.distance_matrix, inst.agent_distances
        notes.clear()
        assert _traced_peak(lambda: check(inst, out)) <= 3 * budget, check.__name__
        ran.append(list(notes))
    assert ran[0] == [axioms._Diameter.notes[1]] * 14
    assert ran[1].count(axioms._Cover.notes[1]) == 242 and ran[1].count(axioms._Cover.notes[2]) == 1


def test_sampled_scan_on_rows_that_all_hold_ties():
    # 40 agents on an integer grid: every row of distances holds ties
    rng = np.random.default_rng(31)
    inst = Instance.unconstrained(np.round(rng.normal(size=(40, 2)) * 3), k=8)
    ranked = np.sort(inst.agent_distances, axis=1)
    assert (ranked[:, 1:] == ranked[:, :-1]).any(axis=1).all()
    engine_out, _ = select_prf_centers(inst)
    clumped = Outcome(tuple(int(c) for c in np.argsort(inst.distance_matrix[0], kind="stable")[:8]))
    outcomes = [engine_out, clumped, *(random_outcome(rng, inst) for _ in range(6))]
    assert not check_prf_unconstrained(inst, clumped, exhaustive=False, samples=0).satisfied
    assert not check_prf_discrete(inst, clumped, exhaustive=False, samples=0).satisfied
    for out in outcomes:
        for samples in (0, 20):
            _sampled_reports_match_reference(inst, out, seed=1, samples=samples)


def _assert_marked_order(block):
    # the stable order, with the last agent of each run of equal values stored as ~agent
    marked = _marked_order(block)
    order = np.argsort(block, axis=1, kind="stable")
    assert marked.dtype == np.int32
    assert np.array_equal(np.where(marked < 0, ~marked, marked), order)
    assert np.array_equal(_unmarked(marked), order)
    ranked = np.take_along_axis(block, order, axis=1)
    ends = np.ones(block.shape, dtype=bool)
    ends[:, :-1] = ranked[:, 1:] > ranked[:, :-1]
    assert np.array_equal(marked < 0, ends)
    # a block of columns, as the engine reads a discrete matrix, gives the same order
    assert np.array_equal(_marked_order(np.asfortranarray(block)), marked)


def test_stable_order_matches_stable_argsort():
    rng = np.random.default_rng(32)
    rows = [  # nonnegative, as the distances it sorts are
        rng.integers(0, 4, size=(9, 50)).astype(float),  # ties in every row
        np.abs(rng.normal(size=(5, 50))),  # no ties
        np.zeros((2, 50)),
        rng.choice([-0.0, 0.0, 1.0], size=(6, 50)),  # signed zeros compare equal
        np.abs(np.vstack([rng.normal(size=50), np.round(rng.normal(size=50), 1)])),
        rng.integers(0, 2, size=(3, 1)).astype(float),
    ]
    for block in rows:
        _assert_marked_order(block)


@st.composite
def _near_rows(draw):
    # n = 2^b and 2^b + 1 among the row lengths; values drawn from a few
    # nonnegative floats a few ulps apart (neighbours within 2^b ulps can
    # share their high parts), heavy ties, and signed zeros
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129]))
    rows = draw(st.integers(1, 3))
    base = np.float64(draw(st.floats(0, 1e6)))
    ulps = draw(st.lists(st.integers(0, 600), min_size=1, max_size=6))
    pool = np.array([(base.view(np.int64) + u).view(np.float64) for u in ulps] + [0.0, -0.0])
    picks = draw(st.lists(st.integers(0, pool.size - 1), min_size=rows * n, max_size=rows * n))
    return pool[np.array(picks)].reshape(rows, n)


@given(_near_rows())
@settings(max_examples=400)
def test_marked_order_on_near_and_tied_values(block):
    _assert_marked_order(block)


def test_marked_order_sorts_truncation_collisions_again(monkeypatch):
    # 1 + 2 ulps (agent 0), 1 + 1 ulp (agent 1) and 1.0 (agent 3) share their
    # high part when n = 4 drops 2 bits, so the key sort leaves them by index
    # and that one row is sorted again; the other row has only ties and is not
    one = np.float64(1.0).view(np.int64)
    up1, up2 = (one + 1).view(np.float64), (one + 2).view(np.float64)
    block = np.array([[up2, up1, 3.0, 1.0], [2.0, 2.0, 1.0, 1.0]])
    calls = []
    argsort = np.argsort

    def counted(rows, *args, **kwargs):
        calls.append(rows.shape)
        return argsort(rows, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    marked = _marked_order(block)
    assert calls == [(1, 4)]
    assert marked.tolist() == [[~3, ~1, ~0, ~2], [2, ~3, 0, ~1]]


def _radius_instances():
    # every kind of instance the forms read: unconstrained, rounded (so
    # with ties), discrete and shared precomputed
    rng = np.random.default_rng(41)
    for n in (1, 2, 5, 8):
        k = int(rng.integers(1, n + 1))
        pts = rng.normal(size=(n, 2))
        mat = rng.integers(0, 4, size=(n, n)).astype(float)
        mat = np.minimum(mat, mat.T)
        np.fill_diagonal(mat, 0)
        yield Instance.unconstrained(pts, k=k)
        yield Instance.unconstrained(np.round(pts), k=k)
        yield Instance.discrete(pts, rng.normal(size=(int(rng.integers(1, 7)), 2)), k=k)
        yield Instance.precomputed(mat, k=k, shared_candidates=True)


def _defined_radii(form, inst, group):
    """A group's radii by the paper's definitions, one pair or candidate at a time."""
    if form is axioms._Diameter:
        aa = inst.agent_distances
        return [max((aa[i, j] for i, j in combinations(group, 2)), default=0.0)]
    dm = inst.distance_matrix
    covers = sorted(max(dm[i, c] for i in group) for c in range(inst.m))
    return covers[: min(inst.k, inst.m)]


def _exact_tier_witness(rule, order, ends, j, r):
    """The exact tier's witness when only prefix j is short, and only in column r."""
    kth = np.full((ends.size, rule.width), -np.inf)
    kth[j, r] = np.inf
    req = np.ones(kth.shape, dtype=np.intp)
    witness = axioms._first_short_prefix(rule, order, ends, np.zeros((ends.size, 1)), kth, req, "")
    return witness.agents, witness.radius


@pytest.mark.parametrize("form", [axioms._Diameter, axioms._Cover])
def test_radii_follow_the_definitions(form):
    # a form reads one group's radii however the group was folded: as a
    # bitmask, or by the exact tier as a seed's prefix at an entitlement
    # step or as a random subset (one prefix, its whole sorted members)
    rng = np.random.default_rng(7)
    for inst in _radius_instances():
        n, rule = inst.n, form(inst)
        members = axioms._subset_members(n)
        radii = rule.radii(axioms._fold_masks(rule.table, np.maximum, -np.inf), members)
        for mask in range(1, 1 << n):
            assert radii[mask].tolist() == _defined_radii(form, inst, np.flatnonzero(members[mask]))
        steps, _ = axioms._entitlement_steps(n, inst.k)
        groups = [(order, steps) for order in _unmarked(_marked_order(inst.agent_distances))]
        for _ in range(20):
            group = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            groups.append((group, np.array([group.size - 1])))
        for order, ends in groups:
            for j, end in enumerate(ends):
                prefix = order[: end + 1]
                for r, y in enumerate(_defined_radii(form, inst, prefix)):
                    assert _exact_tier_witness(rule, order, ends, j, r) == (tuple(sorted(prefix.tolist())), y)


def _pinned_reports(inst):
    engine_out, _ = select_prf_centers(inst)
    rng = np.random.default_rng(0)
    shuffled = Outcome(tuple(int(c) for c in rng.choice(inst.m, size=inst.k, replace=False)))
    # every center near agent 0: far neighborhoods go without
    clumped = Outcome(
        tuple(int(c) for c in np.argsort(inst.distance_matrix[0], kind="stable")[: inst.k])
    )
    checkers = [check_prf_discrete]
    if inst.is_unconstrained:
        checkers.append(check_prf_unconstrained)
    return [c(inst, o).to_json_obj() for o in (engine_out, shuffled, clumped) for c in checkers]


# SHA-256 of the sampled PRF reports (engine, shuffled and clumped outcomes)
# as the checkers that test every prefix size produced them.  Six of the
# twenty-one reports are violations.
@pytest.mark.parametrize(
    "name, digest",
    [
        ("gaussian-2d", "dd95f5eb568647f4e20ff389555bb9c0dc449acbaaafcf4933174033ce9ab9bf"),
        ("gaussian-2d-discrete", "26d149b48816d480acb0968a97900ad014ba9d827a0967391df4a4271c2fd019"),
        ("grid-8d", "1d45320d8145ea1753c4ead6357d0ad7afcafb87b9d8dd37d5d29fb60d5b850d"),
        ("grid-8d-manhattan", "0d4cc8966e041f962daf2a3efdc86e0ba808be3d94548b88d2ac44c463b88d06"),
    ],
)
def test_pinned_sampled_prf_digest(name, digest):
    blob = json.dumps(_pinned_reports(pinned_instance(name)), separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_pinned_exhaustive_digest():
    # SHA-256 of the subset-enumeration reports on 80 random instances
    # (n <= 10) with random outcomes of every size, as the checkers with one
    # hand-written scan each produced them.  Of the 356 reports 177 are
    # violations: 13 PRF_UNC, 32 PRF_DISC, 32 PRF2, 55 PRF3 and 45 CORE.
    rng = np.random.default_rng(29)
    reports = []
    for _ in range(80):
        inst = random_instance(rng, n_max=10)
        out = random_outcome(rng, inst, size=int(rng.integers(1, inst.m + 1)))
        if inst.is_unconstrained:
            reports.append(check_prf_unconstrained(inst, out, exhaustive=True).to_json_obj())
        reports += [
            checker(inst, out).to_json_obj()
            for checker in (check_prf_discrete, check_prf2, check_prf3, check_core_bruteforce)
        ]
    blob = json.dumps(reports, separators=(",", ":")).encode()
    digest = "0ed330445fb4cc0ce0dd1bb99652ba163e4c4b0cc73ec579f32d4aadd3eddea5"
    assert hashlib.sha256(blob).hexdigest() == digest


def test_exhaustive_mode_rejects_large_instances():
    pts = np.linspace(0.0, 1.0, 17).reshape(-1, 1)
    inst = Instance.unconstrained(pts, k=2)
    out = Outcome((0, 16))
    with pytest.raises(InputError):
        check_prf_unconstrained(inst, out, exhaustive=True)
    with pytest.raises(InputError):
        check_prf_discrete(inst, out, exhaustive=True)
    with pytest.raises(InputError):
        check_prf2(inst, out)
    with pytest.raises(InputError):
        check_prf3(inst, out)
    with pytest.raises(InputError):
        check_pf_bruteforce(inst, out)
    with pytest.raises(InputError):
        check_core_bruteforce(inst, out)


def _sampled_instance():
    return Instance.unconstrained(np.linspace(0.0, 1.0, 20).reshape(-1, 1), k=2), Outcome((0, 19))


def _wide_discrete_instance():
    # 2^16 masks times 1000 candidates: past the exhaustive table's cell cap
    agents = np.linspace(0.0, 1.0, 16).reshape(-1, 1)
    candidates = np.linspace(0.0, 1.0, 1000).reshape(-1, 1)
    return Instance.discrete(agents, candidates, k=4), Outcome((0, 300, 600, 999))


@pytest.mark.parametrize(
    "make, check, match",
    [
        (_wide_discrete_instance, lambda i, o: check_prf_discrete(i, o, exhaustive=True), "too large"),
        (_wide_discrete_instance, check_prf2, "too large"),
        (_wide_discrete_instance, check_prf3, "too large"),
        (_sampled_instance, lambda i, o: check_prf_unconstrained(i, o, seed=-1), "non-negative"),
        (_sampled_instance, lambda i, o: check_prf_discrete(i, o, seed=-1), "non-negative"),
        (_sampled_instance, lambda i, o: check_prf_unconstrained(i, o, samples=-1), "non-negative"),
        (_sampled_instance, lambda i, o: check_prf_discrete(i, o, samples=-1), "non-negative"),
    ],
    ids=["discrete-table", "prf2-table", "prf3-table", "unconstrained-seed", "discrete-seed",
         "unconstrained-samples", "discrete-samples"],
)
def test_checkers_reject_input_they_cannot_scan(make, check, match):
    inst, outcome = make()
    with pytest.raises(InputError, match=match):
        check(inst, outcome)


def test_exhaustive_checkers_ignore_the_sampling_seed():
    inst = Instance.unconstrained(np.linspace(0.0, 1.0, 6).reshape(-1, 1), k=2)
    outcome = Outcome((0, 5))
    for check in (check_prf_unconstrained, check_prf_discrete):
        assert check(inst, outcome, seed=-1, samples=-1) == check(inst, outcome)


# -- report plumbing ----------------------------------------------------------


def test_report_json_round_trip():
    rng = np.random.default_rng(25)
    for _ in range(40):
        inst = random_instance(rng, n_max=7)
        out = random_outcome(rng, inst)
        for checker in (check_up, check_pf, check_core, check_prf_discrete):
            report = checker(inst, out)
            assert AxiomReport.from_json_obj(report.to_json_obj()) == report


def test_report_consistency_enforced():
    with pytest.raises(InputError):
        AxiomReport("up", satisfied=True, witness=Witness(agents=(0,)))
    with pytest.raises(InputError):
        AxiomReport("up", satisfied=False, witness=None)


def test_recheck_up_needs_exact_coincidence():
    # agents 0 and 1 are 1e-9 apart: check_up never groups them
    aa = np.array([[0, 1e-9, 1, 1], [1e-9, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
    inst = Instance.precomputed(aa, k=2, shared_candidates=True)
    out = Outcome((2, 3))
    assert check_up(inst, out).satisfied
    forged = AxiomReport(
        "UP",
        satisfied=False,
        witness=Witness(agents=(0, 1), radius=0.0, required=1, found=0),
    )
    assert not recheck_witness(inst, out, forged)


def test_recheck_rejects_tampered_witness():
    inst = Instance.discrete([(0.0,), (0.0,), (1.0,), (1.0,)], [(0.0,), (1.0,), (2.0,)], k=2)
    out = Outcome((1, 2))
    report = check_pf(inst, out)
    bad = AxiomReport(
        report.axiom,
        satisfied=False,
        witness=Witness(
            agents=(2, 3),  # these agents gain nothing at candidate 0
            candidate=report.witness.candidate,
            required=report.witness.required,
            found=report.witness.found,
        ),
    )
    assert not recheck_witness(inst, out, bad)


# name -> (instance, checker, outcome): a hand case whose report is a violation
_RECHECK_BASES = {
    # agents 0-2 coincide at 0, n = 5, k = 2: owed one of the candidates there
    "up": (
        lambda: Instance.unconstrained([(0.0,), (0.0,), (0.0,), (4.0,), (5.0,)], k=2),
        check_up,
        (3, 4),
    ),
    # the same distances as a matrix, so coincidence is read off zero rows
    "up_matrix": (
        lambda: Instance.precomputed(
            np.array([[0, 0, 0, 4, 5]] * 3 + [[4, 4, 4, 0, 1], [5, 5, 5, 1, 0]], dtype=float),
            k=2,
            shared_candidates=True,
        ),
        check_up,
        (3, 4),
    ),
    # four coincident agents owed the 2 candidates within 2.0, given one
    "up_discrete": (
        lambda: Instance.discrete([(0.0,)] * 4, [(1.0,), (2.0,), (3.0,)], k=2),
        check_up,
        (0, 2),
    ),
    "pf": (
        lambda: Instance.discrete([(0.0,), (0.0,), (1.0,), (1.0,)], [(0.0,), (1.0,), (2.0,)], k=2),
        check_pf,
        (1, 2),
    ),
    "core": (
        lambda: Instance.discrete([(0.0,), (0.0,), (0.0,), (1.0,)], [(0.5,), (0.0,)], k=1),
        check_core,
        (0,),
    ),
    # agents 0 and 1 (diameter 0.0) are owed a center at their spot
    "prf_unc": (
        lambda: Instance.unconstrained([(0.0,), (0.0,), (1.0,), (1.0,)], k=2),
        check_prf_unconstrained,
        (2, 3),
    ),
    # agents 0 and 1 are owed the candidate at 1.0, within radius 1.0
    "prf_disc": (
        lambda: Instance.discrete([(0.0,), (0.0,), (3.0,), (3.0,)], [(1.0,), (3.0,), (3.0,)], k=2),
        check_prf_discrete,
        (1, 2),
    ),
}


@pytest.mark.parametrize(
    "base, change",
    [
        ("up", {"agents": ()}),
        ("up", {"agents": (0, 5)}),  # n = 5
        ("up", {"agents": (-1, 0)}),
        ("up", {"agents": (0, 1, 3)}),  # agent 3 is at 4.0
        ("up_matrix", {"agents": (0, 1, 3)}),
        ("up", {"required": None}),
        ("up", {"required": 2}),  # 3 agents // ceil(5/2) = 1
        ("up_discrete", {"radius": 1.0}),  # one candidate offered, 2 required
        ("pf", {"agents": (0,)}),  # ceil(4/2) = 2
        ("core", {"agents": (0, 1, 2)}),  # ceil(4/1) = 4
        ("prf_unc", {"radius": 1.0}),  # the diameter is 0.0
        ("prf_unc", {"required": None}),
        ("prf_unc", {"required": 2}),  # 2 agents * 2 // 4 = 1
        ("prf_disc", {"radius": None}),
        ("prf_disc", {"required": None}),
        ("prf_disc", {"required": 2}),  # 2 agents * 2 // 4 = 1
        ("prf_disc", {"radius": 0.5}),  # no candidate within 0.5, 1 required
        ("pf", {"axiom": "NOPE"}),
    ],
)
def test_recheck_rejects_a_violation_changed_in_one_field(base, change):
    make, checker, selected = _RECHECK_BASES[base]
    inst, out = make(), Outcome(selected)
    report = checker(inst, out)
    assert recheck_witness(inst, out, report)
    if "axiom" in change:
        forged = replace(report, **change)
    else:
        forged = replace(report, witness=replace(report.witness, **change))
    assert not recheck_witness(inst, out, forged)


def test_recheck_accepts_a_satisfied_report():
    inst, out = _RECHECK_BASES["pf"][0](), Outcome((0, 1))
    assert recheck_witness(inst, out, AxiomReport("PF", satisfied=True))


# name -> (instance, outcome) for forged reports
_FORGERY_BASES = {
    # six points on a line, k = 2: the outcome satisfies UP, PF, CORE, PRF_UNC,
    # PRF_DISC and PRF2, yet agent 2 named three times is a group of ceil(6/2)
    "line": (lambda: Instance.unconstrained(np.arange(6.0)[:, None], k=2), (1, 4)),
    # CORE is violated at candidate 1, the last one
    "core": (_RECHECK_BASES["core"][0], (0,)),
    "two_mass": (lambda: generate("two_mass"), TWO_MASS_GOOD.selected),
}
_CHECKER_OF = {
    "UP": check_up,
    "PF": check_pf,
    "CORE": check_core,
    "PRF_UNC": check_prf_unconstrained,
    "PRF_DISC": check_prf_discrete,
    "PRF2": check_prf2,
}


@pytest.mark.parametrize(
    "base, axiom, witness",
    [
        ("line", "UP", {"agents": [2, 2, 2], "radius": 0.0, "required": 1}),
        ("line", "PF", {"agents": [2, 2, 2], "candidate": 2}),
        ("line", "CORE", {"agents": [2, 2, 2], "candidate": 2}),
        ("line", "PRF_UNC", {"agents": [2, 2, 2], "radius": 0.0, "required": 1}),
        ("line", "PRF_DISC", {"agents": [2, 2, 2], "radius": 0.0, "required": 1}),
        ("line", "PRF2", {"agents": [2, 2, 2], "radius": 0.0, "required": 1}),
        ("line", "PF", {"agents": [1, 2, 3], "candidate": None}),
        ("line", "PF", {"agents": [1, 2, 3], "candidate": 6}),
        ("line", "CORE", {"agents": [1, 2, 3], "candidate": None}),
        ("line", "CORE", {"agents": [1, 2, 3], "candidate": 6}),
        # the real witness's candidate is 1, which -1 must not be read as
        ("core", "CORE", {"agents": [0, 1, 2, 3], "candidate": -1}),
        ("two_mass", "UP", {"agents": list(range(100)), "radius": None, "required": 10}),
    ],
)
def test_recheck_rejects_forged_and_malformed_witnesses(base, axiom, witness):
    # a stored report is read back with these values, and the recheck must say
    # False rather than confirm it or raise
    make, selected = _FORGERY_BASES[base]
    inst, out = make(), Outcome(selected)
    if base != "core":
        assert _CHECKER_OF[axiom](inst, out).satisfied
    report = AxiomReport.from_json_obj({"axiom": axiom, "satisfied": False, "witness": witness})
    assert recheck_witness(inst, out, report) is False


def test_violation_report_is_always_definitive():
    # only a sampled check's clean verdict is not definitive: a violation
    # marked so, in a stored record or built directly, is rejected
    witness = {"agents": [0, 1], "candidate": 2, "required": 2, "found": 2}
    stored = {"axiom": "PF", "satisfied": False, "definitive": False, "witness": witness}
    with pytest.raises(InputError, match="^a violation report is always definitive$"):
        AxiomReport.from_json_obj(stored)
    with pytest.raises(InputError, match="^a violation report is always definitive$"):
        AxiomReport("PF", satisfied=False, witness=Witness(agents=(0, 1)), definitive=False)
    clean = AxiomReport.from_json_obj({"axiom": "PRF_UNC", "satisfied": True, "definitive": False})
    assert clean.satisfied and not clean.definitive
