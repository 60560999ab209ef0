import hashlib
import json
from itertools import combinations

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
from propclust import axioms
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
    # 1: one seed per block; 40: two or three (12 agents, k <= 4 centers)
    if block_entries is not None:
        monkeypatch.setattr(axioms, "_SEED_BLOCK", block_entries)
    for seed, k in ((34, 3), (2480, 4)):
        inst, out = _random_precomputed(seed, k)
        for samples in (0, 20):
            _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


def test_sampled_first_failure_in_a_later_block():
    # two lines of 100 agents, 1000 apart, with every center on the first:
    # each seed on the second line fails its first step, and the first of
    # them, agent 100, lies past the first block of seeds
    points = np.concatenate([np.arange(100.0), 1000.0 + np.arange(100.0)])[:, None]
    inst = Instance.unconstrained(points, k=20)
    out = Outcome(tuple(range(0, 100, 5)))
    assert axioms._SEED_BLOCK // inst.n <= 100
    report = check_prf_unconstrained(inst, out, exhaustive=False, samples=0)
    assert report.witness.agents == tuple(range(100, 110))
    assert check_prf_discrete(inst, out, exhaustive=False, samples=0).witness.agents[0] >= 100
    for samples in (0, 20):
        _sampled_reports_match_reference(inst, out, seed=0, samples=samples)


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


def test_stable_order_matches_stable_argsort():
    rng = np.random.default_rng(32)
    rows = [
        rng.integers(0, 4, size=(9, 50)).astype(float),  # ties in every row
        rng.normal(size=(5, 50)),  # no ties
        np.zeros((2, 50)),
        rng.choice([-0.0, 0.0, 1.0], size=(6, 50)),  # signed zeros compare equal
        np.vstack([rng.normal(size=50), np.round(rng.normal(size=50), 1)]),
        rng.integers(0, 2, size=(3, 1)).astype(float),
    ]
    for block in rows:
        assert np.array_equal(axioms._stable_order(block), np.argsort(block, axis=1, kind="stable"))


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
