"""Acceptance gate: one test per shipping criterion, full scale.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Every expected value here was computed by an independent
oracle (subset enumeration, hand trace, or brute force over all outcomes)
before being frozen into an assertion.
"""

import json
import time
from itertools import combinations

import numpy as np

from propclust import (
    ExperimentGrid,
    Instance,
    Outcome,
    aggregate,
    check_core,
    check_pf,
    check_prf2,
    check_prf_discrete,
    check_prf_unconstrained,
    check_up,
    greedy_capture,
    kmeans_cost,
    run_experiment,
    select_prf_centers,
)
from propclust.cli import main
from propclust.data_io import generate
from reference_axioms import check_core_bruteforce, check_pf_bruteforce


def acceptance_instance(rng, n_max=60, k_max=10):
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(1, min(n, k_max) + 1))
    dim = int(rng.integers(1, 4))
    if rng.random() < 0.2:
        pts = rng.integers(0, 5, size=(n, dim)).astype(float)
    else:
        pts = rng.normal(size=(n, dim))
    metric = "euclidean" if rng.random() < 0.7 else "manhattan"
    if rng.random() < 0.5:
        return Instance.unconstrained(pts, k=k, metric=metric)
    m = int(rng.integers(k, n + 5))
    cands = rng.normal(size=(m, dim)) if rng.random() < 0.8 else rng.integers(
        0, 5, size=(m, dim)
    ).astype(float)
    return Instance.discrete(pts, cands, k=k, metric=metric)


def test_criterion_01_returns_exactly_k_centers_fast():
    rng = np.random.default_rng(100)
    modes = {"unconstrained": 0, "discrete": 0}
    for _ in range(500):
        inst = acceptance_instance(rng)
        outcome, trace = select_prf_centers(inst)
        assert len(outcome.selected) == inst.k
        assert len(set(outcome.selected)) == inst.k
        assert len(trace.rounds) == inst.k
        modes["unconstrained" if inst.is_unconstrained else "discrete"] += 1
    assert min(modes.values()) > 100  # both modes genuinely exercised

    big = Instance.unconstrained(np.random.default_rng(7).normal(size=(500, 2)), k=20)
    start = time.perf_counter()
    outcome, _ = select_prf_centers(big)
    elapsed = time.perf_counter() - start
    assert len(outcome.selected) == 20
    assert elapsed < 60.0
    print(f"criterion 01 PASS: 500 random instances gave exactly k centers; "
          f"n=500 k=20 took {elapsed:.2f}s")


def test_criterion_02_output_satisfies_exhaustive_prf():
    rng = np.random.default_rng(101)
    checked = {"unconstrained": 0, "discrete": 0}
    for _ in range(200):
        inst = acceptance_instance(rng, n_max=12, k_max=6)
        outcome, _ = select_prf_centers(inst)
        if inst.is_unconstrained:
            report = check_prf_unconstrained(inst, outcome, exhaustive=True)
            checked["unconstrained"] += 1
        else:
            report = check_prf_discrete(inst, outcome, exhaustive=True)
            checked["discrete"] += 1
        assert report.satisfied, (inst, outcome, report.witness)
        assert report.definitive
    assert min(checked.values()) > 50
    print(f"criterion 02 PASS: exhaustive group checks accepted all 200 outputs "
          f"({checked['unconstrained']} unconstrained, {checked['discrete']} discrete)")


def test_criterion_03_two_mass_separates_up_from_pf_and_core():
    inst = generate("two_mass")
    outcome, _ = select_prf_centers(inst)
    xs = inst.agents[list(outcome.selected), 0]
    assert (xs == 0.0).sum() == 10
    assert (xs == 1.0).sum() == 1
    assert check_up(inst, outcome).satisfied

    swapped = Outcome((0,) + tuple(range(100, 110)))
    assert check_pf(inst, swapped).satisfied
    assert check_core(inst, swapped).satisfied
    assert not check_up(inst, swapped).satisfied
    print("criterion 03 PASS: engine gives the 10+1 split; the swapped outcome "
          "passes pf and core but fails up")


def test_criterion_04_no_outcome_satisfies_pf_on_hexagon():
    inst = generate("hexagon")
    start = time.perf_counter()
    failures = 0
    for sel in combinations(range(6), 3):
        report = check_pf_bruteforce(inst, Outcome(sel))
        if not report.satisfied:
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 20
    assert elapsed < 1.0
    print(f"criterion 04 PASS: all 20 outcomes fail pf in {elapsed * 1000:.0f}ms")


def test_criterion_05_three_circles_beats_kmeans_on_fairness():
    inst = generate("three_circles")
    start = time.perf_counter()

    outcome, _ = select_prf_centers(inst)
    xs = inst.agents[list(outcome.selected), 0]
    # one center per circle: two on the small pair (x near 0), one on the big ring
    assert (xs < 3.0).sum() == 2
    assert (xs > 3.0).sum() == 1
    engine_report = check_prf_unconstrained(inst, outcome, seed=0)
    assert engine_report.satisfied

    dm2 = inst.distance_matrix**2
    triples = np.array(list(combinations(range(36), 3)))
    costs = dm2[:, triples].min(axis=2).sum(axis=0)
    best = triples[int(np.argmin(costs))]
    km_opt = Outcome(tuple(int(i) for i in best))
    assert kmeans_cost(inst, km_opt) == float(costs.min())
    xs = inst.agents[list(km_opt.selected), 0]
    assert (xs > 3.0).sum() == 2  # optimum spends two centers on the big circle
    km_report = check_prf_unconstrained(inst, km_opt, seed=0)
    assert not km_report.satisfied
    assert km_report.definitive

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 05 PASS: engine covers each circle and satisfies the group "
          f"check; the C(36,3) optimum {km_opt.selected} does not ({elapsed:.1f}s)")


def test_criterion_06_greedy_stops_at_two_centers():
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=3)
    result = greedy_capture(inst)
    assert len(result.outcome.selected) == 2
    locations = sorted(inst.agents[list(result.outcome.selected), 0])
    assert locations == [0.0, 1.0]
    assert result.underfilled
    print("criterion 06 PASS: ball growing opens only the two occupied locations "
          "and flags the underfill")


def test_criterion_07_no_pair_satisfies_the_single_member_variant():
    inst = generate("prf2_counterexample")
    failures = 0
    for sel in combinations(range(inst.m), 2):
        report = check_prf2(inst, Outcome(sel))
        if not report.satisfied:
            failures += 1
    assert failures == 6
    print("criterion 07 PASS: all 6 candidate pairs fail the single-member variant")


def test_criterion_08_fast_checkers_match_subset_oracles():
    rng = np.random.default_rng(102)
    pf_checked = core_checked = 0
    for _ in range(200):
        inst = acceptance_instance(rng, n_max=12, k_max=6)
        sel = rng.choice(inst.m, size=inst.k, replace=False)
        out = Outcome(tuple(int(j) for j in sel))
        assert check_pf(inst, out).satisfied == check_pf_bruteforce(inst, out).satisfied
        pf_checked += 1
        assert (
            check_core(inst, out).satisfied
            == check_core_bruteforce(inst, out).satisfied
        )
        core_checked += 1
    assert pf_checked == core_checked == 200
    print("criterion 08 PASS: polynomial checkers matched subset enumeration on "
          "200 instances")


def test_criterion_09_selection_is_scale_invariant():
    rng = np.random.default_rng(103)
    for _ in range(100):
        inst = acceptance_instance(rng)
        base, _ = select_prf_centers(inst)
        for alpha in (0.5, 3.0, 1000.0):
            scaled = Instance(
                agents=inst.agents * alpha,
                candidates=None if inst.is_unconstrained else inst.candidates * alpha,
                k=inst.k,
                metric=inst.metric,
            )
            got, _ = select_prf_centers(scaled)
            assert got.selected == base.selected, (alpha, inst)
    print("criterion 09 PASS: selected index sequences unchanged under "
          "alpha in {0.5, 3, 1000} across 100 instances")


def test_criterion_10_blob_sweep_matches_reported_sign_pattern():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    blobs = np.vstack(
        [
            rng.normal(loc=center, scale=1.0, size=(100, 2))
            for center in [(0.0, 0.0), (6.0, 0.0), (3.0, 5.0)]
        ]
    )
    inst = Instance.unconstrained(blobs, k=1)
    grid = ExperimentGrid(
        datasets=(("blobs", inst),),
        ks=tuple(range(1, 31)),
        algorithms=("prf", "kmeanspp"),
        seeds=(0, 1, 2, 3, 4),
        metrics=("msd1", "msdk"),
    )
    aggs = aggregate(run_experiment(grid))
    pct = {
        metric: [
            a.pct_vs_kmeanspp
            for a in aggs
            if a.algorithm == "prf" and a.metric == metric
        ]
        for metric in ("msd1", "msdk")
    }
    assert all(len(v) == 30 and None not in v for v in pct.values())
    mean_msd1 = sum(pct["msd1"]) / 30.0
    mean_msdk = sum(pct["msdk"]) / 30.0
    elapsed = time.perf_counter() - start
    assert mean_msd1 >= 0.0
    assert mean_msdk <= 0.0
    assert elapsed < 600.0
    print(f"criterion 10 PASS: over k=1..30 the mean percent difference vs "
          f"kmeanspp is {mean_msd1:+.1f}% for msd1 and {mean_msdk:+.1f}% for msdk "
          f"({elapsed:.0f}s)")


def test_criterion_11_repeated_runs_are_byte_identical(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    assert main(["gen", "--name", "three_circles", "--out", str(csv_path)]) == 0

    records = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        code = main(
            [
                "cluster",
                "--algo",
                "prf",
                "--input",
                str(csv_path),
                "--k",
                "3",
                "--axioms",
                "up,pf,core",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        records.append(out.read_bytes())
    assert records[0] == records[1]
    json.loads(records[0])  # stays parseable JSON

    grid_path = tmp_path / "grid.json"
    grid_path.write_text(
        json.dumps(
            {
                "datasets": [{"generator": "two_blobs"}, {"generator": "grid_uniform"}],
                "ks": [1, 2, 3, 4],
                "algorithms": ["prf", "kmeanspp", "greedy"],
                "seeds": [0, 1, 2],
                "metrics": ["msd1", "msdhalfk", "msdk"],
            }
        )
    )
    tables = []
    for i in range(2):
        rows = tmp_path / f"rows{i}.csv"
        aggs = tmp_path / f"aggs{i}.json"
        code = main(
            [
                "experiment",
                "--grid",
                str(grid_path),
                "--out",
                str(rows),
                "--aggregates",
                str(aggs),
            ]
        )
        assert code == 0
        tables.append((rows.read_bytes(), aggs.read_bytes()))
    assert tables[0] == tables[1]
    capsys.readouterr()
    print("criterion 11 PASS: run records, result CSVs, and aggregates are "
          "byte-identical across repeated runs")
