import hashlib
import warnings

import numpy as np
import pytest

from propclust import (
    ExperimentGrid,
    Instance,
    InputError,
    Outcome,
    aggregate,
    aggregates_to_json,
    metric_order,
    metric_value,
    msd_j,
    run_algorithm,
    run_experiment,
    select_prf_centers,
)
from propclust.data_io import generate
from util import pinned_instance, random_instance, random_outcome


def test_msd_unit_pair():
    inst = Instance.unconstrained([(0.0,), (1.0,)], k=2)
    out = Outcome((0, 1))
    assert msd_j(inst, out, 2) == pytest.approx(1.0)
    assert msd_j(inst, out, 2, squared=False) == pytest.approx(1.0)
    assert msd_j(inst, out, 1) == pytest.approx(0.0)


def test_msd_hand_values():
    inst = Instance.unconstrained([(0.0,), (2.0,), (3.0,)], k=2)
    out = Outcome((0, 2))
    # nearest: 0, 1, 0; squared mean = 1/3
    assert msd_j(inst, out, 1) == pytest.approx(1.0 / 3.0)
    assert msd_j(inst, out, 1, squared=False) == pytest.approx(1.0 / 3.0)
    # both centers: (0+9) + (1+4) + (0+9) = 23, mean 23/3
    assert msd_j(inst, out, 2) == pytest.approx(23.0 / 3.0)
    assert msd_j(inst, out, 2, squared=False) == pytest.approx((3 + 3 + 3) / 3.0)


def test_msd_matches_direct_computation():
    rng = np.random.default_rng(40)
    for _ in range(30):
        inst = random_instance(rng)
        out = random_outcome(rng, inst)
        dm = inst.distance_matrix
        for j in range(1, len(out.selected) + 1):
            want = np.mean(
                [
                    sum(sorted(dm[i, c] for c in out.selected)[:j]) ** 1
                    for i in range(inst.n)
                ]
            )
            got = msd_j(inst, out, j, squared=False)
            assert got == pytest.approx(float(want))


def test_msd_rejects_out_of_range_j():
    inst = Instance.unconstrained([(0.0,), (1.0,)], k=2)
    out = Outcome((0,))
    with pytest.raises(InputError):
        msd_j(inst, out, 0)
    with pytest.raises(InputError):
        msd_j(inst, out, 2)


def test_msd_overflowing_squares_raise_input_error():
    inst = Instance.unconstrained([(0.0,), (1e200,), (2e200,), (3e200,)], k=2, metric="manhattan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="squares overflow"):
            msd_j(inst, Outcome((0, 1)), 1)
        assert msd_j(inst, Outcome((0, 1)), 1, squared=False) == 7.5e199


def test_metric_order():
    assert metric_order("msd1", 7) == 1
    assert metric_order("msdhalfk", 7) == 4
    assert metric_order("msdhalfk", 8) == 4
    assert metric_order("msdk", 7) == 7
    with pytest.raises(InputError):
        metric_order("msd2", 7)


def test_metric_value_missing_for_underfilled():
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=3)
    short = Outcome((0, 2))
    assert metric_value(inst, short, "msd1") is not None
    assert metric_value(inst, short, "msdk") is None


def test_run_algorithm_dispatch():
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=2)
    want, _ = select_prf_centers(inst)
    assert run_algorithm("prf", inst).selected == want.selected
    assert len(run_algorithm("kmeanspp", inst, seed=1).selected) == 2
    assert len(run_algorithm("greedy", inst).selected) == 2
    with pytest.raises(InputError):
        run_algorithm("lloyd", inst)


def test_run_algorithm_greedy_is_padded():
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=3)
    assert len(run_algorithm("greedy", inst).selected) == 3


def test_grid_validation():
    inst = Instance.unconstrained([(0.0,), (1.0,)], k=1)
    with pytest.raises(InputError):
        ExperimentGrid(datasets=(("d", inst),), ks=(1,), algorithms=("je-ne-sais-quoi",))
    with pytest.raises(InputError):
        ExperimentGrid(datasets=(("d", inst),), ks=(1,), metrics=("msd2",))
    with pytest.raises(InputError):
        ExperimentGrid(datasets=(("d", inst),), ks=(1,), seeds=())
    # rows are grouped by dataset name, so two datasets of one name would be averaged together
    with pytest.raises(InputError, match="dataset name 'd' is repeated"):
        ExperimentGrid(datasets=(("d", inst), ("d", inst.with_k(2))), ks=(1,))


def test_experiment_builds_distances_once_per_dataset(monkeypatch):
    import propclust.core as core

    builds = []
    real = core._pairwise

    def counting(a, b, metric):
        # with_k shares the candidates, which are the agents array, so the build sums half the matrix
        builds.append(b is a)
        return real(a, b, metric)

    monkeypatch.setattr(core, "_pairwise", counting)
    grid = ExperimentGrid(
        datasets=(("blobs", generate("two_blobs")),),
        ks=(1, 2, 3),
        algorithms=("prf", "kmeanspp", "greedy"),
        metrics=("msd1",),
    )
    run_experiment(grid)
    assert builds == [True]


def test_experiment_sorts_each_candidate_row_once(monkeypatch):
    import propclust.core as core

    rows_sorted = []
    real = core._marked_order

    def counting(rows, out=None):
        rows_sorted.append(rows.shape[0])
        return real(rows, out=out)

    monkeypatch.setattr(core, "_marked_order", counting)
    # n = 300 sorts in two blocks of rows; every k of both rules reads the one order
    inst = Instance.unconstrained(np.random.default_rng(21).normal(size=(300, 2)), k=1)
    grid = ExperimentGrid(datasets=(("d", inst),), ks=(5, 10, 20), algorithms=("prf", "greedy"))
    run_experiment(grid)
    assert len(rows_sorted) == 2 and sum(rows_sorted) == inst.m


def test_experiment_row_layout():
    inst = generate("two_blobs")
    grid = ExperimentGrid(
        datasets=(("blobs", inst),),
        ks=(1, 2),
        algorithms=("prf", "kmeanspp"),
        seeds=(0, 1),
        metrics=("msd1", "msdk"),
    )
    table = run_experiment(grid)
    # prf: 2 ks x 2 metrics; kmeanspp: 2 ks x 2 seeds x 2 metrics
    assert len(table.rows) == 4 + 8
    seeds = {r.seed for r in table.rows if r.algorithm == "prf"}
    assert seeds == {None}
    seeds = {r.seed for r in table.rows if r.algorithm == "kmeanspp"}
    assert seeds == {0, 1}
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "dataset,algorithm,k,seed,metric,value"
    assert len(lines) == 13
    assert csv == run_experiment(grid).to_csv()


def test_missing_values_render_empty():
    from propclust import ResultRow, ResultTable

    table = ResultTable((ResultRow("tiny", "prf", 3, None, "msdk", None),))
    assert table.to_csv().strip().split("\n")[1] == "tiny,prf,3,,msdk,"


def test_aggregate_means_and_pct():
    rows = run_experiment(
        ExperimentGrid(
            datasets=(("blobs", generate("two_blobs")),),
            ks=(2,),
            algorithms=("prf", "kmeanspp"),
            seeds=(0, 1, 2),
            metrics=("msd1",),
        )
    )
    aggs = aggregate(rows)
    by_algo = {a.algorithm: a for a in aggs}
    km = by_algo["kmeanspp"]
    vals = [r.value for r in rows.rows if r.algorithm == "kmeanspp"]
    assert km.mean == pytest.approx(sum(vals) / len(vals))
    assert km.pct_vs_kmeanspp == pytest.approx(0.0)
    prf = by_algo["prf"]
    assert prf.pct_vs_kmeanspp == pytest.approx((prf.mean - km.mean) / km.mean * 100.0)


def test_aggregate_handles_missing_groups():
    from propclust import ResultRow, ResultTable

    table = ResultTable(
        (
            ResultRow("d", "prf", 3, None, "msdk", None),
            ResultRow("d", "kmeanspp", 3, 0, "msdk", 2.0),
        )
    )
    aggs = aggregate(table)
    prf = next(a for a in aggs if a.algorithm == "prf")
    assert prf.mean is None
    assert prf.pct_vs_kmeanspp is None


def test_aggregates_json_shape():
    import json

    inst = generate("two_blobs")
    grid = ExperimentGrid(datasets=(("b", inst),), ks=(2,), algorithms=("prf", "kmeanspp"))
    aggs = aggregate(run_experiment(grid))
    data = json.loads(aggregates_to_json(aggs))
    assert {d["algorithm"] for d in data} == {"prf", "kmeanspp"}
    assert set(data[0]) == {"dataset", "algorithm", "k", "metric", "mean", "pct_vs_kmeanspp"}


def test_pinned_experiment_digest():
    # SHA-256 of the rows CSV and the aggregates JSON of a small grid, as
    # the k-means++ with one pass per cluster and round produced them
    names = ("gaussian-2d", "gaussian-2d-discrete", "grid-8d", "grid-8d-manhattan")
    grid = ExperimentGrid(
        datasets=tuple((name, pinned_instance(name)) for name in names), ks=(3, 8, 12), seeds=(0, 1, 2)
    )
    table = run_experiment(grid)
    assert len(table.rows) == 180
    digest = "da12b7ebbed93d5e4c8d1b9758a0c0b822a245bfc8569a4a7f57eb6bd5de1151"
    assert hashlib.sha256(table.to_csv().encode()).hexdigest() == digest
    digest = "00b5daffc8473b92a8cac84b2d8da127fbac8ecb73ce0c42cbf34776c86b52f1"
    assert hashlib.sha256(aggregates_to_json(aggregate(table)).encode()).hexdigest() == digest
