import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propclust import (
    Instance,
    InputError,
    Outcome,
    check_pf,
    check_up,
    greedy_capture,
    select_prf_centers,
)
from propclust import data_io
from propclust.cli import main
from propclust.data_io import (
    GENERATORS,
    RunRecord,
    _indented,
    generate,
    instance_from_record,
    instance_to_csv,
    load_csv,
    load_grid,
    read_run_record,
    record_for,
    trace_from_json_obj,
    trace_to_json_obj,
    write_run_record,
)
from util import random_instance


# -- point CSV ----------------------------------------------------------------


def test_csv_round_trip_preserves_digest(tmp_path):
    rng = np.random.default_rng(50)
    for i in range(20):
        inst = random_instance(rng)
        p = tmp_path / f"inst{i}.csv"
        p.write_text(instance_to_csv(inst))
        back = load_csv(p, k=inst.k, metric=inst.metric)
        assert back.digest == inst.digest


def test_csv_without_role_column_is_unconstrained(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x0,x1\n0.0,0.0\n1.0,2.0\n")
    inst = load_csv(p, k=2)
    assert inst.is_unconstrained
    assert inst.n == 2
    assert inst.dim == 2


def test_csv_role_column_splits_rows(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("role,x0\nagent,0.0\nagent,1.0\ncandidate,0.5\n")
    inst = load_csv(p)
    assert not inst.is_unconstrained
    assert inst.n == 2
    assert inst.m == 1


def test_csv_id_column_is_ignored(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("id,x0\nfirst,0.0\nsecond,3.0\n")
    inst = load_csv(p, k=1)
    assert inst.n == 2
    assert inst.agents[1, 0] == 3.0


def test_csv_standardize_uses_sample_std(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("x0,x1\n0.0,7.0\n2.0,7.0\n4.0,7.0\n")
    inst = load_csv(p, k=1, standardize=True)
    np.testing.assert_allclose(inst.agents[:, 0], [-1.0, 0.0, 1.0])
    # constant columns pass through instead of dividing by zero
    np.testing.assert_allclose(inst.agents[:, 1], 0.0)


def test_csv_error_messages_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x0\n1.0\noops\n")
    with pytest.raises(InputError, match="line 3"):
        load_csv(p)
    p.write_text("x0,x1\n1.0\n")
    with pytest.raises(InputError, match="line 2"):
        load_csv(p)
    p.write_text("role,x0\nneither,1.0\n")
    with pytest.raises(InputError, match="role"):
        load_csv(p)
    p.write_text("x0\n")
    with pytest.raises(InputError, match="no data rows"):
        load_csv(p)
    p.write_text("role,x0\nagent,1.0\n")
    with pytest.raises(InputError, match="no candidate rows"):
        load_csv(p)


# -- generators ----------------------------------------------------------------


def test_generators_are_deterministic():
    for name in GENERATORS:
        a = generate(name)
        b = generate(name)
        assert a.digest == b.digest, name


def test_generator_shapes():
    assert generate("two_mass").n == 110
    assert generate("two_mass").k == 11
    hexagon = generate("hexagon")
    assert hexagon.n == 6
    assert hexagon.k == 3
    assert hexagon.is_unconstrained
    circles = generate("three_circles")
    assert circles.n == 36
    assert circles.k == 3
    prf2 = generate("prf2_counterexample")
    assert prf2.n == 4
    assert prf2.m == 4
    assert not prf2.is_unconstrained


def test_generator_params():
    inst = generate("two_mass", a=6, b=2, k=4)
    assert inst.n == 8
    assert inst.k == 4
    with pytest.raises(InputError):
        generate("two_mass", weird_param=1)
    with pytest.raises(InputError):
        generate("no_such_shape")


def test_hexagon_sides_are_float_identical():
    inst = generate("hexagon")
    aa = inst.agent_distances
    sides = sorted(set(np.round(aa[aa > 0], 12)))
    # the six short edges share one exact float value
    short = np.partition(np.unique(aa[aa > 0]), 0)[0]
    assert short == 0.8660254037844386
    count = int((aa == short).sum()) // 2
    assert count >= 6


def test_two_mass_locations():
    inst = generate("two_mass")
    xs = inst.agents.ravel()
    assert (xs[:100] == 0.0).all()
    assert (xs[100:] == 1.0).all()


# -- run records ----------------------------------------------------------------


def test_record_round_trip(tmp_path):
    inst = generate("two_mass")
    outcome, trace = select_prf_centers(inst)
    report = check_up(inst, outcome)
    record = record_for(
        inst,
        "prf",
        outcome,
        trace=trace,
        reports=(report,),
        metrics={"msd1": 0.0},
    )
    p = tmp_path / "run.json"
    write_run_record(p, record)
    back = read_run_record(p, instance=inst)
    assert back == record
    assert back.trace == trace
    assert back.reports == (report,)


def test_record_json_is_schema_versioned(tmp_path):
    inst = generate("hexagon")
    outcome, _ = select_prf_centers(inst)
    record = record_for(inst, "prf", outcome)
    p = tmp_path / "run.json"
    write_run_record(p, record)
    obj = json.loads(p.read_text())
    assert obj["schema_version"] == 1
    assert obj["selected"] == list(outcome.selected)
    assert obj["instance_digest"] == inst.digest
    obj["schema_version"] = 99
    p.write_text(json.dumps(obj))
    with pytest.raises(InputError):
        RunRecord.from_json_obj(obj)


def test_record_digest_guard(tmp_path):
    inst = generate("hexagon")
    other = generate("two_mass")
    outcome, _ = select_prf_centers(inst)
    p = tmp_path / "run.json"
    write_run_record(p, record_for(inst, "prf", outcome))
    with pytest.raises(InputError, match="digest"):
        read_run_record(p, instance=other)


def test_instance_from_record_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(10):
        inst = random_instance(rng)
        outcome, _ = select_prf_centers(inst)
        record = record_for(inst, "prf", outcome)
        rebuilt = instance_from_record(record)
        assert rebuilt.digest == inst.digest


def test_instance_from_record_detects_corruption():
    inst = generate("hexagon")
    outcome, _ = select_prf_centers(inst)
    record = record_for(inst, "prf", outcome)
    tampered = RunRecord.from_json_obj(
        {**record.to_json_obj(), "coordinates": [[0.0, 0.0]] * 6}
    )
    with pytest.raises(InputError, match="corrupt"):
        instance_from_record(tampered)


def test_record_with_int_coordinates_reads_as_floats(tmp_path):
    # json reads a coordinate written by hand as 2 as an int; the record holds floats all the same
    inst = Instance.discrete([(0.0, 1.0), (2.0, -3.0), (4.0, 0.5)], [(1.0, 1.0), (0.0, 2.0)], k=2)
    outcome, _ = select_prf_centers(inst)
    obj = json.loads(json.dumps(record_for(inst, "prf", outcome).to_json_obj()))
    obj["coordinates"] = [[0, 1], [2, -3], [4, 0.5]]
    obj["candidate_coordinates"] = [[1, 1], [0, 2]]
    p = tmp_path / "run.json"
    p.write_text(json.dumps(obj))
    record = read_run_record(p, instance=inst)
    assert record.coordinates == ((0.0, 1.0), (2.0, -3.0), (4.0, 0.5))
    assert record.candidate_coordinates == ((1.0, 1.0), (0.0, 2.0))
    assert {type(v) for row in record.coordinates + record.candidate_coordinates for v in row} == {float}
    assert instance_from_record(record).digest == inst.digest


def test_trace_json_uses_exact_weights():
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=2)
    _, trace = select_prf_centers(inst)
    obj = trace_to_json_obj(trace)
    assert isinstance(obj, list)
    first = obj[0]
    assert set(first) == {
        "radius",
        "winner",
        "support",
        "supporters",
        "weight_before",
        "weight_after",
    }
    # weights survive as exact fraction strings, not floats
    assert all(isinstance(w, str) for w in first["weight_before"])
    assert trace_from_json_obj(obj) == trace


def _gaussian(n, dim, seed):
    return np.random.default_rng(seed).normal(size=(n, dim))


def _prf_record(inst, **extra):
    outcome, trace = select_prf_centers(inst)
    return record_for(inst, "prf", outcome, trace=trace, **extra)


def _greedy_record():
    inst = Instance.unconstrained([(0.0,), (0.0,), (1.0,)], k=3)
    result = greedy_capture(inst, pad=True)
    assert result.underfilled and result.padded
    return record_for(
        inst, "greedy", result.outcome, underfilled=True, padded=result.padded, metrics={"msd1": 0.25}
    )


def _witness_record():
    inst = generate("hexagon")
    outcome, trace = select_prf_centers(inst)
    reports = (check_pf(inst, outcome), check_up(inst, outcome))
    assert reports[0].witness is not None and reports[0].witness.radius is None
    metrics = {"msd1": 0.375, "msdhalfk": None, "msdk": float("nan")}
    return record_for(inst, "prf", outcome, seed=7, trace=trace, reports=reports, metrics=metrics)


RECORDS = {
    "prf-unconstrained": lambda: _prf_record(Instance.unconstrained(_gaussian(60, 2, 1), k=5)),
    "prf-discrete": lambda: _prf_record(Instance.discrete(_gaussian(40, 3, 2), _gaussian(25, 3, 3), k=4)),
    "greedy-padded": _greedy_record,
    "witness-and-none": _witness_record,
    "row-seam": lambda: _prf_record(Instance.unconstrained(_gaussian(2 * data_io._ROWS + 3, 2, 4), k=6)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_written_record_equals_indented_json_dumps(tmp_path, name):
    record = RECORDS[name]()
    p = tmp_path / "run.json"
    write_run_record(p, record)
    assert p.read_bytes() == (json.dumps(record.to_json_obj(), indent=2) + "\n").encode()


_TRICKY_TEXT = st.lists(
    st.sampled_from([", ", "], [", "[", "]", '"', "\\", "\x00", "\n", "\x1f", "é", "\u2028", "😀", "a"]),
    max_size=4,
).map("".join)
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 5e-324])
_NUMBERS = _FLOATS | st.integers() | st.booleans() | st.none()
_LEAVES = _NUMBERS | _TRICKY_TEXT
_ROW_LISTS = st.lists(st.lists(_NUMBERS, max_size=4).map(tuple) | st.lists(_LEAVES, max_size=4), max_size=7)
_JSON = st.recursive(
    _LEAVES | _ROW_LISTS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_TRICKY_TEXT, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=400)
@given(_JSON, st.sampled_from((1, 2, data_io._ROWS)))
def test_indented_matches_json_dumps(obj, rows):
    # small row pieces put the row seam inside these small matrices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_io, "_ROWS", rows)
        text = "".join(_indented(obj, ""))
    assert text == json.dumps(obj, indent=2)


def test_record_write_peak_memory(tmp_path):
    # the pure-Python indented encoder peaks at about 4.2 MiB here
    record = _prf_record(Instance.unconstrained(_gaussian(1200, 8, 5), k=20))
    p = tmp_path / "run.json"
    tracemalloc.start()
    try:
        write_run_record(p, record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (1 << 20)


def test_indented_matrix_comes_in_small_pieces():
    rows = _gaussian(20 * data_io._ROWS, 8, 6).tolist()
    pieces = list(_indented({"coordinates": rows}, ""))
    assert "".join(pieces) == json.dumps({"coordinates": rows}, indent=2)
    assert max(map(len, pieces)) * 16 < sum(map(len, pieces))


# -- grid files ----------------------------------------------------------------


def test_load_grid(tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x0\n0.0\n1.0\n5.0\n")
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(
        json.dumps(
            {
                "datasets": [
                    {"generator": "two_mass", "params": {"a": 6, "b": 2, "k": 2}},
                    {"path": str(csv_path), "name": "pts"},
                ],
                "ks": [1, 2],
                "algorithms": ["prf", "kmeanspp"],
                "seeds": [0, 1],
                "metrics": ["msd1"],
            }
        )
    )
    grid = load_grid(grid_path)
    assert [name for name, _ in grid.datasets] == ["two_mass", "pts"]
    assert grid.ks == (1, 2)
    assert grid.seeds == (0, 1)
    assert grid.metrics == ("msd1",)


# each replaces fields of a valid grid (two_mass at k = 2)
MALFORMED_GRIDS = [
    {"ks": ["x"]},
    {"ks": 3},
    {"ks": [2.5]},
    {"seeds": ["a"]},
    {"algorithms": "prf"},
    {"datasets": 5},
    {"datasets": [{"generator": "two_mass", "params": 5}]},
    {"datasets": [{"generator": "two_mass", "params": {"k": "x"}}]},
]


def test_load_grid_errors(tmp_path):
    p = tmp_path / "grid.json"
    p.write_text("not json")
    with pytest.raises(InputError, match="JSON"):
        load_grid(p)
    p.write_bytes(b"\xff\xfe{}")
    with pytest.raises(InputError, match="JSON"):
        load_grid(p)
    for fields in MALFORMED_GRIDS:
        p.write_text(json.dumps({"datasets": [{"generator": "two_mass"}], "ks": [2], **fields}))
        with pytest.raises(InputError) as info:
            load_grid(p)
        assert str(info.value).startswith(f"{p}: ")
    p.write_text(json.dumps({"datasets": []}))
    with pytest.raises(InputError, match="datasets"):
        load_grid(p)
    p.write_text(json.dumps({"datasets": [{"generator": "two_mass"}]}))
    with pytest.raises(InputError):
        load_grid(p)  # ks missing
    p.write_text(json.dumps({"datasets": [{}], "ks": [1]}))
    with pytest.raises(InputError, match="generator"):
        load_grid(p)


@pytest.mark.parametrize(
    "field, value",
    [
        ("selected", None),  # None: the key is deleted
        ("k", "three"),
        ("reports", [{"axiom": "FOO", "satisfied": True, "witness": None, "definitive": True}]),
        ("coordinates", [[0.0, 1.0], [2.0]]),
    ],
)
def test_check_malformed_record_exits_1(tmp_path, capsys, field, value):
    inst = generate("hexagon")
    outcome, _ = select_prf_centers(inst)
    p = tmp_path / "run.json"
    write_run_record(p, record_for(inst, "prf", outcome))
    obj = json.loads(p.read_text())
    if value is None:
        del obj[field]
    else:
        obj[field] = value
    p.write_text(json.dumps(obj))
    assert main(["check", "--run", str(p)]) == 1
    err = capsys.readouterr().err
    # ragged coordinates parse, and fail when the instance is rebuilt
    assert err.startswith("error: " if field == "coordinates" else f"error: {p}: ")


@pytest.mark.parametrize("fields", MALFORMED_GRIDS)
def test_experiment_malformed_grid_exits_1(tmp_path, capsys, fields):
    p = tmp_path / "grid.json"
    p.write_text(json.dumps({"datasets": [{"generator": "two_mass"}], "ks": [2], **fields}))
    assert main(["experiment", "--grid", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: ")
