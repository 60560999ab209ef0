import dataclasses
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

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
    kmeanspp,
    select_prf_centers,
)
from propclust import data_io
from propclust.cli import main
from propclust.data_io import (
    GENERATORS,
    RunRecord,
    _indented,
    _RowsText,
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


def test_instance_to_csv_needs_coordinates():
    inst = Instance.precomputed([[0.0, 1.0], [1.0, 0.0]], k=1, shared_candidates=True)
    with pytest.raises(InputError, match="^instance has no coordinates to write$"):
        instance_to_csv(inst)


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


def _kmeanspp_record():
    inst = Instance.discrete(_gaussian(50, 2, 7), _gaussian(30, 2, 8), k=5)
    outcome = kmeanspp(inst, seed=3)
    return record_for(inst, "kmeanspp", outcome, seed=3, reports=(check_up(inst, outcome), check_pf(inst, outcome)))


def _replaced_record():
    # the copy holds other coordinates than the instance rendered: they must be written
    record = _prf_record(Instance.unconstrained(_gaussian(30, 2, 9), k=3))
    return dataclasses.replace(record, coordinates=tuple(map(tuple, _gaussian(30, 2, 10).tolist())))


def _read_back_record():
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "run.json"
        write_run_record(p, _witness_record())
        return read_run_record(p)


RECORDS = {
    "prf-unconstrained": lambda: _prf_record(Instance.unconstrained(_gaussian(60, 2, 1), k=5)),
    "prf-discrete": lambda: _prf_record(Instance.discrete(_gaussian(40, 3, 2), _gaussian(25, 3, 3), k=4)),
    "greedy-padded": _greedy_record,
    "kmeanspp-with-reports": _kmeanspp_record,
    "witness-and-none": _witness_record,
    "replaced-coordinates": _replaced_record,
    "read-back": _read_back_record,
    "row-seam": lambda: _prf_record(Instance.unconstrained(_gaussian(2 * data_io._ROWS + 3, 2, 4), k=6)),
    "n2000-discrete": lambda: _prf_record(Instance.discrete(_gaussian(2000, 3, 11), _gaussian(700, 3, 12), k=20)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_written_record_equals_indented_json_dumps(tmp_path, name):
    record = RECORDS[name]()
    p = tmp_path / "run.json"
    write_run_record(p, record)
    assert p.read_bytes() == (json.dumps(record.to_json_obj(), indent=2) + "\n").encode()


@pytest.mark.parametrize("name", ["read-back", "replaced-coordinates"])
def test_records_without_coordinate_text_are_laid_out_from_text(tmp_path, monkeypatch, name):
    # one layout path: a record with no text from an instance renders its rows' text to write
    record = RECORDS[name]()
    assert record._coordinate_text == {}
    texts = []
    rows_from_text = data_io._rows_from_text

    def spy(text, pad):
        texts.append(text)
        return rows_from_text(text, pad)

    monkeypatch.setattr(data_io, "_rows_from_text", spy)
    write_run_record(tmp_path / "run.json", record)
    assert texts == [json.dumps(record.coordinates, separators=(",", ":"))]
    # rows that are not numbers take the generic layout
    texts.clear()
    other = dataclasses.replace(record, coordinates=(("a", 1.0),), candidate_coordinates=((),))
    write_run_record(tmp_path / "other.json", other)
    assert texts == []
    assert (tmp_path / "other.json").read_text() == json.dumps(other.to_json_obj(), indent=2) + "\n"


def test_only_record_for_stores_coordinate_text(tmp_path):
    inst = Instance.discrete(_gaussian(8, 2, 13), _gaussian(5, 2, 14), k=2)
    record = _prf_record(inst)
    assert record._coordinate_text == dict(zip(("coordinates", "candidate_coordinates"), inst._coordinate_json))
    assert _prf_record(inst.with_k(1))._coordinate_text["coordinates"] is inst._coordinate_json[0]
    assert dataclasses.replace(record)._coordinate_text == {}
    p = tmp_path / "run.json"
    write_run_record(p, record)
    assert read_run_record(p)._coordinate_text == {}
    assert "_coordinate_text" not in repr(record)


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
@given(_JSON)
def test_indented_matches_json_dumps(obj):
    assert "".join(_indented(obj, "")) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "strings",
    [["1/2", "-3/4", "5"], [""], ["a, b", "], ["], ['1"2'], ["1\\2"], ["1\x7f"], ["\x1f"], ["é"], ["1/2", "\u2028"]],
)
def test_string_lists_are_joined_only_without_escapes(strings):
    # fraction strings are joined as they are; a string the encoder escapes keeps the encoder path
    assert "".join(_indented({"weights": strings}, "")) == json.dumps({"weights": strings}, indent=2)


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


def _assert_matrix_comes_in_small_pieces(text):
    rows = _gaussian(20 * data_io._ROWS, 8, 6).tolist()
    value = _RowsText(json.dumps(rows, separators=(",", ":"))) if text else rows
    pieces = list(_indented({"coordinates": value}, ""))
    assert "".join(pieces) == json.dumps({"coordinates": rows}, indent=2)
    assert max(map(len, pieces)) * 16 < sum(map(len, pieces))


def test_indented_matrix_comes_in_small_pieces():
    _assert_matrix_comes_in_small_pieces(text=False)


def test_indented_rows_text_comes_in_small_pieces():
    _assert_matrix_comes_in_small_pieces(text=True)


_ROW_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e308, 3.0])


@settings(max_examples=200)
@given(
    st.lists(st.lists(_ROW_FLOATS, min_size=1, max_size=4), min_size=1, max_size=9),
    st.sampled_from((1, 2, 3, data_io._ROWS)),
    st.sampled_from(("", "  ", "      ")),
)
def test_rows_text_matches_json_dumps(rows, per_piece, pad):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_io, "_ROWS", per_piece)
        text = "".join(_indented(_RowsText(json.dumps(rows, separators=(",", ":"))), pad))
    assert text == json.dumps(rows, indent=2).replace("\n", "\n" + pad)


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
    # generator parameters and names are read exactly, not converted
    {"datasets": [{"generator": "two_mass", "params": {"a": "3"}}]},
    {"datasets": [{"generator": "two_mass", "params": {"a": 2.7}}]},
    {"datasets": [{"generator": "two_mass", "params": {"k": True}}]},
    {"datasets": [{"generator": "two_blobs", "params": {"separation": True}}]},
    {"datasets": [{"generator": "grid_uniform", "params": {"spacing": "2"}}]},
    {"datasets": [{"generator": "two_mass", "name": 7}]},
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


@pytest.mark.parametrize("standardize", ["false", 0, None])
def test_grid_standardize_must_be_a_json_bool(tmp_path, capsys, standardize):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x0\n0.0\n1.0\n5.0\n")
    p = tmp_path / "grid.json"
    read = []
    for flag in (False, True):
        p.write_text(json.dumps({"datasets": [{"path": str(csv_path), "standardize": flag}], "ks": [1]}))
        read.append(load_grid(p).datasets[0][1].agents[:, 0].tolist())
    assert read[0] == [0.0, 1.0, 5.0] != read[1]
    p.write_text(json.dumps({"datasets": [{"path": str(csv_path), "standardize": standardize}], "ks": [1]}))
    with pytest.raises(InputError, match="'standardize' must be a JSON bool"):
        load_grid(p)
    assert main(["experiment", "--grid", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: datasets[0]: ")


def _set_report(index, **fields):
    def change(obj):
        obj["reports"][index].update(fields)
    return change


def _set_witness(**fields):
    def change(obj):
        obj["reports"][0]["witness"].update(fields)
    return change


def _set(**fields):
    return lambda obj: obj.update(fields)


# each changes one stored field of the witness record to a value of another
# JSON type, which used to be converted: "false" read as True, 5 as "5"
STORED_FIELDS = {
    "report-satisfied-string": _set_report(1, satisfied="false"),
    "report-satisfied-int": _set_report(1, satisfied=1),
    "report-definitive-int": _set_report(1, definitive=0),
    "report-definitive-null": _set_report(0, definitive=None),
    "witness-radius-string": _set_witness(radius="2.5"),
    "witness-radius-bool": _set_witness(radius=True),
    "witness-note-int": _set_witness(note=5),
    "record-underfilled-string": _set(underfilled="false"),
    "record-algorithm-int": _set(algorithm=5),
    "record-digest-int": _set(instance_digest=5),
    "record-metric-null": _set(metric=None),
    "record-metrics-pairs": _set(metrics=[["msd1", 1.0]]),
    "record-metrics-string": _set(metrics={"msd1": "1.0"}),
    "record-metrics-bool": _set(metrics={"msd1": True}),
}


@pytest.mark.parametrize("change", STORED_FIELDS.values(), ids=STORED_FIELDS)
def test_stored_fields_are_read_exactly(tmp_path, capsys, change):
    p = tmp_path / "run.json"
    write_run_record(p, _witness_record())
    obj = json.loads(p.read_text())
    change(obj)
    p.write_text(json.dumps(obj))
    with pytest.raises(InputError, match=f"^{re.escape(str(p))}: .* must be a JSON "):
        read_run_record(p)
    assert main(["check", "--run", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: ")


def test_stored_numbers_may_be_ints(tmp_path):
    p = tmp_path / "run.json"
    write_run_record(p, _witness_record())
    obj = json.loads(p.read_text())
    obj["reports"][0]["witness"]["radius"] = 2
    obj["reports"][1].pop("definitive")
    obj["metrics"] = {"msd1": 1, "msdk": None}
    p.write_text(json.dumps(obj))
    record = read_run_record(p)
    assert record.reports[0].witness.radius == 2.0 and record.reports[1].definitive
    assert record.metrics == {"msd1": 1.0, "msdk": None}


def _numeric_rows(value) -> bool:
    # a JSON list of lists of numbers, as the record reader accepts for coordinates
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(v) in (int, float) for v in row) for row in value
    )


def _row_as(row: int, value):
    # the hexagon's coordinates with one row replaced by ``value``
    return lambda rows: [value if i == row else r for i, r in enumerate(rows)]


@pytest.mark.parametrize(
    "field, value",
    [
        ("selected", None),  # None: the key is deleted
        ("k", "three"),
        ("reports", [{"axiom": "FOO", "satisfied": True, "witness": None, "definitive": True}]),
        ("coordinates", [[0.0, 1.0], [2.0]]),
        # integers are read exactly: neither truncated nor parsed from text
        ("selected", [9.7, 15.7, 26.7]),
        ("selected", ["0", "3", "5"]),
        ("padded", [1.5]),
        ("k", 3.0),
        ("seed", "7"),
        # coordinates are read exactly: float("-0.25") and float(False) would give the hexagon's own values
        pytest.param("coordinates", _row_as(0, ["-0.25", 0.4330127018922193]), id="coordinates-str"),
        pytest.param("coordinates", _row_as(2, [0.5, False]), id="coordinates-bool"),
        pytest.param("coordinates", _row_as(2, [0.5, None]), id="coordinates-null"),
        pytest.param("coordinates", [1, 2], id="coordinates-flat"),
        pytest.param("coordinates", "[[0.0, 1.0]]", id="coordinates-text"),
        pytest.param("candidate_coordinates", [[0.0, 1.0], ["2.0", 0.0]], id="candidate_coordinates-str"),
        pytest.param("candidate_coordinates", {"0": [0.0, 1.0]}, id="candidate_coordinates-object"),
        # coordinates that parse but cannot rebuild the instance: the rebuild's error names the file
        pytest.param("coordinates", _row_as(1, [2.0]), id="coordinates-ragged-row"),
        pytest.param("coordinates", lambda rows: rows[:2], id="coordinates-fewer-than-k"),
        # a violation report is always definitive
        pytest.param(
            "reports",
            [{"axiom": "PF", "satisfied": False, "definitive": False, "witness": {"agents": [0, 1], "candidate": 2}}],
            id="reports-violation-not-definitive",
        ),
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
        obj[field] = value(obj[field]) if callable(value) else value
    p.write_text(json.dumps(obj))
    for command in ("check", "eval"):
        assert main([command, "--run", str(p)]) == 1
        err = capsys.readouterr().err
        if field.endswith("coordinates") and not _numeric_rows(obj[field]):
            assert err == f"error: {p}: {field!r} must be a JSON list of lists of numbers\n", command
        else:
            # coordinates that parse but cannot rebuild the instance fail there, naming the record too
            assert err.startswith(f"error: {p}: "), command


@pytest.mark.parametrize(
    "field, value",
    [
        ("agents", [0.5, 1.9]),
        ("agents", ["4", "5"]),
        ("candidate", 2.7),
        ("candidate", True),
        ("required", "2"),
        ("found", 2.0),
    ],
)
def test_check_record_with_inexact_witness_exits_1(tmp_path, capsys, field, value):
    p = tmp_path / "run.json"
    write_run_record(p, _witness_record())
    obj = json.loads(p.read_text())
    obj["reports"][0]["witness"][field] = value
    p.write_text(json.dumps(obj))
    assert main(["check", "--run", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: witness {field!r} must be a JSON int")


def test_witness_integers_may_be_null(tmp_path):
    p = tmp_path / "run.json"
    write_run_record(p, _witness_record())
    obj = json.loads(p.read_text())
    obj["reports"][0]["witness"].update(candidate=None, required=None, found=None)
    p.write_text(json.dumps(obj))
    witness = read_run_record(p).reports[0].witness
    assert (witness.agents, witness.candidate, witness.required, witness.found) == ((4, 5), None, None, None)


@pytest.mark.parametrize(
    "metric, message",
    [(5, "'metric' must be a JSON str"), (None, "'metric' must be a JSON str"), ("cosine", "unknown metric 'cosine'")],
)
def test_grid_metric_must_be_a_known_string(tmp_path, capsys, metric, message):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x0\n0.0\n1.0\n5.0\n")
    p = tmp_path / "grid.json"
    p.write_text(json.dumps({"datasets": [{"path": str(csv_path), "metric": "manhattan"}], "ks": [1]}))
    assert load_grid(p).datasets[0][1].metric == "manhattan"
    p.write_text(json.dumps({"datasets": [{"path": str(csv_path), "metric": metric}], "ks": [1]}))
    with pytest.raises(InputError, match=f"^{re.escape(str(p))}: datasets\\[0\\]: {message}"):
        load_grid(p)
    assert main(["experiment", "--grid", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: datasets[0]: {message}")


def _set_round(**fields):
    def change(obj):
        obj["trace"][0].update(fields)
    return change


# each changes the first round of a stored trace to hold a value of another
# JSON type, which used to be converted: 5.7 read as winner 5, "0.5" as 0.5
TRACE_FIELDS = {
    "winner-float": _set_round(winner=5.7),
    "winner-string": _set_round(winner="5"),
    "winner-bool": _set_round(winner=True),
    "radius-string": _set_round(radius="0.5"),
    "radius-null": _set_round(radius=None),
    "supporters-strings": _set_round(supporters=["0", "1"]),
    "supporters-floats": _set_round(supporters=[0.0, 1.0]),
    "supporters-string": _set_round(supporters="01"),
    "support-number": _set_round(support=1),
    "weight-numbers": _set_round(weight_before=[1, 1, 1, 1, 1, 1]),
    "weight-string": _set_round(weight_after="111111"),
    "all-at-once": _set_round(winner=5.7, supporters=["0", "1"], radius="0.5"),
    "trace-object": _set(trace={"radius": 1.0}),
}


@pytest.mark.parametrize("change", TRACE_FIELDS.values(), ids=TRACE_FIELDS)
def test_stored_trace_is_read_exactly(tmp_path, capsys, change):
    p = tmp_path / "run.json"
    write_run_record(p, _witness_record())
    obj = json.loads(p.read_text())
    change(obj)
    p.write_text(json.dumps(obj))
    with pytest.raises(InputError, match=f"^{re.escape(str(p))}: .*must be a JSON "):
        read_run_record(p)
    assert main(["check", "--run", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: ")


def test_stored_trace_radius_may_be_an_int(tmp_path):
    p = tmp_path / "run.json"
    record = _witness_record()
    write_run_record(p, record)
    obj = json.loads(p.read_text())
    obj["trace"][0]["radius"] = 2
    p.write_text(json.dumps(obj))
    rounds = read_run_record(p).trace.rounds
    assert rounds[0].radius == 2.0 and rounds[1:] == record.trace.rounds[1:]


@pytest.mark.parametrize("fields", MALFORMED_GRIDS)
def test_experiment_malformed_grid_exits_1(tmp_path, capsys, fields):
    p = tmp_path / "grid.json"
    p.write_text(json.dumps({"datasets": [{"generator": "two_mass"}], "ks": [2], **fields}))
    assert main(["experiment", "--grid", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: ")


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: load_csv(d / "missing.csv"), "cannot read"),
        (lambda d: load_csv(_write(d / "p.csv", "")), "empty file"),
        (lambda d: load_csv(_write(d / "p.csv", "role,id\nagent,a\n")), "no coordinate columns"),
        (lambda d: load_csv(_write(d / "p.csv", "role,x0\ncandidate,1.0\n")), "no agent rows"),
        (lambda d: generate("three_circles", m=0), "at least 1"),
        (lambda d: generate("two_blobs", size=0), "at least 1"),
        (lambda d: generate("grid_uniform", rows=0), "at least 1"),
        (
            lambda d: instance_from_record(
                RunRecord("prf", 1, None, "0" * 64, "precomputed", (0,))
            ),
            "no coordinates",
        ),
        (lambda d: load_grid(_write(d / "g.json", "[]")), "must be a JSON object"),
        (lambda d: load_grid(_write(d / "g.json", '{"datasets": [5], "ks": [1]}')), "must be an object"),
    ],
    ids=["csv-unreadable", "csv-empty", "csv-no-coordinates", "csv-no-agents", "three-circles-m",
         "two-blobs-size", "grid-uniform-rows", "record-no-coordinates", "grid-not-object",
         "grid-dataset-not-object"],
)
def test_inputs_rejected_before_use(tmp_path, call, message):
    with pytest.raises(InputError, match=message):
        call(tmp_path)


def test_grid_dataset_names_must_be_unique(tmp_path, capsys):
    # both entries default to the generator's name, so their rows would be averaged together
    entries = [
        {"generator": "two_blobs", "params": {"size": 10}},
        {"generator": "two_blobs", "params": {"size": 30, "separation": 50}},
    ]
    p = tmp_path / "grid.json"
    p.write_text(json.dumps({"datasets": entries, "ks": [2], "algorithms": ["prf"], "metrics": ["msd1"]}))
    with pytest.raises(InputError, match=f"^{re.escape(str(p))}: dataset name 'two_blobs' is repeated"):
        load_grid(p)
    assert main(["experiment", "--grid", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: ")
    entries[1]["name"] = "two_blobs_far"
    p.write_text(json.dumps({"datasets": entries, "ks": [2], "algorithms": ["prf"], "metrics": ["msd1"]}))
    assert [name for name, _ in load_grid(p).datasets] == ["two_blobs", "two_blobs_far"]


def test_generator_out_of_memory_is_an_input_error(monkeypatch, capsys):
    def too_large(m: int = 12, k: int = 3):
        raise MemoryError  # what numpy raises for an array it cannot allocate

    monkeypatch.setitem(data_io.GENERATORS, "three_circles", too_large)
    with pytest.raises(InputError, match="^generator 'three_circles': the instance does not fit in memory$"):
        generate("three_circles", m=10**12)
    assert main(["gen", "--name", "three_circles", "--params", "m=1000000000000"]) == 1
    assert capsys.readouterr().err.startswith("error: generator 'three_circles': ")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("schema_version", True, "'schema_version' must be a JSON int"),
        ("schema_version", 1.0, "'schema_version' must be a JSON int"),
        ("reports", {}, "'reports' must be a JSON dict list"),
        ("reports", [{"axiom": ["PRF_UNC"], "satisfied": True}], "report 'axiom' must be a JSON str"),
    ],
)
def test_record_header_and_axiom_codes_are_read_exactly(tmp_path, capsys, field, value, message):
    p = tmp_path / "run.json"
    write_run_record(p, _witness_record())
    obj = json.loads(p.read_text())
    obj[field] = value
    p.write_text(json.dumps(obj))
    with pytest.raises(InputError, match=f"^{re.escape(str(p))}: {re.escape(message)}$"):
        read_run_record(p)
    assert main(["check", "--run", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: {message}")
