"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/selftest -q

Runs every workload for about a second, untraced and traced, and checks that
the last stdout line carries every metric BENCHMARK.json names, with its unit;
that the correctness gate fails an op whose record has two selected indices
swapped; and that the benchmark refuses to run where there is no propclust
source tree.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def layer(name):
    return {m["name"] for m in SPEC["per_layer"] if m["name"].startswith(name + ".")}


#: The per-layer metrics of what each workload never calls: exactly these read 0.
IDLE = {
    "cluster-distinct": layer("axioms") | layer("baselines")
    | {"data_io.record_read_s", "evaluation.aggregate_s", "evaluation.experiment_self_s"},
    "cluster-quantized": layer("axioms")
    | {"baselines.kmeanspp_s", "baselines.lloyd_rounds", "data_io.record_read_s",
       "evaluation.aggregate_s", "evaluation.experiment_self_s"},
    "experiment-grid": layer("axioms")
    | {"data_io.record_bytes", "data_io.record_read_s", "data_io.record_write_s"},
    "audit-sampled": layer("baselines") | layer("engine") | layer("evaluation")
    | {"data_io.load_csv_s", "data_io.record_bytes", "data_io.record_write_s"},
}


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny(workload, trace, *extra):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
                     "--size", "tiny", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) or isinstance(got["value"], int)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload):
    lines, result = tiny(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    text = "\n".join(lines)
    assert f"fail_ratio 0.0000 (0 failed / {result['attempted']} attempted)" in text
    assert f"digest {workload}: " in text
    assert '"nproc"' in text and '"numpy"' in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    lines, result = tiny(workload, 1)
    assert_metrics(result, SPEC["per_layer"])
    assert result["correct"]
    for name, got in result["metrics"].items():
        assert (got["value"] == 0) if name in IDLE[workload] else (got["value"] > 0), name
    assert any(line.startswith("dominant layer: ") for line in lines)
    spans = ROOT / ".perfbench" / "results" / f"{workload}-seed5-trace1-spans.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "op"}


def swap_selection(out):
    """The output of a buggy engine: two selected indices swapped in the record."""
    name, data = out.files[0]
    record = json.loads(data)
    sel = record["selected"]
    sel[0], sel[1] = sel[1], sel[0]
    return replace(out, files=((name, (json.dumps(record, indent=2) + "\n").encode()),) + out.files[1:])


@pytest.mark.parametrize("workload, algo", [("cluster-distinct", "prf"), ("cluster-quantized", "greedy")])
def test_corrupted_record_is_a_failed_op(workload, algo, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import worker  # puts the checkout's src/ first on sys.path
    from checks import digest, problems
    from workloads import prepare

    monkeypatch.chdir(tmp_path)
    pool, _ = prepare(workload, 5, "tiny")
    item = next(i for i, op in enumerate(pool) if op.argv[op.argv.index("--algo") + 1] == algo)
    _, good = worker.run_op(worker._import_cli().main, pool[item])
    bad = swap_selection(good)
    assert problems(pool[item], good) == []
    assert problems(pool[item], bad)

    outputs = {(item, digest(good)): good, (item, digest(bad)): bad}
    ops = [(item, 0.0, digest(good)), (item, 0.0, digest(bad)), (item, 0.0, digest(good))]
    reasons, _ = worker.judge(pool, ops, outputs, None)
    assert [bool(r) for r in reasons] == [False, True, False]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
