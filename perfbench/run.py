"""propclust benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The benchmark writes the workload's inputs
from the seed into .perfbench/, times fresh processes that import propclust
and run one warm-up op (setup_s), then runs the workload as a closed loop in
a process of its own and checks every op's output.  Times are scaled to a
reference speed of the host (see speed.py).  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it runs half the time untraced and
half traced and reports the per-layer metrics instead.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The run's full record (environment, latencies, digests, layer shares, spans)
goes to .perfbench/results/.

This file uses the standard library only: the process that starts the
workload process stays small, so the workload's ru_maxrss is its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, REFERENCE_START_S, normalise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("cluster-distinct", "cluster-quantized", "experiment-grid", "audit-sampled")

#: Fresh processes timed for setup_s, half before and half after the loop
#: (start-up cost shifts between stretches of a minute or so); the median is
#: reported.
SETUP_RUNS = 8
#: The tail percentile is the highest one with at least this many ops beyond it.
TAIL_BEYOND = 10
STEP_TIMEOUT = 150

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the worker puts the checkout's src/ first itself
    return env


def _environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=_env(), timeout=60, check=True,
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _worker(step: str, workdir: Path, *extra: str) -> None:
    cmd = [sys.executable, str(WORKER), step, "--dir", str(workdir), *extra]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True, timeout=STEP_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {step} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")


def measure_setup(workdir: Path, runs: int) -> tuple[list[float], list[float]]:
    """Wall times of whole fresh processes (start-up, import, one warm-up op),
    and the wall times of bare interpreter starts taken between them.

    Process start-up has slow stretches of its own that the op probe does not
    follow; a bare ``python3 -c pass`` slows down with it.
    """
    times, probes = [], [_bare_start()]
    for _ in range(runs):
        start = time.perf_counter()
        _worker("warmup", workdir)
        times.append(time.perf_counter() - start)
        probes.append(_bare_start())
    return times, probes


def _bare_start() -> float:
    start = time.perf_counter()
    # capture_output makes run() wait on the pipes; a bare timeout would poll
    # the child with growing sleeps and round the time up
    subprocess.run([sys.executable, "-c", "pass"], env=_env(), capture_output=True, check=True,
                   timeout=STEP_TIMEOUT)
    return time.perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it, and that percentile."""
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args, environment: dict) -> tuple[dict, list[str]]:
    base = ROOT / ".perfbench"
    workdir = base / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        common = ("--workload", args.workload, "--seed", str(args.seed), "--size", args.size)
        _worker("prep", workdir, *common)
        setup, start_probes = measure_setup(workdir, SETUP_RUNS // 2)
        _worker("measure", workdir, *common, "--seconds", str(args.seconds),
                "--trace", str(args.trace))
        after, after_probes = measure_setup(workdir, SETUP_RUNS - SETUP_RUNS // 2)
        raw = json.loads((workdir / "measure.json").read_text())
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.move(str(workdir / "spans.jsonl"), results / f"{stem}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(raw["reasons"])
    failed = sum(1 for r in raw["reasons"] if r)
    lat_raw = raw["latencies"]
    lat = normalise(lat_raw, raw["probes"])
    ok_plain = sum(1 for r in raw["reasons"][: len(lat)] if not r)
    ops_per_s = ok_plain / sum(lat)
    p50 = statistics.median(lat)
    tail_s, tail_pct = tail(lat)
    setup_scaled = (normalise(setup, start_probes, REFERENCE_START_S)
                    + normalise(after, after_probes, REFERENCE_START_S))
    setup += after
    setup_s = statistics.median(setup_scaled)
    workload_digest = _combine(raw["item_digests"])
    raw_note = (f"raw: setup_s {statistics.median(setup):.4f}, ops_per_s "
                f"{ok_plain / sum(lat_raw):.4f}, op_p50_s {statistics.median(lat_raw):.4f}, "
                f"op_tail_s {tail(lat_raw)[0]:.4f}; probe medians: op "
                f"{statistics.median(raw['probes']):.5f} s, start "
                f"{statistics.median(start_probes + after_probes):.4f} s")

    lines = [
        f"perfbench workload={args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace} seconds={args.seconds}",
        "environment: " + json.dumps(environment),
        "closed loop: 1 client, 1 process, 1 thread; inputs: " + "; ".join(
            f"[{i}] {label}" for i, label in enumerate(raw["pool"])),
        f"digest {args.workload}: {workload_digest} "
        f"({'checked against the recorded digests' if raw['digest_checked'] else 'no recorded digests for this seed: determinism checked'}; invariants checked)",
        f"times below are at the reference speed (op probe {REFERENCE_S} s, start probe "
        f"{REFERENCE_START_S} s; see perfbench/speed.py); {raw_note}",
        f"setup_s {setup_s:.4f} s (median of {len(setup)} fresh processes: start-up, import, warm-up op)",
        f"ops_per_s {ops_per_s:.4f} 1/s ({ok_plain} ops completed in {sum(lat):.3f} s of op time at the reference speed)",
        f"op_p50_s {p50:.4f} s ({len(lat)} ops)",
        f"op_tail_s {tail_s:.4f} s (p{tail_pct:.1f} of {len(lat)} ops, {TAIL_BEYOND if len(lat) > TAIL_BEYOND else 0} ops beyond)",
        f"peak_rss_mb {raw['peak_rss_mb']:.1f} MiB (ru_maxrss of the workload process)",
        f"fail_ratio {failed / attempted:.4f} ({failed} failed / {attempted} attempted)",
    ]
    for index, reasons in enumerate(raw["reasons"]):
        if reasons:
            lines.append(f"failed op {index} (input {raw['items'][index]}): {'; '.join(reasons)}")

    if args.trace:
        traced = normalise(raw["traced_latencies"], raw["traced_probes"])
        traced_ops_per_s = len(traced) / sum(traced)
        metrics = {name: _metric(value, _layer_unit(name)) for name, value in raw["layers"].items()}
        # mean traced op time over mean untraced op time: about 1, never 0
        metrics["trace.overhead_ratio"] = _metric(statistics.fmean(traced) / statistics.fmean(lat), "ratio")
        shares = raw["shares"]
        dominant = max(shares, key=shares.get)
        expected = raw["expected_dominant"]
        lines.append(
            f"traced ops_per_s {traced_ops_per_s:.4f} 1/s over {len(traced)} ops "
            f"(untraced {ops_per_s:.4f} 1/s over {len(lat)} ops)"
        )
        lines.append("layer self-time shares: " + ", ".join(
            f"{layer} {100 * share:.1f}%" for layer, share in sorted(shares.items(), key=lambda kv: -kv[1])))
        lines.append(f"dominant layer: {dominant} (expected {expected}: "
                     f"{'confirmed' if dominant == expected else 'NOT confirmed'})")
        for name in sorted(metrics):
            lines.append(f"  {name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
        idle = sorted(name for name, m in metrics.items() if m["value"] == 0)
        # on each workload these are the names it never calls (perfbench/README.md)
        lines.append("per-layer metrics reading 0: " + (", ".join(idle) or "none"))
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "ops_per_s": _metric(ops_per_s, "1/s"),
            "op_p50_s": _metric(p50, "s"),
            "op_tail_s": _metric(tail_s, "s"),
            "peak_rss_mb": _metric(raw["peak_rss_mb"], "MiB"),
        }

    record = {
        "args": vars(args),
        "environment": environment,
        "setup_runs_s": setup,
        "setup_start_probes_s": start_probes + after_probes,
        "tail_percentile": tail_pct,
        "workload_digest": workload_digest,
        "fail_ratio": {"failed": failed, "attempted": attempted},
        "metrics": metrics,
        **raw,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, lines


def _combine(digests: list) -> str:
    return hashlib.sha256(" ".join(str(d) for d in digests).encode()).hexdigest()[:16]


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "propclust" / "cli.py").is_file():
        print(f"error: no propclust sources under {ROOT / 'src'}; run from a propclust checkout",
              file=sys.stderr)
        return 2
    try:
        summary, lines = run(args, _environment())
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
