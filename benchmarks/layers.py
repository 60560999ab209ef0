"""Layer benchmark: time and memory of each set-up and selection layer, by size.

    python3 benchmarks/layers.py --label change --out BENCH_x.json
    python3 benchmarks/layers.py --label parent --src OTHER/src --out BENCH_x.json
    python3 benchmarks/layers.py --label change --layers distances sweep --out BENCH_x.json
    python3 benchmarks/layers.py --label change --layers thresholds_discrete --sizes 500 --out BENCH_x.json

Each (layer, n, dim, decimals, k) cell runs in a fresh ``python3`` process
that imports ``propclust`` from ``--src`` (default: this checkout's ``src/``),
so ``ru_maxrss`` belongs to that cell alone.  The agents are ``n`` standard
Gaussian points in ``dim`` dimensions with a fixed seed, rounded to
``decimals`` places where that is not None (so that rows of distances hold
ties), and k = 20 unless stated.  The set-up and selection layers run on the
unconstrained instance at n = 500, 1000, 2000 and 5000 and dims 2, 8 and 64,
and the last three also at k = 1, 2 and 5 on 2-D points, where the quota
n/k is large:

- ``distances``: building ``Instance.distance_matrix``;
- ``agent_distances``: building ``Instance.agent_distances`` of the discrete
  instance with m = n/2 Gaussian candidates (the (n, n) matrix the discrete
  PRF check reads; the candidates play no part in it);
- ``thresholds``: constructing ``engine._Thresholds`` as the sweep does
  (weights k, quota n), on a built matrix;
- ``sweep``: ``select_prf_centers``, on a built matrix;
- ``greedy``: ``baselines.greedy_capture``, on a built matrix.

The ``distances``, ``thresholds``, ``sweep`` and ``greedy`` layers also run
at the shape of ``perfbench``'s ``cluster-quantized`` workload: n = 1200
points on a 3-level integer grid in 8-D (each coordinate drawn from 0, 1 and
2), at k = 20, where about 30 distinct distances make long runs of ties.

The ``thresholds_discrete`` layer constructs ``engine._Thresholds`` the same
way on the discrete instance with m = n/2 Gaussian candidates, at n = 500,
1000, 2000 and 5000 on 2-D points.

The checker layers run the sampled PRF checks with their default seed and
samples on the sweep's outcome, at n = 1000, 2000 and 4000 on 2-D points,
8-D points and 2-D points rounded to 0.1:

- ``prf_unconstrained``: ``check_prf_unconstrained`` on the unconstrained
  instance;
- ``prf_discrete``: ``check_prf_discrete`` on the discrete instance with
  m = n/2 candidates, Gaussian points drawn (and rounded) like the agents.

The ``audit_unconstrained`` and ``audit_discrete`` layers run the same two
checks at the shape of ``perfbench``'s ``audit-sampled`` workload: n = 300
2-D points, k = 20, and m = 150 candidates for the discrete one.

The exhaustive checker layers enumerate every agent subset, on the sweep's
outcome at n = 16, k = 4 on 2-D points:

- ``exhaustive_unconstrained``: ``check_prf_unconstrained`` on the
  unconstrained instance;
- ``exhaustive_discrete``, ``prf2`` and ``prf3``: ``check_prf_discrete``,
  ``check_prf2`` and ``check_prf3`` on the discrete instance with m = n/2
  candidates.

The ``kmeanspp`` layer runs ``baselines.kmeanspp`` with its default seed on
the built unconstrained instance, at n = 500, 1000, 2000 and 4000 on 2-D and
8-D points.  It also runs it with seeds 0-4 (one call is the five runs) at
the shape of ``perfbench``'s experiment grid: n = 120 log-normal points in
6-D, in two channels shaped like the UCI Wholesale customers data, z-scored
per column, at k = 5, 10 and 20.  The ``grid_sweep`` and ``grid_greedy``
layers run ``select_prf_centers`` and ``greedy_capture(pad=True)`` (as the
experiment runs it) once per call on the same points and ks.  The
``experiment`` layer runs ``run_experiment`` end to end on a fresh instance
of such points at n = 120 and 2000: ks 5, 10 and 20, all three algorithms,
k-means++ seeds 0-4 and every metric, so the distances are built and
sorted once in the call and shared by every k (its cell's ``k`` is the
largest of the ks).

The ``thresholds``, ``thresholds_discrete``, ``sweep``, ``greedy``,
``grid_sweep`` and ``grid_greedy`` layers call a ``with_k`` copy of the
built instance each time: it carries the matrix but not the instance's
sorted order, so every call sorts, as a fresh instance's first rule call
does.

The ``record`` layer runs ``data_io.record_for`` and then
``data_io.write_run_record`` (to a file in a temporary directory) on the
sweep's outcome and trace, as ``propclust cluster --out`` does, at n = 500,
1000, 2000 and 5000 on 2-D and 8-D points.

Per cell the file records the median wall time of 5 untraced calls, 3 at
n >= 4000 (raw, not scaled to a reference speed), made after one untimed
warm-up call (the first calls of a fresh process are the slow ones), the
minor page faults (``ru_minflt``) of each timed call, which show when a
cell's time moves with the process's heap state rather than its code, the
``tracemalloc`` peak of one more call, that peak over the bytes of the (n, n)
matrix (the (n, m) one for ``thresholds_discrete``), and ``ru_maxrss`` of
the process before and after the calls.  A ``distances`` or
``agent_distances`` cell also records the SHA-256 of its matrix's bytes; a
checker cell that of its report's JSON; a ``kmeanspp``, ``sweep``, ``greedy``,
``grid_sweep`` or ``grid_greedy`` cell that of its selection, and a sweep
cell that of its trace's compact JSON as well; a ``record`` cell that of
the written file; and an ``experiment`` cell that of the table's CSV, so
two trees' figures show whether their outputs agree.
Results are merged into ``--out`` under ``--label``, so one file can hold the
figures of two trees made by this same script.  ``--layers`` runs only the
named layers, and replaces only their cells under the label; ``--sizes``
runs (and replaces) only their cells at the given n.  The runs are
sequential; BLAS and OpenMP thread counts are pinned to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("distances", "thresholds", "sweep", "greedy")
DISTANCE_LAYERS = ("distances", "agent_distances")
SMALL_KS = (1, 2, 5)
SIZES = (500, 1000, 2000, 5000)
DIMS = (2, 8, 64)
CHECKERS = ("prf_unconstrained", "prf_discrete")
CHECK_SIZES = (1000, 2000, 4000)
CHECK_POINTS = ((2, None), (8, None), (2, 1))  # (dim, decimals)
AUDIT = ("audit_unconstrained", "audit_discrete")
AUDIT_N = 300
EXHAUSTIVE = ("exhaustive_unconstrained", "exhaustive_discrete", "prf2", "prf3")
EXHAUSTIVE_N, EXHAUSTIVE_K = 16, 4
SAMPLED = CHECKERS + AUDIT
DISCRETE_LAYERS = ("agent_distances", "thresholds_discrete", "prf_discrete", "audit_discrete", *EXHAUSTIVE[1:])
KMEANSPP_SIZES = (500, 1000, 2000, 4000)
KMEANSPP_DIMS = (2, 8)
KMEANSPP_GRID = (120, 6)  # (n, dim) of the experiment-grid cells
GRID_LAYERS = ("kmeanspp", "grid_sweep", "grid_greedy")
KMEANSPP_GRID_KS = (5, 10, 20)
KMEANSPP_GRID_SEEDS = range(5)
EXPERIMENT_SIZES = (120, 2000)
SORTING_LAYERS = (*LAYERS[1:], "thresholds_discrete", "grid_sweep", "grid_greedy")
RECORD_DIMS = (2, 8)
QUANTIZED = (1200, 8)  # (n, dim) of the cluster-quantized cells
QUANTIZED_LEVELS = 3
K = 20
GRID = (
    [(layer, n, dim, None, K) for n in SIZES for dim in DIMS for layer in (*DISTANCE_LAYERS, *LAYERS[1:])]
    + [(layer, n, 2, None, k) for n in SIZES for k in SMALL_KS for layer in LAYERS[1:]]
    + [("thresholds_discrete", n, 2, None, K) for n in SIZES]
    + [(layer, *QUANTIZED, None, K) for layer in LAYERS]
    + [
        (layer, n, dim, decimals, K)
        for n in CHECK_SIZES
        for dim, decimals in CHECK_POINTS
        for layer in CHECKERS
    ]
    + [(layer, AUDIT_N, 2, None, K) for layer in AUDIT]
    + [("kmeanspp", n, dim, None, K) for n in KMEANSPP_SIZES for dim in KMEANSPP_DIMS]
    + [(layer, *KMEANSPP_GRID, None, k) for layer in GRID_LAYERS for k in KMEANSPP_GRID_KS]
    + [("experiment", n, KMEANSPP_GRID[1], None, max(KMEANSPP_GRID_KS)) for n in EXPERIMENT_SIZES]
    + [("record", n, dim, None, K) for n in SIZES for dim in RECORD_DIMS]
    + [(layer, EXHAUSTIVE_N, 2, None, EXHAUSTIVE_K) for layer in EXHAUSTIVE]
)
SEED = 20260
MIB = 1 << 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cell(layer: str, n: int, dim: int, decimals: int | None, k: int, repeats: int) -> dict:
    """Measure one layer in this process; called in the child."""
    import resource
    import tempfile
    import time
    import tracemalloc

    import numpy as np

    import propclust
    from propclust import (
        ExperimentGrid,
        Instance,
        check_prf2,
        check_prf3,
        check_prf_discrete,
        check_prf_unconstrained,
        run_experiment,
        select_prf_centers,
    )
    from propclust.baselines import greedy_capture, kmeanspp
    from propclust.data_io import record_for, trace_to_json_obj, write_run_record
    from propclust.engine import _Thresholds

    if not Path(propclust.__file__).is_relative_to(Path(os.environ["PYTHONPATH"]).resolve()):
        raise SystemExit(f"imported propclust from {propclust.__file__}, not from {os.environ['PYTHONPATH']}")
    rng = np.random.default_rng(SEED + 7919 * n + dim)
    quantized = layer in LAYERS and (n, dim) == QUANTIZED
    points = rng.integers(0, QUANTIZED_LEVELS, size=(n, dim)).astype(float) if quantized else rng.normal(size=(n, dim))
    candidates = rng.normal(size=(n // 2, dim))
    if decimals is not None:
        points, candidates = np.round(points, decimals), np.round(candidates, decimals)
    experiment_grid = layer in GRID_LAYERS and (n, dim) == KMEANSPP_GRID
    if experiment_grid or layer == "experiment":
        retail = np.arange(n) < round(0.3 * n)
        mu = np.where(retail[:, None], np.linspace(8.0, 9.0, dim), np.linspace(7.5, 8.5, dim)[::-1])
        points = np.exp(mu + np.linspace(0.8, 1.3, dim) * points)
        points = (points - points.mean(axis=0)) / points.std(axis=0, ddof=1)

    def fresh() -> Instance:
        if layer in DISCRETE_LAYERS:
            return Instance.discrete(points, candidates, k=k)
        return Instance.unconstrained(points, k=k)

    if layer in DISTANCE_LAYERS:

        def prepare():
            return fresh()

        def call(inst):
            return inst.agent_distances if layer == "agent_distances" else inst.distance_matrix

    elif layer == "experiment":

        def prepare():
            return fresh()

        def call(inst):
            grid = ExperimentGrid(datasets=(("wholesale", inst),), ks=KMEANSPP_GRID_KS,
                                  seeds=tuple(KMEANSPP_GRID_SEEDS))
            return run_experiment(grid)

    else:
        built = fresh()
        built.distance_matrix

        def prepare():
            # the rules get a copy that carries the matrix but not the sorted order, so each call sorts
            return built.with_k(k) if layer in SORTING_LAYERS else built

        if layer in ("thresholds", "thresholds_discrete"):

            def call(inst):
                return _Thresholds(inst, np.full(inst.n, inst.k, dtype=np.int64), inst.n)

        elif layer in SAMPLED + EXHAUSTIVE:
            built.agent_distances
            # the sweep sorts a copy, so the instance the check reads holds no sorted
            # order, as in `check --run` (and likewise for the record layer below)
            outcome, _ = select_prf_centers(built.with_k(k))
            # at n = 16 the PRF checkers enumerate subsets by default
            check = {
                "prf_unconstrained": check_prf_unconstrained,
                "prf_discrete": check_prf_discrete,
                "audit_unconstrained": check_prf_unconstrained,
                "audit_discrete": check_prf_discrete,
                "exhaustive_unconstrained": check_prf_unconstrained,
                "exhaustive_discrete": check_prf_discrete,
                "prf2": check_prf2,
                "prf3": check_prf3,
            }[layer]

            def call(inst):
                return check(inst, outcome)

        elif layer == "record":
            outcome, trace = select_prf_centers(built.with_k(k))
            out = Path(tempfile.mkdtemp()) / "run.json"

            def call(inst):
                write_run_record(out, record_for(inst, "prf", outcome, trace=trace))
                return out

        elif layer == "kmeanspp" and experiment_grid:

            def call(inst):
                return [kmeanspp(inst, seed=seed) for seed in KMEANSPP_GRID_SEEDS]

        elif layer == "grid_greedy":

            def call(inst):
                return greedy_capture(inst, pad=True)

        else:
            call = {"sweep": select_prf_centers, "grid_sweep": select_prf_centers, "greedy": greedy_capture,
                    "kmeanspp": kmeanspp}[layer]

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    call(prepare())  # warm-up, untimed
    times, faults = [], []
    for _ in range(repeats):
        inst = prepare()
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = call(inst)
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
    inst = prepare()
    tracemalloc.start()
    try:
        call(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix_bytes = inst.distance_matrix.nbytes if layer == "thresholds_discrete" else n * n * 8
    cell = {
        "layer": layer,
        "n": n,
        "dim": dim,
        "decimals": decimals,
        "k": k,
        **({"levels": QUANTIZED_LEVELS} if quantized else {}),
        "repeats": repeats,
        "median_s": round(float(np.median(times)), 5),
        "times_s": [round(t, 5) for t in times],
        "minflt": faults,
        "tracemalloc_peak_mib": round(peak / MIB, 2),
        "matrix_mib": round(matrix_bytes / MIB, 2),
        "peak_over_matrix": round(peak / matrix_bytes, 3),
        "ru_maxrss_before_mib": round(rss_before / 1024, 1),
        "ru_maxrss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    if layer in DISTANCE_LAYERS:
        cell["matrix_sha256"] = hashlib.sha256(result.tobytes()).hexdigest()
    elif layer in SAMPLED + EXHAUSTIVE:
        report = json.dumps(result.to_json_obj(), separators=(",", ":")).encode()
        cell["report_sha256"] = hashlib.sha256(report).hexdigest()
    elif layer == "kmeanspp":
        selected = [outcome.selected for outcome in result] if experiment_grid else result.selected
        cell["selection_sha256"] = hashlib.sha256(json.dumps(selected).encode()).hexdigest()
    elif layer in ("sweep", "grid_sweep"):
        outcome, trace = result
        cell["selection_sha256"] = hashlib.sha256(json.dumps(outcome.selected).encode()).hexdigest()
        blob = json.dumps(trace_to_json_obj(trace), separators=(",", ":")).encode()
        cell["trace_sha256"] = hashlib.sha256(blob).hexdigest()
    elif layer in ("greedy", "grid_greedy"):
        cell["selection_sha256"] = hashlib.sha256(json.dumps(result.outcome.selected).encode()).hexdigest()
    elif layer == "experiment":
        cell["csv_sha256"] = hashlib.sha256(result.to_csv().encode()).hexdigest()
    elif layer == "record":
        cell["record_sha256"] = hashlib.sha256(result.read_bytes()).hexdigest()
        cell["record_bytes"] = result.stat().st_size
        result.unlink()
        result.parent.rmdir()
    return cell


def _run_cell(src: Path, layer: str, n: int, dim: int, decimals: int | None, k: int, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    argv = [sys.executable, __file__, "--cell", layer, str(n), str(dim), json.dumps(decimals), str(k),
            str(repeats)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{layer} n={n} dim={dim} decimals={decimals} k={k} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key for these figures in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the src/ directory to import propclust from")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge the figures into")
    parser.add_argument("--layers", nargs="+", choices=sorted({cell[0] for cell in GRID}),
                        help="run only these layers (default: all)")
    parser.add_argument("--sizes", nargs="+", type=int, help="run only the cells at these n (default: all)")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    layers = set(args.layers or (cell[0] for cell in GRID))
    cells = []
    for layer, n, dim, decimals, k in GRID:
        if layer not in layers or (args.sizes and n not in args.sizes):
            continue
        cell = _run_cell(src, layer, n, dim, decimals, k, 5 if n < 4000 else 3)
        print(json.dumps(cell), flush=True)
        cells.append(cell)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("script", "benchmarks/layers.py")
    kept = [
        cell
        for cell in record.get(args.label, {}).get("cells", [])
        if cell["layer"] not in layers or (args.sizes and cell["n"] not in args.sizes)
    ]
    record[args.label] = {"environment": _environment(), "cells": kept + cells}
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 8 and sys.argv[1] == "--cell":
        layer, n, dim, decimals, k, repeats = sys.argv[2:]
        print(json.dumps(_cell(layer, int(n), int(dim), json.loads(decimals), int(k), int(repeats))))
    else:
        main()
