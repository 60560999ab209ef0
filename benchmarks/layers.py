"""Layer benchmark: time and memory of each set-up and selection layer, by size.

    python3 benchmarks/layers.py --label change --out BENCH_x.json
    python3 benchmarks/layers.py --label parent --src OTHER/src --out BENCH_x.json
    python3 benchmarks/layers.py --label change --layers distances sweep --out BENCH_x.json

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

The checker layers run the sampled PRF checks with their default seed and
samples on the sweep's outcome, at n = 1000, 2000 and 4000 on 2-D points,
8-D points and 2-D points rounded to 0.1:

- ``prf_unconstrained``: ``check_prf_unconstrained`` on the unconstrained
  instance;
- ``prf_discrete``: ``check_prf_discrete`` on the discrete instance with
  m = n/2 candidates, Gaussian points drawn (and rounded) like the agents.

The ``kmeanspp`` layer runs ``baselines.kmeanspp`` with its default seed on
the built unconstrained instance, at n = 500, 1000, 2000 and 4000 on 2-D and
8-D points.

The ``record`` layer runs ``data_io.record_for`` and then
``data_io.write_run_record`` (to a file in a temporary directory) on the
sweep's outcome and trace, as ``propclust cluster --out`` does, at n = 500,
1000, 2000 and 5000 on 2-D and 8-D points.

Per cell the file records the median wall time of 5 untraced calls, 3 at
n >= 4000 (raw, not scaled to a reference speed), the ``tracemalloc`` peak of
one more call, that peak over the bytes of the (n, n) matrix, and
``ru_maxrss`` of the process before and after the calls.  A checker cell
also records the SHA-256 of its report's JSON, and a ``kmeanspp`` cell that of
its selection, and a ``record`` cell that of the written file, so two trees'
figures show whether their outputs agree.
Results are merged into ``--out`` under ``--label``, so one file can hold the
figures of two trees made by this same script.  ``--layers`` runs only the
named layers, and replaces only their cells under the label.  The runs are
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
KMEANSPP_SIZES = (500, 1000, 2000, 4000)
KMEANSPP_DIMS = (2, 8)
RECORD_DIMS = (2, 8)
K = 20
GRID = (
    [(layer, n, dim, None, K) for n in SIZES for dim in DIMS for layer in (*DISTANCE_LAYERS, *LAYERS[1:])]
    + [(layer, n, 2, None, k) for n in SIZES for k in SMALL_KS for layer in LAYERS[1:]]
    + [
        (layer, n, dim, decimals, K)
        for n in CHECK_SIZES
        for dim, decimals in CHECK_POINTS
        for layer in CHECKERS
    ]
    + [("kmeanspp", n, dim, None, K) for n in KMEANSPP_SIZES for dim in KMEANSPP_DIMS]
    + [("record", n, dim, None, K) for n in SIZES for dim in RECORD_DIMS]
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
    from propclust import Instance, check_prf_discrete, check_prf_unconstrained, select_prf_centers
    from propclust.baselines import greedy_capture, kmeanspp
    from propclust.data_io import record_for, write_run_record
    from propclust.engine import _Thresholds

    if not Path(propclust.__file__).is_relative_to(Path(os.environ["PYTHONPATH"]).resolve()):
        raise SystemExit(f"imported propclust from {propclust.__file__}, not from {os.environ['PYTHONPATH']}")
    rng = np.random.default_rng(SEED + 7919 * n + dim)
    points = rng.normal(size=(n, dim))
    candidates = rng.normal(size=(n // 2, dim))
    if decimals is not None:
        points, candidates = np.round(points, decimals), np.round(candidates, decimals)

    def fresh() -> Instance:
        if layer in ("prf_discrete", "agent_distances"):
            return Instance.discrete(points, candidates, k=k)
        return Instance.unconstrained(points, k=k)

    if layer in DISTANCE_LAYERS:

        def prepare():
            return fresh()

        def call(inst):
            return inst.agent_distances if layer == "agent_distances" else inst.distance_matrix

    else:
        built = fresh()
        built.distance_matrix

        def prepare():
            return built

        if layer == "thresholds":

            def call(inst):
                return _Thresholds(inst, np.full(inst.n, inst.k, dtype=np.int64), inst.n)

        elif layer in CHECKERS:
            built.agent_distances
            outcome, _ = select_prf_centers(built)
            check = check_prf_unconstrained if layer == "prf_unconstrained" else check_prf_discrete

            def call(inst):
                return check(inst, outcome)

        elif layer == "record":
            outcome, trace = select_prf_centers(built)
            out = Path(tempfile.mkdtemp()) / "run.json"

            def call(inst):
                write_run_record(out, record_for(inst, "prf", outcome, trace=trace))
                return out

        else:
            call = {"sweep": select_prf_centers, "greedy": greedy_capture, "kmeanspp": kmeanspp}[layer]

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    times = []
    for _ in range(repeats):
        inst = prepare()
        start = time.perf_counter()
        result = call(inst)
        times.append(time.perf_counter() - start)
    inst = prepare()
    tracemalloc.start()
    try:
        call(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix_bytes = n * n * 8
    cell = {
        "layer": layer,
        "n": n,
        "dim": dim,
        "decimals": decimals,
        "k": k,
        "repeats": repeats,
        "median_s": round(float(np.median(times)), 5),
        "times_s": [round(t, 5) for t in times],
        "tracemalloc_peak_mib": round(peak / MIB, 2),
        "matrix_mib": round(matrix_bytes / MIB, 2),
        "peak_over_matrix": round(peak / matrix_bytes, 3),
        "ru_maxrss_before_mib": round(rss_before / 1024, 1),
        "ru_maxrss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    if layer in CHECKERS:
        report = json.dumps(result.to_json_obj(), separators=(",", ":")).encode()
        cell["report_sha256"] = hashlib.sha256(report).hexdigest()
    elif layer == "kmeanspp":
        cell["selection_sha256"] = hashlib.sha256(json.dumps(result.selected).encode()).hexdigest()
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
    args = parser.parse_args(argv)

    src = args.src.resolve()
    layers = set(args.layers or (cell[0] for cell in GRID))
    cells = []
    for layer, n, dim, decimals, k in GRID:
        if layer not in layers:
            continue
        cell = _run_cell(src, layer, n, dim, decimals, k, 5 if n < 4000 else 3)
        print(json.dumps(cell), flush=True)
        cells.append(cell)
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("script", "benchmarks/layers.py")
    kept = [cell for cell in record.get(args.label, {}).get("cells", []) if cell["layer"] not in layers]
    record[args.label] = {"environment": _environment(), "cells": kept + cells}
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) == 8 and sys.argv[1] == "--cell":
        layer, n, dim, decimals, k, repeats = sys.argv[2:]
        print(json.dumps(_cell(layer, int(n), int(dim), json.loads(decimals), int(k), int(repeats))))
    else:
        main()
