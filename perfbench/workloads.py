"""Workload inputs and op lists.

Every workload is a fixed op mix over a small pool of inputs made from the
workload seed.  ``prepare`` writes the inputs into the current directory
(the run's work directory) and returns the pool plus a tiny warm-up op; the
timed loop then cycles through the pool.  All paths in an op are relative to
the work directory, so the program's outputs (and their digests) do not
depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("cluster-distinct", "cluster-quantized", "experiment-grid", "audit-sampled")

#: The layer each workload is built to be dominated by (checked by the traced run).
DOMINANT_LAYER = {
    "cluster-distinct": "engine",
    "cluster-quantized": "core",
    "experiment-grid": "baselines",
    "audit-sampled": "axioms",
}

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` serves the
#: self-test and the warm-up op.  The full sizes keep one op well under a
#: second, so a 25 s run holds enough ops for a tail percentile with ten ops
#: beyond it.  The two input shapes inside each workload are sized to cost
#: about the same, so the median does not sit between two latency modes.
SIZES = {
    "full": {
        "cluster-distinct": {"k": 20, "unconstrained_n": 450, "discrete_n": 480, "discrete_m": 240},
        "cluster-quantized": {"k": 20, "n": 1200, "dim": 8, "levels": 3},
        "experiment-grid": {"n": 120, "dim": 6, "ks": [5, 10, 20], "seeds": [0, 1, 2, 3, 4]},
        "audit-sampled": {"k": 20, "unconstrained_n": 300, "discrete_n": 300, "discrete_m": 150},
    },
    "tiny": {
        "cluster-distinct": {"k": 4, "unconstrained_n": 40, "discrete_n": 40, "discrete_m": 20},
        "cluster-quantized": {"k": 4, "n": 60, "dim": 8, "levels": 3},
        "experiment-grid": {"n": 30, "dim": 6, "ks": [2, 3], "seeds": [0, 1]},
        "audit-sampled": {"k": 4, "unconstrained_n": 40, "discrete_n": 40, "discrete_m": 20},
    },
}

POOL_SIZE = 4
AXIOMS = "up,pf,core,prf"


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the files it writes, and what counts as success."""

    kind: str  # "cluster", "check" or "experiment"
    argv: tuple[str, ...]
    writes: tuple[str, ...]
    exit_codes: tuple[int, ...]
    source: str  # the input file the invariants re-read
    label: str  # human-readable shape of the input


def op_from_json(obj: dict) -> Op:
    return Op(
        kind=obj["kind"],
        argv=tuple(obj["argv"]),
        writes=tuple(obj["writes"]),
        exit_codes=tuple(obj["exit_codes"]),
        source=obj["source"],
        label=obj["label"],
    )


# ---------------------------------------------------------------------------
# point generators (coordinates only; the program never sees the seed)


def _gaussian_mixture(rng, n: int, components: int = 6) -> np.ndarray:
    # unit Gaussians around centers evenly spaced on a circle of radius 5;
    # only the draws depend on the seed, so run cost does not swing with
    # where the centers happen to fall
    angle = 2.0 * np.pi * np.arange(components) / components
    centers = 5.0 * np.column_stack([np.cos(angle), np.sin(angle)])
    labels = rng.integers(0, components, size=n)
    return centers[labels] + rng.normal(size=(n, 2))


def _quantized(rng, n: int, dim: int, levels: int) -> np.ndarray:
    # a 3-level grid in 8-D: about 30 distinct distances, and at n = 1200
    # roughly 13% of agents share their cell with another agent
    return rng.integers(0, levels, size=(n, dim)).astype(float)


def _wholesale_like(rng, n: int, dim: int) -> np.ndarray:
    # heavy-tailed (log-normal) spending columns in two customer channels,
    # shaped like the UCI Wholesale customers data; only the draws depend on
    # the seed, so every seed gives the same distribution
    retail = np.arange(n) < round(0.3 * n)
    mu = np.where(retail[:, None], np.linspace(8.0, 9.0, dim), np.linspace(7.5, 8.5, dim)[::-1])
    sigma = np.linspace(0.8, 1.3, dim)
    return np.exp(mu + sigma * rng.normal(size=(n, dim)))


def _write_points(path: Path, agents: np.ndarray, candidates: np.ndarray | None = None,
                  ids: bool = False) -> None:
    dim = agents.shape[1]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [f"x{j}" for j in range(dim)]
    if candidates is not None:
        writer.writerow(["role", *header])
        for row in agents:
            writer.writerow(["agent", *(repr(float(v)) for v in row)])
        for row in candidates:
            writer.writerow(["candidate", *(repr(float(v)) for v in row)])
    elif ids:
        writer.writerow(["id", *header])
        for i, row in enumerate(agents):
            writer.writerow([f"c{i}", *(repr(float(v)) for v in row)])
    else:
        writer.writerow(header)
        for row in agents:
            writer.writerow([repr(float(v)) for v in row])
    path.write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# per-workload pools; every path is relative to the work directory (the cwd)


def _cluster_op(algo: str, csv_name: str, k: int, out: str, label: str) -> Op:
    argv = ["cluster", "--algo", algo]
    if algo == "greedy":
        argv.append("--pad")
    argv += ["--input", csv_name, "--k", str(k), "--out", out]
    return Op("cluster", tuple(argv), (out,), (0,), csv_name, label)


def _distinct_points(rng, name: str, index: int, size: dict) -> str:
    """Write unconstrained (even index) or discrete (odd index) 2-D points."""
    if index % 2 == 0:
        n = size["unconstrained_n"]
        _write_points(Path(name), _gaussian_mixture(rng, n))
        return f"unconstrained n={n} k={size['k']}"
    n, m = size["discrete_n"], size["discrete_m"]
    _write_points(Path(name), _gaussian_mixture(rng, n), _gaussian_mixture(rng, m))
    return f"discrete n={n} m={m} k={size['k']}"


def _pool_cluster_distinct(seed: int, size: dict, prefix: str, count: int) -> list[Op]:
    ops = []
    for i in range(count):
        name = f"{prefix}points{i}.csv"
        label = _distinct_points(np.random.default_rng([seed, i]), name, i, size)
        ops.append(_cluster_op("prf", name, size["k"], f"{prefix}run{i}.json", label))
    return ops


def _pool_cluster_quantized(seed: int, size: dict, prefix: str, count: int) -> list[Op]:
    ops = []
    for i in range(count):
        # op pairs share one input: prf on even ops, padded greedy on odd ops
        name = f"{prefix}grid{i // 2}.csv"
        n = size["n"]
        if i % 2 == 0:
            points = _quantized(np.random.default_rng([seed, i // 2]), n, size["dim"], size["levels"])
            _write_points(Path(name), points)
        algo = ("prf", "greedy")[i % 2]
        label = f"{algo}, unconstrained n={n} dim={size['dim']} levels={size['levels']} k={size['k']}"
        ops.append(_cluster_op(algo, name, size["k"], f"{prefix}run{i}.json", label))
    return ops


def _pool_experiment_grid(seed: int, size: dict, prefix: str, count: int) -> list[Op]:
    ops = []
    for i in range(count):
        data = f"{prefix}wholesale{i}.csv"
        points = _wholesale_like(np.random.default_rng([seed, i]), size["n"], size["dim"])
        _write_points(Path(data), points, ids=True)
        grid = {
            "datasets": [{"path": data, "standardize": True}],
            "ks": size["ks"],
            "algorithms": ["prf", "kmeanspp", "greedy"],
            "seeds": size["seeds"],
            "metrics": ["msd1", "msdhalfk", "msdk"],
        }
        grid_name = f"{prefix}grid{i}.json"
        Path(grid_name).write_text(json.dumps(grid, indent=2) + "\n")
        rows, aggs = f"{prefix}rows{i}.csv", f"{prefix}aggs{i}.json"
        argv = ("experiment", "--grid", grid_name, "--out", rows, "--aggregates", aggs)
        label = f"n={size['n']} dim={size['dim']} ks={size['ks']} kmeanspp seeds={len(size['seeds'])}"
        ops.append(Op("experiment", argv, (rows, aggs), (0,), grid_name, label))
    return ops


def _pool_audit_sampled(seed: int, size: dict, prefix: str, count: int) -> list[Op]:
    from propclust.cli import main

    ops = []
    for i in range(count):
        name = f"{prefix}audit{i}.csv"
        label = _distinct_points(np.random.default_rng([seed, i]), name, i, size)
        record = f"{prefix}record{i}.json"
        # the records are the program's own prf outcomes, written before timing
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["cluster", "--algo", "prf", "--input", name, "--k", str(size["k"]),
                         "--out", record])
        if code != 0:
            raise RuntimeError(f"could not write the audit record for {name} (exit {code})")
        argv = ("check", "--run", record, "--axioms", AXIOMS)
        ops.append(Op("check", argv, (), (0, 2), record, f"prf record, {label}"))
    return ops


_POOLS = {
    "cluster-distinct": _pool_cluster_distinct,
    "cluster-quantized": _pool_cluster_quantized,
    "experiment-grid": _pool_experiment_grid,
    "audit-sampled": _pool_audit_sampled,
}


def prepare(workload: str, seed: int, size: str) -> tuple[list[Op], Op]:
    """Write the inputs of one run into the cwd; return the op pool and the warm-up op.

    The warm-up op is the workload's first op on a tiny input of its own.
    """
    pool = _POOLS[workload](seed, SIZES[size][workload], "", POOL_SIZE)
    Path("warmup").mkdir()
    (warmup,) = _POOLS[workload](seed, SIZES["tiny"][workload], "warmup/", 1)
    return pool, warmup
