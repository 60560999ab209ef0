"""Evaluation harness: representation metrics and experiment grids.

The quality metric is the mean, over agents, of the summed squared
distances to each agent's j nearest selected centers.  Three standard
choices of j are exposed as named metrics: j=1, j=ceil(k/2), and j=k.

Experiments sweep (dataset, k, algorithm, seed) grids and emit flat rows
plus per-group aggregates with percent difference against the k-means++
baseline.  All emission is deterministic: fixed row order, shortest
round-trip float formatting, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from propclust.baselines import greedy_capture, kmeanspp
from propclust.core import InputError, Instance, Outcome, _squares_fit
from propclust.engine import select_prf_centers

__all__ = [
    "ALGORITHM_NAMES",
    "AggregateRow",
    "ExperimentGrid",
    "METRIC_KEYS",
    "ResultRow",
    "ResultTable",
    "aggregate",
    "aggregates_to_json",
    "metric_order",
    "metric_value",
    "msd_j",
    "run_algorithm",
    "run_experiment",
]

METRIC_KEYS = ("msd1", "msdhalfk", "msdk")

ALGORITHM_NAMES = ("prf", "kmeanspp", "greedy")
SEEDED_ALGORITHMS = frozenset({"kmeanspp"})


@_squares_fit
def msd_j(inst: Instance, outcome: Outcome, j: int, squared: bool = True) -> float:
    """Mean over agents of the summed distance to their j nearest centers.

    Distances are squared unless ``squared=False``.  Requires
    1 <= j <= number of selected centers.
    """
    outcome.validate(inst)
    if not 1 <= j <= len(outcome.selected):
        raise InputError(f"j={j} is outside 1..{len(outcome.selected)}")
    sel = np.asarray(outcome.selected, dtype=np.intp)
    nearest = np.sort(inst.distance_matrix[:, sel], axis=1)[:, :j]
    if squared:
        nearest = nearest**2
    return float(nearest.sum(axis=1).mean())


def metric_order(key: str, k: int) -> int:
    """The j used by a named metric at a given k."""
    if key == "msd1":
        return 1
    if key == "msdhalfk":
        return -(-k // 2)
    if key == "msdk":
        return k
    raise InputError(f"unknown metric {key!r}; expected one of {', '.join(METRIC_KEYS)}")


def metric_value(
    inst: Instance, outcome: Outcome, key: str, squared: bool = True
) -> float | None:
    """A named metric's value, or None when the outcome is too small for it.

    An underfilled outcome leaves metrics with j > |X| undefined; they are
    reported as missing rather than imputed.
    """
    j = metric_order(key, inst.k)
    if j > len(outcome.selected):
        return None
    return msd_j(inst, outcome, j, squared=squared)


def run_algorithm(name: str, inst: Instance, seed: int = 0) -> Outcome:
    """Run one selection rule by name; ``seed`` only affects kmeanspp.

    The greedy rule runs padded here so every metric is defined; use
    :func:`propclust.baselines.greedy_capture` directly to observe its
    underfilled outcomes.
    """
    if name == "prf":
        outcome, _ = select_prf_centers(inst)
        return outcome
    if name == "kmeanspp":
        return kmeanspp(inst, seed=seed)
    if name == "greedy":
        return greedy_capture(inst, pad=True).outcome
    raise InputError(f"unknown algorithm {name!r}; expected one of {', '.join(ALGORITHM_NAMES)}")


@dataclass(frozen=True)
class ResultRow:
    """One (dataset, algorithm, k, seed, metric) measurement."""

    dataset: str
    algorithm: str
    k: int
    seed: int | None
    metric: str
    value: float | None  # None = metric undefined for this outcome


@dataclass(frozen=True)
class AggregateRow:
    """Per-(dataset, algorithm, k, metric) mean with baseline comparison."""

    dataset: str
    algorithm: str
    k: int
    metric: str
    mean: float | None
    pct_vs_kmeanspp: float | None


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


@dataclass(frozen=True)
class ResultTable:
    """Flat experiment rows in deterministic emission order."""

    rows: tuple[ResultRow, ...]

    HEADER = "dataset,algorithm,k,seed,metric,value"

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            seed = "" if r.seed is None else str(r.seed)
            lines.append(f"{r.dataset},{r.algorithm},{r.k},{seed},{r.metric},{_fmt(r.value)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentGrid:
    """Everything a sweep run needs: named instances and the axes to vary."""

    datasets: tuple[tuple[str, Instance], ...]
    ks: tuple[int, ...]
    algorithms: tuple[str, ...] = ALGORITHM_NAMES
    seeds: tuple[int, ...] = (0,)
    metrics: tuple[str, ...] = METRIC_KEYS

    def __post_init__(self):
        # rows are keyed by dataset name, so two datasets of one name would be averaged together
        seen = set()
        for name, _ in self.datasets:
            if name in seen:
                raise InputError(f"dataset name {name!r} is repeated; each dataset needs its own name")
            seen.add(name)
        for name in self.algorithms:
            if name not in ALGORITHM_NAMES:
                raise InputError(f"unknown algorithm {name!r}")
        for key in self.metrics:
            if key not in METRIC_KEYS:
                raise InputError(f"unknown metric {key!r}")
        if not self.seeds and any(a in SEEDED_ALGORITHMS for a in self.algorithms):
            raise InputError("seeded algorithms need at least one seed")


def run_experiment(grid: ExperimentGrid) -> ResultTable:
    """Run the full grid.

    Seeded algorithms contribute one row per seed; deterministic
    algorithms run once per (dataset, k) and carry an empty seed field.
    """
    rows: list[ResultRow] = []
    for name, inst in grid.datasets:
        for k in grid.ks:
            # chained, so the distances built for one k serve the next
            inst = inst.with_k(k)
            for algo in grid.algorithms:
                seeds: tuple[int | None, ...]
                seeds = tuple(grid.seeds) if algo in SEEDED_ALGORITHMS else (None,)
                for seed in seeds:
                    outcome = run_algorithm(algo, inst, seed=0 if seed is None else seed)
                    for key in grid.metrics:
                        value = metric_value(inst, outcome, key)
                        rows.append(ResultRow(name, algo, k, seed, key, value))
    return ResultTable(tuple(rows))


def aggregate(table: ResultTable) -> tuple[AggregateRow, ...]:
    """Mean per (dataset, algorithm, k, metric) plus percent difference
    against the kmeanspp mean for the same (dataset, k, metric).

    Missing values are dropped from means; a group with no values at all
    gets a missing mean and no percent difference.
    """
    groups: dict[tuple[str, str, int, str], list[float]] = {}  # in first-row order
    for r in table.rows:
        values = groups.setdefault((r.dataset, r.algorithm, r.k, r.metric), [])
        if r.value is not None:
            values.append(r.value)
    means = {key: (sum(vals) / len(vals) if vals else None) for key, vals in groups.items()}
    out: list[AggregateRow] = []
    for (dataset, algorithm, k, metric), mean in means.items():
        base = means.get((dataset, "kmeanspp", k, metric))
        if mean is None or base is None or base == 0.0:
            pct = None
        else:
            pct = (mean - base) / base * 100.0
        out.append(AggregateRow(dataset, algorithm, k, metric, mean, pct))
    return tuple(out)


def aggregates_to_json(aggs: tuple[AggregateRow, ...]) -> str:
    return json.dumps([vars(a) for a in aggs], indent=2) + "\n"
