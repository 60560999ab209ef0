"""Clustering baselines over discrete candidate sets.

Two selection rules to compare against the radius-sweep rule:

* :func:`kmeanspp` - squared-distance-weighted seeding followed by
  medoid-style Lloyd iterations.  Centers are always candidate locations,
  so the result is a valid outcome for any instance, including purely
  precomputed ones.
* :func:`greedy_capture` - grows balls around candidate locations and
  opens a candidate once its ball holds a full quota of uncaptured
  agents; open centers absorb agents as their balls reach them.  May
  open fewer than k centers; the result records how the remainder was
  padded.  It is the sweep's ball growth with unit weights and runs on
  the engine's ball-threshold structure: the radius jumps from one
  opening to the next instead of visiting every distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from propclust.core import InputError, Instance, Outcome, _squares_fit
from propclust.engine import _Thresholds

__all__ = [
    "GreedyCaptureResult",
    "greedy_capture",
    "kmeans_cost",
    "kmeanspp",
]


@_squares_fit
def kmeans_cost(inst: Instance, outcome: Outcome) -> float:
    """Total squared distance from each agent to its nearest selected center."""
    outcome.validate(inst)
    sel = np.asarray(outcome.selected, dtype=np.intp)
    nearest = inst.distance_matrix[:, sel].min(axis=1)
    return float(np.sum(nearest**2))


def _draw(rng: np.random.Generator, mass: np.ndarray, total: float) -> int:
    """The index ``rng.choice(len(mass), p=mass / total)`` draws, by the float operations it runs."""
    cdf = (mass / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


@_squares_fit
def kmeanspp(inst: Instance, seed: int = 0, return_history: bool = False):
    """Seeded k-means++ restricted to candidate locations.

    Seeding samples an agent with probability proportional to its squared
    distance to the centers chosen so far (uniformly at first) and opens
    the nearest still-unselected candidate to it.  Lloyd rounds then move
    each cluster's center to the candidate minimizing the within-cluster
    sum of squared distances, keeping centers distinct and keeping the old
    center when a cluster is empty, until the center set repeats or 100
    rounds pass.

    Seeding keeps each agent's squared distance to its nearest center as a
    running minimum, and draws the agent from its cumulative sum with the
    float operations ``Generator.choice(n, p=...)`` runs, so the draws are
    the same without that call's checks.  Each Lloyd round sorts the
    agents by cluster once, stably, so a cluster's members are one slice
    of that order in ascending index; their squared distances are summed
    per candidate into one row per non-empty cluster, and one ``argmin``
    over the rows gives every cluster's cheapest candidate.  A cluster
    whose slice holds the same members as a slice of the previous round
    has the same sums, so its row is copied from that round instead of
    gathered again.  Only when a cluster's cheapest candidate was already
    placed earlier in the round are those centers masked and the minimum
    taken again.  A later cluster's current center never needs masking:
    the cluster's own center costs its members no more and has the lower
    index, and no earlier cluster can have taken it.

    With ``return_history=True`` also returns the center tuple after
    seeding and after each Lloyd round; the benchmark counts Lloyd rounds
    through it.
    """
    n, m, k = inst.n, inst.m, inst.k
    if m < k:
        raise InputError(f"insufficient candidates: k={k} but only {m} candidate locations")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    dm = inst.distance_matrix
    sq = dm**2
    rng = np.random.default_rng(seed)

    centers: list[int] = []
    chosen = np.zeros(m, dtype=bool)
    mass = np.ones(n)  # each agent's squared distance to its nearest center; uniform at first
    for _ in range(k):
        total = float(mass.sum())
        if total <= 0.0:
            # all agents sit on chosen centers; any unselected candidate is as good
            pick = int(np.nonzero(~chosen)[0][0])
        else:
            agent = _draw(rng, mass, total)
            pick = int(np.where(chosen, np.inf, dm[agent]).argmin())
        mass = np.minimum(mass, sq[:, pick]) if centers else sq[:, pick].copy()
        centers.append(pick)
        chosen[pick] = True
    centers.sort()
    history = [tuple(centers)]

    previous: dict[bytes, np.ndarray] = {}  # last round's cost rows by member slice
    for _ in range(100):
        assign = dm[:, centers].argmin(axis=1)
        # cluster j's members are order[ends[j - 1] : ends[j]], ascending by index
        order = assign.argsort(kind="stable")
        sizes = np.bincount(assign, minlength=k)
        ends = np.cumsum(sizes).tolist()
        cost = np.empty((np.count_nonzero(sizes), m))
        rows: dict[bytes, np.ndarray] = {}
        start = 0
        for end in ends:
            if start == end:
                continue
            members = order[start:end]
            row = cost[len(rows)]
            key = members.tobytes()
            if key in previous:
                row[:] = previous[key]
            else:
                sq[members].sum(axis=0, out=row)
            rows[key] = row
            start = end
        previous = rows
        picks = cost.argmin(axis=1).tolist()
        new_centers: list[int] = []
        r = 0
        for j, size in enumerate(sizes.tolist()):
            if size == 0:
                new_centers.append(centers[j])
                continue
            pick = picks[r]
            if pick in new_centers:
                # mask a copy: the row stays the cluster's sums for the next round
                masked = cost[r].copy()
                masked[new_centers] = np.inf
                pick = int(masked.argmin())
            new_centers.append(pick)
            r += 1
        new_centers.sort()
        moved = new_centers != centers
        centers = new_centers
        history.append(tuple(centers))
        if not moved:
            break

    outcome = Outcome(tuple(centers))
    if return_history:
        return outcome, tuple(history)
    return outcome


@dataclass(frozen=True)
class GreedyCaptureResult:
    """Ball-growing run: opened centers, underfill status, any padding."""

    outcome: Outcome
    opened: tuple[int, ...]
    openings: tuple[tuple[int, float], ...]
    padded: tuple[int, ...]
    underfilled: bool


def greedy_capture(inst: Instance, pad: bool = False) -> GreedyCaptureResult:
    """Grow balls; open a candidate when it holds ceil(n/k) uncaptured agents.

    Balls grow around every location simultaneously.  An open center
    captures uncaptured agents as its ball reaches them; an unopened
    candidate whose ball holds at least ceil(n/k) uncaptured agents opens
    (lowest index first at equal radius) and captures them.  At most k
    centers can ever open, and fewer may: the result is then flagged
    underfilled and, only with ``pad=True``, filled to k with the unopened
    candidates whose balls would reach a full quota soonest ignoring
    captures (ties to the lowest index).

    The engine's ball-threshold structure keeps each candidate's threshold,
    the distance at which its ball holds a quota of uncaptured agents, on
    its distance row sorted once: an agent weighs 1 until captured.  The
    radius jumps to the smallest threshold of an unopened candidate; the
    agents that open centers reach by then are captured, the candidates
    whose ball held one move their thresholds up, and the radius
    is taken again until a pass captures nobody.  Then the lowest-index
    candidate at that radius opens.  Every pass captures an agent or opens
    a center, so there are at most n + k passes of O(n + m) vector work.
    On top of that, charging costs O(m) per captured agent, and advancing
    only moves each row's position forward (reading at most one chunk
    past the new position), so charges and advances are O(n·m) in all,
    after one O(n·m·log n) sort.
    """
    n, m, k = inst.n, inst.m, inst.k
    if m < k:
        raise InputError(f"insufficient candidates: k={k} but only {m} candidate locations")
    quota = -(-n // k)
    w = np.ones(n, dtype=np.int64)  # 1 while uncaptured, 0 after
    balls = _Thresholds(inst, w, quota)
    uncaptured = n
    # where each ball first holds a quota of agents, ignoring captures
    fill_radius = balls.radius.copy()
    is_open = np.zeros(m, dtype=bool)
    nearest = np.full(n, np.inf)  # each agent's distance to its nearest open center
    opened: list[int] = []
    openings: list[tuple[int, float]] = []

    while len(opened) < k:
        radius = balls.radius[~is_open].min()
        newly = np.flatnonzero((nearest <= radius) & (w > 0))
        if newly.size == 0:
            c = int(np.flatnonzero(~is_open & (balls.radius == radius))[0])
            is_open[c] = True
            opened.append(c)
            openings.append((c, float(radius)))
            np.minimum(nearest, balls.DT[c], out=nearest)
            continue
        w[newly] = 0
        uncaptured -= newly.size
        if uncaptured < quota:
            break  # no ball can hold a quota any more
        balls.charge(newly, np.ones_like(newly), ~is_open)

    underfilled = len(opened) < k
    padded: list[int] = []
    if pad and underfilled:
        # fill with the candidates whose balls reach a quota of agents soonest
        free = np.flatnonzero(~is_open)
        padded = free[np.lexsort((free, fill_radius[free]))][: k - len(opened)].tolist()

    outcome = Outcome(tuple(opened) + tuple(padded))
    return GreedyCaptureResult(
        outcome=outcome,
        opened=tuple(opened),
        openings=tuple(openings),
        padded=tuple(padded),
        underfilled=underfilled,
    )
