"""Exact reference for k-means++, one Python pass per cluster and round.

Seeding takes the minimum over the chosen centers' squared distances
afresh at every step.  Each Lloyd round finds every cluster's members with
its own ``np.nonzero``, blocks the centers already placed this round and
those still to be placed with one Python store each, and keeps the old
center of an empty cluster.

This is the plain form of the rule: the oracle that `kmeanspp`, which
shares one sorted order per round among the clusters, is compared against.
"""

import numpy as np

from propclust import InputError, Outcome
from propclust.core import _squares_fit


@_squares_fit
def reference_kmeanspp(inst, seed=0, return_history=False):
    """Seeded k-means++ restricted to candidate locations.

    Seeding samples an agent with probability proportional to its squared
    distance to the centers chosen so far (uniformly at first) and opens
    the nearest still-unselected candidate to it.  Lloyd rounds then move
    each cluster's center to the candidate minimizing the within-cluster
    sum of squared distances, keeping centers distinct and keeping the old
    center when a cluster is empty, until the center set repeats or 100
    rounds pass.

    With ``return_history=True`` also returns the center tuple after
    seeding and after each Lloyd round.
    """
    n, m, k = inst.n, inst.m, inst.k
    if m < k:
        raise InputError(f"insufficient candidates: k={k} but only {m} candidate locations")
    dm = inst.distance_matrix
    sq = dm**2
    rng = np.random.default_rng(seed)

    centers: list[int] = []
    chosen = np.zeros(m, dtype=bool)
    for _ in range(k):
        if centers:
            mass = sq[:, centers].min(axis=1)
            total = float(mass.sum())
        else:
            mass = np.ones(n)
            total = float(n)
        if total <= 0.0:
            # all agents sit on chosen centers; any unselected candidate is as good
            pick = int(np.nonzero(~chosen)[0][0])
        else:
            agent = int(rng.choice(n, p=mass / total))
            row = np.where(chosen, np.inf, dm[agent])
            pick = int(np.argmin(row))
        centers.append(pick)
        chosen[pick] = True
    centers.sort()
    history = [tuple(centers)]

    for _ in range(100):
        cols = dm[:, centers]
        assign = np.argmin(cols, axis=1)
        new_centers: list[int] = []
        for j in range(k):
            members = np.nonzero(assign == j)[0]
            blocked = set(new_centers) | set(centers[j + 1 :])
            if members.size == 0:
                new_centers.append(centers[j])
                continue
            cost = sq[members].sum(axis=0)
            for b in blocked:
                cost[b] = np.inf
            new_centers.append(int(np.argmin(cost)))
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
