"""Exact reference for greedy capture, written as one event per distance.

Every (agent, candidate) distance is an event.  Balls grow around every
candidate at once: the radius visits every distinct distance in ascending
order, an unopened ball counts each uncaptured agent it reaches, open
centers capture the agents their balls reach, and a ball that holds the
quota ceil(n/k) of uncaptured agents opens (lowest index first at equal
radius) and captures them.

This is slow on purpose: it is the oracle the fast `greedy_capture` is
compared against, so it shares none of its bookkeeping.
"""

import numpy as np

from propclust import GreedyCaptureResult, InputError, Outcome


def reference_greedy(inst, pad=False):
    """Grow balls; open a candidate when it holds ceil(n/k) uncaptured agents.

    Balls grow around every location simultaneously.  An open center
    captures uncaptured agents as its ball reaches them; an unopened
    candidate whose ball holds at least ceil(n/k) uncaptured agents opens
    (lowest index first at equal radius) and captures them.  At most k
    centers can ever open, and fewer may: the result is then flagged
    underfilled and, only with ``pad=True``, filled to k with the unopened
    candidates whose balls would reach a full quota soonest ignoring
    captures (ties to the lowest index).
    """
    n, m, k = inst.n, inst.m, inst.k
    if m < k:
        raise InputError(f"insufficient candidates: k={k} but only {m} candidate locations")
    quota = -(-n // k)
    dm = inst.distance_matrix

    flat_order = np.argsort(dm, axis=None, kind="stable")
    ev_agent, ev_cand = np.unravel_index(flat_order, dm.shape)
    d_sorted = dm.ravel()[flat_order]
    radii = np.unique(dm)
    bounds = np.searchsorted(d_sorted, radii, side="right")

    captured = np.zeros(n, dtype=bool)
    is_open = np.zeros(m, dtype=bool)
    count = np.zeros(m, dtype=np.int64)  # uncaptured agents inside each unopened ball
    opened: list[int] = []
    openings: list[tuple[int, float]] = []
    pos = 0

    def capture(agent: int, radius: float) -> None:
        captured[agent] = True
        inside = dm[agent] <= radius
        count[inside & ~is_open] -= 1

    for j, radius in enumerate(radii):
        end = int(bounds[j])
        block_agents = ev_agent[pos:end]
        block_cands = ev_cand[pos:end]
        pos = end
        # all balls reach their radius-r entrants simultaneously: count every
        # entry first, then let open centers take theirs back out
        entering = ~captured[block_agents] & ~is_open[block_cands]
        np.add.at(count, block_cands[entering], 1)
        reached = is_open[block_cands]
        for a in block_agents[reached]:
            if not captured[a]:
                capture(int(a), float(radius))
        while len(opened) < k:
            eligible = np.nonzero(~is_open & (count >= quota))[0]
            if eligible.size == 0:
                break
            c = int(eligible[0])
            is_open[c] = True
            opened.append(c)
            openings.append((c, float(radius)))
            for a in np.nonzero(~captured & (dm[:, c] <= radius))[0]:
                capture(int(a), float(radius))
        if captured.all():
            break

    underfilled = len(opened) < k
    padded: list[int] = []
    if pad and underfilled:
        # fill with the candidates whose balls reach a quota of agents soonest
        fill_radius = np.partition(dm, quota - 1, axis=0)[quota - 1]
        order = np.lexsort((np.arange(m), fill_radius))
        for c in order:
            if len(opened) + len(padded) == k:
                break
            if not is_open[c]:
                padded.append(int(c))

    outcome = Outcome(tuple(opened) + tuple(padded))
    return GreedyCaptureResult(
        outcome=outcome,
        opened=tuple(opened),
        openings=tuple(openings),
        padded=tuple(padded),
        underfilled=underfilled,
    )
