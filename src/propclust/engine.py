"""Quota-jump center selection with exact weighted supports.

Every agent starts with one unit of weight.  A candidate's threshold is
the smallest radius at which the weight within that radius of it reaches
the quota n/k.  Each round jumps straight to the smallest threshold over
the remaining candidates; among the candidates at that radius the one with
the largest support wins (ties to the lowest candidate index), and its
supporters give up exactly n/k of weight, closest first.  Weights only
fall, so thresholds only rise and the rounds visit radii in ascending
order: the outcome is the same as lowering one shared threshold through
every distinct distance.

Each candidate's distances are sorted once.  Per candidate the sweep keeps
the first sorted position at which its prefix weight reaches the quota and
that prefix weight.  After a payment only the candidates whose prefix held
a paying agent are charged, and those that fall below the quota move
their position forward in chunks that double on each pass.  The work is
O(k·n·m) in vector operations, plus one O(n·m·log n) sort.

Weights are exact rationals with denominator k.  Internally the engine
stores them as integers scaled by k, which keeps every quota comparison
integer-exact; the trace speaks `fractions.Fraction`.  Selection is
sequential by design; concurrent sweeps over shared instances are safe
because instances are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from propclust.core import InputError, Instance, Outcome

__all__ = [
    "SweepRound",
    "SweepTrace",
    "select_prf_centers",
]

# sorted positions a candidate reads on its first pass when it falls below the quota
_CHUNK = 16


@dataclass(frozen=True)
class SweepRound:
    """One selection: who won at which radius, and who paid for it.

    ``supporters`` lists the winner's supporter set ascending by agent
    index, with ``weights_before``/``weights_after`` aligned to it.
    ``support`` is the winner's weighted support at selection time.
    """

    radius: float
    winner: int
    supporters: tuple[int, ...]
    weights_before: tuple[Fraction, ...]
    weights_after: tuple[Fraction, ...]
    support: Fraction


@dataclass(frozen=True)
class SweepTrace:
    rounds: tuple[SweepRound, ...]


def _sorted_rows(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every candidate's distance row, sorted once: ``(DT, order, rank)``.

    ``DT`` is (m, n): row c holds candidate c's distance to every agent.  It
    is the distance matrix itself when candidates are shared, since that
    matrix is symmetric.  ``order[c]`` lists the agents ascending by
    ``DT[c]`` (any order inside a tie) and ``rank`` is its inverse
    permutation, ``order[c, rank[c, a]] == a``.
    """
    D = inst.distance_matrix
    DT = D if inst.is_unconstrained else np.ascontiguousarray(D.T)
    order = np.argsort(DT, axis=1)
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(D.shape[0])[None, :], axis=1)
    return DT, order, rank


def _advance(
    order: np.ndarray,
    w: np.ndarray,
    pos: np.ndarray,
    prefix: np.ndarray,
    cands: np.ndarray,
    quota: int,
) -> None:
    """Move each of ``cands`` to the first sorted position where its prefix weight reaches ``quota``.

    ``pos[c]`` is the last position already counted in ``prefix[c]``; both
    are updated in place.  Each pass reads the next chunk of every
    unfinished candidate's row and doubles the chunk for the next pass.
    """
    n = order.shape[1]
    size = min(_CHUNK, n)
    while cands.size:
        start = pos[cands] + 1
        idx = start[:, None] + np.arange(size)
        past = idx >= n
        gained = w[order[cands[:, None], np.minimum(idx, n - 1)]]
        gained[past] = 0
        cums = np.cumsum(gained, axis=1) + prefix[cands][:, None]
        reached = cums >= quota
        hit = reached.any(axis=1)
        stuck = (idx[:, -1] >= n - 1) & ~hit
        if stuck.any():
            raise RuntimeError(
                f"prefix advance ran past the row end: candidate {int(cands[stuck][0])} holds "
                f"{int(cums[stuck][0, -1])} over its whole row, below the quota {quota}"
            )
        first = reached[hit].argmax(axis=1)
        done = cands[hit]
        pos[done] = start[hit] + first
        prefix[done] = cums[hit, first]
        rest = ~hit
        cands = cands[rest]
        pos[cands] = start[rest] + size - 1
        prefix[cands] = cums[rest, -1]
        size = min(2 * size, n)


def select_prf_centers(inst: Instance) -> tuple[Outcome, SweepTrace]:
    """Select k centers by the weighted radius sweep.

    Works identically for unconstrained instances (candidates are the
    agent multiset) and discrete candidate sets; the only precondition is
    that at least k candidate locations exist.  Returns the ordered
    selection and a per-round audit trace.
    """
    n, m, k = inst.n, inst.m, inst.k
    if m < k:
        raise InputError(f"insufficient candidates: k={k} but only {m} candidate locations")

    D = inst.distance_matrix
    DT, order, rank = _sorted_rows(inst)
    rows = np.arange(m)

    # weights scaled by k: start at k each, quota is n, all arithmetic exact
    w = np.full(n, k, dtype=np.int64)
    quota = n
    frac = [Fraction(j, k) for j in range(k + 1)]

    pos = np.full(m, -1, dtype=np.intp)
    prefix = np.zeros(m, dtype=np.int64)
    _advance(order, w, pos, prefix, rows, quota)
    threshold = DT[rows, order[rows, pos]]
    # a mask, not an infinite threshold, so no marker value can ever tie with a real threshold
    remaining = np.ones(m, dtype=bool)

    selected: list[int] = []
    rounds: list[SweepRound] = []
    while True:
        radius = threshold[remaining].min()
        tied = np.flatnonzero(remaining & (threshold == radius))
        support = (DT[tied] <= radius) @ w
        best = int(np.argmax(support))  # first maximum, so lowest index on ties
        winner = int(tied[best])
        sup_val = int(support[best])

        members = np.flatnonzero(D[:, winner] <= radius)
        before = w[members]

        # pay the quota: zero supporters ascending by (distance to winner, index)
        ordered = members[np.lexsort((members, D[members, winner]))]
        wo = w[ordered]
        cums = np.cumsum(wo)
        cut = int(np.searchsorted(cums, quota, side="left"))
        removed_before_cut = int(cums[cut - 1]) if cut > 0 else 0
        deltas = np.zeros(len(ordered), dtype=np.int64)
        deltas[:cut] = wo[:cut]
        deltas[cut] = quota - removed_before_cut
        w[ordered] -= deltas

        selected.append(winner)
        rounds.append(
            SweepRound(
                radius=float(radius),
                winner=winner,
                supporters=tuple(members.tolist()),
                weights_before=tuple(frac[b] for b in before.tolist()),
                weights_after=tuple(frac[a] for a in w[members].tolist()),
                support=Fraction(sup_val, k),
            )
        )
        if len(selected) == k:
            return Outcome(tuple(selected)), SweepTrace(tuple(rounds))

        remaining[winner] = False
        paid = deltas > 0
        # charge each candidate for the paying agents inside its counted prefix
        prefix -= (rank[:, ordered[paid]] <= pos[:, None]) @ deltas[paid]
        short = np.flatnonzero(remaining & (prefix < quota))
        if short.size:
            _advance(order, w, pos, prefix, short, quota)
            threshold[short] = DT[short, order[short, pos[short]]]
