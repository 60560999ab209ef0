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
O(k·n·m) in vector operations, plus one O(n·m·log n) sort.  This
ball-threshold structure (``_Thresholds``) also runs greedy capture in
:mod:`propclust.baselines`, with unit weights and quota ceil(n/k).

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


class _Thresholds:
    """Each candidate's ball threshold over its distance row, sorted once.

    ``DT`` is (m, n): row c holds candidate c's distance to every agent (the
    distance matrix itself when candidates are shared, since it is then
    symmetric).  ``radius[c]`` is the smallest radius at which the weight
    ``w`` within it of candidate c reaches ``quota``.  ``w`` is held by
    reference: the caller lowers it, then calls :meth:`charge`.

    ``_order`` (m, n) lists each candidate's agents by distance, and
    ``_rank`` (n, m) is agent-major: ``_rank[a, c]`` is agent a's position in
    ``_order[c]``, so a charge reads one contiguous row per paying agent.
    Both are int32, half the bytes of the matrix each.
    """

    def __init__(self, inst: Instance, w: np.ndarray, quota: int):
        if inst.n > np.iinfo(np.int32).max:
            raise InputError(f"{inst.n} agents are too many: sorted positions are int32")
        D = inst.distance_matrix
        self.DT = D if inst.is_unconstrained else np.ascontiguousarray(D.T)
        # order[c] sorts the agents by DT[c] (ties in any order), rank inverts
        # it, and prefix[c] is the weight of the agents order[c, : pos[c] + 1]
        self._order = np.argsort(self.DT, axis=1).astype(np.int32)
        self._rank = np.empty((inst.n, inst.m), dtype=np.int32)
        np.put_along_axis(self._rank.T, self._order, np.arange(inst.n, dtype=np.int32)[None, :], axis=1)
        self._w, self._quota = w, quota
        self._pos = np.full(inst.m, -1, dtype=np.intp)
        self._prefix = np.zeros(inst.m, dtype=np.int64)
        self.radius = np.empty(inst.m)
        self._advance(np.arange(inst.m))

    def charge(self, agents: np.ndarray, amounts: np.ndarray, live: np.ndarray) -> None:
        """Account for ``w[agents]`` having fallen by ``amounts``.

        Each candidate loses the amounts paid inside its counted prefix, and
        those in the ``live`` mask left below the quota move their threshold up.
        """
        self._prefix -= amounts @ (self._rank[agents] <= self._pos)
        short = np.flatnonzero(live & (self._prefix < self._quota))
        if short.size:
            self._advance(short)

    def _advance(self, cands: np.ndarray) -> None:
        """Move each of ``cands`` to the first sorted position where its prefix weight reaches the quota.

        Each pass reads the next chunk of every unfinished candidate's row
        and doubles the chunk for the next pass.
        """
        order, pos, prefix, quota = self._order, self._pos, self._prefix, self._quota
        n = order.shape[1]
        size = min(_CHUNK, n)
        while cands.size:
            start = pos[cands] + 1
            idx = start[:, None] + np.arange(size)
            past = idx >= n
            gained = self._w[order[cands[:, None], np.minimum(idx, n - 1)]]
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
            self.radius[done] = self.DT[done, order[done, pos[done]]]
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

    # weights scaled by k: start at k each, quota is n, all arithmetic exact
    w = np.full(n, k, dtype=np.int64)
    quota = n
    frac = [Fraction(j, k) for j in range(k + 1)]
    balls = _Thresholds(inst, w, quota)
    # a mask, not an infinite threshold, so no marker value can ever tie with a real threshold
    remaining = np.ones(m, dtype=bool)

    selected: list[int] = []
    rounds: list[SweepRound] = []
    while True:
        radius = balls.radius[remaining].min()
        tied = np.flatnonzero(remaining & (balls.radius == radius))
        support = (balls.DT[tied] <= radius) @ w
        best = int(np.argmax(support))  # first maximum, so lowest index on ties
        winner = int(tied[best])
        sup_val = int(support[best])

        row = balls.DT[winner]
        members = np.flatnonzero(row <= radius)
        before = w[members]

        # pay the quota closest first: each pays its weight, capped at what is left
        ordered = members[np.lexsort((members, row[members]))]
        wo = w[ordered]
        deltas = np.minimum(wo, np.maximum(quota - np.cumsum(wo) + wo, 0))
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
        balls.charge(ordered[paid], deltas[paid], remaining)
