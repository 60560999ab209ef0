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
the end of the run of equal distances at which its prefix weight first
reaches the quota, so its counted prefix is its whole ball and the
prefix weight is its support.  The weights start uniform, so every row
starts ceil(quota / w0) - 1 positions in, just short of its threshold.
After a payment only the candidates whose ball held a paying agent are
charged, and those that fall below the quota move their position forward
in chunks that double on each pass.  After round k - 1 the weight left
is exactly one quota, which every remaining ball must hold whole, so the
last round takes no charge: each remaining candidate's threshold is its
distance to the farthest agent with weight, and its support is the
quota.  The work is O(k·n·m) in vector operations, plus one
O(n·m·log n) sort.  This ball-threshold structure
(``_Thresholds``) also runs greedy capture in :mod:`propclust.baselines`,
with unit weights and quota ceil(n/k).

The structure keeps its sorted order as int32, half a matrix's bytes
(plus a transposed copy of the matrix for discrete candidates), and
reads who lies in a ball from the distances themselves.  Its sort, its
advance passes and its charges work a block of rows at a time, so no
other temporary holds more than ``_BLOCK`` entries (or one row, where a
row is longer).  Beside the distance matrix, at n = 1000 on 2-D points,
the set-up then peaks at about 0.6 times the matrix's bytes and a sweep
or greedy run at about 0.8 times.

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
# entries in any one sort block, advance pass or charge of _Thresholds; the
# blocks keep the working memory near the int32 order
_BLOCK = 1 << 16


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

    ``D`` is the (n, m) distance matrix and ``DT`` is (m, n): row c holds
    candidate c's distance to every agent (``D`` itself when candidates are
    shared, since it is then symmetric).  ``radius[c]`` is the smallest
    radius at which the weight ``w`` within it of candidate c reaches
    ``quota``, and ``support[c]`` is that weight.  ``w`` is held by
    reference: the caller lowers it, then calls :meth:`charge`, or
    :meth:`settle` once it holds just one quota.

    ``_order`` (m, n), int32, lists each candidate's agents by distance, and
    ``_pos[c]`` is the last position in ``_order[c]`` within ``radius[c]``: the
    counted prefix ``_order[c, : _pos[c] + 1]`` is the whole ball, so none of
    ``_pos``, ``support`` and ``radius`` depends on how the sort broke ties.
    No other temporary holds more than ``_BLOCK`` entries (or one row, where
    a row is longer): the sort, the advance passes and the charges each take
    a block of rows at a time.
    """

    def __init__(self, inst: Instance, w: np.ndarray, quota: int):
        n, m = inst.n, inst.m
        if n > np.iinfo(np.int32).max:
            raise InputError(f"{n} agents are too many: sorted positions are int32")
        self.D = D = inst.distance_matrix
        try:
            # C order, as the flat gathers of _pass index it row by row
            self.DT = np.ascontiguousarray(D if inst.is_unconstrained else D.T)
            self._order = np.empty((m, n), dtype=np.int32)
        except MemoryError:
            need = n * m * (4 if inst.is_unconstrained else 12)
            raise InputError(
                f"the ball thresholds of {n} agents and {m} candidates need {need / 2**30:.1f} GiB "
                "beside the distance matrix, more than can be allocated"
            ) from None
        # order[c] sorts the agents by DT[c] (ties in any order)
        rows = max(1, _BLOCK // n)
        for i in range(0, m, rows):
            self._order[i : i + rows] = np.argsort(self.DT[i : i + rows], axis=1)
        # support[c] is the weight of the agents order[c, : pos[c] + 1].  Uniform
        # weights w0 (k each in the sweep, 1 in greedy) reach the quota at no
        # position before p = ceil(quota / w0) - 1, so every row starts with
        # its first p agents counted and its first pass usually finds its threshold
        w0 = int(w[0])
        p = min(n, -(-quota // w0) - 1) if w0 > 0 and (w == w0).all() else 0
        self._w, self._quota = w, quota
        self._pos = np.full(m, p - 1, dtype=np.intp)
        self.support = np.full(m, p * w0, dtype=np.int64)
        self.radius = np.empty(m)
        self._advance(np.arange(m))

    def charge(self, agents: np.ndarray, amounts: np.ndarray, live: np.ndarray) -> None:
        """Account for ``w[agents]`` having fallen by ``amounts``.

        Each candidate loses the amounts paid within its radius, and those in
        the ``live`` mask left below the quota move their threshold up.
        """
        rows = max(1, _BLOCK // self.D.shape[1])
        for i in range(0, agents.size, rows):
            self.support -= amounts[i : i + rows] @ (self.D[agents[i : i + rows]] <= self.radius)
        short = np.flatnonzero(live & (self.support < self._quota))
        if short.size:
            self._advance(short)

    def settle(self, live: np.ndarray) -> None:
        """Set the ``live`` candidates' thresholds once ``w`` holds just one quota.

        Every ball must then hold all the weight left, so a candidate's radius
        is its distance to the farthest agent with weight, and its support is
        the quota.  Rows are read ``_BLOCK // n`` at a time.  No charge
        follows: ``_pos`` is left as it was.
        """
        cands = np.flatnonzero(live)
        alive = np.flatnonzero(self._w > 0)
        rows = max(1, _BLOCK // self.DT.shape[1])
        for i in range(0, cands.size, rows):
            block = cands[i : i + rows]
            self.radius[block] = self.DT[np.ix_(block, alive)].max(axis=1)
        self.support[cands] = self._quota

    def _advance(self, cands: np.ndarray) -> None:
        """Move each of ``cands`` to the end of the run where its prefix weight reaches the quota.

        Each pass reads the next chunk of every unfinished candidate's row,
        ``_BLOCK // chunk`` candidates at a time, so its arrays never exceed
        about ``_BLOCK`` entries, and doubles the chunk for the next pass.  At
        set-up every row already starts one position short of its
        threshold, and this first call usually takes a single pass.
        """
        n = self._order.shape[1]
        size = min(_CHUNK, n)
        while cands.size:
            rows = max(1, _BLOCK // size)
            if cands.size <= rows:
                cands = self._pass(cands, size)
            else:
                cands = np.concatenate([self._pass(cands[i : i + rows], size) for i in range(0, cands.size, rows)])
            size = min(2 * size, n)

    def _pass(self, cands: np.ndarray, size: int) -> np.ndarray:
        """Read the next ``size`` sorted positions of each of ``cands``; return those not yet done.

        A row is done where its prefix weight has reached the quota and the
        next sorted distance is larger (or the row ends), hence one more read.
        """
        order, pos, support, quota = self._order, self._pos, self.support, self._quota
        n = order.shape[1]
        start = pos[cands] + 1
        idx = start[:, None] + np.arange(size + 1)
        past = idx >= n
        np.minimum(idx, n - 1, out=idx)
        rows = cands[:, None] * n
        agents = order.take(rows + idx)
        cums = self._w.take(agents[:, :-1])
        cums[past[:, :-1]] = 0
        np.cumsum(cums, axis=1, out=cums)
        cums += support[cands][:, None]
        rest = cums[:, -1] < quota
        stuck = past[:, -1] & rest
        if stuck.any():
            raise RuntimeError(
                f"prefix advance ran past the row end: candidate {int(cands[stuck][0])} holds "
                f"{int(cums[stuck][0, -1])} over its whole row, below the quota {quota}"
            )
        # a row that stays short of the quota cannot end in this chunk, so only the others read distances
        near = np.flatnonzero(~rest)
        dist = self.DT.take((rows + agents)[near])
        reached = (cums[near] >= quota) & ((dist[:, 1:] > dist[:, :-1]) | past[near, 1:])
        ends = reached.any(axis=1)
        hit = near[ends]
        # the column each row stops at: where it ends, or the chunk's last for the rest
        col = np.full(cands.size, size - 1)
        col[hit] = reached[ends].argmax(axis=1)
        pos[cands] = start + col
        support[cands] = cums[np.arange(cands.size), col]
        self.radius[cands[hit]] = dist[ends, col[hit]]
        rest[near[~ends]] = True  # their run of equal distances goes on past the chunk
        return cands[rest]


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
        winner = int(tied[np.argmax(balls.support[tied])])  # first maximum, so lowest index on ties
        sup_val = int(balls.support[winner])

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
        if len(selected) == k - 1:
            # one quota of weight is left, and the last round takes all of it
            balls.settle(remaining)
        else:
            paid = deltas > 0
            balls.charge(ordered[paid], deltas[paid], remaining)
