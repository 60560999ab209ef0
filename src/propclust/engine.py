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

Each candidate's distances are sorted once per dataset: the instance
holds the sorted order (``Instance._candidate_order``), which does not
depend on k, so the sweep, greedy capture and every k-variant of an
instance read the same one.  Per candidate the sweep keeps the end of
the run of equal distances at which its prefix weight first reaches the
quota, so its counted prefix is its whole ball and the prefix weight is
its support.  The sort marks the end of every run in the sorted order
itself, so finding that end reads no distance.  The weights start
uniform, so every row starts ceil(quota / w0) - 1 positions in, just
short of its threshold.  After a payment only the candidates whose
ball held a paying agent are charged, and those that fall below the
quota move their position forward in chunks that double on each pass.  A
pass reads a chunk's marked agents with one flat take and their weights
with one more, through a copy of the weights laid out as ``w[::-1]``
then ``w``, so that a code shifted by n reads its agent's weight whether
it is marked or not; a cumulative sum and one ``argmax`` per row find
where each row ends.  A charge subtracts the payments within each ball as
one float64 product (numpy's BLAS path; it has none for integers), which
is exact: every partial sum is a whole number no larger than one round's
payment, at most n, far below 2**53.  After round k - 1 the weight left
is exactly one quota, which every remaining ball must hold whole, so the
last round takes no charge: each remaining candidate's threshold is its
distance to the farthest agent with weight, read from the rows of the
agents with weight, and its support is the quota.  The work is O(k·n·m)
in vector operations, plus one O(n·m·log n) sort per dataset.  This
ball-threshold structure (``_Thresholds``) also runs greedy capture in
:mod:`propclust.baselines`, with unit weights and quota ceil(n/k).

The structure reads the instance's marked order, int32 and half a
matrix's bytes, and reads who lies in a ball from the distances
themselves: a candidate's distances are a column of the matrix, which is
never copied.  The instance sorts a block of rows at a time, and the
advance passes, the charges and ``settle`` work a block of rows at a
time too, of one shared size (``core._BLOCK``), so no other temporary
holds more than ``_BLOCK`` entries (or one row, where a row is longer).
Beside the distance matrix, at n = 1000 on 2-D points, the first set-up
on an instance, which sorts it, then peaks at about 0.6 times the
matrix's bytes and a sweep or greedy run at about 0.76 times; with 500
discrete candidates, at about 0.7 and 1.0 times that (smaller) matrix.
Once the order is built, a set-up peaks at about 0.07 times and a sweep
or greedy run at about 0.26 times (0.29 and 0.49 discrete).

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

from propclust import core
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
    """Each candidate's ball threshold over its sorted distance row.

    ``D`` is the (n, m) distance matrix: column c holds candidate c's
    distance to every agent.  ``radius[c]`` is the smallest radius at which
    the weight ``w`` within it of candidate c reaches ``quota``, and
    ``support[c]`` is that weight.  ``w`` is held by reference: the caller
    lowers it, then calls :meth:`charge`, or :meth:`settle` once it holds
    just one quota.

    ``_order`` is the instance's read-only ``_candidate_order``: (m, n),
    int32, it lists each candidate's agents by distance (ties by index),
    with the last agent a of each run of equal distances stored as ``~a``.
    The instance sorts it once, on first use; the structure sorts nothing.
    ``_pos[c]`` is the last position in ``_order[c]`` within ``radius[c]``,
    always a marked one: the counted prefix ``_order[c, : _pos[c] + 1]`` is
    the whole ball, so none of ``_pos``, ``support`` and ``radius`` depends
    on how ties are broken.  ``_wr`` is ``w[::-1]`` then ``w``, refreshed on
    every charge, so that the code ``order + n`` of agent a indexes a's
    weight, marked (``n - 1 - a``) or not (``n + a``).  An advance pass
    reads only the order and ``_wr``, and one distance per row it
    finishes, its radius.  No other temporary holds more than ``_BLOCK``
    entries (or one row, where a row is longer): the advance passes, the
    charges and ``settle`` each take a block of rows at a time.
    """

    def __init__(self, inst: Instance, w: np.ndarray, quota: int):
        n, m = inst.n, inst.m
        self._order = inst._candidate_order
        self.D = inst.distance_matrix
        # support[c] is the weight of the agents order[c, : pos[c] + 1].  Uniform
        # weights w0 (k each in the sweep, 1 in greedy) reach the quota at no
        # position before p = ceil(quota / w0) - 1, so every row starts with
        # its first p agents counted and its first pass usually finds its threshold
        w0 = int(w[0])
        p = min(n, -(-quota // w0) - 1) if w0 > 0 and (w == w0).all() else 0
        self._w, self._quota = w, quota
        self._wr = np.concatenate((w[::-1], w))
        self._pos = np.full(m, p - 1, dtype=np.intp)
        self.support = np.full(m, p * w0, dtype=np.int64)
        self.radius = np.empty(m)
        self._advance(np.arange(m))

    def charge(self, agents: np.ndarray, amounts: np.ndarray, live: np.ndarray) -> None:
        """Account for ``w[agents]`` having fallen by ``amounts``.

        Each candidate loses the amounts paid within its radius, and those in
        the ``live`` mask left below the quota move their threshold up.  The
        loss is a float64 product, exact because each of its sums is a whole
        number of at most one round's payment.
        """
        np.concatenate((self._w[::-1], self._w), out=self._wr)
        # float64 takes numpy's BLAS path, which integers lack
        paid = amounts.astype(np.float64)
        rows = max(1, core._BLOCK // self.D.shape[1])
        for i in range(0, agents.size, rows):
            lost = paid[i : i + rows] @ (self.D[agents[i : i + rows]] <= self.radius)
            np.subtract(self.support, lost, out=self.support, casting="unsafe")
        short = np.flatnonzero(live & (self.support < self._quota))
        if short.size:
            self._advance(short)

    def settle(self, live: np.ndarray) -> None:
        """Set the ``live`` candidates' thresholds once ``w`` holds just one quota.

        Every ball must then hold all the weight left, so a candidate's radius
        is its distance to the farthest agent with weight, and its support is
        the quota.  The rows of the agents with weight are read ``_BLOCK // m``
        at a time, every candidate's maximum kept.  No charge follows:
        ``_pos`` is left as it was.
        """
        cands = np.flatnonzero(live)
        alive = np.flatnonzero(self._w > 0)
        rows = max(1, core._BLOCK // self.D.shape[1])
        far = self.D[alive[:rows]].max(axis=0)
        for i in range(rows, alive.size, rows):
            np.maximum(far, self.D[alive[i : i + rows]].max(axis=0), out=far)
        self.radius[cands] = far[cands]
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
            rows = max(1, core._BLOCK // size)
            if cands.size <= rows:
                cands = self._pass(cands, size)
            else:
                cands = np.concatenate([self._pass(cands[i : i + rows], size) for i in range(0, cands.size, rows)])
            size = min(2 * size, n)

    def _pass(self, cands: np.ndarray, size: int) -> np.ndarray:
        """Read the next ``size`` sorted positions of each of ``cands``; return those not yet done.

        A row is done at the first position where its prefix weight has
        reached the quota and a run of equal distances ends; only then is a
        distance read, its radius.  The weights are read straight from the
        marked codes shifted by n, through ``_wr``.  Only a chunk that
        reaches its row end is clamped to the row.
        """
        order, pos, support, quota = self._order, self._pos, self.support, self._quota
        n = order.shape[1]
        start = pos[cands] + 1
        flat = (cands * n + start)[:, None] + np.arange(size)
        # positions past the row end are clamped to its last and add nothing
        left = n - start
        past = None
        if size > left.min():
            past = np.arange(size) >= left[:, None]
            np.minimum(flat, (cands * n + n - 1)[:, None], out=flat)
        codes = order.take(flat)
        codes += n
        cums = self._wr.take(codes)
        if past is not None:
            cums[past] = 0
        np.cumsum(cums, axis=1, out=cums)
        cums += support[cands][:, None]
        # the last position is a run end, and positions past it add nothing
        reached = cums >= quota
        reached &= codes < n
        rows = np.arange(cands.size)
        col = reached.argmax(axis=1)
        ends = reached[rows, col]
        if past is not None:
            stuck = past[:, -1] & ~ends
            if stuck.any():
                raise RuntimeError(
                    f"prefix advance ran past the row end: candidate {int(cands[stuck][0])} holds "
                    f"{int(cums[stuck][0, -1])} over its whole row, below the quota {quota}"
                )
        # the column each row stops at: where it ends, or the chunk's last for the rest
        col[~ends] = size - 1
        pos[cands] = start + col
        support[cands] = cums[rows, col]
        hit = cands[ends]
        # a marked code c + n is n - 1 - a for agent a
        self.radius[hit] = self.D[n - 1 - codes[ends, col[ends]], hit]
        return cands[~ends]


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

        row = balls.D[:, winner]
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
                weights_before=tuple(map(frac.__getitem__, before.tolist())),
                weights_after=tuple(map(frac.__getitem__, w[members].tolist())),
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
