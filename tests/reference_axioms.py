"""Exact references for the axiom checkers, kept with the tests.

Sampled PRF.  Each agent seeds a family of groups: the prefixes of all
agents sorted by distance to the seed.  These versions test every prefix
size of every seed, gathering the full (n, n) sub-matrix of agent
distances per seed and looping over the cover rank r in Python.  Seeded
random subsets follow.  This is slow on purpose: it is the oracle the
fast sampled checkers in `propclust.axioms` are compared against, so it
shares none of their bookkeeping.  Both functions take the outcome's
selected indices and return a `Witness` for the first violation found,
or None.

PF and core.  `check_pf_bruteforce` and `check_core_bruteforce` decide
the axioms by enumerating every coalition of agents (n <= 16) and return
an `AxiomReport` like the polynomial `check_pf` and `check_core`.  They
share the exhaustive PRF scan's bitmask helpers (`_subset_members`,
`_fold_masks`) and its small input helpers, but none of `check_pf`'s or
`check_core`'s bookkeeping.
"""

import numpy as np

from propclust import AXIOM_CORE, AXIOM_PF, AxiomReport, InputError, Instance, Outcome, Witness
from propclust.axioms import (
    _ceil_div,
    _dist_to_outcome,
    _exhaustive_guard,
    _fold_masks,
    _selected,
    _subset_members,
)


def reference_prf_unconstrained_sample(inst, sel, seed, samples) -> Witness | None:
    aa = inst.agent_distances
    dm = inst.distance_matrix
    n, k = inst.n, inst.k
    sizes = np.arange(1, n + 1)
    need_by_size = (sizes * k) // n
    for i in range(n):
        order = np.argsort(aa[i], kind="stable")
        sub = aa[np.ix_(order, order)]
        rowmax = np.tril(sub, -1).max(axis=1)
        diam_pref = np.maximum.accumulate(rowmax)
        prefix_min = np.minimum.accumulate(dm[order][:, sel], axis=0)
        cov = np.count_nonzero(prefix_min <= diam_pref[:, None], axis=1)
        bad = np.nonzero(cov < need_by_size)[0]
        if bad.size:
            t0 = int(bad[0])
            members = tuple(sorted(int(a) for a in order[: t0 + 1]))
            return Witness(
                agents=members,
                radius=float(diam_pref[t0]),
                required=int(need_by_size[t0]),
                found=int(cov[t0]),
                note="agent-seeded neighborhood holds too few centers",
            )
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        size = int(rng.integers(1, n + 1))
        need = (size * k) // n
        if need == 0:
            continue
        members = np.sort(rng.choice(n, size=size, replace=False))
        y = float(aa[np.ix_(members, members)].max()) if size > 1 else 0.0
        cov = int(np.count_nonzero(dm[np.ix_(members, sel)].min(axis=0) <= y))
        if cov < need:
            return Witness(
                agents=tuple(int(a) for a in members),
                radius=y,
                required=need,
                found=cov,
                note="sampled group holds too few centers",
            )
    return None


def reference_prf_discrete_sample(inst, sel, seed, samples) -> Witness | None:
    dm = inst.distance_matrix
    n, k, m = inst.n, inst.k, inst.m
    sizes = np.arange(1, n + 1)
    lmax_by_size = (sizes * k) // n
    try:
        aa = inst.agent_distances
    except InputError:
        aa = None
    if aa is not None:
        for i in range(n):
            order = np.argsort(aa[i], kind="stable")
            d_ord = dm[order]
            cover_pref = np.maximum.accumulate(d_ord, axis=0)
            selmin_pref = np.minimum.accumulate(d_ord[:, sel], axis=0)
            sorted_cover = np.sort(cover_pref, axis=1)
            for r in range(1, int(min(k, m)) + 1):
                y = sorted_cover[:, r - 1]
                req = np.minimum(lmax_by_size, r)
                found = np.count_nonzero(selmin_pref <= y[:, None], axis=1)
                bad = np.nonzero(found < req)[0]
                if bad.size:
                    t0 = int(bad[0])
                    return Witness(
                        agents=tuple(sorted(int(a) for a in order[: t0 + 1])),
                        radius=float(y[t0]),
                        required=int(req[t0]),
                        found=int(found[t0]),
                        note="agent-seeded neighborhood is under-covered",
                    )
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        size = int(rng.integers(1, n + 1))
        lmax = (size * k) // n
        if lmax == 0:
            continue
        members = np.sort(rng.choice(n, size=size, replace=False))
        cover = np.sort(dm[members].max(axis=0))
        to_sel = dm[np.ix_(members, sel)].min(axis=0)
        for r in range(1, min(lmax, m) + 1):
            y = float(cover[r - 1])
            found = int(np.count_nonzero(to_sel <= y))
            if found < min(lmax, r):
                return Witness(
                    agents=tuple(int(a) for a in members),
                    radius=y,
                    required=min(lmax, r),
                    found=found,
                    note="sampled group is under-covered",
                )
    return None


def check_pf_bruteforce(inst: Instance, outcome: Outcome) -> AxiomReport:
    """Subset-enumeration oracle for :func:`check_pf` (n <= 16)."""
    _exhaustive_guard(inst)
    sel = _selected(inst, outcome)
    t = _ceil_div(inst.n, inst.k)
    dm = inst.distance_matrix
    d_out = _dist_to_outcome(inst, sel)
    n = inst.n
    for c in range(inst.m):
        col = dm[:, c]
        weak_bits = 0
        strict_bits = 0
        for i in range(n):
            if col[i] <= d_out[i]:
                weak_bits |= 1 << i
            if col[i] < d_out[i]:
                strict_bits |= 1 << i
        if weak_bits.bit_count() < t or strict_bits == 0:
            continue
        for mask in range(1, 1 << n):
            if mask.bit_count() < t:
                continue
            if (mask & ~weak_bits) == 0 and (mask & strict_bits) != 0:
                return AxiomReport(
                    AXIOM_PF,
                    satisfied=False,
                    witness=Witness(
                        agents=tuple(i for i in range(n) if mask >> i & 1),
                        candidate=c,
                        required=t,
                        found=mask.bit_count(),
                        note="enumerated coalition would switch to this candidate",
                    ),
                )
    return AxiomReport(AXIOM_PF, satisfied=True)


def check_core_bruteforce(inst: Instance, outcome: Outcome) -> AxiomReport:
    """Subset-enumeration oracle for :func:`check_core` (n <= 16)."""
    _exhaustive_guard(inst)
    sel = _selected(inst, outcome)
    t = _ceil_div(inst.n, inst.k)
    dm = inst.distance_matrix
    d_out = _dist_to_outcome(inst, sel)
    n = inst.n
    pops = _subset_members(n).sum(axis=1)
    for c in range(inst.m):
        delta = d_out - dm[:, c]
        sums = _fold_masks(delta[:, None], np.add, 0.0)[:, 0]
        viol = (pops >= t) & (sums > 0.0)
        if viol.any():
            mask = int(np.argmax(viol))
            return AxiomReport(
                AXIOM_CORE,
                satisfied=False,
                witness=Witness(
                    agents=tuple(i for i in range(n) if mask >> i & 1),
                    candidate=c,
                    required=t,
                    found=mask.bit_count(),
                    note="enumerated coalition lowers its total distance",
                ),
            )
    return AxiomReport(AXIOM_CORE, satisfied=True)
