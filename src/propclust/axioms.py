"""Fairness axiom checkers with independently verifiable witnesses.

Each checker returns an :class:`AxiomReport`.  A report that flags a
violation always carries a :class:`Witness` holding the offending agent
set plus the candidate or radius involved, so the claim can be re-derived
from the instance alone (see :func:`recheck_witness`).

The exhaustive PRF checkers (unconstrained, discrete, PRF2 and PRF3) run
one scan over all 2^n agent bitmasks.  A mask is tested at one or more
radii: the group diameter for the unconstrained form, owed l centers, and
for the discrete family the r-th smallest cover radius, owed min(l, r),
for r = 1..min(max l, m).  The witness is the smallest failing mask at its
first failing r.  Past r = l the owed count stays l while the radius and
the centers found never fall, so every failing mask fails first at some
r <= min(l, m).

Exhaustive subset enumeration is capped at n <= 16 agents.  Beyond that
the proportional-representation checkers fall back to a sampling mode
(deterministic agent-seeded neighborhood families plus seeded random
subsets) whose clean verdict is one-sided: a found violation is definitive,
"no violation found" is not, and the report's ``definitive`` flag says so.

Each agent seeds the n prefixes of all agents sorted by distance to it,
but only k of them need testing.  Along one seed's order a prefix's
radius (its diameter, or its r-th cover radius) never falls and its
distance to each selected center never rises, so its count of covered
centers never falls; the entitlement ((t+1)*k)//n of the prefix of t + 1
agents is constant between its steps t_l = ceil(l*n/k) - 1, l = 1..k.  A
prefix can therefore only fail if the first one of its entitlement level
fails, and the first failing prefix is always one of the t_l.  Per seed
that is O(n^2) vector work for the unconstrained form and O(n*m) for the
discrete one, with k prefixes checked, so O(n^3) and O(n^2*m) in all.

Checkers are pure functions of (instance, outcome) and safe to run in
parallel on shared instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from propclust.core import InputError, Instance, Outcome

__all__ = [
    "AXIOM_CORE",
    "AXIOM_PF",
    "AXIOM_PRF2",
    "AXIOM_PRF3",
    "AXIOM_PRF_DISC",
    "AXIOM_PRF_UNC",
    "AXIOM_UP",
    "AxiomReport",
    "EXHAUSTIVE_LIMIT",
    "Witness",
    "check_core",
    "check_core_bruteforce",
    "check_pf",
    "check_pf_bruteforce",
    "check_prf2",
    "check_prf3",
    "check_prf_discrete",
    "check_prf_unconstrained",
    "check_up",
    "recheck_witness",
]

AXIOM_UP = "UP"
AXIOM_PF = "PF"
AXIOM_CORE = "CORE"
AXIOM_PRF_UNC = "PRF_UNC"
AXIOM_PRF_DISC = "PRF_DISC"
AXIOM_PRF2 = "PRF2"
AXIOM_PRF3 = "PRF3"

#: Exhaustive subset enumeration is limited to this many agents.
EXHAUSTIVE_LIMIT = 16

_TABLE_CELL_LIMIT = 60_000_000


@dataclass(frozen=True)
class Witness:
    """Evidence for a violation: the agent set and the failing requirement."""

    agents: tuple[int, ...]
    candidate: int | None = None
    radius: float | None = None
    required: int | None = None
    found: int | None = None
    note: str = ""

    def to_json_obj(self) -> dict:
        return {
            "agents": list(self.agents),
            "candidate": self.candidate,
            "radius": self.radius,
            "required": self.required,
            "found": self.found,
            "note": self.note,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Witness":
        return cls(
            agents=tuple(int(i) for i in obj["agents"]),
            candidate=None if obj.get("candidate") is None else int(obj["candidate"]),
            radius=None if obj.get("radius") is None else float(obj["radius"]),
            required=None if obj.get("required") is None else int(obj["required"]),
            found=None if obj.get("found") is None else int(obj["found"]),
            note=obj.get("note", ""),
        )


@dataclass(frozen=True)
class AxiomReport:
    """Verdict of one axiom check.

    ``definitive`` is False only when a sampling-mode check found nothing;
    a reported violation is always definitive.
    """

    axiom: str
    satisfied: bool
    witness: Witness | None = None
    definitive: bool = True

    def __post_init__(self):
        if self.satisfied and self.witness is not None:
            raise InputError("a satisfied report cannot carry a witness")
        if not self.satisfied and self.witness is None:
            raise InputError("a violation report requires a witness")

    def to_json_obj(self) -> dict:
        return {
            "axiom": self.axiom,
            "satisfied": self.satisfied,
            "witness": None if self.witness is None else self.witness.to_json_obj(),
            "definitive": self.definitive,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AxiomReport":
        wit = obj.get("witness")
        return cls(
            axiom=str(obj["axiom"]),
            satisfied=bool(obj["satisfied"]),
            witness=None if wit is None else Witness.from_json_obj(wit),
            definitive=bool(obj.get("definitive", True)),
        )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _entitlement(size: int, k: int, n: int) -> int:
    # largest l with l * n/k <= size, computed in exact integer arithmetic
    return (size * k) // n


def _selected(inst: Instance, outcome: Outcome) -> np.ndarray:
    outcome.validate(inst)
    return np.asarray(outcome.selected, dtype=np.intp)


def _dist_to_outcome(inst: Instance, sel: np.ndarray) -> np.ndarray:
    return inst.distance_matrix[:, sel].min(axis=1)


def _coincident_groups(inst: Instance) -> list[list[int]]:
    """Maximal groups of agents at exactly the same location, by first index."""
    if inst.agents is not None:
        seen: dict[bytes, list[int]] = {}
        for i in range(inst.n):
            seen.setdefault(inst.agents[i].tobytes(), []).append(i)
        return list(seen.values())
    aa = inst.agent_distances  # raises for precomputed instances without it
    groups: list[list[int]] = []
    assigned = np.zeros(inst.n, dtype=bool)
    for i in range(inst.n):
        if assigned[i]:
            continue
        members = np.nonzero(aa[i] == 0.0)[0]
        assigned[members] = True
        groups.append([int(j) for j in members])
    return groups


# ---------------------------------------------------------------------------
# unanimous proportionality for coincident groups


def check_up(inst: Instance, outcome: Outcome) -> AxiomReport:
    """Coincident groups of size >= l * ceil(n/k) get their l nearest candidates.

    The threshold form is tie-tolerant: for each entitled l the outcome
    must contain at least l centers within the l-th smallest distance from
    the group's location to the candidate set.
    """
    sel = _selected(inst, outcome)
    t = _ceil_div(inst.n, inst.k)
    dm = inst.distance_matrix
    for group in _coincident_groups(inst):
        lmax = len(group) // t
        if lmax == 0:
            continue
        row = dm[group[0]]
        thresholds = np.sort(row)
        to_selected = row[sel]
        # descending so the witness states the largest unmet entitlement
        for ell in range(lmax, 0, -1):
            thr = float(thresholds[ell - 1])
            found = int(np.count_nonzero(to_selected <= thr))
            if found < ell:
                return AxiomReport(
                    AXIOM_UP,
                    satisfied=False,
                    witness=Witness(
                        agents=tuple(group),
                        radius=thr,
                        required=ell,
                        found=found,
                        note="coincident group denied its nearest candidate locations",
                    ),
                )
    return AxiomReport(AXIOM_UP, satisfied=True)


# ---------------------------------------------------------------------------
# proportional fairness (coalition deviation to a single candidate)


def check_pf(inst: Instance, outcome: Outcome) -> AxiomReport:
    """No ceil(n/k) agents may all weakly prefer one unselected candidate.

    A violation is a candidate serving at least ceil(n/k) agents at least
    as well as the outcome does, at least one of them strictly better.
    Polynomial: the maximal weak-improver set is checked per candidate,
    candidates in ascending index order.
    """
    sel = _selected(inst, outcome)
    t = _ceil_div(inst.n, inst.k)
    dm = inst.distance_matrix
    d_out = _dist_to_outcome(inst, sel)
    for c in range(inst.m):
        col = dm[:, c]
        weak = col <= d_out
        if int(weak.sum()) >= t and bool((col < d_out).any()):
            return AxiomReport(
                AXIOM_PF,
                satisfied=False,
                witness=Witness(
                    agents=tuple(int(i) for i in np.nonzero(weak)[0]),
                    candidate=c,
                    required=t,
                    found=int(weak.sum()),
                    note="coalition would switch to this candidate",
                ),
            )
    return AxiomReport(AXIOM_PF, satisfied=True)


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


# ---------------------------------------------------------------------------
# core fairness (aggregate-distance deviation)


def check_core(inst: Instance, outcome: Outcome) -> AxiomReport:
    """No ceil(n/k) agents may cut their total distance with one candidate.

    Polynomial: for each candidate the best coalition of each size is a
    prefix of agents sorted by improvement, so prefix sums decide.
    """
    sel = _selected(inst, outcome)
    t = _ceil_div(inst.n, inst.k)
    dm = inst.distance_matrix
    d_out = _dist_to_outcome(inst, sel)
    n = inst.n
    for c in range(inst.m):
        delta = d_out - dm[:, c]
        order = np.lexsort((np.arange(n), -delta))
        prefix = np.cumsum(delta[order])
        tail = prefix[t - 1 :]
        best_rel = int(np.argmax(tail))
        if float(tail[best_rel]) > 0.0:
            size = t + best_rel
            coalition = tuple(sorted(int(i) for i in order[:size]))
            return AxiomReport(
                AXIOM_CORE,
                satisfied=False,
                witness=Witness(
                    agents=coalition,
                    candidate=c,
                    required=t,
                    found=size,
                    note="coalition lowers its total distance at this candidate",
                ),
            )
    return AxiomReport(AXIOM_CORE, satisfied=True)


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


# ---------------------------------------------------------------------------
# exhaustive subset scan: op-folds of per-agent rows over all bitmask subsets


def _exhaustive_guard(inst: Instance) -> None:
    if inst.n > EXHAUSTIVE_LIMIT:
        raise InputError(f"exhaustive enumeration is capped at n <= {EXHAUSTIVE_LIMIT}")


def _subset_members(n: int) -> np.ndarray:
    """members[mask, i] is True when agent i is in the bitmask subset."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1


def _fold_masks(values: np.ndarray, op: Callable, identity: float) -> np.ndarray:
    """out[mask, j] = op-fold of values[i, j] over the agents i in mask."""
    n, cols = values.shape
    if (1 << n) * max(cols, 1) > _TABLE_CELL_LIMIT:
        raise InputError("exhaustive subset table would be too large; use sampling mode")
    out = np.full((1 << n, cols), identity, dtype=float)
    for b in range(n - 1, -1, -1):
        base = np.arange(1 << (n - 1 - b), dtype=np.intp) << (b + 1)
        out[base | (1 << b)] = op(out[base], values[b])
    return out


def _cover_radii(dm: np.ndarray, members: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cover radii and owed counts, one column per cover rank r.

    Column r - 1 holds each subset's r-th smallest cover radius (candidate
    distance to the subset's farthest member) and min(l, r), its
    entitlement l capped at r; r runs to min(max l, m).
    """
    need = _entitlement(members.sum(axis=1), k, dm.shape[0])
    cover = np.sort(_fold_masks(dm, np.maximum, -np.inf), axis=1)
    ranks = np.arange(1, min(int(need.max()), dm.shape[1]) + 1)
    return cover[:, : ranks.size], np.minimum(need[:, None], ranks)


def _first_short_group(
    axiom: str,
    note: str,
    members: np.ndarray,
    radii: np.ndarray,
    required: np.ndarray,
    found_within: Callable[[np.ndarray], np.ndarray],
) -> AxiomReport:
    """The exhaustive scan: the smallest failing mask, at its first failing column.

    ``radii`` and ``required`` hold one column per radius tried, a row per
    mask; ``found_within(y)`` counts, for every mask, the centers its rule
    credits within y[mask].  A mask fails a column when it finds fewer
    than required.
    """
    best = None
    for r in range(radii.shape[1]):
        y = radii[:, r]
        found = found_within(y)
        short = np.flatnonzero(found < required[:, r])
        if short.size and (best is None or short[0] < best[0]):
            mask = int(short[0])
            best = (mask, float(y[mask]), int(required[mask, r]), int(found[mask]))
    if best is None:
        return AxiomReport(axiom, satisfied=True)
    mask, y, req, found = best
    return AxiomReport(
        axiom,
        satisfied=False,
        witness=Witness(
            agents=tuple(int(i) for i in np.flatnonzero(members[mask])),
            radius=y,
            required=req,
            found=found,
            note=note,
        ),
    )


# ---------------------------------------------------------------------------
# proportional representation, unconstrained form


def check_prf_unconstrained(
    inst: Instance,
    outcome: Outcome,
    exhaustive: bool | None = None,
    seed: int = 0,
    samples: int = 200,
) -> AxiomReport:
    """Every group of >= l*n/k agents gets l centers within its diameter.

    The group size bound uses the exact rational n/k.  ``exhaustive=None``
    picks exhaustive enumeration for n <= 16 and sampling mode otherwise;
    sampling mode checks every agent-seeded neighborhood ball plus seeded
    random subsets and is one-sided when it finds nothing.  Of each seed's
    n balls it tests the k at which the entitlement steps up (see the
    module docstring), in O(n^2) vector work per seed.
    """
    sel = _selected(inst, outcome)
    n, k = inst.n, inst.k
    if exhaustive is None:
        exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        _exhaustive_guard(inst)
        members = _subset_members(n)
        # the diagonal is zero, so the masked row maxima hold the diameter
        farthest = _fold_masks(inst.agent_distances, np.maximum, -np.inf)
        diam = np.where(members, farthest, 0.0).max(axis=1)
        selmin = _fold_masks(inst.distance_matrix[:, sel], np.minimum, np.inf)
        return _first_short_group(
            AXIOM_PRF_UNC,
            "group diameter neighborhood holds too few centers",
            members,
            diam[:, None],
            _entitlement(members.sum(axis=1), k, n)[:, None],
            lambda y: np.count_nonzero(selmin <= y[:, None], axis=1),
        )
    witness = _prf_unconstrained_sample(inst, sel, seed, samples)
    if witness is not None:
        return AxiomReport(AXIOM_PRF_UNC, satisfied=False, witness=witness)
    return AxiomReport(AXIOM_PRF_UNC, satisfied=True, definitive=False)


def _entitlement_blocks(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where a seed's prefixes step up in entitlement, and the blocks between.

    A prefix of t + 1 agents is entitled to ((t+1)*k)//n centers, which is
    exactly l from t_l = ceil(l*n/k) - 1 up to t_(l+1) - 1 (k <= n keeps
    the steps distinct, and t_k = n - 1).  Returns the steps t_1..t_k and a
    (k, width) array whose row l lists the positions t_(l-1) + 1 .. t_l,
    padded by repeating t_l, so a max or min over a row is the block's.
    """
    steps = (np.arange(1, k + 1) * n + k - 1) // k - 1
    starts = np.concatenate(([0], steps[:-1] + 1))
    width = int((steps - starts).max()) + 1
    return steps, np.minimum(starts[:, None] + np.arange(width), steps[:, None])


def _fold_prefixes(values: np.ndarray, op, blocks: np.ndarray) -> np.ndarray:
    """Row l: op-fold of the rows of ``values`` in blocks 0..l."""
    return op.accumulate(op.reduce(values[blocks], axis=1), axis=0)


def _prf_unconstrained_sample(inst, sel, seed, samples) -> Witness | None:
    aa = inst.agent_distances
    dm = inst.distance_matrix
    n, k = inst.n, inst.k
    # the first failing prefix of a seed is at an entitlement step (see the
    # module docstring), so only those k prefixes are tested
    steps, blocks = _entitlement_blocks(n, k)
    entitled = np.arange(1, k + 1)
    dsel = dm[:, sel]
    positions = np.arange(n)
    rank = np.empty(n, dtype=np.intp)
    for i in range(n):
        order = np.argsort(aa[i], kind="stable")
        rank[order] = positions
        members = order[blocks]
        # a pair joins the prefix with its later member: far[l, b] is agent
        # b's largest distance into block l, read for b up to step l
        far = aa[members].max(axis=1)
        joined = np.where(rank <= steps[:, None], far, 0.0).max(axis=1)
        diam = np.maximum.accumulate(joined)
        nearest = _fold_prefixes(dsel, np.minimum, members)
        cov = np.count_nonzero(nearest <= diam[:, None], axis=1)
        bad = np.flatnonzero(cov < entitled)
        if bad.size:
            j = int(bad[0])
            t0 = int(steps[j])
            return Witness(
                agents=tuple(sorted(int(a) for a in order[: t0 + 1])),
                radius=float(diam[j]),
                required=int(entitled[j]),
                found=int(cov[j]),
                note="agent-seeded neighborhood holds too few centers",
            )
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        size = int(rng.integers(1, n + 1))
        need = (size * k) // n
        if need == 0:
            continue
        members = np.sort(rng.choice(n, size=size, replace=False))
        # whole rows first: far cheaper than a (size, size) fancy gather
        y = float(aa[members].max(axis=0)[members].max()) if size > 1 else 0.0
        cov = int(np.count_nonzero(dsel[members].min(axis=0) <= y))
        if cov < need:
            return Witness(
                agents=tuple(int(a) for a in members),
                radius=y,
                required=need,
                found=cov,
                note="sampled group holds too few centers",
            )
    return None


# ---------------------------------------------------------------------------
# proportional representation, discrete form


def check_prf_discrete(
    inst: Instance,
    outcome: Outcome,
    exhaustive: bool | None = None,
    seed: int = 0,
    samples: int = 200,
) -> AxiomReport:
    """Groups get as many nearby centers as the candidate set could offer.

    For a group S of size >= l*n/k and any radius y, if l' <= l candidates
    lie within y of every member, at least l' selected centers must lie
    within y of some member.  Radii are swept over realized distances only;
    group-cover radii (the sorted per-group candidate cover distances) are
    the change points, so checking those is complete.  Sampling mode tests
    each agent-seeded neighborhood at the k sizes where its entitlement
    steps up, all cover ranks r at once, in O(n*m) vector work per seed;
    the first failing r, then its first failing size, is the witness.
    Precomputed instances without agent-agent distances sample only
    random subsets.
    """
    sel = _selected(inst, outcome)
    n, k = inst.n, inst.k
    if exhaustive is None:
        exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        _exhaustive_guard(inst)
        dm = inst.distance_matrix
        members = _subset_members(n)
        selmin = _fold_masks(dm[:, sel], np.minimum, np.inf)
        return _first_short_group(
            AXIOM_PRF_DISC,
            "candidate set could cover the group better",
            members,
            *_cover_radii(dm, members, k),
            lambda y: np.count_nonzero(selmin <= y[:, None], axis=1),
        )
    witness = _prf_discrete_sample(inst, sel, seed, samples)
    if witness is not None:
        return AxiomReport(AXIOM_PRF_DISC, satisfied=False, witness=witness)
    return AxiomReport(AXIOM_PRF_DISC, satisfied=True, definitive=False)


def _prf_discrete_sample(inst, sel, seed, samples) -> Witness | None:
    dm = inst.distance_matrix
    n, k, m = inst.n, inst.k, inst.m
    dsel = dm[:, sel]
    try:
        aa = inst.agent_distances
    except InputError:
        aa = None
    if aa is not None:
        # for each cover rank r the first failing prefix of a seed is at an
        # entitlement step (see the module docstring)
        steps, blocks = _entitlement_blocks(n, k)
        width = min(k, m)  # cover ranks r = 1..width
        req = np.minimum(np.arange(1, k + 1)[:, None], np.arange(1, width + 1))
        # found < req exactly when the req-th smallest distance to the
        # selection (inf past its end) exceeds the radius
        no_center = np.full((k, width), np.inf)
        for i in range(n):
            order = np.argsort(aa[i], kind="stable")
            members = order[blocks]
            cover = _fold_prefixes(dm, np.maximum, members)
            y = np.sort(cover, axis=1)[:, :width]
            nearest = _fold_prefixes(dsel, np.minimum, members)
            kth = np.sort(np.concatenate((nearest, no_center), axis=1), axis=1)
            bad = np.take_along_axis(kth, req - 1, axis=1) > y
            if bad.any():
                r0 = int(np.argmax(bad.any(axis=0)))
                j = int(np.argmax(bad[:, r0]))
                t0 = int(steps[j])
                return Witness(
                    agents=tuple(sorted(int(a) for a in order[: t0 + 1])),
                    radius=float(y[j, r0]),
                    required=int(req[j, r0]),
                    found=int(np.count_nonzero(nearest[j] <= y[j, r0])),
                    note="agent-seeded neighborhood is under-covered",
                )
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        size = int(rng.integers(1, n + 1))
        lmax = (size * k) // n
        if lmax == 0:
            continue
        members = np.sort(rng.choice(n, size=size, replace=False))
        cover = np.sort(dm[members].max(axis=0))[: min(lmax, m)]
        to_sel = np.sort(dsel[members].min(axis=0))
        found = np.searchsorted(to_sel, cover, side="right")
        bad = np.flatnonzero(found < np.arange(1, cover.size + 1))
        if bad.size:
            r0 = int(bad[0])
            return Witness(
                agents=tuple(int(a) for a in members),
                radius=float(cover[r0]),
                required=r0 + 1,
                found=int(found[r0]),
                note="sampled group is under-covered",
            )
    return None


# ---------------------------------------------------------------------------
# stronger per-agent and all-agent variants (exhaustive only)


def check_prf2(inst: Instance, outcome: Outcome) -> AxiomReport:
    """Some single member must personally see l' centers within y.

    Strengthens the discrete form: the l' selected centers must all be
    within y of one common member of the group.  Exhaustive only.
    """
    _exhaustive_guard(inst)
    sel = _selected(inst, outcome)
    dm = inst.distance_matrix
    members = _subset_members(inst.n)
    per_agent_sel = np.sort(dm[:, sel], axis=1)

    def seen_by_one_member(y):
        seen = np.stack([np.searchsorted(row, y, side="right") for row in per_agent_sel], axis=1)
        return np.where(members, seen, 0).max(axis=1)

    return _first_short_group(
        AXIOM_PRF2,
        "no single member sees enough centers",
        members,
        *_cover_radii(dm, members, inst.k),
        seen_by_one_member,
    )


def check_prf3(inst: Instance, outcome: Outcome) -> AxiomReport:
    """l' centers must lie within y of every member of the group.

    The strongest variant; exhaustive only.
    """
    _exhaustive_guard(inst)
    sel = _selected(inst, outcome)
    dm = inst.distance_matrix
    members = _subset_members(inst.n)
    selmax = _fold_masks(dm[:, sel], np.maximum, -np.inf)
    return _first_short_group(
        AXIOM_PRF3,
        "too few centers cover the whole group",
        members,
        *_cover_radii(dm, members, inst.k),
        lambda y: np.count_nonzero(selmax <= y[:, None], axis=1),
    )


# ---------------------------------------------------------------------------
# witness re-verification


def recheck_witness(inst: Instance, outcome: Outcome, report: AxiomReport) -> bool:
    """Re-derive a violation report's claim directly from the instance.

    Returns True when the witness indeed demonstrates a violation of the
    report's axiom.  Satisfied reports have nothing to re-check and
    return True trivially.
    """
    if report.satisfied:
        return True
    w = report.witness
    sel = _selected(inst, outcome)
    dm = inst.distance_matrix
    n, k, m = inst.n, inst.k, inst.m
    agents = np.asarray(w.agents, dtype=np.intp)
    if agents.size == 0 or agents.min() < 0 or agents.max() >= n:
        return False
    size = len(w.agents)
    t = _ceil_div(n, k)

    if report.axiom == AXIOM_UP:
        if inst.agents is not None:
            if not all(np.array_equal(inst.agents[a], inst.agents[agents[0]]) for a in agents):
                return False
        elif not np.allclose(inst.agent_distances[np.ix_(agents, agents)], 0.0):
            return False
        if w.required is None or size // t < w.required:
            return False
        row = dm[agents[0]]
        if int(np.count_nonzero(row <= w.radius)) < w.required:
            return False
        return int(np.count_nonzero(row[sel] <= w.radius)) < w.required

    if report.axiom == AXIOM_PF:
        d_out = _dist_to_outcome(inst, sel)
        col = dm[:, w.candidate]
        if size < t:
            return False
        weak = bool((col[agents] <= d_out[agents]).all())
        strict = bool((col[agents] < d_out[agents]).any())
        return weak and strict

    if report.axiom == AXIOM_CORE:
        d_out = _dist_to_outcome(inst, sel)
        if size < t:
            return False
        # exact rational arithmetic: float summation order must not decide
        gain = sum(
            Fraction(float(d_out[a])) - Fraction(float(dm[a, w.candidate]))
            for a in agents
        )
        return gain > 0

    if report.axiom == AXIOM_PRF_UNC:
        aa = inst.agent_distances
        diam = float(aa[np.ix_(agents, agents)].max()) if size > 1 else 0.0
        if w.radius != diam or w.required is None:
            return False
        if w.required > _entitlement(size, k, n):
            return False
        cov = int(np.count_nonzero(dm[np.ix_(agents, sel)].min(axis=0) <= diam))
        return cov < w.required

    if report.axiom in (AXIOM_PRF_DISC, AXIOM_PRF2, AXIOM_PRF3):
        if w.required is None or w.radius is None:
            return False
        offered = int(np.count_nonzero(dm[agents].max(axis=0) <= w.radius))
        if w.required > min(_entitlement(size, k, n), offered):
            return False
        if report.axiom == AXIOM_PRF_DISC:
            found = int(np.count_nonzero(dm[np.ix_(agents, sel)].min(axis=0) <= w.radius))
        elif report.axiom == AXIOM_PRF2:
            found = int((dm[np.ix_(agents, sel)] <= w.radius).sum(axis=1).max())
        else:
            found = int(np.count_nonzero(dm[np.ix_(agents, sel)].max(axis=0) <= w.radius))
        return found < w.required

    return False
