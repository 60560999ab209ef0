"""Fairness axiom checkers with independently verifiable witnesses.

Each checker returns an :class:`AxiomReport`.  A report that flags a
violation always carries a :class:`Witness` holding the offending agent
set plus the candidate or radius involved, so the claim can be re-derived
from the instance alone (see :func:`recheck_witness`).

A PRF checker tests a group entitled to l centers at one or more radii:
the unconstrained form at its diameter, owed l centers, and the discrete
family at its r-th smallest cover radius, owed min(l, r), for r = 1..min(k,
m).  Past r = l the owed count stays l while the radius and the centers
found never fall, so every failing group fails first at some r <= min(l, m).
A form is the distance rows a group folds (agent-agent for the diameter,
agent-candidate for the cover radii) plus one reading of the radii off
the folded rows; bitmask groups, seed prefixes and random subsets differ
only in how they fold.  The lower bounds the sampling scan tests first
are kept apart from that reading.
The exhaustive checkers (unconstrained, discrete, PRF2 and PRF3) run one
scan over all 2^n agent bitmasks; the witness is the smallest failing mask
at its first failing r.

Exhaustive subset enumeration is capped at n <= 16 agents.  Beyond that
both forms' checkers run one sampling scan (deterministic agent-seeded
neighborhood families plus seeded random subsets), which differs between
them only in the radii; its clean verdict is one-sided: a found violation
is definitive, "no violation found" is not, and the report's
``definitive`` flag says so.

Each agent seeds the n prefixes of all agents sorted by distance to it,
but only k of them need testing.  Along one seed's order a prefix's
radius (its diameter, or its r-th cover radius) never falls and its
distance to each selected center never rises, so its count of covered
centers never falls; the entitlement ((t+1)*k)//n of the prefix of t + 1
agents is constant between its steps t_l = ceil(l*n/k) - 1, l = 1..k.  A
prefix can therefore only fail if the first one of its entitlement level
fails, and the first failing prefix is always one of the t_l.

Each seed's prefixes are first tested at a lower bound on those radii,
taken from rows of members of the prefix: the distances from its first
member for the diameter, and the larger distance to each candidate from
its first and last members for the cover radii.  A count of covered
centers only grows with the radius, so a seed that passes at its bounds
passes.  The test runs in three tiers, each only for the seeds the one
before leaves open, with s selected centers:

1. pre-test, O(k*s*log s) per seed, for the sort of k rows of s
   distances that reads the owed-th nearest center: the seeds are sorted
   and tested a block at a time, counting only the centers near each
   prefix's first member and its members at the steps.  Those lie in the
   prefix, so the count is low and a seed that passes passes.  Every seed
   also pays the sort of its row and its bounds: O(n) for the diameter,
   or the sort of k rows of m for the cover radii;
2. bound, O(n*s) per seed: the centers near every member count.  A
   block's open seeds are tested together, with one gather of their
   members' distances to the centers;
3. exact radii, seed by seed in index order, through the seed's last
   step short at its bound (the steps after it pass at their bounds):
   O(n^2) for the diameters or O(n*m) for the cover radii.  The first
   failure is the same as without the bounds.

A random subset is likewise tested first at a bound from its first
(smallest) member's row: that member's farthest distance into the subset
for the diameter, or its sorted distances to the candidates for the cover
radii.  The subsets are drawn lazily, in the order of the seeded
generator, and pre-tested a batch at a time: the batch's members are
concatenated, one ``np.minimum.reduceat`` gives each subset's nearest
distance to each center, and the owed-th nearest is compared with the
bounds.  Only the subsets left open are sorted and reach the exact radii,
in draw order, so the first that fails is the witness.

A batch holds about ``_BATCH * _SEED_BLOCK`` entries: a subset counts its
members times s plus one row of the form's table, and the open seeds'
gather, which lives beside its block's arrays, takes half of that.

Checkers are pure functions of (instance, outcome) and safe to run in
parallel on shared instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from propclust.core import InputError, Instance, Outcome, _exact, _number

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
    "check_pf",
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
_AXIOM_CODES = (AXIOM_UP, AXIOM_PF, AXIOM_CORE, AXIOM_PRF_UNC, AXIOM_PRF_DISC, AXIOM_PRF2,
                AXIOM_PRF3)

#: Exhaustive subset enumeration is limited to this many agents.
EXHAUSTIVE_LIMIT = 16

_TABLE_CELL_LIMIT = 60_000_000

# sampled PRF seeds are sorted and pre-tested in blocks whose arrays hold at
# most about this many entries (128 KiB of float64): blocks of 54 seeds with
# (54, 20, 150) cover bounds raised the peak RSS of perfbench's n = 300 audit
# by about 9%, this cap by about 1%
_SEED_BLOCK = 1 << 14

# the open seeds and the random subsets are tested at their bounds in
# batches of about this many seed blocks of entries; larger batches raise
# the peak memory of the n = 1000 checks above that of their seed blocks
_BATCH = 4


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
        return {**vars(self), "agents": list(self.agents)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Witness":
        def count(key: str) -> int | None:
            value = obj.get(key)
            return None if value is None else _exact(value, int, f"witness {key!r}", many=False)

        radius = obj.get("radius")
        return cls(
            agents=_exact(obj["agents"], int, "witness 'agents'"),
            candidate=count("candidate"),
            radius=None if radius is None else _number(radius, "witness 'radius'"),
            required=count("required"),
            found=count("found"),
            note=_exact(obj.get("note", ""), str, "witness 'note'", many=False),
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
        witness = None if self.witness is None else self.witness.to_json_obj()
        return {**vars(self), "witness": witness}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AxiomReport":
        axiom = _exact(obj["axiom"], str, "report 'axiom'", many=False)
        if axiom not in _AXIOM_CODES:
            raise InputError(f"unknown axiom code {axiom!r}")
        wit = obj.get("witness")
        return cls(
            axiom=axiom,
            satisfied=_exact(obj["satisfied"], bool, "report 'satisfied'", many=False),
            witness=None if wit is None else Witness.from_json_obj(wit),
            definitive=_exact(obj.get("definitive", True), bool, "report 'definitive'", many=False),
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
    """Maximal groups of agents at exactly the same location, by first index.

    Without coordinates, agents coincide when their rows of agent distances
    are 0.0 at exactly the same agents, so every pair in a group is at 0.0.
    """
    if inst.agents is not None:
        # adding 0.0 turns -0.0 into 0.0: the same location, other bytes
        keys = inst.agents + 0.0
    else:
        keys = inst.agent_distances == 0.0  # raises for precomputed instances without it
    seen: dict[bytes, list[int]] = {}
    for i in range(inst.n):
        seen.setdefault(keys[i].tobytes(), []).append(i)
    return list(seen.values())


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


def _first_short_group(inst, rule, axiom: str, note: str, found_within: Callable) -> AxiomReport:
    """The exhaustive scan: the smallest failing mask, at its first failing column.

    Every bitmask group is tested at ``rule``'s radii, one column each, and
    owed what the column owes its entitlement; ``found_within(members, y)``
    counts, for every mask, the centers the checker credits within y[mask].
    A mask fails a column when it finds fewer than it is owed.
    """
    members = _subset_members(inst.n)
    radii = rule.radii(_fold_masks(rule.table, np.maximum, -np.inf), members)
    required = rule.owed[_entitlement(members.sum(axis=1), inst.k, inst.n)]
    best = None
    for r in range(radii.shape[1]):
        y = radii[:, r]
        found = found_within(members, y)
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


def _centers_within(table: np.ndarray) -> Callable:
    """Count, per mask, the centers whose entry of the (mask, center) ``table`` is within y."""
    return lambda members, y: np.count_nonzero(table <= y[:, None], axis=1)


# ---------------------------------------------------------------------------
# proportional representation: one scan per mode, one radius rule per form


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
    random subsets and is one-sided when it finds nothing.  Both modes run
    the scans :func:`check_prf_discrete` runs, with the diameter as the
    one radius.  A seed passes the pre-test in O(k*s*log s) for s selected
    centers beyond the sort of its row, the bound in O(n*s), and only a
    seed short at the bound from its first member pays O(n^2) for the
    exact diameters (see the module docstring).
    """
    return _check_prf(_Diameter, inst, outcome, exhaustive, seed, samples)


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
    the change points, so checking those is complete.  Both modes run the
    scans :func:`check_prf_unconstrained` runs, with one radius per cover
    rank r; the witness is the first failing r, then its first failing
    group.  A seed passes the pre-test in O(k*s*log s) for s selected
    centers beyond the sort of its row and of k rows of its bounds, the
    bound in O(n*s), and only a seed short at the bounds from its first
    and last members pays O(n*m) for the exact cover radii (see the
    module docstring).
    Precomputed instances without agent-agent distances sample only random
    subsets.
    """
    return _check_prf(_Cover, inst, outcome, exhaustive, seed, samples)


class _RadiusRule:
    """The radii one PRF form tests a group at, one column each.

    Column r owes a group entitled to l centers min(l, caps[r]) of them.
    A form is the ``table`` of distance rows a group folds plus one
    reading, ``radii(cover, inside)``, of a group's radii off its folded
    cover rows: cover[g, j] is the largest distance in column j of the
    table from a member of group g, and inside[g] marks those members.
    Bitmask groups, a seed's prefixes and random subsets differ only in
    how they fold.  Lower bounds on the radii, read from rows of a
    group's own members (for a block of seeds' orders, or a batch of
    random subsets, at once), are kept apart from the reading: they are
    the scan's hot path.  A form also gives its axiom code and the notes
    of its exhaustive, seeded and random witnesses.
    """

    def __init__(self, inst: Instance, caps: np.ndarray, table: np.ndarray):
        self.table, self.width = table, caps.size
        # row l: what each column owes a group entitled to l centers
        self.owed = np.minimum(np.arange(inst.k + 1)[:, None], caps)


class _Diameter(_RadiusRule):
    """Unconstrained form: one column, the group diameter, owed the full l."""

    axiom = AXIOM_PRF_UNC
    notes = (
        "group diameter neighborhood holds too few centers",
        "agent-seeded neighborhood holds too few centers",
        "sampled group holds too few centers",
    )

    def __init__(self, inst: Instance):
        # capped at k, min(l, k) is l; capped at 1 it would owe one center
        super().__init__(inst, np.array([inst.k]), inst.agent_distances)

    def radii(self, cover, inside):
        # the diagonal is zero, so the members' farthest distances hold the diameter
        return np.where(inside, cover, 0.0).max(axis=1)[:, None]

    def prefix_bounds(self, orders, steps):
        # every prefix holds its first member, whose farthest distance into
        # it is at most its diameter
        first = self.table[orders[:, :1], orders]
        return np.maximum.accumulate(first, axis=1, out=first)[:, steps, None]

    def subset_bounds(self, firsts, joined, starts):
        # each subset's first member's farthest distance into it; the
        # subsets' members are joined, each starting at its entry of starts
        rows = self.table[np.repeat(firsts, np.diff(starts, append=joined.size)), joined]
        return np.maximum.reduceat(rows, starts)[:, None]


class _Cover(_RadiusRule):
    """Discrete form: column r is the r-th smallest cover radius, owed min(l, r).

    A cover radius is a candidate's distance to the group's farthest
    member; r runs to min(k, m).
    """

    axiom = AXIOM_PRF_DISC
    notes = (
        "candidate set could cover the group better",
        "agent-seeded neighborhood is under-covered",
        "sampled group is under-covered",
    )

    def __init__(self, inst: Instance):
        super().__init__(inst, np.arange(1, min(inst.k, inst.m) + 1), inst.distance_matrix)

    def radii(self, cover, inside):
        return np.sort(cover, axis=1)[:, : self.width]

    def prefix_bounds(self, orders, steps):
        # a prefix's cover distances are at least those of its first and
        # last members, and so is each cover radius
        out = np.empty((len(orders), len(steps), self.width))
        # the (seeds, k, m) distances are sorted a few seeds at a time
        per = max(1, _SEED_BLOCK // (len(steps) * self.table.shape[1]))
        for start in range(0, len(orders), per):
            part = orders[start : start + per]
            low = self.table[part[:, steps]]
            np.maximum(low, self.table[part[:, :1]], out=low)
            low.sort(axis=-1)
            out[start : start + per] = low[..., : self.width]
        return out

    def subset_bounds(self, firsts, joined, starts):
        # a subset's cover radii are at least those of its first member
        return np.sort(self.table[firsts], axis=1)[:, : self.width]


def _check_prf(form, inst, outcome, exhaustive, seed, samples) -> AxiomReport:
    sel = _selected(inst, outcome)
    if exhaustive is None:
        exhaustive = inst.n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        _exhaustive_guard(inst)
        selmin = _fold_masks(inst.distance_matrix[:, sel], np.minimum, np.inf)
        found_within = _centers_within(selmin)
        return _first_short_group(inst, form(inst), form.axiom, form.notes[0], found_within)
    if seed < 0 or samples < 0:
        raise InputError(f"seed and samples must be non-negative, got {seed} and {samples}")
    witness = _sampled_scan(form(inst), inst, sel, seed, samples)
    if witness is None:
        return AxiomReport(form.axiom, satisfied=True, definitive=False)
    return AxiomReport(form.axiom, satisfied=False, witness=witness)


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


def _stable_order(rows: np.ndarray) -> np.ndarray:
    """``np.argsort(rows, axis=1, kind="stable")``, from the faster default sort.

    A row whose sorted values hold no equal neighbours already has the
    stable order.  A row with ties is put in it by sorting the keys
    run * n + agent, where run numbers the row's runs of equal values: the
    keys are distinct, ordered as the stable sort orders the agents, and
    the agent is the key modulo n.
    """
    order = np.argsort(rows, axis=1)
    ranked = np.take_along_axis(rows, order, axis=1)
    rises = ranked[:, 1:] != ranked[:, :-1]
    tied = np.flatnonzero(~rises.all(axis=1))
    if tied.size:
        n = rows.shape[1]
        key = np.zeros((tied.size, n), dtype=np.int64)
        np.cumsum(rises[tied], axis=1, out=key[:, 1:])
        key *= n
        key += order[tied]
        key.sort(axis=1)
        order[tied] = key % n
    return order


def _kth_nearest(nearest: np.ndarray, req: np.ndarray) -> np.ndarray:
    """[..., l, r]: the req[l, r]-th smallest of nearest[..., l, :], inf past its end."""
    ranked = np.sort(nearest, axis=-1)
    at = np.minimum(req, ranked.shape[-1]) - 1
    at = np.broadcast_to(at, ranked.shape[:-1] + at.shape[-1:])
    return np.where(req > ranked.shape[-1], np.inf, np.take_along_axis(ranked, at, axis=-1))


def _sampled_scan(rule: _RadiusRule, inst, sel, seed, samples) -> Witness | None:
    """Sampling mode: agent-seeded prefixes, then seeded random subsets.

    A group fails a column when fewer centers than it owes lie within its
    radius there.  A seed's witness is its first failing column, then that
    column's first failing step; a subset's is its first failing column.
    Every group is first tested at the rule's lower bounds on its radii: a
    count of covered centers only grows with the radius, so a group that
    passes at its bounds passes.  Seeds are sorted and pre-tested a block
    at a time, and the block's open seeds are tested at the bound together;
    random subsets are drawn and tested at their bounds a batch at a time.
    Only the seeds and subsets short at their bounds reach the exact radii,
    one by one: seeds in index order, subsets in draw order.  A batch's
    temporaries hold about ``_BATCH * _SEED_BLOCK`` entries (more only
    where one seed's or one subset's alone do).
    """
    dsel = inst.distance_matrix[:, sel]
    try:
        aa = inst.agent_distances
    except InputError:
        aa = None
    witness = None if aa is None else _first_short_seed(rule, inst, aa, dsel)
    if witness is not None:
        return witness
    budget = _BATCH * _SEED_BLOCK
    batch, used = [], 0
    for lmax, members in _random_subsets(np.random.default_rng(seed), inst.n, inst.k, samples):
        cost = members.size * sel.size + rule.table.shape[1]
        if batch and used + cost > budget:
            witness = _first_short_subset(rule, dsel, batch)
            if witness is not None:
                return witness
            batch, used = [], 0
        batch.append((lmax, members))
        used += cost
    return _first_short_subset(rule, dsel, batch) if batch else None


def _first_short_seed(rule: _RadiusRule, inst, aa, dsel) -> Witness | None:
    """The first failing agent-seeded prefix, by seed index, or None.

    The first failing prefix of a seed is at an entitlement step (see the
    module docstring), so only those k prefixes are tested.  found < req
    exactly when the req-th smallest distance to the selection exceeds the
    radius.
    """
    n, k, s = inst.n, inst.k, dsel.shape[1]
    steps, blocks = _entitlement_blocks(n, k)
    req = rule.owed[1:]
    rank = np.empty(n, dtype=np.intp)
    per = max(1, _SEED_BLOCK // max(n, k * s))
    # the open seeds' (seeds, n, s) gather lives beside the block's orders
    # and bounds, so it takes half the budget
    fold = max(1, _BATCH * _SEED_BLOCK // (2 * n * s))
    for start in range(0, n, per):
        orders = _stable_order(aa[start : start + per])
        low = rule.prefix_bounds(orders, steps)
        # the first member and those at steps 0..l all lie in prefix l, so
        # their nearest distances bound the prefix's from above
        upper = np.minimum.accumulate(dsel[orders[:, steps]], axis=1)
        np.minimum(upper, dsel[orders[:, :1]], out=upper)
        open_seeds = np.flatnonzero((_kth_nearest(upper, req) > low).any(axis=(1, 2)))
        for at in range(0, open_seeds.size, fold):
            seeds = open_seeds[at : at + fold]
            # row l: each center's nearest distance from blocks 0..l of a seed's order
            nearest = np.minimum.reduceat(dsel[orders[seeds]], blocks[:, 0], axis=1)
            np.minimum.accumulate(nearest, axis=1, out=nearest)
            kth = _kth_nearest(nearest, req)
            short = (kth > low[seeds]).any(axis=2)
            for i in np.flatnonzero(short.any(axis=1)):
                # a step that passes at its bound passes at its radii
                last = int(np.flatnonzero(short[i])[-1]) + 1
                order = orders[seeds[i]]
                rank[order] = np.arange(n)
                cover = _fold_prefixes(rule.table, np.maximum, order[blocks[:last]])
                y = rule.radii(cover, rank <= steps[:last, None])
                bad = kth[i, :last] > y
                if bad.any():
                    r0 = int(np.argmax(bad.any(axis=0)))
                    j = int(np.argmax(bad[:, r0]))
                    return Witness(
                        agents=tuple(sorted(int(a) for a in order[: steps[j] + 1])),
                        radius=float(y[j, r0]),
                        required=int(req[j, r0]),
                        found=int(np.count_nonzero(nearest[i, j] <= y[j, r0])),
                        note=rule.notes[1],
                    )
    return None


def _random_subsets(rng, n: int, k: int, samples: int):
    """The seeded random subsets, drawn lazily: (entitlement, unsorted members).

    A subset entitled to no center is drawn in size only and skipped.
    """
    for _ in range(samples):
        size = int(rng.integers(1, n + 1))
        lmax = _entitlement(size, k, n)
        if lmax:
            yield lmax, rng.choice(n, size=size, replace=False)


def _first_short_subset(rule: _RadiusRule, dsel, batch) -> Witness | None:
    """The first subset of ``batch`` that fails, tested at its bounds together first.

    Each subset's nearest distance to each center is the minimum over its
    members, and its first member is the smallest one.
    """
    joined = np.concatenate([drawn for _, drawn in batch])
    starts = np.zeros(len(batch), dtype=np.intp)
    np.cumsum([drawn.size for _, drawn in batch[:-1]], out=starts[1:])
    nearest = np.minimum.reduceat(dsel[joined], starts, axis=0)
    owed = rule.owed[[lmax for lmax, _ in batch]]
    low = rule.subset_bounds(np.minimum.reduceat(joined, starts), joined, starts)
    for i in np.flatnonzero((_kth_nearest(nearest, owed) > low).any(axis=1)):
        members = np.sort(batch[i][1])
        to_sel = np.sort(nearest[i])
        inside = np.zeros((1, len(dsel)), dtype=bool)
        inside[0, members] = True
        y = rule.radii(rule.table[members].max(axis=0, keepdims=True), inside)[0]
        found = np.searchsorted(to_sel, y, side="right")
        bad = np.flatnonzero(found < owed[i])
        if bad.size:
            r0 = int(bad[0])
            return Witness(
                agents=tuple(int(a) for a in members),
                radius=float(y[r0]),
                required=int(owed[i, r0]),
                found=int(found[r0]),
                note=rule.notes[2],
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
    per_agent_sel = np.sort(inst.distance_matrix[:, _selected(inst, outcome)], axis=1)

    def seen_by_one_member(members, y):
        # one member at a time: no (mask, agent) table of counts
        seen = np.zeros(len(y), dtype=np.intp)
        for row, member in zip(per_agent_sel, members.T):
            np.maximum(seen, np.searchsorted(row, y, side="right") * member, out=seen)
        return seen

    return _first_short_group(
        inst, _Cover(inst), AXIOM_PRF2, "no single member sees enough centers", seen_by_one_member
    )


def check_prf3(inst: Instance, outcome: Outcome) -> AxiomReport:
    """l' centers must lie within y of every member of the group.

    The strongest variant; exhaustive only.
    """
    _exhaustive_guard(inst)
    selmax = _fold_masks(inst.distance_matrix[:, _selected(inst, outcome)], np.maximum, -np.inf)
    note = "too few centers cover the whole group"
    return _first_short_group(inst, _Cover(inst), AXIOM_PRF3, note, _centers_within(selmax))


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
        elif (inst.agent_distances[np.ix_(agents, agents)] != 0.0).any():
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
