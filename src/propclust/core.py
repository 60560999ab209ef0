"""Domain types and distance primitives shared by every other module.

All types are immutable after construction and every operation is a pure
function, so instances and outcomes can be shared freely between threads
or worker processes.

Distances are finite IEEE floats, but every comparison against a radius
uses values read from one instance-wide distance matrix, so exact float
equality against radii taken from that matrix is sound.  Agent weights,
by contrast, are exact multiples of 1/k: the engine keeps them as
integers scaled by k, so the selection quota n/k is never rounded.

A matrix whose candidates are the agents is symmetric bit for bit, so
its build sums only the entries on and right of the diagonal (in slabs
of rows) and copies them across.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property, wraps
from typing import Sequence

import numpy as np

__all__ = [
    "InputError",
    "Instance",
    "Outcome",
    "distance",
]

COORDINATE_METRICS = ("euclidean", "manhattan")
PRECOMPUTED = "precomputed"


class InputError(ValueError):
    """Invalid instance, argument, or input file."""


def _as_points(arr, name: str) -> np.ndarray:
    try:
        pts = np.array(arr, dtype=float)
    except ValueError:  # ragged rows or entries that are not numbers
        raise InputError(f"{name} must be a nonempty 2-D array of coordinates") from None
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
        raise InputError(f"{name} must be a nonempty 2-D array of coordinates")
    if not np.isfinite(pts).all():
        raise InputError(f"{name} contains non-finite coordinates")
    pts.flags.writeable = False
    return pts


def distance(p: Sequence[float], q: Sequence[float], metric: str = "euclidean") -> float:
    """Distance between two coordinate points under the named metric.

    Parameters
    ----------
    p, q : array-like
        Coordinate sequences of equal length.
    metric : str
        Either ``"euclidean"`` or ``"manhattan"``.  The precomputed-matrix
        mode has no pointwise form; build an :class:`Instance` for it.

    A distance that overflows to infinity raises :class:`InputError`, as
    it does when an :class:`Instance` builds its distance matrix.
    """
    a = np.atleast_1d(np.asarray(p, dtype=float))
    b = np.atleast_1d(np.asarray(q, dtype=float))
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(f"points have mismatched shapes {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("points must have finite coordinates")
    if metric == PRECOMPUTED:
        raise InputError("precomputed metric has no pointwise distance; use Instance.precomputed")
    if metric not in COORDINATE_METRICS:
        raise InputError(f"unknown metric {metric!r}")
    # the one sum that the matrix build reproduces bit for bit, without its per-coordinate planes
    with np.errstate(over="ignore"):
        total = (np.square if metric == "euclidean" else np.abs)(a - b).sum()
    if not np.isfinite(total):
        raise InputError("coordinates are too large: the distance overflows to infinity")
    return float(np.sqrt(total) if metric == "euclidean" else total)


@dataclass(frozen=True)
class Instance:
    """A center-selection problem: agents, candidate locations, and k.

    Attributes
    ----------
    agents : ndarray or None
        (n, dim) agent coordinates.  ``None`` only in precomputed mode.
    candidates : ndarray or None
        (m, dim) candidate coordinates.  When omitted, candidates are a
        verbatim indexed copy of the agents (the unconstrained mode).
    k : int
        Number of centers to select, 1 <= k <= n.
    metric : str
        "euclidean", "manhattan", or "precomputed".
    matrix : ndarray or None
        Explicit (n, m) agent-candidate distance matrix, precomputed mode only.
    shared_candidates : bool
        True when the candidate multiset is exactly the agent multiset.
        Detected from coordinates; must be declared in precomputed mode.
    """

    agents: np.ndarray | None
    candidates: np.ndarray | None = None
    k: int = 1
    metric: str = "euclidean"
    matrix: np.ndarray | None = None
    shared_candidates: bool | None = None

    def __post_init__(self):
        if self.metric == PRECOMPUTED:
            if self.matrix is None:
                raise InputError("precomputed metric requires a distance matrix")
            if self.agents is not None or self.candidates is not None:
                raise InputError("precomputed instances take a matrix, not coordinates")
            mat = np.array(self.matrix, dtype=float)
            if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
                raise InputError("distance matrix must be a nonempty 2-D array")
            if not np.isfinite(mat).all() or (mat < 0).any():
                raise InputError("distance matrix entries must be finite and nonnegative")
            shared = bool(self.shared_candidates)
            if shared and mat.shape[0] != mat.shape[1]:
                raise InputError("shared candidates need a square distance matrix")
            if shared and not np.array_equal(mat, mat.T):
                raise InputError("shared candidates need a symmetric distance matrix")
            if shared and mat.diagonal().any():
                raise InputError("shared candidates need a zero diagonal: each agent is its own candidate")
            mat.flags.writeable = False
            object.__setattr__(self, "matrix", mat)
            object.__setattr__(self, "shared_candidates", shared)
        elif self.metric in COORDINATE_METRICS:
            if self.matrix is not None:
                raise InputError(f"metric {self.metric!r} does not accept a distance matrix")
            if self.agents is None:
                raise InputError("coordinate instances require agent points")
            agents = _as_points(self.agents, "agents")
            if self.candidates is None:
                cands = agents
                shared = True
            else:
                cands = _as_points(self.candidates, "candidates")
                if cands.shape[1] != agents.shape[1]:
                    raise InputError(
                        f"agents have dimension {agents.shape[1]} but candidates have {cands.shape[1]}"
                    )
                shared = cands.shape == agents.shape and bool(np.array_equal(cands, agents))
            object.__setattr__(self, "agents", agents)
            object.__setattr__(self, "candidates", cands)
            object.__setattr__(self, "shared_candidates", shared)
        else:
            raise InputError(f"unknown metric {self.metric!r}")
        if not isinstance(self.k, (int, np.integer)):
            raise InputError(f"k must be an integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        if not 1 <= self.k <= self.n:
            raise InputError(f"k must satisfy 1 <= k <= n, got k={self.k} with n={self.n}")

    # -- constructors -------------------------------------------------

    @classmethod
    def unconstrained(cls, points, k: int, metric: str = "euclidean") -> "Instance":
        """Instance whose candidate set is the agent multiset itself."""
        return cls(agents=points, candidates=None, k=k, metric=metric)

    @classmethod
    def discrete(cls, agents, candidates, k: int, metric: str = "euclidean") -> "Instance":
        """Instance with an explicit candidate multiset."""
        return cls(agents=agents, candidates=candidates, k=k, metric=metric)

    @classmethod
    def precomputed(cls, matrix, k: int, shared_candidates: bool = False) -> "Instance":
        """Instance defined by an explicit (n, m) distance matrix."""
        return cls(
            agents=None,
            candidates=None,
            k=k,
            metric=PRECOMPUTED,
            matrix=matrix,
            shared_candidates=shared_candidates,
        )

    # -- shape ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.matrix.shape[0] if self.agents is None else self.agents.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1] if self.candidates is None and self.agents is None else self.candidates.shape[0]

    @property
    def dim(self) -> int | None:
        return None if self.agents is None else self.agents.shape[1]

    @property
    def is_unconstrained(self) -> bool:
        return bool(self.shared_candidates)

    def with_k(self, k: int) -> "Instance":
        """The same agents and candidates with another k.

        Distance matrices already built are shared with the new instance;
        the digest is not, because it covers k.
        """
        out = replace(self, k=k)
        for attr in ("distance_matrix", "agent_distances"):
            if attr in self.__dict__:
                out.__dict__[attr] = self.__dict__[attr]
        return out

    # -- distances -----------------------------------------------------

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """(n, m) agent-to-candidate distances; the single source of truth."""
        if self.metric == PRECOMPUTED:
            return self.matrix
        out = _pairwise(self.agents, self.candidates, self.metric)
        out.flags.writeable = False
        return out

    @cached_property
    def agent_distances(self) -> np.ndarray:
        """(n, n) agent-to-agent distances."""
        if self.metric == PRECOMPUTED:
            if self.shared_candidates:
                return self.matrix
            raise InputError("agent-agent distances are unavailable for this precomputed instance")
        if self.shared_candidates:
            return self.distance_matrix
        out = _pairwise(self.agents, self.agents, self.metric)
        out.flags.writeable = False
        return out

    @cached_property
    def digest(self) -> str:
        """SHA-256 over a canonical serialization; stable across runs."""
        payload = {
            "schema": "instance/1",
            "metric": self.metric,
            "k": self.k,
            "agents": None if self.agents is None else self.agents.tolist(),
            "candidates": None if self.candidates is None else self.candidates.tolist(),
            "matrix": None if self.matrix is None else self.matrix.tolist(),
            "shared_candidates": self.shared_candidates,
        }
        blob = json.dumps(payload, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Entries in one (rows, m) plane of per-coordinate terms while building distances (8 bytes each).
_PLANE = 1 << 16
#: Rows per slab of a symmetric matrix, which is summed from each slab's first column on.
_TILE = 128


def _pairwise(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    # the (n, m) matrix is allocated once and written in place, a block of at
    # most _PLANE entries (or one row, where a row is longer) at a time; the
    # only other memory is a few planes that size
    n, m = a.shape[0], b.shape[0]
    try:
        out = np.empty((n, m))
    except MemoryError:
        raise InputError(
            f"the {n} x {m} distance matrix needs {n * m * 8 / 2**30:.1f} GiB, more than can be allocated"
        ) from None
    # with b is a the matrix is symmetric, bit for bit, as (x - y)**2 and |x - y|
    # equal (y - x)**2 and |y - x|: a row is built from the first column of its
    # _TILE-row slab on, and each slab's columns below it are copied across
    half = b is a
    block_sum = _BlockSum(b, np.square if metric == "euclidean" else np.abs, max(m, min(n * m, _PLANE)))
    # finite coordinates can still overflow: their differences or squares reach inf
    with np.errstate(over="ignore"):
        start = 0
        while start < n:
            col = start - start % _TILE if half else 0
            stop = start + max(1, min(n - start, _PLANE // (m - col)))
            block = out[start:stop, col:]
            block_sum(a[start:stop], block, col)
            if metric == "euclidean":
                np.sqrt(block, out=block)
            start = stop
    if half:
        for s in range(_TILE, n, _TILE):
            out[s:, s - _TILE : s] = out[s - _TILE : s, s:].T
    # entries are inf rather than NaN when they overflow, so the maximum shows it
    if not np.isfinite(out.max()):
        raise InputError("coordinates are too large: some distances overflow to infinity")
    return out


class _BlockSum:
    """Writes the summed per-coordinate terms of a block of the distance matrix.

    The block is a run of rows over the candidates from column ``col`` on.
    A term plane holds one coordinate's squared (``fold=np.square``) or
    absolute (``np.abs``) differences between the block's agents and those
    candidates.  The planes are added in the order ``np.add.reduce`` sums a
    contiguous axis (numpy's pairwise sum), so each entry is bit for bit
    ``fold(a[:, None] - b[None]).sum(-1)``: below 8 terms one after another;
    up to 128, eight running sums over every eighth term, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms one by one;
    above 128, the sums of two halves split at a multiple of 8.  The eight
    running sums are computed one after another, depth first, so at most four
    scratch planes are live below 129 coordinates.
    """

    def __init__(self, b: np.ndarray, fold, size: int):
        self._cols = np.ascontiguousarray(b.T)  # one contiguous row per coordinate
        self._fold = fold
        self._size = size  # entries in the largest block
        # flat scratch planes, viewed in each block's shape: [0] holds a term,
        # [l] the right operand of an addition l levels deep
        self._spare: list[np.ndarray] = []

    def __call__(self, a_rows: np.ndarray, out: np.ndarray, col: int) -> None:
        self._a, self._col = a_rows, col
        self._sum(range(len(self._cols)), out, 1)

    def _sum(self, idx: range, out: np.ndarray, level: int) -> None:
        count = len(idx)
        if count < 8:
            self._run(idx, out, level)
        elif count <= 128:
            stop = count - count % 8
            self._tree([idx[j:stop:8] for j in range(8)], out, level, self._run)
            self._run(idx[stop:], out, level, onto=True)
        else:
            half = count // 2 - count // 2 % 8
            self._tree([idx[:half], idx[half:]], out, level, self._sum)

    def _tree(self, parts: list[range], out: np.ndarray, level: int, leaf) -> None:
        # ((p0 + p1) + (p2 + p3)) + ...: the left half goes to out, the right to a spare plane
        if len(parts) == 1:
            leaf(parts[0], out, level)
            return
        mid = len(parts) // 2
        self._tree(parts[:mid], out, level + 1, leaf)
        right = self._plane(level, out.shape)
        self._tree(parts[mid:], right, level + 1, leaf)
        out += right

    def _run(self, idx: range, out: np.ndarray, level: int, onto: bool = False) -> None:
        # numpy's run starts from -0.0, and -0.0 + x is x, so the first term is written as is
        for j in idx:
            if onto:
                out += self._term(j, self._plane(0, out.shape))
            else:
                self._term(j, out)
                onto = True

    def _term(self, j: int, dest: np.ndarray) -> np.ndarray:
        np.subtract(self._a[:, j, None], self._cols[j, self._col :], out=dest)
        return self._fold(dest, out=dest)

    def _plane(self, level: int, shape: tuple[int, int]) -> np.ndarray:
        while len(self._spare) <= level:
            self._spare.append(np.empty(self._size))
        return self._spare[level][: shape[0] * shape[1]].reshape(shape)


def _squares_fit(func):
    """Decorate a function that squares distances: overflow raises InputError.

    Every finite distance is valid, but squares pass the float maximum
    from about 1.3e154 on, and sums of squares can pass it below that.
    """

    @wraps(func)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return func(*args, **kwargs)
        except FloatingPointError:
            raise InputError("distances are too large: their squares overflow to infinity") from None

    return checked


@dataclass(frozen=True)
class Outcome:
    """An ordered selection of distinct candidate indices."""

    selected: tuple[int, ...]

    def __post_init__(self):
        sel = tuple(int(i) for i in self.selected)
        if len(set(sel)) != len(sel):
            raise InputError(f"outcome repeats a candidate index: {sel}")
        object.__setattr__(self, "selected", sel)

    def validate(self, inst: Instance) -> None:
        """Check every index addresses a candidate of ``inst``."""
        if len(self.selected) == 0:
            raise InputError("outcome selects no candidates")
        for i in self.selected:
            if not 0 <= i < inst.m:
                raise InputError(f"candidate index {i} out of range for {inst.m} candidates")

