"""Domain types and distance primitives shared by every other module.

All types are immutable after construction and every operation is a pure
function, so instances and outcomes can be shared freely between threads
or worker processes.

Distances are finite IEEE floats, but every comparison against a radius
uses values read from one instance-wide distance matrix, so exact float
equality against radii taken from that matrix is sound.  Agent weights,
by contrast, are exact multiples of 1/k: the engine keeps them as
integers scaled by k, so the selection quota n/k is never rounded.

The distance build writes each coordinate's differences ``a_j - b_j`` as
an exact BLAS product with inner dimension 2, ``[1, a_j] @ [-b_j ; 1]``:
its two products are exact, so their sum is rounded once, as the
subtraction is.  A matrix whose candidates are the agents is symmetric
bit for bit, so its build sums only the entries on and right of the
diagonal (in slabs of rows) and copies them across.  Each candidate's
distances are sorted once per instance, for the engine, and that order
is shared by every k.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
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


#: ``json.dumps(obj, separators=(",", ":"))``, the digest's serialization.
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _exact(value, kind: type, what: str, many: bool = True):
    """``value``, a JSON list of ``kind`` values, as a tuple; with ``many=False``, one such value.

    The types are tested exactly: bool is an int subclass, and ``int()``
    would truncate a float or parse a string.
    """
    values = value if many else [value]
    if not isinstance(values, list) or not set(map(type, values)) <= {kind}:
        raise InputError(f"{what} must be a JSON {kind.__name__}{' list' if many else ''}")
    return tuple(values) if many else value


def _number(value, what: str) -> float:
    """``value``, a JSON number (an int or a float, not a bool), as a float."""
    if type(value) not in (int, float):
        raise InputError(f"{what} must be a JSON number")
    return float(value)


def _frozen(arr) -> bool:
    """True when ``arr`` is a float64, 2-D, C-contiguous array that nothing can write.

    Such an array (another instance's points or distance matrix) is used
    as it is rather than copied.  Neither it nor any array in its ``.base``
    chain may be writeable, so no view the caller holds can change it.
    """
    if type(arr) is not np.ndarray or arr.dtype != np.float64 or arr.ndim != 2 or not arr.flags.c_contiguous:
        return False
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None  # a buffer that is not an array (bytearray, mmap) may be written through


def _as_points(arr, name: str) -> np.ndarray:
    try:
        pts = arr if _frozen(arr) else np.array(arr, dtype=float)
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


def _checked_k(k, n: int) -> int:
    """``k`` as an int, when it is an integer with 1 <= k <= n."""
    if not isinstance(k, (int, np.integer)):
        raise InputError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise InputError(f"k must satisfy 1 <= k <= n, got k={k} with n={n}")
    return int(k)


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
        (m, dim) candidate coordinates.  When omitted, or equal to the
        agents bit for bit, this is the agents array itself.
    k : int
        Number of centers to select, 1 <= k <= n.
    metric : str
        "euclidean", "manhattan", or "precomputed".
    matrix : ndarray or None
        Explicit (n, m) agent-candidate distance matrix, precomputed mode only.
    shared_candidates : bool
        True when the candidates are the agents: the same points in the same
        order, so candidate i is agent i.  A permuted copy of the agents is a
        discrete candidate set.
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
            try:
                mat = self.matrix if _frozen(self.matrix) else np.array(self.matrix, dtype=float)
            except ValueError:  # ragged rows or entries that are not numbers
                raise InputError("distance matrix must be a nonempty 2-D array") from None
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
                # the same bits (a -0.0 would change the digest) are stored once, so the
                # distance build sees the agents twice and sums half the matrix
                if shared and np.array_equal(cands.view(np.int64), agents.view(np.int64)):
                    cands = agents
            object.__setattr__(self, "agents", agents)
            object.__setattr__(self, "candidates", cands)
            object.__setattr__(self, "shared_candidates", shared)
        else:
            raise InputError(f"unknown metric {self.metric!r}")
        object.__setattr__(self, "k", _checked_k(self.k, self.n))

    # -- constructors -------------------------------------------------

    @classmethod
    def unconstrained(cls, points, k: int, metric: str = "euclidean") -> "Instance":
        """Instance whose candidates are its agents themselves."""
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
        """The same instance with another k.

        A shallow copy: the points, the matrix and every cached property
        already built (the distance matrices, the engine's sorted order,
        the coordinate text) are shared, except the digest, which covers k.
        """
        out = copy.copy(self)
        object.__setattr__(out, "k", _checked_k(k, self.n))
        out.__dict__.pop("digest", None)
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
    def _candidate_order(self) -> np.ndarray:
        """(m, n) int32: each candidate's agents by distance, ties by index, run ends marked.

        Row c is :func:`_marked_order` of column c of ``distance_matrix``.
        It does not depend on k, so the k-variants share it, and the sweep
        and greedy capture both read it: one sort per dataset.  It is
        sorted ``_BLOCK // n`` rows at a time, from the matrix's rows
        where they are its columns (shared candidates) and from transposed
        blocks of columns otherwise, so no temporary but the order holds
        more than a block.  Read-only, half the matrix's bytes, and held as
        long as the instance.
        """
        n, m = self.n, self.m
        # checked before the matrix is read
        if n > np.iinfo(np.int32).max:
            raise InputError(f"{n} agents are too many: sorted positions are int32")
        dm = self.distance_matrix
        rows = max(1, _BLOCK // n)
        try:
            order = np.empty((m, n), dtype=np.int32)
            for i in range(0, m, rows):
                block = dm[i : i + rows] if self.is_unconstrained else dm[:, i : i + rows].T
                _marked_order(block, out=order[i : i + rows])
        except MemoryError:
            raise InputError(
                f"the ball thresholds of {n} agents and {m} candidates need {n * m * 4 / 2**30:.1f} GiB "
                "beside the distance matrix, more than can be allocated"
            ) from None
        order.flags.writeable = False
        return order

    @cached_property
    def _coordinate_json(self) -> tuple[str, str] | None:
        """Compact JSON text of ``agents.tolist()`` and ``candidates.tolist()``.

        ``None`` in precomputed mode.  The coordinates are rendered once per
        instance, and its k-variants share the text: the digest and a run
        record's coordinates are both written from it.  Candidates that are
        the agents array share its string.
        """
        if self.agents is None:
            return None
        agents = _compact(self.agents.tolist())
        return agents, agents if self.candidates is self.agents else _compact(self.candidates.tolist())

    @cached_property
    def digest(self) -> str:
        """SHA-256 over a canonical serialization; stable across runs.

        The serialization is ``json.dumps(payload, separators=(",", ":"))``
        of the payload ``{"schema": "instance/1", "metric", "k", "agents",
        "candidates", "matrix", "shared_candidates"}``, with the points as
        nested lists; it is joined here around the cached coordinate text.
        """
        agents, candidates = self._coordinate_json or ("null", "null")
        blob = "".join((
            '{"schema":"instance/1","metric":', _compact(self.metric),
            ',"k":', str(self.k),
            ',"agents":', agents,
            ',"candidates":', candidates,
            ',"matrix":', "null" if self.matrix is None else _compact(self.matrix.tolist()),
            ',"shared_candidates":', _compact(self.shared_candidates), "}",
        ))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The one working-memory budget, in entries.  Beside the distance matrix and the
#: instance's order, each large temporary is built about this many entries at a time
#: (or one row, seed or subset, where that alone is larger): the distance build's
#: blocks and term planes, the sort of ``Instance._candidate_order``, the engine's
#: advance passes and charges, every row fold of :func:`_prefix_max` (the engine's
#: ``settle``, the sampled scan's exact radii and ``axioms.recheck_witness``), and in
#: ``axioms._sampled_scan`` a quarter for a block of seeds (and of the discrete cover
#: bounds), half for its open seeds' gather and the whole for a batch of random subsets.
_BLOCK = 1 << 16
#: Rows per slab of a symmetric matrix, which is summed from each slab's first column on.
_TILE = 128


def _pairwise(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    # the (n, m) matrix is allocated once and written in place, a block of at
    # most _BLOCK entries (or one row, where a row is longer) at a time; the
    # only other memory is a few term planes that size
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
    block_sum = _BlockSum(b, np.square if metric == "euclidean" else np.abs, max(m, min(n * m, _BLOCK)))
    # finite coordinates can still overflow: their differences or squares reach inf
    with np.errstate(over="ignore"):
        start = 0
        while start < n:
            col = start - start % _TILE if half else 0
            stop = start + max(1, min(n - start, _BLOCK // (m - col)))
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
    candidates.  Coordinate j's differences are the matrix product
    ``[1, a_j] @ [-b_j ; 1]`` with inner dimension 2, which numpy runs on its
    BLAS path, about three times as fast as a broadcast subtraction.  It is
    exact: ``1 * -b_j`` and ``a_j * 1`` are exact, so their sum is rounded
    once, to ``fl(a_j - b_j)``, whether or not the kernel fuses a
    multiply-add and in either order (numpy's own loop, without BLAS, too).
    Only the sign of a zero difference can differ, and the fold drops it; a
    difference that overflows is ``inf`` either way.  The operands are the
    ``(dim + 1, m)`` rows ``-b_j`` over a row of ones, held for the whole
    build, and each block's ``(rows, dim + 1)`` ones column beside its
    agents; coordinate j reads two strided views of them, with no copy.
    The planes are added in the order ``np.add.reduce`` sums a
    contiguous axis (numpy's pairwise sum), so each entry is bit for bit
    ``fold(a[:, None] - b[None]).sum(-1)``: below 8 terms one after another;
    up to 128, eight running sums over every eighth term, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover terms one by one;
    above 128, the sums of two halves split at a multiple of 8.  The eight
    running sums are computed one after another, depth first, so at most four
    scratch planes are live below 129 coordinates.
    """

    def __init__(self, b: np.ndarray, fold, size: int):
        self._dim = dim = b.shape[1]
        self._rhs = np.empty((dim + 1, b.shape[0]))
        np.negative(b.T, out=self._rhs[:dim])
        self._rhs[dim] = 1.0
        self._fold = fold
        self._size = size  # entries in the largest block
        # flat scratch planes, viewed in each block's shape: [0] holds a term,
        # [l] the right operand of an addition l levels deep
        self._spare: list[np.ndarray] = []

    def __call__(self, a_rows: np.ndarray, out: np.ndarray, col: int) -> None:
        self._lhs = np.empty((len(a_rows), self._dim + 1))
        self._lhs[:, 0] = 1.0
        self._lhs[:, 1:] = a_rows
        self._col = col
        self._sum(range(self._dim), out, 1)

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
        # [1, a_j] @ [-b_j ; 1]: two exact products, summed and rounded once, to a_j - b_j
        dim = self._dim
        np.matmul(self._lhs[:, 0 : j + 2 : j + 1], self._rhs[j : dim + 1 : dim - j, self._col :], out=dest)
        return self._fold(dest, out=dest)

    def _plane(self, level: int, shape: tuple[int, int]) -> np.ndarray:
        while len(self._spare) <= level:
            self._spare.append(np.empty(self._size))
        return self._spare[level][: shape[0] * shape[1]].reshape(shape)


def _ordered_ints(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into the int64 ``out`` the bits of the nonnegative ``values`` (distances), which order as they do."""
    # -0.0 + 0.0 is 0.0; a block of columns is read in its own memory order
    if values.strides[0] < values.strides[1]:
        np.add(values.T, 0.0, out=out.view(np.float64).T)
    else:
        np.add(values, 0.0, out=out.view(np.float64))
    return out


def _marked_order(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row's column indices in stable sorted order, with the end of each run of equal values marked.

    ``out[i]`` (int32) is ``np.argsort(rows[i], kind="stable")``, except that
    the last index of each run of equal values (so the last column always) is
    stored as ``~index``: :func:`_unmarked` decodes it.  The values must be
    nonnegative (distances); ``-0.0`` and ``0.0`` are equal.  The rows are
    sorted as int64 keys: each value's order-preserving integer image with its
    low ``b = (n-1).bit_length()`` bits replaced by the column index, so one
    integer sort orders them with ties by index.  Neighbours whose high parts
    differ are in order and end a run.  Only rows holding a neighbour pair
    with equal high parts gather their values in that order, to mark their
    runs and to catch values that differ only in the dropped bits (distances a
    few ulps apart, as rounded coordinates give); only a row holding such
    values is put in order, by ``np.argsort(kind="stable")`` of its nearly
    sorted values.  Beside ``out`` the temporaries hold one int64 key per
    entry, plus a few gathers of the rows with equal high parts.
    """
    r, n = rows.shape
    if out is None:
        out = np.empty((r, n), dtype=np.int32)
    bits = (n - 1).bit_length()
    low = (1 << bits) - 1
    keys = _ordered_ints(rows, np.empty((r, n), dtype=np.int64))
    keys &= ~low
    keys |= np.arange(n)
    keys.sort(axis=1)
    np.bitwise_and(keys, low, out=out, casting="unsafe")
    keys >>= bits
    ends = _run_ends(keys)
    del keys  # before the gather below
    tied = np.flatnonzero(~ends.all(axis=1))
    if tied.size:
        # a block in which every row ties (as on a grid of few levels) is read without subsetting its rows
        part = slice(None) if tied.size == r else tied
        picked = out[part]
        # a flat take is faster than a 2-D gather (it copies rows that are not C-contiguous)
        vals = rows.take(picked + (tied * n)[:, None])
        runs = _run_ends(vals)
        # a run end of the high parts is one of the values, so the two differ
        # only where values differ in the dropped bits
        bad = np.flatnonzero((runs != ends[part]).any(axis=1))
        if bad.size:
            # values that differ only in the dropped bits: a stable sort of the
            # nearly sorted values puts them in order, equal ones still by index
            ints = vals[bad]
            ints = _ordered_ints(ints, ints.view(np.int64))
            fix = np.argsort(ints, axis=1, kind="stable")
            fix += (np.arange(bad.size) * n)[:, None]
            out[tied[bad]] = picked[bad].take(fix)
            runs[bad] = _run_ends(ints.take(fix))
        ends[part] = runs
    # ~i is i ^ -1: the bools read as int8 0 or 1 and are negated in place
    marks = ends.view(np.int8)
    np.negative(marks, out=marks)
    np.bitwise_xor(out, marks, out=out)
    return out


def _run_ends(block: np.ndarray) -> np.ndarray:
    """Where each run of equal values ends in each sorted row of the C-ordered ``block``.

    The last column always ends a run.  Neighbours are compared along the
    flat block and the row seams then overwritten: comparing two strided
    2-D views instead makes numpy buffer both, which set the peak of a
    small block and took twice as long.
    """
    ends = np.empty(block.shape, dtype=bool)
    flat = block.reshape(-1)
    np.not_equal(flat[1:], flat[:-1], out=ends.reshape(-1)[:-1])
    ends[:, -1] = True
    return ends


def _unmarked(order: np.ndarray) -> np.ndarray:
    """The indices of a :func:`_marked_order` (or part of one), as intp.

    ``~i`` is ``i ^ -1`` and ``i >> 31`` is -1 just for the marked ones.  The
    indices are widened because numpy's ``take`` casts int32 ones slowly
    past a few thousand.
    """
    out = order >> 31
    out ^= order
    return out.astype(np.intp)


def _prefix_max(table: np.ndarray, rows: np.ndarray, ends) -> np.ndarray:
    """Row j: each column's maximum over ``table[rows[: ends[j] + 1]]``, for ascending ``ends``.

    The rows from one end to the next are gathered ``_BLOCK // columns`` at
    a time (one at least), and each block's maximum is folded into one
    running maximum.  A maximum is exact, so the result does not depend on
    the blocks.
    """
    out = np.empty((len(ends), table.shape[1]))
    per = max(1, _BLOCK // table.shape[1])
    far, start = np.full(table.shape[1], -np.inf), 0
    for j, end in enumerate(ends):
        for i in range(start, end + 1, per):
            np.maximum(far, table[rows[i : min(i + per, end + 1)]].max(axis=0), out=far)
        out[j], start = far, end + 1
    return out


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

