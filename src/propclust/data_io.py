"""File formats and built-in instance generators.

Point files are CSV with a header row.  Every column is a coordinate
except two reserved names: ``role`` (values ``agent`` or ``candidate``;
absent means every point is both) and ``id`` (free-form label, ignored).
Results of a run serialize to a single JSON document (:class:`RunRecord`)
with a fixed key order, exact rational weights rendered as fraction
strings, and the instance digest embedded so a record can be matched
back to its inputs.  Its bytes are exactly ``json.dumps(obj, indent=2)``
plus a newline, written in pieces of bounded size (see
:func:`write_run_record`); perfbench's ``expected.json`` digests pin them.
An instance renders its coordinates to JSON text once, and its digest and
the records made from it share that text.  The writer lays out every
record's coordinates from such text; for a record with none, it
renders the text from the rows and holds it while the record is written.

Generators are deterministic functions of their parameters; none draw
random numbers, so a generated CSV is byte-identical across runs.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from propclust.axioms import AxiomReport
from propclust.core import InputError, Instance, _compact, _exact, _number
from propclust.engine import SweepRound, SweepTrace
from propclust.evaluation import ExperimentGrid

__all__ = [
    "GENERATORS",
    "RunRecord",
    "generate",
    "instance_from_record",
    "instance_to_csv",
    "load_csv",
    "load_grid",
    "read_run_record",
    "record_for",
    "trace_from_json_obj",
    "trace_to_json_obj",
    "write_run_record",
]

_ROLE_VALUES = ("agent", "candidate")


# ---------------------------------------------------------------------------
# point CSV files


def load_csv(path, k: int = 1, metric: str = "euclidean", standardize: bool = False) -> Instance:
    """Read a point CSV into an instance.

    Without a ``role`` column the points serve as both agents and
    candidate locations.  With one, rows are split by role.  With
    ``standardize=True`` every coordinate column is z-scored (sample
    standard deviation, over all rows of the file); constant columns are
    left untouched.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    role_idx = header.index("role") if "role" in header else None
    id_idx = header.index("id") if "id" in header else None
    coord_idx = [j for j in range(len(header)) if j not in (role_idx, id_idx)]
    if not coord_idx:
        raise InputError(f"{path}: no coordinate columns")

    points: list[list[float]] = []
    roles: list[str] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
        coords = []
        for j in coord_idx:
            cell = row[j].strip()
            try:
                coords.append(float(cell))
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: cannot parse {cell!r} as a number"
                ) from None
        points.append(coords)
        if role_idx is not None:
            role = row[role_idx].strip()
            if role not in _ROLE_VALUES:
                raise InputError(
                    f"{path}: line {lineno}: role must be 'agent' or 'candidate', got {role!r}"
                )
            roles.append(role)
    if not points:
        raise InputError(f"{path}: no data rows")

    arr = np.asarray(points, dtype=float)
    if standardize:
        mean = arr.mean(axis=0)
        std = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.ones(arr.shape[1])
        std = np.where(std == 0.0, 1.0, std)
        arr = (arr - mean) / std

    if role_idx is None:
        return Instance.unconstrained(arr, k=k, metric=metric)
    mask = np.asarray([r == "agent" for r in roles])
    agents = arr[mask]
    candidates = arr[~mask]
    if agents.shape[0] == 0:
        raise InputError(f"{path}: no agent rows")
    if candidates.shape[0] == 0:
        raise InputError(f"{path}: role column present but no candidate rows")
    return Instance.discrete(agents, candidates, k=k, metric=metric)


def instance_to_csv(inst: Instance) -> str:
    """Render an instance's coordinates back to point-CSV text."""
    if inst.agents is None:
        raise InputError("instance has no coordinates to write")
    dim = inst.dim
    coord_names = [f"x{j}" for j in range(dim)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if inst.is_unconstrained:
        writer.writerow(coord_names)
        for row in inst.agents:
            writer.writerow([repr(float(v)) for v in row])
    else:
        writer.writerow(["role", *coord_names])
        for row in inst.agents:
            writer.writerow(["agent", *(repr(float(v)) for v in row)])
        for row in inst.candidates:
            writer.writerow(["candidate", *(repr(float(v)) for v in row)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# built-in generators (all deterministic, no randomness)


def _two_mass(a: int = 100, b: int = 10, k: int = 11) -> Instance:
    """a agents at 0 and b agents at 1 on a line; locations are shared."""
    pts = np.concatenate([np.zeros(a), np.ones(b)])
    return Instance.unconstrained(pts, k=k)


_TRIANGLE_HALF_HEIGHT = float(np.sqrt(3.0) / 4.0)


def _equilateral(cx: float, flip: bool) -> list[tuple[float, float]]:
    # circumradius 1/2; vertex angles 120/240/360 deg, mirrored when flipped.
    # The symmetric coordinate forms keep all three side lengths equal as
    # floats, which downstream tie handling relies on.
    h = _TRIANGLE_HALF_HEIGHT
    s = -1.0 if flip else 1.0
    return [(cx - s * 0.25, h), (cx - s * 0.25, -h), (cx + s * 0.5, 0.0)]


def _hexagon(k: int = 3) -> Instance:
    """Two far-apart equilateral triangles of three agents each."""
    pts = np.asarray(_equilateral(0.0, flip=False) + _equilateral(5.0, flip=True))
    return Instance.unconstrained(pts, k=k)


def _three_circles(m: int = 12, k: int = 3) -> Instance:
    """Two small adjacent circles and one far big circle, m points each."""
    if m < 1:
        raise InputError("m must be at least 1")
    ang = 2.0 * np.pi * np.arange(m) / m
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    small_a = 0.3 * ring + [0.0, 0.5]
    small_b = 0.3 * ring + [0.0, -0.5]
    big = 1.0 * ring + [6.0, 0.0]
    return Instance.unconstrained(np.concatenate([small_a, small_b, big]), k=k)


def _prf2_counterexample(k: int = 2) -> Instance:
    """Four agents on a line with midpoint candidates.

    Every outcome that matches the group-level representation requirement
    still leaves some agent without enough personally-near centers, which
    separates the group form from the per-member form.
    """
    agents = np.asarray([0.0, 0.0, 1.0, 1.0])
    candidates = np.asarray([0.0, 0.5, 0.5, 1.0])
    return Instance.discrete(agents, candidates, k=k)


def _two_blobs(size: int = 20, separation: float = 10.0, k: int = 2) -> Instance:
    """Two compact square grids of `size` points, `separation` apart in x."""
    if size < 1:
        raise InputError("size must be at least 1")
    side = int(np.ceil(np.sqrt(size)))
    g = np.arange(side) * 0.1
    blob = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)[:size]
    other = blob + [float(separation), 0.0]
    return Instance.unconstrained(np.concatenate([blob, other]), k=k)


def _grid_uniform(rows: int = 5, cols: int = 5, spacing: float = 1.0, k: int = 4) -> Instance:
    """A rows-by-cols lattice of agents with shared candidate locations."""
    if rows < 1 or cols < 1:
        raise InputError("rows and cols must be at least 1")
    r = np.arange(rows) * float(spacing)
    c = np.arange(cols) * float(spacing)
    pts = np.stack(np.meshgrid(r, c, indexing="ij"), axis=-1).reshape(-1, 2)
    return Instance.unconstrained(pts, k=k)


GENERATORS = {
    "two_mass": _two_mass,
    "hexagon": _hexagon,
    "three_circles": _three_circles,
    "prf2_counterexample": _prf2_counterexample,
    "two_blobs": _two_blobs,
    "grid_uniform": _grid_uniform,
}


def generate(name: str, **params) -> Instance:
    """Build a named instance; unknown names, parameters or bad values raise InputError."""
    fn = GENERATORS.get(name)
    if fn is None:
        raise InputError(f"unknown generator {name!r}; expected one of {', '.join(GENERATORS)}")
    # a parameter has its default's type, tested exactly: a count is an int
    # (int() would truncate 2.7) and a length an int or a float, never a
    # bool or a string; a name the generator lacks fails in the call
    defaults = inspect.signature(fn).parameters
    for key, value in params.items():
        if key in defaults and type(value) not in (type(defaults[key].default), int):
            what = "an integer" if type(defaults[key].default) is int else "a number"
            raise InputError(f"generator {name!r}: parameter {key!r} must be {what}, got {value!r}")
    try:
        return fn(**params)
    except InputError:
        raise
    except TypeError:
        raise InputError(f"generator {name!r} does not accept parameters {sorted(params)}") from None
    except (OverflowError, ValueError) as exc:
        raise InputError(f"generator {name!r}: bad parameter value ({exc})") from None
    except MemoryError:
        raise InputError(f"generator {name!r}: the instance does not fit in memory") from None


# ---------------------------------------------------------------------------
# run records


def trace_to_json_obj(trace: SweepTrace) -> list:
    # the engine (and the parser) share one Fraction per value, so weights
    # are formatted by object identity, a round's only when it holds an
    # object not seen before; keying by the Fraction itself would cost more,
    # since its hash is slower than its str
    text: dict[int, str] = {}

    def strs(weights) -> list[str]:
        keys = list(map(id, weights))
        if not text.keys() >= set(keys):
            text.update(zip(keys, map(str, weights)))
        return list(map(text.__getitem__, keys))

    return [
        {
            "radius": float(r.radius),
            "winner": int(r.winner),
            "support": str(r.support),
            "supporters": list(map(int, r.supporters)),
            "weight_before": strs(r.weights_before),
            "weight_after": strs(r.weights_after),
        }
        for r in trace.rounds
    ]


def trace_from_json_obj(obj: list) -> SweepTrace:
    """Read a stored trace exactly: a field of another JSON type raises InputError."""
    if type(obj) is not list:
        raise InputError("'trace' must be a JSON list")
    # weights are multiples of 1/k, so a trace repeats a few strings many
    # times; each is parsed once and the immutable Fraction shared.  Only a
    # string is ever parsed, and no other value equals a string key
    parsed: dict[str, Fraction] = {}

    def frac(text: str) -> Fraction:
        if text not in parsed:
            if type(text) is not str:
                raise InputError("a trace weight or support must be a JSON str")
            parsed[text] = Fraction(text)
        return parsed[text]

    def fracs(values, key: str) -> tuple[Fraction, ...]:
        if type(values) is not list:
            raise InputError(f"trace {key!r} must be a JSON str list")
        return tuple(map(frac, values))

    rounds = tuple(
        SweepRound(
            radius=_number(r["radius"], "trace 'radius'"),
            winner=_exact(r["winner"], int, "trace 'winner'", many=False),
            support=frac(r["support"]),
            supporters=_exact(r["supporters"], int, "trace 'supporters'"),
            weights_before=fracs(r["weight_before"], "weight_before"),
            weights_after=fracs(r["weight_after"], "weight_after"),
        )
        for r in obj
    )
    return SweepTrace(rounds=rounds)


@dataclass(frozen=True)
class RunRecord:
    """Everything one selection run produced, in replayable form."""

    algorithm: str
    k: int
    seed: int | None
    instance_digest: str
    metric: str
    selected: tuple[int, ...]
    coordinates: tuple[tuple[float, ...], ...] | None = None
    candidate_coordinates: tuple[tuple[float, ...], ...] | None = None
    underfilled: bool = False
    padded: tuple[int, ...] = ()
    trace: SweepTrace | None = None
    reports: tuple[AxiomReport, ...] = ()
    metrics: dict = field(default_factory=dict)
    # compact JSON text of the coordinate fields, keyed by field name, from
    # the instance (set by record_for only: a replaced or parsed record has
    # none, so it can never write text that disagrees with its fields)
    _coordinate_text: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def to_json_obj(self) -> dict:
        return {
            "schema_version": 1,
            "instance_digest": self.instance_digest,
            "algorithm": self.algorithm,
            "k": self.k,
            "seed": self.seed,
            "metric": self.metric,
            # the rows as they are: tuples encode as JSON arrays
            "coordinates": self.coordinates,
            "candidate_coordinates": self.candidate_coordinates,
            "selected": list(self.selected),
            "underfilled": self.underfilled,
            "padded": list(self.padded),
            "trace": None if self.trace is None else trace_to_json_obj(self.trace),
            "reports": [r.to_json_obj() for r in self.reports],
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunRecord":
        version = _exact(obj.get("schema_version"), int, "'schema_version'", many=False)
        if version != 1:
            raise InputError(f"unsupported run record schema {version!r}")
        coords = obj.get("coordinates")
        cand = obj.get("candidate_coordinates")
        trace = obj.get("trace")
        seed = obj.get("seed")
        metrics = obj.get("metrics", {})
        if not isinstance(metrics, dict):
            raise InputError("'metrics' must be a JSON object")
        return cls(
            algorithm=_exact(obj["algorithm"], str, "'algorithm'", many=False),
            k=_exact(obj["k"], int, "'k'", many=False),
            seed=None if seed is None else _exact(seed, int, "'seed'", many=False),
            instance_digest=_exact(obj["instance_digest"], str, "'instance_digest'", many=False),
            metric=_exact(obj["metric"], str, "'metric'", many=False),
            selected=_exact(obj["selected"], int, "'selected'"),
            coordinates=_float_rows(coords, "coordinates"),
            candidate_coordinates=_float_rows(cand, "candidate_coordinates"),
            underfilled=_exact(obj.get("underfilled", False), bool, "'underfilled'", many=False),
            padded=_exact(obj.get("padded", []), int, "'padded'"),
            trace=None if trace is None else trace_from_json_obj(trace),
            reports=tuple(map(AxiomReport.from_json_obj, _exact(obj.get("reports", []), dict, "'reports'"))),
            metrics={k: None if v is None else _number(v, f"metric {k!r}") for k, v in metrics.items()},
        )


def _float_rows(rows, key: str):
    """``rows``, a JSON list of lists of numbers, as float tuples; ints are converted, ragged rows load."""
    if rows is None:
        return None
    if type(rows) is list and set(map(type, rows)) <= {list}:
        kinds = set(map(type, chain.from_iterable(rows)))
        if kinds <= {int, float}:
            return tuple(map(tuple, rows)) if kinds <= {float} else tuple(tuple(map(float, row)) for row in rows)
    raise InputError(f"{key!r} must be a JSON list of lists of numbers")


def record_for(inst: Instance, algorithm: str, outcome, seed=None, **extra) -> RunRecord:
    """Assemble a record for an outcome on this instance."""
    coords = None if inst.agents is None else tuple(map(tuple, inst.agents.tolist()))
    # candidates equal to the agents but for signed zeros are their own array, and the digest covers them
    cand = None if inst.candidates is inst.agents else tuple(map(tuple, inst.candidates.tolist()))
    record = RunRecord(
        algorithm=algorithm,
        k=inst.k,
        seed=seed,
        instance_digest=inst.digest,
        metric=inst.metric,
        selected=tuple(outcome.selected),
        coordinates=coords,
        candidate_coordinates=cand,
        **extra,
    )
    if coords is not None:
        agents, candidates = inst._coordinate_json
        record._coordinate_text["coordinates"] = agents
        if cand is not None:
            record._coordinate_text["candidate_coordinates"] = candidates
    return record


_ROWS = 256  # coordinate rows laid out per piece
_SCALARS = frozenset((int, float, bool, type(None), str))
_encode = json.JSONEncoder().encode  # the C encoder, for leaves and flat lists
_string = json.encoder.encode_basestring_ascii


@dataclass(frozen=True)
class _RowsText:
    """The compact JSON text of a nonempty list of nonempty numeric rows.

    A holder rather than a ``str`` subclass, which would copy the text.
    """

    text: str


def _indented(obj, pad: str):
    """Yield the text of ``json.dumps(obj, indent=2)`` in pieces.

    ``pad`` is the indent of the line ``obj`` starts on; dict keys must be
    strings.  A list of strings that need no escaping (a trace's fraction
    weights) is joined directly.  Any other list of scalars is C-encoded at
    once, and each ``", "`` separator becomes a line break: no number
    contains a comma, and the count catches a string that does.  A
    :class:`_RowsText`, the one form in which a record's coordinates reach
    this function (see :func:`write_run_record`), is laid out from its text
    by :func:`_rows_from_text`, so no piece is ever a large string.  Any
    other list is laid out item by item.
    """
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            yield sep + _string(key) + ": "
            yield from _indented(value, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif type(obj) is _RowsText:
        yield from _rows_from_text(obj.text, pad)
    elif not isinstance(obj, (list, tuple)):
        yield _encode(obj)
    elif not obj:
        yield "[]"
    else:
        inner = pad + "  "
        kinds = set(map(type, obj))
        if kinds == {str}:
            # the encoder leaves printable ASCII as it is, except '"' and '\\'
            chars = "".join(obj)
            if chars.isascii() and chars.isprintable() and '"' not in chars and "\\" not in chars:
                yield '[\n' + inner + '"' + ('",\n' + inner + '"').join(obj) + '"\n' + pad + "]"
                return
        if kinds <= _SCALARS:
            text = _encode(obj)
            if str not in kinds or text.count(", ") == len(obj) - 1:
                yield "[\n" + inner + text[1:-1].replace(", ", ",\n" + inner) + "\n" + pad + "]"
                return
        sep = "[\n" + inner
        for item in obj:
            yield sep
            yield from _indented(item, inner)
            sep = ",\n" + inner
        yield "\n" + pad + "]"


def _rows_from_text(text: str, pad: str):
    """Yield ``json.dumps(rows, indent=2)`` from ``text``, the compact JSON of ``rows``.

    ``rows`` is a nonempty list of nonempty numeric rows, so a number's
    text holds no ``,``, ``[`` or ``]``: every ``,`` becomes a line break,
    and then the row seam ``],`` + break + ``[`` is laid out (in that order,
    or the seam's own comma would be split).  Each piece is cut at a seam
    about ``_ROWS`` rows on.
    """
    inner, deeper = pad + "  ", pad + "    "
    comma = ",\n" + deeper
    seam = "\n" + inner + "],\n" + inner + "[\n" + deeper
    step = len(text) * _ROWS // (text.count("],[") + 1)  # characters in about _ROWS rows
    end = len(text) - 2
    start, sep = 2, "[\n" + inner + "[\n" + deeper
    while start < end:
        stop = text.find("],[", start + step, end)
        stop = end if stop < 0 else stop
        yield sep + text[start:stop].replace(",", comma).replace("]" + comma + "[", seam)
        start, sep = stop + 3, seam
    yield "\n" + inner + "]\n" + pad + "]"


def write_run_record(path, record: RunRecord) -> None:
    """Write ``record`` as ``json.dumps(record.to_json_obj(), indent=2) + "\\n"``.

    The bytes are exactly those, but :func:`_indented` produces them in
    pieces, and each piece is written as it comes, so the document is
    never one string.  Coordinates are laid out from their compact JSON
    text: the text the instance rendered once for its digest, for a record
    made by :func:`record_for`, or else (a record read back, or made with
    ``dataclasses.replace``) text rendered here and held while the record
    is written: 0.76 MiB at n = 5000 in 8-D, where the render itself peaks
    at 4.1 MiB.  perfbench's ``expected.json`` digests pin these bytes.
    """
    obj = record.to_json_obj()
    for key in ("coordinates", "candidate_coordinates"):
        text, rows = record._coordinate_text.get(key), obj[key]
        # only nonempty rows of numbers have the text layout; other values take the generic one
        if text is None and rows and set(map(type, rows)) <= {list, tuple} and all(rows):
            if set(map(type, chain.from_iterable(rows))) <= {int, float}:
                text = _compact(rows)
        if text is not None:
            obj[key] = _RowsText(text)
    with open(path, "w") as fh:
        fh.writelines(_indented(obj, ""))
        fh.write("\n")


def _read_json(path):
    """Parse a JSON file; an unreadable or unparsable one raises InputError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from None


def read_run_record(path, instance: Instance | None = None) -> RunRecord:
    """Load a record; with ``instance`` given, verify it matches by digest."""
    obj = _read_json(path)
    try:
        record = RunRecord.from_json_obj(obj)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed run record ({type(exc).__name__}: {exc})") from None
    if instance is not None and record.instance_digest != instance.digest:
        raise InputError(
            f"{path}: run record digest {record.instance_digest[:12]}... does not match "
            f"the instance ({instance.digest[:12]}...)"
        )
    return record


def instance_from_record(record: RunRecord) -> Instance:
    """Rebuild the instance a record was produced from, verified by digest."""
    if record.coordinates is None:
        raise InputError("run record stores no coordinates; supply the instance separately")
    if record.candidate_coordinates is None:
        inst = Instance.unconstrained(record.coordinates, k=record.k, metric=record.metric)
    else:
        inst = Instance.discrete(
            record.coordinates, record.candidate_coordinates, k=record.k, metric=record.metric
        )
    if inst.digest != record.instance_digest:
        raise InputError(
            "run record digest does not match its own coordinates; the record is corrupt"
        )
    return inst


# ---------------------------------------------------------------------------
# experiment grid files


def load_grid(path):
    """Read an experiment grid JSON into an ExperimentGrid.

    Schema: ``datasets`` is a list of entries each holding either
    ``generator`` (a built-in name, with optional ``params``) or ``path``
    (a point CSV, with optional ``metric`` and ``standardize``), plus an
    optional ``name`` (defaults to the generator name or file stem);
    ``ks`` is required; ``algorithms``, ``seeds``, and ``metrics`` are
    optional with the usual defaults.
    """
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: grid must be a JSON object")
    entries = obj.get("datasets")
    if not entries or not isinstance(entries, list):
        raise InputError(f"{path}: grid needs a non-empty 'datasets' list")
    datasets = []
    for idx, entry in enumerate(entries):
        where = f"{path}: datasets[{idx}]"
        if not isinstance(entry, dict):
            raise InputError(f"{where} must be an object")
        gen_name, params = entry.get("generator"), entry.get("params", {})
        if isinstance(gen_name, str) and isinstance(params, dict):
            try:
                inst = generate(gen_name, **params)
            except InputError as exc:
                raise InputError(f"{where}: {exc}") from None
            name = entry.get("name", gen_name)
        elif "generator" not in entry and isinstance(entry.get("path"), str):
            standardize = entry.get("standardize", False)
            metric = _exact(entry.get("metric", "euclidean"), str, f"{where}: 'metric'", many=False)
            standardize = _exact(standardize, bool, f"{where}: 'standardize'", many=False)
            try:
                inst = load_csv(entry["path"], k=1, metric=metric, standardize=standardize)
            except InputError as exc:
                raise InputError(f"{where}: {exc}") from None
            name = entry.get("name", Path(entry["path"]).stem)
        else:
            raise InputError(f"{where} needs a 'generator' name with object 'params', or a 'path'")
        datasets.append((_exact(name, str, f"{where}: 'name'", many=False), inst))
    if not obj.get("ks"):
        raise InputError(f"{path}: grid needs a non-empty 'ks' list")
    axes = {"ks": int, "algorithms": str, "seeds": int, "metrics": str}
    kwargs = {
        key: _exact(obj[key], kind, f"{path}: {key!r}") for key, kind in axes.items() if key in obj
    }
    try:
        return ExperimentGrid(datasets=tuple(datasets), **kwargs)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
