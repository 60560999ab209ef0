"""File formats and built-in instance generators.

Point files are CSV with a header row.  Every column is a coordinate
except two reserved names: ``role`` (values ``agent`` or ``candidate``;
absent means every point is both) and ``id`` (free-form label, ignored).
Results of a run serialize to a single JSON document (:class:`RunRecord`)
with a fixed key order, exact rational weights rendered as fraction
strings, and the instance digest embedded so a record can be matched
back to its inputs.  Its bytes are exactly ``json.dumps(obj, indent=2)``
plus a newline, written in pieces by the C encoder (see
:func:`write_run_record`); perfbench's ``expected.json`` digests pin them.

Generators are deterministic functions of their parameters; none draw
random numbers, so a generated CSV is byte-identical across runs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from propclust.axioms import AxiomReport
from propclust.core import InputError, Instance
from propclust.engine import SweepRound, SweepTrace

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
    pts = np.concatenate([np.zeros(int(a)), np.ones(int(b))])
    return Instance.unconstrained(pts, k=int(k))


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
    return Instance.unconstrained(pts, k=int(k))


def _three_circles(m: int = 12, k: int = 3) -> Instance:
    """Two small adjacent circles and one far big circle, m points each."""
    m = int(m)
    if m < 1:
        raise InputError("m must be at least 1")
    ang = 2.0 * np.pi * np.arange(m) / m
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    small_a = 0.3 * ring + [0.0, 0.5]
    small_b = 0.3 * ring + [0.0, -0.5]
    big = 1.0 * ring + [6.0, 0.0]
    return Instance.unconstrained(np.concatenate([small_a, small_b, big]), k=int(k))


def _prf2_counterexample(k: int = 2) -> Instance:
    """Four agents on a line with midpoint candidates.

    Every outcome that matches the group-level representation requirement
    still leaves some agent without enough personally-near centers, which
    separates the group form from the per-member form.
    """
    agents = np.asarray([0.0, 0.0, 1.0, 1.0])
    candidates = np.asarray([0.0, 0.5, 0.5, 1.0])
    return Instance.discrete(agents, candidates, k=int(k))


def _two_blobs(size: int = 20, separation: float = 10.0, k: int = 2) -> Instance:
    """Two compact square grids of `size` points, `separation` apart in x."""
    size = int(size)
    if size < 1:
        raise InputError("size must be at least 1")
    side = int(np.ceil(np.sqrt(size)))
    g = np.arange(side) * 0.1
    blob = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)[:size]
    other = blob + [float(separation), 0.0]
    return Instance.unconstrained(np.concatenate([blob, other]), k=int(k))


def _grid_uniform(rows: int = 5, cols: int = 5, spacing: float = 1.0, k: int = 4) -> Instance:
    """A rows-by-cols lattice of agents with shared candidate locations."""
    rows, cols = int(rows), int(cols)
    if rows < 1 or cols < 1:
        raise InputError("rows and cols must be at least 1")
    r = np.arange(rows) * float(spacing)
    c = np.arange(cols) * float(spacing)
    pts = np.stack(np.meshgrid(r, c, indexing="ij"), axis=-1).reshape(-1, 2)
    return Instance.unconstrained(pts, k=int(k))


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
    try:
        return fn(**params)
    except InputError:
        raise
    except TypeError:
        raise InputError(f"generator {name!r} does not accept parameters {sorted(params)}") from None
    except (OverflowError, ValueError) as exc:
        raise InputError(f"generator {name!r}: bad parameter value ({exc})") from None


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
    # weights are multiples of 1/k, so a trace repeats a few strings many
    # times; each is parsed once and the immutable Fraction shared
    parsed: dict[str, Fraction] = {}

    def frac(text: str) -> Fraction:
        if text not in parsed:
            parsed[text] = Fraction(text)
        return parsed[text]

    rounds = tuple(
        SweepRound(
            radius=float(r["radius"]),
            winner=int(r["winner"]),
            support=frac(r["support"]),
            supporters=tuple(int(i) for i in r["supporters"]),
            weights_before=tuple(map(frac, r["weight_before"])),
            weights_after=tuple(map(frac, r["weight_after"])),
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
        if obj.get("schema_version") != 1:
            raise InputError(f"unsupported run record schema {obj.get('schema_version')!r}")
        coords = obj.get("coordinates")
        cand = obj.get("candidate_coordinates")
        trace = obj.get("trace")
        return cls(
            algorithm=str(obj["algorithm"]),
            k=int(obj["k"]),
            seed=None if obj.get("seed") is None else int(obj["seed"]),
            instance_digest=str(obj["instance_digest"]),
            metric=str(obj["metric"]),
            selected=tuple(int(i) for i in obj["selected"]),
            coordinates=_float_rows(coords),
            candidate_coordinates=_float_rows(cand),
            underfilled=bool(obj.get("underfilled", False)),
            padded=tuple(int(i) for i in obj.get("padded", [])),
            trace=None if trace is None else trace_from_json_obj(trace),
            reports=tuple(AxiomReport.from_json_obj(r) for r in obj.get("reports", [])),
            metrics=dict(obj.get("metrics", {})),
        )


def _float_rows(rows):
    """``rows`` as a tuple of float tuples; JSON reads floats, but an int written by hand is converted."""
    if rows is None:
        return None
    if set(map(type, chain.from_iterable(rows))) <= {float}:
        return tuple(map(tuple, rows))
    return tuple(tuple(float(v) for v in row) for row in rows)


def record_for(inst: Instance, algorithm: str, outcome, seed=None, **extra) -> RunRecord:
    """Assemble a record for an outcome on this instance."""
    coords = None if inst.agents is None else tuple(map(tuple, inst.agents.tolist()))
    cand = None
    if not inst.is_unconstrained and inst.candidates is not None:
        cand = tuple(map(tuple, inst.candidates.tolist()))
    return RunRecord(
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


_ROWS = 256  # rows of a numeric matrix encoded per piece
_NUMBERS = frozenset((int, float, bool, type(None)))
_SCALARS = _NUMBERS | {str}
_encode = json.JSONEncoder().encode  # the C encoder, for leaves and flat lists
_string = json.encoder.encode_basestring_ascii


def _indented(obj, pad: str):
    """Yield the text of ``json.dumps(obj, indent=2)`` in pieces.

    ``pad`` is the indent of the line ``obj`` starts on; dict keys must be
    strings.  A list of scalars is C-encoded at once, and each ``", "``
    separator becomes a line break: no number contains a comma, and the
    count catches a string that does.  A list of numeric rows is encoded
    ``_ROWS`` rows per piece the same way, with ``"], ["`` as the row seam,
    so no piece is ever a large string.
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
    elif not isinstance(obj, (list, tuple)):
        yield _encode(obj)
    elif not obj:
        yield "[]"
    else:
        inner, deeper = pad + "  ", pad + "    "
        kinds = set(map(type, obj))
        if kinds <= _SCALARS:
            text = _encode(obj)
            if str not in kinds or text.count(", ") == len(obj) - 1:
                yield "[\n" + inner + text[1:-1].replace(", ", ",\n" + inner) + "\n" + pad + "]"
                return
        rows = kinds <= {list, tuple} and all(obj)
        seam = "\n" + inner + "],\n" + inner + "[\n" + deeper
        sep = "[\n" + inner
        for start in range(0, len(obj), _ROWS):
            chunk = obj[start : start + _ROWS]
            if rows and set(map(type, chain.from_iterable(chunk))) <= _NUMBERS:
                body = _encode(chunk)[2:-2].replace("], [", seam).replace(", ", ",\n" + deeper)
                yield sep + "[\n" + deeper + body + "\n" + inner + "]"
                sep = ",\n" + inner
                continue
            for item in chunk:
                yield sep
                yield from _indented(item, inner)
                sep = ",\n" + inner
        yield "\n" + pad + "]"


def write_run_record(path, record: RunRecord) -> None:
    """Write ``record`` as ``json.dumps(record.to_json_obj(), indent=2) + "\\n"``.

    The bytes are exactly those, but :func:`_indented` produces them in
    pieces with the C encoder, and each piece is written as it comes, so
    the document is never one string.  perfbench's ``expected.json``
    digests pin these bytes.
    """
    with open(path, "w") as fh:
        fh.writelines(_indented(record.to_json_obj(), ""))
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
    from propclust.evaluation import ExperimentGrid

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
            inst = load_csv(
                entry["path"],
                k=1,
                metric=entry.get("metric", "euclidean"),
                standardize=bool(entry.get("standardize", False)),
            )
            name = entry.get("name", Path(entry["path"]).stem)
        else:
            raise InputError(f"{where} needs a 'generator' name with object 'params', or a 'path'")
        datasets.append((str(name), inst))
    if not obj.get("ks"):
        raise InputError(f"{path}: grid needs a non-empty 'ks' list")
    ks = _grid_list(path, obj, "ks", int)
    axes = {"algorithms": str, "seeds": int, "metrics": str}
    kwargs = {key: _grid_list(path, obj, key, kind) for key, kind in axes.items() if key in obj}
    return ExperimentGrid(datasets=tuple(datasets), ks=ks, **kwargs)


def _grid_list(path, obj: dict, key: str, kind: type) -> tuple:
    """``obj[key]`` as a tuple, checked to be a JSON list of ``kind`` values."""
    values = obj[key]
    # exact types: bool is an int subclass, and a float k would be truncated
    if not isinstance(values, list) or any(type(v) is not kind for v in values):
        raise InputError(f"{path}: {key!r} must be a list of {kind.__name__} values")
    return tuple(values)
