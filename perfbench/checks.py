"""Correctness gate: output digests and per-op invariants.

An op's output is its exit code, its stdout and the bytes of every file it
writes.  ``digest`` hashes all three.  ``problems`` re-checks an output
against invariants that hold for any seed; it runs after the timed loop,
once per distinct output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

from propclust.axioms import AxiomReport, Witness, check_up, recheck_witness
from propclust.core import InputError, Outcome
from propclust.data_io import RunRecord, instance_from_record, load_csv, read_run_record

_VIOLATION = re.compile(r"^(\w+): VIOLATED (.*)$")
_REPORT = re.compile(r"^(\w+): (satisfied|no violation found \(sampled, not definitive\)|VIOLATED .*)$")


@dataclass(frozen=True)
class Output:
    code: int | None  # None when the op raised
    stdout: str
    files: tuple[tuple[str, bytes | None], ...]  # None for a file that was not written
    error: str = ""


def digest(out: Output) -> str:
    h = hashlib.sha256()
    h.update(f"exit {out.code}\n".encode())
    h.update(out.stdout.encode())
    for name, data in out.files:
        h.update(f"\nfile {name} {'missing' if data is None else len(data)}\n".encode())
        h.update(data or b"")
    return h.hexdigest()


def problems(op, out: Output) -> list[str]:
    """Every invariant the output breaks (empty when it is correct)."""
    if out.code is None:
        return [f"raised {out.error}"]
    if out.code not in op.exit_codes:
        return [f"exit code {out.code}, expected one of {op.exit_codes}"]
    missing = [name for name, data in out.files if data is None]
    if missing:
        return [f"did not write {', '.join(missing)}"]
    try:
        return _CHECKS[op.kind](op, out)
    except (InputError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _cluster(op, out: Output) -> list[str]:
    found = []
    record = RunRecord.from_json_obj(json.loads(out.files[0][1]))
    inst = instance_from_record(record)  # raises if the record's digest is wrong
    if load_csv(op.source, k=inst.k).digest != record.instance_digest:
        found.append("record does not describe the input file")
    outcome = Outcome(record.selected)  # raises on a repeated index
    outcome.validate(inst)
    sel = list(record.selected)
    if f"selected: {','.join(map(str, sel))}" not in out.stdout.splitlines():
        found.append("stdout and record disagree on the selection")
    algo = op.argv[op.argv.index("--algo") + 1]
    if algo == "prf":
        if len(sel) != inst.k:
            found.append(f"prf selected {len(sel)} centers, k={inst.k}")
        if record.trace is None or [r.winner for r in record.trace.rounds] != sel:
            found.append("trace winners differ from the selection")
        if not check_up(inst, outcome).satisfied:
            found.append("prf outcome violates UP")
    elif algo == "greedy":
        padded = list(record.padded)
        if len(sel) != inst.k:
            found.append(f"padded greedy selected {len(sel)} centers, k={inst.k}")
        if padded and (not record.underfilled or sel[len(sel) - len(padded):] != padded):
            found.append("greedy padding is inconsistent with the selection")
    return found


def _check(op, out: Output) -> list[str]:
    found = []
    record = read_run_record(op.source)
    inst = instance_from_record(record)
    outcome = Outcome(record.selected)
    lines = out.stdout.splitlines()
    expected = len(op.argv[op.argv.index("--axioms") + 1].split(","))
    if len(lines) != expected or not all(_REPORT.match(line) for line in lines):
        found.append(f"expected {expected} report lines, got {lines!r}")
    violated = 0
    for line in lines:
        match = _VIOLATION.match(line)
        if match is None:
            continue
        violated += 1
        report = AxiomReport(match.group(1), satisfied=False, witness=_witness(match.group(2)))
        if not recheck_witness(inst, outcome, report):
            found.append(f"witness does not re-verify: {line[:80]}")
    if out.code != (2 if violated else 0):
        found.append(f"exit code {out.code} with {violated} violations")
    return found


def _witness(text: str) -> Witness:
    fields = dict(part.split("=", 1) for part in text.split())
    return Witness(
        agents=tuple(int(a) for a in fields["agents"].split(",")),
        candidate=int(fields["candidate"]) if "candidate" in fields else None,
        radius=float(fields["radius"]) if "radius" in fields else None,
        required=int(fields["required"]) if "required" in fields else None,
        found=int(fields["found"]) if "found" in fields else None,
    )


def _experiment(op, out: Output) -> list[str]:
    found = []
    grid = json.loads(Path(op.source).read_text())
    per_k = len(grid["algorithms"]) - 1 + len(grid["seeds"])  # kmeanspp runs once per seed
    n_rows = len(grid["ks"]) * per_k * len(grid["metrics"])
    n_aggs = len(grid["ks"]) * len(grid["algorithms"]) * len(grid["metrics"])
    rows = list(csv.DictReader(io.StringIO(out.files[0][1].decode())))
    aggs = json.loads(out.files[1][1])
    if len(rows) != n_rows or len(aggs) != n_aggs:
        found.append(f"{len(rows)} rows and {len(aggs)} aggregates, expected {n_rows} and {n_aggs}")
    # greedy runs padded in the harness, so every metric is defined
    for row in rows:
        if row["value"] == "" or float(row["value"]) < 0:
            found.append(f"bad row {row}")
            break
    stated = [f"wrote {n_rows} rows to {op.writes[0]}", f"wrote {n_aggs} aggregates to {op.writes[1]}"]
    if out.stdout.splitlines() != stated:
        found.append("stdout does not state the rows and aggregates written")
    return found


_CHECKS = {"cluster": _cluster, "check": _check, "experiment": _experiment}
