"""Benchmark worker; run.py starts one process per step.

    worker.py prep    --dir D --workload W --seed N --size full|tiny
    worker.py warmup  --dir D
    worker.py measure --dir D --workload W --seed N --size full|tiny
                      --seconds T --trace 0|1

``prep`` writes the inputs and the op list into the work directory D.
``warmup`` imports propclust and runs the warm-up op once (run.py times whole
``warmup`` processes for setup_s).  ``measure`` runs the warm-up op, then the
closed loop: one client, ops back to back, each an in-process
``propclust.cli.main(argv)`` call with stdout captured.  It writes raw
latencies, digests, failures and ru_maxrss to D/measure.json.  Measuring in
a process of its own keeps input generation out of ru_maxrss.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

EXPECTED = HERE / "expected.json"

# these import propclust, so they come after src/ is on the path
from checks import Output, digest, problems  # noqa: E402
from speed import probe  # noqa: E402
from workloads import DOMINANT_LAYER, op_from_json, prepare  # noqa: E402


def _import_cli():
    import propclust.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported propclust from {cli.__file__}, not from {SRC}")
    return cli


def _load_ops(workdir: Path):
    obj = json.loads((workdir / "ops.json").read_text())
    return [op_from_json(o) for o in obj["pool"]], op_from_json(obj["warmup"])


def run_op(main, op, tracer=None):
    """One op; returns (latency in seconds, Output)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            code = main(list(op.argv))
        except Exception as exc:  # a raising op is a failed op; the loop goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if tracer is not None:
            latency = tracer.end_op()
    files = tuple((name, Path(name).read_bytes() if Path(name).exists() else None) for name in op.writes)
    for name in op.writes:
        if Path(name).exists():
            os.unlink(name)  # a later op of the same input must write it anew
    return latency, Output(code, out.getvalue(), files, error)


def timed_loop(main, pool, seconds, outputs, tracer=None, first_index=0):
    """Run ops back to back for ``seconds``.

    Returns per-op (item, latency, digest) and the CPU-speed probes taken
    between ops (one more than there are ops; see speed.normalise).  Only the
    first output with each (item, digest) is kept, in ``outputs``, so the
    loop's memory does not grow with the number of ops.
    """
    ops = []
    probes = [probe()]
    start = time.perf_counter()
    index = first_index
    while time.perf_counter() - start < seconds:
        item = index % len(pool)
        latency, out = run_op(main, pool[item], tracer)
        probes.append(probe())
        d = digest(out)
        outputs.setdefault((item, d), out)
        ops.append((item, latency, d))
        index += 1
    return ops, probes


def judge(pool, ops, outputs, expected):
    """Mark failed ops; returns (per-op failure reasons, majority digest per item).

    Without recorded digests, an input's reference is the digest most of its
    ops produced: every repeat of one input must give the same output.
    """
    seen = {}
    for item, _, d in ops:
        seen.setdefault(item, Counter())[d] += 1
    observed = [seen[i].most_common(1)[0][0] if i in seen else None for i in range(len(pool))]
    reference = observed if expected is None else expected

    verdicts = {key: problems(pool[key[0]], out) for key, out in outputs.items()}
    reasons = []
    for item, _, d in ops:
        found = list(verdicts[item, d])
        if d != reference[item]:
            found.append(f"digest {d[:12]} differs from the reference {reference[item][:12]}")
        reasons.append(found)
    return reasons, observed


def _expected_digests(workload, seed, size):
    if size != "full" or not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))


def cmd_prep(args):
    os.chdir(args.dir)
    _import_cli()
    pool, warmup = prepare(args.workload, args.seed, args.size)
    obj = {"pool": [asdict(op) for op in pool], "warmup": asdict(warmup)}
    Path("ops.json").write_text(json.dumps(obj, indent=2) + "\n")


def _warm_up(cli, warmup) -> None:
    _, out = run_op(cli.main, warmup)
    if out.code not in warmup.exit_codes:
        raise SystemExit(f"warm-up op failed: exit {out.code} {out.error}")


def cmd_warmup(args):
    os.chdir(args.dir)
    cli = _import_cli()
    _warm_up(cli, _load_ops(Path("."))[1])


def cmd_measure(args):
    os.chdir(args.dir)
    cli = _import_cli()
    pool, warmup = _load_ops(Path("."))
    _warm_up(cli, warmup)

    result = {}
    outputs = {}
    if args.trace:
        import tracing

        # half the run untraced, half traced: their ratio is the overhead
        plain, probes = timed_loop(cli.main, pool, args.seconds / 2, outputs)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced, traced_probes = timed_loop(
                cli.main, pool, args.seconds / 2, outputs, tracer, first_index=len(plain)
            )
        finally:
            undo()
        layers, shares = tracing.layer_metrics(tracer)
        result.update(
            layers=layers,
            shares=shares,
            expected_dominant=DOMINANT_LAYER[args.workload],
            traced_latencies=[t for _, t, _ in traced],
            traced_probes=traced_probes,
        )
        Path("spans.jsonl").write_text(tracing.spans_to_jsonl(tracer))
        ops = plain + traced
    else:
        ops, probes = timed_loop(cli.main, pool, args.seconds, outputs)
        plain = ops
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    expected = _expected_digests(args.workload, args.seed, args.size)
    reasons, item_digests = judge(pool, ops, outputs, expected)
    result.update(
        latencies=[t for _, t, _ in plain],
        probes=probes,
        items=[item for item, _, _ in ops],
        reasons=reasons,
        item_digests=item_digests,
        digest_checked=expected is not None,
        peak_rss_mb=peak_kib / 1024,
        pool=[op.label for op in pool],
    )
    Path("measure.json").write_text(json.dumps(result) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("step", choices=["prep", "warmup", "measure"])
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    {"prep": cmd_prep, "warmup": cmd_warmup, "measure": cmd_measure}[args.step](args)


if __name__ == "__main__":
    main()
