"""Command-line interface.

Subcommands: ``gen`` (write a built-in instance as point CSV),
``cluster`` (run a selection rule, optionally saving a run record),
``check`` (test an outcome against fairness axioms), ``eval`` (score an
outcome), and ``experiment`` (sweep a grid file and emit result tables).

Exit codes: 0 on success, 1 on any input or usage error, 2 when
``check`` finds an axiom violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from propclust.axioms import (
    AXIOM_CORE,
    AXIOM_PF,
    AXIOM_PRF2,
    AXIOM_PRF3,
    AXIOM_PRF_DISC,
    AXIOM_PRF_UNC,
    AXIOM_UP,
    EXHAUSTIVE_LIMIT,
    AxiomReport,
    check_core,
    check_pf,
    check_prf2,
    check_prf3,
    check_prf_discrete,
    check_prf_unconstrained,
    check_up,
)
from propclust.baselines import greedy_capture, kmeanspp
from propclust.core import InputError, Instance, Outcome
from propclust.data_io import (
    RunRecord,
    generate,
    instance_from_record,
    instance_to_csv,
    load_csv,
    load_grid,
    read_run_record,
    record_for,
    write_run_record,
)
from propclust.engine import select_prf_centers
from propclust.evaluation import (
    ALGORITHM_NAMES,
    METRIC_KEYS,
    aggregate,
    aggregates_to_json,
    metric_value,
    run_experiment,
)

__all__ = ["build_parser", "entry", "main"]

# name -> check(inst, outcome, exhaustive=, seed=, samples=).  Each body looks
# its checker up when called, so a wrapper set on this module's name (as the
# benchmark's tracer does) sees the call
_CHECKS = {
    "up": lambda inst, outcome, **mode: check_up(inst, outcome),
    "pf": lambda inst, outcome, **mode: check_pf(inst, outcome),
    "core": lambda inst, outcome, **mode: check_core(inst, outcome),
    "prf": lambda inst, outcome, **mode: (
        check_prf_unconstrained if inst.is_unconstrained else check_prf_discrete
    )(inst, outcome, **mode),
    "prf2": lambda inst, outcome, **mode: check_prf2(inst, outcome),
    "prf3": lambda inst, outcome, **mode: check_prf3(inst, outcome),
}
_AXIOM_NAMES = tuple(_CHECKS)
_CODE_TO_NAME = {
    AXIOM_UP: "up",
    AXIOM_PF: "pf",
    AXIOM_CORE: "core",
    AXIOM_PRF_UNC: "prf",
    AXIOM_PRF_DISC: "prf",
    AXIOM_PRF2: "prf2",
    AXIOM_PRF3: "prf3",
}


class _Parser(argparse.ArgumentParser):
    """Usage errors surface as InputError so they share exit code 1."""

    def error(self, message):
        raise InputError(message)


def _non_negative(text: str) -> int:
    """A --seed or --samples value: a non-negative integer, checked when the arguments are parsed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise InputError(f"cannot parse {text!r} as a number") from None


def _parse_params(text: str | None) -> dict:
    params = {}
    if text:
        for part in text.split(","):
            key, eq, val = part.partition("=")
            if not eq or not key.strip():
                raise InputError(f"bad parameter {part!r}; expected key=value")
            params[key.strip()] = _parse_number(val.strip())
    return params


def _parse_selected(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise InputError(f"cannot parse {text!r} as comma-separated indices") from None


def _parse_axioms(text: str | None) -> list[str] | None:
    if text is None:
        return None
    names = [p.strip() for p in text.split(",") if p.strip()]
    if names == ["all"]:
        return ["all"]
    for name in names:
        if name not in _AXIOM_NAMES:
            raise InputError(
                f"unknown axiom {name!r}; expected one of {', '.join(_AXIOM_NAMES)} or all"
            )
    if not names:
        raise InputError("--axioms needs at least one name")
    return names


def _parse_metrics(text: str | None) -> tuple[str, ...]:
    if text is None:
        return METRIC_KEYS
    keys = [p.strip() for p in text.split(",") if p.strip()]
    for key in keys:
        if key not in METRIC_KEYS:
            raise InputError(f"unknown metric {key!r}; expected one of {', '.join(METRIC_KEYS)}")
    if not keys:
        raise InputError("--metrics needs at least one name")
    return tuple(keys)


def _load_input_instance(args) -> Instance:
    if args.input is None:
        raise InputError("--input is required")
    if args.k is None:
        raise InputError("--k is required with --input")
    return load_csv(args.input, k=args.k, metric=args.metric, standardize=args.standardize)


def _instance_and_outcome(args) -> tuple[Instance, Outcome, RunRecord | None]:
    """Resolve --run / --input / --selected into an instance plus outcome.

    Also returns the run record read for --run, or None with --input.
    """
    record = None
    if args.run is not None:
        inst = None if args.input is None else _load_input_instance(args)
        record = read_run_record(args.run, instance=inst)
        if inst is None:
            try:
                inst = instance_from_record(record)
            except InputError as exc:
                raise InputError(f"{args.run}: {exc}") from None
        if args.selected is not None:
            raise InputError("--selected cannot be combined with --run")
        outcome = Outcome(record.selected)
    else:
        if args.input is None:
            raise InputError("either --run or --input is required")
        if args.selected is None:
            raise InputError("--selected is required with --input")
        inst = _load_input_instance(args)
        outcome = Outcome(_parse_selected(args.selected))
    outcome.validate(inst)
    return inst, outcome, record


def _run_checks(inst, outcome, names, exhaustive, seed, samples) -> list[AxiomReport]:
    if "all" in names:
        names = ["up", "pf", "core", "prf"]
        if inst.n <= EXHAUSTIVE_LIMIT:
            names += ["prf2", "prf3"]
    mode = {"exhaustive": exhaustive, "seed": seed, "samples": samples}
    return [_CHECKS[name](inst, outcome, **mode) for name in names]


def _format_report(rep: AxiomReport) -> str:
    if rep.satisfied:
        tail = "satisfied" if rep.definitive else "no violation found (sampled, not definitive)"
        return f"{rep.axiom}: {tail}"
    # the witness fields in order, without the note and those left unset
    fields = {**vars(rep.witness), "agents": ",".join(map(str, rep.witness.agents))}
    del fields["note"]
    parts = [f"{name}={value}" for name, value in fields.items() if value is not None]
    return " ".join([f"{rep.axiom}: VIOLATED", *parts])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    inst = generate(args.name, **_parse_params(args.params))
    text = instance_to_csv(inst)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {inst.n + (0 if inst.is_unconstrained else inst.m)} points to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cluster(args) -> int:
    inst = _load_input_instance(args)
    trace = None
    padded: tuple[int, ...] = ()
    underfilled = False
    seed = None
    if args.algo == "prf":
        outcome, trace = select_prf_centers(inst)
    elif args.algo == "kmeanspp":
        seed = args.seed
        outcome = kmeanspp(inst, seed=seed)
    else:
        result = greedy_capture(inst, pad=args.pad)
        outcome, padded, underfilled = result.outcome, result.padded, result.underfilled
    # nothing reads the rule's sorted order again: free it (half the matrix)
    # before the checks build their own structures
    inst.__dict__.pop("_candidate_order", None)
    metrics = {key: metric_value(inst, outcome, key) for key in METRIC_KEYS}
    names = _parse_axioms(args.axioms)
    reports = []
    if names:
        reports = _run_checks(inst, outcome, names, args.exhaustive, args.seed, args.samples)

    print(f"algorithm: {args.algo}")
    print(f"k: {inst.k}")
    print(f"selected: {','.join(str(i) for i in outcome.selected)}")
    if underfilled:
        print("underfilled: true")
    if padded:
        print(f"padded: {','.join(str(i) for i in padded)}")
    for key in METRIC_KEYS:
        shown = "missing" if metrics[key] is None else repr(metrics[key])
        print(f"{key}: {shown}")
    for rep in reports:
        print(_format_report(rep))
    if args.out:
        record = record_for(
            inst,
            args.algo,
            outcome,
            seed=seed,
            underfilled=underfilled,
            padded=padded,
            trace=trace,
            reports=tuple(reports),
            metrics=metrics,
        )
        write_run_record(args.out, record)
        print(f"wrote record to {args.out}")
    return 0


def _cmd_check(args) -> int:
    inst, outcome, record = _instance_and_outcome(args)
    names = _parse_axioms(args.axioms)
    if names is None:
        stored = [] if record is None else [_CODE_TO_NAME[r.axiom] for r in record.reports]
        seen = set()
        names = [n for n in stored if not (n in seen or seen.add(n))] or ["all"]
    reports = _run_checks(inst, outcome, names, args.exhaustive, args.seed, args.samples)
    for rep in reports:
        print(_format_report(rep))
    return 2 if any(not rep.satisfied for rep in reports) else 0


def _cmd_eval(args) -> int:
    inst, outcome, _ = _instance_and_outcome(args)
    for key in _parse_metrics(args.metrics):
        value = metric_value(inst, outcome, key, squared=not args.unsquared)
        print(f"{key} {'missing' if value is None else repr(value)}")
    return 0


def _cmd_experiment(args) -> int:
    grid = load_grid(args.grid)
    table = run_experiment(grid)
    if args.out:
        Path(args.out).write_text(table.to_csv())
        print(f"wrote {len(table.rows)} rows to {args.out}")
    else:
        sys.stdout.write(table.to_csv())
    aggs = aggregate(table)
    if args.aggregates:
        Path(args.aggregates).write_text(aggregates_to_json(aggs))
        print(f"wrote {len(aggs)} aggregates to {args.aggregates}")
    elif args.out:
        for a in aggs:
            mean = "missing" if a.mean is None else repr(a.mean)
            pct = "" if a.pct_vs_kmeanspp is None else f" ({a.pct_vs_kmeanspp:+.2f}% vs kmeanspp)"
            print(f"{a.dataset} {a.algorithm} k={a.k} {a.metric}: mean={mean}{pct}")
    return 0


# ---------------------------------------------------------------------------


def _input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="FILE", help="point CSV file (see README for the format)")
    p.add_argument("--k", type=int, default=None, help="number of centers")
    p.add_argument(
        "--metric",
        choices=["euclidean", "manhattan"],
        default="euclidean",
        help="distance for --input points (default euclidean)",
    )
    p.add_argument("--standardize", action="store_true", help="z-score --input coordinates")


def _check_mode_options(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_const", const=True, help="force exhaustive enumeration")
    mode.add_argument(
        "--sampling", dest="exhaustive", action="store_const", const=False, help="force sampling mode"
    )
    p.add_argument("--samples", type=_non_negative, default=200, help="random subsets in sampling mode")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="propclust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", help="write a built-in instance as point CSV")
    p.add_argument("--name", required=True, help="generator name (see README)")
    p.add_argument("--params", metavar="K=V,...", help="generator parameters")
    p.add_argument("--out", metavar="FILE", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("cluster", help="select centers with one algorithm")
    p.add_argument("--algo", choices=ALGORITHM_NAMES, default="prf")
    _input_options(p)
    p.add_argument("--seed", type=_non_negative, default=0, help="seed for kmeanspp and sampled checks")
    p.add_argument("--pad", action="store_true", help="fill greedy underfill up to k")
    p.add_argument("--axioms", metavar="NAME,...", help="also run axiom checks (or 'all')")
    _check_mode_options(p)
    p.add_argument("--out", metavar="FILE", help="write a run record JSON")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("check", help="test an outcome against fairness axioms")
    p.add_argument("--run", metavar="FILE", help="run record JSON holding outcome and instance")
    _input_options(p)
    p.add_argument("--selected", metavar="I,J,...", help="outcome indices (with --input)")
    p.add_argument(
        "--axioms",
        metavar="NAME,...",
        help="comma list of up,pf,core,prf,prf2,prf3 or 'all' "
        "(default: the record's stored axioms, else all)",
    )
    p.add_argument("--seed", type=_non_negative, default=0)
    _check_mode_options(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="score an outcome with representation metrics")
    p.add_argument("--run", metavar="FILE", help="run record JSON holding outcome and instance")
    _input_options(p)
    p.add_argument("--selected", metavar="I,J,...", help="outcome indices (with --input)")
    p.add_argument("--metrics", metavar="NAME,...", help="comma list (default: all)")
    p.add_argument("--unsquared", action="store_true", help="sum plain distances, not squares")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="sweep a grid of datasets, algorithms, and seeds")
    p.add_argument("--grid", metavar="FILE", required=True, help="grid JSON (see README)")
    p.add_argument("--out", metavar="FILE", help="rows CSV (default: stdout)")
    p.add_argument("--aggregates", metavar="FILE", help="aggregate JSON")
    p.set_defaults(func=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: each build takes about 1.7 ms and leaves
    # hundreds of objects of cyclic garbage behind
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
