import json
import sys

import pytest

from propclust import Instance, select_prf_centers
from propclust import cli
from propclust.cli import build_parser, main
from propclust.data_io import instance_to_csv, read_run_record


@pytest.fixture
def two_mass_csv(tmp_path):
    path = tmp_path / "two_mass.csv"
    assert main(["gen", "--name", "two_mass", "--out", str(path)]) == 0
    return path


def test_gen_writes_loadable_csv(two_mass_csv):
    text = two_mass_csv.read_text()
    assert text.startswith("x0\n")
    assert len(text.strip().split("\n")) == 111


def test_gen_stdout(capsys):
    assert main(["gen", "--name", "hexagon"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x0,x1\n")
    assert len(out.strip().split("\n")) == 7


def test_gen_params_and_errors(capsys, tmp_path):
    path = tmp_path / "tm.csv"
    assert main(["gen", "--name", "two_mass", "--params", "a=6,b=2,k=3", "--out", str(path)]) == 0
    assert len(path.read_text().strip().split("\n")) == 9
    assert main(["gen", "--name", "no_such_shape"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["gen", "--name", "two_mass", "--params", "a=oops"]) == 1
    # values a generator cannot build from
    assert main(["gen", "--name", "two_mass", "--params", "a=-1"]) == 1
    assert main(["gen", "--name", "grid_uniform", "--params", "rows=1e400"]) == 1
    assert capsys.readouterr().err.count("error: generator") == 2


@pytest.mark.parametrize(
    "name, params",
    [
        ("two_mass", "a=2.7,b=1,k=1"),  # truncated, a = 2 would write 3 points
        ("two_mass", "k=2.0"),
        ("three_circles", "m=3.9"),
        ("two_blobs", "size=1.5"),
        ("grid_uniform", "rows=2,cols=2.5"),
    ],
)
def test_gen_counts_must_be_integers(capsys, tmp_path, name, params):
    path = tmp_path / "p.csv"
    assert main(["gen", "--name", name, "--params", params, "--out", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: generator {name!r}: parameter ")
    assert not path.exists()


def test_cluster_writes_record(two_mass_csv, tmp_path, capsys):
    run = tmp_path / "run.json"
    code = main(
        [
            "cluster",
            "--algo",
            "prf",
            "--input",
            str(two_mass_csv),
            "--k",
            "11",
            "--out",
            str(run),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "selected: 0,1,2,3,4,5,6,7,8,9,100" in out
    record = read_run_record(run)
    assert record.algorithm == "prf"
    assert record.selected == tuple(range(10)) + (100,)
    assert record.trace is not None
    assert len(record.trace.rounds) == 11


def test_cluster_requires_k(two_mass_csv, capsys):
    assert main(["cluster", "--input", str(two_mass_csv)]) == 1
    assert "--k" in capsys.readouterr().err


def test_cluster_requires_input(capsys):
    assert main(["cluster", "--k", "3"]) == 1
    assert capsys.readouterr().err == "error: --input is required\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--algo", "kmeanspp", "--input", "{csv}", "--k", "11", "--seed", "-1"],
        ["check", "--input", "{csv}", "--k", "11", "--selected", "0,100", "--axioms", "prf",
         "--sampling", "--seed", "-1"],
        ["check", "--input", "{csv}", "--k", "11", "--selected", "0,100", "--axioms", "prf",
         "--samples", "-1"],
        ["experiment", "--grid", "{grid}"],
        # neither option is used by these runs, and both are still checked
        ["cluster", "--algo", "greedy", "--input", "{csv}", "--k", "11", "--seed", "-1"],
        ["check", "--input", "{csv}", "--k", "11", "--selected", "0,100", "--axioms", "up", "--seed", "-2"],
        ["check", "--input", "{small}", "--k", "2", "--selected", "0,1", "--axioms", "prf", "--samples", "-3"],
    ],
    ids=["kmeanspp-seed", "check-seed", "check-samples", "experiment-seed", "greedy-seed", "check-up-seed",
         "check-exhaustive-samples"],
)
def test_negative_seed_or_samples_exit_1(two_mass_csv, tmp_path, capsys, argv):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"datasets": [{"generator": "hexagon"}], "ks": [2],
                                "algorithms": ["kmeanspp"], "seeds": [-1]}))
    # n <= 16, so the prf check enumerates subsets and draws no samples
    small = tmp_path / "small.csv"
    small.write_text("x0\n0.0\n1.0\n2.0\n5.0\n")
    argv = [a.format(csv=two_mass_csv, grid=grid, small=small) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-negative" in err


def test_non_integer_seed_exits_1(two_mass_csv, capsys):
    assert main(["cluster", "--input", str(two_mass_csv), "--k", "11", "--seed", "abc"]) == 1
    assert capsys.readouterr().err == "error: argument --seed: invalid int value: 'abc'\n"


def test_cluster_greedy_underfill(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x0\n0.0\n0.0\n1.0\n")
    run = tmp_path / "run.json"
    code = main(
        ["cluster", "--algo", "greedy", "--input", str(csv_path), "--k", "3", "--out", str(run)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "selected: 0,2" in out
    assert "underfilled: true" in out
    assert "msdk: missing" in out
    record = read_run_record(run)
    assert record.underfilled
    assert record.metrics["msdk"] is None


def test_cluster_greedy_pad(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x0\n0.0\n0.0\n1.0\n")
    code = main(["cluster", "--algo", "greedy", "--input", str(csv_path), "--k", "3", "--pad"])
    assert code == 0
    out = capsys.readouterr().out
    assert "padded: 1" in out
    assert "underfilled: true" in out
    assert "msdk: " in out
    assert "msdk: missing" not in out


def test_cluster_overflowing_coordinates_exit_1(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x0\n0.0\n0.0\n1e300\n-1e300\n1e300\n")
    assert main(["cluster", "--input", str(csv_path), "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert "overflow" in captured.err
    assert captured.out == ""


def test_cluster_kmeanspp_seeded(two_mass_csv, tmp_path):
    run = tmp_path / "run.json"
    code = main(
        [
            "cluster",
            "--algo",
            "kmeanspp",
            "--input",
            str(two_mass_csv),
            "--k",
            "2",
            "--seed",
            "7",
            "--out",
            str(run),
        ]
    )
    assert code == 0
    assert read_run_record(run).seed == 7


@pytest.mark.parametrize("algo", ["prf", "greedy"])
def test_cluster_frees_the_sorted_order_before_its_checks(two_mass_csv, capsys, monkeypatch, algo):
    # the rule's order (half the matrix) would otherwise be held beside the checks' structures
    held = []

    def spy(inst, *args):
        held.append("_candidate_order" in inst.__dict__)
        return run_checks(inst, *args)

    run_checks = cli._run_checks
    monkeypatch.setattr(cli, "_run_checks", spy)
    assert main(["cluster", "--algo", algo, "--input", str(two_mass_csv), "--k", "11", "--axioms", "up,prf"]) == 0
    assert held == [False]
    assert "PRF" in capsys.readouterr().out


def test_check_run_record_pipeline(two_mass_csv, tmp_path, capsys):
    run = tmp_path / "run.json"
    main(
        [
            "cluster",
            "--input",
            str(two_mass_csv),
            "--k",
            "11",
            "--axioms",
            "up,pf",
            "--out",
            str(run),
        ]
    )
    capsys.readouterr()
    # default axiom set comes from the record and must reproduce its verdicts
    assert main(["check", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    assert "UP: satisfied" in out
    assert "PF: satisfied" in out


def test_record_of_candidates_differing_by_signed_zeros_checks(tmp_path, capsys):
    # candidates equal to the agents but for a -0.0 make an unconstrained
    # instance whose digest covers the -0.0, so the record stores them
    points = tmp_path / "points.csv"
    points.write_text("role,x0\nagent,0.0\nagent,1.0\ncandidate,-0.0\ncandidate,1.0\n")
    run = tmp_path / "run.json"
    assert main(["cluster", "--input", str(points), "--k", "1", "--algo", "prf", "--out", str(run)]) == 0
    assert repr(read_run_record(run).candidate_coordinates) == "((-0.0,), (1.0,))"
    capsys.readouterr()
    assert main(["check", "--run", str(run)]) == 0
    assert "error" not in capsys.readouterr().err


def test_check_reads_the_record_once(two_mass_csv, tmp_path, capsys, monkeypatch):
    run = tmp_path / "run.json"
    main(["cluster", "--input", str(two_mass_csv), "--k", "11", "--axioms", "up", "--out", str(run)])
    calls = []

    def counted(path, instance=None):
        calls.append(path)
        return read_run_record(path, instance=instance)

    monkeypatch.setattr(cli, "read_run_record", counted)
    assert main(["check", "--run", str(run)]) == 0
    assert capsys.readouterr().out.endswith("UP: satisfied\n")
    assert len(calls) == 1


def test_parser_is_built_once(monkeypatch, capsys):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    assert main(["gen", "--name", "hexagon"]) == 0
    assert main(["gen", "--name", "no_such_shape"]) == 1
    assert main(["gen", "--name", "hexagon"]) == 0
    # none if an earlier call in this process already built it
    assert len(builds) <= 1


@pytest.mark.parametrize(
    "name, k, codes",
    [
        ("hexagon", 2, ["UP", "PF", "CORE", "PRF_UNC", "PRF2", "PRF3"]),  # n = 6
        ("two_mass", 11, ["UP", "PF", "CORE", "PRF_UNC"]),  # n = 110 > 16
    ],
)
def test_check_all_axioms(tmp_path, capsys, name, k, codes):
    points, run = tmp_path / "points.csv", tmp_path / "run.json"
    main(["gen", "--name", name, "--out", str(points)])
    main(["cluster", "--input", str(points), "--k", str(k), "--out", str(run)])
    assert read_run_record(run).reports == ()
    capsys.readouterr()
    # a record with no stored reports is checked against all axioms
    for axioms in ([], ["--axioms", "all"]):
        assert main(["check", "--run", str(run), *axioms]) in (0, 2)
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == codes


def test_check_detects_violation(two_mass_csv, capsys):
    swapped = "0," + ",".join(str(i) for i in range(100, 110))
    code = main(
        [
            "check",
            "--input",
            str(two_mass_csv),
            "--k",
            "11",
            "--selected",
            swapped,
            "--axioms",
            "up,pf,core",
        ]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "UP: VIOLATED" in out
    assert "PF: satisfied" in out
    assert "CORE: satisfied" in out


def test_check_usage_errors(two_mass_csv, tmp_path, capsys):
    run = tmp_path / "run.json"
    main(["cluster", "--input", str(two_mass_csv), "--k", "11", "--out", str(run)])
    capsys.readouterr()
    assert main(["check", "--run", str(run), "--selected", "0,1"]) == 1
    assert main(["check", "--input", str(two_mass_csv), "--k", "11"]) == 1
    assert main(["check", "--axioms", "up"]) == 1
    assert (
        main(
            [
                "check",
                "--input",
                str(two_mass_csv),
                "--k",
                "11",
                "--selected",
                "0,1",
                "--axioms",
                "nope",
            ]
        )
        == 1
    )
    assert (
        main(
            [
                "check",
                "--run",
                str(run),
                "--exhaustive",
                "--sampling",
            ]
        )
        == 1
    )


def test_check_record_against_other_input_fails(two_mass_csv, tmp_path, capsys):
    other = tmp_path / "other.csv"
    main(["gen", "--name", "hexagon", "--out", str(other)])
    run = tmp_path / "run.json"
    main(["cluster", "--input", str(two_mass_csv), "--k", "11", "--out", str(run)])
    capsys.readouterr()
    code = main(["check", "--run", str(run), "--input", str(other), "--k", "3"])
    assert code == 1
    assert "digest" in capsys.readouterr().err


def test_check_record_with_its_own_input(two_mass_csv, tmp_path, capsys, monkeypatch):
    run = tmp_path / "run.json"
    main(["cluster", "--input", str(two_mass_csv), "--k", "11", "--axioms", "up", "--out", str(run)])
    capsys.readouterr()
    instances = []

    def counted(path, instance=None):
        instances.append(instance)
        return read_run_record(path, instance=instance)

    monkeypatch.setattr(cli, "read_run_record", counted)
    assert main(["check", "--run", str(run), "--input", str(two_mass_csv), "--k", "11"]) == 0
    assert capsys.readouterr().out.endswith("UP: satisfied\n")
    # the digest is compared once, by read_run_record, against the loaded input
    assert len(instances) == 1 and instances[0] is not None


def test_eval_outputs(two_mass_csv, tmp_path, capsys):
    run = tmp_path / "run.json"
    main(["cluster", "--input", str(two_mass_csv), "--k", "11", "--out", str(run)])
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--metrics", "msd1,msdk"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("msd1 ")
    assert out[1].startswith("msdk ")
    # without --metrics, every key
    assert main(["eval", "--run", str(run)]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["msd1", "msdhalfk", "msdk"]
    assert main(["eval", "--run", str(run), "--metrics", "wat"]) == 1


def test_eval_direct_selection(tmp_path, capsys):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("x0\n0.0\n1.0\n")
    code = main(
        [
            "eval",
            "--input",
            str(csv_path),
            "--k",
            "2",
            "--selected",
            "0,1",
            "--metrics",
            "msdk",
            "--unsquared",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "msdk 1.0"


def test_experiment_round_trip(tmp_path, capsys):
    grid = {
        "datasets": [{"generator": "two_blobs"}],
        "ks": [1, 2, 3],
        "algorithms": ["prf", "kmeanspp", "greedy"],
        "seeds": [0, 1],
        "metrics": ["msd1", "msdk"],
    }
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    rows = tmp_path / "rows.csv"
    aggs = tmp_path / "aggs.json"
    code = main(
        [
            "experiment",
            "--grid",
            str(grid_path),
            "--out",
            str(rows),
            "--aggregates",
            str(aggs),
        ]
    )
    assert code == 0
    text = rows.read_text()
    assert text.startswith("dataset,algorithm,k,seed,metric,value\n")
    # prf+greedy: 3 ks x 2 metrics each; kmeanspp doubles by seeds
    assert len(text.strip().split("\n")) == 1 + 6 + 12 + 6
    data = json.loads(aggs.read_text())
    assert {d["algorithm"] for d in data} == {"prf", "kmeanspp", "greedy"}

    rows2 = tmp_path / "rows2.csv"
    main(["experiment", "--grid", str(grid_path), "--out", str(rows2)])
    assert rows2.read_bytes() == rows.read_bytes()


def test_experiment_without_out_writes_rows_to_stdout(tmp_path, capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"datasets": [{"generator": "hexagon"}], "ks": [2], "algorithms": ["prf"]}))
    rows = tmp_path / "rows.csv"
    assert main(["experiment", "--grid", str(grid_path), "--out", str(rows)]) == 0
    capsys.readouterr()
    assert main(["experiment", "--grid", str(grid_path)]) == 0
    assert capsys.readouterr().out == rows.read_text()


def test_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    for argv, code in ((["gen", "--name", "hexagon"], 0), (["frobnicate"], 1)):
        monkeypatch.setattr(sys, "argv", ["propclust", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code
    assert capsys.readouterr().out.startswith("x0,x1\n")


def test_experiment_requires_grid(capsys):
    assert main(["experiment"]) == 1
    assert main(["experiment", "--grid", "/does/not/exist.json"]) == 1


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--name", "two_mass", "--params", "a"], "bad parameter 'a'"),
        (["check", "--selected", "0,x", "--axioms", "up"], "cannot parse '0,x'"),
        (["check", "--selected", "0,1", "--axioms", ","], "--axioms needs at least one name"),
        (["eval", "--selected", "0,1", "--metrics", ","], "--metrics needs at least one name"),
    ],
)
def test_unparsable_options_exit_1(two_mass_csv, capsys, argv, message):
    if argv[0] != "gen":
        argv = argv + ["--input", str(two_mass_csv), "--k", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
