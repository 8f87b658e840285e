"""Command-line interface."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

import solvereval
import solvereval.cli as cli
from solvereval.cli import build_parser, main
from solvereval.synthkit import SolverSpec, constant, uniform

RUNS_CSV = """instance_id,solver_id,status,time_s
i1,a,ok,10.0
i1,b,timeout,100.0
i2,a,ok,20.0
i2,b,ok,5.0
"""

# b beats a narrowly on three instances and blows up on the fourth, so a is
# the single best solver overall yet every 2-instance fold keeps vbs < sbs
FOLD_CSV = """instance_id,solver_id,status,time_s
f1,a,ok,10.0
f1,b,ok,9.9
f2,a,ok,10.0
f2,b,ok,9.9
f3,a,ok,10.0
f3,b,ok,9.9
f4,a,ok,10.0
f4,b,timeout,100.0
"""


# RUNS_CSV's runs as an attribute-relation table.
ARFF_RUNS = """% runs
@relation runs
@attribute instance_id string
@attribute repetition numeric
@attribute algorithm string
@attribute runtime numeric
@attribute runstatus {ok,timeout}
@data
i1,1,a,10.0,ok
i1,1,b,100.0,timeout
i2,1,a,20.0,ok
i2,1,b,5.0,ok
"""


@pytest.fixture
def runs_file(tmp_path):
    p = tmp_path / "runs.csv"
    p.write_text(RUNS_CSV)
    return p


class TestArgHandling:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "solvereval" in capsys.readouterr().out

    def test_help(self):
        assert main(["--help"]) == 0

    def test_unknown_metric(self, runs_file, capsys):
        code = main(["score", str(runs_file), "--timeout", "100", "--metric", "nope"])
        assert code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["score", str(tmp_path / "absent.csv"), "--timeout", "100"])
        assert code == 1

    def test_unexpected_error_returns_2(self, runs_file, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("internal")

        monkeypatch.setattr(cli, "parse_runs", boom)
        assert main(["score", str(runs_file), "--timeout", "100"]) == 2
        assert "RuntimeError" in capsys.readouterr().err


# What main prints for each argv, at 80 columns on Python 3.11: the SHA-256 of its
# stdout, then of its stderr, and its exit code. argparse words and lays out help
# differently from one Python version to the next, so the digests hold on 3.11 only.
HELP_DIGESTS = {
    "--help": ("fbc6870e", "e3b0c442", 0),
    "--version": ("c32d777e", "e3b0c442", 0),
    "score --help": ("4100a67e", "e3b0c442", 0),
    "rank --help": ("5e2523ad", "e3b0c442", 0),
    "head2head --help": ("7a41a6fb", "e3b0c442", 0),
    "sweep-delta --help": ("b7b36f67", "e3b0c442", 0),
    "runtime-dist --help": ("7fa0b858", "e3b0c442", 0),
    "gen --help": ("2c789c99", "e3b0c442", 0),
    "validate --help": ("ab7490db", "e3b0c442", 0),
    "": ("e3b0c442", "dd37d53f", 1),  # no command
    "nope": ("e3b0c442", "4d58acba", 1),  # not a command
    "nope --help": ("e3b0c442", "4d58acba", 1),
    "rank": ("e3b0c442", "3e228293", 1),  # a command without its arguments
    "rank runs.csv --timeout 1 --metric nope": ("e3b0c442", "43638eca", 1),
    "gen --seed x -o a.csv": ("e3b0c442", "3c7cc186", 1),
    "--version rank": ("c32d777e", "e3b0c442", 0),
}


def _printed(run, argv, capsys) -> tuple[str, str, int]:
    code = run(argv)
    out, err = capsys.readouterr()
    return out, err, code


def _full_parser(argv: list[str]) -> int:
    """main's printing and exit code, with every command's arguments built."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    except solvereval.CliUsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    raise AssertionError(f"{argv} parsed")


class TestHelpText:
    """Help and usage text, whichever arguments main builds."""

    @pytest.mark.parametrize("argv", list(HELP_DIGESTS))
    def test_pinned(self, argv, monkeypatch, capsys):
        if sys.version_info[:2] != (3, 11):
            pytest.skip("the digests are of Python 3.11's argparse")
        monkeypatch.setenv("COLUMNS", "80")
        out, err, code = _printed(main, argv.split(), capsys)
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()[:8]  # noqa: E731
        assert (digest(out), digest(err), code) == HELP_DIGESTS[argv]

    @pytest.mark.parametrize("argv", list(HELP_DIGESTS))
    def test_same_as_with_every_command_built(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert _printed(main, argv.split(), capsys) == _printed(_full_parser, argv.split(),
                                                                 capsys)


class TestScore:
    def test_table_output(self, runs_file, capsys):
        assert main(["score", str(runs_file), "--timeout", "100"]) == 0
        out = capsys.readouterr().out
        assert "par" in out and "a" in out and "b" in out

    def test_json_output(self, runs_file, capsys):
        code = main(["score", str(runs_file), "--timeout", "100",
                     "--metric", "par", "--metric", "closed-gap",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == ["par", "closed-gap"]
        assert payload["scores"][0]["b"] == pytest.approx(502.5)

    def test_output_file(self, runs_file, tmp_path, capsys):
        dest = tmp_path / "report.json"
        code = main(["score", str(runs_file), "--timeout", "100",
                     "--format", "json", "-o", str(dest)])
        assert code == 0
        assert json.loads(dest.read_text())["scenario"]["id"] == "runs"
        assert capsys.readouterr().out == ""

    def test_folded_scoring(self, tmp_path, capsys):
        p = tmp_path / "folds.csv"
        p.write_text(FOLD_CSV)
        code = main(["score", str(p), "--timeout", "100",
                     "--metric", "closed-gap", "--folds", "2", "--seed", "7",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["fold_plan"] == {"k": 2, "repeats": 1, "seed": 7}
        assert payload["baselines"]

    def test_custom_lambda(self, runs_file, capsys):
        code = main(["score", str(runs_file), "--timeout", "100",
                     "--metric", "par", "--lambda", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scores"][0]["b"] == pytest.approx(102.5)
        assert payload["params"][0]["lambda"] == 2.0

    @pytest.mark.parametrize("command", [
        ["score", "--format", "json"],
        ["score", "--metric", "closed-gap"],
        ["score", "--metric", "closed-gap", "--format", "json", "--folds", "2"],
        ["rank"],
    ])
    @pytest.mark.parametrize("lam", ["inf", "1e308"])
    def test_infinite_penalty_rejected(self, runs_file, capsys, command, lam):
        # lambda * timeout overflows: no report holds Infinity or a nan score.
        argv = [command[0], str(runs_file), "--timeout", "100", "--lambda", lam, *command[1:]]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"lambda={float(lam)}" in err and "timeout_s=100.0" in err

    @pytest.mark.parametrize("command", [
        ["--metric", "par"],
        ["--metric", "closed-gap", "--folds", "2", "--format", "json"],
    ])
    def test_penalty_total_that_overflows_rejected(self, tmp_path, capsys, command):
        # Each penalty, 1e306 * 100, is finite; each solver's two of them sum past the
        # largest float, which used to abort scoring with an OverflowError (exit 2).
        runs = tmp_path / "runs.csv"
        runs.write_text("instance_id,solver_id,status,time_s\n" + "".join(
            f"{i},{s},{'timeout' if (i < 'i3') == (s == 'a') else 'ok'},"
            f"{100.0 if (i < 'i3') == (s == 'a') else 10.0}\n"
            for i in ("i1", "i2", "i3", "i4") for s in ("a", "b")))
        assert main(["score", str(runs), "--timeout", "100", "--lambda", "1e306", *command]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip() == (
            "error: BadLambda: penalty lambda * timeout_s on all n instances must sum to a "
            "finite number, got lambda=1e+306, timeout_s=100.0 and n=4")

    @pytest.mark.parametrize("metrics", [["closed-gap"], ["par", "closed-gap"]])
    def test_closed_gap_geomean_folds_rejected_before_loading(self, tmp_path, capsys, metrics):
        absent = str(tmp_path / "absent.csv")
        flags = [f for m in metrics for f in ("--metric", m)]
        argv = ["score", absent, "--timeout", "100", "--folds", "5", "--agg", "geomean", *flags]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "closed-gap" in err and "--agg geomean" in err
        assert "absent.csv" not in err

    @pytest.mark.parametrize("given, named", [
        (["--repeats", "3", "--seed", "9"], "--repeats"),
        (["--repeats", "1"], "--repeats"),
        (["--seed", "9"], "--seed"),
        (["--seed", "0"], "--seed"),
    ])
    def test_fold_flags_without_folds_rejected_before_loading(self, tmp_path, capsys, given,
                                                              named):
        absent = str(tmp_path / "absent.csv")
        assert main(["score", absent, "--timeout", "100", *given, "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert named in err and "--folds" in err
        assert "absent.csv" not in err

    def test_fold_flags_with_folds_keep_their_defaults(self, tmp_path, capsys):
        p = tmp_path / "folds.csv"
        p.write_text(FOLD_CSV)
        reports = []
        for given in ([], ["--repeats", "1", "--seed", "0"]):
            assert main(["score", str(p), "--timeout", "100", "--folds", "2", *given,
                         "--format", "json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["provenance"]["seed"] == 0
        assert payload["provenance"]["fold_plan"] == {"k": 2, "repeats": 1, "seed": 0}

    @pytest.mark.parametrize("command, flags", [
        ("score", ["--metric", "closed-gap", "--sbs-policy", "train"]),
        ("score", ["--metric", "par", "--metric", "closed-gap", "--sbs-policy", "test"]),
        ("rank", ["--metric", "closed-gap", "--sbs-policy", "train"]),
        ("rank", ["--metric", "closed-gap", "--sbs-policy", "test"]),
    ])
    def test_split_policy_without_folds_rejected_before_loading(self, tmp_path, capsys,
                                                                 command, flags):
        absent = str(tmp_path / "absent.csv")
        assert main([command, absent, "--timeout", "100", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--sbs-policy" in err and "--folds" in err
        assert "absent.csv" not in err

    @pytest.mark.parametrize("policy, recorded", [("train", "train_split"),
                                                  ("test", "test_split")])
    def test_split_policy_without_baselines_is_recorded(self, runs_file, capsys, policy,
                                                        recorded):
        assert main(["score", str(runs_file), "--timeout", "100", "--sbs-policy", policy,
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["sbs_policy"] == recorded
        assert main(["rank", str(runs_file), "--timeout", "100", "--sbs-policy", policy]) == 0
        assert capsys.readouterr().out.startswith("1. a")

    def test_full_policy_without_folds_scores_closed_gap(self, tmp_path, capsys):
        runs = tmp_path / "fold.csv"
        runs.write_text(FOLD_CSV)
        for command in ("score", "rank"):
            assert main([command, str(runs), "--timeout", "100", "--metric", "closed-gap",
                         "--sbs-policy", "full"]) == 0
        assert "closed-gap" in capsys.readouterr().out

    def test_closed_gap_geomean_without_folds_scores(self, tmp_path, capsys):
        runs = tmp_path / "fold.csv"
        runs.write_text(FOLD_CSV)
        argv = ["score", str(runs), "--timeout", "100", "--agg", "geomean", "--metric", "closed-gap"]
        assert main(argv) == 0
        assert "closed-gap" in capsys.readouterr().out

    @pytest.mark.parametrize("folds", [[], ["--folds", "4"]])
    def test_area_closed_gap_without_optimization_instances(self, tmp_path, capsys, folds):
        # The base metric has no value anywhere: the cause is named, not a degenerate gap.
        runs = str(tmp_path / "d.csv")
        assert main(["gen", "--seed", "3", "--instances", "20", "-o", runs]) == 0
        capsys.readouterr()
        assert main(["score", runs, "--timeout", "100", "--metric", "closed-gap",
                     "--base-metric", "area", *folds]) == 1
        assert capsys.readouterr().err == (
            "error: EmptyInput: closed-gap on area needs optimization instances\n")

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_negative_zero_delta_reads_as_zero(self, runs_file, capsys, fmt):
        argv = ["score", str(runs_file), "--timeout", "100", "--metric", "mznc", "--format", fmt]
        assert main([*argv, "--delta", "0"]) == 0
        zero = capsys.readouterr().out
        assert main([*argv, "--delta", "-0"]) == 0
        assert capsys.readouterr().out == zero
        assert "-0" not in zero

    def test_refused_geomean_merge_names_metric_solver_and_cell(self, tmp_path, capsys):
        # b solves only i3: the fold without it scores b at 0 under normalized-runtime.
        runs = tmp_path / "g.csv"
        runs.write_text("instance_id,solver_id,status,time_s\n"
                        "i1,a,ok,1.0\ni1,b,timeout,100\ni2,a,ok,2.0\ni2,b,timeout,100\n"
                        "i3,a,ok,3\ni3,b,ok,5\ni4,a,ok,4\ni4,b,timeout,100\n")
        assert main(["score", str(runs), "--timeout", "100", "--folds", "2", "--agg", "geomean",
                     "--metric", "par", "--metric", "normalized-runtime"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: NonPositiveForGeomean: normalized-runtime: geometric mean needs"
                       " strictly positive values: solver b scores 0.0 in repeat 0, fold 1\n")

    @pytest.mark.parametrize("agg, method", [
        ("sum", solvereval.Aggregation.SUM),
        ("mean", solvereval.Aggregation.ARITHMETIC_MEAN),
        ("geomean", solvereval.Aggregation.GEOMETRIC_MEAN),
        ("median", solvereval.Aggregation.MEDIAN),
    ])
    def test_agg_merges_the_folds_that_way(self, tmp_path, capsys, agg, method):
        runs = tmp_path / "fold.csv"
        runs.write_text(FOLD_CSV)
        argv = ["score", str(runs), "--timeout", "100", "--folds", "2", "--seed", "7",
                "--agg", agg, "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["aggregation"] == method.value
        sc = solvereval.parse_runs(runs, 100.0)
        plan = solvereval.make_fold_plan(sc.instance_ids, 2, seed=7)
        ev = solvereval.evaluate(sc, "par", fold_plan=plan, aggregation=method)
        assert payload["scores"][0] == pytest.approx(dict(ev.merged.per_solver))


class TestRank:
    def test_text(self, runs_file, capsys):
        assert main(["rank", str(runs_file), "--timeout", "100"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("1.")
        assert "a" in lines[0]

    def test_json(self, runs_file, capsys):
        assert main(["rank", str(runs_file), "--timeout", "100",
                     "--metric", "solved-count", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "solved-count"
        assert payload["ranking"][0] == {
            "solver": "a", "score": 2.0, "position": 1, "tied": False,
        }


class TestHeadToHead:
    def test_named_pair(self, runs_file, capsys):
        assert main(["head2head", str(runs_file), "--timeout", "100",
                     "--solvers", "a,b"]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "b" in out

    def test_all_pairs_json(self, runs_file, capsys):
        assert main(["head2head", str(runs_file), "--timeout", "100",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["pairs"]
        assert len(rows) == 1
        assert rows[0]["a_faster"] == 1
        assert rows[0]["b_faster"] == 1
        assert rows[0]["ties"] == 0

    def test_same_solver_rejected(self, runs_file, capsys):
        assert main(["head2head", str(runs_file), "--timeout", "100", "--solvers", "a,a"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot compare solver 'a' with itself" in err


class TestSweepDelta:
    def test_default_grid(self, runs_file, capsys):
        assert main(["sweep-delta", str(runs_file), "--timeout", "100"]) == 0
        assert "delta" in capsys.readouterr().out

    def test_json_and_flip(self, runs_file, capsys):
        assert main(["sweep-delta", str(runs_file), "--timeout", "100",
                     "--deltas", "0,1,10", "--flip", "b,a",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["delta"] for e in payload["sweep"]] == [0, 1, 10]
        assert set(payload["sweep"][0]["scores"]) == {"a", "b"}
        assert payload["flip"]["solver_a"] == "b"
        assert payload["flip"]["solver_b"] == "a"

    def test_repeated_solver_reported_once(self, runs_file, capsys):
        args = ["sweep-delta", str(runs_file), "--timeout", "100", "--deltas", "0,1"]
        assert main([*args, "--solvers", "a", "--format", "json"]) == 0
        once = json.loads(capsys.readouterr().out)
        assert main([*args, "--solvers", "a,a", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == once
        assert main([*args, "--solvers", "a,a"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_negative_zero_delta_reads_as_zero(self, runs_file, capsys, fmt):
        argv = ["sweep-delta", str(runs_file), "--timeout", "100", "--format", fmt]
        assert main([*argv, "--deltas", "0"]) == 0
        zero = capsys.readouterr().out
        for deltas in ("-0", "-0,0", "0,-0"):
            assert main([*argv, f"--deltas={deltas}"]) == 0
            assert capsys.readouterr().out == zero, deltas

    def test_negative_delta_rejected(self, runs_file, capsys):
        assert main(["sweep-delta", str(runs_file), "--timeout", "100",
                     "--deltas", "-1,0"]) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep-delta", "--deltas", "0,-1"],
        ["sweep-delta", "--deltas", "0,inf"],
        ["sweep-delta", "--deltas", "nan"],
        ["rank", "--metric", "mznc", "--delta", "-1"],
        ["rank", "--metric", "mznc", "--delta", "inf"],
        ["score", "--metric", "mznc", "--delta", "nan"],
        ["score", "--folds", "0"],
        ["score", "--folds", "1"],
        ["score", "--folds", "x"],
        ["score", "--folds", "5", "--repeats", "0"],
        ["score", "--folds", "5", "--repeats", "-1"],
    ])
    def test_bad_number_rejected_before_loading(self, tmp_path, capsys, argv):
        command, *flags = argv
        absent = str(tmp_path / "absent.csv")
        assert main([command, absent, "--timeout", "100", *flags]) == 1
        err = capsys.readouterr().err
        assert f"argument {flags[-2]}:" in err
        assert "absent.csv" not in err

    @pytest.mark.parametrize("argv", [
        ["score", "--delta", "1e306"],
        ["rank", "--metric", "mznc", "--delta", "1e306"],
        ["sweep-delta", "--deltas", "0,1e306"],
    ])
    def test_huge_delta_named(self, tmp_path, capsys, argv):
        command, *flags = argv
        assert main([command, str(tmp_path / "absent.csv"), "--timeout", "100", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flags[-2]}: delta must be a finite number >= 0, got 1e+306" in err
        assert "absent.csv" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep-delta", "--solvers", ","],
        ["sweep-delta", "--solvers", ",", "--format", "json"],
        ["sweep-delta", "--solvers", " , "],
        ["sweep-delta", "--flip", "a"],
        ["sweep-delta", "--flip", "a,b,c", "--format", "json"],
        ["head2head", "--solvers", "a"],
        ["head2head", "--solvers", ",", "--format", "json"],
        ["runtime-dist", "--solver", ""],
        ["runtime-dist", "--solver", "  ", "--format", "json"],
    ])
    def test_bad_solver_list_rejected_before_loading(self, tmp_path, capsys, argv):
        command, *flags = argv
        absent = str(tmp_path / "absent.csv")
        assert main([command, absent, "--timeout", "100", *flags]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flags[0]}:" in err
        assert "absent.csv" not in err

    @pytest.mark.parametrize("deltas", [",", " , "])
    def test_empty_delta_list_rejected_before_loading(self, tmp_path, capsys, deltas):
        absent = str(tmp_path / "absent.csv")
        assert main(["sweep-delta", absent, "--timeout", "100", "--deltas", deltas]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --deltas: list is empty" in err
        assert "absent.csv" not in err

    @pytest.mark.parametrize("pair, named", [("a,zzz", "'zzz'"), ("a,a", "'a'")])
    def test_bad_flip_pair_rejected(self, runs_file, capsys, pair, named):
        assert main(["sweep-delta", str(runs_file), "--timeout", "100",
                     "--flip", pair]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert named in err


class TestRuntimeDist:
    def test_text(self, runs_file, capsys):
        assert main(["runtime-dist", str(runs_file), "--timeout", "100",
                     "--solver", "a"]) == 0
        out = capsys.readouterr().out
        assert "10.000" in out and "20.000" in out

    def test_unknown_solver(self, runs_file, capsys):
        assert main(["runtime-dist", str(runs_file), "--timeout", "100",
                     "--solver", "zz"]) == 1

    def test_name_is_stripped(self, runs_file, capsys):
        assert main(["runtime-dist", str(runs_file), "--timeout", "100",
                     "--solver", " a ", "--format", "json"]) == 0
        assert list(json.loads(capsys.readouterr().out)["distributions"]) == ["a"]


class TestValidate:
    @pytest.mark.parametrize("runs, flags", [
        ("absent.arff", []),
        ("absent.ARFF", ["--input-format", "auto"]),
        ("absent.csv", ["--input-format", "aslib"]),
    ])
    @pytest.mark.parametrize("command", ["validate", "score"])
    def test_trajectories_with_aslib_input_rejected_before_loading(
        self, tmp_path, capsys, command, runs, flags
    ):
        argv = [command, str(tmp_path / runs), "--timeout", "10", *flags,
                "--trajectories", str(tmp_path / "absent_trajectories.csv")]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--trajectories" in err and "--input-format aslib" in err
        assert "absent." not in err

    @pytest.mark.parametrize("name, flags", [
        ("runs.arff", []),
        ("runs.ARFF", ["--input-format", "auto"]),
        ("runs.txt", ["--input-format", "aslib"]),
    ])
    def test_aslib_input(self, tmp_path, capsys, name, flags):
        runs = tmp_path / name
        runs.write_text(ARFF_RUNS)
        assert main(["validate", str(runs), "--timeout", "100", *flags]) == 0
        out = capsys.readouterr().out
        assert "2 instances" in out and "2 solvers" in out
        assert main(["score", str(runs), "--timeout", "100", *flags, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["id"] == "runs"
        assert report["scores"] == [{"a": 15.0, "b": 502.5}]

    def test_csv_input_with_aslib_suffix_is_not_read_as_aslib(self, tmp_path, capsys):
        runs = tmp_path / "runs.arff"
        runs.write_text(RUNS_CSV)
        assert main(["validate", str(runs), "--timeout", "100", "--input-format", "csv"]) == 0
        assert "2 instances" in capsys.readouterr().out

    def test_valid_file(self, runs_file, capsys):
        assert main(["validate", str(runs_file), "--timeout", "100"]) == 0
        out = capsys.readouterr().out
        assert "2 instances" in out and "2 solvers" in out

    def test_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("instance_id,solver_id,status,time_s\ni1,a,ok,1.0\ni2,b,ok,2.0\n")
        assert main(["validate", str(bad), "--timeout", "100"]) == 1
        assert "MissingOutcome" in capsys.readouterr().err


class TestGen:
    def test_default_generation(self, tmp_path, capsys):
        dest = tmp_path / "synth.csv"
        code = main(["gen", "-o", str(dest), "--instances", "30", "--seed", "9"])
        assert code == 0
        assert dest.exists()
        assert str(dest) in capsys.readouterr().out

    def test_generated_file_validates_and_scores(self, tmp_path, capsys):
        dest = tmp_path / "synth.csv"
        assert main(["gen", "-o", str(dest), "--instances", "25", "--seed", "3",
                     "--timeout", "60"]) == 0
        assert main(["validate", str(dest), "--timeout", "60"]) == 0
        assert main(["score", str(dest), "--timeout", "60",
                     "--metric", "closed-gap", "--format", "json"]) == 0
        capsys.readouterr()

    def test_custom_solver_specs(self, tmp_path):
        dest = tmp_path / "synth.csv"
        code = main([
            "gen", "-o", str(dest), "--instances", "20", "--timeout", "50",
            "--solver", "quick:p=0.9,runtime=uniform(1,10)",
            "--solver", "slow:p=0.7,runtime=uniform(20,45)",
        ])
        assert code == 0
        text = dest.read_text()
        assert "quick" in text and "slow" in text

    def test_timeout_with_no_finite_millisecond_count(self, tmp_path, capsys):
        dest = tmp_path / "x.csv"
        assert main(["gen", "-o", str(dest), "--timeout", "1e307"]) == 1
        assert "timeout_s must be a finite positive number, got 1e+307" in capsys.readouterr().err
        assert not dest.exists()

    def test_bad_solver_spec(self, tmp_path, capsys):
        code = main(["gen", "-o", str(tmp_path / "x.csv"),
                     "--solver", "broken"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,want", [
        ("a:p=0.9,runtime=uniform(1,10)", SolverSpec(0.9, uniform(1, 10), None, "a")),
        ("a:p=1,runtime=constant(4),quality=uniform(0,5)",
         SolverSpec(1.0, constant(4), uniform(0, 5), "a")),
        ("a:p=0.5,runtime=4,quality=2", SolverSpec(0.5, constant(4), constant(2), "a")),
        (" a : p = 0.9 , runtime = uniform( 1 , 10 ) ", SolverSpec(0.9, uniform(1, 10), None, "a")),
        ("a:P=0.9,RUNTIME=4,Quality=constant(1)", SolverSpec(0.9, constant(4), constant(1), "a")),
    ])
    def test_solver_spec_accepted(self, tmp_path, text, want):
        assert cli._parse_solver_spec(text) == want
        dest = tmp_path / "x.csv"
        assert main(["gen", "-o", str(dest), "--instances", "5", "--solver", text]) == 0
        assert dest.read_text().splitlines()[1].split(",")[1] == "a"

    @pytest.mark.parametrize("text,message", [
        ("broken", "solver spec 'broken' must look like NAME:p=0.9,runtime=uniform(1,10)"),
        (":p=0.9,runtime=1", "solver spec ':p=0.9,runtime=1' must look like NAME:"),
        ("a:p=0.9,runtime", "solver spec field 'runtime' must look like key=value"),
        ("a:p=0.9,runtime= ", "solver spec field 'runtime= ' must look like key=value"),
        ("a:p=high,runtime=1", "cannot parse solve probability 'high'"),
        ("a:p=0.9,runtime=uniform(1,x)", "cannot parse runtime draw 'uniform(1,x)'"),
        ("a:p=0.9,runtime=constant(x)", "cannot parse runtime draw 'constant(x)'"),
        ("a:p=0.9,runtime=fast",
         "cannot parse runtime draw 'fast'; use uniform(lo,hi), constant(x), or a number"),
        ("a:p=0.9,runtime=1,quality=uniform(1)", "cannot parse quality draw 'uniform(1)'"),
        ("a:p=0.9,speed=1", "unknown solver spec key 'speed'; use p, runtime, quality"),
        ("a:runtime=1", "solver spec 'a:runtime=1' needs both p= and runtime="),
        ("a:p=0.9,runtime=5,runtime=6",
         "solver spec 'a:p=0.9,runtime=5,runtime=6' gives 'runtime' more than once"),
        ("a:p=0.9,P=0.8,runtime=1", "solver spec 'a:p=0.9,P=0.8,runtime=1' gives 'p' more than once"),
        ("a:p=1.5,runtime=1", "a: solve_probability must lie in [0, 1]"),
    ])
    def test_solver_spec_rejected(self, tmp_path, capsys, text, message):
        dest = tmp_path / "x.csv"
        assert main(["gen", "-o", str(dest), "--solver", text]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not dest.exists()
        assert err.startswith("error: ") and message in err

    def test_rewrite_leaves_no_stale_trajectories(self, tmp_path, capsys):
        dest = tmp_path / "x.csv"
        assert main(["gen", "-o", str(dest), "--instances", "40", "--opt-fraction", "0.5"]) == 0
        assert (tmp_path / "x_trajectories.csv").stat().st_size > 100
        capsys.readouterr()
        assert main(["gen", "-o", str(dest), "--instances", "40"]) == 0
        # The old trajectory file is overwritten with its header, and named.
        assert capsys.readouterr().out == f"{dest}\n{tmp_path / 'x_trajectories.csv'}\n"
        assert (tmp_path / "x_trajectories.csv").read_text() == "instance_id,solver_id,t_s,obj\n"
        assert main(["validate", str(dest), "--timeout", "100"]) == 0
        assert capsys.readouterr().out.startswith("ok: scenario 'x', 40 instances (0 optimization)")

    def test_optimization_fraction(self, tmp_path):
        dest = tmp_path / "opt.csv"
        assert main(["gen", "-o", str(dest), "--instances", "15", "--seed", "1",
                     "--opt-fraction", "1.0"]) == 0
        header = dest.read_text().splitlines()[0]
        assert header.endswith(",obj")


class TestCollectorPause:
    """main pauses the cyclic collector for the command and restores the caller's state."""

    @pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def _main(self, monkeypatch, argv, during):
        parse_runs = cli.parse_runs

        def spy(*args, **kwargs):
            during.append(gc.isenabled())
            return parse_runs(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_runs", spy)
        return main(argv)

    def test_success(self, collector, runs_file, monkeypatch, capsys):
        during = []
        argv = ["validate", str(runs_file), "--timeout", "100"]
        assert self._main(monkeypatch, argv, during) == 0
        assert during == [False]
        assert gc.isenabled() is collector

    def test_row_error(self, collector, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(RUNS_CSV + "i3,a,weird,1.0\n")
        during = []
        assert self._main(monkeypatch, ["validate", str(bad), "--timeout", "100"], during) == 1
        assert "line 6" in capsys.readouterr().err
        assert during == [False]
        assert gc.isenabled() is collector

    def test_unexpected_error(self, collector, runs_file, monkeypatch, capsys):
        during = []

        def boom(*args, **kwargs):
            during.append(gc.isenabled())
            raise RuntimeError("internal")

        monkeypatch.setattr(cli, "parse_runs", boom)
        assert main(["score", str(runs_file), "--timeout", "100"]) == 2
        assert "RuntimeError" in capsys.readouterr().err
        assert during == [False]
        assert gc.isenabled() is collector

    def test_usage_error(self, collector, capsys):
        assert main(["score"]) == 1
        assert gc.isenabled() is collector

    @pytest.fixture(autouse=True)
    def no_freeze(self):
        """main leaves the permanent generation as it found it, however it ends."""
        frozen = gc.get_freeze_count()
        yield
        assert gc.get_freeze_count() == frozen


class TestRunFreezes:
    """The console entry freezes what is left alive once main returns, then exits."""

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_freeze_after_main(self, monkeypatch, code):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exited:
            cli.run()
        assert exited.value.code == code
        assert calls == ["main", "freeze"]

    def test_fresh_interpreter(self, runs_file):
        # atexit still runs after the freeze, which an os._exit would skip.
        argv = ["solvereval", "validate", str(runs_file), "--timeout", "100"]
        program = ("import atexit, gc, sys\n"
                   "import solvereval.cli\n"
                   "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
                   " file=sys.stderr))\n"
                   f"sys.argv = {argv!r}\n"
                   "solvereval.cli.run()\n")
        proc = _python("-c", program)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"ok: ")
        word, count = proc.stderr.split()
        assert word == b"frozen" and int(count) > 0


def _python(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """Run python with argv in a child that imports the package under test, wherever
    pytest found it; env holds extra variables."""
    src = str(Path(solvereval.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


def _module_cli(*argv: str, python: tuple[str, ...] = (),
                **env: str) -> subprocess.CompletedProcess:
    """Run python -m solvereval.cli in such a child; python holds interpreter options."""
    return _python(*python, "-m", "solvereval.cli", *argv, **env)


class TestEntryPoint:
    def test_installed_script(self):
        proc = _module_cli("--version")
        assert proc.returncode == 0
        assert b"solvereval" in proc.stdout

    def test_module_exit_codes(self, runs_file, tmp_path):
        ok = _module_cli("validate", str(runs_file), "--timeout", "100")
        assert (ok.returncode, ok.stderr) == (0, b"")
        assert b"2 instances" in ok.stdout
        missing = _module_cli("validate", str(tmp_path / "absent.csv"), "--timeout", "100")
        assert (missing.returncode, missing.stdout) == (1, b"")
        assert missing.stderr.startswith(b"error:") and b"absent.csv" in missing.stderr


# Runs by a solver whose id is not ASCII: on a decision instance, and on an
# optimization one with the solution's event.
ACCENTED_RUNS = "instance_id,solver_id,status,time_s\ni1,café,ok,1.5\ni1,b,timeout,100.0\n"
ACCENTED_OPT_RUNS = ("instance_id,solver_id,status,time_s,obj\n"
                     "o1,café,ok,1.5,7\no1,b,timeout,100.0,\n")
ACCENTED_EVENTS = "instance_id,solver_id,t_s,obj\no1,café,1.0,7\n"


class TestFileEncoding:
    def test_utf8_is_read_whatever_the_locale(self, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_bytes(ACCENTED_RUNS.encode("utf-8"))
        argv = ("runtime-dist", str(runs), "--timeout", "100", "--format", "json")
        default = _module_cli(*argv)
        ascii_locale = _module_cli(*argv, python=("-X", "utf8=0"),
                                   LC_ALL="C", PYTHONCOERCECLOCALE="0")
        assert (default.returncode, default.stderr) == (0, b"")
        assert (ascii_locale.returncode, ascii_locale.stderr) == (0, b"")
        assert ascii_locale.stdout == default.stdout
        assert "café" in json.loads(default.stdout)["distributions"]

    @pytest.mark.parametrize("command", [("runtime-dist",), ("rank", "--metric", "par")])
    def test_text_output_is_utf8_whatever_the_locale(self, tmp_path, command):
        runs = tmp_path / "runs.csv"
        runs.write_bytes(ACCENTED_RUNS.encode("utf-8"))
        argv = (command[0], str(runs), "--timeout", "100", *command[1:])
        utf8 = _module_cli(*argv, LC_ALL="C.UTF-8")
        ascii_locale = _module_cli(*argv, python=("-X", "utf8=0"),
                                   LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        assert (utf8.returncode, utf8.stderr) == (0, b"")
        assert (ascii_locale.returncode, ascii_locale.stderr) == (0, b"")
        assert ascii_locale.stdout == utf8.stdout
        assert "café".encode() in utf8.stdout

    def test_text_output_to_a_text_only_stream(self, tmp_path, monkeypatch):
        import io

        runs = tmp_path / "runs.csv"
        runs.write_bytes(ACCENTED_RUNS.encode("utf-8"))
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert main(["runtime-dist", str(runs), "--timeout", "100"]) == 0
        assert "café" in sys.stdout.getvalue()

    @pytest.mark.parametrize("bad", ["runs.csv", "runs_trajectories.csv", "runs.arff"])
    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, capsys, bad):
        files = {"runs.arff": ARFF_RUNS.replace("i2,1,b,", "i2,1,café,")} if bad == "runs.arff" \
            else {"runs.csv": ACCENTED_OPT_RUNS, "runs_trajectories.csv": ACCENTED_EVENTS}
        for name, text in files.items():
            (tmp_path / name).write_bytes(text.encode("latin-1" if name == bad else "utf-8"))
        runs = tmp_path / ("runs.arff" if bad == "runs.arff" else "runs.csv")
        assert main(["validate", str(runs), "--timeout", "100"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: SchemaError: {tmp_path / bad}: not UTF-8 text")


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_output_formats() -> dict[str, tuple[list[str], str, list[str]]]:
    """command -> (--format values, the default one, JSON keys), read off README's table."""
    text = README.read_text().split("Output formats (`--format`)", 1)[1]
    lines = text.splitlines()
    start = next(n for n, line in enumerate(lines) if line.startswith("|"))
    table = list(takewhile(lambda line: line.startswith("|"), lines[start:]))
    rows = {}
    for row in table[2:]:  # after the header and its rule
        command, formats, keys = (cell.strip() for cell in row.strip("|").split("|"))
        listed = formats.split(",")
        default = next(f for f in listed if "(default)" in f)
        rows[command.strip("`")] = ([f.split("`")[1] for f in listed], default.split("`")[1],
                                    keys.split(", "))
    return rows


def _format_flags() -> dict[str, argparse.Action]:
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    return {name: action for name, sub in commands.items()
            for action in sub._actions if action.dest == "format"}


class TestReadmeOutputFormats:
    """README's "Output formats" table matches what each command prints."""

    TABLE = _readme_output_formats()

    def test_every_command_with_json_is_listed(self):
        with_json = sorted(c for c, flag in _format_flags().items() if "json" in flag.choices)
        assert sorted(self.TABLE) == with_json

    @pytest.mark.parametrize("command", sorted(TABLE))
    def test_formats_and_json_keys(self, command, runs_file, capsys):
        formats, default, keys = self.TABLE[command]
        flag = _format_flags()[command]
        assert formats == list(flag.choices)
        assert default == flag.default
        assert main([command, str(runs_file), "--timeout", "100", "--format", "json"]) == 0
        assert sorted(json.loads(capsys.readouterr().out)) == sorted(keys)
