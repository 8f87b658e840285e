"""The package namespace: lazy re-exports, and the metric registry behind the CLI."""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import solvereval
from solvereval.cli import build_parser, main
from solvereval.metrics import METRICS

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(solvereval.__path__))


def _child(code: str, *options: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter, given options, that imports the package under test."""
    src = str(Path(solvereval.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *options, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestLazyNamespace:
    def test_cli_import_leaves_oracle_and_synthkit_out(self):
        proc = _child(
            "import sys, solvereval.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('solvereval.')))"
        )
        assert proc.returncode == 0, proc.stderr
        loaded = eval(proc.stdout)
        assert "solvereval.metrics" not in loaded
        assert "solvereval.harness" not in loaded
        assert "solvereval.baselines" not in loaded
        assert "solvereval.oracle" not in loaded
        assert "solvereval.synthkit" not in loaded

    @pytest.mark.parametrize("command", ["validate", "gen"])
    def test_validate_and_gen_load_no_scoring_module(self, command, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text("instance_id,solver_id,status,time_s\ni1,a,ok,1.5\ni1,b,timeout,10\n")
        argv = {
            "validate": ["validate", str(runs), "--timeout", "10"],
            "gen": ["gen", "--instances", "5", "-o", str(tmp_path / "gen.csv")],
        }[command]
        proc = _child(
            "import sys\n"
            "from solvereval.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('solvereval.')"
            " or m == 'statistics'))"
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0"
        assert {"solvereval.harness", "solvereval.baselines", "statistics"}.isdisjoint(
            eval(loaded))

    @pytest.mark.parametrize("command", ["gen", "validate", "head2head", "runtime-dist"])
    def test_ingest_commands_load_no_scoring_module(self, command, tmp_path):
        # Only score and rank build the metric arguments, whose choices are read off the
        # registry, so reading and writing runs files compiles no scoring module.
        runs = tmp_path / "runs.csv"
        runs.write_text("instance_id,solver_id,status,time_s\ni1,a,ok,1.5\ni1,b,timeout,10\n")
        read = [str(runs), "--timeout", "10"]
        argv = {
            "gen": ["gen", "--instances", "5", "--opt-fraction", "0.5",
                    "-o", str(tmp_path / "gen.csv")],
            "validate": ["validate", *read],
            "head2head": ["head2head", *read, "--format", "json"],
            "runtime-dist": ["runtime-dist", *read, "--format", "json"],
        }[command]
        proc = _child(
            "import sys\n"
            "from solvereval.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('solvereval.')))"
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0"
        assert {"solvereval.metrics", "solvereval.harness", "solvereval.baselines"}.isdisjoint(
            eval(loaded))

    @pytest.mark.parametrize("argv", [
        ["rank", "--metric", "mznc"],
        ["sweep-delta"],
        ["head2head"],
        ["runtime-dist"],
        ["score", "--folds", "3", "--agg", "median"],
    ], ids=lambda argv: " ".join(argv))
    def test_traceback_and_statistics_load_only_when_used(self, argv, tmp_path):
        runs = tmp_path / "runs.csv"
        runs.write_text("instance_id,solver_id,status,time_s\n" + "".join(
            f"i{k},a,ok,{1 + k}\ni{k},b,ok,{2 + k % 3}\n" for k in range(6)))
        proc = _child(
            "import sys\n"
            "from solvereval.cli import main\n"
            f"code = main({[argv[0], str(runs), '--timeout', '100', *argv[1:]]!r})\n"
            "print(code, sorted(m for m in ('traceback', 'statistics') if m in sys.modules))"
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0"
        # Only a median or geometric mean of fold scores needs statistics.
        assert eval(loaded) == (["statistics"] if "--agg" in argv else [])

    @staticmethod
    def _loaded(argv: list[str]) -> set[str]:
        """The package's modules a command loads, run in a fresh interpreter."""
        proc = _child(
            "import sys\n"
            "from solvereval.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('solvereval.')))"
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0"
        return {m.removeprefix("solvereval.") for m in eval(loaded)}

    @pytest.fixture
    def inputs(self, tmp_path):
        """Two solvers on six instances, as a runs CSV and as an attribute-relation table."""
        runs = [(f"i{k}", s, t) for k in range(6) for s, t in (("a", 1 + k), ("b", 2 + k % 3))]
        (tmp_path / "runs.csv").write_text("instance_id,solver_id,status,time_s\n" + "".join(
            f"{i},{s},ok,{t}\n" for i, s, t in runs))
        (tmp_path / "runs.arff").write_text(
            "@relation runs\n" + "".join(f"@attribute {a} string\n" for a in (
                "instance_id", "repetition", "algorithm", "runtime", "runstatus"))
            + "@data\n" + "".join(f"{i},1,{s},{t},ok\n" for i, s, t in runs))
        return tmp_path

    # Every command once, beside the modules only it loads: the scenario writer (gen),
    # the report (score) and the attribute-relation reader (.arff input).
    COMMANDS = {
        "gen": (["gen", "--instances", "5", "--opt-fraction", "0.5", "-o", "{dir}/gen.csv"],
                {"writer"}),
        "score": (["score", "{dir}/runs.csv", "--timeout", "100", "--folds", "3",
                   "--metric", "closed-gap", "--format", "json"], {"report"}),
        "score arff": (["score", "{dir}/runs.arff", "--timeout", "100"], {"report", "aslib"}),
        "rank": (["rank", "{dir}/runs.csv", "--timeout", "100", "--metric", "mznc"], set()),
        "rank arff": (["rank", "{dir}/runs.arff", "--timeout", "100"], {"aslib"}),
        "sweep-delta": (["sweep-delta", "{dir}/runs.csv", "--timeout", "100", "--flip", "a,b",
                         "--format", "json"], set()),
        "head2head": (["head2head", "{dir}/runs.csv", "--timeout", "100"], set()),
        "runtime-dist": (["runtime-dist", "{dir}/runs.csv", "--timeout", "100"], set()),
        "validate": (["validate", "{dir}/runs.csv", "--timeout", "100"], set()),
        "validate arff": (["validate", "{dir}/runs.arff", "--timeout", "100"], {"aslib"}),
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_writer_report_and_table_reader_load_only_for_their_command(self, name, inputs):
        argv, own = self.COMMANDS[name]
        loaded = self._loaded([a.format(dir=inputs) for a in argv])
        assert loaded & {"writer", "report", "aslib"} == own
        assert "validation" not in loaded  # the library route from raw mappings

    def test_rank_mznc_loads_only_what_it_runs(self, inputs):
        loaded = self._loaded(["rank", str(inputs / "runs.csv"), "--timeout", "100",
                               "--metric", "mznc"])
        assert loaded == {"cli", "errors", "scenario", "io", "metrics", "harness"}

    def test_sweep_delta_loads_no_harness(self, inputs):
        loaded = self._loaded(["sweep-delta", str(inputs / "runs.csv"), "--timeout", "100",
                               "--flip", "a,b", "--format", "json"])
        assert loaded == {"cli", "errors", "scenario", "io", "metrics"}

    def test_io_import_loads_no_scoring_module(self):
        # A lower-is-better column: the table marks the ranking's first score, the minimum.
        report = {
            "scenario": {"id": "s", "n_instances": 2, "solvers": ["a", "b"], "timeout_s": 10.0},
            "metric": ["par"], "params": [{"lambda": 10.0}], "scores": [{"a": 2.5, "b": 1.5}],
            "ranking": [[{"solver": "b", "score": 1.5, "position": 1, "tied": False},
                         {"solver": "a", "score": 2.5, "position": 2, "tied": False}]],
            "baselines": [], "warnings": [], "provenance": {},
        }
        proc = _child(
            "import sys, solvereval.io\n"
            f"table = solvereval.io.emit_report({report!r}, 'table').decode()\n"
            "print(repr(table.splitlines()[-2:]))\n"
            "print(sorted(m for m in sys.modules if m.startswith('solvereval.')))"
        )
        assert proc.returncode == 0, proc.stderr
        rows, loaded = map(eval, proc.stdout.splitlines())
        assert [row.split() for row in rows] == [["a", "2.5000"], ["b", "1.5000*"]]
        assert {"solvereval.harness", "solvereval.baselines", "solvereval.metrics"}.isdisjoint(
            loaded)

    def test_package_read_is_listed_by_importtime(self):
        # A module loaded through the package namespace is imported as an import
        # statement imports it, so -X importtime (the CI import check) lists it.
        proc = _child("from solvereval import generate", "-X", "importtime")
        listed = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert proc.returncode == 0, proc.stderr
        assert "solvereval.synthkit" in listed

    def test_package_import_loads_no_submodule(self):
        proc = _child(
            "import sys, solvereval\n"
            "print(sorted(m for m in sys.modules if m.startswith('solvereval.')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert eval(proc.stdout) == []

    @pytest.mark.parametrize("name", solvereval.__all__)
    def test_every_exported_name_resolves(self, name):
        namespace: dict[str, object] = {}
        exec(f"from solvereval import {name}", namespace)
        assert namespace[name] is getattr(solvereval, name)
        assert name in dir(solvereval)

    def test_each_name_is_listed_once(self):
        assert len(solvereval.__all__) == len(set(solvereval.__all__))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="nope"):
            solvereval.nope  # noqa: B018
        with pytest.raises(ImportError):
            exec("from solvereval import nope", {})


class TestExportTables:
    """A stale lazy entry would fail only when first read, so every entry is read here."""

    @pytest.mark.parametrize("module", sorted(solvereval._EXPORTS))
    def test_lazy_table_names_exist(self, module):
        mod = importlib.import_module(f"solvereval.{module}")
        missing = [n for n in solvereval._EXPORTS[module] if not hasattr(mod, n)]
        assert missing == []

    def test_lazy_table_names_only_real_submodules(self):
        assert set(solvereval._EXPORTS) <= set(SUBMODULES)

    @pytest.mark.parametrize("module,name", [
        *(("io", n) for n in ("build_report", "emit_report", "emit_scenario", "parse_aslib_runs")),
        *(("scenario", n) for n in ("build_scenario", "restrict", "validate_scenario")),
    ])
    def test_name_defined_elsewhere_is_bound_once_read(self, module, name):
        # The benchmark's tracer rebinds a name in the module it reads it from.
        mod = importlib.import_module(f"solvereval.{module}")
        value = getattr(mod, name)
        assert vars(mod)[name] is value and value.__module__ != mod.__name__

    def test_package_name_is_read_from_its_defining_module_and_bound(self):
        # One hop: each name is listed under the module that defines it, not one that
        # forwards it, and a read binds it in the package namespace.
        for name, module in solvereval._MODULE_OF.items():
            value = getattr(solvereval, name)
            assert vars(solvereval)[name] is value
            assert getattr(value, "__module__", f"solvereval.{module}") == f"solvereval.{module}"

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodule_all_names_exist(self, module):
        mod = importlib.import_module(f"solvereval.{module}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == []


def _choices(command: str, dest: str) -> list[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return list(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)


class TestCliChoicesFromRegistry:
    @pytest.mark.parametrize("command", ["score", "rank"])
    def test_metric_choices(self, command):
        assert _choices(command, "metric") == sorted(METRICS)

    @pytest.mark.parametrize("command", ["score", "rank"])
    def test_base_metric_choices(self, command):
        base = [m for m, info in METRICS.items() if info.decomposable_base]
        assert _choices(command, "base_metric") == base
        assert base == ["par", "runtime", "area"]

    @pytest.mark.parametrize("command", ["score", "rank"])
    def test_help_lists_the_registry(self, command, capsys):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # unwrapped, whatever the width
        assert "--metric {" + ",".join(sorted(METRICS)) + "}" in text
        assert "--base-metric {par,runtime,area}" in text

    def test_unknown_metric_message(self, capsys):
        # argparse's own wording of a bad choice, over the registry's names in order.
        reference = argparse.ArgumentParser(prog="solvereval score")
        reference.add_argument("--metric", choices=sorted(METRICS))
        with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()) as err:
            reference.parse_args(["--metric", "nope"])
        wording = err.getvalue().splitlines()[-1].split("error: ", 1)[1]
        assert wording.startswith("argument --metric: invalid choice: 'nope' (choose from ")
        assert main(["score", "runs.csv", "--timeout", "1", "--metric", "nope"]) == 1
        assert capsys.readouterr().err == f"error: solvereval score: {wording}\n"
