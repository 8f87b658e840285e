"""The benchmark's correctness checks pass on each workload's self-test sizes.

bench/checks.py is imported as it is, and every command it runs goes
through solvereval.cli.main in this process: the oracle checks, the
permuted-instances check of cv-score and the round trip of
ingest-roundtrip. A check that fails here would count as a failed
operation in every benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from solvereval.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 3


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("checks", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import checks
    import workloads

    return checks, workloads


@pytest.mark.parametrize("name", ["cv-score", "pairwise", "ingest-roundtrip"])
def test_every_check_passes(bench, name, tmp_path, monkeypatch):
    checks, workloads = bench

    def run_cli(argv, cwd):
        monkeypatch.chdir(cwd)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return code, out.getvalue().encode()

    workload = workloads.WORKLOADS[name]
    sizes, input_dir, work = workload.tiny, tmp_path / "input", tmp_path / "work"
    workload.setup(sizes, SEED, input_dir)
    commands = workload.commands(sizes, SEED)
    for command in commands:
        assert run_cli(command.argv, input_dir)[0] == 0, command.argv

    found = checks.oracle_checks(workload, input_dir / workload.scenario_file, work, run_cli)
    if name == "cv-score":
        found.append(checks.shuffle_check(commands[0], input_dir, work, run_cli, SEED))
    if name == "ingest-roundtrip":
        found += checks.roundtrip_check(
            input_dir / workload.scenario_file, input_dir / workload.setup_file, work)
    assert found
    assert [c for c in found if not c.ok] == []
