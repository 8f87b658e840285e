"""Golden report bytes: the CLI's reports on one small generated scenario.

Each digest is the sha256 of a command's output on a 200 x 8 scenario of
the bench solver family (seed 1, half the instances optimization ones,
with trajectories), or of the runs and trajectory files ``gen`` writes
for that scenario. A change meant to keep reports byte-identical must
keep every digest; a change meant to alter a report must update its
digest on purpose.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from test_fold_columns import bench_family_spec

from solvereval import emit_scenario, generate
from solvereval.cli import main

CV_METRICS = (
    "par", "runtime", "solved-count", "normalized-runtime", "speedup",
    "closed-gap", "ratio", "area", "bounded-reward",
)
METRIC_FLAGS = tuple(f for m in CV_METRICS for f in ("--metric", m))
DELTAS = ",".join(f"{k / 10:g}" for k in range(21))

COMMANDS = {
    "score-json": ("score", "runs.csv", "--timeout", "100", "--folds", "10",
                   "--format", "json", *METRIC_FLAGS, "-o", "out"),
    "score-csv": ("score", "runs.csv", "--timeout", "100", "--folds", "10",
                  "--format", "csv", *METRIC_FLAGS, "-o", "out"),
    "score-table": ("score", "runs.csv", "--timeout", "100", "--folds", "10",
                    "--format", "table", *METRIC_FLAGS, "-o", "out"),
    "rank-mznc": ("rank", "runs.csv", "--timeout", "100", "--metric", "mznc"),
    "sweep-delta-flip": ("sweep-delta", "runs.csv", "--timeout", "100", "--deltas", DELTAS,
                         "--flip", "s04,s00", "--format", "json"),
    "validate": ("validate", "runs.csv", "--timeout", "100"),
    "head2head-json": ("head2head", "runs.csv", "--timeout", "100", "--format", "json"),
    "head2head-text": ("head2head", "runs.csv", "--timeout", "100"),
    "runtime-dist-json": ("runtime-dist", "runs.csv", "--timeout", "100", "--format", "json"),
    "runtime-dist-text": ("runtime-dist", "runs.csv", "--timeout", "100"),
}

DIGESTS = {
    "score-json": "10c328157752347ae0d4ce7bd8ebbc4bffd8717ab5b6e9fd42f0c2c99e5df11d",
    "score-csv": "2c9421820cd7ff3aa8437927c694556ad339f6d5acf7acf4038d05ffbb5f97c5",
    "score-table": "abea91e3cdc3247e51fa53739c6f23af4b0c96bb6ba330356d0afb015cc2dfc0",
    "rank-mznc": "8e38d6fd57ac7fd15885ef6691617b04b53cb14dd8c9f06ef2c3e283366065de",
    "sweep-delta-flip": "2332bd00c562e2c93524efc08195d96885a6361b265aff8f14a874ab2d3cbc2c",
    "validate": "9fe9293d22ca8260f674ef4cb5a38c23b31b9e4a0d3d13e92edb80b6839206fb",
    "head2head-json": "12d64571eed89ad9f84ddd587b4ecd5e0b40424e0e88ac33caf29bb9ff857421",
    "head2head-text": "c0e02ebadee34fbdb3bffbb1b2acfc12bf76dc302a9209eb7c5a57ad4df8c006",
    "runtime-dist-json": "b24e14bc777f77419b6a57f75d40580f97c80e584f006642211a4488d35a3e90",
    "runtime-dist-text": "11530948e1d6dbb9681bd47f575b9f2d2e1b3b5016c9dcc94da20dc1db925f55",
}

GEN_DIGESTS = {
    "gen.csv": "7dcf1d4de0d219aa5e451ded2ec8cfe0986ea679f1ca3cd5800675630c7ea68e",
    "gen_trajectories.csv": "929da14ffb5ae00e0b8c1dab9037970c8d045cc026d47495f826f0fd9f394dcb",
}


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory) -> Path:
    where = tmp_path_factory.mktemp("golden")
    emit_scenario(generate(bench_family_spec(1, 200, 8, 0.5)), where / "runs.csv")
    return where


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_digest(name, scenario_dir, monkeypatch, capsys):
    # Reports name their runs file as given, so every command runs beside it.
    monkeypatch.chdir(scenario_dir)
    argv = COMMANDS[name]
    assert main(list(argv)) == 0
    out = Path("out").read_bytes() if argv[-2] == "-o" else capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name]


def test_gen_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = bench_family_spec(1, 200, 8, 0.5)
    solver_flags = [
        flag
        for s in spec.solvers
        for flag in ("--solver", f"{s.name}:p={s.solve_probability!r},"
                     f"runtime=uniform({s.runtime.lo!r},{s.runtime.hi!r}),"
                     f"quality=uniform({s.objective_quality.lo!r},{s.objective_quality.hi!r})")
    ]
    assert main(["gen", "-o", "gen.csv", "--seed", "1", "--instances", "200", "--timeout", "100",
                 "--opt-fraction", "0.5", *solver_flags]) == 0
    for name, digest in GEN_DIGESTS.items():
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == digest, name
