"""The three benchmark workloads: their inputs, set-up and CLI commands.

Every workload draws its scenario from one solver family (below) with a
100 s timeout, so the workloads differ only in size and in which commands
a pass runs. A pass is the ordered list of ``solvereval`` commands; each
command runs with the workload's input directory as working directory and
names its files relatively, so report bytes do not depend on where the
checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import solvereval.io
import solvereval.synthkit
from solvereval.synthkit import ArchetypeSpec, SolverSpec, uniform

TIMEOUT = "100"
DELTAS = ",".join(f"{k / 10:g}" for k in range(21))  # 0,0.1,...,2
# s04 (solve probability 0.82) outscores s00 (0.5) at every breakpoint on
# every seed tried (1-20 at 60x8, 1-15 at 120x8), so the flip scan always
# visits the whole breakpoint list. With s01,s00 the scan stops early on
# some seeds (at 120x8: 9, 13, 14 and 15 of 1-15, after 1 to about 630 of
# about 1,000 breakpoints), which would make pass time depend on the seed.
FLIP = ("s04", "s00")
CV_METRICS = (
    "par", "runtime", "solved-count", "normalized-runtime", "speedup",
    "closed-gap", "ratio", "area", "bounded-reward",
)


def solver_family(n: int) -> tuple[SolverSpec, ...]:
    return tuple(
        SolverSpec(
            0.5 + 0.08 * (j % 5),
            uniform(1 + j % 10, 40 + 5 * (j % 10)),
            uniform(0, 5),
            name=f"s{j:02d}",
        )
        for j in range(n)
    )


def cli_solver_spec(spec: SolverSpec) -> str:
    """The ``gen --solver`` text that parses back to exactly ``spec``."""
    r, q = spec.runtime, spec.objective_quality
    return (
        f"{spec.name}:p={spec.solve_probability!r},runtime=uniform({r.lo!r},{r.hi!r}),"
        f"quality=uniform({q.lo!r},{q.hi!r})"
    )


@dataclass(frozen=True)
class Sizes:
    instances: int
    solvers: int
    opt_fraction: float
    folds: int = 10

    def spec(self, seed: int) -> ArchetypeSpec:
        return ArchetypeSpec(
            seed=seed,
            n_instances=self.instances,
            timeout_s=float(TIMEOUT),
            solvers=solver_family(self.solvers),
            opt_fraction=self.opt_fraction,
        )

    @property
    def rows(self) -> int:
        return self.instances * self.solvers


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # files the command writes, compared across passes
    rows_read: int = 0


def _cv_score(sz: Sizes, seed: int) -> list[Command]:
    metric_flags = [f for m in CV_METRICS for f in ("--metric", m)]
    return [Command(
        ("score", "runs.csv", "--timeout", TIMEOUT, "--folds", str(sz.folds),
         "--format", "json", *metric_flags, "-o", "report.json"),
        outputs=("report.json",),
        rows_read=sz.rows,
    )]


def _pairwise(sz: Sizes, seed: int) -> list[Command]:
    return [
        Command(("rank", "runs.csv", "--timeout", TIMEOUT, "--metric", "mznc"),
                rows_read=sz.rows),
        Command(("sweep-delta", "runs.csv", "--timeout", TIMEOUT, "--deltas", DELTAS,
                 "--flip", ",".join(FLIP), "--format", "json"),
                rows_read=sz.rows),
    ]


def _ingest_roundtrip(sz: Sizes, seed: int) -> list[Command]:
    solver_flags = [f for s in solver_family(sz.solvers) for f in ("--solver", cli_solver_spec(s))]
    return [
        Command(("gen", "-o", "gen.csv", "--seed", str(seed), "--instances", str(sz.instances),
                 "--timeout", TIMEOUT, "--opt-fraction", repr(sz.opt_fraction), *solver_flags),
                outputs=("gen.csv", "gen_trajectories.csv")),
        Command(("validate", "gen.csv", "--timeout", TIMEOUT), rows_read=sz.rows),
        Command(("head2head", "gen.csv", "--timeout", TIMEOUT, "--format", "json"),
                rows_read=sz.rows),
        Command(("runtime-dist", "gen.csv", "--timeout", TIMEOUT, "--format", "json"),
                rows_read=sz.rows),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    full: Sizes
    tiny: Sizes  # for the self-test
    commands: Callable[[Sizes, int], list[Command]]  # (sizes, seed) -> one pass
    scenario_file: str  # the runs CSV the pass reads, relative to the input directory
    # Where the set-up writes the scenario, relative to the input directory.
    # ingest-roundtrip generates its own input with ``gen``; its set-up
    # writes the same scenario through the library as the reference that
    # ``gen`` output must match byte for byte.
    setup_file: str

    def setup(self, sizes: Sizes, seed: int, input_dir: Path) -> None:
        """Generate the workload's scenario and write it as runs and trajectory CSVs."""
        target = input_dir / self.setup_file
        target.parent.mkdir(parents=True, exist_ok=True)
        # Called through the modules so that a traced set-up sees both calls.
        scenario = solvereval.synthkit.generate(sizes.spec(seed))
        solvereval.io.emit_scenario(scenario, target)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cv-score", Sizes(2000, 20, 0.5), Sizes(40, 6, 0.5, folds=4),
                 _cv_score, "runs.csv", "runs.csv"),
        Workload("pairwise", Sizes(60, 8, 0.3), Sizes(20, 6, 0.3),
                 _pairwise, "runs.csv", "runs.csv"),
        Workload("ingest-roundtrip", Sizes(2000, 20, 0.5), Sizes(40, 6, 0.5),
                 _ingest_roundtrip, "gen.csv", "reference/gen.csv"),
    )
}
