"""Output checks of the benchmark.

Each check is one attempted operation; a check that does not hold counts
as a failed one. The reference values come from ``solvereval.oracle`` (brute
force over a scenario of at most 50 instances and 6 solvers) or from plain
loops over the parsed runs, never from the functions being measured.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from solvereval.io import emit_scenario, parse_runs, trajectories_path_for
from solvereval.oracle import MAX_INSTANCES, MAX_SOLVERS, oracle_score
from solvereval.scenario import RunStatus
from workloads import CV_METRICS, DELTAS, FLIP, TIMEOUT, Command, Workload

# (argv, cwd) -> (exit code, stdout bytes)
RunCli = Callable[[tuple[str, ...], Path], tuple[int, bytes]]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_rows(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_restriction(runs: Path, out: Path) -> None:
    """The first 50 instances and first 6 solvers of a runs file, trajectories too."""
    header, rows = _read_rows(runs)
    instances = list(dict.fromkeys(r[0] for r in rows))[:MAX_INSTANCES]
    solvers = list(dict.fromkeys(r[1] for r in rows))[:MAX_SOLVERS]
    keep = lambda r: r[0] in instances and r[1] in solvers  # noqa: E731
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(out, header, [r for r in rows if keep(r)])
    traj = trajectories_path_for(runs)
    if traj.exists():
        theader, trows = _read_rows(traj)
        _write_rows(trajectories_path_for(out), theader, [r for r in trows if keep(r)])


def _oracle_flip(sc, a: str, b: str) -> tuple[float | None, bool]:
    """Flip threshold by scanning every breakpoint with the oracle.

    Also says whether some breakpoint left the two scores within summation
    rounding of each other, where the oracle's plain sums cannot decide.
    """
    def ms(i, s):
        return round(sc.outcomes[(i, s)].time_s * 1000)

    breakpoints = {0} | {
        abs(ms(i, x) - ms(i, o))
        for i in sc.instance_ids for x in (a, b) for o in sc.solvers if o != x
    }
    flip, undecided = None, False
    for d in sorted(breakpoints, reverse=True):
        sa = oracle_score(sc, "mznc", a, delta=d / 1000)
        sb = oracle_score(sc, "mznc", b, delta=d / 1000)
        undecided = undecided or _close(sa, sb)
        if not sa > sb:
            break
        flip = d / 1000
    return flip, undecided


def _compare(name: str, got: dict, want: dict) -> Check:
    bad = [k for k in want if k not in got or not _close(got[k], want[k])]
    if set(got) != set(want):
        bad.append(f"keys {sorted(got)} != {sorted(want)}")
    return Check(name, not bad, f"disagree on {bad[:5]}" if bad else "")


def oracle_checks(workload: Workload, runs: Path, work: Path, run_cli: RunCli) -> list[Check]:
    """CLI results on a <=50x6 restriction agree with brute force."""
    small = work / "small" / "runs.csv"
    write_restriction(runs, small)
    sc = parse_runs(small, float(TIMEOUT))
    checks = []

    def cli_json(name: str, argv: tuple[str, ...]):
        code, out = run_cli(argv, small.parent)
        if code != 0:
            checks.append(Check(name, False, f"exit code {code}"))
            return None
        return json.loads(out)

    if workload.name == "cv-score":
        argv = ("score", "runs.csv", "--timeout", TIMEOUT, "--format", "json",
                *(f for m in CV_METRICS for f in ("--metric", m)))
        report = cli_json("oracle score", argv)
        if report is not None:
            got = {(m, s): v for m, table in zip(report["metric"], report["scores"])
                   for s, v in table.items()}
            want = {(m, s): oracle_score(sc, m, s) for m in CV_METRICS for s in sc.solvers}
            checks.append(_compare("oracle score", got, want))

    elif workload.name == "pairwise":
        ranking = cli_json("oracle rank mznc",
                           ("rank", "runs.csv", "--timeout", TIMEOUT, "--metric", "mznc",
                            "--format", "json"))
        if ranking is not None:
            got = {e["solver"]: e["score"] for e in ranking["ranking"]}
            want = {s: oracle_score(sc, "mznc", s) for s in sc.solvers}
            checks.append(_compare("oracle rank mznc", got, want))
        sweep = cli_json("oracle sweep-delta",
                         ("sweep-delta", "runs.csv", "--timeout", TIMEOUT, "--deltas", DELTAS,
                          "--flip", ",".join(FLIP), "--format", "json"))
        if sweep is not None:
            got = {(row["delta"], s): v for row in sweep["sweep"] for s, v in row["scores"].items()}
            want = {(float(d), s): oracle_score(sc, "mznc", s, delta=float(d))
                    for d in DELTAS.split(",") for s in sc.solvers}
            checks.append(_compare("oracle sweep-delta", got, want))
            flip, undecided = _oracle_flip(sc, *FLIP)
            got_flip = sweep["flip"]["delta"]
            checks.append(Check(
                "oracle flip", got_flip == flip or undecided,
                f"cli {got_flip} oracle {flip}" + (" (undecided breakpoint)" if undecided else ""),
            ))

    else:
        header, rows = _read_rows(small)
        obj_col = header.index("obj") if "obj" in header else None
        n_opt = len({r[0] for r in rows if obj_col is not None and r[obj_col].strip()})
        code, out = run_cli(("validate", "runs.csv", "--timeout", TIMEOUT), small.parent)
        want_line = (f"ok: scenario 'runs', {len(sc.instance_ids)} instances ({n_opt} optimization), "
                     f"{len(sc.solvers)} solvers, timeout {TIMEOUT} s\n")
        checks.append(Check("oracle validate", code == 0 and out.decode() == want_line,
                            f"exit {code}: {out[:200]!r}"))

        h2h = cli_json("oracle head2head",
                       ("head2head", "runs.csv", "--timeout", TIMEOUT, "--format", "json"))
        if h2h is not None:
            got = {(p["solver_a"], p["solver_b"]): (p["a_faster"], p["b_faster"], p["ties"])
                   for p in h2h["pairs"]}
            want = {}
            for x, a in enumerate(sc.solvers):
                for b in sc.solvers[x + 1:]:
                    diffs = [round(sc.outcomes[(i, a)].time_s * 1000)
                             - round(sc.outcomes[(i, b)].time_s * 1000) for i in sc.instance_ids]
                    want[(a, b)] = (sum(d < 0 for d in diffs), sum(d > 0 for d in diffs),
                                    sum(d == 0 for d in diffs))
            checks.append(Check("oracle head2head", got == want))

        dist = cli_json("oracle runtime-dist",
                        ("runtime-dist", "runs.csv", "--timeout", TIMEOUT, "--format", "json"))
        if dist is not None:
            want = {s: sorted(o.time_s for (i, t), o in sc.outcomes.items()
                              if t == s and o.status is RunStatus.SOLVED)
                    for s in sc.solvers}
            checks.append(Check("oracle runtime-dist", dist["distributions"] == want))
    return checks


def shuffle_check(
    command: Command, input_dir: Path, work: Path, run_cli: RunCli, seed: int
) -> Check:
    """The cv-score report keeps its bytes when the runs file's instances are permuted.

    As in acceptance criterion 8, each instance's block of rows moves as a
    whole, so solvers keep their order of first appearance.
    """
    shuffled = work / "shuffled"
    shuffled.mkdir(parents=True, exist_ok=True)
    header, rows = _read_rows(input_dir / "runs.csv")
    blocks: dict[str, list[list[str]]] = {}
    for row in rows:
        blocks.setdefault(row[0], []).append(row)
    order = list(blocks.values())
    random.Random(seed).shuffle(order)
    _write_rows(shuffled / "runs.csv", header, [r for block in order for r in block])
    traj = trajectories_path_for(input_dir / "runs.csv")
    if traj.exists():
        shutil.copyfile(traj, trajectories_path_for(shuffled / "runs.csv"))
    code, _ = run_cli(command.argv, shuffled)
    report = command.outputs[0]
    same = code == 0 and (shuffled / report).read_bytes() == (input_dir / report).read_bytes()
    return Check("permuted instances, same report", same, f"exit code {code}")


def roundtrip_check(gen: Path, reference: Path, work: Path) -> list[Check]:
    """``gen`` writes what the library writes, and parsing then re-emitting keeps the bytes."""
    def same(a: Path, b: Path) -> bool:
        return all(x.read_bytes() == y.read_bytes() for x, y in
                   ((a, b), (trajectories_path_for(a), trajectories_path_for(b))))

    reemit = work / "reemit" / gen.name
    reemit.parent.mkdir(parents=True, exist_ok=True)
    emit_scenario(parse_runs(gen, float(TIMEOUT)), reemit)
    return [
        Check("gen output equals library output", same(gen, reference)),
        Check("gen output re-parses and re-emits identically", same(gen, reemit)),
    ]
