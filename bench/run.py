"""Benchmark of the solvereval CLI on three fixed synthetic workloads.

Run from the root of a solvereval checkout:

    python3 bench/run.py --workload cv-score --seed 1 --seconds 30 --trace 0

The program is the checkout's own ``src/``; nothing needs installing.
``--trace 0`` measures the end-to-end metrics: the workload's set-up is
repeated and the median of its CPU time taken, then passes run one after
another (closed loop, one client) until ``--seconds`` have gone by, at least
three of them; each pass runs every command of the workload as a fresh
``python -m solvereval.cli`` process, and its time is the CPU time (user
plus system) those processes used. Meanwhile the reference loop of
reference.py shares the one CPU all of this is pinned to, and every time
is scaled by the loop's speed over the same interval, so the times read as
CPU seconds at the reference speed. The raw CPU times and the wall times
are printed on ``#`` lines. ``--trace 1`` measures the per-layer metrics:
one set-up and one pass replayed in this process through
``solvereval.cli.main`` with spans around each module's public functions
(see tracing.py), between two untraced in-process passes of the same
commands that give the tracing overhead; ``--seconds`` does not apply. Both
modes run the output checks of checks.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it,
starting with ``#``, record the environment and the error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 150
MIN_PASSES = 3
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
STARTUP_SAMPLES = 5


class CommandTimeout(Exception):
    pass


@dataclass
class Outcome:
    """What one command did: exit code, wall and CPU time, peak memory, output digests."""

    code: int
    start: float  # perf_counter when the command started
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    digests: tuple[str, ...] = ()
    stdout: bytes = b""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _digests(stdout: bytes, cwd: Path, outputs) -> tuple[str, ...]:
    """Digests of stdout and of each output file; a missing file reads as "missing"."""
    files = [cwd / f for f in outputs]
    return tuple(
        hashlib.sha256(data).hexdigest() if data is not None else "missing"
        for data in (stdout, *(f.read_bytes() if f.exists() else None for f in files))
    )


def _on_alarm(signum, frame):
    raise CommandTimeout


def run_process(argv, cwd: Path, outputs=()) -> Outcome:
    """Run ``solvereval`` with argv as a fresh process and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "solvereval.cli", *argv],
            cwd=cwd, stdout=out, stderr=err, env=env,
        )
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except CommandTimeout:
            proc.kill()
            proc.wait()
            return Outcome(-1, start, time.perf_counter() - start, 0.0, 0.0)
        except BaseException:  # interrupted or terminated: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    return Outcome(proc.returncode, start, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0,
                   _digests(stdout, cwd, outputs), stdout)


def run_in_process(main, argv, cwd: Path, outputs=()) -> Outcome:
    """Run argv through ``solvereval.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    start = time.perf_counter()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(here)
    wall = time.perf_counter() - start
    stdout = out.getvalue().encode()
    return Outcome(code, start, wall, 0.0, 0.0,
                   _digests(stdout, cwd, outputs), stdout)


def run_pass(commands, cwd: Path, runner) -> tuple[float, list[Outcome]]:
    start = time.perf_counter()
    outcomes = [runner(c.argv, cwd, c.outputs) for c in commands]
    return time.perf_counter() - start, outcomes


def check_pass(commands, outcomes, reference, tally: Tally, label: str) -> None:
    """Each command exited 0 and wrote the same bytes as in the reference pass."""
    for cmd, got, want in zip(commands, outcomes, reference):
        tally.record(got.code == 0 and got.digests == want.digests,
                     f"{label} {cmd.argv[0]}: exit code {got.code}, "
                     f"same output: {got.digests == want.digests}")


def _commit() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(workload, sizes, seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": workload.name,
        "instances": sizes.instances,
        "solvers": sizes.solvers,
        "opt_fraction": sizes.opt_fraction,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark the solvereval CLI on one workload.")
    p.add_argument("--workload", required=True, choices=("cv-score", "pairwise", "ingest-roundtrip"))
    p.add_argument("--seed", type=int, default=1, help="scenario generator seed (default 1)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long the untraced passes run (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics from a traced pass")
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's self-test")
    return p.parse_args(argv)


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds, so the processes this run started are stopped


def main(argv=None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _on_term)
    if not (SRC / "solvereval" / "__init__.py").is_file():
        print(f"error: {SRC / 'solvereval'} not found; run from a solvereval checkout",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    # The benchmark's own modules import solvereval, so they are imported
    # only once the checkout's sources are known to be on the path.
    sys.path.insert(0, str(SRC))
    import solvereval

    if Path(solvereval.__file__).resolve().parent != (SRC / "solvereval").resolve():
        print(f"error: imported solvereval from {solvereval.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    sizes = workload.full if args.size == "full" else workload.tiny
    env = environment(workload, sizes, args.seed)  # before the run pins itself to one CPU
    work = WORK / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            metrics, tally = measure_layers(workload, sizes, args.seed, work)
            wanted = spec["per_layer"]
        else:
            metrics, tally = measure_end_to_end(workload, sizes, args.seed, args.seconds, work)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print("# env " + json.dumps(env, sort_keys=True))
    for problem in tally.problems:
        print(f"# failed: {problem}")
    print(f"# error_rate {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _run_checks(workload, sizes, seed: int, input_dir: Path, work: Path, tally: Tally) -> None:
    from checks import Check, oracle_checks, roundtrip_check, shuffle_check

    def run_cli(argv, cwd):
        outcome = run_process(argv, cwd)
        return outcome.code, outcome.stdout

    groups = [("oracle", lambda: oracle_checks(
        workload, input_dir / workload.scenario_file, work, run_cli))]
    if workload.name == "cv-score":
        groups.append(("permuted instances", lambda: [shuffle_check(
            workload.commands(sizes, seed)[0], input_dir, work, run_cli, seed)]))
    if workload.name == "ingest-roundtrip":
        groups.append(("round trip", lambda: roundtrip_check(
            input_dir / workload.scenario_file, input_dir / workload.setup_file, work)))
    for name, group in groups:
        try:
            checks = group()
        except Exception as e:  # a check that cannot run counts as failed
            checks = [Check(name, False, f"{type(e).__name__}: {e}")]
        for c in checks:
            tally.record(c.ok, f"check {c.name}: {c.detail}")


def _pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_end_to_end(workload, sizes, seed: int, seconds: float, work: Path):
    input_dir = work / "input"
    input_dir.mkdir(parents=True)
    tally = Tally()

    from reference import Pacer

    # CPU time, not wall time: on a shared host the wall time of the same
    # work swings with what other tenants run, its CPU time less. Its CPU
    # time still swings by up to 2x within minutes, so every time is scaled
    # by the speed of the reference loop that shares the CPU with it (see
    # reference.py).
    cpu = _pin_to_one_cpu()
    raw_setups = []
    commands = workload.commands(sizes, seed)
    walls, passes = [], []
    with Pacer(work / "reference.log") as pacer:
        budget_end = time.perf_counter() + SETUP_BUDGET_S
        while len(raw_setups) < MIN_SETUPS or time.perf_counter() < budget_end:
            start, clock = time.perf_counter(), time.process_time()
            workload.setup(sizes, seed, input_dir)
            raw_setups.append((start, time.perf_counter(), time.process_time() - clock))

        # Untimed: the first start of the package compiles its bytecode.
        warm = run_process(("--version",), input_dir)
        tally.record(warm.code == 0, f"--version: exit code {warm.code}")

        end = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < end:
            wall, outcomes = run_pass(commands, input_dir, run_process)
            walls.append(wall)
            passes.append(outcomes)
            check_pass(commands, outcomes, passes[0], tally, f"pass {len(passes)}")
    _run_checks(workload, sizes, seed, input_dir, work, tally)

    setup_times = [c * pacer.speed(a, b) for a, b, c in raw_setups]
    cpus = [sum(o.cpu_s for o in outcomes) for outcomes in passes]
    scaled = [sum(o.cpu_s * pacer.speed(o.start, o.start + o.wall_s) for o in outcomes)
              for outcomes in passes]
    norm_cpu_s = statistics.median(scaled)
    rows = sum(c.rows_read for c in commands)
    print(f"# {len(passes)} passes, {len(setup_times)} set-ups on CPU {cpu}; "
          f"{rows} runs-file rows read per pass")
    for name, values in (("pass norm_cpu_s", scaled), ("pass cpu_s", cpus),
                         ("pass wall_s", walls), ("setup norm_cpu_s", setup_times),
                         ("setup cpu_s", [c for _, _, c in raw_setups])):
        print(f"# {name} median {statistics.median(values):.4f}: "
              + " ".join(f"{v:.3f}" for v in values))
    return {
        "norm_cpu_s": norm_cpu_s,
        "rows_per_norm_cpu_s": rows / norm_cpu_s,
        "peak_rss_mb": max(o.maxrss_mb for outcomes in passes for o in outcomes),
        "setup_s": statistics.median(setup_times),
    }, tally


def measure_layers(workload, sizes, seed: int, work: Path):
    import solvereval.cli
    from tracing import Tracer, layer_metrics

    input_dir = work / "input"
    input_dir.mkdir(parents=True)
    tally = Tally()
    tracer = Tracer()
    with tracer:
        tracer.run("bench.setup", workload.setup, sizes, seed, input_dir)

    startup = []
    for _ in range(STARTUP_SAMPLES):
        outcome = run_process(("--version",), input_dir)
        tally.record(outcome.code == 0, f"--version: exit code {outcome.code}")
        startup.append(outcome.wall_s)

    commands = workload.commands(sizes, seed)

    def plain_pass(label, reference):
        wall, outcomes = run_pass(commands, input_dir,
                                  lambda *a: run_in_process(solvereval.cli.main, *a))
        check_pass(commands, outcomes, reference or outcomes, tally, label)
        return wall, outcomes

    def traced_main(argv):
        return tracer.run("cli.main", solvereval.cli.main, argv)

    # In-process passes slow down a little from one to the next, so the
    # traced pass is compared with the mean of an untraced pass on each side.
    before, plain = plain_pass("untraced pass 1", None)
    with tracer:
        traced_wall, traced = run_pass(commands, input_dir,
                                       lambda *a: run_in_process(traced_main, *a))
    check_pass(commands, traced, plain, tally, "traced pass")
    after, _ = plain_pass("untraced pass 2", plain)
    _run_checks(workload, sizes, seed, input_dir, work, tally)
    print(f"# {len(tracer.spans)} spans; in-process passes: untraced {before:.3f} s, "
          f"traced {traced_wall:.3f} s, untraced {after:.3f} s")
    return layer_metrics(tracer, startup, traced_wall - (before + after) / 2), tally


if __name__ == "__main__":
    sys.exit(main())
