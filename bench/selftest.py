"""Fast self-test of the benchmark, at tiny sizes.

    python3 bench/selftest.py

Runs every workload in both modes with ``--size tiny`` and checks that each
run passes its output checks and reports every metric BENCHMARK.json names,
with its unit; that the traced counts match the layer map in README.md;
and that the benchmark refuses to run, without printing a result, where
the program's sources are missing. Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Counts the layer map predicts at any size, by workload (trace 1).
EXPECTED = {
    "cv-score": {"metrics.mznc_pair.calls": 0, "baselines.base_values_per_cell": 4.0,
                 "harness.head_to_head.calls": 0},
    "pairwise": {"scenario.restrict.calls": 0, "harness.restrict_per_cell": 0.0,
                 "metrics.base_instance_values.calls": 0, "harness.head_to_head.calls": 0},
    "ingest-roundtrip": {"metrics.mznc_pair.calls": 0, "scenario.restrict.calls": 0,
                         "harness.score_scenario.calls": 0, "harness.head_to_head.calls": 15},
}
# Counts that must be non-zero, by workload (trace 1).
NONZERO = {
    "cv-score": ("scenario.restrict.calls", "harness.score_scenario.calls", "io.emit_report.bytes"),
    "pairwise": ("metrics.mznc_pair.calls", "harness.flip_candidates", "metrics.mznc_score.calls"),
    "ingest-roundtrip": ("io.parse_runs.rows", "io.emit_scenario.rows"),
}


def _run(cwd: Path, workload: str, trace: int, size: str = "tiny") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_spec(spec: dict, problems: list[str]) -> None:
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != want:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    readme = (ROOT / "bench" / "README.md").read_text()
    for m in spec["per_layer"]:
        if f"`{m['name']}`" not in readme:
            problems.append(f"{m['name']} is missing from the layer map in bench/README.md")


def check_run(workload: str, trace: int, wanted: list[dict], problems: list[str]) -> dict:
    proc = _run(ROOT, workload, trace)
    tag = f"{workload} trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-1000:]}")
        return {}
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{tag}: checks failed: " + "; ".join(
            line for line in lines if line.startswith("# failed")))
    got = result["metrics"]
    if list(got) != [m["name"] for m in wanted]:
        problems.append(f"{tag}: metric names {list(got)}")
    for m in wanted:
        entry = got.get(m["name"], {})
        value = entry.get("value")
        if entry.get("unit") != m["unit"]:
            problems.append(f"{tag}: {m['name']} unit {entry.get('unit')!r} != {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{tag}: {m['name']} value {value!r}")
        elif trace == 0 and value <= 0:
            problems.append(f"{tag}: end-to-end {m['name']} is {value}, never expected <= 0")
    return {name: entry["value"] for name, entry in got.items()}


def check_bare_directory(problems: list[str]) -> None:
    """Only BENCHMARK.json and bench/: the benchmark must fail without a result."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for f in (ROOT / "bench").glob("*.py"):
            shutil.copyfile(f, bare / "bench" / f.name)
        proc = _run(bare, "cv-score", 0, size="full")
        if proc.returncode == 0 or any(line.startswith("{") for line in proc.stdout.splitlines()):
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_spec(spec, problems)
    for w in spec["workloads"]:
        name = w["name"]
        check_run(name, 0, spec["end_to_end"], problems)
        layers = check_run(name, 1, spec["per_layer"], problems)
        for metric, value in EXPECTED[name].items():
            if layers and layers[metric] != value:
                problems.append(f"{name}: {metric} = {layers[metric]}, expected {value}")
        for metric in NONZERO[name]:
            if layers and not layers[metric] > 0:
                problems.append(f"{name}: {metric} = {layers[metric]}, expected > 0")
        print(f"{name}: done", flush=True)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
