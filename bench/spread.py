"""Run the benchmark on every workload over several seeds and summarise the spread.

    python3 bench/spread.py --seeds 1-10 [--trace 0 1] [--workload NAME ...] [--out FILE]

Each run is ``bench/run.py`` as its own process with the ``run_seconds``
of BENCHMARK.json. For every metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound. ``--out`` writes every run's result and the summary as
JSON, the form of a point of the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10 (default)")
    p.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    p.add_argument("--workload", nargs="+", choices=names, default=names)
    p.add_argument("--out", default=None, help="write runs and summary as JSON here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs, summary, ok = [], {}, True
    for workload in args.workload:
        for trace in args.trace:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            for seed in _seeds(args.seeds):
                cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                elapsed = time.perf_counter() - start
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                env = next((json.loads(line[6:]) for line in lines if line.startswith("# env ")), {})
                notes = [line for line in lines[:-1] if line.startswith("#")]
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "elapsed_s": elapsed, "env": env, "notes": notes, "result": result})
                ok = ok and result["correct"]
                print(f"{workload} seed {seed} trace {trace}: {elapsed:.1f} s, "
                      f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                      flush=True)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            for name, vals in values.items():
                s = summarise(vals)
                s.update(unit=units[name], bound=bounds.get(name), n=len(vals))
                summary[f"{workload}/{name}"] = s
                bound = f"  bound {s['bound']}" if s["bound"] is not None else ""
                print(f"  {workload:16s} {name:36s} {s['median']:>14.6g} {s['unit']:10s} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{bound}")
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
