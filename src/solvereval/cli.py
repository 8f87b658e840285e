"""Command line front end.

Exit codes: 0 on success, 1 for anything wrong with the input (bad files,
bad arguments, scenario violations), 2 for unexpected internal failures.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from dataclasses import replace as _replace
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from . import __version__
from .errors import CliUsageError, NonPositiveForGeomean, SolverEvalError, ValidationError
from .io import json_text, parse_runs, ranking_json
from .scenario import Scenario

if TYPE_CHECKING:
    from .metrics import MetricParams
    from .synthkit import SolverSpec

__all__ = ["build_parser", "main", "run"]

_POLICY = {"train": "train_split", "test": "test_split", "full": "full_dataset"}
_AGG = {"sum": "sum", "mean": "arithmetic_mean", "geomean": "geometric_mean", "median": "median"}
_DEFAULT_DELTAS = "0,0.01,0.05,0.1,0.5,1"

# What a command returns: its output, rendered, or its JSON payload and a
# function that renders it as text; main renders only the format asked for.
Output = str | tuple[object, Callable[[], str]]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exit(2)."""

    def error(self, message: str):
        raise CliUsageError(f"{self.prog}: {message}")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("runs", help="runs CSV, or an attribute-relation run table")
    p.add_argument("--timeout", type=float, required=True, metavar="SECONDS",
                   help="per-run time limit the data was collected under")
    p.add_argument("--trajectories", metavar="PATH", default=None,
                   help="trajectory CSV (default: <runs>_trajectories.csv when present)")
    p.add_argument("--input-format", choices=("auto", "csv", "aslib"), default="auto",
                   help="runs file format; auto picks aslib for .arff files")
    p.add_argument("--id", default=None, help="scenario id (default: runs file stem)")


def _add_metric_param_args(p: argparse.ArgumentParser) -> None:
    from .metrics import METRICS

    p.add_argument("--lambda", dest="lam", type=float, default=10.0,
                   help="penalty factor for unsolved runs in par scores (default 10)")
    p.add_argument("--delta", type=_delta, default=0.0,
                   help="time equivalence threshold in seconds for pairwise scores")
    p.add_argument("--alpha", type=float, default=0.25,
                   help="bounded reward floor for unsolved runs with a solution")
    p.add_argument("--beta", type=float, default=0.75,
                   help="bounded reward ceiling for unsolved runs with a solution")
    p.add_argument("--base-metric", default="par",
                   choices=[m for m, info in METRICS.items() if info.decomposable_base],
                   help="per-instance metric anchoring closed-gap baselines")


def _load_scenario(args: argparse.Namespace) -> Scenario:
    fmt = args.input_format
    if fmt == "auto":
        fmt = "aslib" if Path(args.runs).suffix.lower() == ".arff" else "csv"
    if fmt == "aslib":
        if args.trajectories is not None:
            raise CliUsageError("--trajectories needs CSV input: --input-format aslib (auto's"
                                " choice for .arff files) reads no trajectory file")
        from .io import parse_aslib_runs

        return parse_aslib_runs(args.runs, args.timeout, scenario_id=args.id)
    return parse_runs(
        args.runs, args.timeout,
        trajectories_path=args.trajectories, scenario_id=args.id,
    )


def _metric_params(args: argparse.Namespace) -> MetricParams:
    from .metrics import MetricParams

    return MetricParams(
        lam=args.lam, delta=args.delta, alpha=args.alpha, beta=args.beta,
        base_metric=args.base_metric,
    )


def _delta(text: str) -> float:
    """argparse type for a tie threshold in seconds: a finite number >= 0, with no sign."""
    from .metrics import threshold_ms

    try:
        value = float(text)
        threshold_ms(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return abs(value)  # -0 is the threshold 0, and prints as 0


def _deltas(text: str) -> list[float]:
    """argparse type for a comma-separated threshold list, sorted and deduplicated."""
    values = [_delta(piece.strip()) for piece in text.split(",") if piece.strip()]
    if not values:
        raise argparse.ArgumentTypeError("list is empty")
    return sorted(set(values))


def _at_least(low: int):
    """argparse type for an integer >= low."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return count


def _solver(text: str) -> str:
    """argparse type for one solver name."""
    name = text.strip()
    if not name:
        raise argparse.ArgumentTypeError(f"no solver named in {text!r}")
    return name


def _solvers(text: str) -> list[str]:
    """argparse type for a comma-separated list of solver names."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError(f"no solver named in {text!r}")
    return names


def _two_solvers(text: str) -> tuple[str, str]:
    """argparse type for a solver pair A,B."""
    names = _solvers(text)
    if len(names) != 2:
        raise argparse.ArgumentTypeError(f"expects exactly two solver names A,B, got {text!r}")
    return names[0], names[1]


def _check_unfolded_policy(policy: str | None, metrics: list[str]) -> None:
    """Reject a split --sbs-policy for a baselines metric scored without folds."""
    from .metrics import metric_info

    for m in metrics:
        if policy in ("train", "test") and metric_info(m).baselines:
            raise CliUsageError(f"--sbs-policy {policy} needs --folds (score --folds K): "
                                f"{m} picks its single best solver on each fold's {policy} split")


def cmd_score(args: argparse.Namespace) -> Output:
    from .harness import check_fold_merge, evaluate, make_fold_plan
    from .io import build_report, emit_report

    metrics = args.metric or ["par"]
    agg = _AGG[args.agg] if args.agg else None
    if not args.folds:
        for flag, value in (("--repeats", args.repeats), ("--seed", args.seed)):
            if value is not None:
                raise CliUsageError(f"{flag} needs --folds: without folds it has no effect")
        _check_unfolded_policy(args.sbs_policy, metrics)
    if args.folds and agg is not None:
        for m in metrics:
            try:
                check_fold_merge(m, agg)
            except NonPositiveForGeomean as e:
                raise CliUsageError(f"--agg {args.agg}: {e}") from None
    scenario = _load_scenario(args)
    plan = None
    if args.folds:
        plan = make_fold_plan(
            scenario.instance_ids, args.folds, repeats=args.repeats or 1, seed=args.seed or 0
        )
    params = _metric_params(args)
    policy = _POLICY[args.sbs_policy] if args.sbs_policy else None
    evaluations = [
        evaluate(scenario, m, params, fold_plan=plan, sbs_policy=policy, aggregation=agg)
        for m in metrics
    ]
    report = build_report(scenario, evaluations, source=str(args.runs))
    return emit_report(report, args.format).decode()


def cmd_rank(args: argparse.Namespace) -> Output:
    from .harness import evaluate, rank

    _check_unfolded_policy(args.sbs_policy, [args.metric])
    scenario = _load_scenario(args)
    policy = _POLICY[args.sbs_policy] if args.sbs_policy else None
    result = evaluate(scenario, args.metric, _metric_params(args), sbs_policy=policy)
    entries = rank([result.merged])
    payload = {"scenario": scenario.id, "metric": args.metric, "ranking": ranking_json(entries)}
    return payload, lambda: "".join(
        f"{e.position}. {e.solver_id}  {e.score:.4f}{' (tied)' if e.tied else ''}\n"
        for e in entries)


def cmd_head2head(args: argparse.Namespace) -> Output:
    from .scenario import head_to_head

    scenario = _load_scenario(args)
    pairs = [args.solvers] if args.solvers else combinations(scenario.solvers, 2)
    results = [head_to_head(scenario, a, b) for a, b in pairs]
    return {"scenario": scenario.id, "pairs": [vars(h) for h in results]}, lambda: "".join(
        f"{h.solver_a} vs {h.solver_b}: {h.a_faster} faster, {h.b_faster} slower, {h.ties} ties\n"
        for h in results)


def cmd_sweep_delta(args: argparse.Namespace) -> Output:
    from .metrics import delta_sweep, find_flip_delta

    scenario = _load_scenario(args)
    flip = None
    if args.flip:
        a, b = args.flip
        flip = {"solver_a": a, "solver_b": b, "delta": find_flip_delta(scenario, a, b)}
    table = delta_sweep(scenario, args.deltas, args.solvers)

    def text() -> str:
        names = next(iter(table.values()))  # every row holds the chosen solvers in order
        width = max(len("delta"), *(len(f"{d:g}") for d in table))
        swidth = max(len("solver"), *map(len, names))
        lines = [f"{'delta'.ljust(width)}  {'solver'.ljust(swidth)}  score"]
        lines += [f"{f'{d:g}'.ljust(width)}  {s.ljust(swidth)}  {v:.4f}"
                  for d, scores in table.items() for s, v in scores.items()]
        if flip is not None:
            shown = "none" if flip["delta"] is None else f"{flip['delta']:g}"
            lines.append(f"flip threshold for {a} over {b}: {shown}")
        return "\n".join(lines) + "\n"

    sweep = [{"delta": d, "scores": scores} for d, scores in table.items()]
    return {"scenario": scenario.id, "sweep": sweep, "flip": flip}, text


def cmd_runtime_dist(args: argparse.Namespace) -> Output:
    from .scenario import runtime_distribution

    scenario = _load_scenario(args)
    solvers = [args.solver] if args.solver else scenario.solvers
    data = {s: runtime_distribution(scenario, s) for s in solvers}

    def text() -> str:
        shown = {s: " ".join(f"{t:.3f}" for t in times) for s, times in data.items()}
        return "".join(f"{s}: {len(data[s])} solved{'  ' + t if t else ''}\n"
                       for s, t in shown.items())

    return {"scenario": scenario.id, "distributions": data}, text


def _parse_draw(text: str, what: str):
    from .synthkit import constant, uniform

    text = text.strip()
    m = re.fullmatch(r"uniform\(([^,()]+),([^,()]+)\)", text)
    if m:
        try:
            return uniform(float(m.group(1)), float(m.group(2)))
        except ValueError:
            raise CliUsageError(f"cannot parse {what} draw {text!r}") from None
    m = re.fullmatch(r"constant\(([^,()]+)\)", text)
    if m:
        try:
            return constant(float(m.group(1)))
        except ValueError:
            raise CliUsageError(f"cannot parse {what} draw {text!r}") from None
    try:
        return constant(float(text))
    except ValueError:
        raise CliUsageError(
            f"cannot parse {what} draw {text!r}; use uniform(lo,hi), constant(x), or a number"
        ) from None


def _split_spec_params(text: str) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def _parse_solver_spec(text: str) -> SolverSpec:
    from .synthkit import SolverSpec

    name, sep, rest = text.partition(":")
    name = name.strip()
    if not sep or not name:
        raise CliUsageError(
            f"solver spec {text!r} must look like NAME:p=0.9,runtime=uniform(1,10)"
        )
    p = runtime = quality = None
    seen: set[str] = set()
    for part in _split_spec_params(rest):
        key, sep2, val = part.partition("=")
        key, val = key.strip().lower(), val.strip()
        if not sep2 or not val:
            raise CliUsageError(f"solver spec field {part!r} must look like key=value")
        if key in seen:
            raise CliUsageError(f"solver spec {text!r} gives {key!r} more than once")
        seen.add(key)
        if key == "p":
            try:
                p = float(val)
            except ValueError:
                raise CliUsageError(f"cannot parse solve probability {val!r}") from None
        elif key == "runtime":
            runtime = _parse_draw(val, "runtime")
        elif key == "quality":
            quality = _parse_draw(val, "quality")
        else:
            raise CliUsageError(f"unknown solver spec key {key!r}; use p, runtime, quality")
    if p is None or runtime is None:
        raise CliUsageError(f"solver spec {text!r} needs both p= and runtime=")
    return SolverSpec(solve_probability=p, runtime=runtime,
                      objective_quality=quality, name=name)


def cmd_gen(args: argparse.Namespace) -> Output:
    from .io import emit_scenario
    from .synthkit import generate, thorough_vs_fast_spec

    base = thorough_vs_fast_spec(
        seed=args.seed, n_instances=args.instances, timeout_s=args.timeout
    )
    spec = _replace(
        base,
        opt_fraction=args.opt_fraction,
        subopt_probability=args.subopt_p,
        error_probability=args.error_p,
        scenario_id=args.id,
    )
    if args.solver:
        spec = _replace(spec, solvers=tuple(_parse_solver_spec(s) for s in args.solver))
    scenario = generate(spec)
    return "".join(f"{p}\n" for p in emit_scenario(scenario, args.runs))


def cmd_validate(args: argparse.Namespace) -> Output:
    try:
        scenario = _load_scenario(args)
    except ValidationError as e:
        print(f"invalid: {len(e.violations)} violation(s)", *(f"  {v}" for v in e.violations),
              sep="\n", file=sys.stderr)
        sys.exit(1)
    return (
        f"ok: scenario {scenario.id!r}, {len(scenario.instances)} instances "
        f"({len(scenario.optimization_ids)} optimization), {len(scenario.solvers)} solvers, "
        f"timeout {scenario.timeout_s:g} s\n"
    )


def _score_args(p: argparse.ArgumentParser) -> None:
    from .metrics import METRICS

    _add_input_args(p)
    _add_metric_param_args(p)
    p.add_argument("--metric", action="append", choices=sorted(METRICS), default=None,
                   help="metric to report; repeatable (default: par)")
    p.add_argument("--sbs-policy", choices=sorted(_POLICY), default=None,
                   help="which split selects the single best solver for closed-gap")
    p.add_argument("--folds", type=_at_least(2), default=None, metavar="K",
                   help="evaluate per cross-validation fold instead of once overall")
    p.add_argument("--repeats", type=_at_least(1), default=None,
                   help="independent fold partitions to average over (default 1); needs --folds")
    p.add_argument("--seed", type=int, default=None,
                   help="fold shuffling seed (default 0); needs --folds")
    p.add_argument("--agg", choices=sorted(_AGG), default=None,
                   help="how per-fold scores merge (default mean)")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")


def _rank_args(p: argparse.ArgumentParser) -> None:
    from .metrics import METRICS

    _add_input_args(p)
    _add_metric_param_args(p)
    p.add_argument("--metric", choices=sorted(METRICS), default="par")
    p.add_argument("--sbs-policy", choices=sorted(_POLICY), default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _head2head_args(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    p.add_argument("--solvers", type=_two_solvers, default=None, metavar="A,B",
                   help="compare just this pair (default: all pairs)")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _sweep_delta_args(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    p.add_argument("--deltas", type=_deltas, default=_DEFAULT_DELTAS, metavar="D1,D2,...",
                   help=f"thresholds in seconds (default {_DEFAULT_DELTAS})")
    p.add_argument("--solvers", type=_solvers, default=None, metavar="A,B,...",
                   help="restrict reporting to these solvers")
    p.add_argument("--flip", type=_two_solvers, default=None, metavar="A,B",
                   help="also find the smallest threshold from which A outscores B")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _runtime_dist_args(p: argparse.ArgumentParser) -> None:
    _add_input_args(p)
    p.add_argument("--solver", type=_solver, default=None, help="restrict to one solver")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--timeout", type=float, default=100.0, metavar="SECONDS")
    p.add_argument("--solver", action="append", default=None, metavar="SPEC",
                   help="solver profile NAME:p=0.95,runtime=uniform(1,10)[,quality=uniform(0,5)];"
                        " repeatable (default: the thorough/fast pair)")
    p.add_argument("--opt-fraction", type=float, default=0.0,
                   help="fraction of optimization instances (default 0)")
    p.add_argument("--subopt-p", type=float, default=0.5,
                   help="chance an unsolved optimization run still finds a solution")
    p.add_argument("--error-p", type=float, default=0.0,
                   help="chance a run crashes instead of timing out")
    p.add_argument("--id", default=None, help="scenario id (default: synth-<seed>)")
    p.add_argument("-o", "--output", dest="runs", metavar="OUTPUT", required=True,
                   help="runs CSV path to write")


# Each command, in the order help lists them: its help line, what adds its
# arguments to its parser, and what runs it.
_COMMANDS = {
    "score": ("score solvers under one or more metrics", _score_args, cmd_score),
    "rank": ("order solvers under a single metric", _rank_args, cmd_rank),
    "head2head": ("count per-instance faster/slower/tied finishes", _head2head_args,
                  cmd_head2head),
    "sweep-delta": ("pairwise scores across tie thresholds", _sweep_delta_args, cmd_sweep_delta),
    "runtime-dist": ("ascending solved runtimes per solver", _runtime_dist_args,
                     cmd_runtime_dist),
    "gen": ("generate a synthetic scenario and write it as CSV", _gen_args, cmd_gen),
    "validate": ("check a runs file against the scenario invariants", _add_input_args,
                 cmd_validate),
}


def build_parser(commands: Iterable[str] = _COMMANDS) -> argparse.ArgumentParser:
    """The command line parser. It offers every command, but adds the arguments of only
    those named in commands, all by default: main adds those of the command it runs."""
    parser = _Parser(
        prog="solvereval",
        description="Score, rank, and compare solvers over benchmark run data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(output=None)  # set by score's -o; gen's -o names the runs it writes
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (text, add_args, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name in commands:
            add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    # A command's bulk data (rows, runs, events) holds no reference cycles,
    # so the cyclic collector only rescans it; it is paused for the command
    # and left as the caller had it.
    collecting = gc.isenabled()
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse runs the command its first positional names; only options, which no
        # command name looks like, can come before it.
        args = build_parser([a for a in argv if a in _COMMANDS][:1]).parse_args(argv)
        gc.disable()
        out = args.func(args)
        if not isinstance(out, str):
            payload, text = out
            out = json_text(payload) if args.format == "json" else text()
        if args.output:
            Path(args.output).write_bytes(out.encode())
        elif hasattr(sys.stdout, "buffer"):  # UTF-8 whatever the locale, as files are
            sys.stdout.flush()
            sys.stdout.buffer.write(out.encode())
        else:  # a text-only stream, such as a StringIO standing in for stdout
            sys.stdout.write(out)
        return 0
    except SystemExit as e:  # --help and --version, and validate's violations
        return int(e.code or 0)
    except (SolverEvalError, OSError) as e:  # argument errors read as argparse's own
        named = isinstance(e, SolverEvalError) and not isinstance(e, CliUsageError)
        print(f"error: {type(e).__name__}: {e}" if named else f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """The console entry: run main, then exit with its code."""
    code = main()
    # The interpreter's finalization runs full collector passes even with the
    # collector off, and they skip only frozen objects; freezing everything
    # left alive spares them. Flushes, atexit handlers and module teardown
    # still run. main itself never freezes, so library callers keep theirs.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
