"""Deterministic synthetic scenario generation.

Each archetype describes per-solver solve probabilities and runtime
distributions; a seed fixes every draw, so the same spec always yields the
same scenario on any platform. Optimization instances get positive objective
values, optional suboptimal solutions on timed-out runs, and simple one- or
two-step incumbent trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .errors import BadSpec, ValidationError
from .rng import SplitMix64
from .scenario import InstanceKind, RunStatus, Scenario, ScenarioBuilder, check_timeout

__all__ = [
    "ArchetypeSpec",
    "DrawSpec",
    "SolverSpec",
    "constant",
    "generate",
    "thorough_vs_fast_spec",
    "uniform",
]

_MS = 0.001


@dataclass(frozen=True)
class DrawSpec:
    """Uniform draw over [lo, hi); lo == hi gives a constant."""

    lo: float
    hi: float


def uniform(lo: float, hi: float) -> DrawSpec:
    return DrawSpec(float(lo), float(hi))


def constant(value: float) -> DrawSpec:
    return DrawSpec(float(value), float(value))


@dataclass(frozen=True)
class SolverSpec:
    solve_probability: float
    runtime: DrawSpec
    objective_quality: DrawSpec | None = None
    name: str | None = None


@dataclass(frozen=True)
class ArchetypeSpec:
    seed: int
    n_instances: int
    timeout_s: float
    solvers: tuple[SolverSpec, ...]
    opt_fraction: float = 0.0
    subopt_probability: float = 0.5
    error_probability: float = 0.0
    scenario_id: str | None = None


_DEFAULT_QUALITY = DrawSpec(0.0, 10.0)


def _check_spec(spec: ArchetypeSpec) -> None:
    problems = []
    if spec.n_instances < 1:
        problems.append("n_instances must be >= 1")
    try:
        check_timeout(spec.timeout_s)
    except ValidationError as exc:
        problems.append(exc.violations[0].message)
    if not spec.solvers:
        problems.append("at least one solver spec is required")
    for frac_name in ("opt_fraction", "subopt_probability", "error_probability"):
        v = getattr(spec, frac_name)
        if not 0.0 <= v <= 1.0:
            problems.append(f"{frac_name} must lie in [0, 1], got {v}")
    for idx, s in enumerate(spec.solvers):
        tag = s.name or f"solver #{idx}"
        if not 0.0 <= s.solve_probability <= 1.0:
            problems.append(f"{tag}: solve_probability must lie in [0, 1]")
        r = s.runtime
        if not (math.isfinite(r.lo) and math.isfinite(r.hi) and 0.0 <= r.lo <= r.hi <= spec.timeout_s):
            problems.append(f"{tag}: runtime support must satisfy 0 <= lo <= hi <= timeout")
        if r.lo == r.hi and r.lo >= spec.timeout_s:
            problems.append(f"{tag}: constant runtime must be below the timeout")
        q = s.objective_quality
        if q is not None and not (math.isfinite(q.lo) and math.isfinite(q.hi) and 0.0 <= q.lo <= q.hi):
            problems.append(f"{tag}: objective_quality offsets must satisfy 0 <= lo <= hi")
    names = _solver_names(spec)
    for name in dict.fromkeys(n for n in names if names.count(n) > 1):
        problems.append(f"solver name {name!r} is given to more than one solver")
    if problems:
        raise BadSpec("; ".join(problems))


def _solver_names(spec: ArchetypeSpec) -> list[str]:
    width = max(2, len(str(len(spec.solvers))))
    return [s.name or f"s{idx + 1:0{width}d}" for idx, s in enumerate(spec.solvers)]


def generate(spec: ArchetypeSpec) -> Scenario:
    """Produce the scenario a spec describes; same spec, same scenario."""
    _check_spec(spec)
    rng = SplitMix64(spec.seed)
    names = _solver_names(spec)
    width = max(3, len(str(spec.n_instances - 1)))

    # Trajectories go in as the events a trajectory file lists: a solved
    # run's trajectory is proved optimal at the run's time, as a file's is.
    builder = ScenarioBuilder(float(spec.timeout_s), solvers=names)
    kinds = {True: InstanceKind.OPTIMIZATION, False: InstanceKind.DECISION}
    draws = 2 + 8 * len(spec.solvers)
    for first in range(0, spec.n_instances, _BLOCK):
        iids = [f"i{idx:0{width}d}" for idx in range(first, min(first + _BLOCK, spec.n_instances))]
        u = rng.next_floats(draws * len(iids))  # per instance: its 2 draws, then each run's 8
        opt = [u_kind < spec.opt_fraction for u_kind in u[::draws]]
        base_objs = [round(10.0 + 90.0 * u_base, 6) for u_base in u[1::draws]]
        for iid, is_opt in zip(iids, opt):
            builder.instance(iid, kinds[is_opt])
        for at, solver_spec, sid in zip(range(2, draws, 8), spec.solvers, names):
            (times, statuses, objs), (ev_iids, ev_ts, ev_vs) = _solver_block(
                spec, solver_spec, iids, opt, base_objs, [u[d::draws] for d in range(at, at + 8)])
            why = builder.runs(iids, repeat(sid), times, statuses, objs)[1]
            if why is not None:
                raise ValueError(why)
            builder.events(ev_iids, repeat(sid), ev_ts, ev_vs)  # each names a run just placed

    builder.close_runs()
    return builder.scenario(spec.scenario_id or f"synth-{spec.seed}")


_BLOCK = 16  # instances drawn at a time, their runs and events handed to the builder by solver


def _solver_block(spec: ArchetypeSpec, solver_spec: SolverSpec, iids: list[str],
                  opt: list[bool], base_objs: list[float], u: list[list[float]]
                  ) -> tuple[tuple[list, list, list], tuple[list, list, list]]:
    """One solver's runs on a block of instances, (times, statuses, objs), and their
    events, (instance ids, times, objs), as columns.

    u holds the 8 draws of each run, one list per draw. Times are snapped
    to the millisecond grid as quantize_ms does; a run with a solution on an
    optimization instance gets a one- or two-step incumbent staircase.
    """
    tau, inf = float(spec.timeout_s), math.inf
    solved, error, timeout = RunStatus.SOLVED, RunStatus.ERROR, RunStatus.TIMEOUT
    lo, span = solver_spec.runtime.lo, solver_spec.runtime.hi - solver_spec.runtime.lo
    quality = solver_spec.objective_quality or _DEFAULT_QUALITY
    q_lo, q_span = quality.lo, quality.hi - quality.lo
    p_solve, p_error, p_subopt = (solver_spec.solve_probability, spec.error_probability,
                                  spec.subopt_probability)
    last = tau - _MS  # the latest time a solution can be found
    below = round(last * 1000.0) / 1000.0  # where a solved time that snaps to the timeout goes
    times, statuses, objs, ev_iids, ev_ts, ev_vs = [], [], [], [], [], []
    for iid, is_opt, base_obj, u_solve, u_time, u_error, u_subopt, u_offset, u_split, u_frac, \
            u_bump in zip(iids, opt, base_objs, *u):
        obj = inf
        if u_solve < p_solve:
            t = round((lo + span * u_time) * 1000.0) / 1000.0
            if t >= tau:
                t = below
            status, reach = solved, t
            if is_opt:
                obj = base_obj
        elif u_error < p_error:
            status, t = error, tau
        else:
            status, t, reach = timeout, tau, last
            if is_opt and u_subopt < p_subopt:
                obj = round(base_obj + (q_lo + q_span * u_offset), 6)
        times.append(t)
        statuses.append(status)
        objs.append(obj)
        if obj != inf:  # either a single improvement or a two-step descent to obj
            found = round(u_frac * reach * 1000.0) / 1000.0
            if u_split < 0.5 and found >= 2 * _MS:
                mid = round(found / 2.0 * 1000.0) / 1000.0
                if 0.0 <= mid < found:
                    ev_iids.append(iid)
                    ev_ts.append(mid)
                    ev_vs.append(round(obj + 1.0 + 9.0 * u_bump, 6))
            ev_iids.append(iid)
            ev_ts.append(found)
            ev_vs.append(obj)
    return (times, statuses, objs), (ev_iids, ev_ts, ev_vs)


def thorough_vs_fast_spec(
    seed: int = 2024, n_instances: int = 200, timeout_s: float = 100.0
) -> ArchetypeSpec:
    """Two decision solvers with opposite profiles.

    "thorough" solves almost everything but slowly; "fast" is an order of
    magnitude quicker on the instances it does solve but gives up more often.
    Useful for studying how metrics trade coverage against speed.
    """
    return ArchetypeSpec(
        seed=seed,
        n_instances=n_instances,
        timeout_s=timeout_s,
        solvers=(
            SolverSpec(0.95, uniform(0.40 * timeout_s, 0.90 * timeout_s), name="thorough"),
            SolverSpec(0.80, uniform(0.01 * timeout_s, 0.10 * timeout_s), name="fast"),
        ),
    )
