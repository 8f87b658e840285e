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

from .errors import BadSpec, ValidationError
from .rng import SplitMix64
from .scenario import InstanceKind, RunStatus, Scenario, ScenarioBuilder, check_timeout, quantize_ms

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

    def sample(self, u: float) -> float:
        return self.lo + (self.hi - self.lo) * u


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


def _staircase(
    t_found: float, obj: float, u_split: float, u_bump: float
) -> tuple[tuple[float, float], ...]:
    # Either a single improvement or a two-step descent to the final value.
    if u_split < 0.5 and t_found >= 2 * _MS:
        mid = quantize_ms(t_found / 2.0)
        if 0.0 <= mid < t_found:
            worse = round(obj + 1.0 + 9.0 * u_bump, 6)
            return ((mid, worse), (t_found, obj))
    return ((t_found, obj),)


def generate(spec: ArchetypeSpec) -> Scenario:
    """Produce the scenario a spec describes; same spec, same scenario."""
    _check_spec(spec)
    rng = SplitMix64(spec.seed)
    tau = float(spec.timeout_s)
    names = _solver_names(spec)
    width = max(3, len(str(spec.n_instances - 1)))

    # Trajectories go in as the events a trajectory file lists: a solved
    # run's trajectory is proved optimal at the run's time, as a file's is.
    builder = ScenarioBuilder(tau, solvers=names)
    solved, error, timeout, inf = RunStatus.SOLVED, RunStatus.ERROR, RunStatus.TIMEOUT, math.inf
    kinds = {True: InstanceKind.OPTIMIZATION, False: InstanceKind.DECISION}
    draws = 2 + 8 * len(spec.solvers)
    runs, events = [], []  # (instance, solver, status, time, obj) and (instance, solver, time, obj)
    for idx in range(spec.n_instances):
        iid = f"i{idx:0{width}d}"
        u = rng.next_floats(draws)  # the instance's 2 draws, then each run's 8
        u_kind, u_base = u[:2]
        is_opt = u_kind < spec.opt_fraction
        base_obj = round(10.0 + 90.0 * u_base, 6)
        builder.instance(iid, kinds[is_opt])
        for at, solver_spec, sid in zip(range(2, draws, 8), spec.solvers, names):
            u_solve, u_time, u_error, u_subopt, u_offset, u_split, u_frac, u_bump = u[at:at + 8]

            obj, stairs = inf, ()
            if u_solve < solver_spec.solve_probability:
                t = quantize_ms(solver_spec.runtime.sample(u_time))
                if t >= tau:
                    t = quantize_ms(tau - _MS)
                status = solved
                if is_opt:
                    obj = base_obj
                    stairs = _staircase(quantize_ms(u_frac * t), obj, u_split, u_bump)
            elif u_error < spec.error_probability:
                status, t = error, tau
            else:
                status, t = timeout, tau
                if is_opt and u_subopt < spec.subopt_probability:
                    quality = solver_spec.objective_quality or _DEFAULT_QUALITY
                    obj = round(base_obj + quality.sample(u_offset), 6)
                    t_found = quantize_ms(u_frac * (tau - _MS))
                    stairs = _staircase(t_found, obj, u_split, u_bump)
            runs.append((iid, sid, status, t, obj))
            for t_e, v in stairs:
                events.append((iid, sid, t_e, v))
        if len(runs) >= _BLOCK or idx == spec.n_instances - 1:
            _take(builder, runs, events)

    builder.close_runs()
    return builder.scenario(spec.scenario_id or f"synth-{spec.seed}")


_BLOCK = 256  # runs handed to the builder at a time, with the events of their instances


def _take(builder: ScenarioBuilder, runs: list[tuple], events: list[tuple]) -> None:
    """Hand a block of runs, then their events, to the builder, and empty both lists; a
    ValueError with the builder's reason for a run it refuses."""
    iids, sids, statuses, times, objs = zip(*runs)
    why = builder.runs(iids, sids, times, statuses, objs)[1]
    if why is not None:
        raise ValueError(why)
    if events:
        builder.events(*zip(*events))  # each names a run just placed, so all are taken
    runs.clear()
    events.clear()


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
