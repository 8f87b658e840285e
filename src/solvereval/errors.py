"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class SolverEvalError(Exception):
    """Base class for every error raised by this package."""


@dataclass(frozen=True)
class Violation:
    """One structured finding from scenario validation."""

    code: str
    message: str
    where: str | None = None

    def __str__(self) -> str:
        if self.where:
            return f"{self.code} [{self.where}]: {self.message}"
        return f"{self.code}: {self.message}"


class ValidationError(SolverEvalError):
    """Scenario data breaks one or more model invariants.

    Carries the full list of violations so callers can report them all at
    once instead of fixing them one by one.
    """

    def __init__(self, violations):
        self.violations: tuple[Violation, ...] = tuple(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} violation(s): {detail}")


# Scenario restriction.
class EmptyRestriction(SolverEvalError):
    pass


class UnknownInstance(SolverEvalError):
    pass


class UnknownSolver(SolverEvalError):
    pass


# Metric arguments.
class BadLambda(SolverEvalError):
    pass


class SameSolver(SolverEvalError):
    pass


class DegenerateGap(SolverEvalError):
    pass


class NonPositiveObjective(SolverEvalError):
    pass


class BadAlphaBeta(SolverEvalError):
    pass


class MissingTrajectory(SolverEvalError):
    pass


# Baselines.
class NonDecomposableMetric(SolverEvalError):
    pass


class MissingFoldContext(SolverEvalError):
    pass


# Harness.
class BadK(SolverEvalError):
    pass


class SingleSolverScenario(SolverEvalError):
    """Pairwise scoring of a scenario with fewer than two solvers."""


class EmptyInput(SolverEvalError):
    pass


class NonPositiveForGeomean(SolverEvalError):
    pass


# Synthetic scenario generation.
class BadSpec(SolverEvalError):
    pass


class TooLarge(SolverEvalError):
    pass


# File ingestion.
class SchemaError(SolverEvalError):
    pass


class RowError(SolverEvalError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class UnsupportedAttribute(SolverEvalError):
    pass


class CliUsageError(SolverEvalError):
    pass
