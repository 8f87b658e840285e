"""Exception types shared across the package, and the base of its record types."""

from __future__ import annotations

_set = object.__setattr__  # how a record's __init__ writes a field past its __setattr__


class _Fields(type):
    """A record class's annotated names are its fields, in order, held in __slots__ with any
    the class lists; a value given beside one is its default (a class: called for each)."""

    def __new__(mcs, name, bases, namespace):
        fields = namespace["_fields"] = tuple(namespace.get("__annotations__", ()))
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["__slots__"] = (*fields, *namespace.get("__slots__", ()))
        return super().__new__(mcs, name, bases, namespace)


class _Value(metaclass=_Fields):
    """An immutable record: built, compared, hashed, shown and pickled as a frozen dataclass
    of its fields is, and copied with fields changed by replace. A type built once per
    instance or cell writes its own __init__, which is faster than this one."""

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):  # else each field is given in order
            named = {**dict(zip(cls._fields, args)), **kwargs}
            given = {**{f: d() if isinstance(d, type) else d for f, d in cls._defaults.items()},
                     **named}
            if len(named) < len(args) + len(kwargs) or given.keys() ^ cls._fields:
                raise TypeError(f"{cls.__name__}() takes {cls._fields}, got {args}, {kwargs}")
            args = map(given.__getitem__, cls._fields)
        for name, value in zip(cls._fields, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def replace(self, **changes: object) -> _Value:
        """A copy of this record with the given fields changed."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class SolverEvalError(Exception):
    """Base class for every error raised by this package."""


class Violation(_Value):
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
