"""Value semantics of the package's record types.

Each record compares, hashes, prints, pickles and copies as a frozen
dataclass of the same fields would: equal when its class and fields are
equal, hashed as the tuple of its fields, shown as Name(field=value, ...),
its fields fixed once built. A copy with changed fields goes through the
record's replace method.
"""

from __future__ import annotations

import math
import pickle

import pytest

from solvereval.baselines import BaselineReport
from solvereval.errors import Violation
from solvereval.harness import Aggregation, EvaluationResult, FoldCell, FoldPlan, RankEntry
from solvereval.metrics import MetricInfo, MetricParams, SbsPolicy, Split
from solvereval.scenario import (
    Direction,
    HeadToHead,
    Instance,
    InstanceKind,
    RunOutcome,
    RunStatus,
    Scenario,
    ScoreTable,
    Trajectory,
)

SOLVED, DECISION, OPT = RunStatus.SOLVED, InstanceKind.DECISION, InstanceKind.OPTIMIZATION
TABLE = ScoreTable("par", {"lambda": 10.0}, {"a": 1.5}, Direction.LOWER)
PLAN = FoldPlan(7, ((("i1",), ("i2",)),))
CELL = FoldCell(0, 1, ("i2",), TABLE, None)
OUTCOMES = {("i1", "a"): RunOutcome(1.0, SOLVED)}
NO_PARAMS = object()  # MetricInfo's default report_params: a function that reports none


FIELDS = {
    "Violation": ("code", "message", "where"),
    "Instance": ("id", "kind", "best_known_obj"),
    "RunOutcome": ("time_s", "status", "obj"),
    "Trajectory": ("events",),
    "ScoreTable": ("metric_id", "params", "per_solver", "direction", "per_instance",
                   "aggregation"),
    "Scenario": ("id", "instances", "solvers", "timeout_s", "outcomes", "trajectories"),
    "HeadToHead": ("solver_a", "solver_b", "a_faster", "b_faster", "ties"),
    "MetricParams": ("lam", "delta", "alpha", "beta", "base_metric"),
    "MetricInfo": ("metric_id", "direction", "columns", "summed", "report_params",
                   "baselines"),
    "Split": ("at", "values"),
    "FoldPlan": ("seed", "assignment"),
    "FoldCell": ("repeat", "fold", "test_instances", "table", "baseline"),
    "EvaluationResult": ("cells", "merged", "fold_plan", "sbs_policy", "aggregation"),
    "RankEntry": ("solver_id", "score", "position", "tied"),
    "BaselineReport": ("base_metric_id", "sbs_id", "sbs_policy", "vbs_per_instance", "m_vbs",
                       "m_sbs", "gap_ratio", "warnings"),
}

# Per type: a value with every field given by position, the trailing fields that have
# defaults with those defaults, a field to change and its new value, and the repr text.
CASES = {
    "Violation": (Violation("BadX", "m", "(i1, a)"), {"where": None}, ("message", "n"),
                  "Violation(code='BadX', message='m', where='(i1, a)')"),
    "Instance": (Instance("i1", OPT, 3.0), {"kind": DECISION, "best_known_obj": None},
                 ("best_known_obj", 2.0),
                 "Instance(id='i1', kind=<InstanceKind.OPTIMIZATION: 'optimization'>,"
                 " best_known_obj=3.0)"),
    "RunOutcome": (RunOutcome(1.0, SOLVED, 4.0), {"obj": math.inf}, ("time_s", 2.0),
                   "RunOutcome(time_s=1.0, status=<RunStatus.SOLVED: 'solved'>, obj=4.0)"),
    "Trajectory": (Trajectory(((1.0, 5.0),)), {"events": ()}, ("events", ((2.0, 4.0),)),
                   "Trajectory(events=((1.0, 5.0),))"),
    "ScoreTable": (ScoreTable("par", {"lambda": 10.0}, {"a": 1.5}, Direction.LOWER,
                              {("a", "i1"): 1.5}, "mean"),
                   {"per_instance": None, "aggregation": None}, ("per_solver", {"a": 2.0}),
                   "ScoreTable(metric_id='par', params={'lambda': 10.0}, per_solver={'a': 1.5},"
                   " direction=<Direction.LOWER: 'lower_better'>,"
                   " per_instance={('a', 'i1'): 1.5}, aggregation='mean')"),
    "Scenario": (Scenario("s", (Instance("i1"),), ("a",), 10.0, OUTCOMES, {}),
                 {"trajectories": {}}, ("timeout_s", 20.0),
                 "Scenario(id='s', instances=(Instance(id='i1', kind=<InstanceKind.DECISION:"
                 " 'decision'>, best_known_obj=None),), solvers=('a',), timeout_s=10.0,"
                 " outcomes={('i1', 'a'): RunOutcome(time_s=1.0, status=<RunStatus.SOLVED:"
                 " 'solved'>, obj=inf)}, trajectories={})"),
    "HeadToHead": (HeadToHead("a", "b", 3, 1, 2), {}, ("ties", 0),
                   "HeadToHead(solver_a='a', solver_b='b', a_faster=3, b_faster=1, ties=2)"),
    "MetricParams": (MetricParams(5.0, 1.0, 0.1, 0.9, "area"),
                     {"lam": 10.0, "delta": 0.0, "alpha": 0.25, "beta": 0.75,
                      "base_metric": "par"}, ("delta", 2.0),
                     "MetricParams(lam=5.0, delta=1.0, alpha=0.1, beta=0.9, base_metric='area')"),
    "MetricInfo": (MetricInfo("x", Direction.HIGHER, len, True, max, True),
                   {"summed": False, "report_params": NO_PARAMS, "baselines": False},
                   ("summed", False),
                   "MetricInfo(metric_id='x', direction=<Direction.HIGHER: 'higher_better'>,"
                   " columns=<built-in function len>, summed=True,"
                   " report_params=<built-in function max>, baselines=True)"),
    "Split": (Split([0, 2], {"a": [1.0, 2.0]}), {}, ("at", [2]),
              "Split(at=[0, 2], values={'a': [1.0, 2.0]})"),
    "FoldPlan": (PLAN, {}, ("seed", 8), "FoldPlan(seed=7, assignment=((('i1',), ('i2',)),))"),
    "FoldCell": (CELL, {}, ("fold", 0),
                 f"FoldCell(repeat=0, fold=1, test_instances=('i2',), table={TABLE!r},"
                 " baseline=None)"),
    "EvaluationResult": (EvaluationResult((CELL,), TABLE, PLAN, SbsPolicy.TRAIN_SPLIT,
                                          Aggregation.MEDIAN), {}, ("fold_plan", None),
                         f"EvaluationResult(cells=({CELL!r},), merged={TABLE!r},"
                         f" fold_plan={PLAN!r}, sbs_policy=<SbsPolicy.TRAIN_SPLIT:"
                         " 'train_split'>, aggregation=<Aggregation.MEDIAN: 'median'>)"),
    "RankEntry": (RankEntry("a", 1.5, 1, False), {}, ("tied", True),
                  "RankEntry(solver_id='a', score=1.5, position=1, tied=False)"),
    "BaselineReport": (BaselineReport("par", "a", SbsPolicy.TRAIN_SPLIT, {"i1": 1.0}, 1.0,
                                      2.0, 0.5, ("w",)), {"warnings": ()}, ("sbs_id", "b"),
                       "BaselineReport(base_metric_id='par', sbs_id='a',"
                       " sbs_policy=<SbsPolicy.TRAIN_SPLIT: 'train_split'>,"
                       " vbs_per_instance={'i1': 1.0}, m_vbs=1.0, m_sbs=2.0, gap_ratio=0.5,"
                       " warnings=('w',))"),
}
UNHASHABLE = {"ScoreTable", "Scenario", "Split", "FoldCell", "EvaluationResult",
              "BaselineReport"}
NAMES = sorted(CASES)


def _values(value) -> tuple:
    return tuple(getattr(value, f) for f in FIELDS[type(value).__name__])


@pytest.mark.parametrize("name", NAMES)
class TestValueSemantics:
    def test_equal_values_compare_equal(self, name):
        value = CASES[name][0]
        again = type(value)(*_values(value))
        assert again == value and not again != value
        assert again is not value

    def test_other_types_and_other_fields_compare_unequal(self, name):
        value, _, (field, new), _ = CASES[name]
        assert value != _values(value)
        assert value.__eq__(_values(value)) is NotImplemented
        assert value != object()
        assert value.replace(**{field: new}) != value

    def test_hash(self, name):
        value = CASES[name][0]
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(type(value)(*_values(value))) == hash(_values(value))

    def test_repr(self, name):
        assert repr(CASES[name][0]) == CASES[name][3]

    def test_pickle_round_trip(self, name):
        value = CASES[name][0]
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value) and copy == value
        assert _values(copy) == _values(value)

    def test_defaults_by_keyword_and_by_position(self, name):
        value, defaults, _, _ = CASES[name]
        cls, fields = type(value), FIELDS[name]
        given = _values(value)[: len(fields) - len(defaults)]
        assert tuple(fields[len(given):]) == tuple(defaults)
        least = cls(*given)
        for field in fields:
            want = defaults[field] if field in defaults else getattr(value, field)
            if want is NO_PARAMS:
                assert getattr(least, field)(MetricParams(), "train_split") == {}
            else:
                assert getattr(least, field) == want
        assert cls(**dict(zip(fields, given))) == least
        assert cls(*given, *(getattr(least, f) for f in defaults)) == least
        assert cls(**dict(zip(fields, _values(value)))) == value

    def test_bad_arguments_are_refused(self, name):
        value = CASES[name][0]
        cls, fields, values = type(value), FIELDS[name], _values(value)
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, nope=1)
        required = len(fields) - len(CASES[name][1])
        if required:
            with pytest.raises(TypeError):
                cls(*values[: required - 1])

    def test_copy_with_changed_fields(self, name):
        value, _, (field, new), _ = CASES[name]
        before = _values(value)
        copy = value.replace(**{field: new})
        assert type(copy) is type(value)
        assert getattr(copy, field) == new
        for f in FIELDS[name]:
            if f != field:
                assert getattr(copy, f) is getattr(value, f)
        assert _values(value) == before  # the original is untouched
        assert value.replace() == value and value.replace() is not value
        with pytest.raises(TypeError):
            value.replace(nope=1)

    def test_fields_are_fixed(self, name):
        value = CASES[name][0]
        field = FIELDS[name][0]
        before = getattr(value, field)
        for attempt in (lambda: setattr(value, field, None), lambda: delattr(value, field),
                        lambda: setattr(value, "extra", 1)):
            with pytest.raises(AttributeError):
                attempt()
        assert getattr(value, field) is before and not hasattr(value, "extra")


class TestFieldDefaults:
    def test_each_scenario_gets_its_own_trajectories(self):
        one, two = (Scenario("s", (Instance("i1"),), ("a",), 10.0, OUTCOMES) for _ in "12")
        assert one.trajectories == {} and type(one.trajectories) is dict
        assert one.trajectories is not two.trajectories

    def test_a_given_class_is_kept_as_given(self):
        # A field given a class holds the class: only a missing trajectories is made anew.
        sc = Scenario("s", (Instance("i1"),), ("a",), 10.0, OUTCOMES, dict)
        assert sc.trajectories is dict
        info = MetricInfo("x", Direction.LOWER, dict, report_params=dict)
        assert info.columns is dict and info.report_params is dict

    def test_metric_info_reports_no_parameters_by_default(self):
        info = MetricInfo("x", Direction.LOWER, len)
        assert info.report_params(MetricParams(), "train_split") == {}
        assert info.decomposable_base

    def test_kind_is_kept_as_given(self):
        assert Instance("i1", "optimization").kind == "optimization"


class TestDerivedState:
    def test_a_scenario_copy_reads_its_own_fields(self):
        sc = Scenario("s", (Instance("i1"),), ("a",), 10.0, OUTCOMES)
        assert sc.position_map == {"i1": 0} and sc.instance_ids == ("i1",)
        copy = sc.replace(instances=(Instance("i2"),))
        assert copy.position_map == {"i2": 0} and copy.instance_ids == ("i2",)
        assert sc.position_map == {"i1": 0}

    def test_cached_reads_do_not_enter_equality_or_pickles(self):
        sc, fresh = (Scenario("s", (Instance("i1"),), ("a",), 10.0, OUTCOMES) for _ in "12")
        sc.position_map  # noqa: B018
        assert sc == fresh
        assert pickle.loads(pickle.dumps(sc)).position_map == {"i1": 0}

    def test_split_sums_are_read_once(self):
        split = Split([0, 1], {"a": [1.0, 2.0], "b": [0.5, 0.5]})
        assert split.sums == {"a": 3.0, "b": 1.0}
        assert split.sums is split.sums

    def test_fold_plan_shape(self):
        assert (PLAN.k, PLAN.repeats) == (2, 1)
        assert (FoldPlan(0, ()).k, FoldPlan(0, ()).repeats) == (0, 0)
