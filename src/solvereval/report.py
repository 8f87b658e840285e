"""The report of score: its JSON document (build_report), and its text and CSV renderings.

Only score builds one; solvereval.io.build_report and emit_report load this
module on first use.
"""

from __future__ import annotations

import csv
from io import StringIO
from typing import TYPE_CHECKING, Mapping, Sequence

from . import __version__
from .io import json_text, ranking_json
from .scenario import Scenario

if TYPE_CHECKING:
    from .harness import EvaluationResult

__all__ = ["build_report", "emit_report"]


def build_report(
    scenario: Scenario,
    evaluations: Sequence[EvaluationResult],
    source: str | None = None,
) -> dict:
    """The report of one or more evaluations of the same scenario, as its JSON document.

    It holds only JSON types: score --format json prints it as it is, and
    emit_report renders the table and the CSV from it. With folds, the
    provenance names the fold plan's seed.
    """
    from .harness import rank

    baselines, collected = [], []
    for ev in evaluations:
        for cell in ev.cells:
            b = cell.baseline
            if b is None:
                continue
            baselines.append({
                "repeat": cell.repeat,
                "fold": cell.fold,
                "base_metric": b.base_metric_id,
                "sbs_policy": b.sbs_policy.value,
                "sbs": b.sbs_id,
                "m_vbs": b.m_vbs,
                "m_sbs": b.m_sbs,
                "gap_ratio": b.gap_ratio,
                "vbs_per_instance": dict(b.vbs_per_instance),
                "warnings": list(b.warnings),
            })
            tag = f"[{ev.merged.metric_id} r{cell.repeat} f{cell.fold}] " if ev.fold_plan else ""
            collected.extend(tag + w for w in b.warnings)
    first = evaluations[0] if evaluations else None
    plan = first.fold_plan if first is not None else None
    provenance: dict[str, object] = {
        "tool": "solvereval",
        "version": __version__,
        "timeout_s": scenario.timeout_s,
        "fold_plan": None if plan is None else {
            "k": plan.k, "repeats": plan.repeats, "seed": plan.seed,
        },
        "sbs_policy": first.sbs_policy.value if first is not None else None,
        "aggregation": first.aggregation.value if first is not None else None,
    }
    if source is not None:
        provenance["source"] = source
    if plan is not None:
        provenance["seed"] = plan.seed
    return {
        "scenario": {
            "id": scenario.id,
            "n_instances": len(scenario.instances),
            "solvers": list(scenario.solvers),
            "timeout_s": scenario.timeout_s,
        },
        "metric": [ev.merged.metric_id for ev in evaluations],
        "params": [dict(ev.merged.params) for ev in evaluations],
        "scores": [dict(ev.merged.per_solver) for ev in evaluations],
        "ranking": [ranking_json(rank([ev.merged])) for ev in evaluations],
        "baselines": baselines,
        "warnings": collected,
        "provenance": provenance,
    }


def _param_str(params: Mapping[str, object]) -> str:
    return ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in sorted(params.items()))


def emit_report(report: dict, fmt: str = "table") -> bytes:
    """Render a report (build_report's document) as json, csv (long form), or a text table."""
    if fmt == "json":
        return json_text(report).encode()

    scenario = report["scenario"]
    if fmt == "csv":
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scenario", "metric", "params", "solver", "score", "rank", "tied"])
        writer.writerows(
            [scenario["id"], m, _param_str(params), e["solver"], repr(e["score"]), e["position"],
             str(e["tied"]).lower()]
            for m, params, ranking in zip(report["metric"], report["params"], report["ranking"])
            for e in ranking
        )
        return buf.getvalue().encode()

    if fmt == "table":
        solvers = scenario["solvers"]
        lines = [
            f"scenario {scenario['id']}: {scenario['n_instances']} instances x "
            f"{len(solvers)} solvers, timeout {scenario['timeout_s']:g} s",
            "",
        ]
        headers = ["solver"]
        columns = []
        for m, params, scores, ranking in zip(
                report["metric"], report["params"], report["scores"], report["ranking"]):
            p = _param_str(params)
            headers.append(f"{m}[{p}]" if p else m)
            values = [scores[sv] for sv in solvers]
            peak = ranking[0]["score"]  # rank has ordered the scores by the metric's direction
            columns.append([f"{v:.4f}{'*' if v == peak else ''}" for v in values])
        rows = list(zip(solvers, *columns))
        widths = [max(len(h), *(len(r[c]) for r in rows)) for c, h in enumerate(headers)]
        lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip())
        lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        for r in rows:
            cells = [r[0].ljust(widths[0])] + [
                r[c].rjust(widths[c]) for c in range(1, len(headers))
            ]
            lines.append("  ".join(cells).rstrip())
        if report["baselines"]:
            lines.append("")
            lines.append("baselines:")
            for b in report["baselines"]:
                lines.append(
                    f"  repeat {b['repeat']} fold {b['fold']}: base={b['base_metric']} "
                    f"policy={b['sbs_policy']} sbs={b['sbs']} "
                    f"m_sbs={b['m_sbs']:.4f} m_vbs={b['m_vbs']:.4f} gap_ratio={b['gap_ratio']:.4f}"
                )
        if report["warnings"]:
            lines.append("")
            lines.append("warnings:")
            for w in report["warnings"]:
                lines.append(f"  - {w}")
        return ("\n".join(lines) + "\n").encode()

    raise ValueError(f"unknown report format {fmt!r}; use table, json, or csv")
