"""The package has no runtime dependencies: every import is relative or stdlib.

It also parses on the oldest Python that pyproject.toml declares, the
oracle, the independent check on the metrics, imports none of the scoring
modules, and CLI commands return their output rather than write it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import solvereval

PACKAGE = Path(solvereval.__file__).parent


def _third_party(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names
                  if n.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_every_module_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10
    offenders = {p.name: bad for p in modules if (bad := _third_party(p))}
    assert offenders == {}


def test_the_check_sees_a_third_party_import(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("import json\nfrom . import io\nimport numpy as np\nfrom scipy.stats import norm\n")
    assert _third_party(p) == ["line 3: numpy", "line 4: scipy.stats"]


SCORING = {"metrics", "baselines", "harness"}


def _scoring_imports(path: Path) -> list[str]:
    """Imports of a scoring module of the package, absolute or relative, by line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = [node.module] if node.module else []
            # from . import metrics, or from solvereval import harness
            modules = [".".join([*base, alias.name]) for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules
                  if SCORING & set(m.split("."))]
    return found


def test_oracle_imports_no_scoring_module():
    assert _scoring_imports(PACKAGE / "oracle.py") == []


def test_the_check_sees_a_scoring_import(tmp_path):
    p = tmp_path / "m.py"
    p.write_text(
        "import math\nfrom .scenario import Scenario\nfrom .errors import TooLarge\n"
        "from solvereval.metrics import par_score\nimport solvereval.harness\n"
        "from . import baselines\nfrom .metrics import closed_gap\n"
        "import solvereval.harness as h\n"
    )
    assert _scoring_imports(p) == [
        "line 4: solvereval.metrics.par_score", "line 5: solvereval.harness",
        "line 6: baselines", "line 7: metrics.closed_gap", "line 8: solvereval.harness",
    ]


def _is_dumps(call: ast.Call) -> bool:
    func = call.func
    return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) == "dumps"


def _command_output_calls(path: Path) -> list[str]:
    """Calls in a cmd_* function that write to stdout or encode JSON, by line."""
    found = []
    for fn in ast.parse(path.read_text(), filename=str(path)).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            dest = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
            to_stdout = name == "print" and dest in ([], ["sys.stdout"])
            if to_stdout or name == "sys.stdout.write" or _is_dumps(node):
                found.append(f"{fn.name} line {node.lineno}: {name}")
    return found


def _dumps_calls(paths) -> list[str]:
    return [f"{p.name} line {node.lineno}" for p in paths
            for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
            if isinstance(node, ast.Call) and _is_dumps(node)]


def test_commands_return_their_output():
    # main renders and writes a command's output; the package has one JSON encoder.
    assert _command_output_calls(PACKAGE / "cli.py") == []
    calls = _dumps_calls(sorted(PACKAGE.glob("*.py")))
    assert len(calls) == 1 and calls[0].startswith("io.py "), calls


def test_the_check_sees_output_in_a_command(tmp_path):
    p = tmp_path / "cli.py"
    p.write_text(
        "import json, sys\nfrom json import dumps\n"
        "def cmd_a(args):\n    print('x', file=sys.stderr)\n    print('y')\n"
        "    print('z', file=sys.stdout)\n    return json.dumps({})\n"
        "def cmd_b(args):\n    sys.stdout.write(dumps([]))\n"
        "def main():\n    print(json.dumps({}))\n"
    )
    assert _command_output_calls(p) == [
        "cmd_a line 5: print", "cmd_a line 6: print", "cmd_a line 7: json.dumps",
        "cmd_b line 9: sys.stdout.write", "cmd_b line 9: dumps",
    ]
    assert _dumps_calls([p]) == ["cli.py line 7", "cli.py line 9", "cli.py line 11"]


FLOOR = (3, 10)  # the floor pyproject.toml declares


def test_pyproject_declares_the_floor():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject


def test_every_module_parses_on_the_python_floor():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_the_floor_check_sees_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # exception groups are 3.11
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse(newer, feature_version=FLOOR)
