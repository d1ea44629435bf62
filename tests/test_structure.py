"""Structure of the package source and scripts: each module keeps its private names to
itself, ``cli.main`` catches only the input and system errors, ``cli._gate`` alone forms a
PASS/FAIL verdict, and a deprecation in chronon fails the suite."""

import ast
import warnings
from pathlib import Path

import pytest

import chronon

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
MODULES = sorted(Path(chronon.__file__).parent.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))


def private_imports(source: str) -> list[str]:
    """Each ``from chronon.<module> import _name`` in ``source``, as "chronon.<module>._name"."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chronon.")
            for alias in node.names if alias.name.startswith("_")]


def test_scripts_are_scanned():
    assert {"convergence_study.py"} <= {path.name for path in MODULES}


def test_private_import_is_found():
    source = "from chronon.gamma_algebra import ALPHA, _frozen\nfrom chronon import cli\n"
    assert private_imports(source) == ["chronon.gamma_algebra._frozen"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_main_catches_only_input_and_system_errors():
    # Exit 2 is the input's fault and exit 3 the system's; any other exception, a
    # ValueError included, is a defect in chronon and must leave main as a traceback.
    tree = ast.parse((Path(chronon.__file__).parent / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(handler.type) for node in ast.walk(main) if isinstance(node, ast.Try)
              for handler in node.handlers]
    assert caught == ["UsageError", "ConfigError", "ArithmeticError", "MemoryError", "OSError"]


def report_add_verdicts(source: str) -> list[tuple[str, str]]:
    """(enclosing function, verdict argument) of each ``report.add(...)`` call in ``source``,
    the verdict being the fourth argument, ``ok``."""
    calls = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add" and ast.unparse(node.func.value) == "report"):
                ok = node.args[3:4] or [kw.value for kw in node.keywords if kw.arg == "ok"]
                calls.append((func.name, ast.unparse(ok[0]) if ok else "<missing>"))
    return calls


def test_inline_verdict_is_found():
    source = ("def run(report):\n    report.add('a', 1, 2, None)\n"
              "    report.add('b', 1, 2, ok=1 <= 2)\n")
    assert report_add_verdicts(source) == [("run", "None"), ("run", "1 <= 2")]


def test_no_verdict_outside_gate():
    # cli._gate forms every PASS/FAIL verdict from a GATES row; every other report.add in
    # cli.py records an INFO line, so a verdict judged inline cannot come back.
    calls = report_add_verdicts((Path(chronon.__file__).parent / "cli.py").read_text())
    assert [verdict for func, verdict in calls if func == "_gate"] == ["ok"]
    assert {verdict for func, verdict in calls if func != "_gate"} == {"None"}


def test_deprecation_in_chronon_is_an_error():
    # pyproject.toml's filterwarnings: a numpy or stdlib API that chronon calls and that is
    # going away fails the suite, while one deprecated elsewhere is only reported.
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old", DeprecationWarning, "cli.py", 1, module="chronon.cli")
    with pytest.warns(DeprecationWarning):
        warnings.warn_explicit("old", DeprecationWarning, "other.py", 1, module="other")
