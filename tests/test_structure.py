"""Structure of the package source and scripts: each module keeps its private names to
itself, ``cli.main`` catches only the input and system errors, and a deprecation in chronon
fails the suite."""

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


def test_deprecation_in_chronon_is_an_error():
    # pyproject.toml's filterwarnings: a numpy or stdlib API that chronon calls and that is
    # going away fails the suite, while one deprecated elsewhere is only reported.
    with pytest.raises(DeprecationWarning):
        warnings.warn_explicit("old", DeprecationWarning, "cli.py", 1, module="chronon.cli")
    with pytest.warns(DeprecationWarning):
        warnings.warn_explicit("old", DeprecationWarning, "other.py", 1, module="other")
