"""Structure of the package source and scripts: each module keeps its private names to
itself."""

import ast
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
    assert {"convergence_study.py", "run_experiments.py"} <= {path.name for path in MODULES}


def test_private_import_is_found():
    source = "from chronon.gamma_algebra import ALPHA, _frozen\nfrom chronon import cli\n"
    assert private_imports(source) == ["chronon.gamma_algebra._frozen"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path.read_text()) == []
