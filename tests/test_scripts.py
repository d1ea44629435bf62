"""The scripts in scripts/ run against the CLI's code paths."""

import importlib.util
import os
import subprocess
import sys

from chronon import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(cli.__file__))


def test_convergence_study_prints_every_row(capsys):
    spec = importlib.util.spec_from_file_location(
        "convergence_study", os.path.join(ROOT, "scripts", "convergence_study.py"))
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    study.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    table = [row for row in rows if row and row[0].isdigit()]
    # 7 grid sizes of the 1-D check, 5 of the 2-D check (r_xy and r_mixed).
    assert [len(row) for row in table] == [2] * 7 + [3] * 5
    # The finest grids reach the roundoff floor of each check.
    assert float(table[6][1]) <= 1e-10 and float(table[11][1]) <= 1e-10


def test_run_experiments_writes_the_report(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "run_experiments.py"),
                           "--no-emit-plots"], cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "results" / "full-run" / "report.txt").read_text().endswith(
        "verdict: PASS\n")
