"""The script in scripts/ runs against the CLI's code paths."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

