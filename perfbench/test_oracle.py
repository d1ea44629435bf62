"""Tests of the benchmark's correctness oracle and span arithmetic.

Run with ``python3 -m pytest perfbench``; no chronon job is started.
"""

import copy
import os

import oracle
import tracing

BATTERY = "all"


def _write_outputs(outdir, entry):
    """Write report.txt and CSV tables that observe() reads back as ``entry``."""
    os.makedirs(outdir, exist_ok=True)
    measured = {name: entry["values"][key] for name, key in oracle.REPORT_VALUES.items()
                if key in entry["values"]}
    lines = ["== all =="]
    for name, status in entry["checks"]:
        lines.append(f"{name}: measured {measured.get(name, '0')}, expected x: {status}")
    lines.append("verdict: PASS")
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for fname, columns in oracle.CSV_COLUMNS.items():
        cols = [entry["series"][f"{fname}:{c}"] for c in columns]
        with open(os.path.join(outdir, fname), "w") as fh:
            fh.write("t," + ",".join(columns) + "\n")
            for i, row in enumerate(zip(*cols)):
                fh.write(f"{i}," + ",".join("" if v is None else repr(v) for v in row) + "\n")


def _observed(tmp_path, entry):
    _write_outputs(str(tmp_path), entry)
    return oracle.observe(str(tmp_path), entry["exit"])


def test_reference_outputs_pass(tmp_path):
    ref = oracle.load_reference()[BATTERY]
    assert oracle.compare(ref, _observed(tmp_path, ref)) == []


def test_flipped_status_fails(tmp_path):
    ref = oracle.load_reference()[BATTERY]
    bad = copy.deepcopy(ref)
    bad["checks"][3][1] = "FAIL" if bad["checks"][3][1] == "PASS" else "PASS"
    errors = oracle.compare(ref, _observed(tmp_path, bad))
    assert len(errors) == 1 and errors[0].startswith("check 3:")


def test_perturbed_position_column_fails(tmp_path):
    ref = oracle.load_reference()[BATTERY]
    bad = copy.deepcopy(ref)
    bad["series"]["zitterbewegung.csv:x_mixed"][1000] += 1e-7
    errors = oracle.compare(ref, _observed(tmp_path, bad))
    assert len(errors) == 1 and "zitterbewegung.csv:x_mixed" in errors[0]


def test_change_below_printed_resolution_passes(tmp_path):
    ref = oracle.load_reference()[BATTERY]
    near = copy.deepcopy(ref)
    near["series"]["averaging.csv:x_averaged"][2048] += 5e-10
    near["values"]["zb_frequency"] += 5e-9  # 2.01...: last printed digit is 1e-8
    assert oracle.compare(ref, _observed(tmp_path, near)) == []


def test_exit_status_and_missing_report_fail(tmp_path):
    ref = oracle.load_reference()[BATTERY]
    errors = oracle.compare(ref, oracle.observe(str(tmp_path / "none"), 1))
    assert errors[0] == "exit status 1, expected 0"
    assert any(e.startswith("check 0:") for e in errors)


def test_self_times_add_up_to_root():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["gamma_algebra.solve_normalization", 1.0, 6.0, 0],
             ["gamma_algebra.verify_lorentz_algebra", 2.0, 3.0, 1],
             ["gamma_algebra.verify_lorentz_algebra", 4.0, 4.5, 1],
             ["reporting.write_csv", 7.0, 9.0, 0]]
    own = tracing.self_times(spans)
    assert own == [3.0, 3.5, 1.0, 0.5, 2.0]
    s = tracing.summarize({"spans": spans, "counts": {"matrix_core.commutator<"
                                                       "gamma_algebra.solve_normalization": 7},
                           "fft_elements": 0, "support_frac": []})
    layers = s["cli.self_s"] + s["gamma_algebra.self_s"] + s["reporting.self_s"]
    assert layers == s["trace.wall_s"] == 10.0
    assert s["gamma_algebra.residual_evals"] == 2 + 7
    assert s["gamma_algebra.verify_lorentz_algebra.calls"] == 2
