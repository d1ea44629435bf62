"""Correctness oracle: compare one job's outputs with the committed reference.

A job's observation holds its exit status, the ordered (check name, status)
pairs of ``report.txt``, and its physical values: kappa, the ZB frequency and
amplitude, the Compton-window attenuation, and the <x>(t) and averaged
columns of the CSV tables.  A job fails when its exit status differs, any
check name or status differs, or any physical value is off by more than
``ABS_TOL`` (natural units; every job with a packet runs at hbar = c = m = 1).

Numbers at roundoff level (residuals, Im kappa, kappa_t, ratios over a
roundoff denominator such as the mixed/positive dichotomy) are judged by
their check's status only: a different algorithm may move their digits.

The artifacts print 9 significant digits, so a value is also allowed one
unit in its last printed digit; below that the text cannot tell two values
apart.

Run ``python3 perfbench/oracle.py`` to rewrite ``reference.json`` from the
checked-out program (it runs every job of every workload once at the default
seed).
"""

from __future__ import annotations

import csv
import json
import math
import os

ABS_TOL = 1e-9
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# report.txt check name -> physical value read from its "measured" field
REPORT_VALUES = {
    "normalization kappa": "kappa",
    "mixed packet oscillation frequency": "zb_frequency",
    "mixed packet oscillation amplitude": "zb_amplitude",
    "Compton window attenuation": "compton_attenuation",
}
# CSV file -> physical columns (<x>(t) and its averages)
CSV_COLUMNS = {
    "zitterbewegung.csv": ("x_mixed", "x_positive"),
    "averaging.csv": ("x_raw", "x_averaged"),
}


def parse_report(text: str) -> list[tuple[str, str, str]]:
    """(name, measured, status) for each check line of a report.txt."""
    checks = []
    for line in text.splitlines():
        if line.startswith("== ") or line.startswith("verdict: "):
            continue
        head, _, status = line.rpartition(": ")
        name, _, rest = head.partition(": measured ")
        measured, _, _ = rest.partition(", expected ")
        checks.append((name, measured, status))
    return checks


def observe(outdir: str, rc: int) -> dict:
    """What the oracle compares: exit status, check statuses, physical values."""
    obs: dict = {"exit": rc, "checks": [], "values": {}, "series": {}}
    report = os.path.join(outdir, "report.txt")
    if not os.path.exists(report):
        return obs
    with open(report) as fh:
        checks = parse_report(fh.read())
    obs["checks"] = [[name, status] for name, _, status in checks]
    for name, measured, status in checks:
        key = REPORT_VALUES.get(name)
        if key and status != "SKIP":
            # Im kappa is roundoff: only the real part is a physical value.
            obs["values"][key] = complex(measured).real if key == "kappa" else float(measured)
    for fname, columns in CSV_COLUMNS.items():
        path = os.path.join(outdir, fname)
        if not os.path.exists(path):
            continue
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for col in columns:
            obs["series"][f"{fname}:{col}"] = [float(r[col]) if r[col] else None
                                               for r in rows]
    return obs


def tolerance(ref: float) -> float:
    """ABS_TOL, or one unit in the 9th significant digit if that is larger."""
    if ref == 0 or not math.isfinite(ref):
        return ABS_TOL
    return max(ABS_TOL, 10.0 ** (math.floor(math.log10(abs(ref))) - 8))


def _close(got, ref) -> bool:
    if got is None or ref is None:
        return got is ref
    return abs(got - ref) <= tolerance(ref)


def compare(ref: dict, obs: dict) -> list[str]:
    """Every way ``obs`` departs from ``ref``; empty when the job is correct."""
    errors = []
    if obs["exit"] != ref["exit"]:
        errors.append(f"exit status {obs['exit']}, expected {ref['exit']}")
    if obs["checks"] != ref["checks"]:
        pairs = list(zip(obs["checks"], ref["checks"]))
        i = next((i for i, (g, w) in enumerate(pairs) if g != w), len(pairs))
        got = obs["checks"][i] if i < len(obs["checks"]) else None
        want = ref["checks"][i] if i < len(ref["checks"]) else None
        errors.append(f"check {i}: {got}, expected {want}")
    for kind in ("values", "series"):
        if set(obs[kind]) != set(ref[kind]):
            errors.append(f"{kind} {sorted(obs[kind])}, expected {sorted(ref[kind])}")
            continue
        for key, want in ref[kind].items():
            got = obs[kind][key]
            if kind == "values":
                got, want = [got], [want]
            if len(got) != len(want):
                errors.append(f"{key}: {len(got)} rows, expected {len(want)}")
                continue
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w)]
            if bad:
                i = bad[0]
                errors.append(f"{key}: {len(bad)} values off, first [{i}] = {got[i]!r}, "
                              f"expected {want[i]!r}")
    return errors


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def job_key(args: list[str]) -> str:
    """Reference key of a job: its chronon arguments without seed or output dir."""
    return " ".join(args)


def write_reference() -> None:
    import run

    ref = {}
    with run.Workdir(run.ROOT) as work:
        for jobs in run.WORKLOADS.values():
            for args in jobs:
                rec, outdir = work.run_job(args, seed=run.DEFAULT_SEED, trace=False)
                ref[job_key(args)] = observe(outdir, rec["rc"])
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_reference()
