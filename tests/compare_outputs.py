"""Compare two checkouts of chronon line by line: exit status, stdout, stderr and artifacts.

    python3 tests/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each checkout runs the same command lines through its own ``chronon.cli.main``, in its own
interpreter (``PYTHONPATH=ROOT/src``, no bytecode written) inside its own temporary
directory, every line with ``--output-dir out`` appended and plots on; nothing is written
under either checkout.  The lines:

- the keys of PARENT_ROOT's ``perfbench/reference.json`` (read, never written);
- the 320 lines of ``test_argv_sweep.draw_line`` under ``random.Random(2026)``;
- ``PACKET_LINES`` valid ``zitterbewegung``, ``averaging`` and ``all`` lines from
  ``packet_line`` under ``random.Random(34)``.

A line whose exit status, stdout, stderr or output files (names and bytes) differ is
printed with what differs; the exit status is 1 if any line differs, else 0.  The file
name does not start with ``test_``, so pytest does not collect it.
"""

import json
import math
import os
import random
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # the imports below write no __pycache__ into this checkout
sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
from test_argv_sweep import LINES, draw_line  # noqa: E402

PACKET_LINES = 500
SEEDS = ["1,0,1,0", "0,1,0,1", "1,0,0,1", "1j,0,1,0", "1,0,0,0", "0,0,1,0", "1,1j,0.5,-1"]

# Run in each checkout's interpreter: every line of lines.json through main, the results
# (status, stdout, stderr, {output file name: SHA-256 of its bytes}) to results.json.
RUNNER = """
import contextlib, hashlib, io, json, os, shutil, traceback
from chronon.cli import main
with open("lines.json") as fh:
    lines = json.load(fh)
results = []
for argv in lines:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv + ["--output-dir", "out"])
        except Exception as exc:  # a defect: the entry point prints its traceback, exit 4
            status = 4
            err.write("".join(traceback.format_exception_only(type(exc), exc)))
    files = {}
    if os.path.isdir("out"):
        for name in sorted(os.listdir("out")):
            with open(os.path.join("out", name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
        shutil.rmtree("out")
    results.append([status, out.getvalue(), err.getvalue(), files])
with open("results.json", "w") as fh:
    json.dump(results, fh)
"""


def packet_line(rng: random.Random) -> list[str]:
    """A packet command line that ``validate`` accepts, drawn in Compton units with margins
    on every rule, then scaled to random units on about a third of the lines."""
    grid_n = rng.choice([256, 512, 1024, 2048])
    p = rng.uniform(4.0, 30.0)
    sigma = rng.uniform(max(5 * p / grid_n, 0.02), p / 7)  # from 2.5 grid steps
    p0 = rng.uniform(-0.9, 0.9) * (p - 6 * sigma)
    t = rng.uniform(4.0, max(4.0, min(80.0, math.pi * grid_n / p / 3)))  # a third of the box
    # Up to 4 times the fewest samples validate accepts: spectra of 16 bins and up, where the
    # middle two bins that set the 3x significance threshold differ most.
    n = min(max(32, math.ceil(8 * t / math.pi * rng.uniform(1.0, 4.0)) + 2), 8192)
    command = rng.choice(["zitterbewegung", "averaging", "all"])
    hbar, c, mass = ((10 ** rng.uniform(-3, 3) for _ in range(3)) if rng.random() < 0.3
                     else (1.0, 1.0, 1.0))
    argv = [command, "--grid-n", str(grid_n), "--p-max", repr(p * mass * c),
            "--sigma-p", repr(sigma * mass * c), "--p0", repr(p0 * mass * c),
            "--t-max", repr(t * hbar / (mass * c * c)), "--n-samples", str(n),
            "--spinor-seed", rng.choice(SEEDS)]
    if (hbar, c, mass) != (1.0, 1.0, 1.0):
        argv += ["--hbar", repr(hbar), "--c", repr(c), "--mass", repr(mass)]
    if command != "zitterbewegung" and rng.random() < 0.3:
        dt = t / (n - 1)
        argv += ["--window", repr(rng.uniform(3 * dt, t / 2) * hbar / (mass * c * c))]
    if command == "all":  # the 2-D Snyder grid at 12 m c, and sometimes a = 0 or hbar/(2 m c)
        argv += ["--p-max-2d", repr(12 * mass * c)]
        if rng.random() < 0.3:
            argv += ["--a", repr(rng.choice([0.0, 0.5]) * hbar / (mass * c))]
    return argv


def command_lines(parent_root: str) -> list[list[str]]:
    with open(os.path.join(parent_root, "perfbench", "reference.json")) as fh:
        lines = [key.split() for key in json.load(fh)]
    rng = random.Random(2026)
    lines += [draw_line(rng) for _ in range(LINES)]
    rng = random.Random(34)
    return lines + [packet_line(rng) for _ in range(PACKET_LINES)]


def run_all(roots: list[str], lines: list[list[str]]) -> list[list]:
    """Each checkout's results on ``lines``, the checkouts running side by side."""
    env = {k: v for k, v in os.environ.items() if k != "CHRONON_OUTPUT_DIR"}
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for i, root in enumerate(roots):
            cwd = os.path.join(tmp, str(i))
            os.mkdir(cwd)
            with open(os.path.join(cwd, "lines.json"), "w") as fh:
                json.dump(lines, fh)
            runs.append((cwd, subprocess.Popen(
                [sys.executable, "-c", RUNNER], cwd=cwd,
                env={**env, "PYTHONPATH": os.path.join(os.path.abspath(root), "src"),
                     "PYTHONDONTWRITEBYTECODE": "1"})))
        statuses = [proc.wait() for _, proc in runs]
        if any(statuses):
            sys.exit(f"compare_outputs: the runners exited {statuses} for {roots}")
        results = []
        for cwd, _ in runs:
            with open(os.path.join(cwd, "results.json")) as fh:
                results.append(json.load(fh))
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    lines = command_lines(argv[0])
    parent, change = run_all(argv, lines)
    fields = ("exit status", "stdout", "stderr", "output files")
    differing = 0
    for line, a, b in zip(lines, parent, change):
        if a != b:
            differing += 1
            diff = [f for f, x, y in zip(fields, a, b) if x != y]
            if a[3] != b[3]:  # name each file that differs or is on one side only
                diff[-1] += " " + " ".join(sorted(
                    name for name in {**a[3], **b[3]} if a[3].get(name) != b[3].get(name)))
            print(f"differs ({', '.join(diff)}): chronon {' '.join(line)}")
    print(f"{len(lines)} lines, {differing} differing; exit status "
          + ", ".join(f"{s}: {sum(r[0] == s for r in change)}" for s in range(5)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
