"""chronon benchmark: run a workload of CLI jobs, check them, report medians.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload battery-default --seed 1 --seconds 40 --trace 0

Every job is a fresh interpreter (perfbench/job.py) that imports
``chronon.cli`` from the checkout's ``src`` and calls ``main(argv)`` once;
jobs run one after another.  A pass runs a machine-speed probe job and then
every job of the workload once; passes repeat until the next one would end
past ``--seconds``.  Each job's outputs are checked against
``reference.json`` (see oracle.py).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics: untraced and traced passes then alternate, and the
traced ones wrap chronon's layers with spans and counters (tracing.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full run record
goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import oracle
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
DEFAULT_SEED = 42
JOB_TIMEOUT_S = 150
# job.speed_probe() on the 2-core Xeon VM the benchmark was defined on; wall_s
# and setup_s are rescaled to that machine speed (see README.md).
PROBE_REF_S = 0.45
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    "battery-default": [["all"]],
    "operator-sweep": [
        ["verify-algebra"],
        ["verify-algebra", "--mass", "2", "--a", "0.5"],
        ["verify-algebra", "--hbar", "2", "--c", "3"],
        ["verify-algebra", "--a", "0"],
        ["snyder", "--grid-n-2d", "1024"],
        ["snyder", "--grid-n-2d", "1024", "--a", "0"],
    ],
    "packet-wide": [["zitterbewegung", "--sigma-p", "2", "--grid-n", "2048"]],
}


class Workdir:
    """Scratch directory inside the checkout where jobs run and write outputs."""

    def __init__(self, root: str):
        self.base = os.path.join(root, ".perfbench", "jobs", str(os.getpid()))
        self.argvs: list[list[str]] = []

    def __enter__(self) -> "Workdir":
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.base, ignore_errors=True)

    def run_job(self, args: list[str], seed: int, trace: bool,
                job_id: str = "job") -> tuple[dict, str]:
        """Run one job in a clean directory; return its record and output dir."""
        jobdir = os.path.join(self.base, "job")
        shutil.rmtree(jobdir, ignore_errors=True)
        os.makedirs(jobdir)
        argv = [sys.executable, JOB, "record.json", "1" if trace else "0", job_id, "--",
                *args, "--seed", str(seed), "--output-dir", "out"]
        self.argvs.append(argv)
        spawned = time.monotonic()
        proc = subprocess.run(argv, cwd=jobdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=JOB_TIMEOUT_S)
        record_path = os.path.join(jobdir, "record.json")
        if proc.returncode != 0 or not os.path.exists(record_path):
            sys.stderr.write(f"perfbench: job {args} died ({proc.returncode}):\n"
                             f"{proc.stderr[-2000:]}")
            return {"rc": f"job died with status {proc.returncode}"}, os.path.join(jobdir, "out")
        with open(record_path) as fh:
            rec = json.load(fh)
        rec["setup_s"] = rec["imported"] - spawned
        return rec, os.path.join(jobdir, "out")


def _dir_bytes(path: str) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def run_pass(work: Workdir, jobs, reference, seed: int, trace: bool, tag: str) -> dict:
    """Time the machine, then run every job once; return the pass's sums,
    failures and trace."""
    probe, _ = work.run_job(["--probe"], seed, False, f"{tag}.probe")
    out = {"traced": trace, "probe_s": probe["probe_s"], "wall_s": 0.0, "setups": [], "peak_rss_mb": 0.0,
           "attempted": 0, "failures": [], "bytes_written": 0, "layers": Counter(),
           "dumps": []}
    for j, args in enumerate(jobs):
        rec, outdir = work.run_job(args, seed, trace, f"{tag}.j{j}")
        out["attempted"] += 1
        errors = oracle.compare(reference[oracle.job_key(args)],
                                oracle.observe(outdir, rec["rc"]))
        if errors:
            out["failures"].append({"job": args, "errors": errors})
        out["bytes_written"] += _dir_bytes(outdir)
        if "wall_s" not in rec:
            continue
        out["wall_s"] += rec["wall_s"]
        out["setups"].append(rec["setup_s"])
        out["peak_rss_mb"] = max(out["peak_rss_mb"], rec["maxrss_kb"] / 1024)
        if trace:
            out["layers"].update(tracing.summarize(rec["trace"]))  # += would drop zeros
            out["dumps"].append(rec["trace"])
    return out


def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    s = p["layers"]
    m = {k: float(v) for k, v in s.items()}
    m["gamma_algebra.evals_per_constant"] = (
        s["gamma_algebra.residual_evals"] / (2 * s["gamma_algebra.searches"])
        if s["gamma_algebra.searches"] else 0.0)
    m["dirac_dynamics.support_frac"] = (
        s["dirac_dynamics.support_frac_sum"] / s["dirac_dynamics.packets"]
        if s["dirac_dynamics.packets"] else 0.0)
    m["reporting.bytes_written"] = float(p["bytes_written"])
    return m


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_record(env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": env.get("python"),
        "numpy": env.get("numpy"),
        "blas": env.get("blas"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description="chronon CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds subprocess.run, which kills the running job


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chronon", "cli.py")):
        print(f"perfbench: no chronon sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reference = oracle.load_reference()
    jobs = WORKLOADS[args.workload]
    seed = args.seed % 2**32  # chronon's --seed takes a nonnegative integer
    trace = bool(args.trace)

    with Workdir(ROOT) as work:
        # Warm-up: compiles bytecode and fills the file cache; its probe is not used.
        env, _ = work.run_job(["--probe"], seed, False)
        if "probe_s" not in env:
            return 1
        work.argvs.clear()
        passes: list[dict] = []  # in the order they ran
        start = time.monotonic()
        while True:
            tag = f"p{len(passes)}"
            passes.append(run_pass(work, jobs, reference, seed, False, tag))
            if trace:
                passes.append(run_pass(work, jobs, reference, seed, True, tag + "t"))
            elapsed = time.monotonic() - start
            if elapsed * (len(passes) + 1 + trace) / len(passes) > args.seconds:
                break
        probes = [p["probe_s"] for p in passes]
        probes.append(work.run_job(["--probe"], seed, False, "last.probe")[0]["probe_s"])
        argvs = work.argvs
    for p, before, after in zip(passes, probes, probes[1:]):
        p["speed_probe_s"] = (before + after) / 2  # the probes either side of the pass
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print(f"FAIL {' '.join(f['job'])}: {'; '.join(f['errors'])}", file=sys.stderr)
    measured = [p for p in plain if p["setups"]]
    if not measured:
        print("perfbench: no job produced a measurement", file=sys.stderr)
        return 1
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m.get(name, 0.0) for m in per_pass)
                  for name in set().union(*per_pass)}
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        wanted = spec["per_layer"]
        # Spans nest strictly, so the layer self times must add up to the traced wall.
        gap = max(abs(sum(m.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS)
                      - m["trace.wall_s"]) for m in per_pass)
        print(f"layer self times add up to trace.wall_s within {gap:.1e} s")
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] * PROBE_REF_S / p["speed_probe_s"]
                                        for p in measured),
            "setup_s": statistics.median(s * PROBE_REF_S / p["speed_probe_s"]
                                         for p in measured for s in p["setups"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in measured),
            "pass_frac": 1.0 - len(failures) / attempted,
        }
        print(f"as measured: wall {statistics.median(p['wall_s'] for p in measured):.4f} s, "
              f"setup {statistics.median(s for p in measured for s in p['setups']):.4f} s, "
              f"probe {statistics.median(probes):.4f} s (reference {PROBE_REF_S} s)")
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "job_seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(env),
        "job_argv": argvs,
        "passes": [{k: v for k, v in p.items() if k not in ("layers", "dumps")}
                   for p in passes],
        "metrics": metrics,
    }
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(traced[-1]["dumps"], fh)

    print(f"workload {args.workload}, seed {args.seed}, {len(plain)} passes"
          f"{' (+ traced)' if trace else ''}, {attempted} jobs, {len(failures)} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
