"""One benchmark job: a fresh interpreter that imports chronon and calls main once.

Usage: python3 perfbench/job.py RECORD TRACE JOB_ID -- CHRONON_ARGS...

RECORD is the JSON file the job writes its measurements to; TRACE is 1 to
wrap chronon's layers with spans and counters (see tracing.py) after the
import is timed, 0 to run untouched; JOB_ID names the job in the trace.  With
``--probe`` in place of the chronon arguments the job runs no chronon code:
it times ``speed_probe()`` and records the Python, numpy and BLAS versions.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import chronon.cli  # noqa: E402  (the import is what setup_s times)

IMPORTED = time.monotonic()


def speed_probe() -> float:
    """Seconds for fixed numpy work shaped like chronon's two hot paths.

    4x4 complex commutators and norms in a Python loop (the normalization
    search) and exact evolution plus an FFT derivative of a 1024x4 spinor
    field (the position series).  It runs none of chronon's code, so it
    measures how fast the machine runs at the moment.
    """
    import numpy as np

    a = np.arange(16, dtype=complex).reshape(4, 4)
    b = a.T.copy()
    amps = np.ones((1024, 4), dtype=complex)
    k = np.linspace(-3.0, 3.0, 1024)
    e = np.sqrt(1.0 + k**2)
    start = time.perf_counter()
    for _ in range(24000):
        np.linalg.norm(a @ b - b @ a)
    for t in np.linspace(0.0, 50.0, 1200):
        phase = e * t
        evolved = np.cos(phase)[:, None] * amps - 1j * np.sin(phase)[:, None] * amps
        deriv = np.fft.ifft(1j * k[:, None] * np.fft.fft(evolved, axis=0), axis=0)
        np.sum(np.conj(evolved) * deriv)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    import json
    import platform
    import resource

    record_path, trace, job_id, sep, *chronon_argv = argv
    if sep != "--":
        raise SystemExit("usage: job.py RECORD TRACE JOB_ID -- CHRONON_ARGS...")
    src = os.path.realpath(SRC)
    if not os.path.realpath(chronon.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"chronon imported from {chronon.cli.__file__}, not from {src}")
    record = {"imported": IMPORTED}
    if chronon_argv[:1] == ["--probe"]:
        import numpy
        record["probe_s"] = speed_probe()
        record["python"] = platform.python_version()
        record["numpy"] = numpy.__version__
        record["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas")
    else:
        tracer = None
        if trace == "1":
            import tracing
            tracer = tracing.Tracer(job_id)
            tracer.install()
        start = time.perf_counter()
        try:
            rc = chronon.cli.main(chronon_argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        record["wall_s"] = time.perf_counter() - start
        record["rc"] = rc
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            record["trace"] = tracer.dump()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
