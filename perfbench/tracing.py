"""Spans and counters wrapped around chronon's public functions from outside.

``Tracer.install()`` replaces every public function of the traced layers with
a wrapper, on each name a caller looks the function up by: module
attributes, names imported with ``from ... import``, and the runner table in
``chronon.cli``.  Most wrappers record a span (name, start, end, parent);
functions called thousands of times per job only count calls, so the trace
costs little.  Spans stay in memory; ``Tracer.dump()`` returns them when the
job ends and ``summarize()`` turns one job's dump into per-layer metrics.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of all spans
of a job add up to the duration of its root span, ``cli.main``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("gamma_algebra", "snyder_rep", "dirac_dynamics", "reporting", "cli")

# Called thousands of times per job: counted, never spanned.  Their time
# lands in the self time of the span that called them.
COUNT_ONLY = {
    "dirac_dynamics.evolve",
    "dirac_dynamics.expect_position",
    "dirac_dynamics.position_expectation",
    "dirac_dynamics.mode_energy",
    "snyder_rep.spectral_derivative",
    "reporting.fmt_number",
}

SEARCH = "gamma_algebra.solve_normalization"
# A mode is in a packet's support when its amplitude exceeds this share of the peak.
SUPPORT_THRESHOLD = 1e-18
# Computed, not measured: each FFT element is read and written once as complex128.
BYTES_PER_FFT_ELEMENT = 2 * 16


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Span and count recorder for one job (one process)."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (name, innermost open span) -> calls
        self.fft_elements = 0
        self.packets: list = []  # init_packet results, kept for support_frac
        self.modes: dict[int, str] = {}  # id(packet) -> packet mode

    def _span(self, name: str, fn, label=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [label(args) if label else name, 0.0, 0.0,
                   stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count(self, name: str, fn, on_call=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, spans[stack[-1]][0] if stack else ""] += 1
            if on_call:
                on_call(args)
            return fn(*args, **kwargs)
        return wrapper

    def _add_fft_elements(self, args) -> None:
        self.fft_elements += 2 * args[0].size  # one forward, one inverse FFT

    def _init_packet(self, fn):
        sig = inspect.signature(fn)
        inner = self._span("dirac_dynamics.init_packet", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            packet = inner(*args, **kwargs)
            self.packets.append(packet)
            self.modes[id(packet)] = sig.bind(*args, **kwargs).arguments.get("mode", "mixed")
            return packet
        return wrapper

    def _series_label(self, args) -> str:
        return "dirac_dynamics.position_series." + self.modes.get(id(args[0]), "unknown")

    def _wrap(self, name: str, fn):
        if name == "dirac_dynamics.init_packet":
            return self._init_packet(fn)
        if name == "dirac_dynamics.position_series":
            return self._span(name, fn, self._series_label)
        if name == "snyder_rep.spectral_derivative":
            return self._count(name, fn, self._add_fft_elements)
        if name in COUNT_ONLY:
            return self._count(name, fn)
        return self._span(name, fn)

    def install(self) -> None:
        """Wrap the traced layers of the already imported ``chronon`` package."""
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            for attr, obj in vars(sys.modules["chronon." + layer]).items():
                if not attr.startswith("_") and inspect.isfunction(obj) \
                        and _layer_of(obj) == layer:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name != "chronon" and not name.startswith("chronon."):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                if id(obj) in wrapped:
                    ns[attr] = wrapped[id(obj)]
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in obj.items():  # runner tables such as cli.RUNNERS
                        if id(val) in wrapped:
                            obj[key] = wrapped[id(val)]
        ga = vars(sys.modules["chronon.gamma_algebra"])
        for attr, obj in list(ga.items()):
            if inspect.isfunction(obj) and _layer_of(obj) == "matrix_core":
                ga[attr] = self._count("matrix_core." + attr, obj)
        report_cls = sys.modules["chronon.reporting"].Report
        report_cls.render = self._span("reporting.render", report_cls.render)

    def dump(self) -> dict:
        """The job's spans and counts, plus the support share of each packet."""
        import numpy as np  # jobs only: the benchmark process never loads numpy or BLAS

        support = []
        for packet in self.packets:
            amp = np.sqrt(np.sum(np.abs(packet.amps) ** 2, axis=1))
            support.append(float(np.mean(amp > SUPPORT_THRESHOLD * amp.max())))
        counts = {f"{name}<{parent}": n for (name, parent), n in self.counts.items()}
        return {"job": self.job_id, "spans": self.spans, "counts": counts,
                "fft_elements": self.fft_elements, "support_frac": support}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(dump: dict) -> Counter:
    """Per-layer sums for one traced job: self times in s, exact counts.

    Keys are ``<span>.self_s`` and ``<span>.calls`` for every span name,
    ``<layer>.self_s`` for each layer (these add up to ``trace.wall_s``),
    ``<counted function>.calls``, and the workload properties
    ``gamma_algebra.matrix_core.calls``, ``gamma_algebra.residual_evals``,
    ``gamma_algebra.searches``, ``snyder_rep.fft_elements``,
    ``snyder_rep.bytes_computed``, ``dirac_dynamics.packets`` and
    ``dirac_dynamics.support_frac_sum``.
    """
    spans = dump["spans"]
    out: Counter = Counter()
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        out[name + ".self_s"] += own
        out[name.split(".", 1)[0] + ".self_s"] += own
        out[name + ".calls"] += 1
        if parent < 0:
            out["trace.wall_s"] += end - start
        elif name == "gamma_algebra.verify_lorentz_algebra" and spans[parent][0] == SEARCH:
            out["gamma_algebra.residual_evals"] += 1  # one per kappa_t residual evaluation
    out["gamma_algebra.searches"] = out[SEARCH + ".calls"]
    for key, n in dump["counts"].items():
        name, _, parent = key.partition("<")
        if name.startswith("matrix_core."):
            out["gamma_algebra.matrix_core.calls"] += n
            if name == "matrix_core.commutator" and parent == SEARCH:
                out["gamma_algebra.residual_evals"] += n  # one per kappa residual evaluation
        else:
            out[name + ".calls"] += n
    out["snyder_rep.fft_elements"] = dump["fft_elements"]
    out["snyder_rep.bytes_computed"] = BYTES_PER_FFT_ELEMENT * dump["fft_elements"]
    out["dirac_dynamics.packets"] = len(dump["support_frac"])
    out["dirac_dynamics.support_frac_sum"] = sum(dump["support_frac"])
    return out
