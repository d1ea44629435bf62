"""Free Dirac wave packets in momentum space and their Zitterbewegung.

One spatial dimension (momentum along z) with full 4-spinors.  Evolution is
exact per momentum mode through the closed-form propagator
exp(-i H t/hbar) = cos(E t/hbar) I - i sin(E t/hbar) H/E, so every measured
frequency and amplitude reflects the dynamics, not an integrator.  The
position expectation is taken directly in momentum space via the spectral
derivative; a whole time series of it comes from the same propagator in
closed form (``position_series``), with no per-time evolution.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from chronon.gamma_algebra import ALPHA, BETA, PhysicalParams
from chronon.snyder_rep import GridSpec1D, spectral_derivative


def mode_energy(p, params: PhysicalParams):
    return np.sqrt((params.c * np.asarray(p, dtype=float)) ** 2
                   + (params.m * params.c**2) ** 2)


def _apply_hamiltonian(amps: np.ndarray, p: np.ndarray, params: PhysicalParams) -> np.ndarray:
    # amps rows are spinors; alpha_z and beta are symmetric, so right-multiply works.
    return (params.c * p[:, None]) * (amps @ ALPHA[2]) + params.m * params.c**2 * (amps @ BETA)


@dataclass(frozen=True)
class SpinorMomentumField:
    """4-component complex amplitudes on a 1-D momentum grid."""

    grid: GridSpec1D
    amps: np.ndarray  # shape (n, 4)
    params: PhysicalParams

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2) * self.grid.dp))


def init_packet(grid: GridSpec1D, params: PhysicalParams, p0: float, sigma_p: float,
                mode: str = "mixed", spinor_seed=(1.0, 0.0, 1.0, 0.0)) -> SpinorMomentumField:
    """Gaussian envelope times a constant spinor, optionally energy-projected.

    mode is one of "mixed", "positive", "negative"; the projected modes apply
    Lambda_plus / Lambda_minus mode-by-mode before normalizing to unit norm.
    """
    # sigma_p >= 2*dp keeps the envelope's spectrum below 1e-16 at the
    # Nyquist point of the dual (position) grid, so no aliasing.
    if sigma_p < 2 * grid.dp:
        raise ValueError(f"sigma_p must be >= 2*dp = {2 * grid.dp:g}")
    if abs(p0) + 6 * sigma_p > grid.p_max:
        raise ValueError("packet support exceeds the boundary-safe envelope")
    if mode not in ("mixed", "positive", "negative"):
        raise ValueError(f"unknown packet mode {mode!r}")
    p = grid.points
    envelope = np.exp(-((p - p0) ** 2) / (4 * sigma_p**2))
    seed = np.asarray(spinor_seed, dtype=complex)
    if seed.shape != (4,):
        raise ValueError("spinor_seed must have 4 components")
    amps = envelope[:, None] * seed[None, :]
    if mode != "mixed":
        sign = 1.0 if mode == "positive" else -1.0
        h_amps = _apply_hamiltonian(amps, p, params)
        e = mode_energy(p, params)
        amps = (amps + sign * h_amps / e[:, None]) / 2
    total = np.sqrt(np.sum(np.abs(amps) ** 2) * grid.dp)
    if total < 1e-14:
        raise ValueError("projection annihilated the packet; choose another spinor seed")
    return SpinorMomentumField(grid=grid, amps=amps / total, params=params)


def evolve(field: SpinorMomentumField, t: float) -> SpinorMomentumField:
    """Exact evolution by exp(-i H(p) t / hbar) applied mode-by-mode."""
    p = field.grid.points
    e = mode_energy(p, field.params)
    phase = e * t / field.params.hbar
    h_amps = _apply_hamiltonian(field.amps, p, field.params)
    amps = (np.cos(phase)[:, None] * field.amps
            - 1j * np.sin(phase)[:, None] * h_amps / e[:, None])
    return SpinorMomentumField(grid=field.grid, amps=amps, params=field.params)


def position_expectation(field: SpinorMomentumField) -> complex:
    """<psi| i hbar d/dp |psi>; the imaginary part is a boundary-safety diagnostic."""
    deriv = spectral_derivative(field.amps, field.grid, axis=0)
    val = np.sum(np.conj(field.amps) * (1j * field.params.hbar * deriv)) * field.grid.dp
    return complex(val)


def expect_position(field: SpinorMomentumField) -> float:
    return position_expectation(field).real


def expect_energy(field: SpinorMomentumField) -> float:
    h_amps = _apply_hamiltonian(field.amps, field.grid.points, field.params)
    return float(np.real(np.sum(np.conj(field.amps) * h_amps)) * field.grid.dp)


def zb_decomposition(field: SpinorMomentumField, t: float) -> tuple[float, complex]:
    """(drift_rate, zb_offset) of the evolved state.

    drift_rate is the expectation of c^2 p H^-1; zb_offset that of
    (i hbar c / 2)(alpha_z - c p H^-1) H^-1, whose operator norm at p = 0 is
    hbar/(2 m c).  Positive- or negative-projected states give zb_offset = 0
    because the operator is odd under the energy projectors.
    """
    params = field.params
    if params.m <= 0:
        raise ValueError("zb_decomposition requires m > 0 (H(0) would be singular)")
    evolved = evolve(field, t)
    p = field.grid.points
    e = mode_energy(p, params)
    h_amps = _apply_hamiltonian(evolved.amps, p, params)
    # H^-1 = H / E^2 since H^2 = E^2.
    drift = np.sum(np.conj(evolved.amps) * (params.c**2 * p / e**2)[:, None] * h_amps) * field.grid.dp
    # (alpha - c p H^-1) H^-1 psi = alpha (H psi)/E^2 - c p psi / E^2  (H^2 = E^2)
    zb_apply = ((h_amps @ ALPHA[2]) - (params.c * p)[:, None] * evolved.amps) / e[:, None] ** 2
    zb = (1j * params.hbar * params.c / 2) * np.sum(np.conj(evolved.amps) * zb_apply) * field.grid.dp
    return float(np.real(drift)), complex(zb)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real observable."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size >= 2:
            dt = np.diff(t)
            if np.any(dt <= 0) or not np.allclose(dt, dt[0], rtol=1e-9, atol=0):
                raise ValueError("times must be strictly increasing and uniform")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def zb_frequency(params: PhysicalParams) -> float:
    """Interference (Zitterbewegung) angular frequency 2 m c^2 / hbar."""
    return 2 * params.m * params.c**2 / params.hbar


# Modes whose spinor norm is at most this share of the peak are left out of a
# narrow packet's series; free evolution keeps each mode's norm, so the
# support found at t = 0 holds at every time.
_SUPPORT_CUT = 1e-18
# Upper bound on the complex elements of one time chunk of the series.
_CHUNK_ELEMENTS = 2**13
# A wide series runs its time chunks on at most this many cores at once.
_MAX_SHARES = 2


def _support(amps: np.ndarray) -> slice:
    """Contiguous range of modes whose spinor norm exceeds _SUPPORT_CUT * max."""
    norm = np.sqrt(np.sum(np.abs(amps) ** 2, axis=1))
    inside = np.flatnonzero(norm > _SUPPORT_CUT * norm.max())
    return slice(int(inside[0]), int(inside[-1]) + 1)


def _cos_sin_split(field: SpinorMomentumField, modes: slice = slice(None)):
    """(E, u, w) with evolve(field, t).amps = cos(E t/hbar) u + sin(E t/hbar) w."""
    p = field.grid.points[modes]
    e = mode_energy(p, field.params)
    u = field.amps[modes]
    w = -1j * _apply_hamiltonian(u, p, field.params) / e[:, None]
    return e, u, w


def _time_chunks(n_times: int, width: int):
    """Slices of at most _CHUNK_ELEMENTS // width times (at least one)."""
    step = max(1, _CHUNK_ELEMENTS // width)
    for start in range(0, n_times, step):
        yield slice(start, min(start + step, n_times))


def _series_narrow(field: SpinorMomentumField, times: np.ndarray,
                   support: slice) -> np.ndarray:
    """<x>(t) as the real bilinear form v(t)^T B v(t), v = [cos(E t/hbar), sin(E t/hbar)].

    B holds the four real s x s blocks Re(M o (u^* u^T)), Re(M o (u^* w^T)),
    Re(M o (w^* u^T)) and Re(M o (w^* w^T)), where M = i hbar dp D is the
    spectral derivative restricted to the support.  D is circulant, so M is
    read off its first column ifft(i k).  Costs s^2 per time for a support of
    s modes.
    """
    grid, hbar = field.grid, field.params.hbar
    e, u, w = _cos_sin_split(field, support)
    s = len(e)
    col = (1j * hbar * grid.dp) * np.fft.ifft(1j * grid.wavenumbers)
    j = np.arange(s)
    m = col[np.subtract.outer(j, j) % grid.n]
    form = np.empty((2 * s, 2 * s))
    block = np.empty_like(m)
    for rows, left in ((slice(0, s), u), (slice(s, 2 * s), w)):
        for cols, right in ((slice(0, s), u), (slice(s, 2 * s), w)):
            np.matmul(left.conj(), right.T, out=block)
            block *= m
            form[rows, cols] = block.real
    values = np.empty(len(times))
    for chunk in _time_chunks(len(times), s):
        phase = times[chunk, None] * e / hbar
        v = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
        values[chunk] = np.sum((v @ form) * v, axis=1)
    return values


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_buffers(rows: int, components: int, modes: int) -> tuple:
    """Phase, cos, sin, spectrum, sin term, |re|^2, |im|^2 and power of one share."""
    phase = np.empty((rows, 1, modes))
    spec = np.empty((rows, components, modes), dtype=complex)
    return (phase, np.empty_like(phase), np.empty_like(phase), spec, np.empty_like(spec),
            np.empty(spec.shape), np.empty(spec.shape), np.empty((rows, modes)))


def _wide_share(chunks, buffers, times, e, hbar, u, w, k, scale, values) -> None:
    """Fill values[chunk] for each chunk, reusing one share's buffers.

    Each step is the serial per-chunk expression written with out= and
    in-place operations in the same operand order, so the values keep their
    bits.
    """
    phase, cos, sin, spec, term, sq_re, sq_im, power = buffers
    for chunk in chunks:
        r = chunk.stop - chunk.start
        ph, a, b = phase[:r], spec[:r], term[:r]
        np.multiply(times[chunk, None, None], e, out=ph)
        ph /= hbar
        np.multiply(np.cos(ph, out=cos[:r]), u, out=a)
        np.multiply(np.sin(ph, out=sin[:r]), w, out=b)
        a += b
        np.fft.fft(a, out=a)
        sq = np.square(a.real, out=sq_re[:r])
        sq += np.square(a.imag, out=sq_im[:r])
        values[chunk] = scale * (np.sum(sq, axis=1, out=power[:r]) @ k)


def _series_wide(field: SpinorMomentumField, times: np.ndarray) -> np.ndarray:
    """<x>(t) = -(hbar dp / n) sum_k k |fft(a(t))_k|^2 (Parseval), one FFT per time.

    Costs n log n per time on an n-mode grid, whatever the packet's support.
    Spinor components that are zero in both u and w stay zero and are skipped.
    The time chunks are split into up to _MAX_SHARES contiguous shares, one
    per usable core: the calling thread works the first and a worker thread
    each other one, each with its own chunk buffers, so memory stays flat in
    the number of times.  Chunks and their arithmetic are the serial ones, so
    the values do not depend on the share count.
    """
    grid, hbar = field.grid, field.params.hbar
    e, u, w = _cos_sin_split(field)
    live = np.any(u != 0, axis=0) | np.any(w != 0, axis=0)
    u, w = u[:, live].T, w[:, live].T  # (components, modes): FFT along the last axis
    scale = -hbar * grid.dp / grid.n
    k = grid.wavenumbers
    values = np.empty(len(times))
    chunks = list(_time_chunks(len(times), u.size))
    n_shares = min(_MAX_SHARES, _usable_cores(), len(chunks))
    shares = [chunks[len(chunks) * i // n_shares:len(chunks) * (i + 1) // n_shares]
              for i in range(n_shares)]
    rows = chunks[0].stop - chunks[0].start
    buffers = [_chunk_buffers(rows, *u.shape) for _ in shares]
    args = (times, e, hbar, u, w, k, scale, values)
    errors = []

    def work(share, share_buffers):
        try:
            _wide_share(share, share_buffers, *args)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    workers = [threading.Thread(target=work, args=pair)
               for pair in zip(shares[1:], buffers[1:])]
    for worker in workers:
        worker.start()
    try:
        _wide_share(shares[0], buffers[0], *args)
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    return values


def position_series(field: SpinorMomentumField, t_max: float,
                    n_samples: int) -> TimeSeries:
    """<x>(t) sampled uniformly on [0, t_max], in closed form for all times at once.

    Free evolution is diagonal in p, a(t) = cos(E t/hbar) u + sin(E t/hbar) w
    with w = -i H u / E, so <x>(t) needs no per-time ``evolve``.  A packet
    whose support (the contiguous modes above 1e-18 of the peak spinor norm)
    spans s of n modes takes the s x s bilinear form when s^2 <= n log2 n and
    one batched FFT per time otherwise.  Times are processed in chunks of at
    most 2^13 complex elements, so memory stays flat in ``n_samples``; the
    FFT path reuses one set of chunk buffers per share of the chunks and
    works up to two shares at once, on the calling thread and one worker
    thread, with the same values as one serial loop.
    ``expect_position(evolve(field, t))`` is the reference this matches.
    """
    if t_max == 0:
        return TimeSeries(times=np.array([0.0]),
                          values=np.array([expect_position(field)]))
    # 2 samples per oscillation period with a 4x safety factor.
    required = np.ceil(4 * 2 * t_max * zb_frequency(field.params) / (2 * np.pi))
    if n_samples < required:
        raise ValueError(f"n_samples={n_samples} undersamples the oscillation; "
                         f"need >= {required:.0f}")
    times = np.linspace(0.0, t_max, n_samples)
    support = _support(field.amps)
    s, n = support.stop - support.start, field.grid.n
    if s * s <= n * np.log2(n):
        values = _series_narrow(field, times, support)
    else:
        values = _series_wide(field, times)
    return TimeSeries(times=times, values=values)


def window_samples(dt: float, window: float) -> int:
    """Odd sample count realizing ``window``; the effective window is k*dt."""
    k = int(round(window / dt))
    if k % 2 == 0:
        k += 1 if abs((k + 1) * dt - window) < abs((k - 1) * dt - window) else -1
    return max(k, 3)


def sliding_average(series: TimeSeries, window: float) -> TimeSeries:
    """Centered top-hat moving average over ``window`` time units.

    The sample count is rounded to the nearest odd integer so the window is
    exactly centered; the output is shortened by half a window at each end.
    A sinusoid at angular frequency w is attenuated by |sinc(w*window/2)|.
    """
    dt = series.dt
    if window < 2 * dt:
        raise ValueError("window must span at least 2 sample intervals")
    k = window_samples(dt, window)
    if k > len(series.values):
        span = series.times[-1] - series.times[0]
        raise ValueError(f"window {window:g} needs {k} samples but the series has "
                         f"{len(series.values)} (span {span:g})")
    half = (k - 1) // 2
    values = np.convolve(series.values, np.full(k, 1.0 / k), mode="valid")
    times = series.times[half:len(series.times) - half]
    return TimeSeries(times=times, values=values)


@dataclass(frozen=True)
class OscillationMeasurement:
    omega: float
    amplitude: float
    detected: bool


def _sinusoid_fit(times: np.ndarray, values: np.ndarray, omega: float) -> float:
    """Amplitude of the best-fit a + b t + A cos(wt) + B sin(wt)."""
    design = np.column_stack([np.ones_like(times), times,
                              np.cos(omega * times), np.sin(omega * times)])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    return float(np.hypot(coeffs[2], coeffs[3]))


def amplitude_at(series: TimeSeries, omega: float) -> float:
    """Oscillation amplitude at a fixed angular frequency (trend removed)."""
    return _sinusoid_fit(series.times, series.values, omega)


def measure_oscillation(series: TimeSeries) -> OscillationMeasurement:
    """Dominant oscillation after removing the linear trend.

    The DFT peak bin is refined by quadratic interpolation of the
    log-magnitude, then the amplitude is read off by a least-squares
    sinusoid fit at the refined frequency.  A flat spectrum (peak below 3x
    the median bin magnitude) reports no oscillation.
    """
    t, x = series.times, series.values
    if len(t) < 32:
        raise ValueError("need at least 32 samples to measure an oscillation")
    trend = np.polyval(np.polyfit(t, x, 1), t)
    resid = x - trend
    spec = np.abs(np.fft.rfft(resid))
    if len(spec) < 3:
        return OscillationMeasurement(0.0, 0.0, False)
    bins = spec[1:]
    peak = int(np.argmax(bins)) + 1
    # Significance: peak must beat 3x the median bin and the residual must
    # stand above numerical noise relative to the series scale.
    scale = max(float(np.max(np.abs(x))), 1.0)
    if spec[peak] < 3 * np.median(bins) or np.sqrt(np.mean(resid**2)) <= 1e-12 * scale:
        return OscillationMeasurement(0.0, 0.0, False)
    # Quadratic refinement on log magnitude (guarded against zero neighbours).
    delta = 0.0
    if 1 <= peak < len(spec) - 1 and spec[peak - 1] > 0 and spec[peak + 1] > 0:
        lm, lc, lp = np.log(spec[peak - 1]), np.log(spec[peak]), np.log(spec[peak + 1])
        denom = lm - 2 * lc + lp
        if denom < 0:
            delta = 0.5 * (lm - lp) / denom
    omega = 2 * np.pi * (peak + delta) / (len(t) * series.dt)
    return OscillationMeasurement(omega=omega,
                                  amplitude=_sinusoid_fit(t, x, omega),
                                  detected=True)


def zb_operator_norm_at_rest(params: PhysicalParams) -> float:
    """Operator norm of the Zitterbewegung matrix at p = 0: hbar/(2 m c)."""
    return params.hbar / (2 * params.m * params.c)
