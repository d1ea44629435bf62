"""Free Dirac wave packets in momentum space and their Zitterbewegung.

One spatial dimension (momentum along z) with full 4-spinors.  Evolution is
exact per momentum mode through the closed-form propagator
exp(-i H t/hbar) = cos(E t/hbar) I - i sin(E t/hbar) H/E, so every measured
frequency and amplitude reflects the dynamics, not an integrator.  The
position expectation is taken directly in momentum space via the spectral
derivative.  A whole time series of it comes from the Heisenberg-picture
solution x(t) = x(0) + c^2 p H^-1 t + Zitterbewegung term, one weight and one
frequency 2E/hbar per mode (``position_series``), with no per-time evolution;
``evolve`` and ``expect_position`` are the reference it is checked against.
"""

from __future__ import annotations

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
    e = mode_energy(p, params)
    if not np.all(np.isfinite(e) & (e > 0)):
        raise ValueError("every mode energy must be positive and finite; "
                         "mass and c are out of floating-point range")
    envelope = np.exp(-((p - p0) ** 2) / (4 * sigma_p**2))
    seed = np.asarray(spinor_seed, dtype=complex)
    if seed.shape != (4,):
        raise ValueError("spinor_seed must have 4 components")
    amps = envelope[:, None] * seed[None, :]
    if mode != "mixed":
        sign = 1.0 if mode == "positive" else -1.0
        h_amps = _apply_hamiltonian(amps, p, params)
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


# Rows and columns of one block of the time grid: each block of _BLOCK**2
# times is one (_BLOCK x s) @ (s x _BLOCK) complex product over s modes, so
# memory stays flat in the number of times.
_BLOCK = 16


def _zb_weights(field: SpinorMomentumField):
    """(v, omega, weights) with <x>(t) = <x>(0) + v t + Re sum weights (e^{i omega t} - 1).

    In the Heisenberg picture x(t) = x(0) + c^2 p H^-1 t + Z (e^{-2iHt/hbar} - 1)
    with Z = (i hbar c / 2)(alpha_z - c p H^-1) H^-1, whose operator norm at
    p = 0 is hbar/(2 m c).  Z is Hermitian and odd under the energy projectors,
    so mode p contributes weight 2 a_+^dag Z a_- dp = -(i hbar c / E) a_+^dag
    alpha_z a_- dp at omega = 2 E/hbar: a positive- or negative-projected
    packet has no Zitterbewegung.  v is the expectation of c^2 p H^-1.
    """
    params, dp = field.params, field.grid.dp
    p = field.grid.points
    e = mode_energy(p, params)
    h_amps = _apply_hamiltonian(field.amps, p, params)
    # H^-1 = H / E^2 since H^2 = E^2.
    v = np.sum(np.conj(field.amps) * (params.c**2 * p / e**2)[:, None] * h_amps).real * dp
    plus = (field.amps + h_amps / e[:, None]) / 2
    minus = field.amps - plus
    weights = (-1j * params.hbar * params.c * dp / e) * np.sum(
        np.conj(plus) * (minus @ ALPHA[2]), axis=1)
    return float(v), 2 * e / params.hbar, weights


def position_series(field: SpinorMomentumField, t_max: float,
                    n_samples: int) -> TimeSeries:
    """<x>(t) sampled uniformly on [0, t_max], in closed form for all times at once.

    <x>(t) = <x>(0) + v t + Re sum_p C_p (e^{i omega_p t} - 1), with (v, omega,
    C) from ``_zb_weights`` and <x>(0) from ``expect_position``.  Times are
    t = (i _BLOCK + k) dt, so e^{i omega t} factors into a row
    e^{i omega i _BLOCK dt} times a fixed _BLOCK-column table e^{i omega k dt},
    and each block of _BLOCK rows is one complex matrix product.

    The formula holds on the whole line, while ``expect_position`` measures on
    the periodic position box of the grid, so the last value is checked
    against ``expect_position(evolve(field, t))``: a gap above 1e-9 (relative
    beyond |<x>| = 1) means the packet wraps around the box and raises
    ValueError.
    """
    # 2 samples per oscillation period with a 4x safety factor.
    required = np.ceil(4 * 2 * t_max * zb_frequency(field.params) / (2 * np.pi))
    if n_samples < required:
        raise ValueError(f"n_samples={n_samples} undersamples the oscillation; "
                         f"need >= {required:g}")
    times = np.linspace(0.0, t_max, n_samples if t_max > 0 else 1)
    dt = t_max / max(len(times) - 1, 1)
    v, omega, weights = _zb_weights(field)
    offset = expect_position(field) - weights.sum().real
    # A mode whose weight is exactly 0 (the envelope underflows there) adds
    # exactly nothing, so the tables and products skip it.
    live = weights != 0
    omega, weights = omega[live], weights[live]
    step = np.exp(1j * np.outer(omega, np.arange(_BLOCK) * dt))
    zb = np.empty(((len(times) + _BLOCK - 1) // _BLOCK, _BLOCK), dtype=complex)
    for start in range(0, len(zb), _BLOCK):
        rows = np.arange(start, min(start + _BLOCK, len(zb))) * (_BLOCK * dt)
        np.matmul(weights * np.exp(1j * np.outer(rows, omega)), step,
                  out=zb[start:start + len(rows)])
    values = offset + v * times + zb.real.ravel()[:len(times)]
    reference = expect_position(evolve(field, times[-1]))
    if abs(values[-1] - reference) > 1e-9 * max(1.0, abs(reference)):
        raise ValueError(f"the packet wraps around the position box by t={times[-1]:g} "
                         f"(<x> {values[-1]:.6g} on the line, {reference:.6g} on the "
                         f"grid); raise --grid-n or lower --t-max")
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
        raise ValueError(f"window {window:g} needs {k:g} samples but the series has "
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


def _median(values: np.ndarray) -> np.float64:
    """``np.median`` of a non-empty 1-D float array, bit for bit, NaN included.

    The same partition and mean of the middle order statistics.  The NaN check is done
    here because ``np.median``'s own imports ``numpy.ma`` (about 12 ms) on first use.
    """
    n = len(values)
    middle = slice((n - 1) // 2, n // 2 + 1)
    part = np.partition(values, [middle.start, -1] if n % 2 else [middle.start, n // 2, -1])
    return part[-1] if np.isnan(part[-1]) else np.mean(part[middle])


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
    if spec[peak] < 3 * _median(bins) or np.sqrt(np.mean(resid**2)) <= 1e-12 * scale:
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
