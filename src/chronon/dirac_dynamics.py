"""Free Dirac wave packets in momentum space and their Zitterbewegung.

In Compton units (hbar = c = m = 1), H(p) = alpha_z p + beta.  One spatial
dimension (momentum along z) with full 4-spinors.  Evolution is exact per
momentum mode through the closed-form propagator
exp(-i H t) = cos(E t) I - i sin(E t) H/E, so every measured frequency and
amplitude reflects the dynamics, not an integrator.  The position expectation
is taken in momentum space, differentiating the amplitudes' float view.  A whole
time series of it comes from the Heisenberg-picture solution
x(t) = x(0) + p H^-1 t + Zitterbewegung term, one weight and one frequency 2E
per mode (``position_series``), with no per-time evolution; ``evolve`` and
``expect_position`` are the reference it is checked against.  The series sums
the phases once per distinct live frequency (modes p and -p share omega = 2E),
in blocks of 16 x 16 times from three small phase tables, on the calling
thread.  The signal analysis below ``position_series`` runs on Compton-unit
series, so its noise floor and least-squares cutoff are Compton-unit.
``OMEGA_ZB`` = 2 is the rest-frame ZB frequency; the CLI's gates and windows and the
config's sampling rule derive from it.
``RunConfig.validate`` holds every precondition closed-form in the config (a resolved
packet inside the box, enough samples, windows that fit); this layer raises ``ConfigError``
only on a packet wrapping around the position box and on a projection annihilating it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chronon.config import ConfigError
from chronon.gamma_algebra import ALPHA, BETA
from chronon.snyder_rep import GridSpec1D, spectral_derivative

OMEGA_ZB = 2.0  # the rest-frame Zitterbewegung frequency 2 m c^2/hbar: mode p rings at OMEGA_ZB E
PERIOD_WINDOW = 2 * np.pi / OMEGA_ZB  # one ZB period, pi hbar/(m c^2)
COMPTON_WINDOW = 1.0  # the Compton time hbar/(m c^2)


def mode_energy(p):
    return np.sqrt(np.asarray(p, dtype=float) ** 2 + 1.0)


def _apply_hamiltonian(amps: np.ndarray, p: np.ndarray) -> np.ndarray:
    # amps rows are spinors; alpha_z and beta are symmetric, so right-multiply works.
    return p[:, None] * (amps @ ALPHA[2]) + amps @ BETA


@dataclass(frozen=True)
class SpinorMomentumField:
    """4-component complex amplitudes on a 1-D momentum grid."""

    grid: GridSpec1D
    amps: np.ndarray  # shape (n, 4)


def init_packet(grid: GridSpec1D, p0: float, sigma_p: float, mode: str,
                spinor_seed) -> SpinorMomentumField:
    """Gaussian envelope times the direction of a 4-spinor seed, normalized to unit norm.

    mode is "mixed" or "positive"; "positive" applies Lambda_plus mode by mode
    first, and rejects a seed that loses all but 1e-14 of its norm to it.
    """
    p = grid.points
    envelope = np.exp(-((p - p0) ** 2) / (4 * sigma_p**2))
    seed = np.asarray(spinor_seed, dtype=complex).view(float)  # (Re, Im) pairs
    # Scaled in floats to a largest |Re| or |Im| of 1, so no magnitude or quotient overflows.
    amps = envelope[:, None] * (seed / np.max(np.abs(seed))).view(complex)
    if mode == "positive":
        unprojected = np.sum(np.abs(amps) ** 2)
        amps = (amps + _apply_hamiltonian(amps, p) / mode_energy(p)[:, None]) / 2
        if np.sum(np.abs(amps) ** 2) < 1e-28 * unprojected:
            raise ConfigError("projection annihilated the packet; choose another spinor seed")
    total = np.sqrt(np.sum(np.abs(amps) ** 2) * grid.dp)
    return SpinorMomentumField(grid=grid, amps=amps / total)


def evolve(field: SpinorMomentumField, t: float) -> SpinorMomentumField:
    """Exact evolution by exp(-i H(p) t) applied mode-by-mode."""
    p = field.grid.points
    e = mode_energy(p)
    phase = e * t
    h_amps = _apply_hamiltonian(field.amps, p)
    amps = (np.cos(phase)[:, None] * field.amps
            - 1j * np.sin(phase)[:, None] * h_amps / e[:, None])
    return SpinorMomentumField(grid=field.grid, amps=amps)


def expect_position(field: SpinorMomentumField) -> float:
    """Re <psi| i d/dp |psi>, the complex amplitudes differentiated as their float view."""
    deriv = spectral_derivative(field.amps.view(float), field.grid).view(complex)
    return complex(np.sum(np.conj(field.amps) * (1j * deriv)) * field.grid.dp).real


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real observable."""

    times: np.ndarray
    values: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


# Rows and columns of one block of the time grid: each block of _BLOCK**2
# times is one (_BLOCK x s) @ (s x _BLOCK) complex product over s frequencies, so
# memory stays flat in the number of times.
_BLOCK = 16


def _zb_weights(field: SpinorMomentumField):
    """(v, omega, weights) with <x>(t) = <x>(0) + v t + Re sum weights (e^{i omega t} - 1).

    In the Heisenberg picture x(t) = x(0) + p H^-1 t + Z (e^{-2iHt} - 1)
    with Z = (i/2)(alpha_z - p H^-1) H^-1, whose operator norm at p = 0 is
    1/2.  Z is Hermitian and odd under the energy projectors, so mode p
    contributes weight 2 a_+^dag Z a_- dp = -(i/E) a_+^dag alpha_z a_- dp at
    omega = 2 E: a positive- or negative-projected packet has no
    Zitterbewegung.  v is the expectation of p H^-1.
    """
    dp = field.grid.dp
    p = field.grid.points
    e = mode_energy(p)
    h_amps = _apply_hamiltonian(field.amps, p)
    # H^-1 = H / E^2 since H^2 = E^2.
    v = np.sum(np.conj(field.amps) * (p / e**2)[:, None] * h_amps).real * dp
    plus = (field.amps + h_amps / e[:, None]) / 2
    minus = field.amps - plus
    weights = (-1j * dp / e) * np.sum(np.conj(plus) * (minus @ ALPHA[2]), axis=1)
    return float(v), OMEGA_ZB * e, weights


def _phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """e^{i outer(a, b)}, exponentiated in place."""
    table = 1j * np.outer(a, b)
    return np.exp(table, out=table)


def position_series(field: SpinorMomentumField, t_max: float,
                    n_samples: int) -> TimeSeries:
    """<x>(t) sampled uniformly on [0, t_max], in closed form for all times at once.

    <x>(t) = <x>(0) + v t + Re sum_p C_p (e^{i omega_p t} - 1), with (v, omega,
    C) from ``_zb_weights`` and <x>(0) from ``expect_position``.  Times are
    t = (_BLOCK^2 J + _BLOCK j + k) dt with j, k < _BLOCK, so e^{i omega t} is the
    product of three phases, each over the distinct frequencies of the live modes
    (p and -p ring at one omega, since E(p) = E(-p), and their weights are added):
    one vector e^{i omega _BLOCK^2 J dt} per block of _BLOCK^2 times, taken with
    the weights; the _BLOCK x omega table e^{i omega _BLOCK j dt}; and the
    omega x _BLOCK table e^{i omega k dt}.  Each block is then one elementwise
    product into a reused buffer and one complex matrix product, so a series of
    n times takes (n/_BLOCK^2 + 2 _BLOCK) complex exponentials per distinct live
    frequency and memory stays flat in n.

    The formula holds on the whole line, while ``expect_position`` measures on
    the periodic position box of the grid, so the last value is checked
    against ``expect_position(evolve(field, t))``: a gap above 1e-9 (relative
    beyond |<x>| = 1), and above the roundoff of the spectral derivative, means
    the packet wraps around the box and raises ``ConfigError``.
    """
    times = np.linspace(0.0, t_max, n_samples)
    dt = t_max / (n_samples - 1)
    v, omega, weights = _zb_weights(field)
    offset = expect_position(field) - weights.sum().real
    reference = expect_position(evolve(field, times[-1]))  # before the tables take memory
    # A mode whose weight is exactly 0 (the envelope underflows there) adds
    # exactly nothing, so the tables and products skip it.
    live = weights != 0
    # E(p) = E(-p): mirrored modes ring at one omega, summed once with their weights added.
    omega, slot = np.unique(omega[live], return_inverse=True)
    w = weights[live]
    weights = np.bincount(slot, w.real) + 1j * np.bincount(slot, w.imag)
    ticks = np.arange(_BLOCK) * dt
    step, rows = _phases(omega, ticks), _phases(ticks * _BLOCK, omega)
    # Whole blocks only: the last block's sums past t_max are computed and sliced off.
    zb = np.empty((-(-len(times) // _BLOCK**2) * _BLOCK, _BLOCK), dtype=complex)
    factors = np.empty_like(rows)
    for start in range(0, len(zb), _BLOCK):
        np.multiply(rows, weights * np.exp(1j * (start * _BLOCK * dt) * omega), out=factors)
        np.matmul(factors, step, out=zb[start:start + _BLOCK])
    del step, rows, factors  # freed before the output arrays are summed
    values = offset + v * times + zb.real.ravel()[:len(times)]
    gap = abs(values[-1] - reference)
    # The box is 2 pi/dp Compton wavelengths.  <x> takes the spectral derivative, whose
    # largest wavenumber pi/dp turns one rounding of the spectrum into eps pi/dp of
    # position, so gaps below a few of those, 4 eps pi/dp, are roundoff.
    roundoff = 4 * np.finfo(float).eps * np.pi / field.grid.dp
    if gap > max(1e-9 * max(1.0, abs(reference)), roundoff):
        raise ConfigError(f"the packet wraps around the position box by the last sample (<x> "
                          f"off by {gap * field.grid.dp / (2 * np.pi):.3g} box lengths); "
                          f"raise --grid-n or lower --t-max")
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
    Each mean is a difference of running sums (S[i+k] - S[i])/k, so the cost is
    linear in the samples whatever the window.  The sums are taken in
    ``np.longdouble``, whose extra bits absorb the cancellation; on a platform
    where it is float64, a few cells can move in the 9th digit at >= 2^18 samples.
    """
    k = window_samples(series.dt, window)
    half = (k - 1) // 2
    sums = np.cumsum(np.concatenate(([0.0], series.values)), dtype=np.longdouble)
    values = ((sums[k:] - sums[:-k]) / k).astype(float)
    times = series.times[half:len(series.times) - half]
    return TimeSeries(times=times, values=values)


def noise_floor(series: TimeSeries) -> float:
    """1e-12 of the series' scale, max(1, max |x|): an oscillation at or below it is roundoff."""
    return 1e-12 * max(float(np.max(np.abs(series.values))), 1.0)


def amplitude_at(series: TimeSeries, omega: float) -> float:
    """Oscillation amplitude at a fixed angular frequency (trend removed): sqrt(A^2 + B^2) of
    the least-squares a + b t + A cos(omega t) + B sin(omega t)."""
    t = series.times
    design = np.column_stack([np.ones_like(t), t, np.cos(omega * t), np.sin(omega * t)])
    coeffs, *_ = np.linalg.lstsq(design, series.values, rcond=None)
    return float(np.hypot(coeffs[2], coeffs[3]))


def measure_oscillation(series: TimeSeries) -> tuple[float, float]:
    """(omega, amplitude) of the dominant oscillation after removing the linear trend.

    The DFT peak bin, from bin 2 up, is refined by quadratic interpolation of the
    log-magnitude, then the amplitude is read off by a least-squares
    sinusoid fit at the refined frequency.  A flat spectrum (peak below 3x the median bin
    magnitude) or a residual at the noise floor gives (0.0, 0.0); a found omega is > 0, as
    the peak bin is >= 1 and the refinement moves it by at most half a bin.
    """
    t, x = series.times, series.values
    resid = x - np.polyval(np.polyfit(t, x, 1), t)
    spec = np.abs(np.fft.rfft(resid))
    bins = spec[1:]
    peak = int(np.argmax(bins)) + 1
    # Significance: peak must beat 3x the median bin (the middle two's mean, as np.median
    # takes it, without importing numpy.ma) and the residual must stand above the noise floor.
    lo, hi = (len(bins) - 1) // 2, len(bins) // 2
    median = np.mean(np.partition(bins, [lo, hi])[lo:hi + 1])
    if spec[peak] < 3 * median or np.sqrt(np.mean(resid**2)) <= noise_floor(series):
        return 0.0, 0.0
    # Quadratic refinement on log magnitude (guarded against zero neighbours).  Not at bin 1:
    # its left neighbour, the DC bin of the detrended series, is roundoff.
    delta = 0.0
    if 2 <= peak < len(spec) - 1 and spec[peak - 1] > 0 and spec[peak + 1] > 0:
        lm, lc, lp = np.log(spec[peak - 1]), np.log(spec[peak]), np.log(spec[peak + 1])
        denom = lm - 2 * lc + lp
        if denom < 0:
            delta = 0.5 * (lm - lp) / denom
    omega = 2 * np.pi * (peak + delta) / (len(t) * series.dt)
    return omega, amplitude_at(series, omega)
