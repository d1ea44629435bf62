"""Deformed position operators as differential operators on momentum grids.

In Compton units (hbar = c = m = 1, a the dimensionless a' = a m c/hbar) the
deformed Heisenberg bracket [x, p_x] = i*(1 + (a p)^2) is realized by
x = i*(1 + (a p)^2) d/dp in one dimension; in two dimensions
x_i = i*(delta_ij + a^2 p_i p_j) d/dp_j, whose commutator reproduces the
coordinate noncommutativity [x, y] = i a^2 L_z with
L_z = i*(p_y d/dp_x - p_x d/dp_y).  That sign of L_z is an orientation
choice; it is the one that makes the 2-D residual vanish in the continuum.

Derivatives are spectral (FFT, periodic wrap), so test functions must decay
well inside the box; residuals are measured on the interior 80% of points.
Real f takes rfft/irfft, which drop the complex path's imaginary Nyquist term.
The 2-D check runs in cache-sized panels, with a whole-array composition's arithmetic.
From 8 panels up, with 2 usable cores, each column and row pass runs its first half of
panels on one worker thread (spectral derivatives and the private panel helpers only, so
it opens no tracer span) under the caller's context, and its second half on the caller.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from chronon.gamma_algebra import _frozen

# Elements per 2-D panel: 128 KiB of float64 and its half spectrum stay in cache.
# At 2^15, a 256^2 grid's two panels lift the traced peak past 5 n^2 floats.
_PANEL = 1 << 14
# Below this many panels a pass stays on the calling thread: at 256^2 (4 panels) a
# second thread's panel temporaries lift the traced peak past 5 n^2 floats.
_MIN_SPLIT_PANELS = 8


@dataclass(frozen=True)
class GridSpec1D:
    """Uniform momentum grid p_k = -p_max + 2 p_max k / n, n a power of two."""

    n: int
    p_max: float

    def __post_init__(self):
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")

    @property
    def dp(self) -> float:
        return 2 * self.p_max / self.n

    # Built once per grid and read-only, since every caller shares the same array.
    @cached_property
    def points(self) -> np.ndarray:
        return _frozen(-self.p_max + self.dp * np.arange(self.n))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # Fourier duals of the p axis: positions, in Compton wavelengths.
        return _frozen(2 * np.pi * np.fft.fftfreq(self.n, d=self.dp))


def spectral_derivative(f: np.ndarray, grid: GridSpec1D, axis: int = 0, out=None) -> np.ndarray:
    """d f / dp along ``axis`` by FFT, into ``out`` if given; a real f takes rfft/irfft and
    gives a real result, without the imaginary Nyquist term that the complex path keeps."""
    real = np.isrealobj(f)
    f = np.asarray(f, dtype=float if real else complex)
    if f.shape[axis] != grid.n:
        raise ValueError(f"axis {axis} has {f.shape[axis]} samples, grid has {grid.n}")
    shape = [1] * f.ndim
    shape[axis] = -1
    if real:
        spectrum = np.fft.rfft(f, axis=axis)
        spectrum *= 1j * grid.wavenumbers[:grid.n // 2 + 1].reshape(shape)
        return np.fft.irfft(spectrum, n=grid.n, axis=axis, out=out)
    spectrum = np.fft.fft(f, axis=axis)
    spectrum *= 1j * grid.wavenumbers.reshape(shape)
    return np.fft.ifft(spectrum, axis=axis, out=spectrum if out is None else out)


def snyder_position_apply_1d(f: np.ndarray, grid: GridSpec1D, a: float) -> np.ndarray:
    """x f = i*(1 + (a p)^2) df/dp (coefficient left of the derivative)."""
    coeff = 1.0 + (a * grid.points) ** 2
    return 1j * coeff * spectral_derivative(f, grid)


def interior(n: int, fraction: float = 0.8) -> slice:
    """The central ``fraction`` of n grid points along one axis."""
    margin = int(round(n * (1 - fraction) / 2))
    return slice(margin, n - margin)


def gaussian_1d(grid: GridSpec1D, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    return np.exp(-(((grid.points - center) / width) ** 2) / 2).astype(complex)


def heisenberg_residual_1d(grid: GridSpec1D, a: float, f: np.ndarray) -> float:
    """Relative L2 residual of [x, p] f = i*(1 + (a p)^2) f."""
    p = grid.points
    lhs = snyder_position_apply_1d(p * f, grid, a) - p * snyder_position_apply_1d(f, grid, a)
    rhs = 1j * (1.0 + (a * p) ** 2) * f
    inner = interior(grid.n)
    return _norm_ratio((lhs - rhs)[inner], f[inner], np.linalg.norm)


def gaussian_2d(grid: GridSpec1D, center=(0.0, 0.0), width: float = 1.0) -> np.ndarray:
    px, py = grid.points[:, None], grid.points[None, :]
    return np.exp(-(((px - center[0]) / width) ** 2 + ((py - center[1]) / width) ** 2) / 2)


def _coefficients_2d(grid: GridSpec1D, a: float):
    """(1 + b p_x^2, 1 + b p_y^2), (b p_x, p_y): p_x a column, p_y a row; b = a^2."""
    px, py = grid.points[:, None], grid.points[None, :]
    b = a**2
    return (1.0 + b * px * px, 1.0 + b * py * py), (b * px, py)


def _position_2d(grad, coeffs, axis: int, rows=slice(None), out=None):
    """x_axis g / i on ``rows`` from g's gradient there and ``_coefficients_2d``."""
    (diag_x, diag_y), (bpx, py) = coeffs
    out = np.multiply((diag_x[rows], diag_y)[axis], grad[axis], out=out)
    out += bpx[rows] * py * grad[1 - axis]
    return out


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _split(work, n: int, shares: int) -> None:
    """work(start, stop) over [0, n); with 2 shares the first half runs on a worker thread
    under a copy of the caller's context (so np.errstate holds there) and the second half
    here.  The worker is joined even if this half raises, and its error is raised here."""
    if shares == 1:
        work(0, n)
        return
    errors, context = [], contextvars.copy_context()

    def first_half():
        try:
            context.run(work, 0, n // 2)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    worker = threading.Thread(target=first_half)
    worker.start()
    try:
        work(n // 2, n)
    finally:
        worker.join()
    if errors:
        raise errors[0]


def _gradient_pass(g, body, grid: GridSpec1D, dx: np.ndarray, shares: int) -> None:
    """body(rows, (dg/dp_x, dg/dp_y) there) per row panel of _PANEL elements, g(index) = g[index].
    All of dg/dp_x goes into ``dx`` first, by column panels; each share takes d/dp_y into
    a panel buffer of its own.  Shares hold whole panels and write only their own rows."""
    n = grid.n
    step = min(n, max(1, _PANEL // n))

    def columns(start, stop):
        for s in range(start, stop, step):
            cols = np.s_[:, s:s + step]
            spectral_derivative(g(cols), grid, axis=0, out=dx[cols])

    def rows(start, stop):
        dy = np.empty((step, n))
        for s in range(start, stop, step):
            r = slice(s, s + step)
            body(r, (dx[r], spectral_derivative(g(r), grid, axis=1, out=dy)))

    _split(columns, n, shares)
    _split(rows, n, shares)


def _norm_2d(g: np.ndarray) -> float:
    # einsum, not np.linalg.norm: OpenBLAS splits a dot product this long over
    # worker threads, whose wake-up costs more than the sum and slows what follows.
    return np.sqrt(np.einsum("ij,ij->", g, g))


def _norm_ratio(x: np.ndarray, f: np.ndarray, norm) -> float:
    """norm(x) / norm(f).  Where a square overflows, both norms are taken again on their
    arrays scaled to a largest entry of 1, and the quotient is scaled back."""
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = norm(x) / norm(f)
        if not ratio < np.inf:
            x_max, f_max = (np.max(np.abs(g)) for g in (x, f))
            ratio = norm(x / x_max) / norm(f / f_max) * (x_max / f_max)
    return float(ratio)


def coordinate_commutator_residual_2d(grid: GridSpec1D, a: float,
                                      f: np.ndarray) -> tuple[float, float]:
    """Relative residuals (r_xy, r_mixed) of the 2-D commutator identities.

    r_xy checks [x, y] f = i a^2 L_z f; r_mixed checks [x, p_y] f =
    i a^2 p_x p_y f.  Each of the 8 distinct derivatives (the
    gradients of f, x f, y f and p_y f) is computed once, on real panels.
    """
    if np.iscomplexobj(f):
        raise ValueError("the 2-D witness f must be a real array")
    n = grid.n
    px, py = grid.points[:, None], grid.points[None, :]

    # x_axis g = i P_axis g with P_axis = _position_2d, so xf = P_0 f, yf = P_1 f, comm =
    # -([x, y] f - i a^2 L_z f) = P_0 yf - P_1 xf - a^2 (p_y df/dp_x - p_x df/dp_y)
    # and mixed = ([x, p_y] f - i a^2 p_x p_y f)/i are all real.  Row panels are
    # finished while their d/dp_y is in cache, so dx, xf, yf and comm are the only n x n arrays;
    # mixed is written over xf, and each pass after the first writes P_axis over its grad.
    dx, xf, yf, comm = (np.empty((n, n)) for _ in range(4))
    mixed, py_full = xf, np.broadcast_to(py, (n, n))
    coeffs = _coefficients_2d(grid, a)
    grid.wavenumbers  # cached here, before any worker thread reads it
    shares = 2 if n * n // _PANEL >= _MIN_SPLIT_PANELS and _usable_cores() >= 2 else 1

    def f_rows(r, grad):
        _position_2d(grad, coeffs, 0, r, out=xf[r])
        _position_2d(grad, coeffs, 1, r, out=yf[r])
        lz = np.multiply(py, grad[0], out=comm[r])
        lz -= px[r] * grad[1]
        lz *= -a**2

    def yf_rows(r, grad):
        comm[r] += _position_2d(grad, coeffs, 0, r, out=grad[0])

    def xf_rows(r, grad):
        comm[r] -= _position_2d(grad, coeffs, 1, r, out=grad[1])

    def mixed_rows(r, grad):
        row = _position_2d(grad, coeffs, 0, r, out=grad[0])
        row -= py * xf[r]
        row -= a**2 * px[r] * py * f[r]
        mixed[r] = row

    _gradient_pass(f.__getitem__, f_rows, grid, dx, shares)
    _gradient_pass(yf.__getitem__, yf_rows, grid, dx, shares)
    del yf
    _gradient_pass(xf.__getitem__, xf_rows, grid, dx, shares)
    _gradient_pass(lambda ix: py_full[ix] * f[ix], mixed_rows, grid, dx, shares)

    inner = (interior(grid.n),) * 2
    return (_norm_ratio(comm[inner], f[inner], _norm_2d),
            _norm_ratio(mixed[inner], f[inner], _norm_2d))
