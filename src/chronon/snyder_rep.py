"""Deformed position operators as differential operators on momentum grids.

The deformed Heisenberg bracket [x, p_x] = i*hbar*(1 + (a p/hbar)^2) is
realized by x = i*hbar*(1 + (a p/hbar)^2) d/dp in one dimension; in two
dimensions x_i = i*hbar*(delta_ij + (a/hbar)^2 p_i p_j) d/dp_j, whose
commutator reproduces the coordinate noncommutativity [x, y] =
(i a^2/hbar) L_z with L_z = i*hbar*(p_y d/dp_x - p_x d/dp_y).  That sign of
L_z is an orientation choice; it is the one that makes the 2-D residual
vanish in the continuum.

Derivatives are spectral (FFT, periodic wrap), so test functions must decay
well inside the box; residuals are measured on the interior 80% of points.
Real f takes rfft/irfft, which drop the complex path's imaginary Nyquist term.
The 2-D check runs in cache-sized panels, with a whole-array composition's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chronon.gamma_algebra import PhysicalParams

# Elements per 2-D panel: 128 KiB of float64 and its half spectrum stay in cache.
# At 2^15, a 256^2 grid's two panels lift the traced peak past 5 n^2 floats.
_PANEL = 1 << 14


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

    @property
    def points(self) -> np.ndarray:
        return -self.p_max + self.dp * np.arange(self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        # Fourier duals of the p axis (dimension of length/hbar in context).
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.dp)


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


def snyder_position_apply_1d(f: np.ndarray, grid: GridSpec1D,
                             params: PhysicalParams) -> np.ndarray:
    """x f = i*hbar*(1 + (a p/hbar)^2) df/dp (coefficient left of the derivative)."""
    p = grid.points
    coeff = 1.0 + (params.a * p / params.hbar) ** 2
    return 1j * params.hbar * coeff * spectral_derivative(f, grid)


def interior(n: int, fraction: float = 0.8) -> slice:
    """The central ``fraction`` of n grid points along one axis."""
    margin = int(round(n * (1 - fraction) / 2))
    return slice(margin, n - margin)


def gaussian_1d(grid: GridSpec1D, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    return np.exp(-((grid.points - center) ** 2) / (2 * width**2)).astype(complex)


def heisenberg_residual_1d(grid: GridSpec1D, params: PhysicalParams,
                           f: np.ndarray) -> float:
    """Relative L2 residual of [x, p] f = i*hbar*(1 + (a p/hbar)^2) f."""
    p = grid.points
    lhs = snyder_position_apply_1d(p * f, grid, params) - p * snyder_position_apply_1d(f, grid, params)
    rhs = 1j * params.hbar * (1.0 + (params.a * p / params.hbar) ** 2) * f
    inner = interior(grid.n)
    return float(np.linalg.norm((lhs - rhs)[inner]) / np.linalg.norm(f[inner]))


def gaussian_2d(grid: GridSpec1D, center=(0.0, 0.0), width: float = 1.0) -> np.ndarray:
    px, py = grid.points[:, None], grid.points[None, :]
    return np.exp(-((px - center[0]) ** 2 + (py - center[1]) ** 2) / (2 * width**2))


def _coefficients_2d(grid: GridSpec1D, params: PhysicalParams):
    """(1 + b p_x^2, 1 + b p_y^2), (b p_x, p_y): p_x a column, p_y a row; b = (a/hbar)^2."""
    px, py = grid.points[:, None], grid.points[None, :]
    b = (params.a / params.hbar) ** 2
    return (1.0 + b * px * px, 1.0 + b * py * py), (b * px, py)


def _position_2d(grad, coeffs, axis: int, hbar: float, rows=slice(None), out=None):
    """x_axis g / i on ``rows`` from g's gradient there and ``_coefficients_2d``."""
    (diag_x, diag_y), (bpx, py) = coeffs
    out = np.multiply((diag_x[rows], diag_y)[axis], grad[axis], out=out)
    out += bpx[rows] * py * grad[1 - axis]
    out *= hbar
    return out


def _gradient_panels(g, grid: GridSpec1D, dx: np.ndarray, dy: np.ndarray):
    """Yield (rows, (dg/dp_x, dg/dp_y) there) per panel of len(dy) rows, g(index) = g[index];
    all of dg/dp_x goes into ``dx`` first, by column panels, and dg/dp_y into ``dy``."""
    step = len(dy)
    for start in range(0, grid.n, step):
        cols = np.s_[:, start:start + step]
        spectral_derivative(g(cols), grid, axis=0, out=dx[cols])
    for start in range(0, grid.n, step):
        rows = slice(start, start + step)
        yield rows, (dx[rows], spectral_derivative(g(rows), grid, axis=1, out=dy))


def _norm_2d(g: np.ndarray) -> float:
    # einsum, not np.linalg.norm: OpenBLAS splits a dot product this long over
    # worker threads, whose wake-up costs more than the sum and slows what follows.
    return np.sqrt(np.einsum("ij,ij->", g, g))


def coordinate_commutator_residual_2d(grid: GridSpec1D, params: PhysicalParams,
                                      f: np.ndarray) -> tuple[float, float]:
    """Relative residuals (r_xy, r_mixed) of the 2-D commutator identities.

    r_xy checks [x, y] f = (i a^2/hbar) L_z f; r_mixed checks [x, p_y] f =
    i*hbar*(a/hbar)^2 p_x p_y f.  Each of the 8 distinct derivatives (the
    gradients of f, x f, y f and p_y f) is computed once, on real panels.
    """
    if np.iscomplexobj(f):
        raise ValueError("the 2-D witness f must be a real array")
    hbar, a, n = params.hbar, params.a, grid.n
    px, py = grid.points[:, None], grid.points[None, :]

    # x_axis g = i P_axis g with P_axis = _position_2d, so xf = P_0 f, yf = P_1 f, comm =
    # -([x, y] f - (i a^2/hbar) L_z f) = P_0 yf - P_1 xf - a^2 (p_y df/dp_x - p_x df/dp_y)
    # and mixed = ([x, p_y] f - i hbar (a/hbar)^2 p_x p_y f)/i are all real.  Row panels are
    # finished while their d/dp_y is in cache, so dx, xf, yf and comm are the only n x n arrays;
    # mixed is written over xf, and each pass after the first writes P_axis over its grad.
    dx, xf, yf, comm = (np.empty((n, n)) for _ in range(4))
    dy = np.empty((min(n, max(1, _PANEL // n)), n))
    coeffs = _coefficients_2d(grid, params)
    for r, grad in _gradient_panels(f.__getitem__, grid, dx, dy):
        _position_2d(grad, coeffs, 0, hbar, r, out=xf[r])
        _position_2d(grad, coeffs, 1, hbar, r, out=yf[r])
        lz = np.multiply(py, grad[0], out=comm[r])
        lz -= px[r] * grad[1]
        lz *= -a**2
    for r, grad in _gradient_panels(yf.__getitem__, grid, dx, dy):
        comm[r] += _position_2d(grad, coeffs, 0, hbar, r, out=grad[0])
    del yf
    for r, grad in _gradient_panels(xf.__getitem__, grid, dx, dy):
        comm[r] -= _position_2d(grad, coeffs, 1, hbar, r, out=grad[1])
    mixed, py_full = xf, np.broadcast_to(py, (n, n))
    for r, grad in _gradient_panels(lambda ix: py_full[ix] * f[ix], grid, dx, dy):
        row = _position_2d(grad, coeffs, 0, hbar, r, out=grad[0])
        row -= py * xf[r]
        row -= hbar * (a / hbar) ** 2 * px[r] * py * f[r]
        mixed[r] = row

    inner = (interior(grid.n),) * 2
    fnorm = _norm_2d(f[inner])
    return float(_norm_2d(comm[inner]) / fnorm), float(_norm_2d(mixed[inner]) / fnorm)
