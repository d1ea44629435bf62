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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chronon.gamma_algebra import PhysicalParams


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


def spectral_derivative(f: np.ndarray, grid: GridSpec1D, axis: int = 0) -> np.ndarray:
    """d f / dp along ``axis`` by FFT; a real f takes rfft/irfft and gives a real
    result, without the imaginary Nyquist term that the complex path keeps."""
    real = np.isrealobj(f)
    f = np.asarray(f, dtype=float if real else complex)
    if f.shape[axis] != grid.n:
        raise ValueError(f"axis {axis} has {f.shape[axis]} samples, grid has {grid.n}")
    shape = [1] * f.ndim
    shape[axis] = -1
    if real:
        out = np.fft.rfft(f, axis=axis)
        out *= 1j * grid.wavenumbers[:grid.n // 2 + 1].reshape(shape)
        return np.fft.irfft(out, n=grid.n, axis=axis)
    out = np.fft.fft(f, axis=axis)
    out *= 1j * grid.wavenumbers.reshape(shape)
    return np.fft.ifft(out, axis=axis, out=out)


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
    """((1 + b p_x^2) as a column, (1 + b p_y^2) as a row), b p_x p_y; b = (a/hbar)^2."""
    px, py = grid.points[:, None], grid.points[None, :]
    b = (params.a / params.hbar) ** 2
    return (1.0 + b * px * px, 1.0 + b * py * py), b * px * py


def _gradient_2d(g: np.ndarray, grid: GridSpec1D) -> tuple[np.ndarray, np.ndarray]:
    return spectral_derivative(g, grid, axis=0), spectral_derivative(g, grid, axis=1)


def _position_2d(grad, coeffs, axis: int, hbar: float) -> np.ndarray:
    """x_axis g / i from g's gradient (dg/dp_x, dg/dp_y) and ``_coefficients_2d``."""
    diag, cross = coeffs
    out = diag[axis] * grad[axis]
    out += cross * grad[1 - axis]
    out *= hbar
    return out


def _norm_2d(g: np.ndarray) -> float:
    # einsum, not np.linalg.norm: OpenBLAS splits a dot product this long over
    # worker threads, whose wake-up costs more than the sum and slows what follows.
    return np.sqrt(np.einsum("ij,ij->", g, g))


def coordinate_commutator_residual_2d(grid: GridSpec1D, params: PhysicalParams,
                                      f: np.ndarray) -> tuple[float, float]:
    """Relative residuals (r_xy, r_mixed) of the 2-D commutator identities.

    r_xy checks [x, y] f = (i a^2/hbar) L_z f; r_mixed checks [x, p_y] f =
    i*hbar*(a/hbar)^2 p_x p_y f.  Each of the 8 distinct derivatives (the
    gradients of f, x f, y f and p_y f) is computed once, on real arrays.
    """
    if np.iscomplexobj(f):
        raise ValueError("the 2-D witness f must be a real array")
    hbar, a = params.hbar, params.a
    coeffs = _coefficients_2d(grid, params)
    px, py = grid.points[:, None], grid.points[None, :]

    # x_axis g = i P_axis g with P_axis = _position_2d, so xf = P_0 f, yf = P_1 f, comm =
    # -([x, y] f - (i a^2/hbar) L_z f) = P_0 yf - P_1 xf - a^2 (p_y df/dp_x - p_x df/dp_y)
    # and mixed = ([x, p_y] f - i hbar (a/hbar)^2 p_x p_y f)/i are all real.  Each n x n
    # array is dropped after its last use, which bounds peak memory.
    grad = _gradient_2d(f, grid)
    xf = _position_2d(grad, coeffs, 0, hbar)
    yf = _position_2d(grad, coeffs, 1, hbar)
    comm = py * grad[0]
    comm -= px * grad[1]
    comm *= -a**2
    del grad
    comm += _position_2d(_gradient_2d(yf, grid), coeffs, 0, hbar)
    del yf
    comm -= _position_2d(_gradient_2d(xf, grid), coeffs, 1, hbar)

    mixed = _position_2d(_gradient_2d(py * f, grid), coeffs, 0, hbar)
    mixed -= py * xf
    mixed -= hbar * (a / hbar) ** 2 * px * py * f

    inner = (interior(grid.n),) * 2
    fnorm = _norm_2d(f[inner])
    return float(_norm_2d(comm[inner]) / fnorm), float(_norm_2d(mixed[inner]) / fnorm)
