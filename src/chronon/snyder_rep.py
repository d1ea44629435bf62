"""Deformed position operators as differential operators on momentum grids.

In Compton units (hbar = c = m = 1, a the dimensionless a' = a m c/hbar) the
deformed Heisenberg bracket [x, p_x] = i*(1 + (a p)^2) is realized by
x = i*(1 + (a p)^2) d/dp in one dimension; in two dimensions
x_i = i*(delta_ij + a^2 p_i p_j) d/dp_j, whose commutator reproduces the
coordinate noncommutativity [x, y] = i a^2 L_z with
L_z = i*(p_y d/dp_x - p_x d/dp_y).  That sign of L_z is an orientation
choice; it is the one that makes the 2-D residual vanish in the continuum.
``deformation`` is the one home of the coefficient 1 + (a p)^2: the 1-D operator and the
CLI's deformation lines and roundoff floor read it.  The residual's expected side
restates the bracket, so that a defect in the coefficient shows instead of cancelling.

Derivatives are spectral (FFT, periodic wrap), so test functions must decay
well inside the box; residuals are measured on the interior 80% of points.
Every derivative is a real half-spectrum transform (rfft/irfft): a complex field is
differentiated as its float view, so no imaginary Nyquist term arises.
Every norm is ``np.linalg.norm`` (per panel, joined by math.hypot), rescaled where a square
leaves the float range.  The 2-D witness is a product u(p_x) v(p_y), so each side of the 2-D
check is written out as its p_x-factor x p_y-factor pairs (10 and 5): their 8 derivatives are
1-D transforms of length n.  Only the interior is formed, ``_PANEL`` rows at a time, so no
m x m array is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_PANEL = 64  # rows of the 2-D residual formed at a time


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridSpec1D:
    """Uniform momentum grid p_k = -p_max + 2 p_max k / n: n a power of two >= 8 and
    p_max > 0, as ``RunConfig.validate`` requires of every grid the CLI builds."""

    n: int
    p_max: float

    @property
    def dp(self) -> float:
        return 2 * self.p_max / self.n

    # Built once per grid and read-only, since every caller shares the same array.
    @cached_property
    def points(self) -> np.ndarray:
        return _frozen(-self.p_max + self.dp * np.arange(self.n))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # The half spectrum's Fourier duals of the p axis: positions, in Compton wavelengths.
        return _frozen(2 * np.pi * np.fft.rfftfreq(self.n, d=self.dp))


def spectral_derivative(f: np.ndarray, grid: GridSpec1D) -> np.ndarray:
    """d f / dp along axis 0 of a real f, by rfft/irfft on the half spectrum.  A complex
    field is differentiated as its float view, its (Re, Im) pairs side by side."""
    if np.iscomplexobj(f):
        raise ValueError("spectral_derivative takes a real array; pass a complex one's float view")
    f = np.asarray(f, dtype=float)
    if len(f) != grid.n:
        raise ValueError(f"axis 0 has {len(f)} samples, grid has {grid.n}")
    spectrum = np.fft.rfft(f, axis=0)
    spectrum *= 1j * grid.wavenumbers.reshape((-1,) + (1,) * (f.ndim - 1))
    return np.fft.irfft(spectrum, n=grid.n, axis=0)


def deformation(a: float, p):
    """The coefficient 1 + (a p)^2 of i in [x, p_x]: exactly 2 at a = 1 and p = 1 (m c)."""
    return 1.0 + (a * p) ** 2


def snyder_position_apply_1d(f: np.ndarray, grid: GridSpec1D, a: float) -> np.ndarray:
    """x f = i*(1 + (a p)^2) df/dp (coefficient left of the derivative)."""
    return 1j * deformation(a, grid.points) * spectral_derivative(f, grid)


def interior(n: int) -> slice:
    """The central 80% of n grid points along one axis: a tenth of n off each end."""
    margin = round(n / 10)
    return slice(margin, n - margin)


def gaussian_1d(grid: GridSpec1D, center: float = 0.0) -> np.ndarray:
    """The real witness e^(-(p - center)^2/2)."""
    return np.exp(-((grid.points - center) ** 2) / 2)


def heisenberg_residual_1d(grid: GridSpec1D, a: float, f: np.ndarray) -> float:
    """Relative L2 residual of [x, p] f = i*(1 + (a p)^2) f."""
    p = grid.points
    lhs = snyder_position_apply_1d(p * f, grid, a) - p * snyder_position_apply_1d(f, grid, a)
    rhs = 1j * (1.0 + (a * p) ** 2) * f  # the bracket itself, not ``deformation``
    inner = interior(grid.n)
    return _norm_ratio(lambda: [(lhs - rhs)[inner]], f[inner])


def _norm_ratio(panels, *factors: np.ndarray) -> float:
    """||x|| / ||f||: x the rows that the zero-argument ``panels`` yields a panel at a time,
    f the outer product of the 1-D ``factors``; ||x|| joins the panels' norms by math.hypot.
    Where a square, a product or the quotient leaves the float range, two more passes take
    max|x| and the norm of x / max|x|, and f is scaled to a maximum of 1 a factor at a time
    (a' and p' come from user units).  The panels are formed under the caller's np.errstate,
    so an overflow there raises; only the norms and the quotients ignore it."""
    quiet = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}
    norm = np.errstate(**quiet)(np.linalg.norm)
    ratio = np.float64(math.hypot(*map(norm, panels())))
    with np.errstate(**quiet):
        f_norm = np.prod([norm(g) for g in factors])
        ratio = ratio / f_norm
    x_max = 0.0 if 0 < ratio < np.inf and f_norm < np.inf else max(
        np.max(np.abs(x)) for x in panels())
    if x_max:  # an x of zeros keeps its ratio, 0 (nan where f is 0 too)
        scaled = math.hypot(*(norm(x / x_max) for x in panels()))
        with np.errstate(**quiet):
            ratio = x_max
            for g in factors:  # ||f|| and max|f| = max|u| max|v|, one factor at a time
                g_max = np.max(np.abs(g))
                ratio = ratio / g_max / norm(g / g_max)
            ratio *= scaled
    return float(ratio)


def coordinate_commutator_residual_2d(grid: GridSpec1D, a: float, u: np.ndarray,
                                      v: np.ndarray) -> tuple[float, float]:
    """Relative residuals (r_xy, r_mixed) of the 2-D commutator identities on the
    separable witness f = u(p_x) v(p_y), u and v real and both axes on ``grid``.

    r_xy checks [x, y] f = i a^2 L_z f; r_mixed checks [x, p_y] f =
    i a^2 p_x p_y f.  Each operand is a sum of (p_x factor) x (p_y factor) pairs, and
    d/dp_x and d/dp_y each act on one factor, so the 8 distinct derivatives are 1-D.
    """
    p, b = grid.points, a**2
    diag, bp = 1.0 + b * p * p, b * p

    def d(g):
        return spectral_derivative(g, grid)

    # x = i P_0, y = i P_1: P_0 = (1 + b p_x^2) d/dp_x + b p_x p_y d/dp_y and P_1 its mirror,
    # so P_0 f = x_u v + bp_u p_dv and P_1 f = u y_v + bp_du pv.  The pairs below are the real
    # comm = -([x, y] f - i a^2 L_z f) = P_0 P_1 f - P_1 P_0 f - b (p_y df/dp_x - p_x df/dp_y)
    # and mixed = ([x, p_y] f - i a^2 p_x p_y f)/i = P_0 (p_y f) - p_y P_0 f - b p_x p_y f.
    du, dv, pv = d(u), d(v), p * v
    dpv = d(pv)
    x_u, y_v = diag * du, diag * dv
    bp_u, bp_du, p_dv = bp * u, bp * du, p * dv
    comm = [(x_u, y_v), (bp_u, p * d(y_v)), (diag * d(bp_du), pv), (bp * bp_du, p * dpv),
            (-x_u, diag * dv), (-(bp * d(x_u)), p * v),
            (-bp_u, diag * d(p_dv)), (-(bp * d(bp_u)), p * p_dv),
            (-b * du, pv), (bp_u, dv)]
    mixed = [(x_u, pv), (bp_u, p * dpv), (-x_u, p * v), (-bp_u, p * p_dv), (-bp * u, pv)]

    # Only the interior is formed, _PANEL rows at a time: each panel is one
    # (_PANEL x r) @ (r x m) product, which raises on overflow under np.errstate(over="raise").
    inner = interior(grid.n)
    witness = u[inner], v[inner]

    def residual(pairs):
        cols = np.stack([col[inner] for col, _ in pairs], axis=1)
        rows = np.stack([row[inner] for _, row in pairs])
        return _norm_ratio(lambda: (cols[i:i + _PANEL] @ rows
                                    for i in range(0, len(cols), _PANEL)), *witness)

    return residual(comm), residual(mixed)
