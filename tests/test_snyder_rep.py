import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon import snyder_rep as sr
from chronon.cli import RESIDUAL_FLOOR
from chronon.config import RunConfig


@pytest.fixture(scope="module")
def a():
    """a' at the default units: a is the Compton wavelength."""
    return 1.0


def a_prime(**units):
    """The a' that the edge hands the Snyder layer for a unit set."""
    return RunConfig("snyder", **units).validate().a_prime


@pytest.fixture(scope="module")
def grid2():
    return sr.GridSpec1D(n=256, p_max=12.0)


@pytest.fixture(scope="module")
def grid():
    return sr.GridSpec1D(n=1024, p_max=20.0)


def gradient_2d(g, grid):
    return sr.spectral_derivative(g, grid, axis=0), sr.spectral_derivative(g, grid, axis=1)


def position_apply_2d(f, grid, a, axis):
    """x_axis f with x_i = i*(delta_ij + a^2 p_i p_j) d/dp_j, axis 0 = p_x."""
    return 1j * sr._position_2d(gradient_2d(f, grid), sr._coefficients_2d(grid, a), axis)


def whole_array_residual_2d(grid, a, f):
    """The 2-D residuals composed on whole n x n arrays, one step after another.

    ``coordinate_commutator_residual_2d`` does the same per-element arithmetic
    in the same operand order on panels, so the two agree to the bit.
    """
    px, py = grid.points[:, None], grid.points[None, :]
    b = a**2
    diag, cross = (1.0 + b * px * px, 1.0 + b * py * py), b * px * py

    def position(grad, axis):
        out = diag[axis] * grad[axis]
        out += cross * grad[1 - axis]
        return out

    grad = gradient_2d(f, grid)
    xf, yf = position(grad, 0), position(grad, 1)
    comm = py * grad[0]
    comm -= px * grad[1]
    comm *= -a**2
    comm += position(gradient_2d(yf, grid), 0)
    comm -= position(gradient_2d(xf, grid), 1)
    mixed = position(gradient_2d(py * f, grid), 0)
    mixed -= py * xf
    mixed -= a**2 * px * py * f
    inner = (sr.interior(grid.n),) * 2
    fnorm = sr._norm_2d(f[inner])
    return float(sr._norm_2d(comm[inner]) / fnorm), float(sr._norm_2d(mixed[inner]) / fnorm)


def traced_peak(grid, a, f):
    """Peak traced bytes of one 2-D residual, after a first call has loaded numpy.fft."""
    sr.coordinate_commutator_residual_2d(grid, a, f)
    tracemalloc.start()
    try:
        sr.coordinate_commutator_residual_2d(grid, a, f)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridSpec:
    def test_spacing(self, grid):
        assert grid.dp == pytest.approx(40.0 / 1024)
        assert grid.points[0] == -20.0
        assert np.allclose(np.diff(grid.points), grid.dp)

    @pytest.mark.parametrize("n", [7, 12, 100, 4])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            sr.GridSpec1D(n=n, p_max=1.0)

    def test_rejects_bad_pmax(self):
        with pytest.raises(ValueError):
            sr.GridSpec1D(n=16, p_max=0.0)

    @pytest.mark.parametrize("name", ["points", "wavenumbers"])
    def test_arrays_cached_read_only(self, name):
        grid = sr.GridSpec1D(n=64, p_max=3.0)
        first = getattr(grid, name)
        assert getattr(grid, name) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0] = 1.0


class TestSpectralDerivative:
    def test_constant(self, grid):
        f = np.ones(grid.n, dtype=complex)
        assert np.max(np.abs(sr.spectral_derivative(f, grid))) <= 1e-12

    def test_fundamental_mode_exact(self, grid):
        k0 = 2 * np.pi / (2 * grid.p_max)
        f = np.sin(k0 * grid.points)
        expected = k0 * np.cos(k0 * grid.points)
        np.testing.assert_allclose(sr.spectral_derivative(f, grid).real, expected, atol=1e-12)

    def test_gaussian_matches_analytic(self, grid):
        p = grid.points
        f = np.exp(-p**2 / 2)
        expected = -p * f
        err = np.max(np.abs(sr.spectral_derivative(f, grid) - expected))
        assert err <= 1e-8

    def test_size_mismatch_rejected(self, grid):
        with pytest.raises(ValueError):
            sr.spectral_derivative(np.ones(16), grid)

    @pytest.mark.parametrize("ndim, axis", [(1, 0), (2, 0), (2, 1)],
                             ids=["1d", "2d-axis0", "2d-axis1"])
    def test_real_input_takes_half_spectrum(self, grid2, ndim, axis):
        # rfft/irfft drop the imaginary Nyquist term; the real parts agree.
        f = (sr.gaussian_1d(grid2, center=0.4).real if ndim == 1
             else sr.gaussian_2d(grid2, center=(0.5, -0.3)))
        got = sr.spectral_derivative(f, grid2, axis=axis)
        expected = sr.spectral_derivative(f.astype(complex), grid2, axis=axis)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, expected.real, rtol=0,
                                   atol=1e-13 * np.max(np.abs(expected)))


class TestPositionApply1D:
    def test_undeformed_limit_bitwise(self, grid):
        f = sr.gaussian_1d(grid, center=0.3, width=1.2)
        deformed = sr.snyder_position_apply_1d(f, grid, 0.0)
        canonical = 1j * sr.spectral_derivative(f, grid)
        np.testing.assert_array_equal(deformed, canonical)

    def test_constant_maps_to_zero(self, grid, a):
        f = np.ones(grid.n, dtype=complex)
        assert np.max(np.abs(sr.snyder_position_apply_1d(f, grid, a))) <= 1e-10

    def test_gaussian_analytic_oracle(self, grid, a):
        p = grid.points
        f = np.exp(-p**2 / 2).astype(complex)
        expected = 1j * (1 + p**2) * (-p) * np.exp(-p**2 / 2)
        got = sr.snyder_position_apply_1d(f, grid, a)
        assert np.max(np.abs(got - expected)) <= 1e-8


class TestHeisenbergResidual1D:
    def test_undeformed(self, grid):
        f = sr.gaussian_1d(grid)
        assert sr.heisenberg_residual_1d(grid, 0.0, f) <= 1e-8

    def test_deformed_default(self, grid, a):
        f = sr.gaussian_1d(grid)
        assert sr.heisenberg_residual_1d(grid, a, f) <= 1e-7

    def test_spectral_convergence(self, a):
        # Residual drops >= 4x per doubling until the discretization error
        # sinks below the 1e-12 floor.
        residuals = []
        for n in (32, 64, 128):
            g = sr.GridSpec1D(n=n, p_max=20.0)
            residuals.append(sr.heisenberg_residual_1d(g, a, sr.gaussian_1d(g)))
        for prev, nxt in zip(residuals, residuals[1:]):
            assert nxt <= prev / 4 or nxt <= 1e-12
        assert residuals[-1] <= 1e-12

    @pytest.mark.parametrize("center", [-5.0, -1.7, 0.0, 2.3, 5.0])
    def test_translation_invariance(self, grid, a, center):
        # Identity holds pointwise; translating the witness by <= p_max/4
        # leaves the residual within tolerance.
        f = sr.gaussian_1d(grid, center=center)
        assert sr.heisenberg_residual_1d(grid, a, f) <= 1e-7

    def test_random_witnesses(self, grid, a):
        rng = np.random.default_rng(1)
        for _ in range(10):
            center = rng.uniform(-5, 5)
            width = rng.uniform(0.5, 2.0)
            f = sr.gaussian_1d(grid, center=center, width=width)
            assert sr.heisenberg_residual_1d(grid, a, f) <= 1e-7


class TestPositionApply2D:
    def test_undeformed_limit(self, grid2):
        f = sr.gaussian_2d(grid2, center=(0.5, -0.3))
        got = position_apply_2d(f, grid2, 0.0, axis=0)
        expected = 1j * sr.spectral_derivative(f, grid2, axis=0)
        np.testing.assert_array_equal(got, expected)

    def test_cross_term_vanishes_on_axis(self, grid2, a):
        # At p_x = 0 the p_x p_y coefficient vanishes, so x acts as the
        # deformed-diagonal term alone there.
        f = sr.gaussian_2d(grid2)
        got = position_apply_2d(f, grid2, a, axis=0)
        ix = grid2.n // 2  # p_x = 0 row
        diag_only = 1j * sr.spectral_derivative(f, grid2, axis=0)[ix]
        np.testing.assert_allclose(got[ix], diag_only, atol=1e-10)

    def test_gaussian_analytic_oracle(self, grid2, a):
        px = grid2.points[:, None]
        py = grid2.points[None, :]
        f = np.exp(-(px**2 + py**2) / 2).astype(complex)
        expected = 1j * ((1 + px**2) * (-px) + px * py * (-py)) * f
        got = position_apply_2d(f, grid2, a, axis=0)
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_bad_axis_rejected(self, grid2, a):
        # The coefficient table has one diagonal entry per axis, so no third axis.
        with pytest.raises(IndexError):
            position_apply_2d(sr.gaussian_2d(grid2), grid2, a, axis=2)


class TestCommutatorResidual2D:
    def test_undeformed_coordinates_commute(self, grid2):
        r_xy, r_mixed = sr.coordinate_commutator_residual_2d(grid2, 0.0, sr.gaussian_2d(grid2))
        assert r_xy <= 1e-8
        assert r_mixed <= 1e-8

    def test_deformed_default(self, grid2, a):
        r_xy, r_mixed = sr.coordinate_commutator_residual_2d(grid2, a, sr.gaussian_2d(grid2))
        assert r_xy <= 1e-6
        assert r_mixed <= 1e-6

    def test_complex_witness_rejected(self, grid2, a):
        with pytest.raises(ValueError, match="real"):
            sr.coordinate_commutator_residual_2d(grid2, a,
                                                 sr.gaussian_2d(grid2).astype(complex))

    def test_rotationally_symmetric_witness_annihilated(self, grid2, a):
        # L_z f = i*(p_y df/dp_x - p_x df/dp_y)
        f = sr.gaussian_2d(grid2)
        px = grid2.points[:, None]
        py = grid2.points[None, :]
        lz = 1j * (py * sr.spectral_derivative(f, grid2, axis=0)
                   - px * sr.spectral_derivative(f, grid2, axis=1))
        assert np.max(np.abs(lz)) <= 1e-9

    def test_spectral_convergence(self, a):
        # The composed 2-D operator amplifies roundoff by the coefficient
        # magnitude 1 + (a p_max)^2, so the attainable floor is that
        # multiple of 1e-12 rather than 1e-12 itself.
        floor = 1e-12 * (1 + (a * 12.0) ** 2)
        residuals = []
        for n in (16, 32, 64):
            g = sr.GridSpec1D(n=n, p_max=12.0)
            r_xy, _ = sr.coordinate_commutator_residual_2d(g, a, sr.gaussian_2d(g))
            residuals.append(r_xy)
        for prev, nxt in zip(residuals, residuals[1:]):
            assert nxt <= prev / 4 or nxt <= floor
        assert residuals[-1] <= floor

    def test_offset_witness(self, grid2, a):
        f = sr.gaussian_2d(grid2, center=(1.5, -2.0))
        r_xy, r_mixed = sr.coordinate_commutator_residual_2d(grid2, a, f)
        assert r_xy <= 1e-6
        assert r_mixed <= 1e-6

    @pytest.mark.parametrize("center", [(0.0, 0.0), (1.5, -2.0)], ids=["centred", "offset"])
    @pytest.mark.parametrize("a", [None, 0.0, 0.5], ids=["compton", "a0", "a0.5"])
    def test_matches_twelve_derivative_composition(self, a, center):
        # The residual shares one gradient per operand (8 real derivatives);
        # composing it from whole complex x and y applications takes 12.  The two
        # agree within the roundoff floor of the refinement check.
        grid, a = sr.GridSpec1D(n=64, p_max=12.0), a_prime(a=a)
        px = grid.points[:, None]
        py = grid.points[None, :]
        f = sr.gaussian_2d(grid, center=center).astype(complex)

        def x(g):
            return position_apply_2d(g, grid, a, axis=0)

        def y(g):
            return position_apply_2d(g, grid, a, axis=1)

        xf, yf = x(f), y(f)
        lz = 1j * (py * sr.spectral_derivative(f, grid, axis=0)
                   - px * sr.spectral_derivative(f, grid, axis=1))
        comm = x(yf) - y(xf) - (1j * a**2) * lz
        mixed = x(py * f) - py * xf - 1j * a**2 * px * py * f
        inner = (sr.interior(grid.n),) * 2
        fnorm = np.linalg.norm(f[inner])
        expected = (float(np.linalg.norm(comm[inner]) / fnorm),
                    float(np.linalg.norm(mixed[inner]) / fnorm))
        got = sr.coordinate_commutator_residual_2d(grid, a, f.real)
        bound = RESIDUAL_FLOOR * (1 + (a * grid.p_max) ** 2)
        np.testing.assert_allclose(got, expected, rtol=0, atol=bound)

    def test_each_derivative_computed_once(self, a, monkeypatch):
        # d/dp_x and d/dp_y of f, x f, y f and p_y f, each over the whole grid once,
        # in panels of real arrays: 4 n^2 elements differentiated along each axis.
        derivative, lock = sr.spectral_derivative, threading.Lock()

        def counted(g, *args, **kwargs):
            assert g.dtype == np.float64
            with lock:  # the worker thread counts too
                elements[kwargs["axis"]] += g.size
            return derivative(g, *args, **kwargs)

        monkeypatch.setattr(sr, "spectral_derivative", counted)
        monkeypatch.setattr(sr, "_usable_cores", lambda: 2)
        for n in (64, 256, 512):  # one panel, four panels, sixteen on two threads
            elements = {0: 0, 1: 0}
            grid = sr.GridSpec1D(n=n, p_max=12.0)
            sr.coordinate_commutator_residual_2d(grid, a, sr.gaussian_2d(grid))
            assert elements == {0: 4 * n * n, 1: 4 * n * n}

    @pytest.mark.parametrize("n", [16, 256], ids=["one-panel", "four-panels"])
    @pytest.mark.parametrize("units", [{}, {"a": 0.0}, {"a": 0.5}, {"hbar": 2.0, "c": 3.0}],
                             ids=["compton", "a0", "a0.5", "hbar2-c3"])
    def test_panels_match_whole_arrays_bitwise(self, n, units):
        grid, a = sr.GridSpec1D(n=n, p_max=12.0), a_prime(**units)
        f = sr.gaussian_2d(grid, center=(0.3, -0.7))
        assert sr.coordinate_commutator_residual_2d(grid, a, f) == \
            whole_array_residual_2d(grid, a, f)

    @pytest.mark.parametrize("units", [{}, {"a": 0.0}, {"a": 0.5}, {"hbar": 2.0, "c": 3.0}],
                             ids=["compton", "a0", "a0.5", "hbar2-c3"])
    def test_threaded_panels_match_whole_arrays_bitwise(self, units, monkeypatch):
        # Sixteen panels, split over two threads that switch as often as the interpreter
        # allows: each element still takes the same operations in the same order.
        monkeypatch.setattr(sr, "_usable_cores", lambda: 2)
        grid, a = sr.GridSpec1D(n=512, p_max=12.0), a_prime(**units)
        f = sr.gaussian_2d(grid, center=(0.3, -0.7))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sr.coordinate_commutator_residual_2d(grid, a, f)
        finally:
            sys.setswitchinterval(interval)
        assert got == whole_array_residual_2d(grid, a, f)

    @pytest.mark.parametrize("n, cores, threaded", [(256, 2, False), (512, 1, False),
                                                    (512, 2, True)],
                             ids=["four-panels", "one-core", "sixteen-panels"])
    def test_worker_thread_only_when_split(self, a, monkeypatch, started_threads,
                                           n, cores, threaded):
        monkeypatch.setattr(sr, "_usable_cores", lambda: cores)
        grid = sr.GridSpec1D(n=n, p_max=12.0)
        sr.coordinate_commutator_residual_2d(grid, a, sr.gaussian_2d(grid))
        assert (len(started_threads) >= 1) == threaded
        assert not any(thread.is_alive() for thread in started_threads)

    @pytest.mark.parametrize("half", [0, 1], ids=["worker", "caller"])
    def test_overflow_raised_on_calling_thread(self, a, monkeypatch, started_threads,
                                               half):
        # The worker takes the first half of the columns. It runs under the caller's
        # context, so np.errstate raises there rather than warning, and it is joined
        # before an error in either half leaves the call.
        monkeypatch.setattr(sr, "_usable_cores", lambda: 2)
        grid = sr.GridSpec1D(n=512, p_max=12.0)
        f = sr.gaussian_2d(grid)
        f[:, half * grid.n // 2:(half + 1) * grid.n // 2] = 1e306
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            sr.coordinate_commutator_residual_2d(grid, a, f)
        assert len(started_threads) == 1 and not started_threads[0].is_alive()

    def test_traced_peak_below_five_grid_arrays(self, a):
        # Four n x n float64 arrays are live at most, plus a few row panels; the
        # whole-array composition peaked at eight.
        n = 256
        grid = sr.GridSpec1D(n=n, p_max=12.0)
        assert traced_peak(grid, a, sr.gaussian_2d(grid)) <= 5 * 8 * n * n

    def test_traced_peak_below_five_grid_arrays_threaded(self, a, monkeypatch):
        # Each thread adds only its own row panels.
        monkeypatch.setattr(sr, "_usable_cores", lambda: 2)
        n = 512
        grid = sr.GridSpec1D(n=n, p_max=12.0)
        assert traced_peak(grid, a, sr.gaussian_2d(grid)) <= 5 * 8 * n * n


class TestLinearity:
    @given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_position_apply_linear(self, alpha, beta):
        grid = sr.GridSpec1D(n=128, p_max=10.0)
        f = sr.gaussian_1d(grid, center=-1.0)
        g = sr.gaussian_1d(grid, center=1.5, width=0.8)
        lhs = sr.snyder_position_apply_1d(alpha * f + beta * g, grid, 1.0)
        rhs = (alpha * sr.snyder_position_apply_1d(f, grid, 1.0)
               + beta * sr.snyder_position_apply_1d(g, grid, 1.0))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(abs(alpha) + abs(beta), 1.0) * 100
