import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon import dirac_dynamics as dd
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


def gaussian_1d(grid, center=0.0, width=1.0):
    """The real witness e^(-((p - center)/width)^2/2); centre 0 and width 1 give
    ``sr.gaussian_1d``, a 1-D factor of the 2-D witness."""
    return np.exp(-(((grid.points - center) / width) ** 2) / 2)


def gaussian_2d(grid, center=(0.0, 0.0), width=1.0):
    """The separable 2-D witness on the whole grid, p_x along axis 0."""
    return np.outer(gaussian_1d(grid, center[0], width), gaussian_1d(grid, center[1], width))


def fft_derivative(f, grid):
    """The full-spectrum reference for d f / dp along axis 0, real or complex f: it keeps
    the imaginary Nyquist term that ``sr.spectral_derivative``'s half spectrum drops."""
    k = 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.dp)
    return np.fft.ifft(1j * k.reshape((-1,) + (1,) * (f.ndim - 1)) * np.fft.fft(f, axis=0),
                       axis=0)


def gradient_2d(g, grid, derivative=sr.spectral_derivative):
    """(d/dp_x, d/dp_y) of a whole 2-D array, p_x along axis 0."""
    return derivative(g, grid), derivative(g.T, grid).T


def position_apply_2d(f, grid, a, axis, derivative=sr.spectral_derivative):
    """x_axis f with x_i = i*(delta_ij + a^2 p_i p_j) d/dp_j, axis 0 = p_x."""
    px, py = grid.points[:, None], grid.points[None, :]
    b = a**2
    diag = (1.0 + b * px * px, 1.0 + b * py * py)[axis]  # IndexError past axis 1
    grad = gradient_2d(f, grid, derivative)
    return 1j * (diag * grad[axis] + b * px * py * grad[1 - axis])


def whole_array_residual_2d(grid, a, f):
    """The 2-D residuals composed on whole n x n arrays, one step after another: 8 real
    derivatives along the rows or columns of 2-D arrays, and no use of f's product form."""
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
    fnorm = np.linalg.norm(f[inner])
    return (float(np.linalg.norm(comm[inner]) / fnorm),
            float(np.linalg.norm(mixed[inner]) / fnorm))


def assert_matches_whole_arrays(got, grid, a, center):
    """Boxes of 2 and 3 witness widths cut the witness off, so where a != 0 the
    residuals are truncation error, shared to about 13 digits.  In the box of 12 they
    sit at or near the roundoff floor, where each composition rounds its own way.  At
    a = 0 d/dp_x and d/dp_y act on separate factors and commute exactly, so only the
    whole-array composition keeps its transforms' roundoff, which grows with n where
    the box cuts the witness off (2.2e-12 at n = 256, p_max 2)."""
    expected = whole_array_residual_2d(grid, a, gaussian_2d(grid, center))
    floor = RESIDUAL_FLOOR * (1 + (a * grid.p_max) ** 2)
    if a == 0.0:
        assert max(got) <= floor
    elif grid.p_max < 12.0:
        assert min(expected) > 1e-6
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)
    else:
        np.testing.assert_allclose(got, expected, rtol=0, atol=floor)


def on_threads(call, count=2):
    """call() on ``count`` threads at once, switching as often as the interpreter
    allows; their results in thread order."""
    results = [None] * count

    def work(i):
        results[i] = call()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return results


def traced_peak(call):
    """Peak traced bytes of call(), on every thread, after a first call has loaded
    numpy.fft."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridSpec:
    def test_spacing(self, grid):
        assert grid.dp == pytest.approx(40.0 / 1024)
        assert grid.points[0] == -20.0
        assert np.allclose(np.diff(grid.points), grid.dp)

    # The grid rules have one home, RunConfig.validate, which checks every grid the CLI
    # builds; GridSpec1D does not repeat them.
    @pytest.mark.parametrize("n", [7, 12, 100, 4])
    def test_rejects_non_power_of_two(self, n):
        for key in ("grid_n", "grid_n_2d"):
            with pytest.raises(ValueError, match=f"^{key.replace('_', '-')} must be a power"):
                RunConfig("snyder", **{key: n}).validate()

    def test_rejects_bad_pmax(self):
        for key in ("p_max", "p_max_2d"):
            with pytest.raises(ValueError, match=f"^{key.replace('_', '-')} must be strictly"):
                RunConfig("snyder", **{key: 0.0}).validate()

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    @pytest.mark.parametrize("p_max", [RunConfig("all").p_max, RunConfig("all").p_max_2d])
    def test_default_grids_mirror_bitwise(self, p_max, n):
        # The Zitterbewegung series sums each distinct frequency 2E(p) once; on the
        # default grids p and -p coincide bit for bit, which halves its work.
        points = sr.GridSpec1D(n=n, p_max=p_max).points
        assert np.array_equal(points[1:][::-1], -points[1:])
        assert len(np.unique(dd.OMEGA_ZB * dd.mode_energy(points))) == n // 2 + 1

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
        f = np.ones(grid.n)
        assert np.max(np.abs(sr.spectral_derivative(f, grid))) <= 1e-12

    def test_fundamental_mode_exact(self, grid):
        k0 = 2 * np.pi / (2 * grid.p_max)
        f = np.sin(k0 * grid.points)
        expected = k0 * np.cos(k0 * grid.points)
        np.testing.assert_allclose(sr.spectral_derivative(f, grid), expected, atol=1e-12)

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
        # rfft/irfft drop the full spectrum's imaginary Nyquist term; the real parts
        # agree.  Axis 1 is differentiated as axis 0 of the transpose.
        f = (gaussian_1d(grid2, center=0.4) if ndim == 1
             else gaussian_2d(grid2, center=(0.5, -0.3)))
        f = f.T if axis else f
        got = sr.spectral_derivative(f, grid2)
        expected = fft_derivative(f, grid2)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, expected.real, rtol=0,
                                   atol=1e-13 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("shape", [(64,), (64, 4)], ids=["1d", "2d"])
    def test_complex_input_rejected(self, shape):
        # A complex field is differentiated as its float view, never as complex input.
        grid = sr.GridSpec1D(n=64, p_max=3.0)
        with pytest.raises(ValueError, match="real"):
            sr.spectral_derivative(np.ones(shape, dtype=complex), grid)

    def test_float_view_of_complex_field(self, grid2):
        # The (Re, Im) pairs of a modulated witness are differentiated side by side; on
        # a resolved witness the result is the full-spectrum one less its Nyquist term.
        g = gaussian_2d(grid2, center=(0.5, -0.3)) * np.exp(1j * grid2.points)[:, None]
        got = sr.spectral_derivative(g.view(float), grid2).view(complex)
        expected = fft_derivative(g, grid2)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))


class TestPositionApply1D:
    def test_undeformed_limit_bitwise(self, grid):
        f = gaussian_1d(grid, center=0.3, width=1.2)
        deformed = sr.snyder_position_apply_1d(f, grid, 0.0)
        canonical = 1j * sr.spectral_derivative(f, grid)
        np.testing.assert_array_equal(deformed, canonical)

    def test_constant_maps_to_zero(self, grid, a):
        f = np.ones(grid.n)
        assert np.max(np.abs(sr.snyder_position_apply_1d(f, grid, a))) <= 1e-10

    def test_gaussian_analytic_oracle(self, grid, a):
        p = grid.points
        f = np.exp(-p**2 / 2)
        expected = 1j * (1 + p**2) * (-p) * np.exp(-p**2 / 2)
        got = sr.snyder_position_apply_1d(f, grid, a)
        assert np.max(np.abs(got - expected)) <= 1e-8


class TestHeisenbergResidual1D:
    def test_centred_helper_is_the_command_witness(self, grid):
        np.testing.assert_array_equal(gaussian_1d(grid), sr.gaussian_1d(grid))

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
        f = gaussian_1d(grid, center=center)
        assert sr.heisenberg_residual_1d(grid, a, f) <= 1e-7

    def test_random_witnesses(self, grid, a):
        rng = np.random.default_rng(1)
        for _ in range(10):
            center = rng.uniform(-5, 5)
            width = rng.uniform(0.5, 2.0)
            f = gaussian_1d(grid, center=center, width=width)
            assert sr.heisenberg_residual_1d(grid, a, f) <= 1e-7


class TestPositionApply2D:
    def test_undeformed_limit(self, grid2):
        f = gaussian_2d(grid2, center=(0.5, -0.3))
        got = position_apply_2d(f, grid2, 0.0, axis=0)
        expected = 1j * sr.spectral_derivative(f, grid2)
        np.testing.assert_array_equal(got, expected)

    def test_cross_term_vanishes_on_axis(self, grid2, a):
        # At p_x = 0 the p_x p_y coefficient vanishes, so x acts as the
        # deformed-diagonal term alone there.
        f = gaussian_2d(grid2)
        got = position_apply_2d(f, grid2, a, axis=0)
        ix = grid2.n // 2  # p_x = 0 row
        diag_only = 1j * sr.spectral_derivative(f, grid2)[ix]
        np.testing.assert_allclose(got[ix], diag_only, atol=1e-10)

    def test_gaussian_analytic_oracle(self, grid2, a):
        px = grid2.points[:, None]
        py = grid2.points[None, :]
        f = np.exp(-(px**2 + py**2) / 2)
        expected = 1j * ((1 + px**2) * (-px) + px * py * (-py)) * f
        got = position_apply_2d(f, grid2, a, axis=0)
        assert np.max(np.abs(got - expected)) <= 1e-8

    def test_bad_axis_rejected(self, grid2, a):
        # The coefficient table has one diagonal entry per axis, so no third axis.
        with pytest.raises(IndexError):
            position_apply_2d(gaussian_2d(grid2), grid2, a, axis=2)


class TestCommutatorResidual2D:
    def test_undeformed_coordinates_commute(self, grid2):
        g = gaussian_1d(grid2)
        r_xy, r_mixed = sr.coordinate_commutator_residual_2d(grid2, 0.0, g, g)
        assert r_xy <= 1e-8
        assert r_mixed <= 1e-8

    def test_deformed_default(self, grid2, a):
        g = gaussian_1d(grid2)
        r_xy, r_mixed = sr.coordinate_commutator_residual_2d(grid2, a, g, g)
        assert r_xy <= 1e-6
        assert r_mixed <= 1e-6

    def test_complex_witness_rejected(self, grid2, a):
        g = gaussian_1d(grid2)
        for u, v in ((g.astype(complex), g), (g, g.astype(complex))):
            with pytest.raises(ValueError, match="real"):
                sr.coordinate_commutator_residual_2d(grid2, a, u, v)

    def test_rotationally_symmetric_witness_annihilated(self, grid2, a):
        # L_z f = i*(p_y df/dp_x - p_x df/dp_y)
        f = gaussian_2d(grid2)
        px = grid2.points[:, None]
        py = grid2.points[None, :]
        df_dpx, df_dpy = gradient_2d(f, grid2)
        lz = 1j * (py * df_dpx - px * df_dpy)
        assert np.max(np.abs(lz)) <= 1e-9

    def test_spectral_convergence(self, a):
        # The composed 2-D operator amplifies roundoff by the coefficient
        # magnitude 1 + (a p_max)^2, so the attainable floor is that
        # multiple of 1e-12 rather than 1e-12 itself.
        floor = 1e-12 * (1 + (a * 12.0) ** 2)
        residuals = []
        for n in (16, 32, 64):
            g = sr.GridSpec1D(n=n, p_max=12.0)
            r_xy, _ = sr.coordinate_commutator_residual_2d(g, a, gaussian_1d(g), gaussian_1d(g))
            residuals.append(r_xy)
        for prev, nxt in zip(residuals, residuals[1:]):
            assert nxt <= prev / 4 or nxt <= floor
        assert residuals[-1] <= floor

    def test_offset_witness(self, grid2, a):
        u, v = gaussian_1d(grid2, center=1.5), gaussian_1d(grid2, center=-2.0)
        r_xy, r_mixed = sr.coordinate_commutator_residual_2d(grid2, a, u, v)
        assert r_xy <= 1e-6
        assert r_mixed <= 1e-6

    @pytest.mark.parametrize("center", [(0.0, 0.0), (1.5, -2.0)], ids=["centred", "offset"])
    @pytest.mark.parametrize("a", [None, 0.0, 0.5], ids=["compton", "a0", "a0.5"])
    def test_matches_twelve_derivative_composition(self, a, center):
        # The residual shares one derivative per distinct factor (8 real 1-D ones);
        # composing it from whole complex x and y applications takes 12 full-spectrum
        # derivatives on 2-D arrays.  The two agree within the roundoff floor of the
        # refinement check.
        grid, a = sr.GridSpec1D(n=64, p_max=12.0), a_prime(a=a)
        px = grid.points[:, None]
        py = grid.points[None, :]
        f = gaussian_2d(grid, center=center).astype(complex)

        def x(g):
            return position_apply_2d(g, grid, a, axis=0, derivative=fft_derivative)

        def y(g):
            return position_apply_2d(g, grid, a, axis=1, derivative=fft_derivative)

        xf, yf = x(f), y(f)
        df_dpx, df_dpy = gradient_2d(f, grid, fft_derivative)
        lz = 1j * (py * df_dpx - px * df_dpy)
        comm = x(yf) - y(xf) - (1j * a**2) * lz
        mixed = x(py * f) - py * xf - 1j * a**2 * px * py * f
        inner = (sr.interior(grid.n),) * 2
        fnorm = np.linalg.norm(f[inner])
        expected = (float(np.linalg.norm(comm[inner]) / fnorm),
                    float(np.linalg.norm(mixed[inner]) / fnorm))
        got = sr.coordinate_commutator_residual_2d(grid, a, *(gaussian_1d(grid, c)
                                                              for c in center))
        bound = RESIDUAL_FLOOR * (1 + (a * grid.p_max) ** 2)
        np.testing.assert_allclose(got, expected, rtol=0, atol=bound)

    @pytest.mark.parametrize("p_max", [2.0, 3.0, 12.0])
    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.3, -0.7)], ids=["centred", "offset"])
    @pytest.mark.parametrize("units", [{}, {"a": 0.0}, {"a": 0.5}, {"hbar": 2.0, "c": 3.0}],
                             ids=["compton", "a0", "a0.5", "hbar2-c3"])
    def test_matches_whole_arrays(self, units, center, n, p_max):
        grid, a = sr.GridSpec1D(n=n, p_max=p_max), a_prime(**units)
        got = sr.coordinate_commutator_residual_2d(grid, a, *(gaussian_1d(grid, c)
                                                              for c in center))
        assert_matches_whole_arrays(got, grid, a, center)

    @pytest.mark.parametrize("units", [{}, {"a": 0.0}, {"a": 0.5}, {"hbar": 2.0, "c": 3.0}],
                             ids=["compton", "a0", "a0.5", "hbar2-c3"])
    def test_threaded_panels_match_whole_arrays_bitwise(self, units):
        # Two threads take the residual of one witness at once.  The call shares no
        # state between calls, so each gives the calling thread's result to the bit,
        # and that matches the whole-array composition.
        grid, a = sr.GridSpec1D(n=512, p_max=12.0), a_prime(**units)
        center = (0.3, -0.7)
        u, v = (gaussian_1d(grid, c) for c in center)
        got = sr.coordinate_commutator_residual_2d(grid, a, u, v)
        assert on_threads(lambda: sr.coordinate_commutator_residual_2d(grid, a, u, v)) == \
            [got, got]
        assert_matches_whole_arrays(got, grid, a, center)

    def test_each_derivative_computed_once(self, a, monkeypatch):
        # Every derivative is of one real length-n factor; on an offset witness there
        # are 8 of them, no factor differentiated twice.
        derivative, taken = sr.spectral_derivative, []

        def recorded(g, grid, *args, **kwargs):
            assert g.ndim == 1 and g.dtype == np.float64 and g.shape == (grid.n,)
            taken.append(g.copy())
            return derivative(g, grid, *args, **kwargs)

        monkeypatch.setattr(sr, "spectral_derivative", recorded)
        for n in (64, 256, 512):
            taken.clear()
            grid = sr.GridSpec1D(n=n, p_max=12.0)
            sr.coordinate_commutator_residual_2d(grid, a, gaussian_1d(grid, 0.3),
                                                 gaussian_1d(grid, -0.7))
            assert len(taken) == 8
            assert not any(np.array_equal(g, h) for i, g in enumerate(taken)
                           for h in taken[:i])

    def test_overflow_in_assembly_raises(self):
        # The factors and their derivatives stay in range, but the (1 + 100 p^2)^2 growth
        # of a product term does not: the assembling matmul raises under np.errstate.
        grid = sr.GridSpec1D(n=64, p_max=12.0)
        g = 1e153 * gaussian_1d(grid)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError,
                                                      match="overflow encountered in matmul"):
            sr.coordinate_commutator_residual_2d(grid, 10.0, g, g)

    @pytest.mark.parametrize("scales", [(1e153, 1e153), (1e155, 1e-10)],
                             ids=["factors-near-1e153", "only-witness-norm-overflows"])
    def test_ratio_survives_overflowing_norms(self, scales):
        # The residuals are relative, so scaling the witness leaves them.  Near 1e153 the
        # witness norm ||u|| ||v|| stays in range but the squares of the assembled operands
        # overflow; at 1e155 x 1e-10 the operands' norms stay in range but ||u|| is inf,
        # which must not turn the ratio into 0.  Both take the rescaled quotient.
        grid, a = sr.GridSpec1D(n=64, p_max=3.0), 0.5
        g = gaussian_1d(grid)
        u, v = (scale * g for scale in scales)
        with np.errstate(over="ignore"):
            witness_norm = np.linalg.norm(u) * np.linalg.norm(v)
        assert (witness_norm < np.inf) == (scales[0] == 1e153)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sr.coordinate_commutator_residual_2d(grid, a, u, v)
        expected = sr.coordinate_commutator_residual_2d(grid, a, g, g)
        assert min(expected) > 1e-3
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, cores", [(256, 2), (512, 1), (512, 2)],
                             ids=["four-panels", "one-core", "sixteen-panels"])
    def test_worker_thread_only_when_split(self, a, started_threads, usable_cores, n, cores):
        # The residual never splits its work, so it starts no worker thread at any grid
        # size (the ids count 64-row panels) or number of usable cores.
        usable_cores(cores)
        grid = sr.GridSpec1D(n=n, p_max=12.0)
        g = gaussian_1d(grid)
        sr.coordinate_commutator_residual_2d(grid, a, g, g)
        assert not started_threads

    @pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "caller"])
    def test_overflow_raised_on_calling_thread(self, started_threads, on_worker):
        # np.errstate is local to a thread.  The overflow raises under the errstate of
        # the thread that calls, here set only there, and on that thread.
        grid = sr.GridSpec1D(n=64, p_max=12.0)
        g = 1e153 * gaussian_1d(grid)

        def call():
            with np.errstate(over="raise"):
                try:
                    sr.coordinate_commutator_residual_2d(grid, 10.0, g, g)
                except FloatingPointError as exc:
                    return threading.current_thread(), str(exc)

        with np.errstate(over="ignore"):
            thread, message = on_threads(call, count=1)[0] if on_worker else call()
        assert "overflow" in message
        assert (thread is threading.main_thread()) != on_worker
        assert len(started_threads) == on_worker

    def test_traced_peak_below_five_grid_arrays(self, a):
        # One assembled operand is the largest array, and the witness norm comes from its
        # factors, so the peak stays within 2 interior arrays, well below five n x n ones.
        n = 512
        grid = sr.GridSpec1D(n=n, p_max=12.0)
        m = len(range(n)[sr.interior(n)])
        g = gaussian_1d(grid)
        assert traced_peak(lambda: sr.coordinate_commutator_residual_2d(grid, a, g, g)) \
            <= 2 * 8 * m * m

    def test_traced_peak_below_five_grid_arrays_threaded(self, a):
        # Two calls at once on two threads each hold only their own arrays: 4 interior
        # arrays at most, 2.6 n x n ones.
        n = 512
        grid = sr.GridSpec1D(n=n, p_max=12.0)
        m = len(range(n)[sr.interior(n)])
        g = gaussian_1d(grid)
        peak = traced_peak(lambda: on_threads(
            lambda: sr.coordinate_commutator_residual_2d(grid, a, g, g)))
        assert peak <= 2 * 2 * 8 * m * m < 5 * 8 * n * n


class TestLinearity:
    @given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_position_apply_linear(self, alpha, beta):
        grid = sr.GridSpec1D(n=128, p_max=10.0)
        f = gaussian_1d(grid, center=-1.0)
        g = gaussian_1d(grid, center=1.5, width=0.8)
        lhs = sr.snyder_position_apply_1d(alpha * f + beta * g, grid, 1.0)
        rhs = (alpha * sr.snyder_position_apply_1d(f, grid, 1.0)
               + beta * sr.snyder_position_apply_1d(g, grid, 1.0))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(abs(alpha) + abs(beta), 1.0) * 100
