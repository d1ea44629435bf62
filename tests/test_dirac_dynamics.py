import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon import dirac_dynamics as dd
from chronon import gamma_algebra as ga
from chronon.gamma_algebra import PhysicalParams
from chronon.snyder_rep import GridSpec1D

PARAMS = PhysicalParams()
GRID = GridSpec1D(n=1024, p_max=20.0)
SEED = (1.0, 0.0, 1.0, 0.0)


def expect_energy(field):
    """<psi|H|psi> summed over the momentum grid."""
    h_amps = dd._apply_hamiltonian(field.amps, field.grid.points, field.params)
    return float(np.real(np.sum(np.conj(field.amps) * h_amps)) * field.grid.dp)


def norm(field):
    """sqrt(sum |psi|^2 dp) over the momentum grid."""
    return float(np.sqrt(np.sum(np.abs(field.amps) ** 2) * field.grid.dp))


@pytest.fixture(scope="module")
def mixed():
    return dd.init_packet(GRID, PARAMS, 0.0, 0.1, "mixed", SEED)


@pytest.fixture(scope="module")
def positive():
    return dd.init_packet(GRID, PARAMS, 0.0, 0.1, "positive", SEED)


@pytest.fixture(scope="module")
def mixed_series(mixed):
    return dd.position_series(mixed, 50.0, 4096)


@pytest.fixture(scope="module")
def positive_series(positive):
    return dd.position_series(positive, 50.0, 4096)


def energy_projectors(p, params):
    """(Lambda_plus, Lambda_minus) = (I +- H/E)/2 for momentum p along z."""
    h = ga.free_hamiltonian(ga.build_dirac_set(params), params, (0.0, 0.0, p))
    e = dd.mode_energy(p, params)
    eye = np.eye(4, dtype=complex)
    return (eye + h / e) / 2, (eye - h / e) / 2


class TestProjectors:
    def test_rest_frame(self):
        lp, lm = energy_projectors(0.0, PARAMS)
        np.testing.assert_allclose(lp, np.diag([1, 1, 0, 0]), atol=1e-15)
        np.testing.assert_allclose(lm, np.diag([0, 0, 1, 1]), atol=1e-15)

    @pytest.mark.parametrize("p", [-3.0, 0.0, 0.7, 12.0])
    def test_projector_algebra(self, p):
        lp, lm = energy_projectors(p, PARAMS)
        eye = np.eye(4)
        assert np.linalg.norm(lp + lm - eye) <= 1e-12
        assert np.linalg.norm(lp @ lp - lp) <= 1e-12
        assert np.linalg.norm(lp @ lm) <= 1e-12
        assert abs(np.trace(lp) - 2) <= 1e-12

    def test_unit_momentum_eigenvalues(self):
        lp, _ = energy_projectors(1.0, PARAMS)
        vals = np.linalg.eigvalsh(lp)
        np.testing.assert_allclose(vals, [0, 0, 1, 1], atol=1e-12)

    def test_mode_hamiltonian_spectrum(self):
        h = ga.free_hamiltonian(ga.build_dirac_set(PARAMS), PARAMS, (0.0, 0.0, 0.8))
        e = dd.mode_energy(0.8, PARAMS)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-e, -e, e, e], atol=1e-12)


class TestOneHamiltonian:
    @pytest.mark.parametrize("mass", [0.5, 1.0, 3.0])
    def test_dynamics_applies_free_hamiltonian(self, mass):
        # The dynamics applies the same H(p) = c alpha_z p + beta m c^2 as the
        # algebra layer, row by row on random spinors.
        params = PhysicalParams(m=mass, c=1.5)
        dset = ga.build_dirac_set(params)
        rng = np.random.default_rng(11)
        p = np.array([-7.0, -0.3, 0.0, 0.25, 4.0])
        amps = rng.normal(size=(len(p), 4)) + 1j * rng.normal(size=(len(p), 4))
        h_amps = dd._apply_hamiltonian(amps, p, params)
        for i, p_i in enumerate(p):
            expected = ga.free_hamiltonian(dset, params, (0.0, 0.0, p_i)) @ amps[i]
            np.testing.assert_allclose(h_amps[i], expected, rtol=0, atol=1e-13)


class TestInitPacket:
    def test_unit_norm(self, mixed, positive):
        assert abs(norm(mixed) - 1) <= 1e-12
        assert abs(norm(positive) - 1) <= 1e-12

    def test_positive_mode_annihilated_by_minus_projector(self, positive):
        p = GRID.points
        h_amps = dd._apply_hamiltonian(positive.amps, p, PARAMS)
        e = dd.mode_energy(p, PARAMS)
        minus = (positive.amps - h_amps / e[:, None]) / 2
        assert np.max(np.abs(minus)) <= 1e-12

    def test_rest_seed_mixes_branches(self):
        # (1,0,0,0) is the beta eigenvector at p=0; finite momentum spread
        # gives it O(p/mc) negative-energy weight.
        f = dd.init_packet(GRID, PARAMS, 0.0, 0.1, "mixed", (1, 0, 0, 0))
        p = GRID.points
        h_amps = dd._apply_hamiltonian(f.amps, p, PARAMS)
        e = dd.mode_energy(p, PARAMS)
        plus = (f.amps + h_amps / e[:, None]) / 2
        minus = (f.amps - h_amps / e[:, None]) / 2
        w_plus = np.sum(np.abs(plus) ** 2) * GRID.dp
        w_minus = np.sum(np.abs(minus) ** 2) * GRID.dp
        assert w_plus > 0.9
        assert 0 < w_minus < 0.1

    def test_narrow_sigma_rejected(self):
        with pytest.raises(ValueError):
            dd.init_packet(GRID, PARAMS, 0.0, GRID.dp, "mixed", SEED)

    def test_boundary_violation_rejected(self):
        with pytest.raises(ValueError):
            dd.init_packet(GRID, PARAMS, 18.0, 1.0, "mixed", SEED)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            dd.init_packet(GRID, PARAMS, 0.0, 0.1, "projected", SEED)

    @pytest.mark.parametrize("mode", ["mixed", "positive"])
    def test_zero_rest_energy_rejected(self, mode):
        # (m c^2)^2 underflows to 0, so the p = 0 mode has E = 0.
        with pytest.raises(ValueError, match="mode energy"):
            dd.init_packet(GRID, PhysicalParams(m=1e-300), 0.0, 0.1, mode, SEED)


class TestEvolve:
    def test_t_zero_identity(self, mixed):
        np.testing.assert_array_equal(dd.evolve(mixed, 0.0).amps, mixed.amps)

    def test_plane_mode_phase(self):
        # A positive-energy amplitude at momentum p picks up exp(-i E t / hbar).
        f = dd.init_packet(GRID, PARAMS, 0.5, 0.1, "positive", SEED)
        t = 3.7
        ev = dd.evolve(f, t)
        e = dd.mode_energy(GRID.points, PARAMS)
        expected = np.exp(-1j * e * t)[:, None] * f.amps
        assert np.max(np.abs(ev.amps - expected)) <= 1e-12

    def test_group_property(self, mixed):
        lhs = dd.evolve(dd.evolve(mixed, 1.3), 2.1)
        rhs = dd.evolve(mixed, 3.4)
        assert np.max(np.abs(lhs.amps - rhs.amps)) <= 1e-12

    def test_norm_conserved_long_time(self, mixed):
        assert abs(norm(dd.evolve(mixed, 1000.0)) - 1) <= 1e-12

    def test_energy_conserved_long_time(self, mixed):
        e0 = expect_energy(mixed)
        e1 = expect_energy(dd.evolve(mixed, 1000.0))
        assert abs(e1 - e0) <= 1e-10 * abs(e0)


class TestExpectPosition:
    def test_symmetric_packet_at_origin(self, mixed):
        assert abs(dd.expect_position(mixed)) <= 1e-8

    def test_imaginary_part_diagnostic(self, mixed):
        assert abs(dd.position_expectation(mixed).imag) <= 1e-8

    def test_translation_shifts_expectation(self, mixed):
        eps = 0.37
        phase = np.exp(-1j * eps * GRID.points / PARAMS.hbar)
        shifted = dd.SpinorMomentumField(grid=GRID, amps=phase[:, None] * mixed.amps,
                                         params=PARAMS)
        assert dd.expect_position(shifted) - dd.expect_position(mixed) == pytest.approx(eps, abs=1e-9)

    def test_drift_matches_group_velocity(self):
        # <x>(t) = <c^2 p / E> t for a positive-energy packet; the group
        # velocity oracle is quadrature of c^2 p / E over |psi|^2.
        f = dd.init_packet(GRID, PARAMS, 0.5, 0.1, "positive", SEED)
        p = GRID.points
        e = dd.mode_energy(p, PARAMS)
        weights = np.sum(np.abs(f.amps) ** 2, axis=1) * GRID.dp
        v_group = float(np.sum(weights * PARAMS.c**2 * p / e))
        t = 10.0
        drift = dd.expect_position(dd.evolve(f, t)) - dd.expect_position(f)
        assert drift == pytest.approx(v_group * t, abs=1e-6)


class TestZbDecomposition:
    """The per-mode Heisenberg weights behind position_series."""

    def test_positive_packet_has_no_zb(self, positive):
        _, _, weights = dd._zb_weights(positive)
        assert np.max(np.abs(weights)) <= 1e-10

    def test_rest_packet_bounded_by_matrix_norm(self, mixed):
        # The ZB term of <x>(t) is <Z>(t) = Re sum_p C_p e^{i omega_p t}.
        bound = dd.zb_operator_norm_at_rest(PARAMS)
        assert bound == 0.5
        _, omega, weights = dd._zb_weights(mixed)
        amplitudes = [abs(np.sum(weights * np.exp(1j * omega * t)).real)
                      for t in np.linspace(0, np.pi, 16)]
        assert max(amplitudes) <= bound + 1e-10
        assert max(amplitudes) > 0.1  # interference is actually present

    def test_zb_matrix_norm_halves_with_doubled_mass(self):
        heavy = PhysicalParams(m=2.0)
        assert dd.zb_operator_norm_at_rest(heavy) == 0.25
        assert dd.zb_operator_norm_at_rest(PARAMS) / 2 == dd.zb_operator_norm_at_rest(heavy)

    def test_drift_rate_matches_positive_expectation(self, positive):
        drift, _, _ = dd._zb_weights(positive)
        p = GRID.points
        e = dd.mode_energy(p, PARAMS)
        weights = np.sum(np.abs(positive.amps) ** 2, axis=1) * GRID.dp
        assert drift == pytest.approx(float(np.sum(weights * p / e)), abs=1e-12)


class TestPositionSeries:
    def test_degenerate_t_max(self, mixed):
        s = dd.position_series(mixed, 0.0, 1)
        assert len(s.times) == 1
        assert s.values[0] == dd.expect_position(mixed)

    def test_undersampling_rejected(self, mixed):
        with pytest.raises(ValueError, match="undersample"):
            dd.position_series(mixed, 50.0, 64)

    def test_positive_series_is_pure_drift(self, positive_series):
        meas = dd.measure_oscillation(positive_series)
        assert not meas.detected
        assert dd.amplitude_at(positive_series, dd.zb_frequency(PARAMS)) <= 1e-8

    def test_mixed_series_oscillates_at_zb_frequency(self, mixed_series):
        meas = dd.measure_oscillation(mixed_series)
        assert meas.detected
        assert meas.omega == pytest.approx(dd.zb_frequency(PARAMS), rel=0.01)
        assert meas.amplitude <= dd.zb_operator_norm_at_rest(PARAMS)

    def test_dichotomy(self, mixed_series, positive_series):
        omega = dd.zb_frequency(PARAMS)
        mixed_amp = dd.measure_oscillation(mixed_series).amplitude
        pos_amp = dd.amplitude_at(positive_series, omega)
        assert mixed_amp / max(pos_amp, 1e-300) >= 1e6


class TestSeriesPaths:
    """position_series against expect_position(evolve(f, t)) at sampled times."""

    @staticmethod
    def assert_matches_evolution(f, series, every):
        n = len(series.times)
        sampled = np.unique(np.r_[np.arange(0, n, every), n - 1])
        reference = [dd.expect_position(dd.evolve(f, t)) for t in series.times[sampled]]
        np.testing.assert_allclose(series.values[sampled], reference, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mode, n, p0, sigma_p, mass", [
        ("mixed", 1024, 0.0, 0.1, 1.0),
        ("positive", 1024, 0.0, 0.1, 1.0),
        ("mixed", 1024, 0.5, 0.1, 1.0),
        ("mixed", 1024, 0.0, 0.1, 2.0),
        ("mixed", 2048, 0.0, 2.0, 1.0),
    ], ids=["default-mixed", "default-positive", "p0-0.5", "m-2", "packet-wide"])
    def test_paths_match_per_time_evolution(self, mode, n, p0, sigma_p, mass):
        params = PhysicalParams(m=mass)
        f = dd.init_packet(GridSpec1D(n=n, p_max=20.0), params, p0, sigma_p, mode, SEED)
        # Every 130th of 4096 times spans many blocks of 16 x 16 times.
        self.assert_matches_evolution(f, dd.position_series(f, 50.0, 4096), 130)

    def test_partial_last_block(self, mixed):
        # 4097 = 16 * 256 + 1 times: the last block holds a single time.
        series = dd.position_series(mixed, 50.0, 4097)
        assert len(series.values) == 4097 and series.times[-1] == 50.0
        self.assert_matches_evolution(mixed, series, 97)

    def test_one_sample_with_positive_t_max(self, mixed):
        series = dd.position_series(mixed, 0.1, 1)
        np.testing.assert_array_equal(series.times, [0.0])
        assert series.values[0] == dd.expect_position(mixed)

    @pytest.mark.parametrize("p0, t_max", [(3.0, 100.0), (0.0, 200.0)])
    def test_packet_wrapping_around_the_box_rejected(self, p0, t_max):
        f = dd.init_packet(GRID, PARAMS, p0, 0.1, "mixed", SEED)
        with pytest.raises(ValueError, match="wraps around the position box"):
            dd.position_series(f, t_max, 8192)


def full_mode_series(field, t_max, n_samples):
    """<x>(t) from ``_zb_weights`` summed over every mode, zero weights included.

    The phases factor as in ``position_series``, e^{i w (i B dt)} e^{i w (k dt)}
    for t = (i B + k) dt, so only the order of the sum differs.
    """
    v, omega, weights = dd._zb_weights(field)
    times = np.linspace(0.0, t_max, n_samples)
    dt = t_max / (n_samples - 1)
    block = dd._BLOCK
    zb = [np.sum(weights * np.exp(1j * (i * (block * dt) * omega))
                 * np.exp(1j * (omega * (k * dt))))
          for i, k in (divmod(j, block) for j in range(n_samples))]
    return dd.expect_position(field) - weights.sum().real + v * times + np.real(zb)


class TestZeroWeightModes:
    """position_series skips the modes whose weight is exactly 0."""

    @pytest.mark.parametrize("mode, n, sigma_p, t_max, has_zeros", [
        ("mixed", 1024, 0.1, 50.0, True),
        ("positive", 1024, 0.1, 50.0, True),
        ("mixed", 2048, 2.0, 25.0, False),
    ], ids=["default-mixed", "default-positive", "packet-wide"])
    def test_matches_full_mode_sum(self, mode, n, sigma_p, t_max, has_zeros):
        f = dd.init_packet(GridSpec1D(n=n, p_max=20.0), PARAMS, 0.0, sigma_p, mode, SEED)
        _, _, weights = dd._zb_weights(f)
        # The default packet's envelope underflows, so the skip is exercised;
        # packet-wide's has no zero weight and takes every mode as before.
        assert bool(np.any(weights == 0)) == has_zeros
        series = dd.position_series(f, t_max, 1024)
        reference = full_mode_series(f, t_max, 1024)
        np.testing.assert_array_less(np.abs(series.values - reference),
                                     1e-15 * np.maximum(1.0, np.abs(reference)))


class TestSlidingAverage:
    def test_constant_series_unchanged(self):
        t = np.linspace(0, 10, 256)
        s = dd.TimeSeries(times=t, values=np.full_like(t, 3.25))
        out = dd.sliding_average(s, 1.0)
        np.testing.assert_allclose(out.values, 3.25, atol=1e-13)
        assert len(out.times) < len(t)

    def test_full_period_average_kills_sinusoid(self):
        t = np.linspace(0, 100, 4096)
        s = dd.TimeSeries(times=t, values=0.1 * np.sin(2 * t))
        out = dd.sliding_average(s, np.pi)
        assert dd.amplitude_at(out, 2.0) <= 0.002

    def test_compton_window_sinc_attenuation(self):
        t = np.linspace(0, 100, 4096)
        s = dd.TimeSeries(times=t, values=0.1 * np.sin(2 * t))
        out = dd.sliding_average(s, 1.0)
        expected = 0.1 * abs(np.sin(1.0) / 1.0)
        assert dd.amplitude_at(out, 2.0) == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
    def test_sinc_attenuation_generic(self, omega):
        # >= 16 samples per window keeps the top-hat response within 2% of
        # |sinc(omega * window / 2)|.
        t = np.linspace(0, 200, 8192)
        s = dd.TimeSeries(times=t, values=np.sin(omega * t))
        window = 2.0
        out = dd.sliding_average(s, window)
        # Compare against the realized (sample-quantized) window, which can
        # differ from the request by up to one sample spacing.
        w_eff = dd.window_samples(s.dt, window) * s.dt
        expected = abs(np.sin(omega * w_eff / 2) / (omega * w_eff / 2))
        assert dd.amplitude_at(out, omega) == pytest.approx(expected, rel=0.02)

    def test_short_window_rejected(self):
        t = np.linspace(0, 10, 64)
        s = dd.TimeSeries(times=t, values=np.sin(t))
        with pytest.raises(ValueError):
            dd.sliding_average(s, 0.5 * s.dt)

    def test_window_longer_than_series_rejected(self):
        t = np.linspace(0, 10, 64)
        s = dd.TimeSeries(times=t, values=np.sin(t))
        with pytest.raises(ValueError, match=r"window 12 .*span 10"):
            dd.sliding_average(s, 12.0)
        assert len(dd.sliding_average(s, 10.0).values) == 2  # k = 63 of 64 samples


class TestMeasureOscillation:
    def test_synthetic_sinusoid(self):
        t = np.linspace(0, 100, 512)
        s = dd.TimeSeries(times=t, values=0.1 * np.sin(2 * t))
        meas = dd.measure_oscillation(s)
        assert meas.detected
        assert meas.omega == pytest.approx(2.0, rel=0.01)
        assert meas.amplitude == pytest.approx(0.1, rel=0.02)

    def test_pure_drift_not_detected(self):
        t = np.linspace(0, 100, 512)
        s = dd.TimeSeries(times=t, values=0.3 * t)
        meas = dd.measure_oscillation(s)
        assert not meas.detected
        assert meas.amplitude == 0.0

    def test_short_series_rejected(self):
        t = np.linspace(0, 1, 8)
        with pytest.raises(ValueError):
            dd.measure_oscillation(dd.TimeSeries(times=t, values=np.sin(t)))

    @given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, np.inf, np.nan])),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_median_is_np_median_bitwise(self, values):
        # Ties, signed zeros, infinities and NaN payloads included; inf - inf and
        # overflowing means give the same nan or inf on both sides.
        values = np.array(values)
        with np.errstate(all="ignore"):
            expected, got = np.median(values), dd._median(values)
        assert type(got) is np.float64
        assert got.tobytes() == expected.tobytes()

    def test_frequency_scales_with_mass(self):
        heavy = PhysicalParams(m=2.0)
        grid = GridSpec1D(n=1024, p_max=20.0)
        f = dd.init_packet(grid, heavy, 0.0, 0.1, "mixed", SEED)
        series = dd.position_series(f, 25.0, 4096)
        meas = dd.measure_oscillation(series)
        assert meas.omega == pytest.approx(dd.zb_frequency(heavy), rel=0.01)


class TestAveragingSuppression:
    def test_zb_period_window_suppresses_100x(self, mixed_series):
        omega = dd.zb_frequency(PARAMS)
        raw = dd.amplitude_at(mixed_series, omega)
        out = dd.sliding_average(mixed_series, 2 * np.pi / omega)
        assert raw / max(dd.amplitude_at(out, omega), 1e-300) >= 100

    def test_compton_window_matches_sinc(self, mixed_series):
        omega = dd.zb_frequency(PARAMS)
        raw = dd.amplitude_at(mixed_series, omega)
        out = dd.sliding_average(mixed_series, PARAMS.compton_time())
        ratio = dd.amplitude_at(out, omega) / raw
        assert ratio == pytest.approx(abs(np.sin(1.0)), rel=0.05)

    def test_averaged_slope_matches_drift(self):
        f = dd.init_packet(GRID, PARAMS, 0.5, 0.1, "positive", SEED)
        series = dd.position_series(f, 50.0, 4096)
        averaged = dd.sliding_average(series, PARAMS.compton_time())
        slope = np.polyfit(averaged.times, averaged.values, 1)[0]
        drift, _, _ = dd._zb_weights(f)
        assert slope == pytest.approx(drift, rel=1e-4)


class TestTimeSeries:
    def test_rejects_nonuniform_times(self):
        with pytest.raises(ValueError):
            dd.TimeSeries(times=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            dd.TimeSeries(times=np.array([0.0, -1.0, -2.0]), values=np.zeros(3))
