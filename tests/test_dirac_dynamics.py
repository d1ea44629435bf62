import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon import dirac_dynamics as dd
from chronon import gamma_algebra as ga
from chronon.config import FREQUENCY, LENGTH, MOMENTUM, TIME, ConfigError, RunConfig
from chronon.snyder_rep import GridSpec1D, spectral_derivative

# Compton units: momenta in units of m c, times in hbar/(m c^2), positions in hbar/(m c).
GRID = GridSpec1D(n=1024, p_max=20.0)
SEED = (1.0, 0.0, 1.0, 0.0)
OMEGA_ZB = 2.0  # the rest-frame Zitterbewegung frequency 2 m c^2/hbar
ZB_NORM = 0.5  # the Zitterbewegung operator norm at rest, hbar/(2 m c)


def expect_energy(field):
    """<psi|H|psi> summed over the momentum grid."""
    h_amps = dd._apply_hamiltonian(field.amps, field.grid.points)
    return float(np.real(np.sum(np.conj(field.amps) * h_amps)) * field.grid.dp)


def norm(field):
    """sqrt(sum |psi|^2 dp) over the momentum grid."""
    return float(np.sqrt(np.sum(np.abs(field.amps) ** 2) * field.grid.dp))


@pytest.fixture(scope="module")
def mixed():
    return dd.init_packet(GRID, 0.0, 0.1, "mixed", SEED)


@pytest.fixture(scope="module")
def positive():
    return dd.init_packet(GRID, 0.0, 0.1, "positive", SEED)


@pytest.fixture(scope="module")
def mixed_series(mixed):
    return dd.position_series(mixed, 50.0, 4096)


@pytest.fixture(scope="module")
def positive_series(positive):
    return dd.position_series(positive, 50.0, 4096)


def energy_projectors(p):
    """(Lambda_plus, Lambda_minus) = (I +- H/E)/2 for momentum p along z."""
    h = ga.free_hamiltonian((0.0, 0.0, p))
    e = dd.mode_energy(p)
    eye = np.eye(4, dtype=complex)
    return (eye + h / e) / 2, (eye - h / e) / 2


class TestProjectors:
    def test_rest_frame(self):
        lp, lm = energy_projectors(0.0)
        np.testing.assert_allclose(lp, np.diag([1, 1, 0, 0]), atol=1e-15)
        np.testing.assert_allclose(lm, np.diag([0, 0, 1, 1]), atol=1e-15)

    @pytest.mark.parametrize("p", [-3.0, 0.0, 0.7, 12.0])
    def test_projector_algebra(self, p):
        lp, lm = energy_projectors(p)
        eye = np.eye(4)
        assert np.linalg.norm(lp + lm - eye) <= 1e-12
        assert np.linalg.norm(lp @ lp - lp) <= 1e-12
        assert np.linalg.norm(lp @ lm) <= 1e-12
        assert abs(np.trace(lp) - 2) <= 1e-12

    def test_unit_momentum_eigenvalues(self):
        lp, _ = energy_projectors(1.0)
        vals = np.linalg.eigvalsh(lp)
        np.testing.assert_allclose(vals, [0, 0, 1, 1], atol=1e-12)

    def test_mode_hamiltonian_spectrum(self):
        h = ga.free_hamiltonian((0.0, 0.0, 0.8))
        e = dd.mode_energy(0.8)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), [-e, -e, e, e], atol=1e-12)


class TestOneHamiltonian:
    @pytest.mark.parametrize("mass", [0.5, 1.0, 3.0])
    def test_dynamics_applies_free_hamiltonian(self, mass):
        # The dynamics applies the same H(p) = alpha_z p + beta as the algebra layer,
        # row by row on random spinors, at momenta given in the units of m = mass,
        # c = 1.5 and converted at the edge into units of m c.
        cfg = RunConfig("zitterbewegung", mass=mass, c=1.5)
        rng = np.random.default_rng(11)
        p = np.array([cfg.to_compton(p, MOMENTUM) for p in (-7.0, -0.3, 0.0, 0.25, 4.0)])
        amps = rng.normal(size=(len(p), 4)) + 1j * rng.normal(size=(len(p), 4))
        h_amps = dd._apply_hamiltonian(amps, p)
        for i, p_i in enumerate(p):
            expected = ga.free_hamiltonian((0.0, 0.0, p_i)) @ amps[i]
            np.testing.assert_allclose(h_amps[i], expected, rtol=0, atol=1e-13)


class TestInitPacket:
    def test_unit_norm(self, mixed, positive):
        assert abs(norm(mixed) - 1) <= 1e-12
        assert abs(norm(positive) - 1) <= 1e-12

    def test_positive_mode_annihilated_by_minus_projector(self, positive):
        p = GRID.points
        h_amps = dd._apply_hamiltonian(positive.amps, p)
        e = dd.mode_energy(p)
        minus = (positive.amps - h_amps / e[:, None]) / 2
        assert np.max(np.abs(minus)) <= 1e-12

    def test_rest_seed_mixes_branches(self):
        # (1,0,0,0) is the beta eigenvector at p=0; finite momentum spread
        # gives it O(p/mc) negative-energy weight.
        f = dd.init_packet(GRID, 0.0, 0.1, "mixed", (1, 0, 0, 0))
        p = GRID.points
        h_amps = dd._apply_hamiltonian(f.amps, p)
        e = dd.mode_energy(p)
        plus = (f.amps + h_amps / e[:, None]) / 2
        minus = (f.amps - h_amps / e[:, None]) / 2
        w_plus = np.sum(np.abs(plus) ** 2) * GRID.dp
        w_minus = np.sum(np.abs(minus) ** 2) * GRID.dp
        assert w_plus > 0.9
        assert 0 < w_minus < 0.1

    def test_narrow_sigma_rejected(self):
        # validate holds sigma-p to 2 grid steps before a packet is built: GRID's
        # step is that of the default p-max and grid-n.
        RunConfig("zitterbewegung", sigma_p=2 * GRID.dp).validate()
        with pytest.raises(ConfigError, match=r"^sigma-p must be at least 2 grid steps 2 "
                                              r"p-max/grid-n, got sigma-p=0.0390625, p-max=20, "
                                              r"grid-n=1024$"):
            RunConfig("zitterbewegung", sigma_p=GRID.dp).validate()

    def test_boundary_violation_rejected(self):
        # |p0| + 6 sigma-p may reach p-max, not pass it.
        RunConfig("zitterbewegung", p0=-14.0, sigma_p=1.0).validate()
        with pytest.raises(ConfigError, match=r"^\|p0\| \+ 6 sigma-p must be at most p-max, "
                                              r"got p0=18, sigma-p=1, p-max=20$"):
            RunConfig("zitterbewegung", p0=18.0, sigma_p=1.0).validate()

    @pytest.mark.parametrize("scale", [1e-200, 0.5, 1e200, 1.5e308, 2 ** -1074])
    @pytest.mark.parametrize("seed", [SEED, (1 + 1j, 0, 1j, 0)], ids=["real", "complex"])
    @pytest.mark.parametrize("mode", ["mixed", "positive"])
    def test_seed_scale_is_divided_out(self, mode, seed, scale):
        # The seed is a direction: it is scaled to a largest |Re| or |Im| of 1 before the
        # envelope, so a multiple of it is the same packet, bit for bit, even where the
        # magnitude |1.5e308 (1 + i)| is beyond the float range.
        with np.errstate(over="raise", invalid="raise", divide="raise"):  # as the CLI runs
            f = dd.init_packet(GRID, 0.0, 0.1, mode, tuple(scale * x for x in seed))
        assert np.array_equal(f.amps, dd.init_packet(GRID, 0.0, 0.1, mode, seed).amps)

    @pytest.mark.parametrize("mode", ["mixed", "positive"])
    def test_narrow_packet_keeps_its_norm(self, mode):
        # The unnormalised norm of a packet this narrow is about 1e-15; a mixed packet
        # is never projected, and a positive one keeps half of it.
        f = dd.init_packet(GridSpec1D(n=1024, p_max=1e-28), 0.0, 1e-30, mode, SEED)
        assert abs(norm(f) - 1) <= 1e-12

    def test_annihilating_projection_rejected(self):
        # The seed (0, 0, 1, 0) has negative energy at rest; on a box of 1e-15 m c its
        # positive part, about p/2, keeps less than 1e-14 of the norm.
        with pytest.raises(ValueError, match="annihilated"):
            dd.init_packet(GridSpec1D(n=32, p_max=1e-15), 0.0, 1.5e-16, "positive",
                           (0, 0, 1, 0))

    @pytest.mark.parametrize("mode", ["mixed", "positive"])
    def test_zero_rest_energy_rejected(self, mode):
        # In user units (m c^2)^2 underflows to 0 at m = 1e-300 and the p = 0 mode
        # would have E = 0; such a mass is rejected where it is converted, and in
        # Compton units every mode has H^2 = E^2 >= 1.
        with pytest.raises(ConfigError, match=r"^p-max\^2/\(mass c\)\^2 is out of"):
            RunConfig("zitterbewegung", mass=1e-300).validate()
        f = dd.init_packet(GRID, 0.0, 0.1, mode, SEED)
        assert np.all(dd.mode_energy(f.grid.points) >= 1.0)
        h_amps = dd._apply_hamiltonian(f.amps, f.grid.points)
        assert norm(dd.SpinorMomentumField(GRID, h_amps)) ** 2 >= 1.0 - 1e-12


class TestEvolve:
    def test_t_zero_identity(self, mixed):
        np.testing.assert_array_equal(dd.evolve(mixed, 0.0).amps, mixed.amps)

    def test_plane_mode_phase(self):
        # A positive-energy amplitude at momentum p picks up exp(-i E t / hbar).
        f = dd.init_packet(GRID, 0.5, 0.1, "positive", SEED)
        t = 3.7
        ev = dd.evolve(f, t)
        e = dd.mode_energy(GRID.points)
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

    def test_imaginary_part_diagnostic(self):
        # <psi| i d/dp |psi> is real for a packet well inside the box; expect_position
        # keeps only its real part, so the imaginary part is taken here, on the float view
        # of a packet with complex amplitudes.
        field = dd.init_packet(GRID, 0.7, 0.1, "mixed", (1, 1j, 0, 1))
        deriv = spectral_derivative(field.amps.view(float), GRID).view(complex)
        assert abs(np.sum(np.conj(field.amps) * (1j * deriv)).imag * GRID.dp) <= 1e-8

    @pytest.mark.parametrize("p0", [-3.0, -0.4, 0.0, 1.3, 5.0])
    @pytest.mark.parametrize("mode", ["mixed", "positive"])
    def test_real_amplitudes_at_origin_exactly(self, mode, p0):
        # A real seed makes every amplitude real, the Fourier transform of a real packet
        # is Hermitian, and <x> = Re <psi| i d/dp |psi> is exactly 0 at any p0: the real
        # half spectrum has no imaginary Nyquist term to leave a roundoff offset.
        field = dd.init_packet(GRID, p0, 0.3, mode, (1.0, 0.0, 0.5, -2.0))
        assert not np.any(field.amps.imag)
        assert dd.expect_position(field) == 0.0

    @pytest.mark.parametrize("seed", [(1, 1j, 0, 1), (1, 0, 0.3j, -1)], ids=["seed1", "seed2"])
    def test_matches_full_spectrum_reference(self, seed):
        # Against i d/dp by the complex full-spectrum transform, on a packet moved to
        # <x> = 2.5: the two differ only by that transform's imaginary Nyquist term,
        # negligible for a packet well inside the box.
        packet = dd.init_packet(GRID, 0.7, 0.1, "mixed", seed)
        field = dd.SpinorMomentumField(grid=GRID, amps=np.exp(-2.5j * GRID.points)[:, None]
                                       * packet.amps)
        k = 2 * np.pi * np.fft.fftfreq(GRID.n, d=GRID.dp)
        deriv = np.fft.ifft(1j * k[:, None] * np.fft.fft(field.amps, axis=0), axis=0)
        reference = np.sum(np.conj(field.amps) * (1j * deriv)).real * GRID.dp
        assert dd.expect_position(field) == pytest.approx(reference, abs=1e-12)
        assert reference == pytest.approx(2.5, abs=1e-9)

    def test_translation_shifts_expectation(self, mixed):
        eps = 0.37
        phase = np.exp(-1j * eps * GRID.points)
        shifted = dd.SpinorMomentumField(grid=GRID, amps=phase[:, None] * mixed.amps)
        assert dd.expect_position(shifted) - dd.expect_position(mixed) == pytest.approx(eps, abs=1e-9)

    def test_drift_matches_group_velocity(self):
        # <x>(t) = <p / E> t for a positive-energy packet; the group
        # velocity oracle is quadrature of p / E over |psi|^2.
        f = dd.init_packet(GRID, 0.5, 0.1, "positive", SEED)
        p = GRID.points
        e = dd.mode_energy(p)
        weights = np.sum(np.abs(f.amps) ** 2, axis=1) * GRID.dp
        v_group = float(np.sum(weights * p / e))
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
        _, omega, weights = dd._zb_weights(mixed)
        amplitudes = [abs(np.sum(weights * np.exp(1j * omega * t)).real)
                      for t in np.linspace(0, np.pi, 16)]
        assert max(amplitudes) <= ZB_NORM + 1e-10
        assert max(amplitudes) > 0.1  # interference is actually present

    def test_zb_matrix_norm_halves_with_doubled_mass(self):
        # Z = (i/2)(alpha_z - p H^-1) H^-1 at p = 0 is (i/2) alpha_z beta, of norm
        # 1/2 in units of hbar/(m c).
        z = 0.5j * ga.ALPHA[2] @ ga.BETA
        assert np.linalg.norm(z, 2) == pytest.approx(ZB_NORM, rel=1e-15)
        light, heavy = RunConfig("zitterbewegung"), RunConfig("zitterbewegung", mass=2.0)
        assert heavy.to_user(ZB_NORM, LENGTH) == 0.25
        assert light.to_user(ZB_NORM, LENGTH) / 2 == heavy.to_user(ZB_NORM, LENGTH)

    def test_drift_rate_matches_positive_expectation(self, positive):
        drift, _, _ = dd._zb_weights(positive)
        p = GRID.points
        e = dd.mode_energy(p)
        weights = np.sum(np.abs(positive.amps) ** 2, axis=1) * GRID.dp
        assert drift == pytest.approx(float(np.sum(weights * p / e)), abs=1e-12)


class TestPositionSeries:
    def test_undersampling_rejected(self):
        # 8 samples per ZB period pi: 8 * 50/pi = 127.3, so 128 samples and no fewer.
        RunConfig("averaging", n_samples=128).validate()
        for n in (64, 127):
            with pytest.raises(ConfigError, match=r"^n-samples must be at least 8 t-max/"
                                                  rf"\(pi hbar/\(mass c\^2\)\), got n-samples={n}, "
                                                  r"t-max=50, hbar=1, mass=1, c=1$"):
                RunConfig("averaging", n_samples=n).validate()

    def test_positive_series_is_pure_drift(self, positive_series):
        meas = dd.measure_oscillation(positive_series)
        assert not meas.detected
        assert dd.amplitude_at(positive_series, OMEGA_ZB) <= 1e-8

    def test_mixed_series_oscillates_at_zb_frequency(self, mixed_series):
        meas = dd.measure_oscillation(mixed_series)
        assert meas.detected
        assert meas.omega == pytest.approx(OMEGA_ZB, rel=0.01)
        assert meas.amplitude <= ZB_NORM

    def test_dichotomy(self, mixed_series, positive_series):
        omega = OMEGA_ZB
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
        # The packet of a config with this mass, converted at the edge to Compton units.
        cfg = RunConfig("zitterbewegung", mass=mass)
        p_max, p0, sigma_p = (cfg.to_compton(p, MOMENTUM) for p in (20.0, p0, sigma_p))
        f = dd.init_packet(GridSpec1D(n=n, p_max=p_max), p0, sigma_p, mode, SEED)
        # Every 130th of 4096 times spans many blocks of 16 x 16 times.
        series = dd.position_series(f, cfg.to_compton(50.0, TIME), 4096)
        self.assert_matches_evolution(f, series, 130)

    def test_partial_last_block(self, mixed):
        # 4097 = 16 * 256 + 1 times: the last block holds a single time.
        series = dd.position_series(mixed, 50.0, 4097)
        assert len(series.values) == 4097 and series.times[-1] == 50.0
        self.assert_matches_evolution(mixed, series, 97)

    @pytest.mark.parametrize("p0, t_max", [(3.0, 100.0), (0.0, 200.0)])
    def test_packet_wrapping_around_the_box_rejected(self, p0, t_max):
        f = dd.init_packet(GRID, p0, 0.1, "mixed", SEED)
        with pytest.raises(ValueError, match="wraps around the position box"):
            dd.position_series(f, t_max, 8192)


def table_series(field, t_max, n_samples):
    """<x>(t) with the Zitterbewegung sum as one whole-array expression of three tables.

    For t = (B^2 J + B j + k) dt, B = _BLOCK: over the distinct live frequencies w,
    with the weights of the modes sharing one added, the weights times e^{i w B^2 J dt} per
    block J, times e^{i w B j dt} per row j, matrix-multiplied by e^{i w k dt} per
    column k, every block stacked in one array: what ``position_series`` computes
    block by block.
    """
    times = np.linspace(0.0, t_max, n_samples)
    dt = t_max / (n_samples - 1)
    v, omega, weights = dd._zb_weights(field)
    offset = dd.expect_position(field) - weights.sum().real
    live = weights != 0
    omega, slot = np.unique(omega[live], return_inverse=True)
    w = weights[live]
    weights = np.bincount(slot, w.real) + 1j * np.bincount(slot, w.imag)
    block = dd._BLOCK
    ticks = np.arange(block) * dt
    step = np.exp(1j * np.outer(omega, ticks))
    rows = np.exp(1j * np.outer(ticks * block, omega))
    starts = np.arange(0, n_samples, block**2) * dt
    blocks = weights * np.exp(1j * np.outer(starts, omega))
    zb = (rows * blocks[:, None, :]) @ step
    return offset + v * times + zb.real.ravel()[:n_samples]


TABLE_CASES = {  # (n, sigma_p, mode, n_samples): blocks of 16 x 16 times
    "default-mixed": (1024, 0.1, "mixed", 4096),  # 16 blocks
    "default-positive": (1024, 0.1, "positive", 4096),
    "packet-wide": (2048, 2.0, "mixed", 4096),
    "odd-blocks": (1024, 0.1, "mixed", 4097),  # 17 blocks, the last with one time
    "one-block": (1024, 0.1, "mixed", 256),
}


class TestSeriesTables:
    """position_series against the whole-array three-table expression, on one thread."""

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_matches_table_expression_bitwise(self, started_threads, case):
        n, sigma_p, mode, n_samples = TABLE_CASES[case]
        f = dd.init_packet(GridSpec1D(n=n, p_max=20.0), 0.0, sigma_p, mode, SEED)
        series = dd.position_series(f, 50.0, n_samples)
        assert not started_threads
        assert np.array_equal(series.values, table_series(f, 50.0, n_samples))

    def test_traced_peak_flat_in_samples(self):
        # The tables and the one reused buffer do not grow with the number of times;
        # only the output arrays do: times, values and the complex sums, with two
        # float temporaries of the final sum (56 B per sample in all).
        f = dd.init_packet(GridSpec1D(n=2048, p_max=20.0), 0.0, 2.0, "mixed", SEED)

        def traced_peak(n_samples):
            dd.position_series(f, 50.0, n_samples)  # first-call allocations, not traced
            tracemalloc.start()
            try:
                dd.position_series(f, 50.0, n_samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(16384) <= traced_peak(4096) + (16384 - 4096) * 56

    def test_exponentials_per_distinct_frequency(self, monkeypatch):
        # Two tables of 16 phases and one vector per block of 256 times: 48 per distinct
        # live frequency.  Modes p and -p share one, so 2048 live modes ring at 1025.
        f = dd.init_packet(GridSpec1D(n=2048, p_max=20.0), 0.0, 2.0, "mixed", SEED)
        live = np.count_nonzero(dd._zb_weights(f)[2])
        counted, exp = [], np.exp

        def counting_exp(x, *args, **kwargs):
            counted.append(np.size(x) if np.iscomplexobj(x) else 0)
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(dd.np, "exp", counting_exp)
        dd.position_series(f, 50.0, 4096)
        assert live == 2048 and sum(counted) == 48 * 1025


def full_mode_series(field, t_max, n_samples):
    """<x>(t) from ``_zb_weights`` summed over every mode, zero weights included.

    The phases factor as in ``position_series``, e^{i w B^2 J dt} e^{i w B j dt}
    e^{i w k dt} for t = (B^2 J + B j + k) dt with B = _BLOCK, so only the order of
    the sum differs.
    """
    v, omega, weights = dd._zb_weights(field)
    times = np.linspace(0.0, t_max, n_samples)
    dt = t_max / (n_samples - 1)
    block = dd._BLOCK
    zb = [np.sum(weights * np.exp(1j * (big * block**2 * dt) * omega)
                 * np.exp(1j * (j * block * dt * omega)) * np.exp(1j * (omega * (k * dt))))
          for big, j, k in ((i // block**2, i // block % block, i % block)
                            for i in range(n_samples))]
    return dd.expect_position(field) - weights.sum().real + v * times + np.real(zb)


def direct_series(field, t_max, n_samples):
    """<x>(t) from ``_zb_weights`` with one complex exponential per mode and time."""
    v, omega, weights = dd._zb_weights(field)
    times = np.linspace(0.0, t_max, n_samples)
    zb = [np.sum(weights * np.exp(1j * (omega * t))) for t in times]
    return dd.expect_position(field) - weights.sum().real + v * times + np.real(zb)


SUM_CASES = {  # (mode, n, p_max, p0, sigma_p, t_max, has_zeros)
    "default-mixed": ("mixed", 1024, 20.0, 0.0, 0.1, 50.0, True),
    "default-positive": ("positive", 1024, 20.0, 0.0, 0.1, 50.0, True),
    "packet-wide": ("mixed", 2048, 20.0, 0.0, 2.0, 25.0, False),
    # Off centre: the modes p and -p share a frequency but not a weight.
    "moving": ("mixed", 1024, 20.0, 0.7, 0.1, 50.0, True),
    # Only 749 of the 1024 frequencies are distinct: p and -p coincide bit for bit
    # for part of the grid only.
    "odd-p-max": ("mixed", 1024, 13.37, 0.0, 1.0, 50.0, False),
}


class TestZeroWeightModes:
    """position_series skips the modes whose weight is exactly 0, and sums each
    distinct frequency once."""

    @pytest.mark.parametrize("case", SUM_CASES)
    def test_matches_full_mode_sum(self, case):
        mode, n, p_max, p0, sigma_p, t_max, has_zeros = SUM_CASES[case]
        f = dd.init_packet(GridSpec1D(n=n, p_max=p_max), p0, sigma_p, mode, SEED)
        _, _, weights = dd._zb_weights(f)
        # The default packet's envelope underflows, so the skip is exercised;
        # packet-wide's has no zero weight and takes every mode as before.
        assert bool(np.any(weights == 0)) == has_zeros
        series = dd.position_series(f, t_max, 1024)
        reference = full_mode_series(f, t_max, 1024)
        np.testing.assert_array_less(np.abs(series.values - reference),
                                     1e-15 * np.maximum(1.0, np.abs(reference)))


class TestDirectSum:
    """position_series against one exponential per mode and time, at every sample."""

    @pytest.mark.parametrize("case", SUM_CASES)
    def test_matches_direct_sum(self, case):
        mode, n, p_max, p0, sigma_p, _, _ = SUM_CASES[case]
        f = dd.init_packet(GridSpec1D(n=n, p_max=p_max), p0, sigma_p, mode, SEED)
        series = dd.position_series(f, 50.0, 4096)
        reference = direct_series(f, 50.0, 4096)
        np.testing.assert_array_less(np.abs(series.values - reference),
                                     1e-14 * np.maximum(1.0, np.abs(reference)))


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

    @pytest.mark.parametrize("p0, sigma_p, n, window, n_samples", [
        (0.0, 0.1, 1024, np.pi, 4096), (0.0, 0.1, 1024, 1.0, 4096),
        (0.7, 0.1, 1024, np.pi, 4096), (0.7, 0.1, 1024, 1.0, 4096),
        (0.0, 2.0, 2048, np.pi, 4096), (0.0, 2.0, 2048, 1.0, 4096),
        (0.0, 0.1, 1024, 2.5, 20000), (0.0, 0.1, 1024, 0.01, 65536),
    ], ids=["default-period", "default-compton", "p0-0.7-period", "p0-0.7-compton",
            "packet-wide-period", "packet-wide-compton", "window-2.5", "window-0.01"])
    def test_running_sums_match_convolution(self, p0, sigma_p, n, window, n_samples):
        # The reference: each k-sample mean taken directly, by np.convolve.
        grid = GridSpec1D(n=n, p_max=20.0)
        series = dd.position_series(dd.init_packet(grid, p0, sigma_p, "mixed", SEED), 50.0,
                                    n_samples)
        k = dd.window_samples(series.dt, window)
        reference = np.convolve(series.values, np.full(k, 1.0 / k), mode="valid")
        out = dd.sliding_average(series, window)
        np.testing.assert_array_equal(out.times, series.times[k // 2:n_samples - k // 2])
        np.testing.assert_array_less(np.abs(out.values - reference),
                                     2e-15 * np.maximum(1.0, np.abs(reference)))

    # validate holds every window to the series the averaging command samples, here
    # 64 samples over [0, 10]: at least 2 intervals of 10/63, at most the 64 samples.
    SERIES = {"t_max": 10.0, "n_samples": 64}

    def test_short_window_rejected(self):
        RunConfig("averaging", window=2 * 10 / 63, **self.SERIES).validate()
        with pytest.raises(ConfigError, match=r"^window must be between 2 sample intervals "
                                              r"and n-samples samples long, got "
                                              r"window=0.0793651, t-max=10, n-samples=64$"):
            RunConfig("averaging", window=0.5 * 10 / 63, **self.SERIES).validate()

    def test_window_longer_than_series_rejected(self):
        RunConfig("averaging", window=10.0, **self.SERIES).validate()  # k = 63 of 64 samples
        t = np.linspace(0, 10, 64)
        assert len(dd.sliding_average(dd.TimeSeries(times=t, values=np.sin(t)), 10.0).values) == 2
        with pytest.raises(ConfigError, match=r"^window must be between 2 sample intervals "
                                              r"and n-samples samples long, got window=12, "
                                              r"t-max=10, n-samples=64$"):
            RunConfig("averaging", window=12.0, **self.SERIES).validate()


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
        # The commands that measure an oscillation take at least 32 samples.
        RunConfig("zitterbewegung", t_max=1.0, n_samples=32).validate()
        for command in ("zitterbewegung", "all"):
            with pytest.raises(ConfigError, match=r"^n-samples must be at least 32, "
                                                  r"got n-samples=31$"):
                RunConfig(command, t_max=1.0, n_samples=31).validate()

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

    def test_bin_1_peak_is_not_refined_through_dc(self, mixed):
        # At t-max 2, under one ZB period pi, the peak is bin 1, whose left neighbour is the
        # DC bin of the detrended series: roundoff, so a 1e-16 shift must not move omega.
        series = dd.position_series(mixed, 2.0, 4096)
        omega = dd.measure_oscillation(series).omega
        assert omega == 2 * np.pi / (len(series.times) * series.dt)  # bin 1, unrefined
        for shift in (1e-16, -1e-16):
            shifted = dd.TimeSeries(times=series.times, values=series.values + shift)
            assert dd.measure_oscillation(shifted).omega == omega

    def test_frequency_scales_with_mass(self):
        # At m = 2 the box, envelope and duration shrink in Compton units; the
        # measured frequency scales back to 2 m c^2/hbar = 4.
        heavy = RunConfig("zitterbewegung", mass=2.0, t_max=25.0).validate()
        grid = GridSpec1D(n=1024, p_max=heavy.to_compton(heavy.p_max, MOMENTUM))
        f = dd.init_packet(grid, 0.0, heavy.to_compton(heavy.sigma_p, MOMENTUM), "mixed", SEED)
        series = dd.position_series(f, heavy.to_compton(heavy.t_max, TIME), 4096)
        omega = heavy.to_user(dd.measure_oscillation(series).omega, FREQUENCY)
        assert heavy.to_user(OMEGA_ZB, FREQUENCY) == 4.0
        assert omega == pytest.approx(4.0, rel=0.01)


class TestAveragingSuppression:
    def test_zb_period_window_suppresses_100x(self, mixed_series):
        omega = OMEGA_ZB
        raw = dd.amplitude_at(mixed_series, omega)
        out = dd.sliding_average(mixed_series, 2 * np.pi / omega)
        assert raw / max(dd.amplitude_at(out, omega), 1e-300) >= 100

    def test_compton_window_matches_sinc(self, mixed_series):
        omega = OMEGA_ZB
        raw = dd.amplitude_at(mixed_series, omega)
        out = dd.sliding_average(mixed_series, 1.0)  # the Compton time
        ratio = dd.amplitude_at(out, omega) / raw
        assert ratio == pytest.approx(abs(np.sin(1.0)), rel=0.05)

    def test_averaged_slope_matches_drift(self):
        f = dd.init_packet(GRID, 0.5, 0.1, "positive", SEED)
        series = dd.position_series(f, 50.0, 4096)
        averaged = dd.sliding_average(series, 1.0)
        slope = np.polyfit(averaged.times, averaged.values, 1)[0]
        drift, _, _ = dd._zb_weights(f)
        assert slope == pytest.approx(drift, rel=1e-4)


class TestTimeSeries:
    def test_long_linspace_is_a_series(self):
        # The spacing of np.linspace varies by about eps n, 1.2e-9 relative at n = 1e7; the
        # times of `zitterbewegung --n-samples 10000000` still make a series.
        t = np.linspace(0, 50, 10**7)
        assert dd.TimeSeries(times=t, values=t).dt == t[1]
