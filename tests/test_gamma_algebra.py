import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon import cli
from chronon import gamma_algebra as ga
from chronon import snyder_rep as sr
from chronon.config import LENGTH, MOMENTUM, TIME, RunConfig
from chronon.gamma_algebra import commutator, frobenius, is_hermitian
from chronon.reporting import Report


def is_degenerate(L, M, tol=1e-14):
    """True when every rotation and boost generator vanishes."""
    return all(frobenius(g) <= tol for g in L + M)


def per_case_covariance(p, axis):
    """The rotation covariance check of one momentum and axis, one 4x4 at a time.

    ``ga.rotation_covariance_check`` runs every case as stacked arrays with the
    same per-element operations in the same order, so the two agree to the bit.
    """
    p = np.asarray(p, dtype=float)
    i, j, k = ga._CYCLIC[axis]
    orbital = 1j * (p[j] * ga.ALPHA[k] - p[k] * ga.ALPHA[j])
    h = ga.BETA.astype(complex)
    for n in range(3):
        h = h + p[n] * ga.ALPHA[n]
    return frobenius(orbital), frobenius(orbital + commutator(h, ga.SPIN[i]))


def unit_config(units):
    """The verify-algebra config of a unit set whose mass key is ``m``."""
    return RunConfig("verify-algebra", **{"mass" if k == "m" else k: v
                                          for k, v in units.items()}).validate()


def verify_algebra_lines(units):
    """name -> measured text of ``verify-algebra``'s report at a unit set."""
    with np.errstate(over="raise", invalid="raise"):
        report = Report("verify-algebra")
        assert cli.run_verify_algebra(unit_config(units), None, report) == []
    return dict(line.partition(", expected ")[0].split(": measured ") for line in report.lines)


class TestAPrime:
    """hbar, c and m reach the algebra only as a' = a m c/hbar."""

    def test_compton_default(self):
        # An unset a is the Compton wavelength hbar/(m c): a' = 1, the same a' as
        # an explicit a of one Compton wavelength.
        cfg = unit_config({"hbar": 2.0, "c": 3.0, "m": 5.0})
        assert cfg.a is None and cfg.a_prime == 1.0
        assert cfg.to_user(cfg.a_prime, LENGTH) == pytest.approx(2.0 / 15.0, rel=1e-15)
        assert cfg.to_user(1.0, TIME) == pytest.approx(2.0 / 45.0, rel=1e-15)
        explicit = unit_config({"hbar": 2.0, "c": 3.0, "m": 5.0, "a": 2.0 / 15.0})
        assert explicit.a_prime == pytest.approx(cfg.a_prime, rel=1e-15)
        assert sr.deformation(cfg.a_prime, 1.0) == 2.0


class TestDiracMatrices:
    def test_beta_block_structure(self):
        np.testing.assert_array_equal(ga.BETA, np.diag([1, 1, -1, -1]).astype(complex))

    def test_alpha_x_off_diagonal_entry(self):
        # sigma_x sits in both off-diagonal blocks, so entry (0, 3) is +1.
        assert ga.ALPHA[0][0, 3] == 1
        assert ga.ALPHA[0][3, 0] == 1
        assert frobenius(ga.ALPHA[0][:2, :2]) == 0

    def test_hermiticity_pattern(self):
        assert is_hermitian(ga.BETA)
        for a in ga.ALPHA:
            assert is_hermitian(a)
        for g in ga.GAMMA[1:]:
            assert frobenius(g + g.conj().T) <= 1e-15  # anti-Hermitian

    def test_spin_commutators(self):
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            res = commutator(ga.SPIN[i], ga.SPIN[j]) - 1j * ga.SPIN[k]
            assert frobenius(res) <= 1e-12

    def test_spin_z_eigenvalues(self):
        vals = np.linalg.eigvalsh(ga.SPIN[2])
        np.testing.assert_allclose(vals, [-0.5, -0.5, 0.5, 0.5], atol=1e-15)

    def test_shared_matrices_are_read_only(self):
        for m in (ga.BETA,) + ga.ALPHA + ga.GAMMA + ga.SPIN:
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 2.0
        np.testing.assert_array_equal(ga.BETA, np.diag([1, 1, -1, -1]))
        assert ga.GAMMA[0] is ga.BETA
        # gamma^i = beta alpha_i and S_k = Sigma_k/2, by direct multiplication.
        for g, a in zip(ga.GAMMA[1:], ga.ALPHA):
            np.testing.assert_array_equal(g, ga.BETA @ a)
        for s, pauli in zip(ga.SPIN, ga.PAULI):
            np.testing.assert_array_equal(s, 0.5 * np.kron(ga.I2, pauli))


class TestClifford:
    def test_max_residual(self):
        assert ga.verify_clifford() <= 1e-12

    def test_individual_relations(self):
        g = ga.GAMMA
        np.testing.assert_allclose(g[0] @ g[0], np.eye(4), atol=0)
        np.testing.assert_allclose(g[1] @ g[1], -np.eye(4), atol=0)
        assert frobenius(g[0] @ g[1] + g[1] @ g[0]) == 0


class TestCoordinates:
    """The coordinates x_i = kappa*alpha_i and t = kappa_t*beta that ``generators`` reads."""

    def test_zero_scale(self):
        # kappa = 0 makes every x_i vanish, so every L_i and M_i does too, whatever kappa_t.
        L, M = ga.generators(0.0, 0.5j)
        assert is_degenerate(L, M, tol=0)

    def test_unit_scale(self):
        # At kappa = kappa_t = 1 the coordinates are alpha_i and beta themselves: the
        # oracle is direct multiplication.
        (_, _, l_z), (m_x, _, _) = ga.generators(1.0, 1.0)
        ax, ay = ga.ALPHA[0], ga.ALPHA[1]
        np.testing.assert_array_equal(l_z, (ax @ ay - ay @ ax) / 1j)
        np.testing.assert_array_equal(m_x, (ga.BETA @ ax - ax @ ga.BETA) / 1j)

    def test_half_kappa_bracket(self):
        # [x, y] = (i/2) Sigma_z in units of a at kappa=1/2: oracle is direct multiplication.
        x, y = (0.5 * a for a in ga.ALPHA[:2])
        bracket = commutator(x, y)
        np.testing.assert_allclose(bracket, 0.5j * (2 * ga.SPIN[2]), atol=1e-15)
        np.testing.assert_array_equal(ga.generators(0.5, 0.5j)[0][2], (1 / 1j) * bracket)


class TestSolveNormalization:
    def test_canonical_kappa(self):
        kappa, kappa_t, resid = ga.solve_normalization()
        assert abs(kappa - 0.5) <= 1e-8
        assert resid <= 1e-10

    def test_kappa_t_imaginary(self):
        _, kappa_t, _ = ga.solve_normalization()
        assert min(abs(kappa_t - 0.5j), abs(kappa_t + 0.5j)) <= 1e-8

    @pytest.mark.parametrize("a", [0.1, 1.0, 7.5])
    def test_kappa_independent_of_a(self, a):
        # The solve works in units of a: scaled coordinates a x, a y give a^2 [x, y] =
        # i a^2 S_z, so the a^2 that cancels leaves kappa where it is at a = 1.
        kappa, _, _ = ga.solve_normalization()
        x, y = (a * (kappa * m) for m in ga.ALPHA[:2])
        np.testing.assert_allclose(commutator(x, y), 1j * a**2 * ga.SPIN[2],
                                   rtol=0, atol=1e-15 * a**2)
        assert abs(kappa - 0.5) <= 1e-8

    def test_degenerate_set_has_irreducible_residual(self, monkeypatch):
        zero = np.zeros((4, 4), dtype=complex)
        monkeypatch.setattr(ga, "ALPHA", (zero, zero, zero))
        _, _, resid = ga.solve_normalization()
        expected = frobenius(1j * ga.SPIN[2])  # a^2 has cancelled
        assert resid >= expected - 1e-12
        assert resid > 0


UNITS = [dict(), dict(m=2.0, a=0.5), dict(hbar=2.0, c=3.0), dict(a=0.1), dict(a=7.5)]
UNIT_IDS = ["defaults", "m2-a0.5", "hbar2-c3", "a0.1", "a7.5"]
# The closed forms and a zero residual, as verify-algebra prints them.
CLOSED_FORMS = {"normalization kappa": "0.5+0j", "normalization kappa_t": "0+0.5j",
                "normalization search residual": "0"}


class TestBatchedSearch:
    """verify-algebra recovers kappa = 1/2 and kappa_t = i/2 at several units: the edge
    reduces each unit set to a', which the solve, in units of a, never sees."""

    @pytest.mark.parametrize("kwargs", UNITS, ids=UNIT_IDS)
    def test_search_recovers_closed_forms(self, kwargs):
        lines = verify_algebra_lines(kwargs)
        assert {name: lines[name] for name in CLOSED_FORMS} == CLOSED_FORMS


class TestLeastSquaresSolve:
    @pytest.mark.parametrize("z, root", [
        (0.25 + 0j, 0.5), (complex(0.25, -0.0), 0.5), (-0.25 + 0j, 0.5j),
        (complex(-0.25, -0.0), 0.5j), (0j, 0), (0.5j, 0.5 + 0.5j), (-0.5j, 0.5 - 0.5j),
    ])
    def test_root_prefers_larger_real_then_imaginary(self, z, root):
        # np.sqrt(-0.25 - 0j) is -0.5j; the rule picks its negative.
        assert ga._root(z) == root

    def test_flipped_spin_target_gives_imaginary_kappa(self, monkeypatch):
        # [x, y] = -i S_z (in units of a) needs kappa^2 = -1/4: the root with Im > 0.
        monkeypatch.setattr(ga, "SPIN", tuple(-s for s in ga.SPIN))
        kappa, _, _ = ga.solve_normalization()
        assert kappa == 0.5j

    @pytest.mark.parametrize("kwargs", [dict(a=1e-100), dict(a=1e100), dict(hbar=1e150)],
                             ids=["a1e-100", "a1e100", "hbar1e150"])
    def test_units_far_from_one(self, kwargs):
        # The coordinates are built in units of a, so a^2 never forms: the Dirac matrices
        # give the closed forms and a zero residual exactly, and so does verify-algebra
        # at units far from one, without overflow.
        with np.errstate(over="raise", invalid="raise"):
            assert ga.solve_normalization() == (0.5, 0.5j, 0.0)
        lines = verify_algebra_lines(kwargs)
        assert {name: lines[name] for name in CLOSED_FORMS} == CLOSED_FORMS


CANONICAL = (0.5, 0.5j)  # (kappa, kappa_t)


class TestGenerators:
    def test_l_z_is_spin_z(self):
        L, _ = ga.generators(*CANONICAL)
        np.testing.assert_allclose(L[2], 0.5 * (2 * ga.SPIN[2]), atol=1e-14)

    def test_zero_rep_gives_zero_generators(self):
        assert is_degenerate(*ga.generators(0.0, 0.0))

    def test_boost_is_half_gamma(self):
        # [beta, alpha_x] = 2 gamma^1 forces M_x = (1/2) gamma^1 at the
        # canonical normalization (the extraction fixes scale and sign).
        _, M = ga.generators(*CANONICAL)
        oracle = ga.BETA @ ga.ALPHA[0] - ga.ALPHA[0] @ ga.BETA
        np.testing.assert_allclose(oracle, 2 * ga.GAMMA[1], atol=0)
        np.testing.assert_allclose(M[0], 0.5 * ga.GAMMA[1], atol=1e-14)

    def test_spin_spectrum_canonical(self):
        spectra = ga.spin_spectrum(ga.generators(*CANONICAL)[0])
        assert ga.spin_half_gap(spectra) <= cli.GATES["spin spectrum"][1]

    def test_spin_half_gap_is_the_largest_eigenvalue_error(self):
        # L x 1.01 has eigenvalues +-0.505: each is 0.005 from its target +-1/2.
        L, _ = ga.generators(*CANONICAL)
        gap = ga.spin_half_gap(ga.spin_spectrum((L[0], 1.01 * L[1], L[2])))
        assert gap == pytest.approx(0.005, rel=1e-12)
        assert gap > cli.GATES["spin spectrum"][1]

    def test_spin_spectrum_scales_quadratically(self):
        spectra = ga.spin_spectrum(ga.generators(1.0, 0.5j)[0])
        # kappa doubled -> L scales by 4 -> eigenvalues +-2 (hbar = 1).
        np.testing.assert_allclose(spectra[2], [-2, -2, 2, 2], atol=1e-12)

    def test_spin_spectrum_rejects_non_hermitian(self):
        # A non-Hermitian generator gets its complex spectrum, which is not spin one-half,
        # not even at eigenvalues exactly +-1/2 (a Jordan block on L_z's +1/2 pair).
        L, _ = ga.generators(*CANONICAL)
        shifted = ga.spin_spectrum((L[0] + 1j * np.eye(4), L[1], L[2]))
        np.testing.assert_allclose(shifted[0], [-0.5 + 1j, -0.5 + 1j, 0.5 + 1j, 0.5 + 1j],
                                   atol=1e-12)
        jordan = L[2] + np.outer(np.eye(4)[0], np.eye(4)[2])
        np.testing.assert_array_equal(np.diag(jordan).real, [0.5, -0.5, 0.5, -0.5])
        for spectra in (shifted, ga.spin_spectrum((L[0], L[1], jordan))):
            assert ga.spin_half_gap(spectra) == np.inf
        assert ga.spin_half_gap(ga.spin_spectrum(L)) <= cli.GATES["spin spectrum"][1]

    def test_rescaling_preserves_multiplicity_pattern(self):
        for s in (0.5, 2.0, 3.7):
            vals = ga.spin_spectrum(ga.generators(0.5 * s, 0.5j)[0])[2]
            np.testing.assert_allclose(vals, s**2 * np.array([-0.5, -0.5, 0.5, 0.5]),
                                       atol=1e-12)


class TestLorentzAlgebra:
    def test_canonical_closure(self):
        assert ga.verify_lorentz_algebra(*ga.generators(*CANONICAL)) <= 1e-12

    def test_real_kappa_t_breaks_boost_bracket(self):
        assert ga.verify_lorentz_algebra(*ga.generators(0.5, 0.5)) > 0.1

    def test_zero_generators_close_trivially_but_flag_degenerate(self):
        gen = ga.generators(0.0, 0.0)
        assert ga.verify_lorentz_algebra(*gen) == 0
        assert is_degenerate(*gen)


class TestDeformationFactors:
    """The coefficient of the verify-algebra deformation lines, ``sr.deformation``."""

    def test_compton_point_doubles(self):
        # a' = 1 (a is the Compton wavelength) at p = 1 (m c).
        assert sr.deformation(1.0, 1.0) == 2.0

    def test_undeformed_limit(self):
        assert sr.deformation(0.0, 123.4) == 1.0

    def test_space_arithmetic(self):
        assert sr.deformation(1.0, 2.0) == 5.0


class TestRotationCovariance:
    @staticmethod
    def check(p, axis):
        orbital, total = ga.rotation_covariance_check([p])
        return orbital[axis], total[axis]

    def test_axis_aligned_momentum(self):
        res_orb, res_tot = self.check([0, 0, 1], axis=2)
        assert res_orb == 0 and res_tot == 0

    def test_transverse_momentum(self):
        res_orb, res_tot = self.check([1, 0, 0], axis=2)
        assert res_orb == pytest.approx(2.0, rel=1e-12)
        assert res_tot <= 1e-12

    def test_rest_momentum(self):
        res_orb, res_tot = self.check([0, 0, 0], axis=2)
        assert res_orb == 0 and res_tot == 0

    def test_random_momenta_all_axes(self):
        rng = np.random.default_rng(42)
        momenta = rng.uniform(-1, 1, size=(100, 3))
        orbital, total = ga.rotation_covariance_check(momenta)
        assert len(orbital) == len(total) == 300
        for n, p in enumerate(momenta):
            for axis in range(3):
                res_orb, res_tot = orbital[3 * n + axis], total[3 * n + axis]
                assert res_tot <= 1e-12
                transverse = np.hypot(*(p[j] for j in range(3) if j != axis))
                if transverse > 1e-3:
                    assert res_orb > 1e-3


# The four operator-sweep unit sets, and one far from unit scale.
UNIT_SETS = [{}, {"m": 2.0, "a": 0.5}, {"hbar": 2.0, "c": 3.0}, {"a": 0.0},
             {"hbar": 1e-60, "c": 1e60}]


class TestBatchedCovarianceBitwise:
    @staticmethod
    def assert_bitwise(units, momenta):
        """Momenta drawn in a unit set's own units, converted at the edge to units of m c."""
        cfg = unit_config(units)
        momenta = np.vectorize(lambda p: cfg.to_compton(p, MOMENTUM))(momenta)
        orbital, total = ga.rotation_covariance_check(momenta)
        expected = [per_case_covariance(p, axis) for p in momenta for axis in range(3)]
        assert list(zip(orbital, total)) == expected

    @pytest.mark.parametrize("units", UNIT_SETS, ids=lambda u: "-".join(
        f"{k}{v:g}" for k, v in u.items()) or "defaults")
    @pytest.mark.parametrize("seed", [7, 42, 19101])
    def test_equals_per_case_check(self, units, seed):
        cfg = unit_config(units)
        momenta = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(100, 3))
        self.assert_bitwise(units, momenta * cfg.mass * cfg.c)

    @given(st.sampled_from(UNIT_SETS[:4]),
           st.lists(st.tuples(*[st.floats(-1e6, 1e6)] * 3), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_case_check_on_drawn_momenta(self, units, momenta):
        self.assert_bitwise(units, np.array(momenta))
