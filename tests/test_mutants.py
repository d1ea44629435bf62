"""Every gate can FAIL: a named physics mutant, run through ``main``, FAILs its lines.

Each row of ``MUTANTS`` names a defect of the physics, applies it with ``monkeypatch``
and runs one command line end to end; every ``cli.GATES`` line the row names must then
read FAIL, and the run must end in its report (exit 1), not in a config error.  The
gates no mutant reaches yet are listed in ``NO_MUTANT_YET``, so that a new gate either
brings its mutant or is listed there on purpose.
"""

import numpy as np
import pytest

from chronon import dirac_dynamics as dd
from chronon import gamma_algebra as ga
from chronon import snyder_rep as sr
from chronon.cli import GATES, main


def scaled_gamma_1(monkeypatch):
    """gamma^1 x 1.001: the Clifford relations no longer hold."""
    monkeypatch.setattr(ga, "GAMMA", (ga.GAMMA[0], 1.001 * ga.GAMMA[1]) + ga.GAMMA[2:])


def scaled_alpha(monkeypatch):
    """alpha_i x 1.01: [x, y] = i S_z needs kappa = 0.5/1.01."""
    monkeypatch.setattr(ga, "ALPHA", tuple(1.01 * a for a in ga.ALPHA))


def flipped_spin(monkeypatch):
    """S_i -> -S_i: the generators close on the wrong sign and miss the spin term."""
    monkeypatch.setattr(ga, "SPIN", tuple(-s for s in ga.SPIN))


def quartered_snyder_coefficient(monkeypatch):
    """The coefficient 1 + a'^2 p^2/4: x = i (1 + a'^2 p^2/4) d/dp, so the bracket is no
    longer i (1 + a'^2 p^2), and the factor at the Compton momentum reads 1.25, not 2."""
    monkeypatch.setattr(sr, "deformation", lambda a, p: 1.0 + (a * p) ** 2 / 4)


def shifted_deformation(monkeypatch):
    """The coefficient 1 + a'^2 p^2 + 1e-9: not 1 even in the undeformed limit a' = 0."""
    deformation = sr.deformation
    monkeypatch.setattr(sr, "deformation", lambda a, p: deformation(a, p) + 1e-9)


def scaled_derivative(monkeypatch):
    """The spectral derivative x (1 + 1e-4): every position operator is 1e-4 too large."""
    derivative = sr.spectral_derivative
    monkeypatch.setattr(sr, "spectral_derivative",
                        lambda f, grid: (1 + 1e-4) * derivative(f, grid))


def leaky_projection(monkeypatch):
    """Lambda_plus leaks 1e-6 of the mixed packet into the positive-energy one."""
    init = dd.init_packet

    def leaky(grid, p0, sigma_p, mode, spinor_seed):
        field = init(grid, p0, sigma_p, mode=mode, spinor_seed=spinor_seed)
        if mode != "positive":
            return field
        mixed = init(grid, p0, sigma_p, mode="mixed", spinor_seed=spinor_seed)
        return dd.SpinorMomentumField(grid, field.amps + 1e-6 * mixed.amps)

    monkeypatch.setattr(dd, "init_packet", leaky)


def widened_window(monkeypatch):
    """Every averaging window x 1.3."""
    average = dd.sliding_average
    monkeypatch.setattr(dd, "sliding_average", lambda s, window: average(s, 1.3 * window))


def heavier_mass(monkeypatch):
    """Mass 1.02 in both H = alpha_z p + m beta and E = sqrt(p^2 + m^2): the packet rings
    at 2.04, consistently, so no wrap-around check can catch it."""
    monkeypatch.setattr(dd, "mode_energy",
                        lambda p: np.sqrt(np.asarray(p, dtype=float) ** 2 + 1.02**2))
    monkeypatch.setattr(dd, "_apply_hamiltonian", lambda amps, p: (
        p[:, None] * (amps @ ga.ALPHA[2]) + 1.02 * (amps @ ga.BETA)))


# (mutant, argv, the GATES lines it FAILs)
MUTANTS = [
    (scaled_gamma_1, ["verify-algebra"], ["clifford residual"]),
    (scaled_alpha, ["verify-algebra"], ["normalization kappa"]),
    (flipped_spin, ["verify-algebra"], ["lorentz closure residual",
                                        "normalization search residual",
                                        "rotation covariance max total residual"]),
    # One run reaches both readers of the coefficient, the operator and the factor line.
    (quartered_snyder_coefficient, ["all"], ["Compton deformation factor",
                                             "heisenberg-1d residual"]),
    (shifted_deformation, ["verify-algebra", "--a", "0"], ["deformation factor (a=0)",
                                                           "Compton deformation factor"]),
    (scaled_derivative, ["snyder"], ["heisenberg-1d residual", "coordinate-xy-2d residual",
                                     "mixed-2d residual"]),
    (scaled_derivative, ["snyder", "--a", "0"], ["canonical-limit-heisenberg-1d residual"]),
    (leaky_projection, ["zitterbewegung"], ["positive-projected component at ZB frequency",
                                            "mixed/positive amplitude dichotomy"]),
    (widened_window, ["averaging"], ["full-period window suppression",
                                     "Compton window attenuation"]),
    (heavier_mass, ["zitterbewegung"], ["mixed packet oscillation frequency"]),
]

# Gates that no mutant FAILs yet.  The canonical-limit 2-D lines run at a = 0,
# where x and y are i d/dp_x and i d/dp_y: they commute with each other and with p_y
# whatever is wrong with the derivative, so both brackets vanish for any such defect.
NO_MUTANT_YET = {
    "canonical-limit-coordinate-xy-2d residual",
    "canonical-limit-mixed-2d residual",
}


def statuses(argv, out_dir):
    """(exit status, gate name -> status) of one run; a name loses its " (n=...)"."""
    code = main(argv + ["--no-emit-plots", "--output-dir", str(out_dir)])
    lines = (out_dir / "report.txt").read_text().splitlines()
    return code, {line.split(": measured ")[0].partition(" (n=")[0]: line.rpartition(": ")[2]
                  for line in lines if ": measured " in line}


@pytest.mark.parametrize("mutant, argv, gates", MUTANTS,
                         ids=[" ".join([m.__name__, *argv[1:]]) for m, argv, _ in MUTANTS])
def test_mutant_fails_its_gates(mutant, argv, gates, monkeypatch, tmp_path, capsys):
    mutant(monkeypatch)
    code, status = statuses(argv, tmp_path)
    assert capsys.readouterr().err == ""
    assert code == 1
    assert {gate: status[gate] for gate in gates} == dict.fromkeys(gates, "FAIL")


def test_gates_pass_without_a_mutant(tmp_path):
    # The control: unmutated, the battery and the a = 0 runs exit 0, and each line a
    # mutant FAILs reads PASS in one of them (at a = 0 the kappa line reads SKIP).
    passed = set()
    for argv in (["all"], ["snyder", "--a", "0"], ["verify-algebra", "--a", "0"]):
        code, run_status = statuses(argv, tmp_path / "-".join(argv))
        assert code == 0
        passed |= {gate for gate, verdict in run_status.items() if verdict == "PASS"}
    assert {gate for _, _, names in MUTANTS for gate in names} - passed == set()


def test_every_gate_has_a_mutant_or_is_listed():
    covered = {gate for _, _, names in MUTANTS for gate in names}
    assert covered.isdisjoint(NO_MUTANT_YET)
    assert covered | NO_MUTANT_YET == set(GATES)
