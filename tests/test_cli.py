import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon import cli
from chronon import dirac_dynamics as dd
from chronon import snyder_rep as sr
from chronon.cli import RUNNERS, main
from chronon.config import ConfigError, RunConfig, read_config_file, resolve
from chronon.reporting import Report, fmt_number, render_line_plot

FAST_ZB = ["--grid-n", "1024", "--t-max", "25", "--n-samples", "1024",
           "--no-emit-plots"]


def run(args):
    return main([str(a) for a in args])


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve("verify-algebra", {}, {})
        assert cfg.hbar == cfg.c == cfg.mass == 1.0
        assert cfg.params().a == 1.0

    def test_compton_default_tracks_mass(self):
        cfg = resolve("zitterbewegung", {}, {"mass": 2.0})
        assert cfg.params().a == 0.5

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mass = 2  # heavy\nsigma-p = 0.2\n")
        file_values = read_config_file(str(path))
        cfg = resolve("snyder", file_values, {"mass": 3.0})
        assert cfg.mass == 3.0
        assert cfg.sigma_p == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("masss = 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            read_config_file(str(path))

    def test_malformed_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mass = heavy\n")
        with pytest.raises(ConfigError):
            read_config_file(str(path))

    def test_derived_scale_range(self):
        # (a m c/hbar)^2 may underflow to 0; a nonzero a whose square does may not.
        assert resolve("snyder", {}, {"mass": 1e-200, "a": 1.0}).a == 1.0
        assert resolve("snyder", {}, {"a": 0.0}).a == 0.0
        with pytest.raises(ConfigError, match="a\\^2 is out of floating-point range at a=1e-200"):
            resolve("snyder", {}, {"a": 1e-200})

    @pytest.mark.parametrize("attr, name, witness", [
        ("p_max", "p-max\\^2", sr.gaussian_1d), ("p_max_2d", "2 p-max-2d\\^2", sr.gaussian_2d)])
    def test_box_edge_range(self, attr, name, witness):
        # The largest edge validate accepts squares without overflow in its witness.
        squares = 2 if attr == "p_max_2d" else 1
        limit = math.sqrt(sys.float_info.max / squares)
        edge = getattr(resolve("snyder", {}, {attr: math.nextafter(limit, 0)}), attr)
        with np.errstate(over="raise"):
            witness(sr.GridSpec1D(n=8, p_max=edge))
        with pytest.raises(ConfigError, match=f"^{name} is out of floating-point range at"):
            resolve("snyder", {}, {attr: limit})

    def test_negative_mass_rejected(self):
        with pytest.raises(ConfigError):
            resolve("zitterbewegung", {}, {"mass": -1.0})

    def test_bad_mode_rejected(self, tmp_path):
        # The packet commands always run both packets, so there is no mode to
        # choose: asking for one is a usage or config error.
        with pytest.raises(SystemExit) as exc:
            main(["zitterbewegung", "--mode", "positive", "--output-dir", str(tmp_path)])
        assert exc.value.code == 2
        path = tmp_path / "run.cfg"
        path.write_text("mode = mixed\n")
        assert run(["zitterbewegung", "--config", path, "--output-dir", tmp_path]) == 2

    def test_spinor_seed_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("spinor-seed = 1, 0, 1j, 0\n")
        cfg = resolve("zitterbewegung", read_config_file(str(path)), {})
        assert cfg.spinor_seed == (1 + 0j, 0j, 1j, 0j)

    def test_env_var_default_output_dir(self, monkeypatch):
        monkeypatch.setenv("CHRONON_OUTPUT_DIR", "/tmp/somewhere")
        assert resolve("snyder", {}, {}).output_dir == "/tmp/somewhere"

    def test_explicit_output_dir_beats_env(self, monkeypatch):
        monkeypatch.setenv("CHRONON_OUTPUT_DIR", "/tmp/somewhere")
        assert resolve("snyder", {}, {"output_dir": "here"}).output_dir == "here"


class TestExitStatuses:
    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["snyder", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_negative_mass_exits_2(self, tmp_path):
        assert run(["zitterbewegung", "--mass", "-1",
                    "--output-dir", tmp_path]) == 2

    @pytest.mark.parametrize("argv, named", [
        (["all", "--t-max", "inf"], None),
        (["all", "--p-max", "nan"], None),
        (["all", "--spinor-seed", "nan,0,1,0"], None),
        (["all", "--mass", "nan"], None),
        # Finite, but a derived scale (m c^2, a^2, (a m c/hbar)^2, with a =
        # hbar/(m c) by default) is out of floating-point range: the line names the key.
        (["all", "--c", "1e200"], "c=1e+200"),
        (["all", "--a", "1e200"], "a=1e+200"),
        (["all", "--hbar", "1e200"], "hbar=1e+200"),
        (["all", "--mass", "1e-300"], "mass=1e-300"),
        (["zitterbewegung", "--mass", "1e-300"], "mass=1e-300"),
        (["averaging", "--mass", "1e-300"], "mass=1e-300"),
        (["verify-algebra", "--c", "1e200"], "c=1e+200"),
        (["snyder", "--a", "1e200"], "a=1e+200"),
        (["verify-algebra", "--mass", "1e-300"], "mass=1e-300"),
        # The required sample count prints in :g form, not as a 300-digit integer.
        (["all", "--t-max", "1e300"], "need >= 2.54648e+300"),
        (["all", "--window", "1e300"], "needs 8.19e+301 samples"),
        # The Gaussian witnesses square the box edges.
        (["snyder", "--p-max", "1e160"], "p-max=1e+160"),
        (["snyder", "--p-max-2d", "1e160"], "p-max-2d=1e+160"),
    ], ids=["t-max-inf", "p-max-nan", "spinor-seed-nan", "mass-nan", "c-1e200", "a-1e200",
            "hbar-1e200", "mass-1e-300", "zitterbewegung-mass-1e-300",
            "averaging-mass-1e-300", "verify-algebra-c-1e200", "snyder-a-1e200",
            "verify-algebra-mass-1e-300", "t-max-1e300", "window-1e300",
            "snyder-p-max-1e160", "snyder-p-max-2d-1e160"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, argv, named):
        assert run(argv + ["--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chronon: config error:")
        assert err.count("\n") == 1 and len(err) < 200
        if named:
            assert named in err

    def test_overflow_on_worker_thread_exits_2(self, tmp_path, capsys, monkeypatch):
        # The 512^2 residual runs its first half of the columns on a worker thread;
        # the 128^2 and 256^2 ones, on a constant, run first and pass.
        def overflowing(grid):
            f = np.ones((grid.n, grid.n))
            if grid.n == 512:
                f[:, :grid.n // 2] = 1e306
            return f

        monkeypatch.setattr(sr, "_usable_cores", lambda: 2)
        monkeypatch.setattr(sr, "gaussian_2d", overflowing)
        assert run(["snyder", "--grid-n-2d", "512", "--no-emit-plots",
                    "--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chronon: config error: out of floating-point range: overflow")
        assert err.count("\n") == 1

    def test_unwritable_output_dir_exits_3(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert run(["snyder", "--output-dir", blocker / "sub"]) == 3

    def test_check_failure_exits_1(self, tmp_path):
        # A wide momentum spread pushes the mean interference frequency
        # beyond the 1% band around 2mc^2/hbar, an honest check failure.
        code = run(["zitterbewegung", "--sigma-p", "0.45",
                    "--output-dir", tmp_path] + FAST_ZB)
        assert code == 1
        report = (tmp_path / "report.txt").read_text()
        assert "FAIL" in report and "verdict: FAIL" in report


class TestVerifyAlgebraCommand:
    def test_default_run_passes(self, tmp_path):
        assert run(["verify-algebra", "--output-dir", tmp_path]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "spin spectrum" in report
        assert "Compton deformation factor: measured 2" in report
        assert "verdict: PASS" in report
        assert (tmp_path / "manifest.txt").exists()

    def test_undeformed_limit_skips_spin_checks(self, tmp_path):
        assert run(["verify-algebra", "--a", "0", "--output-dir", tmp_path]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "undeformed limit" in report
        assert "deformation factor (a=0): measured 1" in report

    def test_doubled_mass_keeps_compton_anomaly(self, tmp_path):
        # a defaults to hbar/(m c), so the Compton-point factor stays 2.
        assert run(["verify-algebra", "--mass", "2", "--output-dir", tmp_path]) == 0
        assert "Compton deformation factor: measured 2" in (tmp_path / "report.txt").read_text()

    def test_orbital_action_judged_in_units_of_mc(self, tmp_path):
        # ||L_i H|| = 2 hbar c p_transverse is about 1e-150 here: nonzero in units of hbar c mc.
        assert run(["verify-algebra", "--mass", "1e-150", "--a", "1",
                    "--output-dir", tmp_path]) == 0
        line = next(line for line in (tmp_path / "report.txt").read_text().splitlines()
                    if line.startswith("orbital action nonzero off-axis"))
        assert line.endswith("measured all 300 cases, expected > 1e-3 whenever transverse "
                             "momentum > 1e-3: PASS")

    def test_orbital_action_survives_squared_underflow(self, tmp_path):
        # ||L_i H|| is about 1e-200 here: its squared entries underflow, the norm must not.
        assert run(["verify-algebra", "--mass", "1e-200", "--a", "1",
                    "--output-dir", tmp_path]) == 0
        assert "orbital action nonzero off-axis: measured all 300 cases" in \
            (tmp_path / "report.txt").read_text()

    @given(st.floats(-150, 150), st.one_of(st.none(), st.floats(-150, 150)))
    @settings(max_examples=80, deadline=None)
    def test_units_over_the_float_range(self, tmp_path_factory, log_mass, log_a):
        # At hbar = c = 1, a config that validate accepts passes; any other
        # exits 2 with one line.
        mass, a = 10.0 ** log_mass, None if log_a is None else 10.0 ** log_a
        try:
            RunConfig("verify-algebra", mass=mass, a=a).validate()
            valid = True
        except ConfigError:
            valid = False
        argv = ["verify-algebra", "--mass", repr(mass), "--output-dir",
                tmp_path_factory.mktemp("units")] + ([] if a is None else ["--a", repr(a)])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(argv)
        if valid:
            assert code == 0, err.getvalue()
        else:
            assert code == 2 and err.getvalue().count("\n") == 1


class TestSnyderCommand:
    def test_default_run(self, tmp_path):
        assert run(["snyder", "--output-dir", tmp_path]) == 0
        table = (tmp_path / "snyder_residuals.csv").read_text().splitlines()
        assert table[0] == "check,n,a,residual"
        assert any(line.startswith("heisenberg-1d,1024,") for line in table)

    def test_undeformed_rows_labelled(self, tmp_path):
        assert run(["snyder", "--a", "0", "--output-dir", tmp_path]) == 0
        table = (tmp_path / "snyder_residuals.csv").read_text()
        assert "canonical-limit-heisenberg-1d" in table

    @pytest.mark.parametrize("a", [None, "0", "0.5"], ids=["compton", "a0", "a0.5"])
    def test_2d_refinement_monotone_up_to_1024(self, tmp_path, a):
        # n = 256, 512 and 1024 on the real half-spectrum transforms.
        assert run(["snyder", "--grid-n-2d", "1024", "--output-dir", tmp_path]
                   + (["--a", a] if a else [])) == 0
        lines = (tmp_path / "report.txt").read_text().splitlines()
        mono = [line for line in lines if "-2d refinement monotonicity" in line]
        assert len(mono) == 2 and all(line.endswith(": PASS") for line in mono)

    def test_coarse_grid_reported_as_info(self, tmp_path):
        assert run(["snyder", "--grid-n", "8", "--grid-n-2d", "8",
                    "--output-dir", tmp_path]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "below minimum resolution" in report


class TestZitterbewegungCommand:
    def test_fast_run(self, tmp_path):
        assert run(["zitterbewegung", "--output-dir", tmp_path] + FAST_ZB) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "mixed packet oscillation frequency" in report
        assert "no oscillation detected" in report
        table = (tmp_path / "zitterbewegung.csv").read_text().splitlines()
        assert table[0] == "t,x_mixed,x_positive"
        assert len(table) == 1025

    def test_mass_scaling(self, tmp_path):
        assert run(["zitterbewegung", "--mass", "2", "--output-dir", tmp_path,
                    "--grid-n", "1024", "--t-max", "25", "--n-samples", "2048",
                    "--no-emit-plots"]) == 0
        report = (tmp_path / "report.txt").read_text()
        line = next(l for l in report.splitlines()
                    if l.startswith("mixed packet oscillation frequency"))
        measured = float(line.split("measured ")[1].split(",")[0])
        assert measured == pytest.approx(4.0, rel=0.01)

    def test_plots_emitted_by_default(self, tmp_path):
        assert run(["zitterbewegung", "--output-dir", tmp_path,
                    "--grid-n", "1024", "--t-max", "25",
                    "--n-samples", "1024"]) == 0
        svg = (tmp_path / "zitterbewegung.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("flags", [["--p0", "3", "--t-max", "100"], ["--t-max", "200"]],
                             ids=["p0-3-t-max-100", "t-max-200"])
    def test_packet_wrapping_around_the_box_is_config_error(self, tmp_path, capsys, flags):
        # Without the box check both runs exit 1: the wrapped grid series FAILs checks.
        code = run(["zitterbewegung", "--n-samples", "8192", "--output-dir", tmp_path]
                   + flags)
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("chronon: config error: the packet wraps around")
        assert "--grid-n" in lines[0] and "--t-max" in lines[0]


class TestAveragingCommand:
    def test_fast_run(self, tmp_path):
        assert run(["averaging", "--output-dir", tmp_path] + FAST_ZB) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "full-period window suppression" in report
        assert "Compton window attenuation" in report
        table = (tmp_path / "averaging.csv").read_text().splitlines()
        assert table[0] == "t,x_raw,x_averaged"

    def test_too_short_user_window_is_config_error(self, tmp_path):
        code = run(["averaging", "--window", "0.01", "--output-dir", tmp_path]
                   + FAST_ZB)
        assert code == 2

    def test_window_longer_than_series_is_config_error(self, tmp_path, capsys):
        # The full-period window pi is longer than a series ending at t = 2.
        code = run(["averaging", "--t-max", "2", "--output-dir", tmp_path])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("chronon: config error: window 3.14159 ")


class TestReproducibility:
    def test_identical_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["snyder", "--output-dir", a]) == 0
        assert run(["snyder", "--output-dir", b]) == 0
        assert (a / "snyder_residuals.csv").read_bytes() == (b / "snyder_residuals.csv").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["zitterbewegung", "--output-dir", a] + FAST_ZB) == 0
        assert run(["zitterbewegung", "--config", a / "manifest.txt",
                    "--output-dir", b]) == 0
        assert (a / "zitterbewegung.csv").read_bytes() == (b / "zitterbewegung.csv").read_bytes()


class TestReportAndFormatting:
    def test_verdict_logic(self):
        rep = Report("t")
        rep.add("x", 1.0, 1.0, True)
        rep.add("y", "note", "-", None)
        assert rep.passed
        rep.add("z", 2.0, 1.0, False)
        assert not rep.passed

    def test_small_numbers_in_scientific_notation(self):
        assert "e-" in fmt_number(1e-7)
        assert fmt_number(0.0) == "0"
        assert fmt_number(2.0) == "2"

    def test_plot_determinism(self, tmp_path):
        t = np.linspace(0, 1, 50)
        series = dd.TimeSeries(times=t, values=np.sin(t))
        p1, p2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        render_line_plot([series], ["s"], p1, title="x")
        render_line_plot([series], ["s"], p2, title="x")
        assert p1.read_bytes() == p2.read_bytes()

    def test_plot_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            render_line_plot([], [], tmp_path / "x.svg")

    def test_constant_series_plot(self, tmp_path):
        t = np.linspace(0, 1, 10)
        series = dd.TimeSeries(times=t, values=np.full_like(t, 2.0))
        path = tmp_path / "c.svg"
        render_line_plot([series], ["flat"], path)
        assert "polyline" in path.read_text()


class TestAllCommand:
    def test_all_equivalent_to_sequence(self, tmp_path):
        combined = tmp_path / "all"
        assert run(["all", "--output-dir", combined] + FAST_ZB) == 0
        report = (combined / "report.txt").read_text()
        for marker in ("clifford residual", "heisenberg-1d",
                       "mixed packet oscillation frequency",
                       "Compton window attenuation"):
            assert marker in report
        for name in ("snyder_residuals.csv", "zitterbewegung.csv", "averaging.csv"):
            assert (combined / name).exists()
        # The same lines, in the same order, as the four commands run one by one.
        lines = []
        for command in RUNNERS:
            assert run([command, "--output-dir", tmp_path / command] + FAST_ZB) == 0
            lines += (tmp_path / command / "report.txt").read_text().splitlines()[1:-1]
        assert report.splitlines()[1:-1] == lines

    def test_numpy_ma_never_imported(self, tmp_path):
        # np.median imports numpy.ma (about 12 ms) on first use; nothing else should.
        script = (
            "import sys\n"
            "from chronon.cli import main\n"
            "main(['all', '--output-dir', sys.argv[1] + '/all'])\n"
            "assert 'numpy.ma' not in sys.modules, 'all'\n"
            "main(['zitterbewegung', '--sigma-p', '2', '--grid-n', '2048',\n"
            "      '--output-dir', sys.argv[1] + '/wide'])\n"
            "assert 'numpy.ma' not in sys.modules, 'zitterbewegung'\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def gated_line_names(report_text):
    """Names of the PASS/FAIL lines of a report, less any " (n=...)" suffix."""
    return {line.split(": measured ")[0].partition(" (n=")[0]
            for line in report_text.splitlines()
            if line.endswith((": PASS", ": FAIL"))}


class TestGates:
    @pytest.mark.parametrize("op, tol, expected, at_tol, past_tol", [
        ("<=", 1e-6, None, 1e-6, np.nextafter(1e-6, np.inf)),
        (">=", 100.0, None, 100.0, np.nextafter(100.0, -np.inf)),
        ("abs", 0.25, 2.0, 2.25, np.nextafter(2.25, np.inf)),
        # rel: the tolerance 0.25 times |-8| allows a gap of 2.
        ("rel", 0.25, -8.0, -6.0, np.nextafter(-6.0, np.inf)),
    ], ids=["le", "ge", "abs", "rel"])
    def test_tolerance_is_inclusive_and_one_ulp_past_fails(self, monkeypatch, op, tol,
                                                           expected, at_tol, past_tol):
        monkeypatch.setitem(cli.GATES, "probe", (op, tol))
        report = Report("t")
        cli._gate(report, "probe", at_tol, expected)
        cli._gate(report, "probe (n=64)", past_tol, expected)
        assert [line.status for line in report.lines] == ["PASS", "FAIL"]
        shown = f"{op} {tol:g}" if expected is None else fmt_number(expected)
        assert {line.expected for line in report.lines} == {shown}

    def test_every_gate_names_a_battery_line(self, tmp_path):
        names = set()
        for argv in (["all"] + FAST_ZB, ["snyder", "--a", "0"], ["verify-algebra", "--a", "0"]):
            out = tmp_path / argv[0]
            assert run(argv + ["--output-dir", out]) == 0
            names |= gated_line_names((out / "report.txt").read_text())
        assert set(cli.GATES) <= names
