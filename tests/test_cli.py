import contextlib
import dataclasses
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronon import cli
from chronon import dirac_dynamics as dd
from chronon import gamma_algebra as ga
from chronon import snyder_rep as sr
from chronon.cli import RUNNERS, main
from chronon.config import (CHAINS, FREQUENCY, KEY_SPECS, LENGTH, MOMENTUM, TIME, ConfigError,
                            RunConfig, UsageError, parse_argv, read_config_file, resolve, usage)
from chronon.reporting import Report, fmt_number, render_line_plot

FAST_ZB = ["--grid-n", "1024", "--t-max", "25", "--n-samples", "1024",
           "--no-emit-plots"]


def run(args):
    return main([str(a) for a in args])


def gaussian_2d(grid):
    """The 2-D Snyder witness on the whole grid: e^(-(p_x - 1/2)^2/2) e^(-p_y^2/2)."""
    return np.outer(sr.gaussian_1d(grid, 0.5), sr.gaussian_1d(grid))


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve("verify-algebra", {}, {})
        assert cfg.hbar == cfg.c == cfg.mass == 1.0
        assert cfg.a_prime == 1.0
        assert [cfg.to_user(1.0, dim) for dim in (MOMENTUM, LENGTH, TIME)] == [1.0] * 3

    def test_compton_default_tracks_mass(self):
        # a defaults to the Compton wavelength hbar/(m c), one unit of length.
        cfg = resolve("zitterbewegung", {}, {"mass": 2.0})
        assert cfg.to_user(1.0, LENGTH) == 0.5 and cfg.a_prime == 1.0
        cfg = resolve("zitterbewegung", {}, {"hbar": 2.0, "c": 3.0, "mass": 5.0})
        assert cfg.to_user(1.0, LENGTH) == pytest.approx(2.0 / 15.0, rel=1e-15)
        assert cfg.to_user(1.0, TIME) == pytest.approx(2.0 / 45.0, rel=1e-15)

    def test_explicit_a_in_compton_wavelengths(self):
        assert resolve("snyder", {}, {"a": 0.25}).a_prime == 0.25
        assert resolve("snyder", {}, {"a": 0.25, "mass": 2.0, "hbar": 4.0}).a_prime == 0.125

    @pytest.mark.parametrize("key", ["hbar", "c", "mass", "a"])
    def test_nonpositive_units_rejected(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            resolve("verify-algebra", {}, {key: 0.0 if key != "a" else -1.0})

    def test_edge_products_stay_in_range(self):
        # m c^2/hbar = 1e300 * 1e150 * 1e150 / 1e300 is formed without the 1e600 on the way;
        # where plain arithmetic in the same order stays in range, the bits are its bits.
        cfg = RunConfig("zitterbewegung", hbar=1e300, c=1e150, mass=1e300)
        assert 1e300 * 1e150 * 1e150 / 1e300 == math.inf
        assert cfg.to_user(1.0, FREQUENCY) == 1.0 / 1e300 * 1e300 * 1e150 * 1e150 < math.inf
        for units in (dict(hbar=2.0, c=3.0, mass=0.7), dict(hbar=1e-3, c=1e2, mass=7.0)):
            cfg = RunConfig("zitterbewegung", **units)
            hbar, c, m = cfg.hbar, cfg.c, cfg.mass
            assert cfg.to_user(1.0, TIME) == 1.0 * hbar / m / c / c
            assert cfg.to_user(0.3, (1, 1, 2)) == 0.3 * hbar * m * c * c  # hbar m c^2
        assert RunConfig("snyder", a=1e200, mass=1e200, hbar=1e-10).a_prime == math.inf

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
        # a' = a m c/hbar and its square may underflow (the deformation is then below
        # roundoff); a'^2 may not overflow.  Each command checks only the scales it
        # forms: the packet commands' trend fit squares the times in hbar/(m c^2).
        assert resolve("verify-algebra", {}, {"mass": 1e-200, "a": 1.0}).a_prime == 1e-200
        assert resolve("snyder", {}, {"a": 0.0}).a_prime == 0.0
        assert resolve("snyder", {}, {"a": 1e-200}).a_prime == 1e-200
        with pytest.raises(ConfigError, match="^\\(a mass c/hbar\\)\\^2 is out of "
                                              "floating-point range at a=1e\\+200, mass=1, "
                                              "c=1, hbar=1$"):
            resolve("verify-algebra", {}, {"a": 1e200})
        assert resolve("zitterbewegung", {}, {"t_max": math.sqrt(sys.float_info.min)}).t_max > 0
        with pytest.raises(ConfigError, match="^t-max/\\(hbar/\\(mass c\\^2\\)\\) is out of "
                                              "floating-point range at t-max=50, hbar=1e\\+160, "
                                              "mass=1, c=1$"):
            resolve("zitterbewegung", {}, {"hbar": 1e160})
        assert resolve("snyder", {}, {"hbar": 1e160}).hbar == 1e160

    @pytest.mark.parametrize("attr, name, witness", [
        ("p_max", "p-max\\^2", sr.gaussian_1d), ("p_max_2d", "2 p-max-2d\\^2", gaussian_2d)])
    def test_box_edge_range(self, attr, name, witness):
        # The largest Compton-unit edge validate accepts squares without overflow in its
        # witness.  At the default units, where the edge is its Compton-unit value, and
        # at a = 0, where the deformed coefficient does not bound the edge first.
        squares = 2 if attr == "p_max_2d" else 1
        limit = math.sqrt(sys.float_info.max / squares)
        edge = getattr(resolve("snyder", {}, {attr: math.nextafter(limit, 0), "a": 0.0}), attr)
        with np.errstate(over="raise"):
            witness(sr.GridSpec1D(n=8, p_max=edge))
        with pytest.raises(ConfigError, match=f"^{name}/\\(mass c\\)\\^2 is out of floating-point "
                                              "range at"):
            resolve("snyder", {}, {attr: limit, "a": 0.0})

    def test_negative_mass_rejected(self):
        with pytest.raises(ConfigError):
            resolve("zitterbewegung", {}, {"mass": -1.0})

    def test_bad_mode_rejected(self, tmp_path):
        # The packet commands always run both packets, so there is no mode to
        # choose: asking for one is a usage or config error.
        assert run(["zitterbewegung", "--mode", "positive", "--output-dir", tmp_path]) == 2
        path = tmp_path / "run.cfg"
        path.write_text("mode = mixed\n")
        assert run(["zitterbewegung", "--config", path, "--output-dir", tmp_path]) == 2

    @pytest.mark.parametrize("text, emit", [("yes", True), ("false", False)])
    def test_emit_plots_in_config_file(self, tmp_path, text, emit):
        path = tmp_path / "run.cfg"
        path.write_text(f"emit-plots = {text}\n")
        assert read_config_file(str(path)) == {"emit_plots": emit}

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

    @pytest.mark.parametrize("env", [None, "from-env"], ids=["no-env", "env"])
    @pytest.mark.parametrize("file_text, flags, expected", [
        ("output-dir =\n", [], None),
        ("", ["--output-dir="], None),
        ("output-dir = from-file\n", ["--output-dir="], None),
        ("output-dir = from-file\n", [], "from-file"),
        ("output-dir =\n", ["--output-dir=from-flag"], "from-flag"),
    ], ids=["empty-in-file", "empty-flag", "empty-flag-over-file", "file", "flag-over-empty"])
    def test_empty_output_dir_falls_back(self, tmp_path, monkeypatch, env, file_text, flags,
                                         expected):
        # An empty output-dir, from the file or from --output-dir=, is $CHRONON_OUTPUT_DIR,
        # else out (None above); the flag's value, empty too, beats the file's.
        if env is None:
            monkeypatch.delenv("CHRONON_OUTPUT_DIR", raising=False)
        else:
            monkeypatch.setenv("CHRONON_OUTPUT_DIR", env)
        path = tmp_path / "run.cfg"
        path.write_text(file_text)
        command, config_path, flag_values = parse_argv(["snyder", "--config", str(path)] + flags)
        cfg = resolve(command, read_config_file(config_path), flag_values)
        assert cfg.output_dir == (expected or env or "out")


# KEY_SPECS key -> (flag text, or None for the --no- form of a boolean; parsed value)
FLAG_SAMPLES = {
    "hbar": ("2", 2.0), "c": ("3", 3.0), "mass": ("0.5", 0.5), "a": ("0.25", 0.25),
    "grid-n": ("256", 256), "p-max": ("10", 10.0), "grid-n-2d": ("32", 32),
    "p-max-2d": ("6", 6.0), "p0": ("0.5", 0.5), "sigma-p": ("0.2", 0.2),
    "spinor-seed": ("1,0,1j,0", (1 + 0j, 0j, 1j, 0j)), "t-max": ("20", 20.0),
    "n-samples": ("512", 512), "window": ("1.5", 1.5), "output-dir": ("somewhere", "somewhere"),
    "emit-plots": (None, False), "seed": ("7", 7),
}


def parsed_config(argv):
    """The RunConfig that main() resolves from argv, with no config file."""
    command, config_path, flag_values = parse_argv(argv)
    assert config_path is None
    return resolve(command, {}, flag_values)


def argparse_reference():
    """The argparse parser that parse_argv replaced: what it accepted, parse_argv accepts."""
    import argparse
    parser = argparse.ArgumentParser(prog="chronon")
    parser.add_argument("command", choices=CHAINS)
    parser.add_argument("--config", default=None)
    for key, (attr, parse) in KEY_SPECS.items():
        if key == "emit-plots":
            parser.add_argument(f"--{key}", dest=attr, default=None,
                                action=argparse.BooleanOptionalAction)
        else:
            parser.add_argument(f"--{key}", dest=attr, default=None, type=parse)
    return parser


# Whole keys, prefixes (unique, ambiguous or exact) and unknown names; values of every kind.
OPTION_NAMES = ["config", *KEY_SPECS, "no-emit-plots", "help", "he", "p", "grid", "grid-n-",
                "s", "sig", "no", "e", "conf", "frob"]
OPTION_VALUES = ["2", "-1", "-0.5", "0.25", "x", "1,0,1j,0", "", "out", "snyder"]
ARGVS = st.lists(st.one_of(
    st.sampled_from([*CHAINS, "frobnicate", "--", "-h", "x", "-1"]).map(lambda t: [t]),
    st.sampled_from(OPTION_NAMES).map(lambda name: [f"--{name}"]),
    st.tuples(st.sampled_from(OPTION_NAMES), st.sampled_from(OPTION_VALUES)).flatmap(
        lambda nv: st.sampled_from([[f"--{nv[0]}", nv[1]], [f"--{nv[0]}={nv[1]}"]]))),
    max_size=6).map(lambda groups: sum(groups, []))


class TestParser:
    @given(ARGVS)
    @settings(max_examples=400, deadline=None)
    def test_accepts_what_argparse_accepted(self, argv):
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            try:
                args = argparse_reference().parse_args(argv)
            except SystemExit:  # a usage error, or help
                args = None
        try:
            parsed = parse_argv(argv)
        except UsageError as exc:
            assert args is None and "\n" not in str(exc)
            return
        if args is not None:
            assert parsed == (args.command, args.config, {
                attr: getattr(args, attr) for attr, _ in KEY_SPECS.values()
                if getattr(args, attr) is not None})

    @pytest.mark.parametrize("command", CHAINS)
    def test_every_flag_parses_for_every_command(self, command):
        assert set(FLAG_SAMPLES) == set(KEY_SPECS)
        argv = [command]
        for key, (text, _) in FLAG_SAMPLES.items():
            argv += [f"--no-{key}"] if text is None else [f"--{key}", text]
        expected = RunConfig(command, **{KEY_SPECS[key][0]: value
                                         for key, (_, value) in FLAG_SAMPLES.items()})
        assert parsed_config(argv) == expected
        # Flags may also come before the command.
        assert parsed_config(argv[1:] + [command]) == expected

    def test_keys_are_the_fields_after_command(self):
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert names[0] == "command"
        assert list(KEY_SPECS) == [name.replace("_", "-") for name in names[1:]]
        assert [attr for attr, _ in KEY_SPECS.values()] == names[1:]

    @pytest.mark.parametrize("key", FLAG_SAMPLES)
    def test_config_file_key_parses_as_its_flag(self, key, tmp_path):
        text, value = FLAG_SAMPLES[key]
        path = tmp_path / "run.conf"
        path.write_text(f"{key} = {'false' if text is None else text}\n")
        from_file = resolve("snyder", read_config_file(str(path)), {})
        from_flag = parsed_config(["snyder"] + ([f"--no-{key}"] if text is None
                                                else [f"--{key}", text]))
        assert from_file == from_flag
        assert getattr(from_file, KEY_SPECS[key][0]) == value

    @pytest.mark.parametrize("flags, emit", [([], True), (["--no-emit-plots"], False),
                                             (["--emit-plots"], True)])
    def test_emit_plots_flag(self, flags, emit):
        assert parsed_config(["snyder"] + flags).emit_plots is emit

    def test_key_equals_value(self):
        assert parsed_config(["snyder", "--grid-n=256", "--spinor-seed=1,0,1j,0"]) == \
            parsed_config(["snyder", "--grid-n", "256", "--spinor-seed", "1,0,1j,0"])
        assert parsed_config(["snyder", "--grid-n=256"]).grid_n == 256

    def test_negative_values(self):
        cfg = parsed_config(["zitterbewegung", "--p0", "-0.5", "--p0=-0.25", "--p0", "-1"])
        assert cfg.p0 == -1.0
        assert parsed_config(["zitterbewegung", "--p0", "-0.5"]).p0 == -0.5

    def test_last_repeat_wins(self):
        cfg = parsed_config(["snyder", "--grid-n", "64", "--no-emit-plots", "--grid-n=128",
                             "--emit-plots"])
        assert (cfg.grid_n, cfg.emit_plots) == (128, True)

    def test_unique_prefix_names_its_key(self):
        assert parsed_config(["snyder", "--sigma", "0.2"]) == \
            parsed_config(["snyder", "--sigma-p", "0.2"])
        # An exact key beats a longer key it begins.
        cfg = parsed_config(["snyder", "--grid-n", "64", "--grid-n-2", "32", "--no", "--t=9"])
        assert (cfg.grid_n, cfg.grid_n_2d, cfg.emit_plots, cfg.t_max) == (64, 32, False, 9.0)

    def test_config_path_and_literal_command(self):
        assert parse_argv(["--conf=run.cfg", "snyder", "--config", "x.cfg"]) == \
            ("snyder", "x.cfg", {})
        assert parse_argv(["--mass", "2", "--", "snyder"]) == ("snyder", None, {"mass": 2.0})

    @given(st.permutations([("snyder",), ("--mass", "2"), ("--grid-n=256",), ("--no-emit-plots",),
                            ("--p0", "-0.5"), ("--sigma", "0.2"), ("--spinor-seed", "1,0,1j,0"),
                            ("--a=0",)]))
    @settings(max_examples=60, deadline=None)
    def test_order_does_not_matter(self, groups):
        expected = dataclasses.replace(resolve("snyder", {}, {}), mass=2.0, grid_n=256,
                                       emit_plots=False, p0=-0.5, sigma_p=0.2,
                                       spinor_seed=(1 + 0j, 0j, 1j, 0j), a=0.0)
        assert parsed_config([token for group in groups for token in group]) == expected

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["snyder", "--mass", "2", "--he"],
                                      ["--mass", "2", "-h", "--frobnicate"]])
    def test_help_names_every_command_and_key(self, capsys, argv):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out == usage()
        assert all(f"  {command} " in out for command in CHAINS)
        assert all(f"--{key} VALUE" in out for key in KEY_SPECS if key != "emit-plots")
        assert "--[no-]emit-plots" in out and "--config PATH" in out

    @pytest.mark.parametrize("argv, message", [
        (["snyder", "--p", "1"], "ambiguous option: --p could match --p-max, --p-max-2d, --p0"),
        (["snyder", "--grid-n"], "argument --grid-n: expected one argument"),
        (["snyder", "--grid-n", "--mass", "2"], "argument --grid-n: expected one argument"),
        (["snyder", "--emit-plots=yes"], "argument --emit-plots: ignored explicit argument 'yes'"),
        (["snyder", "--grid-n", "x"],
         "argument --grid-n: bad value 'x': invalid literal for int() with base 10: 'x'"),
        (["snyder", "--grid-n=--"],
         "argument --grid-n: bad value '--': invalid literal for int() with base 10: '--'"),
        (["snyder", "--spinor-seed", "1,x"],
         "argument --spinor-seed: bad value '1,x': complex() arg is a malformed string"),
        (["snyder", "all", "--frobnicate=1"], "unrecognized arguments: all --frobnicate=1"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"chronon: error: {message}\n")


class TestExitStatuses:
    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err == \
            "chronon: error: the following arguments are required: command\n"

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["snyder", "--frobnicate", "1"]) == 2
        assert capsys.readouterr().err == "chronon: error: unrecognized arguments: --frobnicate 1\n"

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.splitlines()[-1].startswith(
            "chronon: error: argument command: invalid choice: 'frobnicate'")

    def test_flags_without_command_are_usage_error(self, capsys):
        assert main(["--mass", "2", "--no-emit-plots"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.splitlines()[-1] == \
            "chronon: error: the following arguments are required: command"

    @pytest.mark.parametrize("command", CHAINS)
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        assert run([command, "--seed", "-1", "--output-dir", tmp_path]) == 2
        assert capsys.readouterr().err == \
            "chronon: config error: seed must be nonnegative, got seed=-1\n"

    @pytest.mark.parametrize("argv, named", [
        (["snyder", "--grid-n-2d", "100"], "grid-n-2d=100"),
        (["all", "--grid-n", "96"], "grid-n=96"),
        (["snyder", "--grid-n", "4"], "grid-n=4"),
        (["zitterbewegung", "--n-samples", "1"], "n-samples=1"),
        (["all", "--p-max", "nan"], "p-max=nan"),
        (["all", "--spinor-seed", "1,0,1"], "spinor-seed=((1+0j), 0j, (1+0j))"),
        (["zitterbewegung", "--spinor-seed", "0,0,0,0"], "spinor-seed=(0j, 0j, 0j, 0j)"),
        (["all", "--hbar", "0"], "hbar=0"),
        (["averaging", "--window", "-1"], "window=-1"),
        (["all", "--a", "-1"], "a=-1"),
        # The grid step 2 p-max'/n is subnormal, and the wavenumbers pi/dp' would overflow.
        (["snyder", "--p-max", "1e-307"], "p-max=1e-307, grid-n=1024"),
        (["snyder", "--p-max-2d", "1e-307"], "p-max-2d=1e-307, grid-n-2d=256"),
        (["zitterbewegung", "--p-max", "1e-307"], "p-max=1e-307, grid-n=1024"),
        # t-max' = 1e-120 is fine, but the user-unit sample spacing is subnormal.
        (["zitterbewegung", "--t-max", "1e-320", "--hbar", "1e-200"], "n-samples=4096"),
        # Counts beyond the float range: the quotients are taken exactly.
        (["snyder", "--grid-n", str(2**1100)], f"grid-n={2**1100},"),
        (["averaging", "--n-samples", str(10**400)], f"n-samples={10**400}"),
        # Counts whose 64-byte spinor rows numpy cannot describe.
        (["snyder", "--grid-n", str(2**62)], f"at most {sys.maxsize // 64}, got grid-n={2**62}"),
        (["snyder", "--grid-n-2d", str(2**62)],
         f"at most {sys.maxsize // 64}, got grid-n-2d={2**62}"),
        (["zitterbewegung", "--grid-n", str(2**62)],
         f"at most {sys.maxsize // 64}, got grid-n={2**62}"),
        (["zitterbewegung", "--n-samples", str(10**20)],
         f"at most {sys.maxsize // 64}, got n-samples={10**20}"),
        (["zitterbewegung", "--t-max", "0"], "t-max=0"),
        # The packet's closed-form preconditions, named in the user's units.
        (["zitterbewegung", "--sigma-p", "0.05"], "sigma-p=0.05, p-max=20, grid-n=1024"),
        (["all", "--p0", "18", "--sigma-p", "1"], "p0=18, sigma-p=1, p-max=20"),
        (["averaging", "--n-samples", "64", "--hbar", "0.5"],
         "n-samples=64, t-max=50, hbar=0.5, mass=1, c=1"),
        (["zitterbewegung", "--n-samples", "16", "--t-max", "1"], "n-samples=16"),
        (["averaging", "--t-max", "2"], "t-max=2, n-samples=4096, hbar=1, mass=1, c=1"),
        (["averaging", "--window", "0.01"], "window=0.01, t-max=50, n-samples=4096"),
        (["averaging", "--window", "1e300", "--hbar", "2"],
         "window=1e+300, t-max=50, n-samples=4096"),
    ], ids=["grid-n-2d-100", "grid-n-96", "grid-n-4", "n-samples-1", "p-max-nan",
            "spinor-seed-3", "spinor-seed-zero", "hbar-0", "window-negative", "a-negative", "p-max-1e-307",
            "p-max-2d-1e-307", "zitterbewegung-p-max-1e-307", "t-max-1e-320", "grid-n-2^1100",
            "n-samples-1e400", "snyder-grid-n-2^62", "snyder-grid-n-2d-2^62",
            "zitterbewegung-grid-n-2^62", "n-samples-1e20", "t-max-0", "sigma-p-under-2-steps",
            "support-past-p-max", "undersampled", "n-samples-under-32",
            "full-period-window-too-long", "window-under-2-intervals", "window-too-long"])
    def test_each_rule_names_its_key(self, tmp_path, capsys, argv, named):
        assert run(argv + ["--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chronon: config error:") and err.count("\n") == 1
        assert names_key(err) and named in err

    @pytest.mark.parametrize("key, n_key, n", [("p-max", "grid-n", 1024),
                                               ("p-max-2d", "grid-n-2d", 256)])
    def test_smallest_normal_grid_step_runs(self, tmp_path, capsys, key, n_key, n):
        # The step 2 p'/n divides the wavenumbers.  At the smallest normal step the run
        # ends in its report; one ulp of the edge less is rejected, naming both keys.
        # Overflow itself starts at a step of pi/max, about 1.75e-308.
        argv = ["snyder", "--no-emit-plots", "--output-dir", tmp_path, f"--{n_key}", n]
        edge = sys.float_info.min * n / 2
        assert run(argv + [f"--{key}", edge]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert run(argv + [f"--{key}", math.nextafter(edge, 0)]) == 2
        err = capsys.readouterr().err
        assert f"is out of floating-point range at {key}=" in err and f"{n_key}={n}," in err

    def test_smallest_normal_user_time_spacing_runs(self, tmp_path, capsys):
        # hbar = 1e-200 puts t-max' = t-max m c^2/hbar near 1e-105, inside the range the
        # trend fit squares; the spacing t-max/(n-samples - 1) of the series in the user's
        # units must be a normal float for the written times to stay exact and distinct.
        argv = ["zitterbewegung", "--hbar", "1e-200", "--n-samples", "33", "--no-emit-plots",
                "--output-dir", tmp_path]
        edge = 32 * sys.float_info.min
        assert run(argv + ["--t-max", edge]) in (0, 1)
        assert capsys.readouterr().err == ""
        assert len((tmp_path / "zitterbewegung.csv").read_text().splitlines()) == 34
        assert run(argv + ["--t-max", math.nextafter(edge, 0)]) == 2
        assert capsys.readouterr().err.startswith(
            "chronon: config error: t-max/(n-samples - 1) is out of floating-point range at "
            "t-max=7.12024e-307, n-samples=33")

    def test_negative_mass_exits_2(self, tmp_path):
        assert run(["zitterbewegung", "--mass", "-1",
                    "--output-dir", tmp_path]) == 2

    @pytest.mark.parametrize("argv, named", [
        (["all", "--t-max", "inf"], None),
        (["all", "--p-max", "nan"], None),
        (["all", "--spinor-seed", "nan,0,1,0"], None),
        (["all", "--mass", "nan"], None),
        # Finite, but a derived scale that the command forms is out of floating-point
        # range: the line names the keys.  verify-algebra forms only a' = a m c/hbar.
        (["all", "--c", "1e200"], "c=1e+200"),
        (["all", "--a", "1e200"], "a=1e+200"),
        (["all", "--hbar", "1e200"], "hbar=1e+200"),
        (["all", "--mass", "1e-300"], "mass=1e-300"),
        (["zitterbewegung", "--mass", "1e-300"], "mass=1e-300"),
        (["averaging", "--mass", "1e-300"], "mass=1e-300"),
        (["verify-algebra", "--c", "1e200", "--a", "1e200"], "c=1e+200"),
        (["snyder", "--a", "1e200"], "a=1e+200"),
        (["verify-algebra", "--mass", "1e-300", "--a", "1e300", "--c", "1e300"],
         "mass=1e-300"),
        # Numbers print in :g form, never as a 300-digit integer.
        (["all", "--t-max", "1e300"], "got n-samples=4096, t-max=1e+300,"),
        (["all", "--window", "1e300"], "got window=1e+300, t-max=50, n-samples=4096"),
        # The Gaussian witnesses square the box edges.
        (["snyder", "--p-max", "1e160"], "p-max=1e+160"),
        (["snyder", "--p-max-2d", "1e160"], "p-max-2d=1e+160"),
        # x p f reaches (a' p')^2 p' at the box edge p', in Compton units.
        (["snyder", "--p-max", "1.34e154"], "(a p-max/hbar)^2 p-max/(mass c) is out of "
                                            "floating-point range at p-max=1.34e+154"),
        (["snyder", "--a", "10", "--p-max", "1e154"], "p-max=1e+154, a=10"),
        (["snyder", "--mass", "1e-10", "--p-max", "1e150"], "p-max=1e+150, mass=1e-10"),
        (["snyder", "--p-max-2d", "1e110"], "p-max-2d=1e+110"),
    ], ids=["t-max-inf", "p-max-nan", "spinor-seed-nan", "mass-nan", "c-1e200", "a-1e200",
            "hbar-1e200", "mass-1e-300", "zitterbewegung-mass-1e-300",
            "averaging-mass-1e-300", "verify-algebra-c-1e200", "snyder-a-1e200",
            "verify-algebra-mass-1e-300", "t-max-1e300", "window-1e300",
            "snyder-p-max-1e160", "snyder-p-max-2d-1e160", "snyder-p-max-1.34e154",
            "snyder-a-10-p-max-1e154", "snyder-mass-1e-10-p-max-1e150",
            "snyder-p-max-2d-1e110"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, argv, named):
        assert run(argv + ["--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chronon: config error:")
        assert err.count("\n") == 1 and len(err) < 200
        if named:
            assert named in err

    @staticmethod
    def overflow_at_512(monkeypatch):
        """A witness factor of 1e306 on half the 512-point grid; the 128- and 256-point
        residuals run first and pass."""
        residual = sr.coordinate_commutator_residual_2d

        def overflowing(grid, a, u, v):
            if grid.n == 512:
                u = u.copy()
                u[:grid.n // 2] = 1e306
            return residual(grid, a, u, v)

        monkeypatch.setattr(sr, "coordinate_commutator_residual_2d", overflowing)
        return ["snyder", "--grid-n-2d", "512", "--no-emit-plots"]

    def test_overflowing_witness_exits_2(self, tmp_path, capsys, monkeypatch):
        assert run(self.overflow_at_512(monkeypatch) + ["--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chronon: config error: out of floating-point range: overflow")
        assert err.count("\n") == 1

    def test_overflow_on_worker_thread_exits_2(self, tmp_path, capsys, monkeypatch):
        # np.errstate is local to a thread, and a new thread only warns on overflow;
        # main sets its own, so run from a worker thread it still exits 2.
        argv = self.overflow_at_512(monkeypatch) + ["--output-dir", tmp_path]
        codes = []
        worker = threading.Thread(target=lambda: codes.append(run(argv)))
        worker.start()
        worker.join()
        assert codes == [2]
        err = capsys.readouterr().err
        assert err.startswith("chronon: config error: out of floating-point range: overflow")
        assert err.count("\n") == 1

    def test_xy_residual_finite_at_large_mass_c(self, tmp_path):
        # m c = 2^700, about 5e210, with the boxes of the default run in units of m c.
        # Powers of two convert exactly, so the run is its hbar = c = m = 1 twin: the same
        # report and the same Compton-unit residuals, finite; only the a column differs.
        # Both fail, on the unresolved 1-D line.
        twin, run_dir = tmp_path / "twin", tmp_path / "run"
        grids = ["snyder", "--grid-n", "64", "--grid-n-2d", "32"]
        assert run(grids + ["--output-dir", twin]) == 1
        mc = 2.0**700
        assert run(grids + ["--hbar", 2.0**200, "--c", 2.0**200, "--mass", 2.0**500,
                            "--p-max", 20 * mc, "--p-max-2d", 12 * mc,
                            "--output-dir", run_dir]) == 1
        assert (run_dir / "report.txt").read_text() == (twin / "report.txt").read_text()
        rows, twin_rows = ([row.split(",") for row in (d / "snyder_residuals.csv").read_text()
                            .splitlines()[1:]] for d in (run_dir, twin))
        assert [(c, n, r) for c, n, _, r in rows] == [(c, n, r) for c, n, _, r in twin_rows]
        assert {a for _, _, a, _ in rows} == {fmt_number(2.0**-500)}
        xy = [float(r) for c, _, _, r in rows if c == "coordinate-xy-2d"]
        assert len(xy) == 3 and all(math.isfinite(r) for r in xy)

    def test_divide_by_zero_exits_2_with_one_line(self, tmp_path):
        # The trend fit on times whose squares underflow divides by zero inside np.polyfit;
        # numpy raises there, so no RuntimeWarning and source line reach stderr before the
        # message.  No config reaches this fit any more (validate keeps the Compton-unit
        # times above sqrt(tiny)), so the fit is made degenerate in a fresh interpreter,
        # where numpy has printed no warning yet.
        script = ("import sys\n"
                  "import numpy as np\n"
                  "from chronon import dirac_dynamics as dd\n"
                  "from chronon.cli import main\n"
                  "measure = dd.measure_oscillation\n"
                  "def degenerate(series):\n"
                  "    np.polyfit(1e-300 * series.times, series.values, 1)\n"
                  "    return measure(series)\n"
                  "dd.measure_oscillation = degenerate\n"
                  "sys.exit(main(['zitterbewegung', '--grid-n', '1024', '--t-max', '25',\n"
                  "               '--n-samples', '1024', '--no-emit-plots',\n"
                  "               '--output-dir', sys.argv[1]]))\n")
        proc = run_fresh(script, tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("chronon: config error: out of floating-point range: "
                                      "divide by zero")

    # Below validate's count bound of 2^57 - 1, each of these asks numpy for an array of more
    # than 2^47 bytes, the whole user address space of a 64-bit process, so the allocation
    # fails at once and nothing is ever allocated.
    @pytest.mark.parametrize("argv", [
        ["zitterbewegung", "--n-samples", 10**15],
        ["zitterbewegung", "--grid-n", 2**50],
        ["snyder", "--grid-n", 2**50],
        ["snyder", "--grid-n-2d", 2**50],
    ], ids=["zb-n-samples", "zb-grid-n", "snyder-grid-n", "snyder-grid-n-2d"])
    def test_unallocatable_size_exits_2(self, tmp_path, capsys, argv):
        assert run(argv + ["--no-emit-plots", "--output-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chronon: config error: out of memory: Unable to allocate ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, errno", [("missing.cfg", 2), ("", 21)],
                             ids=["missing", "a-directory"])
    def test_unopenable_config_exits_2(self, tmp_path, capsys, name, errno):
        # The config file is read in the block that maps every failure to its status.
        path = tmp_path / name
        assert run(["snyder", "--config", path, "--output-dir", tmp_path / "out"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"chronon: config error: [Errno {errno}] " \
            f"{os.strerror(errno)}: '{path}'\n"
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_dir_exits_3(self, tmp_path, capsys):
        # The output dir is made in the guarded block that writes every file.
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert run(["snyder", "--output-dir", blocker / "sub"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("chronon: I/O error: ")
        assert str(blocker / "sub") in err

    @pytest.mark.parametrize("blocked", ["zitterbewegung.csv", "report.txt"])
    def test_unwritable_artifact_exits_3(self, tmp_path, capsys, blocked):
        # A directory where a runner's CSV, or the report written after the runners, goes.
        (tmp_path / blocked).mkdir()
        assert run(["zitterbewegung", "--output-dir", tmp_path] + FAST_ZB) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("chronon: I/O error: ")

    @pytest.mark.parametrize("text, message", [
        ("emit-plots = maybe", "bad value for emit-plots: not a boolean: 'maybe'"),
        ("emit-plots", "expected 'key = value'"),
    ], ids=["not-a-boolean", "no-equals-sign"])
    def test_config_file_parse_error_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n")
        assert run(["snyder", "--config", path, "--output-dir", tmp_path]) == 2
        assert capsys.readouterr().err == f"chronon: config error: {path}:1: {message}\n"

    @pytest.mark.parametrize("scale, spectrum", [
        (1 + 1j, "-0.5-0.5j -0.5-0.5j 0.5+0.5j 0.5+0.5j"),
        (2, "-1 -1 1 1"),
    ], ids=["non-hermitian", "doubled"])
    def test_spin_mutant_fails_the_spin_line(self, tmp_path, capsys, monkeypatch, scale,
                                             spectrum):
        # Scaling S_i scales kappa^2, so the generators read (1+i) S_i, which is not
        # Hermitian, or 2 S_i: the spin line FAILs and the report keeps every line.
        assert run(["verify-algebra", "--output-dir", tmp_path / "default"]) == 0
        monkeypatch.setattr(ga, "SPIN", tuple(scale * s for s in ga.SPIN))
        assert run(["verify-algebra", "--output-dir", tmp_path / "mutant"]) == 1
        assert capsys.readouterr().err == ""
        default, mutant = (report_lines(tmp_path / name) for name in ("default", "mutant"))
        assert list(mutant) == list(default)
        assert mutant["spin spectrum"] == (f"spin spectrum: measured {'; '.join([spectrum] * 3)}, "
                                           "expected {-0.5 x2, +0.5 x2}: FAIL")

    def test_internal_value_error_is_a_traceback(self, tmp_path, capsys, monkeypatch):
        # A defect is not the input's fault.  A window_samples that returns an even count
        # misaligns the averaged series with its times, and numpy's ValueError leaves main
        # as it is, not as a config error and exit 2.
        odd = dd.window_samples
        monkeypatch.setattr(dd, "window_samples", lambda dt, window: odd(dt, window) + 1)
        with pytest.raises(ValueError, match="Incompatible dimensions") as caught:
            run(["averaging", "--output-dir", tmp_path] + FAST_ZB)
        assert not isinstance(caught.value, ConfigError)
        assert capsys.readouterr().err == ""

    # cli.run, the process entry point, reached both ways: as the console script's function
    # and as python -m chronon.cli, which runs the module as __main__.
    ENTRY_POINTS = {"run": "from chronon import cli\ncli.run()\n",
                    "-m": "import runpy\nrunpy.run_module('chronon.cli', run_name='__main__')\n"}
    EVEN_WINDOW = ("from chronon import dirac_dynamics as dd\n"
                   "odd = dd.window_samples\n"
                   "dd.window_samples = lambda dt, window: odd(dt, window) + 1\n")

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_defect_exits_4_with_its_traceback(self, tmp_path, entry):
        # The even-window defect of the test above, in a process: exit 4, not a verdict's 1.
        argv = ["chronon", "averaging", "--output-dir", str(tmp_path / "out")] + FAST_ZB
        proc = run_fresh(f"import sys\n{self.EVEN_WINDOW}sys.argv = {argv!r}\n"
                         + self.ENTRY_POINTS[entry], tmp_path)
        assert proc.returncode == 4 and proc.stdout == ""
        assert proc.stderr.startswith("Traceback (most recent call last):\n")
        assert proc.stderr.splitlines()[-1].startswith(
            "numpy.linalg.LinAlgError: Incompatible dimensions")
        assert not (tmp_path / "out" / "report.txt").exists()

    @pytest.mark.parametrize("entry, argv, status", [
        ("-m", ["verify-algebra"], 0), ("run", ["verify-algebra"], 0),
        ("run", ["snyder", "--p-max", "1e100", "--grid-n", "64"], 1),
        ("run", ["frobnicate"], 2), ("run", ["verify-algebra", "--output-dir", "taken/out"], 3)],
        ids=["pass--m", "pass", "fail", "usage", "io"])
    def test_statuses_0_to_3_unchanged(self, tmp_path, entry, argv, status):
        (tmp_path / "taken").write_text("")  # a file where the output dir's parent should be
        if "--output-dir" not in argv:
            argv = argv + ["--output-dir", str(tmp_path / "out")]
        proc = run_fresh(f"import os, sys\nos.chdir(sys.argv[1])\n"
                         f"sys.argv = {['chronon'] + argv!r}\n" + self.ENTRY_POINTS[entry],
                         tmp_path)
        assert proc.returncode == status, proc.stderr
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize("argv, coefficient", [
        (["--mass", "2", "--a", "0.5"], "1"), (["--a", "0.25"], "0.0625")], ids=["a'1", "a'0.25"])
    def test_mixed_deformation_coefficient_is_a_prime_squared(self, tmp_path, argv, coefficient):
        assert run(["verify-algebra", "--output-dir", tmp_path] + argv) == 0
        assert report_lines(tmp_path)["mixed deformation coefficient at Compton momentum"] == (
            "mixed deformation coefficient at Compton momentum: "
            f"measured {coefficient}, expected {coefficient}: INFO")

    def test_orbital_floor_quoted_as_itself(self, tmp_path):
        # The expected text quotes the row's comparator once and its tolerance twice, as
        # literals ("{:g}" would print 0.001): they must agree with the row.
        op, tol = cli.GATES["orbital action nonzero off-axis"]
        assert run(["verify-algebra", "--output-dir", tmp_path]) == 0
        line = report_lines(tmp_path)["orbital action nonzero off-axis"]
        expected = line.partition(", expected ")[2].rpartition(": ")[0]
        assert expected.startswith(f"{op} ")
        assert [float(x) for x in re.findall(r"\d[\d.e-]*", expected)] == [tol] * 2

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

    @pytest.mark.parametrize("argv", [["--c", "1e200"], ["--mass", "1e-300"]],
                             ids=["c-1e200", "mass-1e-300"])
    def test_units_far_from_one_pass(self, tmp_path, argv):
        # verify-algebra forms no scale but a' = a m c/hbar (1 here): the residual
        # ||L_i H + [H, S_i]|| is exactly 0 in Compton units and so in any units.
        assert run(["verify-algebra", "--output-dir", tmp_path] + argv) == 0
        assert report_lines(tmp_path)["rotation covariance max total residual"] == \
            "rotation covariance max total residual: measured 0, expected <= 1e-12: PASS"

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


def report_lines(outdir):
    """name -> line of each check in a report.txt."""
    text = (outdir / "report.txt").read_text()
    return {line.split(": measured ")[0]: line for line in text.splitlines()
            if ": measured " in line}


def measured(line):
    return float(line.split("measured ")[1].split(",")[0])


class TestSnyderCommand:
    def test_unresolved_box_fails_with_a_finite_residual(self, tmp_path):
        # The width-1 witness on a grid 3e98 apart: x p f reaches (a' p')^2 p' = 1e300
        # at the edge, inside the float range, and its norm is taken without squaring
        # out of range, so the box is judged, not rejected.
        assert run(["snyder", "--p-max", "1e100", "--grid-n", "64", "--grid-n-2d", "64",
                    "--output-dir", tmp_path]) == 1
        line = report_lines(tmp_path)["heisenberg-1d residual (n=64)"]
        assert line.endswith(": FAIL") and math.isfinite(measured(line))

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

    def test_2048_grid_traced_peak_under_4_mb(self, tmp_path):
        # The 2-D residual holds one panel of rows at a time: at n = 2048 a whole interior
        # array would be 21 MB, and the whole run stays under 4 MB.
        tracemalloc.start()
        try:
            assert run(["snyder", "--grid-n-2d", "2048", "--no-emit-plots",
                        "--output-dir", tmp_path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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
        assert not list(tmp_path.glob("*.svg"))  # FAST_ZB has --no-emit-plots

    def test_mass_scaling(self, tmp_path):
        # Doubling the mass doubles the ZB frequency 2 m c^2/hbar and halves the
        # amplitude bound hbar/(2 m c).
        assert run(["zitterbewegung", "--mass", "2", "--output-dir", tmp_path,
                    "--grid-n", "1024", "--t-max", "25", "--n-samples", "2048",
                    "--no-emit-plots"]) == 0
        lines = report_lines(tmp_path)
        assert measured(lines["mixed packet oscillation frequency"]) == \
            pytest.approx(4.0, rel=0.01)
        amplitude = lines["mixed packet oscillation amplitude"]
        assert measured(amplitude) <= 0.25
        assert amplitude.endswith(", expected <= hbar/(2mc) = 0.25: PASS")

    def test_outputs_in_user_units(self, tmp_path):
        # Computed in Compton units, reported in the user's: 2 m c^2/hbar = 48,
        # hbar/(2 m c) = 1/24, and the time column ends at t-max.
        assert run(["zitterbewegung", "--hbar", "0.5", "--c", "2", "--mass", "3",
                    "--t-max", "5", "--no-emit-plots", "--output-dir", tmp_path]) == 0
        lines = report_lines(tmp_path)
        frequency = lines["mixed packet oscillation frequency"]
        assert measured(frequency) == pytest.approx(48.0, rel=0.01)
        assert frequency.endswith("expected 48: PASS")
        assert lines["mixed packet oscillation amplitude"].endswith(
            "expected <= hbar/(2mc) = 0.0416667: PASS")
        table = (tmp_path / "zitterbewegung.csv").read_text().splitlines()
        assert table[-1].startswith("5,")

    def test_narrow_mixed_packet_not_annihilated(self, tmp_path, capsys):
        # The unnormalised norm of this packet is about 1e-15; only a projection can
        # annihilate a packet, and the mixed one is never projected.
        run(["zitterbewegung", "--sigma-p", "1e-30", "--p-max", "1e-28",
             "--no-emit-plots", "--output-dir", tmp_path])
        assert "annihilated" not in capsys.readouterr().err

    def test_roundoff_gap_is_not_a_wrap(self, tmp_path, capsys):
        # The box is 3.2e31 Compton wavelengths across, and the last sample's gap is
        # roundoff, not a wrap.
        code = run(["zitterbewegung", "--sigma-p", "1e-30", "--p-max", "1e-28",
                    "--no-emit-plots", "--output-dir", tmp_path])
        assert code != 2
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("seed", [[], ["--spinor-seed", "1,1j,0,1"]],
                             ids=["default", "complex"])
    def test_tiny_box_passes_every_gate(self, tmp_path, capsys, seed):
        # A packet 1e-30 m c wide in a box 3.2e31 Compton wavelengths across: its <x>(0) is
        # exactly 0 on the real half spectrum, so each gate sees the ZB, not an offset of
        # 1e13 Compton wavelengths left by an imaginary Nyquist term.
        assert run(["zitterbewegung", "--sigma-p", "1e-30", "--p-max", "1e-28",
                    "--no-emit-plots", "--output-dir", tmp_path] + seed) == 0
        lines = report_lines(tmp_path)
        gated = [line for name, line in lines.items() if cli.gate_row(name) in cli.GATES]
        assert len(gated) == 4 and all(line.endswith(": PASS") for line in gated)
        assert measured(lines["mixed packet oscillation frequency"]) == \
            pytest.approx(2.0, rel=0.01)
        assert capsys.readouterr().err == ""

    def test_moving_packet_inside_the_box_is_not_a_wrap(self, tmp_path, capsys):
        # The packet moves about 2 Compton wavelengths in a box 25 wide, so the last
        # sample's gap is roundoff, not a wrap: the run is judged, and FAILs its frequency
        # and dichotomy lines.
        code = run(["zitterbewegung", "--grid-n", "64", "--p-max", "12",
                    "--sigma-p", "1.050804416317991", "--p0=-0.6782028817550276",
                    "--t-max", "3", "--n-samples", "32", "--spinor-seed", "1,0,0,1",
                    "--hbar", "2", "--c", "3", "--mass", "0.5", "--no-emit-plots",
                    "--output-dir", tmp_path])
        assert code == 1
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("scale", [1e-200, 0.5, 1e200])
    def test_spinor_seed_is_a_direction(self, tmp_path, capsys, scale):
        # Any nonzero multiple of the seed is the same packet: the seed is scaled to a
        # largest |Re| or |Im| of 1 before the envelope, so 1e200 does not overflow and
        # 1e-200 does not underflow.
        seed = ",".join(str(scale * x) for x in (1, 0, 1, 0))
        outputs = []
        for flags in ([], ["--spinor-seed", seed]):
            out_dir = tmp_path / str(len(outputs))
            assert run(["zitterbewegung", "--output-dir", out_dir] + FAST_ZB + flags) == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("report.txt", "zitterbewegung.csv")])
        assert outputs[1] == outputs[0]
        assert capsys.readouterr().err == ""

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

    def test_annihilating_seed_is_config_error(self, tmp_path, capsys):
        # The seed (0, 0, 1, 0) has negative energy at rest; on a box of 1e-15 m c the
        # positive projection keeps less than 1e-14 of its norm.
        assert run(["zitterbewegung", "--grid-n", "32", "--p-max", "1e-15", "--sigma-p",
                    "1.5e-16", "--spinor-seed", "0,0,1,0", "--no-emit-plots",
                    "--output-dir", tmp_path]) == 2
        assert capsys.readouterr().err == ("chronon: config error: projection annihilated "
                                           "the packet; choose another spinor seed\n")


class TestAveragingCommand:
    def test_fast_run(self, tmp_path):
        assert run(["averaging", "--output-dir", tmp_path] + FAST_ZB) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "full-period window suppression" in report
        assert "Compton window attenuation" in report
        table = (tmp_path / "averaging.csv").read_text().splitlines()
        assert table[0] == "t,x_raw,x_averaged"

    @pytest.mark.parametrize("window", [[], ["--window", "1.5"]], ids=["canonical", "user"])
    def test_packet_without_zb_fails_the_averaging_lines(self, tmp_path, capsys, window):
        # The seed (0, 0, 1, 0) is a rest-frame negative-energy spinor, so this narrow packet
        # has no ZB, and its amplitude at the ZB frequency is exactly 0.  The quotients
        # over it stay finite and FAIL both gates; the run is judged, not an exit 2.
        code = run(["averaging", "--grid-n", "1024", "--p-max", "2", "--sigma-p",
                    "0.0078125", "--p0", "0", "--t-max", "3", "--n-samples", "8",
                    "--spinor-seed", "0,0,1,0", "--no-emit-plots", "--output-dir", tmp_path]
                   + window)
        assert code == 1
        assert capsys.readouterr().err == ""
        lines = report_lines(tmp_path)
        for name in ("full-period window suppression", "Compton window attenuation"):
            assert lines[name].endswith(": FAIL")
        assert ("user window (1.5) attenuation" in lines) == bool(window)

    def test_averaging_builds_no_positive_packet(self, tmp_path, capsys):
        # On this packet (see test_annihilating_seed_is_config_error) the positive
        # projection keeps less than 1e-14 of the norm.  averaging reads the mixed packet
        # alone, so it judges that packet, which has no ZB; the commands that read the
        # projection exit 2 on it.
        flags = ["--grid-n", "32", "--p-max", "1e-15", "--sigma-p", "1.5e-16",
                 "--spinor-seed", "0,0,1,0", "--no-emit-plots"]
        assert run(["averaging", "--output-dir", tmp_path / "averaging"] + flags) == 1
        assert capsys.readouterr().err == ""
        lines = report_lines(tmp_path / "averaging")
        for name in ("full-period window suppression", "Compton window attenuation"):
            assert lines[name].endswith(": FAIL") and measured(lines[name]) == 0
        for command in ("zitterbewegung", "all"):
            assert run([command, "--output-dir", tmp_path / command] + flags) == 2
            assert "projection annihilated the packet" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [[], ["--window", "0.7"]], ids=["canonical", "user"])
    def test_roundoff_zb_fails_the_averaging_lines_at_0(self, tmp_path, capsys, window):
        # The seed (1, 0, 0, 1) at p0 = 0 gives a packet with no ZB: its raw amplitude at
        # OMEGA_ZB is 4.2e-19, under the noise floor 1e-12.  The quotients of two roundoff
        # amplitudes read 157.477208 and 0.87618154 and PASSed both gates; now every ratio
        # to the raw amplitude reads 0.
        code = run(["averaging", "--grid-n=64", "--p-max=2.2107207942244202",
                    "--sigma-p=0.18257551512092665", "--p0=0", "--t-max=2.53535",
                    "--n-samples=9", "--spinor-seed=1,0,0,1", "--no-emit-plots",
                    "--output-dir", tmp_path] + window)
        assert code == 1 and capsys.readouterr().err == ""
        lines = report_lines(tmp_path)
        for name in ("full-period window suppression", "Compton window attenuation"):
            assert lines[name].endswith(": FAIL") and measured(lines[name]) == 0
        if window:
            assert measured(lines["user window (0.7) attenuation"]) == 0

    def test_no_zb_packets_never_pass(self, tmp_path):
        # 40 drawn packets of seed (1, 0, 0, 1) at p0 = 0 on small boxes, each accepted by
        # validate and well inside its box: none has a ZB, so no averaging line may PASS.
        # 17 of these 40 PASSed a line when the quotients read roundoff.
        rng, judged = random.Random(0), 0
        while judged < 40:
            grid_n, p_max = rng.choice([32, 64, 128]), rng.uniform(0.5, 5)
            sigma_p, t_max = rng.uniform(4 * p_max / grid_n, p_max / 6), rng.uniform(2.5, 8)
            argv = ["averaging", f"--grid-n={grid_n}", f"--p-max={p_max!r}",
                    f"--sigma-p={sigma_p!r}", "--p0=0", f"--t-max={t_max!r}",
                    f"--n-samples={math.ceil(8 * t_max / math.pi) + rng.randrange(4)}",
                    "--spinor-seed=1,0,0,1", "--no-emit-plots"]
            try:
                parsed_config(argv)
            except ConfigError:
                continue
            judged += 1
            out = tmp_path / str(judged)
            assert run(argv + ["--output-dir", out]) == 1, argv
            lines = report_lines(out)
            for name in ("full-period window suppression", "Compton window attenuation"):
                assert lines[name].endswith(": FAIL") and measured(lines[name]) == 0, argv

    def test_small_real_zb_is_judged(self, tmp_path):
        # At p0 = 3 the ZB is small but real, a raw amplitude of 1.1e-4 against a floor of
        # 4.5e-11: both lines are judged on their measured values, and FAIL on them.
        assert run(["averaging", "--p0", "3", "--no-emit-plots", "--output-dir", tmp_path]) == 1
        lines = report_lines(tmp_path)
        assert measured(lines["full-period window suppression"]) == 25.894247
        assert measured(lines["Compton window attenuation"]) == 0.0089121561

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
        assert lines[0] == ("chronon: config error: the full-period window pi hbar/(mass c^2) "
                            "must be between 2 sample intervals and n-samples samples long, "
                            "got t-max=2, n-samples=4096, hbar=1, mass=1, c=1")


class TestReproducibility:
    def test_identical_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["snyder", "--output-dir", a]) == 0
        assert run(["snyder", "--output-dir", b]) == 0
        assert (a / "snyder_residuals.csv").read_bytes() == (b / "snyder_residuals.csv").read_bytes()
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()

    @pytest.mark.parametrize("argv", [["all"], ["zitterbewegung", "--sigma-p", "2",
                                                "--grid-n", "2048"]],
                             ids=["all", "packet-wide"])
    def test_artifacts_independent_of_usable_cores(self, tmp_path, monkeypatch, usable_cores,
                                                   argv):
        # Every file keeps its bytes whatever number of cores the process may run on.
        files = {}
        for cores in (1, 2):
            usable_cores(cores)
            workdir = tmp_path / str(cores)
            workdir.mkdir()
            monkeypatch.chdir(workdir)  # the manifest records the output dir "out"
            assert run(argv + ["--output-dir", "out"]) == 0
            files[cores] = {p.name: p.read_bytes() for p in (workdir / "out").iterdir()}
        assert len(files[1]) >= 4 and files[1] == files[2]

    def test_snyder_starts_no_thread(self, tmp_path, started_threads):
        # The 2-D residual runs on the calling thread at every grid size, so no artifact
        # can depend on the number of usable cores.
        assert run(["snyder", "--grid-n-2d", "512", "--output-dir", tmp_path]) == 0
        assert not started_threads

    def test_manifest_replays_a_value_holding_a_hash(self, tmp_path, monkeypatch):
        # Only a # that opens a word starts a comment, so the output dir o#1 replays as is.
        path = tmp_path / "run.cfg"
        path.write_text("#mass = 9\noutput-dir = a#b  # note\nmass = 2 #heavy\n")
        assert read_config_file(str(path)) == {"output_dir": "a#b", "mass": 2.0}
        monkeypatch.chdir(tmp_path)
        assert run(["verify-algebra", "--output-dir", "o#1"]) == 0
        report = (tmp_path / "o#1" / "report.txt").read_bytes()
        os.remove(tmp_path / "o#1" / "report.txt")
        assert run(["verify-algebra", "--config", "o#1/manifest.txt"]) == 0
        assert (tmp_path / "o#1" / "report.txt").read_bytes() == report
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("output_dir", ["o #1", " o", "o ", "#o", "o\n1"])
    def test_output_dir_a_manifest_cannot_replay_rejected(self, tmp_path, monkeypatch, capsys,
                                                          output_dir):
        # A manifest line would replay these into ./o or ./out, or split in two: exit 2 with
        # one line naming output-dir, before any directory is made, from a flag or the env.
        monkeypatch.chdir(tmp_path)
        assert run(["verify-algebra", "--output-dir", output_dir]) == 2
        monkeypatch.setenv("CHRONON_OUTPUT_DIR", output_dir)
        assert run(["verify-algebra"]) == 2
        err = capsys.readouterr().err
        assert err == 2 * ("chronon: config error: output-dir must be free of line breaks, end "
                           f"spaces and a # opening a word, got output-dir={output_dir!r}\n")
        assert os.listdir(tmp_path) == []

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
            render_line_plot([], [], tmp_path / "x.svg", "")

    def test_constant_series_plot(self, tmp_path):
        t = np.linspace(0, 1, 10)
        series = dd.TimeSeries(times=t, values=np.full_like(t, 2.0))
        path = tmp_path / "c.svg"
        render_line_plot([series], ["flat"], path, "")
        assert "polyline" in path.read_text()


def run_fresh(script, tmp_path):
    """Run ``script`` with argv[1] = tmp_path in a fresh interpreter that imports this chronon."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True)


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
        # np.median imports numpy.ma (about 17 ms) on first use; nothing else should.
        script = (
            "import sys\n"
            "from chronon.cli import main\n"
            "main(['all', '--output-dir', sys.argv[1] + '/all'])\n"
            "assert 'numpy.ma' not in sys.modules, 'all'\n"
            "main(['zitterbewegung', '--sigma-p', '2', '--grid-n', '2048',\n"
            "      '--output-dir', sys.argv[1] + '/wide'])\n"
            "assert 'numpy.ma' not in sys.modules, 'zitterbewegung'\n")
        done = run_fresh(script, tmp_path)
        assert done.returncode == 0, done.stderr

    def test_numpy_random_never_imported(self, tmp_path):
        # The covariance momenta come from the stdlib random module; numpy.random
        # (and the OpenSSL hashing it loads) costs 13-16 ms to import.
        script = (
            "import sys\n"
            "from chronon.cli import main\n"
            "for argv in ('all', 'verify-algebra', 'verify-algebra --mass 2 --a 0.5',\n"
            "             'verify-algebra --hbar 2 --c 3', 'verify-algebra --a 0'):\n"
            "    main(argv.split() + ['--output-dir', sys.argv[1] + '/' + argv])\n"
            "    assert 'numpy.random' not in sys.modules, argv\n")
        done = run_fresh(script, tmp_path)
        assert done.returncode == 0, done.stderr

    def test_argparse_never_imported(self, tmp_path):
        # Building an argparse parser imports gettext and locale, about 2.8 ms of a cold job.
        script = (
            "import sys\n"
            "def check(case):\n"
            "    found = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
            "    assert not found, (case, found)\n"
            "from chronon.cli import main\n"
            "check('import chronon.cli')\n"
            "for argv in ('all', 'verify-algebra', 'verify-algebra --mass 2 --a 0.5',\n"
            "             'verify-algebra --hbar 2 --c 3', 'verify-algebra --a 0',\n"
            "             'snyder --grid-n-2d 1024'):\n"
            "    main(argv.split() + ['--output-dir', sys.argv[1] + '/' + argv])\n"
            "    check(argv)\n"
            "assert main(['frobnicate']) == 2\n"
            "check('usage error')\n")
        done = run_fresh(script, tmp_path)
        assert done.returncode == 0, done.stderr


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
        assert [line.rpartition(": ")[2] for line in report.lines] == ["PASS", "FAIL"]
        shown = f"{op} {tol:g}" if expected is None else fmt_number(expected)
        assert {line.partition(", expected ")[2].rpartition(": ")[0]
                for line in report.lines} == {shown}

    def test_strict_bound_fails_at_the_tolerance(self, monkeypatch):
        # ">" is exclusive: FAIL at the tolerance itself, PASS one ulp past it.
        monkeypatch.setitem(cli.GATES, "probe", (">", 1e-3))
        report = Report("t")
        cli._gate(report, "probe", 1e-3)
        cli._gate(report, "probe (n=64)", np.nextafter(1e-3, np.inf))
        assert report.lines == ["probe: measured 0.001, expected > 0.001: FAIL",
                                "probe (n=64): measured 0.001, expected > 0.001: PASS"]

    def test_texts_replace_both_shown_values(self, monkeypatch):
        # texts = (shown if PASS, shown if FAIL, expected text); the row alone judges.
        monkeypatch.setitem(cli.GATES, "probe", ("<=", 1.0))
        report = Report("t")
        for value in (1.0, np.nextafter(1.0, np.inf)):
            cli._gate(report, "probe", value, texts=("fine", "broken", "at most one"))
        assert report.lines == ["probe: measured fine, expected at most one: PASS",
                                "probe: measured broken, expected at most one: FAIL"]
        assert not report.passed

    @pytest.mark.parametrize("name, row", [
        ("clifford residual", "clifford residual"),
        ("mixed-2d residual (n=256)", "mixed-2d residual"),
        ("canonical-limit-heisenberg-1d residual (n=1024)",
         "canonical-limit-heisenberg-1d residual"),
        ("canonical-limit-mixed-2d refinement monotonicity", "refinement monotonicity"),
        ("heisenberg-1d refinement monotonicity", "refinement monotonicity"),
    ])
    def test_gate_row_drops_the_rung_and_the_check(self, name, row):
        assert cli.gate_row(name) == row and row in cli.GATES


# hbar, c and mass each take these values in the unit sweeps.
SWEEP = ("1e-150", "1e-60", "1", "1e60", "1e150")


def names_key(line):
    """True when the line names a config key, as ``key=`` or ``--key``."""
    return any(f"{key}=" in line or f"--{key}" in line for key in KEY_SPECS)


def sweep(tmp_path, argv, a_values=(None,)):
    """(argv, exit status, stderr) of ``argv`` at every unit set of the sweep."""
    results = []
    for hbar, c, mass, a in itertools.product(SWEEP, SWEEP, SWEEP, a_values):
        config = argv + ["--hbar", hbar, "--c", c, "--mass", mass] + (
            [] if a is None else ["--a", a])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(config + ["--output-dir", tmp_path])
        results.append((config, code, err.getvalue()))
    return results


def unnamed_config_errors(results):
    """The configs that exit 2; each must print one line.  Returns those naming no key."""
    errors = [(argv, err) for argv, code, err in results if code == 2]
    assert all(err.count("\n") == 1 for _, err in errors)
    return [argv for argv, err in errors if not names_key(err)]


class TestUnitSweeps:
    """Each command over hbar, c, mass in {1e-150, 1e-60, 1, 1e60, 1e150}."""

    def test_verify_algebra_passes_or_names_a_key(self, tmp_path):
        # In Compton units the algebra has the one parameter a' = a m c/hbar.
        results = sweep(tmp_path, ["verify-algebra", "--seed", "11"], (None,) + SWEEP)
        assert len(results) == 750
        assert {code for _, code, _ in results} <= {0, 2}
        assert unnamed_config_errors(results) == []

    @pytest.mark.parametrize("argv", [
        ["snyder", "--grid-n", "64", "--grid-n-2d", "32"],
        ["averaging", "--no-emit-plots"],
        ["zitterbewegung", "--no-emit-plots"],
        ["all", "--grid-n-2d", "32", "--no-emit-plots"],
    ], ids=["snyder", "averaging", "zitterbewegung", "all"])
    def test_config_errors_name_keys(self, tmp_path, argv):
        # A traceback would fail the test, and so would a config error that names no key.
        assert unnamed_config_errors(sweep(tmp_path, argv)) == []


def physics_in_compton_units(command, hbar, c, mass):
    """``command`` with the given units and the same physics at any units: the default
    boxes and packet, and t-max 25, in units of m c and hbar/(m c^2)."""
    mc = mass * c
    units = ["--hbar", hbar, "--c", c, "--mass", mass, "--p-max", 20 * mc]
    if command == "snyder":
        return [command] + units + ["--p-max-2d", 12 * mc, "--grid-n", "256",
                                    "--grid-n-2d", "128"]
    return [command] + units + ["--sigma-p", 0.1 * mc, "--t-max", 25 * hbar / (mass * c * c),
                                "--grid-n", "1024", "--n-samples", "1024", "--no-emit-plots"]


def statuses(argv, tmp_path):
    """(exit status, each check's status, stderr) of one in-process run."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = run(argv + ["--output-dir", tmp_path])
    return code, [line.rpartition(": ")[2] for line in out.getvalue().splitlines()
                  if ": measured " in line], err.getvalue()


class TestUnitInvariance:
    """Gates are judged in Compton units, so a verdict does not depend on the units."""

    @pytest.mark.parametrize("command", ["zitterbewegung", "averaging", "snyder"])
    @given(st.tuples(*[st.floats(-75, 75)] * 3))
    @settings(max_examples=25, deadline=None)
    def test_verdicts_match_compton_units(self, tmp_path_factory, command, log_units):
        # hbar, c and m each within 1e+-75, so every input stays finite: the run gives
        # each check the status and the exit code of its hbar = c = m = 1 twin, or exits 2
        # with one line that names a key.
        out = tmp_path_factory.mktemp("units")
        twin = statuses(physics_in_compton_units(command, 1.0, 1.0, 1.0), out)
        assert twin[0] != 2
        code, checks, err = statuses(physics_in_compton_units(
            command, *(10.0 ** e for e in log_units)), out)
        if code == 2:
            assert err.count("\n") == 1 and names_key(err)
        else:
            assert (code, checks) == twin[:2], err


class TestPacketPreconditions:
    """validate holds every closed-form precondition of the packet commands."""

    @given(st.sampled_from(["zitterbewegung", "averaging", "all"]),
           st.sampled_from([64, 256, 1024, 2048]), st.floats(2, 40), st.floats(0.8, 20),
           st.floats(-1.1, 1.1), st.floats(0.3, 300), st.floats(0.9, 4),
           st.none() | st.floats(0.01, 30), st.sampled_from(["1,0,1,0", "0,0,1,0", "1,0,0,0"]))
    @settings(max_examples=100, deadline=None)
    def test_accepted_config_fails_only_on_the_dynamics(self, tmp_path_factory, command, grid_n,
                                                        p_max, steps, reach, t_max, oversample,
                                                        window, seed):
        # Drawn around each rule's boundary: sigma-p in grid steps, p0 as a share of the room
        # p-max - 6 sigma-p, n-samples as a multiple of 8 per ZB period.  A config validate
        # rejects exits 2 naming a key; one it accepts exits 0 or 1, or 2 only where the run
        # must tell: the packet wraps around the box, or the projection annihilates it.
        sigma_p = steps * 2 * (2 * p_max / grid_n)
        values = {"grid-n": grid_n, "p-max": p_max, "sigma-p": sigma_p,
                  "p0": reach * (p_max - 6 * sigma_p), "t-max": t_max,
                  "n-samples": max(2, math.ceil(oversample * 8 * t_max / math.pi)),
                  "window": window, "spinor-seed": seed, "grid-n-2d": 32}
        argv = [command, "--no-emit-plots"] + [f"--{key}={v}" for key, v in values.items()
                                                if v is not None]
        try:
            parsed_config(argv)
        except ConfigError:
            code, _, err = statuses(argv, tmp_path_factory.mktemp("rejected"))
            assert code == 2 and err.count("\n") == 1 and names_key(err)
            return
        code, _, err = statuses(argv, tmp_path_factory.mktemp("accepted"))
        assert code in (0, 1) or (code == 2 and err.count("\n") == 1 and (
            "the packet wraps around" in err or "annihilated the packet" in err)), err
