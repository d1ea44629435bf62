"""Command-line entry point: dispatch experiments, write reports and tables.

Runners compute every gate in Compton units (hbar = c = m = 1), judged by ``_gate`` on its one
``GATES`` row, and convert to the user's units only the observables they write.  ``main`` reads
the command line (``config.parse_argv``, no argparse) and the config file, runs the steps
``config.CHAINS`` names for the command, each through its ``RUNNERS`` entry, and makes the
output dir and writes every file in one guarded block, which maps each input or system failure
to its exit status and one stderr line; any other exception is a defect: a traceback.  ``run``,
the process entry point, exits with ``main``'s status, or 4 after that traceback.

Exit statuses: 0 all checks pass, 1 check failure, 2 usage or config error (``UsageError``,
``ConfigError``, a float out of range, out of memory), 3 I/O error, 4 a defect in chronon.
"""

from __future__ import annotations

import os
import random
import sys

import numpy as np

from chronon import dirac_dynamics as dd
from chronon import gamma_algebra as ga
from chronon import snyder_rep as sr
from chronon.config import (CHAINS, FREQUENCY, LENGTH, MOMENTUM, PACKET_STEPS, TIME, ConfigError,
                            RunConfig, UsageError, manifest_lines, parse_argv, read_config_file,
                            resolve, usage)
from chronon.reporting import Report, fmt_column, fmt_number, render_line_plot, write_csv

# ``gate_row`` of each PASS/FAIL line -> (comparator, Compton-unit tolerance): "<=", ">=" and ">"
# test measured against it, "abs" bounds |measured - expected| by it, "rel" by it times |expected|.
GATES = {
    "clifford residual": ("<=", 1e-12),
    "Compton deformation factor": ("rel", 1e-15),
    "deformation factor (a=0)": ("abs", 0.0),
    "normalization kappa": ("abs", 1e-8),
    "spin spectrum": ("<=", 1e-12),  # the largest |eigenvalue -+ 1/2|, inf if any is complex
    "lorentz closure residual": ("<=", 1e-10),
    "normalization search residual": ("<=", 1e-10),
    "rotation covariance max total residual": ("<=", 1e-12),
    "orbital action nonzero off-axis": (">", 1e-3),  # least ||L_i H|| at p_transverse > 1e-3
    "heisenberg-1d residual": ("<=", 1e-7),
    "coordinate-xy-2d residual": ("<=", 1e-6),
    "mixed-2d residual": ("<=", 1e-6),
    "canonical-limit-heisenberg-1d residual": ("<=", 1e-8),
    "canonical-limit-coordinate-xy-2d residual": ("<=", 1e-8),
    "canonical-limit-mixed-2d residual": ("<=", 1e-8),
    "refinement monotonicity": (">=", 4.0),  # least fall per doubling of rungs above the floor
    "mixed packet oscillation frequency": ("rel", 0.01),
    "mixed packet oscillation amplitude": ("<=", 1 + 1e-9),  # amplitude/KAPPA, with roundoff
    "positive-projected component at ZB frequency": ("<=", 1e-8),
    "mixed/positive amplitude dichotomy": (">=", 1e6),
    "full-period window suppression": (">=", 100.0),
    "Compton window attenuation": ("rel", 0.05),
}
RESIDUAL_FLOOR = 1e-12  # refinement roundoff floor, before scaling by the deformed coefficient
MIN_RESOLVED_N = 64  # coarser Snyder grids are reported, not judged
KAPPA = 0.5  # the coordinate scale in x_i = KAPPA alpha_i, in Compton wavelengths


def gate_row(name: str) -> str:
    """Line ``name`` less any " (n=...)", and less its check if that names no GATES row."""
    row = name.partition(" (n=")[0]
    return row if row in GATES else row.partition(" ")[2]


def _gate(report: Report, name: str, measured, expected=None, unit=1.0, texts=None) -> None:
    """Add line ``name`` as its GATES row judges ``measured`` (against ``expected`` on an "abs"
    or "rel" row, both shown times ``unit``); ``texts`` = (shown if PASS, if FAIL, expected)."""
    op, tol = GATES[gate_row(name)]
    if op in ("abs", "rel"):
        ok = abs(measured - expected) <= tol * (abs(expected) if op == "rel" else 1)
        texts = texts or (measured * unit, measured * unit, expected * unit)
    else:
        ok = measured <= tol if op == "<=" else measured >= tol if op == ">=" else measured > tol
        texts = texts or (measured, measured, f"{op} {tol:g}")
    report.add(name, texts[0] if ok else texts[1], texts[2], ok)


def _write_artifacts(cfg: RunConfig, stem: str, header, columns, plot=None) -> list[str]:
    """Write ``<stem>.csv`` and, with plots on, ``<stem>.svg`` of ``plot`` = (series, labels,
    title); the names written."""
    write_csv(os.path.join(cfg.output_dir, stem + ".csv"), header, columns)
    if plot is None or not cfg.emit_plots:
        return [stem + ".csv"]
    series, labels, title = plot
    render_line_plot(series, labels, os.path.join(cfg.output_dir, stem + ".svg"), title=title)
    return [stem + ".csv", stem + ".svg"]


def run_verify_algebra(cfg: RunConfig, series, report: Report) -> list[str]:
    a = cfg.a_prime
    _gate(report, "clifford residual", ga.verify_clifford())
    factor = sr.deformation(a, 1.0)  # at the Compton momentum m c
    _gate(report, "Compton deformation factor", factor, 1.0 + a**2)
    report.add("mixed deformation coefficient at Compton momentum", a**2, a**2, None)

    if cfg.a == 0:
        _gate(report, "deformation factor (a=0)", factor, 1.0)
        for name in ("normalization kappa", "spin spectrum", "lorentz closure"):
            report.skip(name, "undeformed limit")
    else:
        kappa, kappa_t, resid = ga.solve_normalization()
        _gate(report, "normalization kappa", kappa, KAPPA)
        report.add("normalization kappa_t", kappa_t, f"+-{KAPPA}j (non-Hermitian time coordinate)",
                   None)
        L, M = ga.generators(kappa, kappa_t)
        closure = ga.verify_lorentz_algebra(L, M)
        spectra = ga.spin_spectrum(L)
        _gate(report, "spin spectrum", ga.spin_half_gap(spectra), texts=(
            "{-hbar/2 x2, +hbar/2 x2}", "; ".join(" ".join(map(fmt_number, s * cfg.hbar))
                                                  for s in spectra),
            f"{{-{cfg.hbar / 2:g} x2, +{cfg.hbar / 2:g} x2}}"))
        _gate(report, "lorentz closure residual", closure)
        _gate(report, "normalization search residual", max(resid, closure))

    uniform = random.Random(cfg.seed).uniform
    momenta = np.reshape([uniform(-1.0, 1.0) for _ in range(300)], (100, 3))  # units of m c
    orbital, total = ga.rotation_covariance_check(momenta)
    floor = GATES["orbital action nonzero off-axis"][1]  # on p_transverse, as on ||L_i H||
    transverse = np.hypot(momenta[:, [1, 0, 0]], momenta[:, [2, 2, 1]]).ravel().tolist()
    _gate(report, "rotation covariance max total residual", max(0.0, *total))  # in hbar c mc
    _gate(report, "orbital action nonzero off-axis",
          min((r for t, r in zip(transverse, orbital) if t > floor), default=np.inf),
          texts=(f"all {len(orbital)} cases", "violated",
                 "> 1e-3 whenever transverse momentum > 1e-3"))
    report.add("orbital rotation sign convention",
               "L_i H = +i*hbar*c*(p_j alpha_k - p_k alpha_j), (i,j,k) cyclic",
               "fixed by exact covariance", None)
    return []


def snyder_rows(cfg: RunConfig, ns_1d, ns_2d):
    """(check, n, residual) rows of the 1-D and 2-D checks at the given grid sizes, on the
    witness u(p) = e^(-p^2/2), 1 m c wide, and in 2-D on u(p_x - 1/2) u(p_y), off centre
    so that L_z f, the i a'^2 L_z side of [x, y] f, is not 0; residuals in Compton units."""
    rows, a, label = [], cfg.a_prime, "canonical-limit-" if cfg.a == 0 else ""
    for n in ns_1d:
        grid = sr.GridSpec1D(n=n, p_max=cfg.to_compton(cfg.p_max, MOMENTUM))
        rows.append((f"{label}heisenberg-1d", n,
                     sr.heisenberg_residual_1d(grid, a, sr.gaussian_1d(grid))))
    for n in ns_2d:
        grid = sr.GridSpec1D(n=n, p_max=cfg.to_compton(cfg.p_max_2d, MOMENTUM))
        u_x, u_y = (sr.gaussian_1d(grid, center) for center in (0.5, 0.0))
        r_xy, r_mixed = sr.coordinate_commutator_residual_2d(grid, a, u_x, u_y)
        rows += [(f"{label}coordinate-xy-2d", n, r_xy), (f"{label}mixed-2d", n, r_mixed)]
    return rows


def run_snyder(cfg: RunConfig, series, report: Report) -> list[str]:
    ns_1d, ns_2d = (sorted({max(8, n // 4), max(8, n // 2), n})
                    for n in (cfg.grid_n, cfg.grid_n_2d))
    rows = snyder_rows(cfg, ns_1d, ns_2d)
    by_check = {check: [(n, r) for c, n, r in rows if c == check] for check, _, _ in rows}
    for check, pairs in by_check.items():  # the rungs ascend, so the finest comes last
        finest_n, finest_r = pairs[-1]
        if finest_n < MIN_RESOLVED_N:
            report.add(f"{check} residual (n={finest_n})", finest_r,
                       f"below minimum resolution n={MIN_RESOLVED_N}", None)
        else:
            _gate(report, f"{check} residual (n={finest_n})", finest_r)
            # A fall is judged where both rungs clear the floor, which scales with (a' p_max')^2.
            p_max = cfg.p_max if "1d" in check else cfg.p_max_2d
            floor = RESIDUAL_FLOOR * sr.deformation(cfg.a_prime, cfg.to_compton(p_max, MOMENTUM))
            falls = [r0 / r1 for (_, r0), (_, r1) in zip(pairs, pairs[1:]) if min(r0, r1) > floor]
            rule = f">= {GATES['refinement monotonicity'][1]:g}x per doubling"
            _gate(report, f"{check} refinement monotonicity", min(falls, default=np.inf),
                  texts=(f"falls {rule} (or at floor)", "violated",
                         f"{rule} until {RESIDUAL_FLOOR:g} floor"))
    checks, ns, resids = zip(*rows)
    return _write_artifacts(cfg, "snyder_residuals", ["check", "n", "a", "residual"],
                            [checks, ns, [cfg.to_user(cfg.a_prime, LENGTH)] * len(rows), resids])


def _packet_series(cfg: RunConfig, steps):
    """<x>(t) of the mixed packet and, where ``steps`` run zitterbewegung, of its
    positive-energy projection, in Compton units: averaging reads the mixed one alone."""
    grid = sr.GridSpec1D(n=cfg.grid_n, p_max=cfg.to_compton(cfg.p_max, MOMENTUM))
    p0, sigma_p = (cfg.to_compton(p, MOMENTUM) for p in (cfg.p0, cfg.sigma_p))
    modes = ("mixed", "positive") if "zitterbewegung" in steps else ("mixed",)
    return tuple(dd.position_series(dd.init_packet(grid, p0, sigma_p, mode=mode,
                                                   spinor_seed=cfg.spinor_seed),
                                    cfg.to_compton(cfg.t_max, TIME), cfg.n_samples)
                 for mode in modes)


def _in_user_units(cfg: RunConfig, *series):
    """Each Compton-unit <x>(t) series, times and positions in the user's units."""
    time, length = cfg.to_user(1.0, TIME), cfg.to_user(1.0, LENGTH)
    return [dd.TimeSeries(times=s.times * time, values=s.values * length) for s in series]


def run_zitterbewegung(cfg: RunConfig, series, report: Report) -> list[str]:
    mixed, positive = series
    omega, amplitude = dd.measure_oscillation(mixed)
    _gate(report, "mixed packet oscillation frequency", omega, dd.OMEGA_ZB,
          cfg.to_user(1.0, FREQUENCY))
    # The bound is |KAPPA|: at rest the ZB operator is (i/2) alpha_z beta = i x_z beta.
    length = cfg.to_user(1.0, LENGTH)
    _gate(report, "mixed packet oscillation amplitude", amplitude / KAPPA,
          texts=(amplitude * length, amplitude * length, f"<= hbar/(2mc) = {KAPPA * length:g}"))
    pos_amp = dd.amplitude_at(positive, dd.OMEGA_ZB)
    _gate(report, "positive-projected component at ZB frequency", pos_amp)
    pos_omega, _ = dd.measure_oscillation(positive)
    report.add("positive-projected spectrum", f"peak at omega={cfg.to_user(pos_omega, FREQUENCY):g}"
               if pos_omega else "no oscillation detected", "no oscillation detected", None)
    _gate(report, "mixed/positive amplitude dichotomy", amplitude / max(pos_amp, 1e-300))
    mixed, positive = _in_user_units(cfg, mixed, positive)
    return _write_artifacts(cfg, "zitterbewegung", ["t", "x_mixed", "x_positive"],
                            [mixed.times, mixed.values, positive.values],
                            ([mixed, positive], ["mixed", "positive-projected"],
                             "position expectation vs time"))


def run_averaging(cfg: RunConfig, series, report: Report) -> list[str]:
    mixed = series[0]
    raw_amp = dd.amplitude_at(mixed, dd.OMEGA_ZB)
    zb = raw_amp > dd.noise_floor(mixed)  # else the ZB is roundoff, and each ratio reads 0

    avg_period = dd.sliding_average(mixed, dd.PERIOD_WINDOW)
    _gate(report, "full-period window suppression",
          raw_amp / max(dd.amplitude_at(avg_period, dd.OMEGA_ZB), 1e-300) if zb else 0.0)

    avg_compton = dd.sliding_average(mixed, dd.COMPTON_WINDOW)
    _gate(report, "Compton window attenuation",
          dd.amplitude_at(avg_compton, dd.OMEGA_ZB) / raw_amp if zb else 0.0,
          abs(np.sinc(dd.OMEGA_ZB * dd.COMPTON_WINDOW / 2 / np.pi)))  # |sin(x)/x|, x = w T/2

    if cfg.window is not None:
        extra = dd.sliding_average(mixed, cfg.to_compton(cfg.window, TIME))
        report.add(f"user window ({cfg.window:g}) attenuation",
                   dd.amplitude_at(extra, dd.OMEGA_ZB) / raw_amp if zb else 0.0,
                   "diagnostic only", None)

    mixed, avg_compton, avg_period = _in_user_units(cfg, mixed, avg_compton, avg_period)
    # sliding_average returns a centred slice of the times, so padding half a
    # window of blanks at each end lines the averaged column up with the raw one.
    half = (len(mixed.values) - len(avg_compton.values)) // 2
    averaged = [""] * half + fmt_column(avg_compton.values) + [""] * half
    return _write_artifacts(cfg, "averaging", ["t", "x_raw", "x_averaged"],
                            [mixed.times, mixed.values, averaged],
                            ([mixed, avg_compton, avg_period],
                             ["raw", "compton window", "full-period window"],
                             "Compton-scale averaging"))


RUNNERS = {  # step -> runner, for the steps of config.CHAINS
    "verify-algebra": run_verify_algebra,
    "snyder": run_snyder,
    "zitterbewegung": run_zitterbewegung,
    "averaging": run_averaging,
}


def main(argv=None) -> int:
    try:
        command, config_path, flag_values = parse_argv(sys.argv[1:] if argv is None else argv)
        if command is None:
            sys.stdout.write(usage())
            return 0
        file_values = read_config_file(config_path) if config_path else {}
        cfg = resolve(command, file_values, flag_values)
        steps = CHAINS[cfg.command]
        os.makedirs(cfg.output_dir, exist_ok=True)
        # Units far outside the float range overflow, divide by zero or give NaN: numpy
        # raises on each, so the message stays one line.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            series = None if PACKET_STEPS.isdisjoint(steps) else _packet_series(cfg, steps)
            report, outputs = Report(cfg.command), []
            for step in steps:
                outputs += RUNNERS[step](cfg, series, report)
        text = report.render()
        with open(os.path.join(cfg.output_dir, "report.txt"), "w", newline="\n") as fh:
            fh.write(text)
        outputs = ["report.txt"] + outputs + ["manifest.txt"]
        with open(os.path.join(cfg.output_dir, "manifest.txt"), "w", newline="\n") as fh:
            fh.write("\n".join(manifest_lines(cfg, outputs)) + "\n")
    except UsageError as exc:
        print(f"chronon: error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"chronon: config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"chronon: config error: out of floating-point range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"chronon: config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"chronon: I/O error: {exc}", file=sys.stderr)
        return 3

    sys.stdout.write(text)
    return 0 if report.passed else 1


def run() -> None:
    """Exit with ``main``'s status; on a defect, any other exception, print its traceback
    and exit 4, so that no defect reads as a FAIL verdict (exit 1)."""
    try:
        status = main()
    except Exception:
        import traceback  # a defect alone pays for the import
        traceback.print_exc()
        status = 4
    sys.exit(status)


if __name__ == "__main__":
    run()
