"""Command-line entry point: dispatch experiments, write reports and tables.

Exit statuses: 0 all checks pass, 1 check failure, 2 usage or config error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from chronon import dirac_dynamics as dd
from chronon import gamma_algebra as ga
from chronon import snyder_rep as sr
from chronon.config import (
    COMMANDS,
    ConfigError,
    KEY_SPECS,
    RunConfig,
    manifest_lines,
    read_config_file,
    resolve,
)
from chronon.reporting import Report, render_line_plot, write_csv

CLIFFORD_TOL = 1e-12
KAPPA_TOL = 1e-8
SPIN_TOL = 1e-12
LORENTZ_TOL = 1e-10
COVARIANCE_TOL = 1e-12
HEISENBERG_1D_TOL = 1e-7
SNYDER_2D_TOL = 1e-6
RESIDUAL_FLOOR = 1e-12
MIN_RESOLVED_N = 64
DICHOTOMY_FACTOR = 1e6
ZB_FREQ_RTOL = 0.01
SINC_RTOL = 0.05
FULL_PERIOD_SUPPRESSION = 100.0


def run_verify_algebra(cfg: RunConfig, outdir: str) -> tuple[Report, list[str]]:
    params = cfg.params()
    dset = ga.build_dirac_set(params)
    report = Report("verify-algebra")

    clifford = ga.verify_clifford(dset)
    report.add("clifford residual", clifford, f"<= {CLIFFORD_TOL}", clifford <= CLIFFORD_TOL)

    factor = ga.deformation_factor(params, params.m * params.c, "space")
    expected_factor = 1.0 + (params.a * params.m * params.c / params.hbar) ** 2
    report.add("Compton deformation factor", factor, expected_factor,
               abs(factor - expected_factor) <= 1e-15 * expected_factor)
    report.add("mixed deformation coefficient at Compton momentum",
               ga.mixed_deformation_rhs(params, params.m * params.c, params.m * params.c),
               (params.a * params.m * params.c / params.hbar) ** 2, None)

    if params.a == 0:
        report.add("deformation factor (a=0)", factor, 1.0, factor == 1.0)
        for name in ("normalization kappa", "spin spectrum", "lorentz closure"):
            report.skip(name, "undeformed limit")
    else:
        kappa, kappa_t, resid = ga.solve_normalization(dset, params)
        report.add("normalization kappa", kappa, "0.5",
                   abs(kappa - 0.5) <= KAPPA_TOL)
        report.add("normalization kappa_t", kappa_t, "+-0.5j (non-Hermitian time coordinate)",
                   None)
        rep = ga.coordinate_rep(dset, params, kappa, kappa_t)
        gen = ga.extract_generators(rep)
        spectra = ga.spin_spectrum(gen)
        half = params.hbar / 2
        spin_half = ga.is_spin_half(spectra, params.hbar, SPIN_TOL)
        report.add("spin spectrum", "{-hbar/2 x2, +hbar/2 x2}" if spin_half else
                   "; ".join(str(np.round(s, 6)) for s in spectra),
                   f"{{-{half:g} x2, +{half:g} x2}}", spin_half)
        closure = ga.verify_lorentz_algebra(gen, params.hbar)
        report.add("lorentz closure residual", closure, f"<= {LORENTZ_TOL}",
                   closure <= LORENTZ_TOL)
        report.add("normalization search residual", resid, f"<= {LORENTZ_TOL}",
                   resid <= LORENTZ_TOL)

    rng = np.random.default_rng(cfg.seed)
    momenta = rng.uniform(-1.0, 1.0, size=(100, 3)) * params.m * params.c
    worst_total = 0.0
    orbital_ok = True
    for p in momenta:
        for axis in range(3):
            res_orb, res_tot = ga.rotation_covariance_check(dset, params, p, axis)
            worst_total = max(worst_total, res_tot)
            transverse = np.hypot(*(p[j] for j in range(3) if j != axis))
            if transverse > 1e-3 * params.m * params.c and res_orb <= 1e-3:
                orbital_ok = False
    report.add("rotation covariance max total residual", worst_total,
               f"<= {COVARIANCE_TOL}", worst_total <= COVARIANCE_TOL)
    report.add("orbital action nonzero off-axis", "all 300 cases" if orbital_ok else
               "violated", "> 1e-3 whenever transverse momentum > 1e-3", orbital_ok)
    report.add("orbital rotation sign convention",
               "L_i H = +i*hbar*c*(p_j alpha_k - p_k alpha_j), (i,j,k) cyclic",
               "fixed by exact covariance", None)
    return report, []


def _snyder_rows(cfg: RunConfig, params, ns_1d, ns_2d):
    """(check, n, a, residual) rows of the 1-D and 2-D checks at the given grid sizes."""
    rows = []
    label = "canonical-limit-" if params.a == 0 else ""
    for n in ns_1d:
        grid = sr.GridSpec1D(n=n, p_max=cfg.p_max)
        f = sr.gaussian_1d(grid)
        rows.append((f"{label}heisenberg-1d", n, params.a,
                     sr.heisenberg_residual_1d(grid, params, f)))
    for n in ns_2d:
        grid = sr.GridSpec1D(n=n, p_max=cfg.p_max_2d)
        f = sr.gaussian_2d(grid)
        r_xy, r_mixed = sr.coordinate_commutator_residual_2d(grid, params, f)
        rows.append((f"{label}coordinate-xy-2d", n, params.a, r_xy))
        rows.append((f"{label}mixed-2d", n, params.a, r_mixed))
    return rows


def _monotone_ok(residuals: list[float], floor: float) -> bool:
    # Roundoff floor scales with the deformed coefficient (a*p_max/hbar)^2,
    # so the caller passes a coefficient-scaled floor.
    for prev, nxt in zip(residuals, residuals[1:]):
        if prev <= floor or nxt <= floor:
            continue
        if nxt > prev / 4:
            return False
    return True


def run_snyder(cfg: RunConfig, outdir: str) -> tuple[Report, list[str]]:
    params = cfg.params()
    report = Report("snyder")
    ns_1d, ns_2d = (sorted({max(8, n // 4), max(8, n // 2), n})
                    for n in (cfg.grid_n, cfg.grid_n_2d))
    rows = _snyder_rows(cfg, params, ns_1d, ns_2d)
    by_check: dict[str, list[tuple[int, float]]] = {}
    for check, n, _, resid in rows:
        by_check.setdefault(check, []).append((n, resid))
    for check, pairs in by_check.items():
        pairs.sort()
        finest_n, finest_r = pairs[-1]
        tol = 1e-8 if "canonical" in check else (
            HEISENBERG_1D_TOL if "1d" in check else SNYDER_2D_TOL)
        if finest_n < MIN_RESOLVED_N:
            report.add(f"{check} residual (n={finest_n})", finest_r,
                       f"below minimum resolution n={MIN_RESOLVED_N}", None)
        else:
            report.add(f"{check} residual (n={finest_n})", finest_r, f"<= {tol:g}",
                       finest_r <= tol)
            p_max = cfg.p_max if "1d" in check else cfg.p_max_2d
            floor = RESIDUAL_FLOOR * (1 + (params.a * p_max / params.hbar) ** 2)
            mono = _monotone_ok([r for _, r in pairs], floor)
            report.add(f"{check} refinement monotonicity",
                       "falls >= 4x per doubling (or at floor)" if mono else "violated",
                       ">= 4x per doubling until 1e-12 floor", mono)
    table = os.path.join(outdir, "snyder_residuals.csv")
    write_csv(table, ["check", "n", "a", "residual"], [list(r) for r in rows])
    return report, ["snyder_residuals.csv"]


def _packet_pair_series(cfg: RunConfig):
    params = cfg.params()
    grid = sr.GridSpec1D(n=cfg.grid_n, p_max=cfg.p_max)
    series = {}
    for mode in ("mixed", "positive"):
        packet = dd.init_packet(grid, params, cfg.p0, cfg.sigma_p, mode=mode,
                                spinor_seed=cfg.spinor_seed)
        series[mode] = dd.position_series(packet, cfg.t_max, cfg.n_samples)
    return series["mixed"], series["positive"]


def run_zitterbewegung(cfg: RunConfig, outdir: str,
                       series_pair=None) -> tuple[Report, list[str]]:
    params = cfg.params()
    report = Report("zitterbewegung")
    mixed, positive = series_pair or _packet_pair_series(cfg)
    omega_zb = dd.zb_frequency(params)
    meas = dd.measure_oscillation(mixed)
    report.add("mixed packet oscillation frequency", meas.omega, omega_zb,
               meas.detected and abs(meas.omega - omega_zb) <= ZB_FREQ_RTOL * omega_zb)
    bound = dd.zb_operator_norm_at_rest(params)
    report.add("mixed packet oscillation amplitude", meas.amplitude,
               f"<= hbar/(2mc) = {bound:g}", meas.amplitude <= bound * (1 + 1e-9))
    pos_amp = dd.amplitude_at(positive, omega_zb)
    report.add("positive-projected component at ZB frequency", pos_amp, "<= 1e-8",
               pos_amp <= 1e-8)
    pos_meas = dd.measure_oscillation(positive)
    report.add("positive-projected spectrum",
               "no oscillation detected" if not pos_meas.detected
               else f"peak at omega={pos_meas.omega:g}", "no oscillation detected", None)
    factor = meas.amplitude / max(pos_amp, 1e-300)
    report.add("mixed/positive amplitude dichotomy", factor,
               f">= {DICHOTOMY_FACTOR:g}", factor >= DICHOTOMY_FACTOR)
    outputs = ["zitterbewegung.csv"]
    write_csv(os.path.join(outdir, "zitterbewegung.csv"),
              ["t", "x_mixed", "x_positive"],
              [list(row) for row in zip(mixed.times.tolist(), mixed.values.tolist(),
                                        positive.values.tolist())])
    if cfg.emit_plots:
        render_line_plot([mixed, positive], ["mixed", "positive-projected"],
                         os.path.join(outdir, "zitterbewegung.svg"),
                         title="position expectation vs time")
        outputs.append("zitterbewegung.svg")
    return report, outputs


def run_averaging(cfg: RunConfig, outdir: str,
                  series_pair=None) -> tuple[Report, list[str]]:
    params = cfg.params()
    report = Report("averaging")
    mixed, _positive = series_pair or _packet_pair_series(cfg)
    omega_zb = dd.zb_frequency(params)
    raw_amp = dd.amplitude_at(mixed, omega_zb)
    t_compton = params.compton_time()
    t_period = 2 * np.pi / omega_zb

    avg_period = dd.sliding_average(mixed, t_period)
    supp = raw_amp / max(dd.amplitude_at(avg_period, omega_zb), 1e-300)
    report.add("full-period window suppression", supp,
               f">= {FULL_PERIOD_SUPPRESSION:g}", supp >= FULL_PERIOD_SUPPRESSION)

    avg_compton = dd.sliding_average(mixed, t_compton)
    ratio = dd.amplitude_at(avg_compton, omega_zb) / raw_amp
    predicted = abs(np.sinc(omega_zb * t_compton / 2 / np.pi))  # |sin(x)/x|, x = w*W/2
    report.add("Compton window attenuation", ratio, predicted,
               abs(ratio - predicted) <= SINC_RTOL * predicted)

    if cfg.window is not None:
        extra = dd.sliding_average(mixed, cfg.window)  # may raise -> config error
        report.add(f"user window ({cfg.window:g}) attenuation",
                   dd.amplitude_at(extra, omega_zb) / raw_amp,
                   "diagnostic only", None)

    outputs = ["averaging.csv"]
    # sliding_average returns a centred slice of the times, so padding half a
    # window of blanks at each end lines the averaged column up with the raw one.
    half = (len(mixed.values) - len(avg_compton.values)) // 2
    averaged = [""] * half + avg_compton.values.tolist() + [""] * half
    write_csv(os.path.join(outdir, "averaging.csv"), ["t", "x_raw", "x_averaged"],
              [list(row) for row in zip(mixed.times.tolist(), mixed.values.tolist(),
                                        averaged)])
    if cfg.emit_plots:
        render_line_plot([mixed, avg_compton, avg_period],
                         ["raw", "compton window", "full-period window"],
                         os.path.join(outdir, "averaging.svg"),
                         title="Compton-scale averaging")
        outputs.append("averaging.svg")
    return report, outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chronon",
                                     description="quantized-spacetime algebra checks "
                                                 "and Dirac wave-packet experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="flat key = value config file")
        for key, (attr, parse) in KEY_SPECS.items():
            if key == "emit-plots":
                p.add_argument(f"--{key}", dest=attr, default=None,
                               action=argparse.BooleanOptionalAction)
            else:
                p.add_argument(f"--{key}", dest=attr, default=None, type=parse)
    return parser


RUNNERS = {
    "verify-algebra": run_verify_algebra,
    "snyder": run_snyder,
    "zitterbewegung": run_zitterbewegung,
    "averaging": run_averaging,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flag_values = {attr: getattr(args, attr) for _, (attr, _) in KEY_SPECS.items()}
    try:
        file_values = read_config_file(args.config) if args.config else {}
        cfg = resolve(args.command, file_values, flag_values)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"chronon: config error: {exc}", file=sys.stderr)
        return 2

    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        print(f"chronon: cannot create output dir: {exc}", file=sys.stderr)
        return 3

    try:
        outputs: list[str] = []
        if cfg.command == "all":
            combined = Report("all")
            series_pair = _packet_pair_series(cfg)
            for name in ("verify-algebra", "snyder"):
                rep, outs = RUNNERS[name](cfg, cfg.output_dir)
                combined.extend(rep)
                outputs.extend(outs)
            for name in ("zitterbewegung", "averaging"):
                rep, outs = RUNNERS[name](cfg, cfg.output_dir, series_pair)
                combined.extend(rep)
                outputs.extend(outs)
            report = combined
        else:
            report, outputs = RUNNERS[cfg.command](cfg, cfg.output_dir)
    except ValueError as exc:
        print(f"chronon: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"chronon: I/O error: {exc}", file=sys.stderr)
        return 3

    try:
        text = report.render()
        with open(os.path.join(cfg.output_dir, "report.txt"), "w", newline="\n") as fh:
            fh.write(text)
        outputs = ["report.txt"] + outputs
        with open(os.path.join(cfg.output_dir, "manifest.txt"), "w", newline="\n") as fh:
            fh.write("\n".join(manifest_lines(cfg, outputs + ["manifest.txt"])) + "\n")
    except OSError as exc:
        print(f"chronon: I/O error: {exc}", file=sys.stderr)
        return 3

    sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
