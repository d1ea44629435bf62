#!/usr/bin/env python3
"""Residual convergence study for the deformed-commutator realizations.

Sweeps the momentum-grid resolution for the 1-D deformed Heisenberg check
and the 2-D coordinate-commutator check and prints one table per check.
The residuals, in Compton units, fall roughly 4x per grid doubling (spectral
accuracy on the Gaussian witness, 1 m c wide) until they hit the roundoff
floor, which scales with the deformation coefficient 1 + (a' p_max')^2.

    python3 scripts/convergence_study.py
"""

from chronon.cli import snyder_rows
from chronon.config import RunConfig


def main() -> None:
    cfg = RunConfig("snyder")  # the rows of ``chronon snyder`` at other grid sizes
    ns_1d, ns_2d = (16, 32, 64, 128, 256, 512, 1024), (16, 32, 64, 128, 256)
    rows = snyder_rows(cfg, ns_1d, ns_2d)
    res = {(check, n): r for check, n, r in rows}

    print(f"1-D deformed Heisenberg residual (p_max = {cfg.p_max:g})")
    print(f"{'n':>6}  {'residual':>12}")
    for n in ns_1d:
        print(f"{n:>6}  {res['heisenberg-1d', n]:>12.4e}")

    print()
    print(f"2-D coordinate commutator residual (p_max = {cfg.p_max_2d:g})")
    print(f"{'n':>6}  {'r_xy':>12}  {'r_mixed':>12}")
    for n in ns_2d:
        print(f"{n:>6}  {res['coordinate-xy-2d', n]:>12.4e}  {res['mixed-2d', n]:>12.4e}")


if __name__ == "__main__":
    main()
