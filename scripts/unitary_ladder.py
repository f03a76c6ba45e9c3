#!/usr/bin/env python3
"""Demonstrate discrete scale invariance of the identical-boson ladder.

Computes the trimer ladder for three identical particles with
|a| = 10^4 fm (near the unitary limit) and compares consecutive energy
ratios against exp(2 pi / s0) from the transcendental scale equation.

Usage: python3 scripts/unitary_ladder.py [a_fm] [beta_inv_fm]
"""

import sys

from trihalo.quadrature import build_grid
from trihalo.spectrum import (
    ResonantPairs,
    efimov_scale_factor,
    find_trimers,
    unitary_boson_config,
)


def main() -> int:
    a_fm = float(sys.argv[1]) if len(sys.argv) > 1 else -1.0e4
    beta = float(sys.argv[2]) if len(sys.argv) > 2 else 16.0
    cfg = unitary_boson_config(a_fm, beta)
    grid = build_grid(160, 0.03)
    spec = find_trimers(cfg, grid, search_window=(1e-6, 1e9), max_states=6)
    sf = efimov_scale_factor(1.0, ResonantPairs.all_three)
    print(f"a = {a_fm} fm, beta = {beta} fm^-1, s0 = {sf.s0:.10f}")
    print(f"universal ratio exp(2 pi / s0) = {sf.energy_ratio:.3f}")
    print(f"{'n':>2} {'eps3_keV':>16} {'ratio to next':>14} {'dev %':>8}")
    levels = spec.levels
    for i, lv in enumerate(levels):
        if i + 1 < len(levels):
            ratio = lv.epsilon3_keV / levels[i + 1].epsilon3_keV
            dev = 100.0 * (ratio / sf.energy_ratio - 1.0)
            print(f"{lv.index:>2} {lv.epsilon3_keV:>16.6g} {ratio:>14.3f} {dev:>8.2f}")
        else:
            print(f"{lv.index:>2} {lv.epsilon3_keV:>16.6g}")
    print(
        "note: the ground state and the last ladder rung feel the finite "
        "range and finite |a| respectively; the middle ratios approach the "
        "universal value"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
