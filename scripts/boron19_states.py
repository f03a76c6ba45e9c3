#!/usr/bin/env python3
"""Count three-body states of the A=17 two-neutron halo vs |a_nc|.

With a_nc = -179 fm (and the standard nn virtual state) the system holds
exactly three states; shrinking |a_nc| peels them off one by one.

Usage: python3 scripts/boron19_states.py [a_nc_fm ...]
"""

import sys

from trihalo import boron19_config, build_grid, find_trimers


def main() -> int:
    values = [float(v) for v in sys.argv[1:]] or [-10.0, -50.0, -179.0, -358.0]
    grid = build_grid(160, 0.05)
    print(f"{'a_nc_fm':>10} {'states':>7}  levels_keV")
    for a in values:
        cfg = boron19_config(a_nc_fm=a)
        spec = find_trimers(cfg, grid, search_window=(1e-9, 1e12), max_states=8)
        levels = ", ".join(f"{lv.epsilon3_keV:.4g}" for lv in spec.levels)
        print(f"{a:>10.1f} {len(spec.levels):>7}  [{levels}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
