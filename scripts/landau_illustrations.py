#!/usr/bin/env python3
"""Write the Landau layer's three fixed illustrations, which read no input.

    python3 scripts/landau_illustrations.py --out DIR

- `landau_sweep.csv` (`theta_or_a,m_star,F_min,degenerate_flag`): the
  global minimum m* of F(m) = a m^2 / 2 + b m^4 / 4 - h m and F(m*) for a
  from 1 to -1 in 81 steps, b = 1, h = 0: the pitchfork;
- `landau_potential.csv` (`a,m,F`): F on m in [-1.5, 1.5], 121 points,
  for a = 0.5 and a = -0.5;
- `steady_state_sweep.csv` (`theta,phi_star`): the steady-state phi of the
  two-compartment model under the logistic absorption law, for theta in
  [-6, 6], 121 points, rates (0.06, 0.05, 0.02) and unit injection.

Every number is a constant of this script, so every run writes the same
bytes, and each file says so in its `# source:` preamble line. The
`landau` command writes only `susceptibility.csv`, which reads the
calibrated phi_c. Each written path is printed on its own line.
"""

import argparse
from pathlib import Path

import numpy as np

from monephase import landau as ld
from monephase.compartment import steady_state_phi
from monephase.csvio import write_csv

SOURCE = [("source", "fixed constants in scripts/landau_illustrations.py, not the data")]


def sweep_rows():
    for a in np.linspace(1.0, -1.0, 81).tolist():
        params = ld.LandauParams(a=a, b=1.0, h_field=0.0)
        stat = ld.stationary_points(params)
        m_star = stat.global_minimum
        yield a, m_star, ld.free_energy(m_star, params), stat.degenerate_pair


def potential_rows():
    m_grid = np.linspace(-1.5, 1.5, 121)
    for a in (0.5, -0.5):
        energy = ld.free_energy(m_grid, ld.LandauParams(a=a, b=1.0, h_field=0.0))
        yield from ((a, m, f) for m, f in zip(m_grid.tolist(), energy.tolist()))


def steady_rows():
    theta = np.linspace(-6.0, 6.0, 121)
    phi_star = steady_state_phi(theta, (1.0, 0.0), rates=(0.06, 0.05, 0.02), injection=1.0)
    return zip(theta.tolist(), phi_star.tolist())


# file: (its header, its rows)
FILES = {
    "landau_sweep.csv": (("theta_or_a", "m_star", "F_min", "degenerate_flag"), sweep_rows),
    "landau_potential.csv": (("a", "m", "F"), potential_rows),
    "steady_state_sweep.csv": (("theta", "phi_star"), steady_rows),
}


def write(out: Path) -> list[Path]:
    return [write_csv(out / name, header, rows(), SOURCE) for name, (header, rows) in FILES.items()]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", required=True, metavar="DIR")
    for path in write(Path(parser.parse_args().out)):
        print(path)
