import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monephase
from monephase.compartment import steady_state_phi
from monephase.csvio import fmt, read_csv
from monephase.errors import DataError
from monephase.landau import (
    MAXIMUM,
    MINIMUM,
    LandauParams,
    free_energy,
    lk_trajectory,
    stationary_points,
    susceptibility,
)


def params(a, b=1.0, h=0.0, tau=1.0):
    return LandauParams(a=a, b=b, h_field=h, tau=tau)


def grid_bracket_roots(p, lo=-10.0, hi=10.0, n=200001):
    """Dense sign-change bracketing of a m + b m^3 - h; independent oracle."""
    m = np.linspace(lo, hi, n)
    f = p.a * m + p.b * m**3 - p.h_field
    roots = []
    for i in np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0):
        a_, b_ = m[i], m[i + 1]
        for _ in range(80):
            mid = 0.5 * (a_ + b_)
            fm = p.a * mid + p.b * mid**3 - p.h_field
            if np.sign(fm) == np.sign(p.a * a_ + p.b * a_**3 - p.h_field):
                a_ = mid
            else:
                b_ = mid
        roots.append(0.5 * (a_ + b_))
    for i in np.flatnonzero(f == 0.0):
        roots.append(float(m[i]))
    return sorted(roots)


class TestFreeEnergy:
    def test_zero_at_origin(self):
        assert free_energy(0.0, params(a=2.0, h=0.7)) == 0.0

    def test_symmetric_double_well_depth(self):
        p = params(a=-1.0)
        assert free_energy(1.0, p) == pytest.approx(-0.25)
        assert free_energy(-1.0, p) == pytest.approx(-0.25)

    def test_value_at_cubic_root(self):
        # root of m + m^3 = 0.5 found independently, then F evaluated
        p = params(a=1.0, h=0.5)
        root = grid_bracket_roots(p)[0]
        assert root == pytest.approx(0.423854, abs=1e-5)
        direct = 0.5 * root**2 + 0.25 * root**4 - 0.5 * root
        assert free_energy(root, p) == pytest.approx(direct, abs=1e-14)


class TestStationaryPoints:
    def test_single_well(self):
        out = stationary_points(params(a=1.0))
        assert out.roots == (0.0,)
        assert out.kinds == (MINIMUM,)
        assert out.global_minimum == 0.0

    def test_symmetric_double_well(self):
        out = stationary_points(params(a=-1.0))
        assert np.allclose(out.roots, (-1.0, 0.0, 1.0), atol=1e-12)
        assert out.kinds == (MINIMUM, MAXIMUM, MINIMUM)
        assert out.degenerate_pair
        assert out.global_minimum == pytest.approx(1.0)
        for m in (-1.0, 1.0):
            assert free_energy(m, params(a=-1.0)) == pytest.approx(-0.25)

    def test_residuals_and_oracle_agreement(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            p = params(
                a=rng.uniform(-3, 3),
                b=rng.uniform(0.2, 3.0),
                h=rng.uniform(-2, 2),
            )
            out = stationary_points(p)
            for m in out.roots:
                assert abs(p.a * m + p.b * m**3 - p.h_field) < 1e-10
            oracle = grid_bracket_roots(p)
            assert len(out.roots) == len(oracle)
            assert np.allclose(sorted(out.roots), oracle, atol=1e-6)
            assert len(out.roots) in (1, 3)

    def test_tilted_well_global_minimum(self):
        p = params(a=-1.0, h=0.1)
        out = stationary_points(p)
        assert len(out.roots) == 3
        minima = [m for m, k in zip(out.roots, out.kinds) if k == MINIMUM]
        energies = [free_energy(m, p) for m in minima]
        assert out.global_minimum == pytest.approx(minima[int(np.argmin(energies))])
        assert out.global_minimum > 0  # bias tilts toward the positive branch


class TestLkTrajectory:
    def test_single_well_decay(self):
        path = lk_trajectory(0.5, params(a=1.0), noise_sd=0.0, dt=0.05, steps=1200)
        assert abs(path[-1]) < 1e-6
        assert np.all(np.abs(np.diff(np.abs(path))) >= -1e-15)

    def test_basin_convergence_to_positive_root(self):
        path = lk_trajectory(0.1, params(a=-1.0), noise_sd=0.0, dt=0.05, steps=2000)
        assert path[-1] == pytest.approx(1.0, abs=1e-6)

    def test_terminates_near_some_stationary_root(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            p = params(
                a=rng.uniform(-2, 2), b=rng.uniform(0.3, 2), h=rng.uniform(-1, 1)
            )
            stat = stationary_points(p)
            m0 = rng.uniform(-2, 2)
            m_max = max(abs(m0), max(abs(r) for r in stat.roots))
            dt = 0.5 * p.tau / (abs(p.a) + 3 * p.b * m_max**2 + 1.0)
            path = lk_trajectory(m0, p, noise_sd=0.0, dt=dt, steps=6000)
            assert min(abs(path[-1] - r) for r in stat.roots) < 1e-4

    def test_noiseless_descent_of_free_energy(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = params(a=rng.uniform(-2, 2), b=rng.uniform(0.3, 2), h=rng.uniform(-1, 1))
            path = lk_trajectory(1.3, p, noise_sd=0.0, dt=0.02, steps=800)
            F = free_energy(path, p)
            assert np.all(np.diff(F) <= 1e-12)

    def test_seeded_noise_deterministic(self):
        p = params(a=-0.5)
        a1 = lk_trajectory(0.0, p, noise_sd=0.3, dt=0.02, steps=500, seed=9)
        a2 = lk_trajectory(0.0, p, noise_sd=0.3, dt=0.02, steps=500, seed=9)
        b = lk_trajectory(0.0, p, noise_sd=0.3, dt=0.02, steps=500, seed=10)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_stability_guard(self):
        with pytest.raises(DataError, match="stability guard"):
            lk_trajectory(0.5, params(a=1.0), noise_sd=0.0, dt=0.6, steps=10)


class TestSusceptibility:
    def test_peak_is_one(self):
        assert susceptibility(0.231, 0.231, 0.05) == 1.0

    def test_half_width(self):
        assert susceptibility(0.231 + 0.05, 0.231, 0.05) == pytest.approx(0.5)
        assert susceptibility(0.231 - 0.05, 0.231, 0.05) == pytest.approx(0.5)

    def test_even_and_strictly_decreasing(self):
        d = np.linspace(0.001, 0.5, 100)
        left = susceptibility(0.4 - d, 0.4, 0.03)
        right = susceptibility(0.4 + d, 0.4, 0.03)
        assert np.allclose(left, right, rtol=1e-14)
        assert np.all(np.diff(right) < 0)

    def test_bad_epsilon(self):
        with pytest.raises(DataError):
            susceptibility(0.5, 0.4, 0.0)


class TestPitchfork:
    def test_grid(self):
        for a in np.linspace(1.0, -1.0, 41):
            out = stationary_points(params(a=float(a)))
            expected = 0.0 if a >= 0 else np.sqrt(-a)
            assert abs(abs(out.global_minimum) - expected) < 1e-8


SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "landau_illustrations.py"


class TestIllustrationsScript:
    def test_rows_are_the_per_point_calls_and_a_rerun_is_byte_identical(self, tmp_path):
        src = str(Path(monephase.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        argv = [sys.executable, str(SCRIPT), "--out", str(tmp_path / "out")]
        names = ["landau_sweep.csv", "landau_potential.csv", "steady_state_sweep.csv"]
        written = []
        for _ in range(2):
            run = subprocess.run(argv, env={**os.environ, "PYTHONPATH": pythonpath},
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0 and run.stderr == "", run.stderr
            assert run.stdout == "".join(f"{tmp_path / 'out' / name}\n" for name in names)
            written.append({name: (tmp_path / "out" / name).read_bytes() for name in names})
        assert written[0] == written[1]

        sweep = []
        for a in np.linspace(1.0, -1.0, 81).tolist():
            stat = stationary_points(params(a))
            m_star = stat.global_minimum
            sweep.append((a, m_star, free_energy(m_star, params(a)), stat.degenerate_pair))
            assert abs(abs(m_star) - (0.0 if a >= 0 else np.sqrt(-a))) < 1e-8
        thetas = np.linspace(-6.0, 6.0, 121).tolist()
        steady = [
            (th, steady_state_phi(th, (1.0, 0.0), rates=(0.06, 0.05, 0.02), injection=1.0))
            for th in thetas
        ]
        assert all(b[1] >= a[1] - 1e-12 for a, b in zip(steady, steady[1:]))
        expected = {
            "landau_sweep.csv": (("theta_or_a", "m_star", "F_min", "degenerate_flag"), sweep),
            "landau_potential.csv": (("a", "m", "F"), [
                (a, m, free_energy(m, params(a)))
                for a in (0.5, -0.5) for m in np.linspace(-1.5, 1.5, 121).tolist()
            ]),
            "steady_state_sweep.csv": (("theta", "phi_star"), steady),
        }
        source = {"source": "fixed constants in scripts/landau_illustrations.py, not the data"}
        for name, (header, rows) in expected.items():
            assert read_csv(tmp_path / "out" / name) == (
                source, list(header), [[fmt(v) for v in row] for row in rows]
            ), name
