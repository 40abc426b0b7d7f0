"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 9 needs real Japan CSVs and is skipped when the
MONEPHASE_JAPAN_MONETARY / MONEPHASE_JAPAN_CPI environment variables (or
data/japan_monetary.csv + data/japan_cpi.csv) are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import breakpoint_rescan_oracle, hac_double_sum_oracle, medium_window
from monephase import econometrics as em
from monephase.compartment import CompartmentParams, r_response, x_response
from monephase.config import RunConfig
from monephase.csvio import read_csv
from monephase.landau import (
    LandauParams,
    lk_trajectory,
    stationary_points,
    susceptibility,
)
from monephase.phase import CASH, RESERVE, PhaseThresholds, classify, fit_tanh, phase_means
from monephase.pipeline import build_panel, cmd_breakpoints
from monephase.series import MonthIndex, MonthlySeries
from monephase.synth import TRUTH

START = MonthIndex(1980, 1)


def report(n, text):
    print(f"\n[acceptance] criterion {n}: PASS — {text}")


def test_criterion_1_closed_form_fidelity():
    """x/r closed forms match RK4 to 1e-8 over h in [0, 60], 1000 draws."""
    t_start = time.time()
    rng = np.random.default_rng(101)
    n_draws = 1000
    A = rng.uniform(0.0, 3.0, n_draws)
    B = rng.uniform(0.0, 3.0, n_draws)
    delta = rng.uniform(0.005, 1.0, n_draws)
    gamma = rng.uniform(0.005, 1.0, n_draws)
    eta = rng.uniform(0.0, 1.0, n_draws)
    # 50 draws exercise the near-equal-rates regime
    gamma[:50] = delta[:50] + rng.uniform(-1.0, 1.0, 50) * 1e-6
    gamma[:5] = delta[:5]  # exactly equal

    # vectorized classical RK4 across all draws
    substeps = 64
    dt = 1.0 / substeps
    state = np.stack([A, B], axis=1)
    rk_r = np.empty((n_draws, 61))
    rk_x = np.empty((n_draws, 61))
    rk_r[:, 0], rk_x[:, 0] = A, B

    def f(s):
        return np.stack([-delta * s[:, 0] + eta * s[:, 1], -gamma * s[:, 1]], axis=1)

    for step in range(60 * substeps):
        k1 = f(state)
        k2 = f(state + dt / 2 * k1)
        k3 = f(state + dt / 2 * k2)
        k4 = f(state + dt * k3)
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % substeps == 0:
            h = (step + 1) // substeps
            rk_r[:, h], rk_x[:, h] = state[:, 0], state[:, 1]

    grid = np.arange(61.0)
    max_err = 0.0
    for i in range(n_draws):
        p = CompartmentParams(A=A[i], B=B[i], delta=delta[i], gamma=gamma[i], eta=eta[i])
        max_err = max(
            max_err,
            float(np.max(np.abs(r_response(grid, p) - rk_r[i]))),
            float(np.max(np.abs(x_response(grid, p) - rk_x[i]))),
        )
    elapsed = time.time() - t_start
    assert max_err < 1e-8, f"closed forms deviate from RK4 by {max_err:.2e}"
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s (budget 5s)"
    report(1, f"max |closed form - RK4| = {max_err:.2e} over 1000 draws in {elapsed:.1f}s")


def test_criterion_2_tanh_recovery():
    """Noiseless planted profile to 1e-6; noisy t0 within 2 months >= 95/100."""
    t_start = time.time()
    t = np.arange(96.0)
    true = dict(phi0=0.4, A=0.3, t0=48.0, w=10.0)
    y = true["phi0"] + true["A"] * np.tanh((t - true["t0"]) / true["w"])
    window = (START, START + 95)

    fit = fit_tanh(MonthlySeries(START, y), window)
    for name in ("phi0", "A", "t0", "w"):
        assert getattr(fit, name) == pytest.approx(true[name], abs=1e-6)

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = fit_tanh(MonthlySeries(START, y + rng.normal(0, 0.01, 96)), window)
        hits += abs(noisy.t0 - true["t0"]) <= 2.0
    elapsed = time.time() - t_start
    assert hits >= 95, f"t0 within 2 months in only {hits}/100 seeds"
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s (budget 10s)"
    report(2, f"noiseless exact to 1e-6; noisy t0 hits {hits}/100 in {elapsed:.1f}s")


def test_criterion_3_local_projection_correctness():
    """Exact kernel recovery without noise; 2-se coverage >= 95% with noise."""
    # noiseless: kernel spike at h0 = 12 = L, so every horizon 0..12 is
    # spanned by the lag controls and recovered exactly; horizons past the
    # kernel support face future-shock sampling noise, which no projection
    # can remove, and must only be statistical zeros
    rng = np.random.default_rng(300)
    T, H, L = 600, 24, 12
    u = rng.standard_normal(T)
    y = np.zeros(T)
    y[12:] = 0.7 * u[:-12]
    tbl = em.local_projection(
        MonthlySeries(START, y),
        MonthlySeries(START, u),
        H=H,
        L=L,
        hac_lag=12,
    )
    beta = tbl.beta
    assert np.max(np.abs(beta[:12])) < 1e-8
    assert beta[12] == pytest.approx(0.7, abs=1e-8)
    assert np.all(np.abs(beta[13:]) <= 4.0 * tbl.se[13:])

    # noisy: pooled coverage of the planted kernel at 2 se over 200 seeds
    T = 2400
    theta = np.zeros(H + 1)
    theta[1], theta[2] = 0.5, 0.25
    inside = total = 0
    for rep in range(200):
        rng = np.random.default_rng(1000 + rep)
        u = rng.standard_normal(T)
        noise = rng.normal(0.0, 0.5, T)
        y = np.convolve(u, theta)[:T] + noise
        tbl = em.local_projection(
            MonthlySeries(START, y),
            MonthlySeries(START, u),
            H=H,
            L=L,
            hac_lag=12,
        )
        inside += int(np.sum(np.abs(tbl.beta - theta) <= 2.0 * tbl.se))
        total += H + 1
    coverage = inside / total
    assert coverage >= 0.95, f"pooled 2-se coverage {coverage:.4f} < 0.95"
    report(3, f"noiseless kernel exact to 1e-8; noisy coverage {coverage:.4f}")


def test_criterion_4_hac_oracle_equivalence():
    """Sandwich equals the naive double sum to 1e-10; lag 0 equals White."""
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 90))
        k = int(rng.integers(1, 4))
        lag = int(rng.integers(0, 9))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
        u = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        V = em.hac_covariance(X, u, lag)
        oracle = hac_double_sum_oracle(X, u, lag)
        worst = max(worst, float(np.max(np.abs(V - oracle))))
    assert worst < 1e-10

    X = np.column_stack([np.ones(80), rng.standard_normal((80, 2))])
    u = rng.standard_normal(80)
    V0 = em.hac_covariance(X, u, 0)
    xu = X * u[:, None]
    bread = np.linalg.inv(X.T @ X)
    white = bread @ (xu.T @ xu) @ bread
    assert np.array_equal(V0, (white + white.T) / 2.0)
    report(4, f"max |sandwich - double sum| = {worst:.2e}; lag-0 equals White")


def test_criterion_5_breakpoint_oracle_equivalence():
    """Grid search equals an exhaustive re-scan; planted break found exactly."""
    rng = np.random.default_rng(500)
    for _ in range(100):
        n = int(rng.integers(60, 150))
        y = np.cumsum(rng.standard_normal(n)) + rng.uniform(-0.1, 0.1) * np.arange(n)
        res = em.breakpoint(MonthlySeries(START, y), (START, START + n - 1))
        c_oracle, rss_oracle = breakpoint_rescan_oracle(y)
        assert res.tau - START == c_oracle
        assert res.rss == pytest.approx(rss_oracle, rel=1e-7, abs=1e-7)

    y = np.concatenate([np.full(60, 2.0), 40.0 + 1.5 * np.arange(60.0)])
    res = em.breakpoint(MonthlySeries(START, y), (START, START + 119))
    assert res.tau == START + 59
    assert res.rss < 1e-16
    report(5, "grid search equals re-scan on 100 instances; planted break exact")


class TestCriterion6MechanismLoop:
    def test_mechanism_loop(self, mechanism_run):
        spec = mechanism_run["spec"]
        med = medium_window(24)

        # (i) order-parameter responses positive in both phases, with at
        # least one significantly positive medium horizon each
        for phase in (CASH, RESERVE):
            tbl = mechanism_run["tables"][(phase, "phi")]
            betas = tbl.beta[med]
            rows = list(tbl.cells())[med]
            assert betas.mean() > 0, f"{phase} phi response not positive"
            assert any(ci_low > 0 for _, _, _, ci_low, _, _ in rows), f"{phase} phi never significant"

        # (ii) price kernel: positive in the cash phase, significantly
        # negative at medium horizons in the reserve phase
        cash_pi = mechanism_run["tables"][(CASH, "pi_core")]
        res_pi = mechanism_run["tables"][(RESERVE, "pi_core")]
        assert cash_pi.beta[med].mean() > 0
        assert res_pi.beta[med].mean() < 0
        assert any(ci_high < 0 for *_, ci_high, _ in list(res_pi.cells())[med])

        # (iii) calibrated critical point close to truth, correct ordering
        phi_c = mechanism_run["phi_c"]
        means = mechanism_run["phase_means"]
        assert abs(phi_c - TRUTH["phi_c"]) <= 0.05
        assert means[CASH] < phi_c < means[RESERVE]

        assert mechanism_run["elapsed"] < 60.0, (
            f"mechanism loop took {mechanism_run['elapsed']:.1f}s (budget 60s)"
        )
        report(
            6,
            f"signs (+,+,+,-) as planted; phi_c {phi_c:.4f} vs truth "
            f"{TRUTH['phi_c']} in {mechanism_run['elapsed']:.1f}s",
        )


def test_criterion_7_robustness_sweep_stability(mechanism_run):
    """Medium-horizon sign pattern identical across every sweep variant."""
    _, _, rows = read_csv(mechanism_run["out"] / "IRF_robustness.csv")
    stats: dict = {}
    for cells in rows:
        variant, H = cells[0], int(cells[3])
        phase, response, h, beta = cells[6], cells[7], int(cells[8]), float(cells[9])
        lo, hi = 6, min(18, H)
        if lo <= h <= hi:
            stats.setdefault((variant, phase, response), []).append(beta)
    expected = {
        (CASH, "pi_core"): 1.0,
        (CASH, "phi"): 1.0,
        (RESERVE, "pi_core"): -1.0,
        (RESERVE, "phi"): 1.0,
    }
    variants = sorted({key[0] for key in stats})
    assert len(variants) == 19  # 9 thresholds + 3 horizons + 3 lags + 4 shocks
    for variant in variants:
        for (phase, response), sign in expected.items():
            mean = float(np.mean(stats[(variant, phase, response)]))
            assert np.sign(mean) == sign, (
                f"variant {variant}: {phase}/{response} sign flipped ({mean:+.4g})"
            )
    report(7, f"sign pattern stable across all {len(variants)} sweep variants")


def test_criterion_8_landau_layer():
    """Pitchfork grid, noiseless relaxation onto roots, susceptibility peak."""
    for a in np.linspace(1.0, -1.0, 81):
        out = stationary_points(LandauParams(a=float(a), b=1.0, h_field=0.0))
        expected = 0.0 if a >= 0 else np.sqrt(-a)
        assert abs(abs(out.global_minimum) - expected) < 1e-8

    rng = np.random.default_rng(800)
    for _ in range(25):
        p = LandauParams(
            a=float(rng.uniform(-2, 2)),
            b=float(rng.uniform(0.3, 2.0)),
            h_field=float(rng.uniform(-1, 1)),
        )
        stat = stationary_points(p)
        m0 = float(rng.uniform(-2, 2))
        m_max = max(abs(m0), max(abs(r) for r in stat.roots))
        dt = 0.4 * p.tau / (abs(p.a) + 3 * p.b * m_max**2 + 1.0)
        path = lk_trajectory(m0, p, noise_sd=0.0, dt=dt, steps=8000)
        assert min(abs(path[-1] - r) for r in stat.roots) < 1e-4

    assert susceptibility(0.231, 0.231, 0.07) == 1.0
    grid = np.linspace(0, 1, 1001)
    vals = susceptibility(grid, 0.231, 0.07)
    assert grid[int(np.argmax(vals))] == pytest.approx(0.231, abs=1e-3)
    report(8, "pitchfork to 1e-8; trajectories land on roots; peak exactly 1")


def _japan_paths():
    monetary = os.environ.get("MONEPHASE_JAPAN_MONETARY", "data/japan_monetary.csv")
    cpi = os.environ.get("MONEPHASE_JAPAN_CPI", "data/japan_cpi.csv")
    return Path(monetary), Path(cpi)


def test_criterion_9_japan_data_contingent(tmp_path):
    """Real-data checks; skipped (not failed) when the CSVs are absent."""
    monetary, cpi = _japan_paths()
    if not (monetary.exists() and cpi.exists()):
        pytest.skip("Japan CSVs not supplied; see README for the conversion guide")

    cfg = RunConfig(
        monetary_path=str(monetary), cpi_path=str(cpi), out_dir=str(tmp_path)
    )
    panel = build_panel(cfg)
    fit = fit_tanh(panel["phi"], (cfg.tanh_start, cfg.tanh_end))
    t0_month, _ = fit.t0_calendar()
    # within 2013 +/- 12 months
    assert MonthIndex(2012, 1) <= t0_month <= MonthIndex(2014, 12)

    from monephase.pipeline import cmd_transform

    cmd_transform(cfg)
    cmd_breakpoints(cfg)
    _, _, rows = read_csv(tmp_path / "breakpoints.csv")
    taus_2013 = [
        MonthIndex.parse(cells[4])
        for cells in rows
        if cells[0] == "log_MB_SA" and cells[1] == "2013"
    ]
    assert taus_2013, "no 2013-cluster windows fit the data range"
    for tau in taus_2013:
        assert tau.year == 2013

    part = classify(panel["phi"], PhaseThresholds(cfg.cash_max, cfg.reserve_min))
    cash_mean, reserve_mean = phase_means(panel["phi"], part)
    assert cash_mean == pytest.approx(0.127, abs=0.05)
    assert reserve_mean == pytest.approx(0.694, abs=0.05)
    report(9, "Japan data reproduce t0, 2013 breakpoints, and phase means")
