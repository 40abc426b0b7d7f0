"""Shared fixtures: the mechanism economy is built once per session."""

from __future__ import annotations

import shutil
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from monephase.cli import COMMANDS, main
from monephase.config import RunConfig, parse_config
from monephase.csvio import read_csv
from monephase.pipeline import (
    cmd_calibrate,
    cmd_irf,
    cmd_transform,
    read_irfs,
    read_panel_csv,
    write_economy,
)
from monephase.synth import generate, two_compartment_spec

MECHANISM_SEED = 11
CHAIN_COMMANDS = (
    "transform", "breakpoints", "fit-phase", "irf", "calibrate", "landau", "efficiency", "report"
)


@pytest.fixture(scope="session")
def mechanism_run(tmp_path_factory):
    """End-to-end artifacts for the reference two-compartment economy.

    Generates the economy, runs transform + irf (with the robustness
    sweep) + calibrate into one temp directory, and hands back the parsed
    outputs every downstream test needs.
    """
    out = tmp_path_factory.mktemp("mechanism")
    t_start = time.time()
    spec = two_compartment_spec(seed=MECHANISM_SEED)
    panel, truth = generate(spec)
    write_economy(out, panel, truth)
    cfg = RunConfig(
        monetary_path=str(out / "monetary.csv"),
        cpi_path=str(out / "cpi.csv"),
        out_dir=str(out),
        robustness=True,
        seed=MECHANISM_SEED,
    )
    cmd_transform(cfg)
    cmd_irf(cfg)
    cmd_calibrate(cfg)
    elapsed = time.time() - t_start

    _, _, crit_rows = read_csv(out / "critical_point_summary.csv")
    _, _, mean_rows = read_csv(out / "phase_means.csv")
    return {
        "spec": spec,
        "truth": truth,
        "cfg": cfg,
        "out": out,
        "panel": read_panel_csv(out / "panel.csv"),
        "tables": read_irfs(out, cfg),
        "phi_c": float(crit_rows[0][0]),
        "s_pi": float(crit_rows[0][1]),
        "phase_means": {cells[0]: float(cells[1]) for cells in mean_rows},
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def default_economy(tmp_path_factory):
    """Baseline IRF tables and phase means of the default synthetic economy, seed 1."""
    out = tmp_path_factory.mktemp("default")
    config = str(out / "synthetic_config.txt")
    for argv in (["synth", "--out", str(out), "--seed", "1"], ["transform", "--config", config]):
        assert main(argv) == 0
    assert main(["irf", "--config", config]) == 0
    means = {cells[0]: float(cells[1]) for cells in read_csv(out / "phase_means.csv")[2]}
    return read_irfs(out, RunConfig()), means


@pytest.fixture(scope="module")
def default_chain(tmp_path_factory):
    """The README chain on the default economy (seed 1): out dir and each command's files."""
    out = tmp_path_factory.mktemp("chain")
    written = {"synth": COMMANDS["synth"](RunConfig(out_dir=str(out), seed=1))}
    cfg = parse_config(out / "synthetic_config.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # windows outside the data
        for command in CHAIN_COMMANDS:
            written[command] = COMMANDS[command](cfg)
    return out, written


@pytest.fixture(scope="module")
def robust_chain(default_chain, tmp_path_factory):
    """A copy of default_chain's files with irf rerun with --robustness: every declared file."""
    out, written = default_chain
    copy = tmp_path_factory.mktemp("robust")
    for path in out.iterdir():
        shutil.copy(path, copy / path.name)
    cfg = replace(parse_config(out / "synthetic_config.txt"), out_dir=str(copy), robustness=True)
    return copy, {**written, "irf": COMMANDS["irf"](cfg)}


def medium_window(H: int) -> slice:
    """Medium horizons: 6..min(18, H), inclusive."""
    return slice(6, min(18, H) + 1)


def rk4_compartments(A, B, delta, gamma, eta, h_max=60, substeps=64):
    """Classical RK4 on the two-compartment system; independent oracle."""
    dt = 1.0 / substeps
    state = np.array([A, B], dtype=np.float64)

    def f(s):
        return np.array([-delta * s[0] + eta * s[1], -gamma * s[1]])

    out = [state.copy()]
    for step in range(h_max * substeps):
        k1 = f(state)
        k2 = f(state + dt / 2 * k1)
        k3 = f(state + dt / 2 * k2)
        k4 = f(state + dt * k3)
        state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if (step + 1) % substeps == 0:
            out.append(state.copy())
    return np.array(out)


def hac_double_sum_oracle(X, residuals, max_lag):
    """Naive O(n^2 L) construction of the Newey-West sandwich."""
    X = np.asarray(X, dtype=float)
    u = np.asarray(residuals, dtype=float)
    n, k = X.shape
    S = np.zeros((k, k))
    for j in range(-max_lag, max_lag + 1):
        w = 1.0 - abs(j) / (max_lag + 1.0)
        for t in range(n):
            s = t - j
            if 0 <= s < n:
                S += w * np.outer(X[t] * u[t], X[s] * u[s])
    bread = np.linalg.inv(X.T @ X)
    V = bread @ S @ bread
    return (V + V.T) / 2.0


def breakpoint_rescan_oracle(values, min_seg=24):
    """Exhaustive re-scan fitting each segment with lstsq; returns argmin index."""
    n = len(values)
    t = np.arange(n, dtype=float)
    best_rss, best_c = np.inf, None
    for c in range(min_seg - 1, n - min_seg):
        rss = 0.0
        for seg in (slice(0, c + 1), slice(c + 1, n)):
            Xs = np.column_stack([np.ones(t[seg].size), t[seg]])
            coef, _, _, _ = np.linalg.lstsq(Xs, values[seg], rcond=None)
            r = values[seg] - Xs @ coef
            rss += float(r @ r)
        if rss < best_rss:
            best_rss, best_c = rss, c
    return best_c, best_rss
