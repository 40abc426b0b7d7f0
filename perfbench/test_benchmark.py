"""Tests of the benchmark's checks and tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q

Genuine chains are made once per session through the benchmark's own
child process: `chain-default` (612 months, calibrated, about 35 s), a
traced `lp-long` (2,400 months) and `lp-short` (240 months). Every check
must pass on them, and each must reject a copy with one artifact
corrupted.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import pytest

import checks
from checks import CheckFailed, KnownFault
from run import run_child
from tracing import LAYER_UNITS, layer_metrics
from workloads import WORKLOADS

SEED = 1


def make_chain(tmp_path_factory, name: str, trace: bool) -> tuple[Path, dict]:
    out = tmp_path_factory.mktemp(name) / "out"
    res = run_child(name, SEED, out, setup_only=False, trace=trace, deadline=time.monotonic() + 170)
    assert res is not None
    assert [c["rc"] for c in res["commands"]] == [0] * (1 + len(WORKLOADS[name].commands))
    return out, res


@pytest.fixture(scope="session")
def default_chain(tmp_path_factory):
    return make_chain(tmp_path_factory, "chain-default", trace=False)[0]


@pytest.fixture(scope="session")
def long_chain(tmp_path_factory):
    return make_chain(tmp_path_factory, "lp-long", trace=True)


def corrupted(src: Path, tmp_path: Path, name: str, edit) -> Path:
    """Copy of an output directory with `edit(text) -> text` applied to one file."""
    out = tmp_path / "out"
    shutil.copytree(src, out)
    path = out / name
    new = edit(path.read_text(encoding="utf-8"))
    assert new != path.read_text(encoding="utf-8")
    path.write_text(new, encoding="utf-8")
    return out


def edit_rows(match, change):
    """Edit the CSV data rows for which match(cells) holds."""

    def edit(text: str) -> str:
        lines = text.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        for i in range(header + 1, len(lines)):
            cells = lines[i].split(",")
            if match(cells):
                lines[i] = ",".join(change(cells)) if change else None
        return "\n".join(line for line in lines if line is not None) + "\n"

    return edit


def shift_beta(factor: float, offset: int = 2):
    """Scale beta and both interval ends, keeping ci = beta +/- 1.96 se exact."""

    def change(cells):
        beta, se = float(cells[offset]) * factor, float(cells[offset + 1])
        cells[offset : offset + 4] = [repr(beta), repr(se), repr(beta - 1.96 * se), repr(beta + 1.96 * se)]
        return cells

    return change


# --- genuine output passes --------------------------------------------------


@pytest.mark.parametrize("check", checks.checks_for(WORKLOADS["chain-default"]), ids=lambda c: c.__name__)
def test_checks_pass_on_default_chain(default_chain, check):
    if check is checks.check_numeric_cells:
        with pytest.raises(KnownFault, match="fit_cash_phase.csv:model_value"):
            check(default_chain, WORKLOADS["chain-default"])
    else:
        check(default_chain, WORKLOADS["chain-default"])


@pytest.mark.parametrize("check", checks.checks_for(WORKLOADS["lp-long"]), ids=lambda c: c.__name__)
def test_checks_pass_on_long_chain(long_chain, check):
    check(long_chain[0], WORKLOADS["lp-long"])


def test_checks_pass_on_short_chain(tmp_path_factory):
    out, _ = make_chain(tmp_path_factory, "lp-short", trace=False)
    for check in checks.checks_for(WORKLOADS["lp-short"]):
        check(out, WORKLOADS["lp-short"])


# --- corrupted output fails -------------------------------------------------

DEFAULT = WORKLOADS["chain-default"]
LONG = WORKLOADS["lp-long"]
CASES = {
    # a beta moved by one part in a million, interval kept consistent
    "beta_moved": (
        "default", checks.check_lp_refit, "IRF_J6_core_inflation.csv",
        edit_rows(lambda c: c[:2] == ["reserve", "7"], shift_beta(1 + 1e-6)),
    ),
    "se_moved": (
        "default", checks.check_lp_refit, "IRF_J7_phi.csv",
        edit_rows(lambda c: c[:2] == ["cash", "0"], lambda c: c[:3] + [repr(float(c[3]) * (1 + 1e-6))] + c[4:]),
    ),
    "missing_horizon": (
        "default", checks.check_irf_intervals, "IRF_J6_core_inflation.csv",
        edit_rows(lambda c: c[:2] == ["cash", "7"], None),
    ),
    "interval_off": (
        "long", checks.check_irf_intervals, "IRF_robustness.csv",
        edit_rows(lambda c: c[0] == "L_6" and c[8] == "3", lambda c: c[:11] + [repr(float(c[11]) - 1e-6)] + c[12:]),
    ),
    "baseline_sign_flipped": (
        "long", checks.check_signs, "IRF_J6_core_inflation.csv",
        edit_rows(lambda c: c[0] == "reserve", shift_beta(-1.0)),
    ),
    "sweep_sign_flipped": (
        "long", checks.check_signs, "IRF_robustness.csv",
        edit_rows(lambda c: c[0] == "L_6" and c[6:8] == ["cash", "pi_core"], shift_beta(-1.0, offset=9)),
    ),
    "sweep_baseline_variant_differs": (
        "long", checks.check_sweep, "IRF_robustness.csv",
        edit_rows(lambda c: c[0] == "H_24" and c[6:9] == ["cash", "phi", "5"], shift_beta(1 + 1e-6, offset=9)),
    ),
    "sweep_variant_missing": (
        "long", checks.check_sweep, "IRF_robustness.csv",
        edit_rows(lambda c: c[0] == "shock_detrended", None),
    ),
    "tanh_midpoint_moved": (
        "default", checks.check_planted_truth, "tanh_fit.csv",
        edit_rows(lambda c: True, lambda c: c[:2] + ["2016-04+0.5"] + c[3:]),
    ),
    "phase_mean_moved": (
        "long", checks.check_planted_truth, "phase_means.csv",
        edit_rows(lambda c: c[0] == "reserve", lambda c: [c[0], "0.5", c[2]]),
    ),
    "phi_c_outside_means": (
        "default", checks.check_planted_truth, "critical_point_summary.csv",
        edit_rows(lambda c: True, lambda c: ["0.9"] + c[1:]),
    ),
    "efficiency_argmax": (
        "default", checks.check_efficiency, "efficiency.csv",
        edit_rows(lambda c: c[0] == "cash", lambda c: c[:4] + [str(int(c[4]) + 1)] + c[5:]),
    ),
    "objective_moved": (
        "default", checks.check_calibration_objective, "critical_point_summary.csv",
        edit_rows(lambda c: True, lambda c: c[:4] + [repr(float(c[4]) * (1 + 1e-6))]),
    ),
    "fit_residual_moved": (
        "default", checks.check_calibration_objective, "fit_reserve_phase.csv",
        edit_rows(lambda c: c[:2] == ["3", "phi"], lambda c: c[:4] + ["0.5"]),
    ),
    "stale_report": (
        "default", checks.check_report, "report.txt",
        lambda text: text.replace("calibration.phi_c = 0.", "calibration.phi_c = 1."),
    ),
    "non_numeric_cell": (
        "long", checks.check_numeric_cells, "IRF_J7_phi.csv",
        edit_rows(lambda c: c[:2] == ["cash", "2"], lambda c: c[:2] + [f"np.float64({c[2]})"] + c[3:]),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_rejects_corruption(case, default_chain, long_chain, tmp_path):
    which, check, name, edit = CASES[case]
    src, workload = (default_chain, DEFAULT) if which == "default" else (long_chain[0], LONG)
    out = corrupted(src, tmp_path, name, edit)
    with pytest.raises(CheckFailed) as info:
        check(out, workload)
    assert not isinstance(info.value, KnownFault)


def test_report_stale_after_upstream_rerun(default_chain, tmp_path):
    """report.txt no longer matches once efficiency.csv changes under it."""
    out = corrupted(default_chain, tmp_path, "efficiency.csv", edit_rows(lambda c: c[0] == "reserve", lambda c: c[:1] + ["0.5"] + c[2:]))
    with pytest.raises(CheckFailed, match="stale"):
        checks.check_report(out, DEFAULT)


def test_digests_see_a_changed_artifact(long_chain, tmp_path):
    out = corrupted(long_chain[0], tmp_path, "breakpoints.csv", lambda t: t + "\n")
    assert checks.artifact_digests(out) != checks.artifact_digests(long_chain[0])


# --- tracing ------------------------------------------------------------------


def test_traced_counts_on_long_chain(long_chain):
    metrics = layer_metrics(long_chain[1]["spans"])
    assert list(metrics) == list(LAYER_UNITS)
    counts = {name: metrics[name] for name, unit in LAYER_UNITS.items() if unit == "count"}
    assert counts == {
        "econometrics.lp_tables": 80,
        "econometrics.lp_tables_repeated": 40,
        "econometrics.ols_calls": 2040,
        "econometrics.hac_calls": 2000,
        "econometrics.shock_calls": 41,
        "econometrics.errors": 1,
        "phase.classify_calls": 20,
        "compartment.minimize_calls": 0,
        "compartment.minimize_nfev": 0,
    }
    assert metrics["pipeline.irf_s"] > metrics["econometrics.lp_self_s"] > 0


def test_self_time_subtracts_direct_children():
    spans = [
        dict(name="econometrics.local_projection", start=0.0, end=10.0, parent=None, stage="chain", repeat=False),
        dict(name="econometrics.ols", start=1.0, end=3.0, parent=0, stage="chain"),
        dict(name="econometrics.hac_covariance", start=4.0, end=8.0, parent=0, stage="chain"),
        dict(name="csvio.write_csv", start=0.0, end=1.0, parent=None, stage="setup", bytes=10),
    ]
    metrics = layer_metrics(spans)
    assert metrics["econometrics.lp_self_s"] == 4.0
    assert metrics["econometrics.ols_s"] == 2.0
    assert metrics["econometrics.lp_tables"] == 1
    assert metrics["csvio.bytes_written"] == 0  # set-up writes are not the chain's
