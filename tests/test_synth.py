from dataclasses import astuple, is_dataclass

import numpy as np
import pytest

from monephase.config import RunConfig
from monephase.csvio import read_csv
from monephase.errors import DataError
from monephase.phase import CASH, RESERVE
from monephase.pipeline import write_economy
from monephase.series import MonthIndex, order_parameter, yoy
from monephase.synth import (
    TRUTH,
    SynthSpec,
    default_spec,
    generate,
    two_compartment_spec,
)


@pytest.fixture(scope="module")
def small_spec():
    return two_compartment_spec(
        seed=4, months=360, start=MonthIndex(1990, 1), t0=MonthIndex(2010, 1)
    )


def test_deterministic_bytes(tmp_path, small_spec):
    a, ta = generate(small_spec)
    b, tb = generate(small_spec)
    write_economy(tmp_path / "a", a, ta)
    write_economy(tmp_path / "b", b, tb)
    for name in ("monetary.csv", "cpi.csv", "ground_truth.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_composition_invariants(small_spec):
    panel, _ = generate(small_spec)
    mb = panel["MB"].values
    rb = panel["RB"].values
    bn = panel["BN"].values
    assert (mb > 0).all()
    assert (rb <= mb).all()
    assert (rb >= 0).all()
    assert (bn >= 0).all()


def test_growth_process_inverts_exactly(small_spec):
    panel, truth = generate(small_spec)
    g = yoy(panel["MB_SA"])
    assert np.allclose(g.values[12:], truth.growth[12:], atol=1e-9)


def test_cpi_on_2020_base(small_spec):
    panel, _ = generate(default_spec(seed=1))
    in_2020 = np.array([(panel.start + i).year == 2020 for i in range(panel.length)])
    for name in ("CPI", "CPI_core"):
        assert np.mean(panel[name].values[in_2020]) == pytest.approx(100.0, rel=1e-12)
    # an economy that ends before 2020 keeps its first month at 100
    panel, _ = generate(small_spec)
    assert panel.end < MonthIndex(2020, 1)
    assert panel["CPI"].values[0] == panel["CPI_core"].values[0] == 100.0


def test_phi_follows_profile(small_spec):
    panel, truth = generate(small_spec)
    phi = order_parameter(panel["RB"], panel["MB"])
    dev = phi.values - truth.profile
    assert np.max(np.abs(dev)) < 0.15  # kernels + noise stay near the profile
    assert np.std(dev) < 0.04


def test_noiseless_spec_tanh_recovery():
    from monephase.phase import fit_tanh

    spec = SynthSpec(
        months=240,
        start=MonthIndex(2000, 1),
        phi_low=0.127,
        phi_high=0.694,
        t0=MonthIndex(2010, 1),
        w=6.0,
        kernels={},
        phi_noise_sd=0.0,
        pi_noise_sd=0.0,
        pi_headline_extra_sd=0.0,
        seed=2,
    )
    panel, truth = generate(spec)
    phi = order_parameter(panel["RB"], panel["MB"])
    window = (MonthIndex(2005, 1), MonthIndex(2015, 12))
    fit = fit_tanh(phi, window)
    t0_offset = float(spec.t0 - window[0])
    assert fit.t0 == pytest.approx(t0_offset, abs=1e-6)
    assert fit.w == pytest.approx(6.0, abs=1e-6)
    assert fit.phi0 == pytest.approx(spec.phi_mid, abs=1e-6)
    assert fit.A == pytest.approx(spec.phi_amp, abs=1e-6)


def test_planted_kernel_recovered_by_lp(small_spec):
    from monephase import econometrics as em
    from monephase.phase import PhaseThresholds, classify

    panel, truth = generate(small_spec)
    phi = order_parameter(panel["RB"], panel["MB"])
    pi_core = yoy(panel["CPI_core"])
    g = yoy(panel["MB_SA"])
    part = classify(phi, PhaseThresholds())
    label = CASH
    _, shock = em.ar_fit(g, 12, part[label])
    shock = em.standardize(shock)
    tbl = em.local_projection(pi_core, shock, H=12, L=12, hac_lag=12)
    kernel = np.asarray(small_spec.kernel(label, "pi"))[:13]
    dev = np.abs(tbl.beta - kernel)
    assert np.mean(dev <= 2.0 * tbl.se) >= 0.85


def test_generator_embeds_literal_kernel():
    # a hand-written inflation kernel (0, 0.5, 0.25, 0, ...) planted in the
    # cash phase comes back out of the local projection within 2 se
    from monephase import econometrics as em
    from monephase.phase import PhaseThresholds, classify

    kernel = (0.0, 0.5, 0.25, 0.0)
    spec = SynthSpec(
        months=720,
        start=MonthIndex(1960, 1),
        phi_low=0.127,
        phi_high=0.694,
        t0=MonthIndex(2015, 1),
        w=4.0,
        kernels={(CASH, "pi"): kernel, (RESERVE, "pi"): kernel},
        seed=3,
    )
    panel, truth = generate(spec)
    phi = order_parameter(panel["RB"], panel["MB"])
    pi_core = yoy(panel["CPI_core"])
    g = yoy(panel["MB_SA"])
    part = classify(phi, PhaseThresholds())
    _, shock = em.ar_fit(g, 12, part[CASH])
    shock = em.standardize(shock)
    tbl = em.local_projection(pi_core, shock, H=6, L=12, hac_lag=12)
    expected = np.array(kernel + (0.0, 0.0, 0.0))
    dev = np.abs(tbl.beta - expected)
    assert np.all(dev <= 2.0 * tbl.se)


def test_validation_rejects_escaping_profile():
    with pytest.raises(DataError, match="escapes"):
        SynthSpec(phi_low=0.01, phi_high=0.9, phi_noise_sd=0.1).validate()


def test_validation_rejects_out_of_sample_t0():
    spec = SynthSpec(months=120, start=MonthIndex(2000, 1), t0=MonthIndex(2050, 1))
    with pytest.raises(DataError, match="t0"):
        spec.validate()


def test_ground_truth_file_contents(tmp_path, small_spec):
    panel, truth = generate(small_spec)
    write_economy(tmp_path, panel, truth)
    text = (tmp_path / "ground_truth.csv").read_text()
    assert "kernel_cash_pi" in text
    assert "truth_phi_c,0.231" in text
    assert f"seed,{small_spec.seed}" in text
    # phase segments recorded; enough to rebuild the conditioning sets
    assert "segments_cash" in text and "segments_reserve" in text


def test_default_spec_matches_reference_truth():
    spec = default_spec(seed=3)
    assert spec.t0 == MonthIndex(2013, 4)
    assert spec.truth["phi_c"] == 0.231
    assert spec.kernel(CASH, "pi")[0] > 0
    assert spec.kernel(RESERVE, "pi")[0] < 0
    assert min(spec.kernel(CASH, "phi")) > 0
    assert min(spec.kernel(RESERVE, "phi")) > 0


def test_ground_truth_file_states_truth_and_the_baseline_thresholds(tmp_path):
    write_economy(tmp_path, *generate(default_spec(seed=1)))
    rows = dict(read_csv(tmp_path / "ground_truth.csv")[2])
    truth = {key[len("truth_") :]: cell for key, cell in rows.items() if key.startswith("truth_")}
    assert truth.keys() == TRUTH.keys()
    for key, value in TRUTH.items():
        planted = astuple(value) if is_dataclass(value) else (value,)
        assert [float(x) for x in truth[key].split(";")] == list(planted), key
    cfg = RunConfig()
    assert (float(rows["cash_max"]), float(rows["reserve_min"])) == (cfg.cash_max, cfg.reserve_min)


def test_default_spec_ends_2025_12_and_starts_no_earlier_than_year_zero():
    assert default_spec(months=612).start == MonthIndex(1975, 1)
    longest = default_spec(months=24312)  # builds no economy
    assert (longest.start, longest.start + (longest.months - 1)) == (
        MonthIndex(0, 1), MonthIndex(2025, 12)
    )
