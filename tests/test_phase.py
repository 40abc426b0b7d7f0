import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monephase.errors import DataError
from monephase.phase import (
    CASH,
    INTERMEDIATE,
    RESERVE,
    PhaseThresholds,
    classify,
    fit_tanh,
    phase_means,
    segments,
)
from monephase.series import MonthIndex, MonthlySeries

START = MonthIndex(2000, 1)
TH = PhaseThresholds()


def ms(values, start=START):
    return MonthlySeries(start, values)


def labels(masks):
    """Each month's phase, read from the masks; every month is in exactly one."""
    assert (np.sum(list(masks.values()), axis=0) == 1).all()
    return tuple(next(label for label, mask in masks.items() if mask[i])
                 for i in range(len(masks[CASH])))


class TestThresholds:
    def test_defaults(self):
        assert TH.cash_max == 0.30 and TH.reserve_min == 0.60

    def test_invalid_order_rejected(self):
        with pytest.raises(DataError):
            PhaseThresholds(0.7, 0.6)
        with pytest.raises(DataError):
            PhaseThresholds(0.0, 0.6)


class TestClassify:
    def test_boundary_is_intermediate(self):
        part = classify(ms([0.30, 0.60]), TH)
        assert labels(part) == (INTERMEDIATE, INTERMEDIATE)

    def test_three_way_split(self):
        part = classify(ms([0.1, 0.5, 0.9]), TH)
        assert labels(part) == (CASH, INTERMEDIATE, RESERVE)

    def test_monotone_profile_gives_three_segments(self):
        t = np.arange(100.0)
        phi = 0.45 + 0.35 * np.tanh((t - 50.0) / 8.0)
        part = classify(ms(phi), TH)
        assert len(segments(part[CASH], START)) == 1
        assert len(segments(part[INTERMEDIATE], START)) == 1
        assert len(segments(part[RESERVE], START)) == 1
        cash_seg = segments(part[CASH], START)[0]
        inter_seg = segments(part[INTERMEDIATE], START)[0]
        assert cash_seg[1] + 1 == inter_seg[0]

    def test_segments_reconstruct_labels(self):
        rng = np.random.default_rng(0)
        phi = rng.uniform(0, 1, 60)
        part = classify(ms(phi), TH)
        rebuilt = [None] * 60
        for label in (CASH, INTERMEDIATE, RESERVE):
            for a, b in segments(part[label], START):
                for i in range(a - START, b - START + 1):
                    rebuilt[i] = label
        assert tuple(rebuilt) == labels(part)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError, match="outside"):
            classify(ms([0.5, 1.2]), TH)

    def test_labels_read_only(self):
        part = classify(ms([0.1, 0.5]), TH)
        for mask in part.values():
            with pytest.raises(ValueError):
                mask[0] = not mask[0]

    def test_missing_is_intermediate(self):
        part = classify(ms([None, 0.1]), TH)
        assert labels(part) == (INTERMEDIATE, CASH)

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.05, 0.45),
        st.floats(0.05, 0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_raising_cash_max_is_monotone(self, phi, cash_max, bump):
        lo = classify(ms(phi), PhaseThresholds(cash_max, 0.95))
        hi = classify(ms(phi), PhaseThresholds(cash_max + bump, 0.96))
        for a, b in zip(labels(lo), labels(hi)):
            if a == CASH:
                assert b == CASH


class TestFitTanh:
    def planted(self, phi0=0.4, A=0.3, t0=48.0, w=10.0, n=96):
        t = np.arange(float(n))
        return phi0 + A * np.tanh((t - t0) / w)

    def test_noiseless_recovery(self):
        y = self.planted()
        fit = fit_tanh(ms(y), (START, START + 95))
        assert fit.phi0 == pytest.approx(0.4, abs=1e-6)
        assert fit.A == pytest.approx(0.3, abs=1e-6)
        assert fit.t0 == pytest.approx(48.0, abs=1e-6)
        assert fit.w == pytest.approx(10.0, abs=1e-6)
        assert fit.converged and not fit.degenerate_width

    def test_constant_series_degenerate(self):
        fit = fit_tanh(ms(np.full(48, 0.5)), (START, START + 47))
        assert fit.degenerate_width
        assert abs(fit.A) < 1e-8

    def test_noisy_t0_within_two_months(self):
        y = self.planted()
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fit = fit_tanh(ms(y + rng.normal(0, 0.01, 96)), (START, START + 95))
            hits += abs(fit.t0 - 48.0) <= 2.0
        assert hits == 20

    def test_sse_beats_flat_model(self):
        rng = np.random.default_rng(5)
        y = self.planted() + rng.normal(0, 0.02, 96)
        fit = fit_tanh(ms(y), (START, START + 95))
        flat_sse = float(np.sum((y - y.mean()) ** 2))
        assert fit.sse <= flat_sse

    def test_time_origin_equivariance(self):
        y = self.planted()
        base = fit_tanh(ms(y), (START, START + 95))
        shifted_start = MonthIndex(2004, 1)
        shifted = fit_tanh(ms(y, shifted_start), (shifted_start, shifted_start + 95))
        # same offsets inside the window: identical relative t0
        assert shifted.t0 == pytest.approx(base.t0, abs=1e-8)
        # calendar position moves with the window
        base_cal, base_frac = base.t0_calendar()
        shift_cal, shift_frac = shifted.t0_calendar()
        assert shift_cal - base_cal == shifted_start - START
        assert shift_frac == pytest.approx(base_frac, abs=1e-8)

    def test_window_with_too_few_points(self):
        with pytest.raises(DataError, match="24"):
            fit_tanh(ms(np.full(96, 0.5)), (START, START + 20))

    @pytest.mark.parametrize("w", [10.0, 30.0])
    @pytest.mark.parametrize("t0", [58.0, 70.0, 90.0])
    def test_partial_transition_recovered(self, t0, w):
        # midpoint at the window's last month or past it: only one side shows
        t = np.arange(60.0)
        y = 0.5 + 0.45 * np.tanh((t - t0) / w)
        fit = fit_tanh(ms(y), (START, START + 59))
        assert fit.converged
        for name, true in (("phi0", 0.5), ("A", 0.45), ("t0", t0), ("w", w)):
            assert getattr(fit, name) == pytest.approx(true, abs=1e-6), name

    def test_linear_ramp_untrustworthy(self):
        # a straight line is the wide-w limit of tanh: the fitted plateaus
        # escape [0, 1] although every data point lies inside
        y = np.linspace(0.2, 0.8, 60)
        fit = fit_tanh(ms(y), (START, START + 59))
        assert not fit.trustworthy
        assert fit.phi0 - abs(fit.A) < 0.0 and fit.phi0 + abs(fit.A) > 1.0

    def test_downward_transition_negative_amplitude(self):
        y = self.planted(A=-0.25)
        fit = fit_tanh(ms(y), (START, START + 95))
        # sign convention: either A < 0, or w flips the orientation; the
        # fitted curve itself must match
        curve = fit.profile(np.arange(96.0))
        assert np.allclose(curve, y, atol=1e-6)


class TestPhaseMeans:
    def test_constant_phase_mean(self):
        phi = np.concatenate([np.full(30, 0.1), np.full(30, 0.8)])
        part = classify(ms(phi), TH)
        cash_mean, reserve_mean = phase_means(ms(phi), part)
        assert cash_mean == pytest.approx(0.1)
        assert reserve_mean == pytest.approx(0.8)

    def test_calibrated_to_reference_means(self):
        phi = np.concatenate([np.full(40, 0.127), np.full(40, 0.694)])
        part = classify(ms(phi), TH)
        cash_mean, reserve_mean = phase_means(ms(phi), part)
        assert cash_mean == pytest.approx(0.127, abs=1e-12)
        assert reserve_mean == pytest.approx(0.694, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        cash_vals = rng.uniform(0.05, 0.25, 20)
        order = rng.permutation(20)
        a = np.concatenate([cash_vals, np.full(5, 0.9)])
        b = np.concatenate([cash_vals[order], np.full(5, 0.9)])
        mean_a = phase_means(ms(a), classify(ms(a), TH))[0]
        mean_b = phase_means(ms(b), classify(ms(b), TH))[0]
        assert mean_a == pytest.approx(mean_b, abs=1e-14)

    def test_empty_phase_named(self):
        phi = np.full(10, 0.5)
        part = classify(ms(phi), TH)
        with pytest.raises(DataError, match="cash"):
            phase_means(ms(phi), part)

    def test_masks_of_other_months_refused(self):
        part = classify(ms([0.1, 0.9]), TH)
        with pytest.raises(DataError, match="same months"):
            phase_means(ms([0.1, 0.9, 0.9]), part)
