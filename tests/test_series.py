import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monephase.errors import DataError
from monephase.series import (
    MonthIndex,
    MonthlySeries,
    Panel,
    index_to_base,
    merge,
    month_labels,
    order_parameter,
    yoy,
)

START = MonthIndex(1970, 1)


def series(values, start=START):
    return MonthlySeries(start, values)


class TestMonthIndex:
    @given(
        st.builds(MonthIndex, st.integers(1, 9990), st.integers(1, 12)), st.integers(1, 60)
    )
    def test_month_labels_are_str_of_each_month(self, start, length):
        assert month_labels(start, length) == [str(start + i) for i in range(length)]

    def test_ordering_and_arithmetic(self):
        a = MonthIndex(1999, 12)
        assert a + 1 == MonthIndex(2000, 1)
        assert MonthIndex(2000, 1) - a == 1
        assert a < MonthIndex(2000, 1) <= MonthIndex(2000, 1)
        assert (MonthIndex(2026, 3) - MonthIndex(1970, 1)) == 674

    def test_parse_and_format(self):
        assert str(MonthIndex.parse("2013-04")) == "2013-04"
        with pytest.raises(DataError):
            MonthIndex.parse("2013/04")
        with pytest.raises(DataError):
            MonthIndex(2013, 13)

    @given(st.integers(min_value=0, max_value=60000), st.integers(-500, 500))
    @settings(max_examples=50, deadline=None)
    def test_ordinal_roundtrip(self, ordinal, offset):
        m = MonthIndex.from_ordinal(ordinal)
        assert (m + offset) - m == offset
        assert MonthIndex.from_ordinal(m.ordinal) == m


class TestYoy:
    def test_basic_ratio(self):
        x = [100.0] * 12 + [102.0]
        out = yoy(series(x))
        assert np.isnan(out.values[:12]).all()
        assert out.values[12] == pytest.approx(2.0, abs=1e-12)

    def test_constant_series_is_zero(self):
        out = yoy(series([7.5] * 30))
        assert np.allclose(out.values[12:], 0.0, atol=1e-12)

    def test_exponential_growth_closed_form(self):
        # x_t = x_{t-12} * e^0.05 for every month
        t = np.arange(60)
        x = 100.0 * np.exp(0.05 * t / 12.0)
        out = yoy(series(x))
        expected = 100.0 * (math.exp(0.05) - 1.0)
        assert np.allclose(out.values[12:], expected, rtol=1e-12)

    def test_too_short_errors(self):
        with pytest.raises(DataError, match="13 months"):
            yoy(series([1.0] * 12))

    def test_missing_and_zero_base_propagate(self):
        x = [1.0] * 26
        x[3] = None  # missing base
        x[5] = 0.0  # zero base
        out = yoy(series(x))
        assert np.isnan(out.values[15])
        assert np.isnan(out.values[17])
        assert out.values[13] == pytest.approx(0.0)

    @given(
        st.lists(st.floats(0.5, 1e6, allow_nan=False), min_size=13, max_size=40),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, values, c):
        base = yoy(series(values))
        scaled = yoy(series([v * c for v in values]))
        mask = ~np.isnan(base.values)
        assert np.allclose(base.values[mask], scaled.values[mask], atol=1e-9, rtol=1e-9)


class TestOrderParameter:
    def test_half(self):
        out = order_parameter(series([50.0]), series([100.0]))
        assert out.values[0] == 0.5

    def test_boundaries(self):
        out = order_parameter(series([0.0, 10.0]), series([10.0, 10.0]))
        assert out.values[0] == 0.0
        assert out.values[1] == 1.0

    def test_reproduces_tanh_profile(self):
        t = np.arange(120.0)
        profile = 0.4 + 0.3 * np.tanh((t - 60.0) / 8.0)
        mb = 100.0 + t
        out = order_parameter(series(profile * mb), series(mb))
        assert np.allclose(out.values, profile, rtol=1e-13)

    def test_nonpositive_mb_names_month(self):
        with pytest.raises(DataError, match="1970-02"):
            order_parameter(series([1.0, 1.0]), series([2.0, 0.0]))

    def test_rb_above_mb_rejected(self):
        with pytest.raises(DataError, match="composition"):
            order_parameter(series([3.0]), series([2.0]))

    def test_negative_rb_rejected(self):
        with pytest.raises(DataError, match="reserve balances negative at 1970-02; composition"):
            order_parameter(series([1.0, -1.0]), series([2.0, 2.0]))

    def test_misaligned_rejected(self):
        with pytest.raises(DataError, match="aligned"):
            order_parameter(series([1.0, 1.0]), series([2.0, 2.0], MonthIndex(1971, 1)))

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(1e-6, 1e9)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_output_in_unit_interval(self, pairs):
        mb = [m for _, m in pairs]
        rb = [f * m for f, m in pairs]
        out = order_parameter(series(rb), series(mb))
        assert ((out.values >= 0.0) & (out.values <= 1.0)).all()


class TestIndexToBase:
    def test_first_defined_is_100(self):
        out = index_to_base(series([None, 50.0, 100.0]))
        assert np.isnan(out.values[0])
        assert out.values[1] == 100.0
        assert out.values[2] == 200.0

    def test_constant(self):
        out = index_to_base(series([3.0] * 5))
        assert np.all(out.values == 100.0)

    def test_doubling_preserved(self):
        x = np.array([2.0**(i / 12.0) for i in range(48)])
        out = index_to_base(series(x))
        assert np.allclose(out.values, 100.0 * x / x[0], rtol=1e-14)
        assert out.values[12] == pytest.approx(200.0, rel=1e-12)

    def test_idempotent(self):
        x = series(np.linspace(3.0, 9.0, 25))
        once = index_to_base(x)
        twice = index_to_base(once)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    def test_all_missing_errors(self):
        with pytest.raises(DataError, match="all-missing"):
            index_to_base(series([None, None]))

    def test_zero_base_errors(self):
        with pytest.raises(DataError, match="zero"):
            index_to_base(series([0.0, 1.0]))


class TestMerge:
    def test_intersection(self):
        a = series(np.arange(100.0), MonthIndex(1970, 1))
        b = series(np.arange(90.0), MonthIndex(1971, 1))
        panel = merge({"a": a, "b": b})
        assert panel.start == MonthIndex(1971, 1)
        assert panel.end == min(a.end, b.end)
        assert panel["a"].values[0] == 12.0  # bit-exact carry-over

    def test_identical_ranges(self):
        a = series([1.0, 2.0, 3.0])
        panel = merge({"x": a, "y": a})
        assert panel.start == START and panel.length == 3

    def test_three_staggered_starts(self):
        s1 = series(np.arange(36.0), MonthIndex(1970, 1))
        s2 = series(np.arange(30.0), MonthIndex(1970, 4))
        s3 = series(np.arange(24.0), MonthIndex(1970, 7))
        panel = merge({"s1": s1, "s2": s2, "s3": s3})
        # latest start 1970-07; ends are 1972-12, 1972-09, 1972-06
        assert panel.start == MonthIndex(1970, 7)
        assert panel.end == MonthIndex(1972, 6)

    def test_empty_intersection_errors(self):
        a = series([1.0] * 6, MonthIndex(1970, 1))
        b = series([1.0] * 6, MonthIndex(1980, 1))
        with pytest.raises(DataError, match="overlap"):
            merge({"a": a, "b": b})

    def test_commutative(self):
        a = series(np.arange(40.0), MonthIndex(1970, 1))
        b = series(np.arange(30.0), MonthIndex(1970, 6))
        p1 = merge({"a": a, "b": b})
        p2 = merge({"b": b, "a": a})
        assert p1.start == p2.start and p1.length == p2.length
        assert p1["a"] == p2["a"] and p1["b"] == p2["b"]


class TestImmutability:
    def test_values_read_only(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            series([1.0, float("inf")])

    def test_panel_alignment_enforced(self):
        with pytest.raises(DataError):
            Panel(START, 3, {"a": series([1.0, 2.0])})
