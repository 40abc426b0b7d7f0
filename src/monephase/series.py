"""Month-indexed series arithmetic and panel merging.

All analysis in this package runs on monthly data aligned at month end, so
a calendar month is the atomic time unit: ``MonthIndex`` is an ordered
(year, month) pair, ``MonthlySeries`` is a contiguous run of monthly
values with explicit missing entries, and ``Panel`` bundles several
series re-based to one common range.

Missing values are first-class and propagate through every transform;
nothing is imputed. Year-over-year transforms therefore come out missing
for their first twelve months, which is exactly the cut applied to the
merged sample downstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DataError

_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$", re.ASCII)


@dataclass(frozen=True, order=True)
class MonthIndex:
    """A calendar month; ordering and month arithmetic are exact integers."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise DataError(f"month must be in 1..12, got {self.month}")

    @property
    def ordinal(self) -> int:
        return self.year * 12 + (self.month - 1)

    @classmethod
    def from_ordinal(cls, ordinal: int) -> "MonthIndex":
        year, month0 = divmod(ordinal, 12)
        return cls(year, month0 + 1)

    @classmethod
    def parse(cls, text: str) -> "MonthIndex":
        m = _MONTH_RE.match(text.strip())
        if m is None:
            raise DataError(f"cannot parse month {text!r}, expected YYYY-MM")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    def __add__(self, months: int) -> "MonthIndex":
        return MonthIndex.from_ordinal(self.ordinal + int(months))

    def __sub__(self, other):
        if isinstance(other, MonthIndex):
            return self.ordinal - other.ordinal
        return MonthIndex.from_ordinal(self.ordinal - int(other))


def month_labels(start: MonthIndex, length: int) -> list[str]:
    """str of each of the length months from start, without building the months."""
    first = start.ordinal
    return [f"{o // 12:04d}-{o % 12 + 1:02d}" for o in range(first, first + length)]


@dataclass(frozen=True, eq=False)
class MonthlySeries:
    """Contiguous monthly coverage from ``start``; NaN marks a missing month.

    Instances are immutable; the backing array is read-only. Present values
    must be finite, which keeps infinities out of every downstream
    computation.
    """

    start: MonthIndex
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)  # None becomes NaN
        if arr.ndim != 1 or arr.size < 1:
            raise DataError("series needs at least one month of coverage")
        if np.isinf(arr).any():  # NaN marks a missing month; any other value must be finite
            raise DataError(f"non-finite value at {self.start + int(np.argmax(np.isinf(arr)))}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)  # how a frozen dataclass replaces a field

    @property
    def end(self) -> MonthIndex:
        """Last covered month (inclusive)."""
        return self.start + (len(self) - 1)

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonthlySeries):
            return NotImplemented
        return self.start == other.start and np.array_equal(
            self.values, other.values, equal_nan=True
        )

    def __repr__(self) -> str:
        return f"MonthlySeries({self.start}..{self.end}, n={len(self)})"

    def restrict(self, start: MonthIndex, end: MonthIndex) -> "MonthlySeries":
        """Slice to the inclusive month range [start, end]."""
        if start > end:
            raise DataError(f"empty range {start}..{end}")
        for month in (start, end):
            if not 0 <= month - self.start < len(self):
                raise DataError(f"{month} outside coverage {self.start}..{self.end}")
        return MonthlySeries(start, self.values[start - self.start : end - self.start + 1])

    def with_values(self, values: np.ndarray) -> "MonthlySeries":
        if len(values) != len(self):
            raise DataError("replacement values must preserve length")
        return MonthlySeries(self.start, values)


@dataclass(frozen=True)
class Panel:
    """Named series sharing one month range; names keep insertion order."""

    start: MonthIndex
    length: int
    series: Mapping[str, MonthlySeries] = field(default_factory=dict)

    def __post_init__(self):
        for name, s in self.series.items():
            if s.start != self.start or len(s) != self.length:
                raise DataError(
                    f"series {name!r} spans {s.start}..{s.end}, "
                    f"panel needs {self.start} with {self.length} months"
                )

    @property
    def end(self) -> MonthIndex:
        return self.start + (self.length - 1)

    def __getitem__(self, name: str) -> MonthlySeries:
        try:
            return self.series[name]
        except KeyError:
            raise DataError(f"panel has no series {name!r}") from None


def yoy(series: MonthlySeries) -> MonthlySeries:
    """Year-over-year growth in percent: 100 * (x_t / x_{t-12} - 1).

    The first twelve months are missing by construction; so is any month
    where either operand is missing or the base value is zero.
    """
    if len(series) < 13:
        raise DataError(f"yoy needs at least 13 months, got {len(series)}")
    x = series.values
    base, cur = x[:-12], x[12:]
    ok = ~np.isnan(base) & ~np.isnan(cur) & (base != 0.0)
    out = np.full_like(x, np.nan)
    out[12:][ok] = 100.0 * (cur[ok] / base[ok] - 1.0)
    return MonthlySeries(series.start, out)


def order_parameter(rb: MonthlySeries, mb: MonthlySeries) -> MonthlySeries:
    """Reserve share of the monetary base, phi_t = RB_t / MB_t."""
    if rb.start != mb.start or len(rb) != len(mb):
        raise DataError(
            f"order_parameter needs aligned series, got {rb.start}..{rb.end} "
            f"vs {mb.start}..{mb.end}"
        )
    r, m = rb.values, mb.values
    both = ~np.isnan(r) & ~np.isnan(m)
    bad_mb = both & (m <= 0.0)
    if bad_mb.any():
        month = rb.start + int(np.argmax(bad_mb))
        raise DataError(f"monetary base must be positive, offending month {month}")
    over = both & (r > m)
    if over.any():
        month = rb.start + int(np.argmax(over))
        raise DataError(
            f"reserve balances exceed monetary base at {month}; composition violated"
        )
    out = np.full_like(r, np.nan)
    out[both] = r[both] / m[both]
    return MonthlySeries(rb.start, out)


def index_to_base(series: MonthlySeries) -> MonthlySeries:
    """Scale so the first defined month equals 100 exactly."""
    mask = ~np.isnan(series.values)
    if not mask.any():
        raise DataError("cannot index an all-missing series")
    base = series.values[int(np.argmax(mask))]
    if base == 0.0:
        raise DataError("first defined value is zero; cannot index")
    return MonthlySeries(series.start, 100.0 * (series.values / base))


def merge(named: Mapping[str, MonthlySeries]) -> Panel:
    """Restrict the given series to their common month range.

    Values inside the intersection are carried over bit-exactly.
    """
    if not named:
        raise DataError("merge needs at least one series")
    start = max(s.start for s in named.values())
    end = min(s.end for s in named.values())
    if start > end:
        raise DataError("series have no overlapping months")
    length = end - start + 1
    return Panel(start, length, {name: s.restrict(start, end) for name, s in named.items()})
