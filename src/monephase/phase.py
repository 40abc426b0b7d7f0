"""Phase classification of the order parameter and the tanh transition fit.

Months are labeled cash, intermediate, or reserve from fixed thresholds
on phi; the closed band between the thresholds is the critical region
and is excluded from phase-conditional estimation downstream. The
transition itself is summarized by a four-parameter tanh profile: its
linear coefficients are solved in closed form over a (t0, log w) grid,
and one Gauss-Newton run polishes the best grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import MonthIndex, MonthlySeries

CASH = "cash"
INTERMEDIATE = "intermediate"
RESERVE = "reserve"


@dataclass(frozen=True)
class PhaseThresholds:
    """Band edges for the three-way split; boundary months are intermediate."""

    cash_max: float = 0.30
    reserve_min: float = 0.60

    def __post_init__(self):
        if not 0.0 < self.cash_max < self.reserve_min < 1.0:
            raise DataError(
                f"thresholds must satisfy 0 < cash_max < reserve_min < 1, "
                f"got {self.cash_max}/{self.reserve_min}"
            )


def classify(phi: MonthlySeries, thresholds: PhaseThresholds) -> dict[str, np.ndarray]:
    """Each phase's month mask: read-only booleans, one per month of phi.

    cash strictly below cash_max, reserve strictly above reserve_min, the
    closed band in between is intermediate. A missing phi month is also
    intermediate: it is thereby excluded from both phases, which is the
    conservative choice for months whose regime is unknown.
    """
    vals = phi.values
    finite = ~np.isnan(vals)
    out_of_range = finite & ((vals < 0.0) | (vals > 1.0))
    if out_of_range.any():
        month = phi.start + int(np.argmax(out_of_range))
        raise DataError(f"order parameter outside [0, 1] at {month}")
    # NaN fails both comparisons and falls through to intermediate
    cash, reserve = vals < thresholds.cash_max, vals > thresholds.reserve_min
    masks = {CASH: cash, INTERMEDIATE: ~(cash | reserve), RESERVE: reserve}
    for mask in masks.values():
        mask.flags.writeable = False  # the masks are as immutable as the series
    return masks


def segments(mask: np.ndarray, start: MonthIndex) -> list[tuple[MonthIndex, MonthIndex]]:
    """The maximal runs of months in a mask whose first entry is the month start."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], mask, [0]])))
    return [(start + int(i), start + int(j) - 1) for i, j in edges.reshape(-1, 2)]


def phase_means(phi: MonthlySeries, masks: dict[str, np.ndarray]) -> tuple[float, float]:
    """Arithmetic mean of phi over cash months and over reserve months."""
    means = []
    for label in (CASH, RESERVE):
        mask = masks[label]
        if len(mask) != len(phi):
            raise DataError("phase masks and series must cover the same months")
        if not mask.any():
            raise DataError(f"phase {label!r} is empty")
        means.append(float(np.mean(phi.values[mask])))
    return means[0], means[1]


@dataclass(frozen=True)
class TanhFit:
    """Fitted transition profile phi0 + A * tanh((t - t0) / w).

    t0 is a real month coordinate counted from the fit window start; use
    t0_calendar for the calendar position. A negative A encodes a
    downward transition. degenerate_width flags a fit with essentially no
    transition amplitude, trustworthy goes false when the fitted
    asymptotes phi0 +/- A escape [0, 1] although the data did not.
    """

    phi0: float
    A: float
    t0: float
    w: float
    sse: float
    converged: bool
    iterations: int
    window: tuple[MonthIndex, MonthIndex]
    degenerate_width: bool = False
    trustworthy: bool = True

    def t0_calendar(self) -> tuple[MonthIndex, float]:
        """Whole calendar month plus the fractional remainder of t0."""
        base = math.floor(self.t0)
        return self.window[0] + int(base), self.t0 - base

    def t0_calendar_str(self) -> str:
        month, frac = self.t0_calendar()
        return f"{month}+{frac:.4f}"

    def profile(self, t: np.ndarray) -> np.ndarray:
        return self.phi0 + self.A * np.tanh((t - self.t0) / self.w)


START_GRID = (25, 16)  # t0 points across the defined months, log w points from 1 month to the span
MAX_ITERATIONS = 500
SSE_RTOL = 1e-12
STEP_TOL = 1e-10


LOGW_BOUND = 20.0  # keeps w inside [2e-9, 5e8] months; exp stays finite


def _gauss_newton(t, y, theta0):
    """Minimize the tanh SSE from one start; theta = (phi0, A, t0, log w)."""

    def width(theta):
        return math.exp(min(max(theta[3], -LOGW_BOUND), LOGW_BOUND))

    def residual(theta):
        phi0, A, t0, _ = theta
        z = (t - t0) / width(theta)
        return phi0 + A * np.tanh(z) - y

    def jacobian(theta):
        _, A, t0, _ = theta
        w = width(theta)
        z = (t - t0) / w
        with np.errstate(over="ignore"):
            sech2 = 1.0 / np.cosh(z) ** 2
        return np.column_stack([np.ones_like(t), np.tanh(z), -A * sech2 / w, -A * sech2 * z])

    theta = np.asarray(theta0, dtype=np.float64)
    r = residual(theta)
    sse = float(r @ r)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        J = jacobian(theta)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        alpha = 1.0
        improved = False
        while alpha > 2.0**-30:
            cand = theta + alpha * step
            r_cand = residual(cand)
            sse_cand = float(r_cand @ r_cand)
            if sse_cand < sse:
                improved = True
                break
            alpha *= 0.5
        if not improved:
            converged = True
            break
        step_norm = float(np.linalg.norm(alpha * step))
        drop = sse - sse_cand
        theta, r, sse = cand, r_cand, sse_cand
        if drop < SSE_RTOL * max(sse, 1e-300) or step_norm < STEP_TOL:
            converged = True
            break
    return theta, sse, converged, iterations


def fit_tanh(
    phi: MonthlySeries,
    window: tuple[MonthIndex, MonthIndex],
) -> TanhFit:
    """Nonlinear least squares of the tanh profile over the given window.

    For fixed (t0, w) the profile is linear in (phi0, A), so those two are
    solved in closed form on a grid of START_GRID (t0, log w) points, and
    Gauss-Newton polishes all four parameters once, from the grid point of
    lowest SSE (the earliest on ties). The width is optimized as log w,
    which removes the sign degeneracy of tanh in w.
    """
    a, b = window
    sliced = phi.restrict(a, b)
    mask = ~np.isnan(sliced.values)
    if int(mask.sum()) < 24:
        raise DataError(
            f"tanh fit needs at least 24 defined months in {a}..{b}, "
            f"got {int(mask.sum())}"
        )
    t = np.flatnonzero(mask).astype(np.float64)
    y = sliced.values[mask]

    n_t0, n_w = START_GRID
    t0_grid = np.linspace(t[0], t[-1], n_t0)
    logw_grid = np.linspace(0.0, math.log(t[-1] - t[0]), n_w)
    s = np.tanh((t - t0_grid[:, None, None]) / np.exp(logw_grid)[:, None])
    s_mean = s.mean(axis=-1)
    s -= s_mean[..., None]  # centred: A is a one-column regression, phi0 follows
    sy = s @ (y - y.mean())
    ss = np.einsum("ijk,ijk->ij", s, s)
    amp = np.divide(sy, ss, out=np.zeros_like(ss), where=ss > 0.0)
    # SSE = sum (y - mean y)^2 - amp * sy, whose first term is the same everywhere
    i, k = np.unravel_index(np.argmin(-amp * sy), amp.shape)
    theta0 = (y.mean() - amp[i, k] * s_mean[i, k], amp[i, k], t0_grid[i], logw_grid[k])
    theta, sse, conv, iters = _gauss_newton(t, y, theta0)
    phi0, A, t0, logw = (float(v) for v in theta)
    w = math.exp(min(max(logw, -LOGW_BOUND), LOGW_BOUND))

    data_range = float(np.max(y) - np.min(y))
    degenerate = abs(A) <= max(1e-12, 1e-6 * data_range)
    in_unit = bool((y >= 0.0).all() and (y <= 1.0).all())
    asymptotes_ok = 0.0 <= phi0 - abs(A) and phi0 + abs(A) <= 1.0
    trustworthy = (not in_unit) or asymptotes_ok or degenerate

    return TanhFit(
        phi0=phi0,
        A=A,
        t0=t0,
        w=w,
        sse=float(sse),
        converged=bool(conv),
        iterations=iters,
        window=(a, b),
        degenerate_width=degenerate,
        trustworthy=trustworthy,
    )
