"""Regression kernel: OLS, Newey-West covariance, AR shocks, local projections.

Everything here is a pure function of arrays pulled out of MonthlySeries
objects. Conventions are pinned so that independent oracles can match
bit-for-bit where the contracts say so:

* OLS is solved through a singular value decomposition; a design matrix
  whose smallest singular value falls below 1e-10 of the largest is
  rejected as collinear.
* The HAC sandwich uses Bartlett weights w_j = 1 - |j|/(L+1) and no
  small-sample degrees-of-freedom correction (denominator n).
* A local projection's standard error is the Bartlett long-run variance
  of the scalar series (x_t . b1) u_t, where b1 is row 1 of (X'X)^{-1}
  taken from the OLS singular value decomposition; in exact arithmetic
  it equals element [1, 1] of the hac_covariance sandwich.
* Confidence intervals are beta +/- 1.96 * se.
* A phase enters as a boolean month mask on the shock, whose lags never
  cross a gap in it; the shock is NaN off its rows, so a projection on
  it keeps exactly the phase months where the shock is defined.
* Two-segment breakpoints are exhaustive grid searches; ties go to the
  earliest admissible month and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearityError, DataError
from .series import MonthIndex, MonthlySeries

RANK_TOLERANCE = 1e-10
CI_MULTIPLIER = 1.96


@dataclass(frozen=True)
class RegressionResult:
    """OLS coefficients and residuals, with the singular values s and V' of X."""

    coefficients: np.ndarray
    residuals: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def ols(X: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Least squares via SVD.

    Raises CollinearityError when X is rank deficient at the relative
    tolerance above, and DataError when there are not more rows than
    columns.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, k = X.shape
    if n <= k:
        raise DataError(f"need more observations than regressors (n={n}, k={k})")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s[-1] < RANK_TOLERANCE * s[0]:
        raise CollinearityError(
            f"rank-deficient design: singular values span {s[0]:.3e}..{s[-1]:.3e}"
        )
    coef = Vt.T @ ((U.T @ y) / s)
    return RegressionResult(coef, y - X @ coef, s, Vt)


def _bartlett(Z: np.ndarray, max_lag: int) -> np.ndarray:
    """Z'WZ: the Bartlett-weighted sum of the autocovariances of Z's rows up to max_lag."""
    n = Z.shape[0]
    if max_lag < 0:
        raise DataError(f"max_lag must be nonnegative, got {max_lag}")
    if max_lag >= n:
        raise DataError(f"max_lag {max_lag} must be below the sample size {n}")
    S = Z.T @ Z
    for j in range(1, max_lag + 1):
        w = 1.0 - j / (max_lag + 1.0)
        gamma = Z[j:].T @ Z[:-j]
        S = S + w * (gamma + gamma.T)
    return S


def hac_covariance(X: np.ndarray, residuals: np.ndarray, max_lag: int) -> np.ndarray:
    """Newey-West sandwich covariance of OLS coefficients.

    With max_lag = 0 this collapses to the heteroskedasticity-robust
    (White) sandwich. The returned matrix is symmetrized.
    """
    X = np.asarray(X, dtype=np.float64)
    u = np.asarray(residuals, dtype=np.float64)
    S = _bartlett(X * u[:, None], max_lag)
    bread = np.linalg.inv(X.T @ X)
    V = bread @ S @ bread
    return (V + V.T) / 2.0


@dataclass(frozen=True)
class ShockSeries:
    """A residual shock aligned to the calendar it was estimated on."""

    values: MonthlySeries
    definition: str
    standardized: bool = False


def _lags(v: np.ndarray, p: int) -> np.ndarray:
    """(n, p) matrix of v_{t-1}..v_{t-p}; NaN where a lag falls before the first month."""
    out = np.full((v.size, p), np.nan)
    for lag in range(1, p + 1):
        out[lag:, lag - 1] = v[:-lag]
    return out


def _residual_shock(
    x: MonthlySeries, p: int, sample: np.ndarray | None, trend: bool, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """OLS of x on an intercept, an optional time trend and p own lags.

    A row is usable when its month is in the sample, its value and its
    whole design row are defined, and its p lags stay inside the row's run
    of consecutive sample months; rows are taken in month order. Returns
    the coefficients and the residuals, NaN off the usable rows.
    """
    vals = x.values
    n = len(vals)
    inside = np.ones(n, dtype=bool) if sample is None else np.asarray(sample, dtype=bool)
    if inside.shape != (n,):
        raise DataError(f"sample mask has {inside.size} entries, the series {n} months")
    t = np.arange(n)
    run_start = np.maximum.accumulate(np.where(inside & ~np.r_[False, inside[:-1]], t, 0))
    depth = np.where(inside, t - run_start, -1)  # months since the start of the row's run
    cols = [np.ones(n)] + ([t.astype(np.float64)] if trend else [])
    X = np.column_stack(cols + [_lags(vals, p)])
    rows = np.flatnonzero((depth >= p) & ~np.isnan(vals) & ~np.isnan(X).any(axis=1))
    if rows.size <= X.shape[1]:
        raise DataError(
            f"too few usable rows for {what}: {rows.size} (need > {X.shape[1]})"
        )
    fit = ols(X[rows], vals[rows])
    resid = np.full_like(vals, np.nan)
    resid[rows] = fit.residuals
    return fit.coefficients, resid


def ar_fit(
    x: MonthlySeries, p: int, sample: np.ndarray | None = None
) -> tuple[np.ndarray, ShockSeries]:
    """AR(p) by OLS with intercept; residuals are the unexpected component.

    sample is a boolean mask with one entry per month of x, such as a
    phase's PhasePartition.mask; None keeps every month. Rows are pooled
    across the mask's runs of consecutive months; a row is usable only
    when all its lags stay inside its own run, so no dynamics are
    fabricated across gaps. Residuals come back unstandardized and
    defined only on usable rows.
    """
    if p < 1:
        raise DataError(f"autoregressive order must be >= 1, got {p}")
    coef, resid = _residual_shock(x, p, sample, trend=False, what=f"AR({p})")
    return coef, ShockSeries(MonthlySeries(x.start, resid), f"ar_resid({p})")


def detrended_shock(
    x: MonthlySeries, lags: int, sample: np.ndarray | None = None
) -> ShockSeries:
    """Residual of x on an intercept, a linear time trend and own lags, over rows as in ar_fit."""
    if lags < 0:
        raise DataError(f"lag count must be >= 0, got {lags}")
    _, resid = _residual_shock(x, lags, sample, trend=True, what="detrended shock")
    return ShockSeries(MonthlySeries(x.start, resid), f"detrended({lags})")


def standardize(shock: ShockSeries) -> ShockSeries:
    """Scale to unit sample variance (ddof=1); the mean is left untouched."""
    vals = shock.values.values
    mask = ~np.isnan(vals)
    if mask.sum() < 2:
        raise DataError("standardize needs at least two defined values")
    sd = float(np.std(vals[mask], ddof=1))
    if sd == 0.0:
        raise DataError("degenerate shock: zero sample variance")
    return ShockSeries(
        values=shock.values.with_values(vals / sd),
        definition=shock.definition,
        standardized=True,
    )


@dataclass(frozen=True)
class IRFRow:
    h: int
    beta: float
    se: float
    ci_low: float
    ci_high: float
    n: int


@dataclass(frozen=True)
class IRFTable:
    """Per-horizon impulse-response estimates plus run metadata."""

    rows: tuple[IRFRow, ...]
    phase: str
    shock_definition: str
    response: str
    horizon: int
    lags: int

    def __post_init__(self):
        hs = [r.h for r in self.rows]
        if hs != list(range(self.horizon + 1)):
            raise DataError(
                f"IRF table must cover h = 0..{self.horizon} without gaps, got {hs}"
            )
        for r in self.rows:
            if not (np.isfinite(r.beta) and np.isfinite(r.se)):
                raise DataError(f"non-finite beta or se at h={r.h}")
            if not (
                abs(r.ci_low - (r.beta - CI_MULTIPLIER * r.se)) <= 1e-12
                and abs(r.ci_high - (r.beta + CI_MULTIPLIER * r.se)) <= 1e-12
            ):
                raise DataError(f"confidence bounds inconsistent at h={r.h}")

    def beta(self) -> np.ndarray:
        return np.array([r.beta for r in self.rows])

    def se(self) -> np.ndarray:
        return np.array([r.se for r in self.rows])


def local_projection(
    y: MonthlySeries,
    shock: ShockSeries,
    H: int,
    L: int,
    hac_lag: int = 12,
    phase: str = "",
    response: str = "",
) -> IRFTable:
    """Horizon-by-horizon projection of y on the shock with lag controls.

    For each h in 0..H, regress y_{t+h} on an intercept, u_t, L lags of y,
    and L lags of u over rows where all regressors and the outcome exist.
    A phase shock is NaN off its phase, so those rows lie in the phase.
    The reported coefficient is the one on u_t with a Newey-West standard
    error: the Bartlett long-run variance of (x_t . b1) u_t, where b1 is
    row 1 of (X'X)^{-1} from the regression's own SVD. In exact arithmetic
    it equals element [1, 1] of hac_covariance, without forming the k x k
    sandwich.

    The shock enters exactly as given; standardize first if unit-shock
    kernels are wanted.
    """
    if H < 0 or L < 0:
        raise DataError("H and L must be nonnegative")
    u_series = shock.values
    start = max(y.start, u_series.start)
    end = min(y.end, u_series.end)
    if start > end:
        raise DataError("outcome and shock do not overlap")
    yv = y.restrict(start, end).values
    uv = u_series.restrict(start, end).values
    n = len(yv)

    design = np.column_stack([np.ones(n), uv, _lags(yv, L), _lags(uv, L)])
    base = ~np.isnan(design).any(axis=1)
    y_ok = ~np.isnan(yv)

    rows_out = []
    for h in range(H + 1):
        t_idx = np.flatnonzero(base[: max(n - h, 0)] & y_ok[h:])
        if t_idx.size <= 2 * L + 2:
            raise DataError(
                f"horizon h={h}: only {t_idx.size} usable rows "
                f"(need > {2 * L + 2})"
            )
        outcome = yv[t_idx + h]
        if np.ptp(outcome) == 0.0:
            raise DataError(f"horizon h={h}: outcome has zero variance")
        X = design[t_idx]
        fit = ols(X, outcome)
        b1 = fit.vt.T @ (fit.vt[:, 1] / fit.s**2)
        z = (X @ b1) * fit.residuals
        var = _bartlett(z[:, None], hac_lag)[0, 0]
        beta = float(fit.coefficients[1])
        se = float(np.sqrt(max(var, 0.0)))
        rows_out.append(
            IRFRow(
                h=h,
                beta=beta,
                se=se,
                ci_low=beta - CI_MULTIPLIER * se,
                ci_high=beta + CI_MULTIPLIER * se,
                n=int(t_idx.size),
            )
        )
    return IRFTable(
        rows=tuple(rows_out),
        phase=phase,
        shock_definition=shock.definition,
        response=response,
        horizon=H,
        lags=L,
    )


@dataclass(frozen=True)
class BreakResult:
    """Best single break of a two-segment linear fit inside a window.

    segment_fits holds (intercept, slope) for each side, with time measured
    in months since the window start; tau is the last month of the left
    segment.
    """

    tau: MonthIndex
    rss: float
    segment_fits: tuple[float, float, float, float]
    tie: bool = False


def _line_rss(sx, sy, sxx, sxy, syy, m):
    """RSS, intercept and slope of least-squares lines from raw moments, elementwise."""
    det = m * sxx - sx * sx
    flat = det <= 0.0  # one distinct month: the line is the mean
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(flat, 0.0, (m * sxy - sx * sy) / det)
    intercept = (sy - slope * sx) / m
    rss = np.where(flat, syy - sy * sy / m, syy - intercept * sy - slope * sxy)
    return np.where(0.0 > rss, 0.0, rss), intercept, slope


TIE_TOLERANCE = 1e-10


def breakpoint(
    y: MonthlySeries,
    window: tuple[MonthIndex, MonthIndex],
    min_seg: int = 24,
) -> BreakResult:
    """Exhaustive single-break search minimizing two-segment RSS.

    tau is the last month of the left segment; both segments keep at
    least min_seg months. Every candidate is scored at once from
    cumulative moments. Ties within an absolute slack of 1e-10 go to the
    earliest tau and set the tie flag.
    """
    a, b = window
    if min_seg < 1:
        raise DataError(f"breakpoint segments need at least 1 month, got min_seg={min_seg}")
    sliced = y.restrict(a, b)
    vals = sliced.values
    n = len(vals)
    if n < 2 * min_seg:
        raise DataError(f"window {a}..{b} has {n} months, needs at least {2 * min_seg}")
    if np.isnan(vals).any():
        month = a + int(np.argmax(np.isnan(vals)))
        raise DataError(f"breakpoint window has a missing value at {month}")

    t = np.arange(n, dtype=np.float64)
    moments = np.cumsum([t, vals, t * t, t * vals, vals * vals], axis=1)
    m = np.arange(min_seg, n - min_seg + 1)  # months in the left segment
    left = moments[:, m - 1]
    rss_l, a1, b1 = _line_rss(*left, m)
    rss_r, a2, b2 = _line_rss(*(moments[:, -1:] - left), n - m)
    rss = rss_l + rss_r
    rss_min = rss.min()
    slack = TIE_TOLERANCE * (1.0 + rss_min)
    near = np.flatnonzero(rss <= rss_min + slack)
    k = near[0]  # earliest tau among ties
    return BreakResult(
        tau=a + int(m[k]) - 1,
        rss=float(rss[k]),
        segment_fits=(float(a1[k]), float(b1[k]), float(a2[k]), float(b2[k])),
        tie=near.size > 1,
    )
