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
* Horizons of a local projection that share their rows share one SVD of
  their design. This is exact: every float operation sees the inputs that
  one ols per horizon would.
* An IRFTable holds only beta, se and n by horizon; labels are the caller's, and
  IRFTable.cells computes the bands beta -/+ 1.96 * se when a table is written.
* numpy's bundled OpenBLAS runs on one thread: threaded kernels split sums by
  thread count, which moves the last bits of a long design's SVD.
* A phase enters as a boolean month mask on the shock, whose lags never
  cross a gap in it; the shock is NaN off its rows, so a projection on
  it keeps exactly the phase months where the shock is defined.
* Two-segment breakpoints are exhaustive grid searches; ties go to the
  earliest admissible month and are flagged.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CollinearityError, DataError
from .series import MonthIndex, MonthlySeries

RANK_TOLERANCE = 1e-10
CI_MULTIPLIER = 1.96


def _pin_blas_threads() -> None:
    """Set the OpenBLAS of a numpy wheel to one thread; another BLAS is left as it is."""
    site = Path(np.__file__).parent.parent
    for lib in [*site.glob("numpy.libs/*openblas*"), *site.glob("numpy/.dylibs/*openblas*")]:
        setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)


_pin_blas_threads()


@dataclass(frozen=True)
class RegressionResult:
    """OLS coefficients and residuals."""

    coefficients: np.ndarray
    residuals: np.ndarray


def _svd(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD U, s, V' of a design X.

    Raises DataError unless X has more rows than columns, and
    CollinearityError when X is rank deficient at the relative tolerance
    above.
    """
    n, k = X.shape
    if n <= k:
        raise DataError(f"need more observations than regressors (n={n}, k={k})")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    if s[-1] < RANK_TOLERANCE * s[0]:
        raise CollinearityError(
            f"rank-deficient design: singular values span {s[0]:.3e}..{s[-1]:.3e}"
        )
    return U, s, Vt


def ols(X: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Least squares via SVD; X is checked as _svd checks it."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    U, s, Vt = _svd(X)
    coef = Vt.T @ ((U.T @ y) / s)
    return RegressionResult(coef, y - X @ coef)


def _bartlett(Z: np.ndarray, max_lag: int) -> np.ndarray | float:
    """Z'WZ, the Bartlett-weighted autocovariances of Z's rows up to max_lag; a float for 1-D Z."""
    n = Z.shape[0]
    if max_lag < 0:
        raise DataError(f"max_lag must be nonnegative, got {max_lag}")
    if max_lag >= n:
        raise DataError(f"max_lag {max_lag} must be below the sample size {n}")
    if Z.ndim == 1:  # the LP path: the same sums in the same order, on Python floats
        S = float(Z.dot(Z))
        for j in range(1, max_lag + 1):
            gamma = float(Z[j:].dot(Z[:-j]))
            S = S + (1.0 - j / (max_lag + 1.0)) * (gamma + gamma)
        return S
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
) -> tuple[np.ndarray, MonthlySeries]:
    """AR(p) by OLS with intercept; residuals are the unexpected component.

    sample is a boolean mask with one entry per month of x, such as a
    phase's mask from phase.classify; None keeps every month. Rows are pooled
    across the mask's runs of consecutive months; a row is usable only
    when all its lags stay inside its own run, so no dynamics are
    fabricated across gaps. Residuals come back unstandardized and
    defined only on usable rows.
    """
    if p < 1:
        raise DataError(f"autoregressive order must be >= 1, got {p}")
    coef, resid = _residual_shock(x, p, sample, trend=False, what=f"AR({p})")
    return coef, x.with_values(resid)


def detrended_shock(
    x: MonthlySeries, lags: int, sample: np.ndarray | None = None
) -> MonthlySeries:
    """Residual of x on an intercept, a linear time trend and own lags, over rows as in ar_fit."""
    if lags < 0:
        raise DataError(f"lag count must be >= 0, got {lags}")
    _, resid = _residual_shock(x, lags, sample, trend=True, what="detrended shock")
    return x.with_values(resid)


def standardize(shock: MonthlySeries) -> MonthlySeries:
    """Scale to unit sample variance (ddof=1); the mean is left untouched."""
    vals = shock.values
    mask = ~np.isnan(vals)
    if mask.sum() < 2:
        raise DataError("standardize needs at least two defined values")
    sd = float(np.std(vals[mask], ddof=1))
    if sd == 0.0:
        raise DataError("degenerate shock: zero sample variance")
    return shock.with_values(vals / sd)


@dataclass(frozen=True, eq=False)
class IRFTable:
    """Per-horizon estimates, indexed by h = 0..horizon: beta, its HAC se, and rows n."""

    beta: np.ndarray
    se: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        bad = ~(np.isfinite(self.beta) & np.isfinite(self.se))
        if bad.any():
            raise DataError(f"non-finite beta or se at h={int(np.argmax(bad))}")

    @property
    def horizon(self) -> int:
        return self.beta.size - 1

    def head(self, H: int) -> IRFTable:
        """The estimates for h = 0..H."""
        return IRFTable(self.beta[: H + 1], self.se[: H + 1], self.n[: H + 1])

    def peak(self) -> tuple[float, int]:
        """(max |beta_h| over the table, that h), the smallest h on ties."""
        values = np.abs(self.beta)
        h = int(np.argmax(values))  # the first on ties
        return float(values[h]), h

    def cells(self):
        """One (h, beta, se, ci_low, ci_high, n) tuple per horizon, as IRF_COLUMNS names them."""
        for h, (b, s, n) in enumerate(zip(self.beta.tolist(), self.se.tolist(), self.n.tolist())):
            yield h, b, s, b - CI_MULTIPLIER * s, b + CI_MULTIPLIER * s, n


IRF_COLUMNS = ("h", "beta", "se", "ci_low", "ci_high", "n")


def local_projection(
    y: MonthlySeries,
    shock: MonthlySeries,
    H: int,
    L: int,
    hac_lag: int = 12,
    prefix: IRFTable | None = None,
) -> IRFTable:
    """Horizon-by-horizon projection of y on the shock with lag controls.

    y and the shock cover the same months. For each h in 0..H, regress
    y_{t+h} on an intercept, u_t, L lags of y, and L lags of u over rows
    where all regressors and the outcome exist.
    A phase shock is NaN off its phase, so those rows lie in the phase.
    The reported coefficient is the one on u_t with a Newey-West standard
    error: the Bartlett long-run variance of (x_t . b1) u_t, where b1 is
    row 1 of (X'X)^{-1} from the regression's own SVD. In exact arithmetic
    it equals element [1, 1] of hac_covariance, without forming the k x k
    sandwich. A horizon whose rows are the previous horizon's reuses its
    SVD and x_t . b1, bit for bit; one whose rows are the first m defined
    rows factors a view of them, not a copy. prefix, a table of the same
    inputs for h = 0..H0 with H0 < H, is continued: only h = H0+1..H are
    estimated.

    The shock enters exactly as given; standardize first if unit-shock
    kernels are wanted.
    """
    if H < 0 or L < 0:
        raise DataError("H and L must be nonnegative")
    if y.start != shock.start or len(y) != len(shock):
        raise DataError(
            f"outcome covers {y.start}..{y.end}, the shock {shock.start}..{shock.end}; "
            "they must cover the same months"
        )
    yv, uv = y.values, shock.values
    n = len(yv)

    design = np.column_stack([np.ones(n), uv, _lags(yv, L), _lags(uv, L)])
    defined = np.flatnonzero(~np.isnan(design).any(axis=1))
    design = design[defined]  # the defined rows alone
    y_ok = ~np.isnan(yv)

    beta, se, rows = [], [], []
    if prefix is not None:
        beta, se, rows = list(prefix.beta), list(prefix.se), list(prefix.n)
    t_prev = np.empty(0)  # the rows of the design last factored
    for h in range(len(beta), H + 1):
        m = np.searchsorted(defined, n - h)  # the defined rows t whose t + h is a month
        ok = y_ok[defined[:m] + h]
        t_idx = defined[:m][ok]
        if t_idx.size <= 2 * L + 2:
            raise DataError(
                f"horizon h={h}: only {t_idx.size} usable rows "
                f"(need > {2 * L + 2})"
            )
        outcome = yv[t_idx + h]
        if outcome.min() == outcome.max():
            raise DataError(f"horizon h={h}: outcome has zero variance")
        if not np.array_equal(t_idx, t_prev):
            X = design[:m] if t_idx.size == m else design[np.flatnonzero(ok)]  # first m: a view
            U, s, Vt = _svd(X)
            xb1 = X @ (Vt.T @ (Vt[:, 1] / s**2))
            t_prev = t_idx
        coef = Vt.T @ ((U.T @ outcome) / s)
        z = xb1 * (outcome - X @ coef)
        var = _bartlett(z, hac_lag)
        beta.append(coef[1])
        se.append(np.sqrt(max(var, 0.0)))
        rows.append(t_idx.size)
    return IRFTable(np.array(beta), np.array(se), np.array(rows))


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
    earliest tau and set the tie flag. Values so large that a candidate's
    RSS overflows raise DataError naming the window.
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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        moments = np.cumsum([t, vals, t * t, t * vals, vals * vals], axis=1)
        m = np.arange(min_seg, n - min_seg + 1)  # months in the left segment
        left = moments[:, m - 1]
        rss_l, a1, b1 = _line_rss(*left, m)
        rss_r, a2, b2 = _line_rss(*(moments[:, -1:] - left), n - m)
        rss = rss_l + rss_r
    if not np.isfinite(rss).all():
        raise DataError(f"window {a}..{b}: a two-segment RSS is not finite; values too large")
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
