import decimal
import operator
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import breakpoint_rescan_oracle, hac_double_sum_oracle
from monephase import econometrics as em
from monephase.errors import CollinearityError, DataError
from monephase.series import MonthIndex, MonthlySeries

START = MonthIndex(1970, 1)


def decimal_solve(A, b):
    """x with A x = b, by Gaussian elimination with partial pivoting in the decimal context."""
    n = len(b)
    M = [list(row) + [Decimal(v)] for row, v in zip(A, b)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(M[r][c]))
        M[c], M[p] = M[p], M[c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    x = [Decimal(0)] * n
    for c in reversed(range(n)):
        x[c] = (M[c][n] - sum(M[c][j] * x[j] for j in range(c + 1, n))) / M[c][c]
    return x


def ms(values, start=START):
    return MonthlySeries(start, values)


class TestOls:
    def test_intercept_only_is_mean(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(50)
        fit = em.ols(np.ones((50, 1)), y)
        assert fit.coefficients[0] == pytest.approx(y.mean(), abs=1e-12)

    def test_exact_line(self):
        x = np.linspace(0, 1, 30)
        y = 2.0 + 3.0 * x
        fit = em.ols(np.column_stack([np.ones(30), x]), y)
        assert np.allclose(fit.coefficients, [2.0, 3.0], atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        X = np.column_stack([np.ones(200), rng.standard_normal((200, 3))])
        y = rng.standard_normal(200)
        fit = em.ols(X, y)
        oracle = np.linalg.inv(X.T @ X) @ X.T @ y
        assert np.allclose(fit.coefficients, oracle, atol=1e-8)

    def test_residuals_orthogonal_to_regressors(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(120), rng.standard_normal((120, 4))])
        y = rng.standard_normal(120)
        fit = em.ols(X, y)
        assert np.max(np.abs(X.T @ fit.residuals)) < 1e-8 * np.linalg.norm(y)

    def test_collinear_rejected(self):
        x = np.linspace(0, 1, 40)
        X = np.column_stack([np.ones(40), x, 2.0 * x])
        with pytest.raises(CollinearityError):
            em.ols(X, x)

    def test_underdetermined_rejected(self):
        with pytest.raises(DataError, match="more observations"):
            em.ols(np.ones((3, 3)), np.ones(3))


class TestHac:
    def test_lag_zero_equals_white(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(150), rng.standard_normal((150, 2))])
        u = rng.standard_normal(150)
        V = em.hac_covariance(X, u, 0)
        xu = X * u[:, None]
        bread = np.linalg.inv(X.T @ X)
        white = bread @ (xu.T @ xu) @ bread
        white = (white + white.T) / 2.0
        assert np.array_equal(V, white)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(40, 120))
            k = int(rng.integers(1, 5))
            lag = int(rng.integers(0, 13))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, k))])
            u = rng.standard_normal(n)
            V = em.hac_covariance(X, u, lag)
            oracle = hac_double_sum_oracle(X, u, lag)
            assert np.max(np.abs(V - oracle)) < 1e-10

    def test_iid_close_to_classical(self):
        # homoskedastic iid data: HAC(12) within 15% of textbook OLS SEs
        rng = np.random.default_rng(7)
        n = 2000
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = X @ np.array([1.0, 0.5, -0.25]) + rng.standard_normal(n)
        fit = em.ols(X, y)
        V = em.hac_covariance(X, fit.residuals, 12)
        hac_se = np.sqrt(np.diag(V))
        sigma2 = fit.residuals @ fit.residuals / (n - 3)
        classical = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ X)))
        assert np.all(np.abs(hac_se / classical - 1.0) < 0.15)

    def test_symmetric_nonnegative_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(30, 80))
            X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
            u = rng.standard_normal(n)
            V = em.hac_covariance(X, u, int(rng.integers(0, 12)))
            assert np.array_equal(V, V.T)
            assert np.min(np.diag(V)) >= -1e-12

    def test_lag_too_large(self):
        with pytest.raises(DataError, match="below the sample size"):
            em.hac_covariance(np.ones((10, 1)), np.ones(10), 10)

    @given(st.integers(1, 2500), st.integers(0, 40), st.integers(-30, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_one_series_equals_its_column(self, n, lag, scale, seed):
        # local_projection passes its series 1-D; each lag is then one dot product
        z = np.random.default_rng(seed).standard_normal(n) * 10.0**scale
        lag = min(lag, n - 1)
        one = em._bartlett(z, lag)
        assert np.ndim(one) == 0
        assert np.float64(one).tobytes() == em._bartlett(z[:, None], lag)[0, 0].tobytes()

    def test_one_series_equals_numpy_scalar_reference(self):
        # the 1-D branch runs on Python floats; this is the numpy-scalar loop it replaced
        def reference(z, max_lag):
            S = z.T @ z
            for j in range(1, max_lag + 1):
                w = 1.0 - j / (max_lag + 1.0)
                gamma = z[j:].T @ z[:-j]
                S = S + w * (gamma + gamma.T)
            return S

        rng = np.random.default_rng(19)
        for _ in range(2000):
            n, lag = int(rng.integers(20, 2301)), int(rng.integers(0, 19))
            z = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0)
            one = em._bartlett(z, lag)
            assert type(one) is float
            assert np.float64(one).tobytes() == reference(z, lag).tobytes()

    def test_one_series_keeps_the_checks(self):
        with pytest.raises(DataError, match="below the sample size"):
            em._bartlett(np.ones(10), 10)
        with pytest.raises(DataError, match="nonnegative"):
            em._bartlett(np.ones(10), -1)


class TestArFit:
    def test_recovers_ar1_coefficient(self):
        rng = np.random.default_rng(5)
        T = 2000
        x = np.zeros(T)
        for t in range(1, T):
            x[t] = 0.5 * x[t - 1] + rng.standard_normal()
        coef, shock = em.ar_fit(ms(x), 1)
        assert coef[1] == pytest.approx(0.5, abs=0.05)

    def test_deterministic_recursion_zero_residuals(self):
        x = np.arange(1.0, 101.0)  # x_t = x_{t-1} + 1
        _, shock = em.ar_fit(ms(x), 1)
        resid = shock.values
        assert np.nanmax(np.abs(resid)) < 1e-10

    def test_white_noise_ar12(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5000)
        coef, shock = em.ar_fit(ms(x), 12)
        assert np.max(np.abs(coef[1:])) < 0.05
        resid = shock.values
        assert np.nanvar(resid, ddof=1) == pytest.approx(1.0, abs=0.1)

    def test_residuals_only_on_usable_rows(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal(100)
        mask = np.zeros(100, dtype=bool)
        mask[10:41] = mask[60:] = True
        _, shock = em.ar_fit(ms(x), 3, mask)
        vals = shock.values
        assert np.isnan(vals[:13]).all()  # first 3 rows of run 1 are lags
        assert not np.isnan(vals[13:41]).any()
        assert np.isnan(vals[41:63]).all()
        assert not np.isnan(vals[63:]).any()

    def test_rows_never_span_gap(self):
        # a huge level jump across the gap never enters any regression row,
        # so the fitted dynamics look like the plain AR(1) of both halves
        rng = np.random.default_rng(31)
        half = np.zeros(50)
        for t in range(1, 50):
            half[t] = 0.5 * half[t - 1] + rng.standard_normal()
        x = np.concatenate([half, 1e6 + half])
        mask = np.arange(100) != 50  # the first month after the jump is the gap
        coef, shock = em.ar_fit(ms(x), 1, mask)
        assert np.nanmax(np.abs(shock.values)) < 10.0
        assert abs(coef[1]) < 1.5

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="too few usable rows"):
            em.ar_fit(ms(np.arange(10.0)), 8)


class TestStandardize:
    def test_two_point(self):
        out = em.standardize(ms([-1.0, 1.0]))
        sd = np.std([-1.0, 1.0], ddof=1)
        assert np.allclose(out.values, [-1.0 / sd, 1.0 / sd])

    def test_unit_variance_untouched(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(500)
        v = v / v.std(ddof=1)
        out = em.standardize(ms(v))
        assert np.allclose(out.values, v, atol=1e-12)

    def test_output_variance_is_one(self):
        rng = np.random.default_rng(1)
        v = 3.0 + 5.0 * rng.standard_normal(200)
        out = em.standardize(ms(v))
        assert np.var(out.values, ddof=1) == pytest.approx(1.0, abs=1e-10)
        # mean is scaled, not removed
        assert out.values.mean() != pytest.approx(0.0, abs=1e-3)

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError, match="degenerate"):
            em.standardize(ms([2.0, 2.0, 2.0]))


class TestLocalProjection:
    def test_planted_spike_exact_within_support(self):
        # y_{t+2} = 0.7 u_t exactly; with L = 2 every horizon 0..2 is spanned
        rng = np.random.default_rng(4)
        T = 400
        u = rng.standard_normal(T)
        y = np.zeros(T)
        y[2:] = 0.7 * u[:-2]
        tbl = em.local_projection(
            ms(y), ms(u), H=2, L=2, hac_lag=2
        )
        beta = tbl.beta
        assert abs(beta[0]) < 1e-8 and abs(beta[1]) < 1e-8
        assert beta[2] == pytest.approx(0.7, abs=1e-8)

    def test_zero_outcome_rejected(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal(200)
        with pytest.raises(DataError, match="zero variance"):
            em.local_projection(
                ms(np.zeros(200)), ms(u), H=2, L=2, hac_lag=2
            )

    def test_insufficient_sample_names_horizon(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal(30)
        y = rng.standard_normal(30)
        with pytest.raises(DataError, match="h=0"):
            em.local_projection(
                ms(y), ms(u), H=4, L=12, hac_lag=2
            )

    def test_bilinearity_in_shock_scale(self):
        rng = np.random.default_rng(10)
        T = 300
        u = rng.standard_normal(T)
        y = np.convolve(u, [0.3, 0.2])[:T] + rng.normal(0, 0.1, T)
        base = em.local_projection(
            ms(y), ms(u), H=4, L=3, hac_lag=3
        )
        c = 3.7
        scaled = em.local_projection(
            ms(y), ms(c * u), H=4, L=3, hac_lag=3
        )
        assert np.allclose(scaled.beta, base.beta / c, atol=1e-10)

    def test_white_noise_size_pooled(self):
        inside = total = 0
        for rep in range(25):
            rng = np.random.default_rng(2000 + rep)
            u = rng.standard_normal(2400)
            y = rng.standard_normal(2400)
            tbl = em.local_projection(
                ms(y), ms(u), H=12, L=12, hac_lag=12
            )
            inside += int(np.sum(np.abs(tbl.beta) < 2.0 * tbl.se))
            total += 13
        assert inside / total >= 0.95

    def test_sample_predicate_restricts_rows(self):
        rng = np.random.default_rng(12)
        T = 400
        u = rng.standard_normal(T)
        y = np.convolve(u, [0.5])[:T] + rng.normal(0, 0.1, T)
        u[:200] = np.nan  # a shock estimated on months 200.. only
        tbl = em.local_projection(
            ms(y),
            ms(u),
            H=1,
            L=2,
            hac_lag=2,
        )
        assert tbl.n[0] <= 200

    def test_misaligned_shock_rejected(self):
        rng = np.random.default_rng(13)
        y, u = rng.standard_normal((2, 200))
        for shock in (ms(u, START + 1), ms(u[:-1])):
            with pytest.raises(DataError, match="must cover the same months"):
                em.local_projection(ms(y), shock, H=1, L=2, hac_lag=2)

    def test_never_calls_hac_covariance(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("local_projection formed the k x k sandwich")

        monkeypatch.setattr(em, "hac_covariance", forbidden)
        rng = np.random.default_rng(14)
        u, y = rng.standard_normal((2, 200))
        tbl = em.local_projection(ms(y), ms(u), H=3, L=4, hac_lag=6)
        assert np.all(tbl.se > 0.0)

    def test_se_matches_high_precision_sandwich(self):
        # a persistent level with 12 own lags, like phi within a phase: cond(X) > 1e3,
        # where inverting X'X a second time loses about 1e-12 of the se; the oracle
        # works in 40-digit decimals
        rng = np.random.default_rng(0)
        n, L, hac_lag = 125, 12, 12
        e, u = rng.standard_normal((2, n))
        y = np.empty(n)
        y[0] = 0.4
        for t in range(1, n):
            y[t] = 0.4 + 0.97 * (y[t - 1] - 0.4) + 0.002 * e[t]
        tbl = em.local_projection(ms(y), ms(u), H=1, L=L, hac_lag=hac_lag)
        design = np.column_stack([np.ones(n), u, em._lags(y, L), em._lags(u, L)])
        for h, (se_h, n_h) in enumerate(zip(tbl.se, tbl.n)):
            X = design[L : n - h]
            assert np.linalg.cond(X) > 1e3
            with decimal.localcontext() as context:
                context.prec = 40
                Xd = [[Decimal(v) for v in row] for row in X.tolist()]
                yd = [Decimal(v) for v in y[L + h :].tolist()]
                k = len(Xd[0])
                XtX = [[sum(r[i] * r[j] for r in Xd) for j in range(k)] for i in range(k)]
                fit = decimal_solve(XtX, [sum(r[i] * v for r, v in zip(Xd, yd)) for i in range(k)])
                resid = [v - sum(map(operator.mul, r, fit)) for r, v in zip(Xd, yd)]
                # [bread S bread]_{11} = b1' S b1 with b1 = bread e1, expanded
                # over the Bartlett lags of z_t = (x_t . b1) u_t
                b1 = decimal_solve(XtX, [0, 1] + [0] * (k - 2))
                z = [sum(map(operator.mul, r, b1)) * ut for r, ut in zip(Xd, resid)]
                var = sum(v * v for v in z)
                for j in range(1, hac_lag + 1):
                    w = 1 - Decimal(j) / (hac_lag + 1)
                    var += 2 * w * sum(z[t] * z[t - j] for t in range(j, len(z)))
                se = float(var.sqrt())
            assert n_h == X.shape[0]
            assert se_h == pytest.approx(se, rel=1e-12, abs=0.0)

    @staticmethod
    def phase_like(to_end):
        """y and a shock defined on months 100..239 of 300, as in the cash phase, or on
        months 100..299, as in a reserve phase that runs to the series end."""
        rng = np.random.default_rng(15)
        n = 300
        u, e = rng.standard_normal((2, n))
        y = np.convolve(u, [0.5, 0.3, 0.1])[:n] + 0.2 * e
        mask = np.zeros(n, dtype=bool)
        mask[100 : n if to_end else 240] = True
        return ms(y), ms(np.where(mask, u, np.nan))

    @pytest.mark.parametrize("to_end", [False, True])
    def test_matches_per_horizon_ols_bit_for_bit(self, to_end):
        # horizons that share their rows share one SVD; the numbers are a fresh ols's
        y, shock = self.phase_like(to_end)
        H, L, hac_lag = 8, 3, 4
        tbl = em.local_projection(y, shock, H, L, hac_lag)
        yv, uv = y.values, shock.values
        design = np.column_stack([np.ones(yv.size), uv, em._lags(yv, L), em._lags(uv, L)])
        defined = np.flatnonzero(~np.isnan(design).any(axis=1))
        beta, se = [], []
        for h in range(H + 1):
            rows = defined[defined + h < yv.size]
            X = design[rows]
            fit = em.ols(X, yv[rows + h])
            _, s, Vt = np.linalg.svd(X, full_matrices=False)
            z = (X @ (Vt.T @ (Vt[:, 1] / s**2))) * fit.residuals
            beta.append(fit.coefficients[1])
            se.append(np.sqrt(em._bartlett(z[:, None], hac_lag)[0, 0]))
        assert np.array_equal(tbl.beta, beta) and np.array_equal(tbl.se, se)
        continued = em.local_projection(y, shock, H, L, hac_lag, prefix=tbl.head(3))
        for column in ("beta", "se", "n"):
            assert np.array_equal(getattr(continued, column), getattr(tbl, column))

    @pytest.mark.parametrize("to_end, factorizations, continued", [(False, 1, 1), (True, 9, 5)])
    def test_one_svd_per_distinct_row_set(self, monkeypatch, to_end, factorizations, continued):
        y, shock = self.phase_like(to_end)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        tbl = em.local_projection(y, shock, H=8, L=3, hac_lag=4)
        assert len(calls) == factorizations == len(set(tbl.n.tolist()))
        calls.clear()  # continuing h = 0..3 factors only the designs of h = 4..8
        em.local_projection(y, shock, H=8, L=3, hac_lag=4, prefix=tbl.head(3))
        assert len(calls) == continued


def reference_rows(x, positions, p):
    """Rows whose own value and p lags are finite and inside one run, row by row."""
    rows = []
    for a, b in positions:
        for t in range(a + p, b + 1):
            if not np.isnan(x[t - p : t + 1]).any():
                rows.append(t)
    return np.asarray(rows, dtype=int)


def reference_shock(x, p, positions, trend):
    """Coefficients and residuals of the per-row shock regression, or None if too few rows."""
    rows = reference_rows(x, positions, p)
    cols = [np.ones(rows.size)] + ([rows.astype(np.float64)] if trend else [])
    cols += [x[rows - lag] for lag in range(1, p + 1)]
    if rows.size <= len(cols):
        return None
    fit = em.ols(np.column_stack(cols), x[rows])
    resid = np.full_like(x, np.nan)
    resid[rows] = fit.residuals
    return fit.coefficients, resid


def reference_lp(y, u, H, L, hac_lag):
    """(beta, se, n) per horizon from rows picked one by one, or None if a horizon is short."""
    out = []
    for h in range(H + 1):
        rows = np.asarray(
            [
                t
                for t in range(L, len(y) - h)
                if not np.isnan(y[t - L : t]).any()
                and not np.isnan(u[t - L : t + 1]).any()
                and not np.isnan(y[t + h])
            ],
            dtype=int,
        )
        if rows.size <= 2 * L + 2:
            return None
        cols = [np.ones(rows.size), u[rows]]
        cols += [y[rows - lag] for lag in range(1, L + 1)]
        cols += [u[rows - lag] for lag in range(1, L + 1)]
        X = np.column_stack(cols)
        fit = em.ols(X, y[rows + h])
        cov = em.hac_covariance(X, fit.residuals, hac_lag)
        se = float(np.sqrt(max(cov[1, 1], 0.0)))
        out.append((float(fit.coefficients[1]), se, rows.size))
    return out


def random_segments(rng, n):
    """Sorted, non-overlapping positions; some adjacent, some separated by gaps."""
    out, t = [], 0
    while True:
        a = t + int(rng.integers(0, 6))
        b = min(a + int(rng.integers(0, 60)), n - 1)
        if a >= n:
            return out
        out.append((a, b))
        t = b + 1


def mask_runs(mask):
    """(first, last) positions of the maximal runs of True, found month by month."""
    runs = []
    for t, inside in enumerate(mask):
        if inside and t > 0 and mask[t - 1]:
            runs[-1] = (runs[-1][0], t)
        elif inside:
            runs.append((t, t))
    return runs


def with_nans(rng, n, rate):
    x = rng.standard_normal(n)
    x[rng.random(n) < rate] = np.nan
    return x


class TestLaggedDesign:
    """The shock and LP design equals a per-row selection of the same rows."""

    @pytest.mark.parametrize("trend", [False, True])
    def test_shock_matches_per_row_reference(self, trend):
        rng = np.random.default_rng(40 + trend)
        for _ in range(40):
            n = int(rng.integers(40, 200))
            x = with_nans(rng, n, float(rng.choice([0.0, 0.02, 0.1])))
            p = int(rng.integers(0 if trend else 1, 6))
            if rng.random() < 0.2:
                mask, runs = None, [(0, n - 1)]
            else:
                # adjacent segments draw one longer run of the mask
                mask = np.zeros(n, dtype=bool)
                for a, b in random_segments(rng, n):
                    mask[a : b + 1] = True
                runs = mask_runs(mask)
            expected = reference_shock(x, p, runs, trend)
            fit = em.detrended_shock if trend else em.ar_fit
            if expected is None:
                with pytest.raises(DataError, match="too few usable rows"):
                    fit(ms(x), p, mask)
                continue
            shock = fit(ms(x), p, mask)
            if not trend:
                coef, shock = shock
                assert np.array_equal(coef, expected[0])
            assert np.array_equal(shock.values, expected[1], equal_nan=True)

    def test_local_projection_matches_per_row_reference(self):
        rng = np.random.default_rng(50)
        checked = 0
        for _ in range(30):
            n = int(rng.integers(120, 260))
            y = with_nans(rng, n, float(rng.choice([0.0, 0.02, 0.05])))
            u = with_nans(rng, n, float(rng.choice([0.0, 0.05, 0.2])))
            H, L = int(rng.integers(0, 7)), int(rng.integers(0, 5))
            hac_lag = int(rng.integers(0, 6))
            expected = reference_lp(y, u, H, L, hac_lag)
            args = (ms(y), ms(u), H, L, hac_lag)
            if expected is None:
                with pytest.raises(DataError, match="usable rows"):
                    em.local_projection(*args)
                continue
            tbl = em.local_projection(*args)
            # beta and n come from the same ols call; se takes the scalar
            # Bartlett path instead of the k x k sandwich
            assert list(zip(tbl.beta, tbl.n)) == [(b, n) for b, _, n in expected]
            for se_h, (_, se, _) in zip(tbl.se, expected):
                assert se_h == pytest.approx(se, rel=1e-13, abs=0.0)
            checked += 1
        assert checked >= 20

    def test_adjacent_mask_runs_pooled_as_one_run(self):
        # months 5..49 and 50..119 form one run: rows 50..52 keep their lags
        rng = np.random.default_rng(60)
        x = rng.standard_normal(120)
        mask = np.zeros(120, dtype=bool)
        mask[5:50] = True
        mask[50:] = True
        coef, shock = em.ar_fit(ms(x), 3, mask)
        coef_tail, shock_tail = em.ar_fit(ms(x[5:], START + 5), 3)
        assert np.array_equal(coef, coef_tail)
        assert shock.restrict(START + 5, START + 119) == shock_tail
        assert np.isnan(shock.values[:8]).all()

    @pytest.mark.parametrize("trend", [False, True])
    def test_wrong_length_mask_rejected(self, trend):
        x = ms(np.random.default_rng(61).standard_normal(100))
        mask = np.ones(99, dtype=bool)
        with pytest.raises(DataError, match="sample mask has 99 entries, the series 100 months"):
            em.detrended_shock(x, 2, mask) if trend else em.ar_fit(x, 2, mask)


class TestIrfTable:
    def make(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(300)
        y = np.convolve(u, [0.4, 0.1])[:300] + rng.normal(0, 0.2, 300)
        return em.local_projection(
            ms(y),
            ms(u),
            H=6,
            L=3,
            hac_lag=6,
        )

    def test_ci_identity_holds(self):
        tbl = self.make()
        for _, beta, se, ci_low, ci_high, _ in tbl.cells():
            assert ci_low == pytest.approx(beta - 1.96 * se, abs=1e-12)
            assert ci_high == pytest.approx(beta + 1.96 * se, abs=1e-12)

    @pytest.mark.parametrize(
        "beta, se, message",
        [
            (np.nan, 1.0, "non-finite beta or se at h=0"),
            (0.0, np.nan, "non-finite beta or se at h=0"),
            (np.inf, 1.0, "non-finite beta or se at h=0"),
        ],
    )
    def test_non_finite_cells_rejected(self, beta, se, message):
        with pytest.raises(DataError, match=message):
            em.IRFTable(np.array([beta]), np.array([se]), np.array([10]))


class TestBreakpoint:
    def test_planted_break_found_exactly(self):
        # flat then a discontinuous rising line: the break month is unique
        y = np.concatenate([np.full(60, 5.0), 50.0 + 0.5 * np.arange(60.0)])
        res = em.breakpoint(ms(y), (START, START + 119))
        assert res.tau == START + 59
        assert res.rss < 1e-18
        assert not res.tie

    def test_continuous_hinge_ties_at_kink(self):
        # for a continuous kink the joint month lies on both lines, so the
        # two adjacent breakpoints fit exactly; earliest wins, tie flagged
        y = np.concatenate([np.full(60, 5.0), 5.0 + np.arange(1.0, 61.0)])
        res = em.breakpoint(ms(y), (START, START + 119))
        assert res.tau == START + 58
        assert res.tie

    def test_pure_line_ties_earliest(self):
        y = 2.0 + 0.3 * np.arange(120.0)
        res = em.breakpoint(ms(y), (START, START + 119))
        assert res.tie
        assert res.tau == START + 23  # earliest admissible

    def test_matches_rescan_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(60, 160))
            y = np.cumsum(rng.standard_normal(n)) + 0.05 * np.arange(n)
            res = em.breakpoint(ms(y), (START, START + n - 1))
            c_oracle, rss_oracle = breakpoint_rescan_oracle(y)
            assert res.tau - START == c_oracle
            assert res.rss == pytest.approx(rss_oracle, rel=1e-8, abs=1e-8)
        # one month above the shortest admissible window leaves two candidates
        for min_seg in (1, 6):
            n = 2 * min_seg + 1
            y = np.cumsum(rng.standard_normal(n))
            res = em.breakpoint(ms(y), (START, START + n - 1), min_seg=min_seg)
            c_oracle, rss_oracle = breakpoint_rescan_oracle(y, min_seg=min_seg)
            assert res.rss == pytest.approx(rss_oracle, rel=1e-8, abs=1e-8)
            if min_seg == 1:  # lines through one and two months fit exactly: a tie
                assert res.tie and res.tau == START
            else:
                assert not res.tie and res.tau - START == c_oracle

    def test_bit_identical_to_per_candidate_scan(self):
        # the batched scan does the same elementwise IEEE operations as this
        # per-candidate loop over cumulative moments, so results match exactly
        def line(sx, sy, sxx, sxy, syy, m):
            det = m * sxx - sx * sx
            if det <= 0.0:
                return max(syy - sy * sy / m, 0.0), sy / m, 0.0
            slope = (m * sxy - sx * sy) / det
            intercept = (sy - slope * sx) / m
            return max(syy - intercept * sy - slope * sxy, 0.0), intercept, slope

        rng = np.random.default_rng(16)
        ties = 0
        for trial in range(60):
            min_seg = int(rng.integers(1, 12))
            n = 2 * min_seg + 1 + int(rng.integers(0, 40))
            t = np.arange(n, dtype=np.float64)
            # exact lines round to tiny negative RSS, which both clamp to 0
            noise = rng.standard_normal(n)
            y = (noise, np.round(noise, 1), 0.1 + 0.3 * t)[trial % 3]
            cum = np.cumsum([t, y, t * t, t * y, y * y], axis=1)
            scan = []
            for c in range(min_seg - 1, n - min_seg):
                rss_l, a1, b1 = line(*cum[:, c], c + 1)
                rss_r, a2, b2 = line(*(cum[:, -1] - cum[:, c]), n - c - 1)
                scan.append((rss_l + rss_r, c, (a1, b1, a2, b2)))
            rss_min = min(entry[0] for entry in scan)
            near = [e for e in scan if e[0] <= rss_min + em.TIE_TOLERANCE * (1.0 + rss_min)]
            res = em.breakpoint(ms(y), (START, START + n - 1), min_seg=min_seg)
            assert res.tau - START == near[0][1]
            assert res.rss == near[0][0] and res.segment_fits == near[0][2]
            assert res.tie == (len(near) > 1)
            ties += res.tie
        assert ties > 0

    def test_rss_is_minimal_over_full_scan(self):
        rng = np.random.default_rng(14)
        n = 100
        y = rng.standard_normal(n)
        res = em.breakpoint(ms(y), (START, START + n - 1))
        _, rss_oracle = breakpoint_rescan_oracle(y)
        assert res.rss <= rss_oracle + 1e-9

    def test_window_too_short(self):
        with pytest.raises(DataError, match="has 47 months, needs at least 48"):
            em.breakpoint(ms(np.arange(47.0)), (START, START + 46))
        # n = 2 min_seg admits exactly one split, both segments at min_seg months
        y = np.cumsum(np.random.default_rng(15).standard_normal(48))
        res = em.breakpoint(ms(y), (START, START + 47))
        c_oracle, rss_oracle = breakpoint_rescan_oracle(y)
        assert res.tau == START + 23 == START + c_oracle
        assert res.rss == pytest.approx(rss_oracle, rel=1e-8, abs=1e-8)
        assert not res.tie

    @pytest.mark.parametrize("min_seg", [0, -3])
    def test_min_seg_below_one_rejected(self, min_seg):
        with pytest.raises(DataError, match="at least 1 month"):
            em.breakpoint(ms(np.arange(60.0)), (START, START + 59), min_seg=min_seg)

    def test_missing_in_window_rejected(self):
        y = [1.0] * 60
        y[30] = None
        with pytest.raises(DataError, match="missing"):
            em.breakpoint(ms(y), (START, START + 59))


class TestDetrendedShock:
    def test_pure_trend_absorbed(self):
        x = 3.0 + 0.1 * np.arange(200.0)
        shock = em.detrended_shock(ms(x), 0)
        assert np.nanmax(np.abs(shock.values)) < 1e-10

    def test_variance_reduced_on_trended_ar(self):
        rng = np.random.default_rng(15)
        T = 600
        x = np.zeros(T)
        for t in range(1, T):
            x[t] = 0.6 * x[t - 1] + rng.standard_normal()
        x = x + 0.05 * np.arange(T)
        shock = em.detrended_shock(ms(x), 1)
        assert np.nanvar(shock.values) < np.var(x)

    def test_close_to_ar_fit_when_no_trend(self):
        rng = np.random.default_rng(16)
        T = 1500
        x = np.zeros(T)
        for t in range(1, T):
            x[t] = 0.4 * x[t - 1] + rng.standard_normal()
        _, ar_shock = em.ar_fit(ms(x), 12)
        de_shock = em.detrended_shock(ms(x), 12)
        a = ar_shock.values
        d = de_shock.values
        mask = ~np.isnan(a) & ~np.isnan(d)
        sd = np.std(a[mask])
        assert np.max(np.abs(a[mask] - d[mask])) < 2.0 * sd
