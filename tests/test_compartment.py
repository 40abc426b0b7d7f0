import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import rk4_compartments
from monephase import compartment, landau
from monephase.compartment import (
    RATE_CAP,
    CompartmentParams,
    CouplingParams,
    calibrate,
    chi,
    cpi_irf,
    phi_irf,
    r_response,
    steady_state_phi,
    x_response,
)
from monephase.econometrics import IRFTable
from monephase.errors import DataError

P = CompartmentParams(A=1.0, B=2.0, delta=0.3, gamma=0.2, eta=0.15)


class TestClosedForms:
    def test_x_initial_condition(self):
        assert x_response(0.0, P) == 2.0

    def test_x_conserved_when_gamma_zero(self):
        p = CompartmentParams(A=1.0, B=2.0, delta=0.3, gamma=0.0, eta=0.1)
        assert x_response(50.0, p) == 2.0

    def test_x_halving(self):
        p = CompartmentParams(A=0.0, B=2.0, delta=0.1, gamma=math.log(2.0), eta=0.0)
        assert x_response(1.0, p) == pytest.approx(1.0, rel=1e-14)

    def test_r_initial_condition(self):
        assert r_response(0.0, P) == pytest.approx(1.0, abs=1e-14)

    def test_r_pure_decay_without_reabsorption(self):
        p = CompartmentParams(A=1.5, B=2.0, delta=0.3, gamma=0.2, eta=0.0)
        h = np.arange(0.0, 40.0)
        assert np.allclose(r_response(h, p), 1.5 * np.exp(-0.3 * h), rtol=1e-14)

    def test_matches_rk4_random_draws(self):
        rng = np.random.default_rng(17)
        for i in range(30):
            A, B = rng.uniform(0, 3, 2)
            delta, gamma = rng.uniform(0.01, 1.0, 2)
            eta = rng.uniform(0, 1)
            if i % 6 == 0:
                gamma = delta + rng.uniform(-1, 1) * 1e-7
            p = CompartmentParams(A=A, B=B, delta=delta, gamma=gamma, eta=eta)
            grid = np.arange(61.0)
            oracle = rk4_compartments(A, B, delta, gamma, eta)
            assert np.max(np.abs(r_response(grid, p) - oracle[:, 0])) < 1e-8
            assert np.max(np.abs(x_response(grid, p) - oracle[:, 1])) < 1e-8

    def test_equal_rates_limit_branch(self):
        p_eq = CompartmentParams(A=1.0, B=1.0, delta=0.25, gamma=0.25, eta=0.3)
        h = np.arange(0.0, 50.0)
        expected = np.exp(-0.25 * h) + 0.3 * h * np.exp(-0.25 * h)
        assert np.allclose(r_response(h, p_eq), expected, rtol=1e-12)

    def test_negative_horizon_rejected(self):
        with pytest.raises(DataError, match="nonnegative"):
            x_response(-1.0, P)
        with pytest.raises(DataError, match="nonnegative"):
            r_response(-0.5, P)

    def test_nonnegative_paths(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            p = CompartmentParams(
                A=rng.uniform(0, 2),
                B=rng.uniform(0, 2),
                delta=rng.uniform(0, 1),
                gamma=rng.uniform(0, 1),
                eta=rng.uniform(0, 1),
            )
            h = np.linspace(0, 80, 200)
            assert (r_response(h, p) >= -1e-12).all()
            assert (x_response(h, p) >= 0).all()


class TestPhiIrf:
    def test_reservoir_only_positive(self):
        p = CompartmentParams(A=1.0, B=0.0, delta=0.2, gamma=0.3, eta=0.1)
        h = np.arange(20.0)
        out = phi_irf(h, p, phi_bar=0.3, kappa=0.5)
        assert np.allclose(out, 0.5 * 0.7 * np.exp(-0.2 * h))
        assert (out > 0).all()

    def test_circulation_only_negative(self):
        p = CompartmentParams(A=0.0, B=1.0, delta=0.2, gamma=0.3, eta=0.0)
        out = phi_irf(np.arange(10.0), p, phi_bar=0.9, kappa=1.0)
        assert (out < 0).all()

    def test_symmetric_cancellation(self):
        p = CompartmentParams(A=1.0, B=1.0, delta=0.2, gamma=0.2, eta=0.0)
        out = phi_irf(np.arange(30.0), p, phi_bar=0.5, kappa=1.0)
        assert np.max(np.abs(out)) < 1e-14

    def test_domain_checks(self):
        with pytest.raises(DataError):
            phi_irf(1.0, P, phi_bar=1.0, kappa=1.0)
        with pytest.raises(DataError):
            phi_irf(1.0, P, phi_bar=0.5, kappa=0.0)


class TestChiAndCpi:
    def test_critical_point_zero(self):
        assert chi(0.231, 0.231) == 0.0

    def test_zero_share(self):
        assert chi(0.0, 0.5) == 1.0

    def test_reference_constants(self):
        value = chi(0.694, 0.231)
        assert value == pytest.approx(1.0 - 0.694 / 0.231, rel=1e-15)
        assert value == pytest.approx(-2.0043, abs=5e-4)

    def test_nonpositive_phi_c_rejected(self):
        with pytest.raises(DataError):
            chi(0.5, 0.0)

    def test_cpi_vanishes_at_critical_point(self):
        c = CouplingParams(s_pi=0.7, phi_c=0.4)
        out = cpi_irf(np.arange(25.0), P, c, phi_bar=0.4)
        assert np.max(np.abs(out)) == 0.0

    def test_sign_flips_across_critical_point(self):
        c = CouplingParams(s_pi=0.7, phi_c=0.4)
        below = cpi_irf(np.arange(25.0), P, c, phi_bar=0.2)
        above = cpi_irf(np.arange(25.0), P, c, phi_bar=0.6)
        assert (below > 0).all()
        assert (above < 0).all()

    def test_direct_product(self):
        p = CompartmentParams(A=0.0, B=1.0, delta=0.5, gamma=1.0, eta=0.0)
        c = CouplingParams(s_pi=1.0, phi_c=0.5)
        # chi(phi_bar) = 0.45 when phi_bar = 0.275 and phi_c = 0.5
        out = cpi_irf(np.arange(5.0), p, c, phi_bar=0.275)
        assert np.allclose(out, 0.45 * np.exp(-np.arange(5.0)), rtol=1e-12)

    def test_uniform_sign_property(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            p = CompartmentParams(
                A=rng.uniform(0, 2), B=rng.uniform(0.1, 2),
                delta=rng.uniform(0.01, 1), gamma=rng.uniform(0.01, 1),
                eta=rng.uniform(0, 1),
            )
            c = CouplingParams(s_pi=rng.choice([-1, 1]) * rng.uniform(0.1, 2),
                               phi_c=rng.uniform(0.05, 0.95))
            phi_bar = rng.uniform(0.01, 0.99)
            out = cpi_irf(np.arange(40.0), p, c, phi_bar)
            expected_sign = np.sign(c.s_pi) * np.sign(chi(phi_bar, c.phi_c))
            assert (np.sign(out) == expected_sign).all() or expected_sign == 0


class TestSteadyState:
    RATES = (0.3, 0.25, 0.1)

    def test_all_circulation_limit(self):
        out = steady_state_phi(-1e3, ctrl=(1.0, 0.0), rates=(0.3, 0.25, 0.0), injection=1.0)
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_all_reservoir_limit(self):
        out = steady_state_phi(1e3, ctrl=(1.0, 0.0), rates=self.RATES, injection=1.0)
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_monotone_sigmoid(self):
        grid = np.linspace(-10, 10, 201)
        vals = [
            steady_state_phi(float(t), ctrl=(1.2, 0.5), rates=self.RATES, injection=2.0)
            for t in grid
        ]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        # reabsorption keeps the low-control floor at eta/(eta+delta)
        floor = self.RATES[2] / (self.RATES[2] + self.RATES[0])
        assert vals[0] == pytest.approx(floor, abs=1e-3)
        assert vals[-1] > 0.95
        assert all(0.0 < v < 1.0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DataError, match="steady state"):
            steady_state_phi(0.0, ctrl=(1.0, 0.0), rates=(0.0, 0.2, 0.1), injection=1.0)
        with pytest.raises(DataError, match="injection"):
            steady_state_phi(0.0, ctrl=(1.0, 0.0), rates=self.RATES, injection=0.0)

    def test_zero_total_gives_zero(self):
        # both stocks underflow to 0: the share is 0, not 0 / 0
        with np.errstate(divide="raise", invalid="raise"):
            out = steady_state_phi(
                np.array([-1.0, 0.0, 1.0]), ctrl=(1.0, 0.0), rates=(4.0, 4.0, 0.0), injection=5e-324
            )
        assert out.tolist() == [0.0, 0.0, 0.0]


MODEL_FUNCTIONS = {  # each of a horizon, a shifted order parameter or an order parameter
    "x_response": lambda h: x_response(h, P),
    "r_response": lambda h: r_response(h, P),
    "phi_irf": lambda h: phi_irf(h, P, 0.4, 1.5),
    "cpi_irf": lambda h: cpi_irf(h, P, CouplingParams(s_pi=0.8, phi_c=0.3), 0.4),
    "free_energy": lambda m: landau.free_energy(m, landau.LandauParams(a=-0.5, b=1.0, h_field=0.1)),
    "susceptibility": lambda phi: landau.susceptibility(phi, 0.3, 0.05),
}


@pytest.mark.parametrize("name", sorted(MODEL_FUNCTIONS))
@given(points=arrays(np.float64, st.integers(1, 30), elements=st.floats(0.0, 400.0)))
@settings(max_examples=60, deadline=None)
def test_scalar_input_gives_the_float_of_its_array_element(name, points):
    f = MODEL_FUNCTIONS[name]
    at_once = f(points)
    for point, element in zip(points.tolist(), at_once):
        value = f(point)
        assert isinstance(value, float)
        assert np.float64(value).tobytes() == element.tobytes()


def exact_table(values, se=1.0):
    beta = np.array(values, dtype=np.float64)
    return IRFTable(beta, np.full(beta.size, se), np.full(beta.size, 100))


CASH_TRUE = CompartmentParams(A=1.5, B=1.0, delta=0.06, gamma=0.04, eta=0.05)
RESERVE_TRUE = CompartmentParams(A=3.0, B=1.0, delta=0.05, gamma=0.045, eta=0.04)
COUPLING_TRUE = CouplingParams(s_pi=0.18, phi_c=0.231)
PHI_BARS = (0.127, 0.694)
PHASE_MEANS = {"cash": PHI_BARS[0], "reserve": PHI_BARS[1]}


def planted_tables(h_max=24):
    h = np.arange(h_max + 1.0)
    return {
        ("cash", "phi"): exact_table(phi_irf(h, CASH_TRUE, PHI_BARS[0], 0.005)),
        ("cash", "pi_core"): exact_table(cpi_irf(h, CASH_TRUE, COUPLING_TRUE, PHI_BARS[0])),
        ("reserve", "phi"): exact_table(phi_irf(h, RESERVE_TRUE, PHI_BARS[1], 0.0065)),
        ("reserve", "pi_core"): exact_table(cpi_irf(h, RESERVE_TRUE, COUPLING_TRUE, PHI_BARS[1])),
    }


class TestCalibrate:
    def test_planted_recovery(self):
        out = calibrate(planted_tables(), PHASE_MEANS)
        assert out.objective < 1e-6
        assert out.coupling.phi_c == pytest.approx(0.231, abs=0.02)
        assert out.ordering_holds()
        assert not out.degenerate

    def test_all_zero_targets_degenerate(self):
        zero = {key: exact_table(np.zeros(25)) for key in planted_tables()}
        out = calibrate(zero, PHASE_MEANS)
        assert out.degenerate

    def test_zero_se_rejected(self):
        t = planted_tables()
        bad = exact_table(np.zeros(25), se=0.0)
        with pytest.raises(DataError, match="standard error"):
            calibrate({**t, ("cash", "phi"): bad}, PHASE_MEANS)

    def test_mismatched_grids_rejected(self):
        t = planted_tables()
        short = planted_tables(h_max=12)
        with pytest.raises(DataError, match="horizon grid"):
            calibrate({**t, ("reserve", "phi"): short[("reserve", "phi")]}, PHASE_MEANS)

    def test_objective_invariant_under_joint_rescale(self):
        # before the B = 1 gauge is imposed, (A, B) -> c (A, B) with
        # kappa -> kappa / c and s_pi -> s_pi / c in both phases leaves the
        # weighted objective unchanged; the gauge then picks one
        # representative from that ray
        t = planted_tables()
        targets = {key: table.beta for key, table in t.items()}
        h = np.arange(25.0)

        def objective(cash_p, cash_k, res_p, res_k, coup):
            total = 0.0
            for label, p, kappa, phi_bar in (
                ("cash", cash_p, cash_k, PHI_BARS[0]),
                ("reserve", res_p, res_k, PHI_BARS[1]),
            ):
                total += float(
                    np.sum((phi_irf(h, p, phi_bar, kappa) - targets[(label, "phi")]) ** 2)
                )
                total += float(
                    np.sum((cpi_irf(h, p, coup, phi_bar) - targets[(label, "pi_core")]) ** 2)
                )
            return total

        # evaluate away from the optimum so the objective is nonzero
        off_coupling = CouplingParams(s_pi=0.25, phi_c=0.3)
        base = objective(CASH_TRUE, 0.007, RESERVE_TRUE, 0.009, off_coupling)
        assert base > 1e-6
        c = 3.1

        def scale(p):
            return CompartmentParams(
                A=c * p.A, B=c * p.B, delta=p.delta, gamma=p.gamma, eta=p.eta
            )

        rescaled = objective(
            scale(CASH_TRUE),
            0.007 / c,
            scale(RESERVE_TRUE),
            0.009 / c,
            CouplingParams(s_pi=off_coupling.s_pi / c, phi_c=off_coupling.phi_c),
        )
        assert rescaled == pytest.approx(base, rel=1e-12)


def assert_inside_box(out):
    # the rates in their box, (u, v) in the closed cone of A, eta >= 0 and kappa > 0
    for fit in (out.cash, out.reserve):
        assert 0.0 <= fit.delta <= RATE_CAP and 0.0 <= fit.gamma <= RATE_CAP
        d = fit.delta - fit.gamma
        assert d > 0 or (fit.v >= 0 and d * fit.u <= fit.v)
    assert 0.01 <= out.coupling.phi_c <= 0.99


def box_lsq(f0, fa, fb, y, hi_a, hi_b):
    """min |f0 + a fa + b fb - y|^2 over a in [0, hi_a], b in [0, hi_b], per row of f0, fa, fb.

    Brute-force oracle: the unconstrained point and the best point on each
    side of the box, of which the best feasible one is the minimum.
    """
    r0 = f0 - y
    saa, sbb, sab = (np.sum(u * v, -1) for u, v in ((fa, fa), (fb, fb), (fa, fb)))
    ra, rb = np.sum(r0 * fa, -1), np.sum(r0 * fb, -1)
    det = saa * sbb - sab**2
    candidates = [((sab * rb - sbb * ra) / det, (sab * ra - saa * rb) / det)]
    for a in (0.0, hi_a):
        candidates.append((np.full_like(ra, a), np.clip(-(rb + a * sab) / sbb, 0.0, hi_b)))
    for b in (0.0, hi_b):
        candidates.append((np.clip(-(ra + b * sab) / saa, 0.0, hi_a), np.full_like(ra, b)))
    best = np.inf
    for a, b in candidates:
        inside = (a >= 0) & (a <= hi_a) & (b >= 0) & (b <= hi_b)
        r = r0 + a[:, None] * fa + b[:, None] * fb
        best = np.minimum(best, np.where(inside, np.sum(r * r, -1), np.inf))
    return best


def dense_grid_objective(targets, phi_bars, rates, h):
    """Unit-se objective minimized over grids of the rates, kappa and phi_c.

    A and eta are exact for each grid point (box_lsq), s_pi is the clipped
    least-squares scale; every model comes from the public closed forms.
    """
    amp_cap = 1e4  # the cap of A, kappa and |s_pi| on these grids
    kappas = np.geomspace(1e-4, amp_cap, 81)[:, None]
    phi = []
    for (y, _), phi_bar in zip(targets, phi_bars):
        best = np.full(len(rates), np.inf)
        for j, gamma in enumerate(rates):
            for delta in rates:
                f0, fa, fb = (
                    phi_irf(h, CompartmentParams(A=a, B=1.0, delta=delta, gamma=gamma, eta=e), phi_bar, 1.0)
                    for a, e in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
                )
                sse = box_lsq(kappas * f0, kappas * (fa - f0), kappas * (fb - f0), y, amp_cap, RATE_CAP)
                best[j] = min(best[j], sse.min())
        phi.append(best)
    x = np.array([x_response(h, CompartmentParams(A=0.0, B=1.0, delta=0.0, gamma=g, eta=0.0)) for g in rates])
    chis = [np.array([chi(phi_bar, c) for c in np.linspace(0.01, 0.99, 197)]) for phi_bar in phi_bars]
    # (gamma_cash, gamma_reserve, phi_c) grids of the price fit
    xy = [(x @ y)[:, None, None] for _, y in targets]
    xx = (x * x).sum(1)
    num = chis[0] * xy[0] + chis[1] * xy[1].transpose(1, 0, 2)
    den = chis[0] ** 2 * xx[:, None, None] + chis[1] ** 2 * xx[None, :, None]
    s_pi = np.clip(num / den, -amp_cap, amp_cap)
    yy = sum(y @ y for _, y in targets)
    price = np.min(yy - 2.0 * s_pi * num + s_pi**2 * den, -1)
    return float(np.min(phi[0][:, None] + phi[1][None, :] + price))


class TestCalibrateConstrained:
    def test_default_economy(self, default_economy):
        tables, phi_bars = default_economy
        out = calibrate(tables, phi_bars)
        assert out.objective <= 63.81370633093803  # a 50-start Nelder-Mead optimum here
        assert_inside_box(out)
        assert abs(out.coupling.phi_c - 0.231) <= 0.05
        assert out.ordering_holds() and out.converged and not out.degenerate
        again = calibrate(tables, phi_bars)
        fields = ("cash", "reserve", "coupling", "objective", "binding", "rate_evaluations")
        assert all(getattr(again, f) == getattr(out, f) for f in fields)

    def test_default_economy_pinned(self, default_economy):
        # seed 1, 612 months: 3 * 65^2 = 12,675 evaluations on the grid and 4,537
        # in the pattern search; a change to the search or its start moves these
        tables, phi_bars = default_economy
        out = calibrate(tables, phi_bars)
        assert out.rate_evaluations == 17212
        assert out.coupling.phi_c == pytest.approx(0.2400894090601472, rel=1e-12, abs=0)
        assert out.objective == pytest.approx(63.78293804245476, rel=1e-12, abs=0)

    def test_infeasible_reduced_form_no_worse_than_dense_grid(self):
        # cash phi = p e^{-delta h} + q e^{-gamma h} with delta < gamma and
        # p < 0, while the cash price response pins gamma: the exact
        # reduced-form fit (v < 0 with delta < gamma) lies outside the feasible cone
        h = np.arange(25.0)
        cash = CompartmentParams(A=1.0, B=1.0, delta=0.02, gamma=0.06, eta=0.0)
        phi_cash = -0.003 * np.exp(-cash.delta * h) + 0.006 * np.exp(-cash.gamma * h)
        targets = [
            (phi_cash, cpi_irf(h, cash, COUPLING_TRUE, PHI_BARS[0])),
            (
                phi_irf(h, RESERVE_TRUE, PHI_BARS[1], 0.0065),
                cpi_irf(h, RESERVE_TRUE, COUPLING_TRUE, PHI_BARS[1]),
            ),
        ]
        out = calibrate(
            {
                (phase, response): exact_table(y)
                for phase, pair in zip(("cash", "reserve"), targets)
                for response, y in zip(("phi", "pi_core"), pair)
            },
            PHASE_MEANS,
        )
        assert_inside_box(out)
        assert out.objective > 1e-9  # the planted reduced form is out of reach
        rates = np.unique(np.concatenate([np.linspace(0.0, 0.2, 41), np.geomspace(0.2, RATE_CAP, 8)]))
        reference = dense_grid_objective(targets, PHI_BARS, rates, h)
        assert out.objective <= reference


def stacked_lsq2(a, b, wy, rays, feasible):
    """_lsq2 as it was written with (u, v) on trailing length-2 axes, reduced by np.sum."""
    G11, G12, G22 = (np.sum(x * y, -1)[:, None] for x, y in ((a, a), (a, b), (b, b)))
    g1, g2 = np.sum(a * wy, -1)[:, None], np.sum(b * wy, -1)[:, None]

    def gmul(t, u0=0.0, v0=0.0):  # G t - (u0, v0)
        u, v = t[..., 0], t[..., 1]
        return np.stack([G11 * u + G12 * v - u0, G12 * u + G22 * v - v0], -1)

    with np.errstate(divide="ignore", invalid="ignore"):
        free = np.stack([G22 * g1 - G12 * g2, G11 * g2 - G12 * g1], -1)
        free /= (G11 * G22 - G12**2)[..., None]
        free[~feasible(free[:, 0, 0], free[:, 0, 1])] = np.nan
    curve = np.sum(rays * gmul(rays), -1)
    t = np.divide(np.sum(rays * np.stack([g1, g2], -1), -1), curve, out=0 * curve, where=curve > 0)
    points = np.concatenate([np.maximum(t, 0.0)[..., None] * rays, free], 1)
    q = np.sum(points * gmul(points, 2.0 * g1, 2.0 * g2), -1)
    k, rows = np.argmin(np.where(np.isnan(q), np.inf, q), 1), np.arange(len(q))
    return points[rows, k], q[rows, k] + wy @ wy


# signed zeros, exact small values and wide magnitudes, whose products overflow
LSQ_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-1e3, 1e3),
    st.floats(-1e200, 1e200),
)


@st.composite
def lsq_problems(draw):
    n, m, s = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    a = draw(arrays(np.float64, (n, m), elements=LSQ_FLOATS))
    b = draw(
        st.sampled_from(["free", "equal", "zero"]).map(
            lambda kind: {"equal": a.copy(), "zero": np.zeros_like(a)}.get(kind)
        )
    )
    if b is None:  # singular Gram matrices above, curvature <= 0 on every ray
        b = draw(arrays(np.float64, (n, m), elements=LSQ_FLOATS))
    wy = draw(arrays(np.float64, m, elements=LSQ_FLOATS))
    rows = draw(st.sampled_from([1, n]))  # rays shared by every row, or one set per row
    rays = draw(arrays(np.float64, (rows, s, 2), elements=LSQ_FLOATS))
    if draw(st.booleans()):  # a zero ray
        rays[:, 0] = 0.0
    bound = draw(LSQ_FLOATS)
    feasible = draw(st.sampled_from([everywhere, nowhere, lambda u, v: u + v <= bound]))
    return a, b, wy, rays, feasible


def everywhere(u, v):
    return np.ones(u.shape, dtype=bool)


def nowhere(u, v):  # no free minimizer is feasible
    return np.zeros(u.shape, dtype=bool)


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@given(lsq_problems())
@example(  # signed zeros in the target and the rays
    (
        np.array([[-1.0]]),
        np.array([[1.0]]),
        np.array([-0.0]),
        np.array([[[1.0, -0.0], [-0.0, 2.0], [-1.0, -0.0]]]),
        everywhere,
    )
)
@settings(max_examples=400, deadline=None)
def test_lsq2_matches_stacked_reference_bit_for_bit(problem):
    with np.errstate(all="ignore"):
        expected, got = stacked_lsq2(*problem), compartment._lsq2(*problem)
    assert got[0].shape == expected[0].shape
    assert bits(got[0]) == bits(expected[0]) and bits(got[1]) == bits(expected[1])


@given(
    A=st.floats(0.0, 1e6),
    eta=st.floats(0.0, 2.0 * RATE_CAP),
    kappa=st.floats(1e-6, 1e8),
    delta=st.floats(0.0, RATE_CAP),
    gamma=st.floats(0.0, RATE_CAP),
    phi_bar=st.floats(0.01, 0.99),
)
@example(A=0.0, eta=0.0, kappa=1e8, delta=0.03, gamma=0.05, phi_bar=0.127)  # on the ray (-1, -d)
@example(A=2e4, eta=8.0, kappa=5e4, delta=0.05, gamma=0.05, phi_bar=0.694)  # beyond the old caps
@settings(max_examples=300, deadline=None)
def test_phi_fits_reach_every_noiseless_kernel(A, eta, kappa, delta, gamma, phi_bar):
    # every A, eta >= 0 and kappa > 0 maps into the cone the fit searches, with no caps
    h = np.arange(25.0)
    p = CompartmentParams(A=A, B=1.0, delta=delta, gamma=gamma, eta=eta)
    y = phi_irf(h, p, phi_bar, kappa)
    _, sse = compartment._phi_fits(np.array([delta]), np.array([gamma]), h, y, np.ones_like(h))
    assert sse[0] <= 1e-12 * (y @ y)


def fit_inputs(tables, phi_bars):
    """The weighted targets calibrate hands _phi_fits and _pi_fits."""
    w = {k: 1.0 / t.se for k, t in tables.items()}
    phi = {p: (w[(p, "phi")] * tables[(p, "phi")].beta, w[(p, "phi")]) for p in phi_bars}
    keys = [(p, "pi_core") for p in phi_bars]
    price = ([w[k] * tables[k].beta for k in keys], [w[k] for k in keys], list(phi_bars.values()))
    return np.arange(tables[("cash", "phi")].horizon + 1.0), phi, price


@pytest.mark.parametrize("economy", ["planted", "default"])
def test_blocked_grid_equals_one_call_per_gamma(economy, request):
    if economy == "planted":
        tables, phi_bars = planted_tables(), PHASE_MEANS
    else:
        tables, phi_bars = request.getfixturevalue("default_economy")
    h, phi, price = fit_inputs(tables, phi_bars)
    grid = compartment.RATE_GRID
    for wy, w in phi.values():
        expected = [compartment._phi_fits(grid, np.full_like(grid, g), h, wy, w)[1] for g in grid]
        blocked = compartment._tabulate(lambda g, d: compartment._phi_fits(d, g, h, wy, w))
        assert bits(blocked) == bits(np.array(expected))
    expected = [compartment._pi_fits((np.full_like(grid, g), grid), h, *price)[1] for g in grid]
    blocked = compartment._tabulate(lambda gc, gr: compartment._pi_fits((gc, gr), h, *price))
    assert bits(blocked) == bits(np.array(expected))


def test_calibrate_working_set_stays_small(default_economy):
    # blocks of GAMMA_BLOCK gammas peak near 0.9 MB here; a call over the
    # whole 65 x 65 grid peaks near 10 MB
    tables, phi_bars = default_economy
    tracemalloc.start()
    try:
        calibrate(tables, phi_bars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
