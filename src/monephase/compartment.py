"""Two-compartment impulse dynamics and their calibration to empirical IRFs.

A unit policy impulse at h = 0 deposits A into a reservation reservoir R
and B into a circulation-coupled pool X. X decays at rate gamma, R
relaxes at rate delta and reabsorbs a share eta of the circulation flow:

    dR/dh = -delta * R + eta * X        R(0+) = A
    dX/dh = -gamma * X                  X(0+) = B

which integrates in closed form. The order-parameter response is the
linearized share change around a phase mean, and consumer prices couple
to X through chi(phi_bar) = 1 - phi_bar / phi_c, changing sign at the
critical point phi_c.

Calibration note: the observable IRFs pin the product structure of the
amplitudes only. Jointly rescaling (A, B) -> c(A, B) with kappa -> kappa/c
in one phase and moving (s_pi, phi_c) to compensate leaves every model
IRF unchanged, so B is fixed to 1 in *both* phases as the gauge choice;
phi_c is then identified by the ratio of the two price-response
amplitudes. Within a phase, A, eta and kappa enter the order-parameter
response only through two coefficients (u, v), so the calibration fits
and reports that reduced form: (u, v, delta, gamma) per phase, over the
cone that A, eta >= 0 and kappa > 0 map to, with no amplitude caps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .econometrics import IRFTable
from .errors import DataError


@dataclass(frozen=True)
class CompartmentParams:
    """Impulse shares and relaxation rates; all per-month rates."""

    A: float
    B: float
    delta: float
    gamma: float
    eta: float

    def __post_init__(self):
        if self.A < 0 or self.B < 0:
            raise DataError("impulse shares A, B must be nonnegative")
        if self.delta < 0 or self.gamma < 0 or self.eta < 0:
            raise DataError("rates delta, gamma, eta must be nonnegative")
        if self.A + self.B <= 0:
            raise DataError("impulse must be nonzero: A + B > 0")


@dataclass(frozen=True)
class CouplingParams:
    """Price coupling scale and the critical order parameter."""

    s_pi: float
    phi_c: float

    def __post_init__(self):
        if not 0.0 < self.phi_c < 1.0:
            raise DataError(f"phi_c must lie in (0, 1), got {self.phi_c}")
        if not np.isfinite(self.s_pi):
            raise DataError("s_pi must be finite")


def _check_h(h):
    arr = np.asarray(h, dtype=np.float64)
    if (arr < 0).any():
        raise DataError("horizon must be nonnegative")
    return arr


def x_response(h, p: CompartmentParams):
    """Circulation pool after a unit impulse: X(h) = B * exp(-gamma h)."""
    arr = _check_h(h)
    return p.B * np.exp(-p.gamma * arr)


def _phi1(x):
    """(e^x - 1) / x with the removable singularity filled; uniformly accurate."""
    x = np.asarray(x, dtype=np.float64)
    out = np.ones_like(x)
    nz = x != 0.0
    out[nz] = np.expm1(x[nz]) / x[nz]
    return out


def r_response(h, p: CompartmentParams):
    """Reservoir after a unit impulse.

    R(h) = A e^{-delta h} + eta B (e^{-gamma h} - e^{-delta h}) / (delta - gamma).
    The difference quotient is evaluated as h e^{-delta h} expm1((delta-gamma) h)
    / ((delta-gamma) h), which is exact in the delta == gamma limit and loses
    no precision when the rates nearly coincide.
    """
    arr = _check_h(h)
    decay = np.exp(-p.delta * arr)
    mixed = p.eta * p.B * arr * decay * _phi1((p.delta - p.gamma) * arr)
    return p.A * decay + mixed


def phi_irf(h, p: CompartmentParams, phi_bar: float, kappa: float):
    """Linearized order-parameter response around the phase mean phi_bar."""
    if not 0.0 < phi_bar < 1.0:
        raise DataError(f"phi_bar must lie in (0, 1), got {phi_bar}")
    if kappa <= 0:
        raise DataError(f"kappa must be positive, got {kappa}")
    return kappa * ((1.0 - phi_bar) * r_response(h, p) - phi_bar * x_response(h, p))


def chi(phi_bar: float, phi_c: float) -> float:
    """Effective price coupling 1 - phi_bar / phi_c; positive below phi_c."""
    if phi_c <= 0:
        raise DataError(f"phi_c must be positive, got {phi_c}")
    return 1.0 - phi_bar / phi_c


def cpi_irf(h, p: CompartmentParams, c: CouplingParams, phi_bar: float):
    """Price response s_pi * chi(phi_bar) * X(h); vanishes at the critical point."""
    return c.s_pi * chi(phi_bar, c.phi_c) * x_response(h, p)


def steady_state_phi(
    theta,
    ctrl: tuple[float, float],
    rates: tuple[float, float, float],
    injection: float,
):
    """Steady-state order parameter at the control theta, a number or an array,
    under a logistic reservoir-absorption law.

    A constant inflow I is split a(theta) into R and 1 - a(theta) into X,
    where a follows a logistic in the control theta. Balancing flows:

        X* = (1 - a) I / gamma
        R* = (a I + eta X*) / delta
        phi* = R* / (R* + X*)

    phi* rises monotonically from 0 to 1 as theta sweeps the control
    axis, which is the sigmoidal steady-state transition.
    """
    lam, theta_c = ctrl
    delta, gamma, eta = rates
    if injection <= 0:
        raise DataError("injection must be positive")
    if gamma == 0 or delta == 0:
        raise DataError("no steady state: gamma and delta must be nonzero")
    if delta < 0 or gamma < 0 or eta < 0:
        raise DataError("rates must be nonnegative")
    # tanh form of the logistic; immune to exp overflow at extreme controls
    a = 0.5 * (1.0 + np.tanh(0.5 * lam * (theta - theta_c)))
    x_star = (1.0 - a) * injection / gamma
    r_star = (a * injection + eta * x_star) / delta
    total = r_star + x_star  # of two nonnegative parts: where it is 0, r* is 0 and so is phi*
    return r_star / np.where(total == 0.0, 1.0, total)


@dataclass(frozen=True)
class PhaseFit:
    """One phase's identified reduced form: the order-parameter response
    u c1 + v c2 of `_phi_fits` at the rates delta, gamma, around the phase mean phi_bar."""

    u: float
    v: float
    delta: float
    gamma: float
    phi_bar: float

    def phi_response(self, h):
        """The fitted order-parameter response at the horizons h."""
        c1, c2 = _basis(self.delta, self.gamma, _check_h(h))
        return self.u * c1 + self.v * c2


@dataclass(frozen=True)
class CalibrationResult:
    cash: PhaseFit
    reserve: PhaseFit
    coupling: CouplingParams
    objective: float
    residuals: dict = field(default_factory=dict)
    converged: bool = True
    degenerate: bool = False
    binding: tuple[str, ...] = ()  # "name=value" of each parameter on a bound
    rate_evaluations: int = 0

    def ordering_holds(self) -> bool:
        return self.cash.phi_bar < self.coupling.phi_c < self.reserve.phi_bar


# the rate box; generous relative to any monthly IRF scale
RATE_CAP = 5.0
PHI_C_MIN, PHI_C_MAX = 0.01, 0.99
# outer grid of each relaxation rate: zero, then steps of about 14 % up to the cap
RATE_GRID = np.concatenate(([0.0], np.geomspace(1e-3, RATE_CAP, 64)))
GAMMA_BLOCK = 5  # gammas of RATE_GRID per call as it is tabulated; each row is computed alone
# (s_pi, s_pi / phi_c) = s_pi (1, 1 / phi_c) for phi_c in [PHI_C_MIN, PHI_C_MAX] and s_pi of
# either sign: the double cone bounded by these four rays
_PI_RAYS = np.array([[[s, s / phi_c] for s in (1.0, -1.0) for phi_c in (PHI_C_MAX, PHI_C_MIN)]])


def _lsq2(a, b, wy, rays, feasible):
    """Minimize |wy - u a - v b|^2 over a convex cone of (u, v) for columns a, b (N, H).

    The rays (N or 1, S, 2) from the origin lie in the closed cone and bound
    it, and `feasible(u, v)` tests membership. The best of the unconstrained
    minimizer, if feasible, and of each ray's minimizer t r, t >= 0, is the
    exact minimum (ties to the first). Returns (u, v) (N, 2) and the sum of
    squares (N,). Each two-term dot product is x0 + x1 + 0.0, which is
    np.sum's bit for bit (-0.0 + -0.0 -> 0.0).
    """
    G11, G12, G22 = ((x * y).sum(-1) for x, y in ((a, a), (a, b), (b, b)))
    g1, g2 = (a * wy).sum(-1), (b * wy).sum(-1)

    def form(u, v, ru, rv, u0=0.0, v0=0.0):  # (ru, rv) . (G (u, v) - (u0, v0))
        return ru * (G11 * u + G12 * v - u0) + rv * (G12 * u + G22 * v - v0) + 0.0

    with np.errstate(divide="ignore", invalid="ignore"):
        free = np.array([G22 * g1 - G12 * g2, G11 * g2 - G12 * g1]) / (G11 * G22 - G12**2)
        free[:, ~feasible(*free)] = np.nan
    du, dv = rays.T  # (S, N or 1)
    curve = form(du, dv, du, dv)
    t = np.divide(du * g1 + dv * g2 + 0.0, curve, out=0 * curve, where=curve > 0)
    t = np.maximum(t, 0.0)
    pu, pv = (np.concatenate([t * d, f[None]]) for d, f in zip((du, dv), free))
    q = form(pu, pv, pu, pv, 2.0 * g1, 2.0 * g2)
    k, rows = np.argmin(np.where(np.isnan(q), np.inf, q), 0), np.arange(q.shape[1])
    return np.column_stack([pu[k, rows], pv[k, rows]]), q[k, rows] + wy @ wy


def _basis(delta, gamma, h):
    """c1 = e^{-delta h} and c2 = h e^{-delta h} phi1((delta - gamma) h), rates batched."""
    c1 = np.exp(-np.multiply.outer(delta, h))
    return c1, h * c1 * _phi1(np.multiply.outer(delta - gamma, h))


def _phi_fits(delta, gamma, h, wy, w):
    """Best order-parameter model of one phase at each rate pair, batched.

    With c1, c2 of `_basis` and e^{-gamma h} = c1 + (delta - gamma) c2,
    phi_irf is u c1 + v c2 with (u, v) = kappa ((1 - phi_bar) A - phi_bar,
    (1 - phi_bar) eta - phi_bar d) and d = delta - gamma. Over A, eta >= 0
    and kappa > 0 these fill, up to closure, the cone bounded by the rays
    (1, 0) and (-1, -d): the plane for d > 0, the half-plane v >= 0 for
    d = 0 and a sector for d < 0, whatever phi_bar in (0, 1).
    """
    d = delta - gamma
    c1, c2 = _basis(delta, gamma, h)
    rays = np.zeros((d.size, 2, 2))
    rays[:, 0, 0], rays[:, 1, 0], rays[:, 1, 1] = 1.0, -1.0, -d

    def feasible(u, v):
        return (d > 0) | ((v >= 0) & (d * u <= v))

    return _lsq2(w * c1, w * c2, wy, rays, feasible)


def _pi_fits(gammas, h, wys, ws, phi_bars):
    """Best (a, b) = (s_pi, s_pi / phi_c) of the price models (a - b phi_bar_i) e^{-gamma_i h}."""
    x = [w * np.exp(-np.multiply.outer(gamma, h)) for gamma, w in zip(gammas, ws)]
    b = np.concatenate([-phi_bar * xi for phi_bar, xi in zip(phi_bars, x)], -1)

    def feasible(a, b):
        return (PHI_C_MIN <= a / b) & (a / b <= PHI_C_MAX)

    return _lsq2(np.concatenate(x, -1), b, np.concatenate(wys), _PI_RAYS, feasible)


def _tabulate(fits):
    """fits(gamma, x)[1] at each pair of RATE_GRID, rows by gamma, GAMMA_BLOCK gammas a call."""
    n, inner = RATE_GRID.size, np.tile(RATE_GRID, GAMMA_BLOCK)
    blocks = RATE_GRID.reshape(-1, GAMMA_BLOCK)
    return np.concatenate([fits(np.repeat(g, n), inner)[1].reshape(-1, n) for g in blocks])


def _pattern_search(fun, x0, bounds, step, xtol=1e-9, maxiter=500):
    """Bounded pattern search for the minimum of a batched `fun`, from x0.

    Each iteration evaluates the 3^n points x + s e, e in {-1, 0, 1}^n, clipped
    to the bounds, in one call of `fun`; it moves to the best if that improves
    on x (ties to the first) and halves the steps s otherwise, until every step
    is below xtol * max(1, |x|). Returns x, fun, nfev, nit and success.
    """
    low, high = np.asarray(bounds, dtype=np.float64).T
    stencil = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=len(x0))))
    x, s, nfev = np.asarray(x0, dtype=np.float64), np.asarray(step, dtype=np.float64), 1
    fx = fun(x[None])[0]
    for nit in range(1, maxiter + 1):
        points = np.clip(x + stencil * s, low, high)
        values = fun(points)
        nfev, k = nfev + len(points), int(np.argmin(values))
        if values[k] < fx:
            x, fx = points[k], values[k]
        else:
            s = s / 2.0
        if converged := bool(np.all(s <= xtol * np.maximum(1.0, np.abs(x)))):
            break
    return SimpleNamespace(x=x, fun=fx, nfev=nfev, nit=nit, success=converged)


optimize = SimpleNamespace(minimize=_pattern_search)  # perfbench traces this lookup


def _snap(value, low, high):
    """Clip into [low, high]; a value within rounding of a bound becomes the bound."""
    value = min(max(float(value), low), high)
    return next((b for b in (low, high) if abs(value - b) <= 1e-12 * max(1.0, abs(b))), value)


def calibrate(
    tables: dict[tuple[str, str], IRFTable], phi_bars: dict[str, float]
) -> CalibrationResult:
    """Fit both phases and the shared coupling to four empirical IRF tables.

    `tables` is keyed (phase, response), for the phases cash and reserve
    and the responses phi and pi_core, and so are the residuals; `phi_bars`
    holds each phase's mean order parameter. Minimizes the se-weighted
    squared deviation between the model responses and the estimated
    coefficients, B = 1 fixed in each phase. Each phase's order-parameter
    response is fitted in its reduced form u c1 + v c2 (`_phi_fits`), with
    (u, v) on the cone that A, eta >= 0 and kappa > 0 map to and delta,
    gamma in [0, RATE_CAP]; the shared price coupling has any s_pi and
    phi_c in [PHI_C_MIN, PHI_C_MAX]. For fixed rates every model is linear
    in two coefficients, solved exactly by `_lsq2` (variable projection);
    the profiled Phi_cash(delta_c, gamma_c) + Phi_reserve(delta_r, gamma_r)
    + Pi(gamma_c, gamma_r) is tabulated on RATE_GRID and polished by a
    bounded pattern search, with nothing random. `degenerate` flags null fitted
    price responses, which leave phi_c unidentified.
    """
    phases = {p: phi_bars[p] for p in ("cash", "reserve")}
    tables = {(p, r): tables[(p, r)] for p in phases for r in ("phi", "pi_core")}
    H = tables[("cash", "phi")].horizon
    for key, tbl in tables.items():
        if tbl.horizon != H:
            raise DataError(f"IRF tables must share one horizon grid, {key} differs")
        if (tbl.se <= 0).any():
            raise DataError(f"IRF table {key} has a zero or negative standard error")
    for v in phases.values():
        if not 0.0 < v < 1.0:
            raise DataError(f"phase mean {v} outside (0, 1)")
    if phases["cash"] >= phases["reserve"]:
        raise DataError("phase means must satisfy cash < reserve")

    h = np.arange(H + 1.0)
    beta = {k: t.beta for k, t in tables.items()}
    weight = {k: 1.0 / t.se for k, t in tables.items()}

    def phi_fits(phase, delta, gamma):
        w = weight[(phase, "phi")]
        return _phi_fits(delta, gamma, h, w * beta[(phase, "phi")], w)

    def pi_fits(gammas):
        keys = [(p, "pi_core") for p in phases]
        ws, wys = [weight[k] for k in keys], [weight[k] * beta[k] for k in keys]
        return _pi_fits(gammas, h, wys, ws, phases.values())

    def profile(x):  # the objective at each row (delta_c, gamma_c, delta_r, gamma_r)
        phi = phi_fits("cash", x[:, 0], x[:, 1])[1] + phi_fits("reserve", x[:, 2], x[:, 3])[1]
        return phi + pi_fits(x[:, 1::2].T)[1]

    # best delta at each gamma of each phase; then the best gamma pair
    grid = RATE_GRID
    phi = {p: _tabulate(lambda gamma, delta: phi_fits(p, delta, gamma)) for p in phases}
    price = _tabulate(lambda gamma_c, gamma_r: pi_fits((gamma_c, gamma_r)))
    total = np.min(phi["cash"], 1)[:, None] + np.min(phi["reserve"], 1) + price
    i, j = np.unravel_index(np.argmin(total), total.shape)
    start = [grid[np.argmin(phi["cash"][i])], grid[i], grid[np.argmin(phi["reserve"][j])], grid[j]]
    step = (grid[2] / grid[1] - 1.0) * np.maximum(start, grid[1])  # one grid cell
    polish = optimize.minimize(profile, start, [(0.0, RATE_CAP)] * 4, step)

    fits = {}
    for phase, (delta, gamma) in zip(phases, polish.x.reshape(2, 2)):
        (u, v), _ = (x[0] for x in phi_fits(phase, np.array([delta]), np.array([gamma])))
        fits[phase] = PhaseFit(float(u), float(v), float(delta), float(gamma), phases[phase])
    (a, b), _ = (x[0] for x in pi_fits(polish.x[1::2, None]))
    identified = a * b > 0  # else a = b = 0
    coupling = CouplingParams(
        s_pi=float(a),
        phi_c=_snap(a / b, PHI_C_MIN, PHI_C_MAX) if identified else 0.5 * sum(phases.values()),
    )

    models, values = {}, []
    for p, f in fits.items():
        scale = coupling.s_pi * chi(f.phi_bar, coupling.phi_c)
        models |= {(p, "phi"): f.phi_response(h), (p, "pi_core"): scale * np.exp(-f.gamma * h)}
        values += [(f"{p}.{n}", getattr(f, n), (0.0, RATE_CAP)) for n in ("delta", "gamma")]
    residuals = {k: models[k] - beta[k] for k in tables}
    values += [("phi_c", coupling.phi_c, (PHI_C_MIN, PHI_C_MAX))]
    return CalibrationResult(
        cash=fits["cash"],
        reserve=fits["reserve"],
        coupling=coupling,
        objective=sum(float(np.sum((r * weight[k]) ** 2)) for k, r in residuals.items()),
        residuals=residuals,
        converged=bool(polish.success),
        degenerate=not identified,
        binding=tuple(f"{name}={value!r}" for name, value, bounds in values if value in bounds),
        rate_evaluations=3 * grid.size**2 + int(polish.nfev),
    )
