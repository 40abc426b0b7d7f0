"""Synthetic monthly economies with known ground truth.

The generator plants every quantity the pipeline later estimates: the
order parameter follows a tanh profile, seasonally adjusted base growth
follows a fixed AR process, and the outcome series embed phase-dependent
impulse kernels applied to the unit-variance growth innovations. CPI
levels are integrated from the generated inflation, so the year-over-year
transform recovers it up to rounding; when the economy covers 2020, both
CPI indices are rescaled to average 100 over that year, the base the CPI
ingest expects. Levels are constructed so that RB <= MB and MB > 0
always hold.

Kernels switch on the phase of the noise-free profile at the shock
arrival date, so estimator error against ground truth stays measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compartment import CompartmentParams, CouplingParams, cpi_irf, phi_irf
from .errors import DataError
from .phase import CASH, RESERVE, PhasePartition, PhaseThresholds, classify
from .series import MonthIndex, MonthlySeries, Panel

BURN_IN = 240
AR_COEFFS = (3.5, 0.3)  # base growth g_t = 3.5 + 0.3 g_{t-1} + e_t, yoy percent
INNOVATION_SD = 1.5  # sd of e_t
PI_BASE = 1.5  # core inflation before the planted responses, yoy percent
MB0 = 1000.0  # first monetary base level, 100 million yen
MB_SEED_GROWTH = 0.004  # monthly growth over the first year of base levels
CPI_SEED_GROWTH = 0.0015  # monthly growth over the first year of CPI levels
CO_SHARE = 0.03  # coins as a share of the base
KERNEL_KEYS = ((CASH, "phi"), (CASH, "pi"), (RESERVE, "phi"), (RESERVE, "pi"))


@dataclass(frozen=True)
class SynthSpec:
    """Everything needed to reproduce one synthetic economy bit-for-bit."""

    months: int = 600
    start: MonthIndex = MonthIndex(1975, 1)
    phi_low: float = 0.127
    phi_high: float = 0.694
    t0: MonthIndex = MonthIndex(2000, 1)
    w: float = 6.0
    kernels: dict = field(default_factory=dict)
    phi_noise_sd: float = 0.004
    pi_noise_sd: float = 0.25
    pi_headline_extra_sd: float = 0.1
    cash_max: float = 0.30
    reserve_min: float = 0.60
    truth: dict = field(default_factory=dict)
    seed: int = 1

    @property
    def phi_mid(self) -> float:
        return 0.5 * (self.phi_low + self.phi_high)

    @property
    def phi_amp(self) -> float:
        return 0.5 * (self.phi_high - self.phi_low)

    def kernel(self, phase: str, outcome: str) -> np.ndarray:
        return np.asarray(self.kernels.get((phase, outcome), (0.0,)), dtype=np.float64)

    def validate(self):
        if self.months < 120:
            raise DataError(f"need at least 120 months, got {self.months}")
        if not 0 < self.w:
            raise DataError("transition width must be positive")
        if not self.start <= self.t0 <= self.start + (self.months - 1):
            raise DataError("transition midpoint t0 must lie inside the sample")
        for key in self.kernels:
            arr = np.asarray(self.kernels[key], dtype=np.float64)
            if not np.isfinite(arr).all():
                raise DataError(f"kernel {key} has non-finite entries")
        resp_sd = 0.0
        for phase in (CASH, RESERVE):
            k = self.kernel(phase, "phi")
            resp_sd = max(resp_sd, float(np.sqrt(np.sum(k**2))))
        margin = 4.0 * (resp_sd + self.phi_noise_sd)
        low = min(self.phi_low, self.phi_high)
        high = max(self.phi_low, self.phi_high)
        if low - margin <= 0.0 or high + margin >= 1.0 - CO_SHARE:
            raise DataError(
                f"phi profile {low:.3f}..{high:.3f} with margin {margin:.3f} "
                f"escapes (0, {1.0 - CO_SHARE:.2f}); reduce kernels or noise"
            )


@dataclass(frozen=True)
class GroundTruth:
    """Companion record: everything needed to check the estimators."""

    spec: SynthSpec
    innovations_unit: np.ndarray
    growth: np.ndarray
    profile: np.ndarray
    partition: PhasePartition  # phases of the noise-free profile


def generate(spec: SynthSpec) -> tuple[Panel, GroundTruth]:
    """Build the full panel (MB, BN, CO, RB, MB_SA, CPI, CPI_core) plus truth."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    T = spec.months
    a0, *acoef = AR_COEFFS
    p = len(acoef)

    total = BURN_IN + T
    e = rng.normal(0.0, INNOVATION_SD, total)
    g_full = np.zeros(total)
    mean_g = a0 / max(1e-12, 1.0 - sum(acoef))
    g_full[:p] = mean_g
    for t in range(p, total):
        g_full[t] = a0 + sum(acoef[i] * g_full[t - 1 - i] for i in range(p)) + e[t]
    g = g_full[BURN_IN:]
    e_unit = e[BURN_IN:] / INNOVATION_SD

    t_axis = np.arange(T, dtype=np.float64)
    t0_offset = float(spec.t0 - spec.start)
    profile = spec.phi_mid + spec.phi_amp * np.tanh((t_axis - t0_offset) / spec.w)
    partition = classify(
        MonthlySeries(spec.start, profile), PhaseThresholds(spec.cash_max, spec.reserve_min)
    )

    def planted(outcome: str) -> np.ndarray:
        resp = np.zeros(T)
        for phase in (CASH, RESERVE):
            kern = spec.kernel(phase, outcome)
            masked = np.where(partition.mask(phase), e_unit, 0.0)
            resp += np.convolve(masked, kern)[:T]
        return resp

    phi = profile + planted("phi") + rng.normal(0.0, spec.phi_noise_sd, T)
    pi_core = PI_BASE + planted("pi") + rng.normal(0.0, spec.pi_noise_sd, T)
    pi_head = pi_core + rng.normal(0.0, spec.pi_headline_extra_sd, T)

    mb_sa = np.empty(T)
    for t in range(12):
        mb_sa[t] = MB0 * (1.0 + MB_SEED_GROWTH) ** t
    for t in range(12, T):
        mb_sa[t] = mb_sa[t - 12] * (1.0 + g[t] / 100.0)
    if (mb_sa <= 0).any():
        raise DataError("generated monetary base hit zero")
    mb = mb_sa.copy()
    rb = phi * mb
    co = CO_SHARE * mb
    bn = mb - rb - co
    if (rb > mb).any() or (bn < 0).any():
        raise DataError("generated composition violates RB + CO <= MB")

    in_2020 = (spec.start.ordinal + np.arange(T)) // 12 == 2020

    def integrate_cpi(pi: np.ndarray) -> np.ndarray:
        out = np.empty(T)
        for t in range(12):
            out[t] = 100.0 * (1.0 + CPI_SEED_GROWTH) ** t
        for t in range(12, T):
            out[t] = out[t - 12] * (1.0 + pi[t] / 100.0)
        if in_2020.any():
            out *= 100.0 / np.mean(out[in_2020])
        return out

    cpi_core = integrate_cpi(pi_core)
    cpi_head = integrate_cpi(pi_head)

    series = {
        "MB": MonthlySeries(spec.start, mb),
        "BN": MonthlySeries(spec.start, bn),
        "CO": MonthlySeries(spec.start, co),
        "RB": MonthlySeries(spec.start, rb),
        "MB_SA": MonthlySeries(spec.start, mb_sa),
        "CPI": MonthlySeries(spec.start, cpi_head),
        "CPI_core": MonthlySeries(spec.start, cpi_core),
    }
    panel = Panel(spec.start, T, series)
    truth = GroundTruth(
        spec=spec,
        innovations_unit=e_unit,
        growth=g,
        profile=profile,
        partition=partition,
    )
    return panel, truth


# reference truth used by the default economy; B = 1 is the calibration gauge
TRUTH_PHI_C = 0.231
TRUTH_S_PI = 0.18
TRUTH_PHI_BARS = (0.127, 0.694)
TRUTH_CASH = CompartmentParams(A=1.5, B=1.0, delta=0.06, gamma=0.04, eta=0.05)
TRUTH_CASH_KAPPA = 0.005
TRUTH_RESERVE = CompartmentParams(A=3.0, B=1.0, delta=0.05, gamma=0.045, eta=0.04)
TRUTH_RESERVE_KAPPA = 0.0065


def two_compartment_spec(
    seed: int = 1,
    months: int = 1080,
    start: MonthIndex = MonthIndex(1935, 1),
    t0: MonthIndex = MonthIndex(2000, 1),
    w: float = 6.0,
) -> SynthSpec:
    """An economy whose kernels, h = 0..36 per unit shock, come from the reference
    two-compartment truth."""
    coupling = CouplingParams(s_pi=TRUTH_S_PI, phi_c=TRUTH_PHI_C)
    h = np.arange(37.0)
    kernels = {}
    for phase, params, kappa, phi_bar in (
        (CASH, TRUTH_CASH, TRUTH_CASH_KAPPA, TRUTH_PHI_BARS[0]),
        (RESERVE, TRUTH_RESERVE, TRUTH_RESERVE_KAPPA, TRUTH_PHI_BARS[1]),
    ):
        kernels[(phase, "phi")] = tuple(phi_irf(h, params, phi_bar, kappa))
        kernels[(phase, "pi")] = tuple(cpi_irf(h, params, coupling, phi_bar))
    truth = {
        "phi_c": TRUTH_PHI_C,
        "s_pi": TRUTH_S_PI,
        "phi_bar_cash": TRUTH_PHI_BARS[0],
        "phi_bar_reserve": TRUTH_PHI_BARS[1],
        "cash": TRUTH_CASH,
        "cash_kappa": TRUTH_CASH_KAPPA,
        "reserve": TRUTH_RESERVE,
        "reserve_kappa": TRUTH_RESERVE_KAPPA,
    }
    return SynthSpec(
        months=months,
        start=start,
        phi_low=TRUTH_PHI_BARS[0],
        phi_high=TRUTH_PHI_BARS[1],
        t0=t0,
        w=w,
        kernels=kernels,
        truth=truth,
        seed=seed,
    )


def default_spec(seed: int = 1, months: int = 612) -> SynthSpec:
    """Default economy on the Japan-like calendar, 1975-01 to 2025-12: transition around
    2013-04. Other lengths shrink or grow it at the front, so the transition stays in sample."""
    return two_compartment_spec(
        seed=seed,
        months=months,
        start=MonthIndex(1975, 1) + (612 - months),
        t0=MonthIndex(2013, 4),
        w=6.0,
    )


def _join(values) -> str:
    """Semicolon-joined shortest round-trip floats; comma-free for the CSV."""
    return ";".join(repr(float(v)) for v in values)


def ground_truth_rows(truth: GroundTruth) -> list[tuple]:
    """The (key, value) rows of ground_truth.csv; arrays are semicolon-joined round-trip floats."""
    spec = truth.spec
    rows = [
        ("seed", spec.seed),
        ("months", spec.months),
        ("start", str(spec.start)),
        ("phi_low", spec.phi_low),
        ("phi_high", spec.phi_high),
        ("t0", str(spec.t0)),
        ("w", spec.w),
        ("ar_coeffs", _join(AR_COEFFS)),
        ("innovation_sd", INNOVATION_SD),
        ("phi_noise_sd", spec.phi_noise_sd),
        ("pi_noise_sd", spec.pi_noise_sd),
        ("pi_base", PI_BASE),
        ("cash_max", spec.cash_max),
        ("reserve_min", spec.reserve_min),
    ]
    for key, value in sorted(spec.truth.items()):
        if isinstance(value, CompartmentParams):
            rows.append(
                (f"truth_{key}", _join([value.A, value.B, value.delta, value.gamma, value.eta]))
            )
        else:
            rows.append((f"truth_{key}", value))
    for phase, outcome in KERNEL_KEYS:
        rows.append((f"kernel_{phase}_{outcome}", _join(spec.kernel(phase, outcome))))
    for label in (CASH, RESERVE):
        segs = truth.partition.segments(label)
        rows.append((f"segments_{label}", ";".join(f"{a}:{b}" for a, b in segs)))
    rows.append(("innovations_unit", _join(truth.innovations_unit)))
    return rows
