"""Synthetic monthly economies with known ground truth.

The generator plants every quantity the pipeline later estimates: the
order parameter follows a tanh profile, seasonally adjusted base growth
follows a fixed AR(1) process, and the outcome series embed phase-dependent
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

from dataclasses import astuple, dataclass, field, is_dataclass
from types import MappingProxyType

import numpy as np

from .compartment import CompartmentParams, CouplingParams, cpi_irf, phi_irf
from .errors import DataError
from .normal import Stream
from .phase import CASH, RESERVE, PhaseThresholds, classify, segments
from .series import MonthIndex, MonthlySeries, Panel

BURN_IN = 240
AR_COEFFS = (3.5, 0.3)  # base growth g_t = 3.5 + 0.3 g_{t-1} + e_t, yoy percent: (a0, a1)
INNOVATION_SD = 1.5  # sd of e_t
PI_BASE = 1.5  # core inflation before the planted responses, yoy percent
MB0 = 1000.0  # first monetary base level, 100 million yen
MB_SEED_GROWTH = 0.004  # monthly growth over the first year of base levels
CPI_SEED_GROWTH = 0.0015  # monthly growth over the first year of CPI levels
CO_SHARE = 0.03  # coins as a share of the base
KERNEL_KEYS = ((CASH, "phi"), (CASH, "pi"), (RESERVE, "phi"), (RESERVE, "pi"))

# the planted two-compartment truth, written to ground_truth.csv as truth_<key> rows; B = 1 is
# the calibration gauge
TRUTH = MappingProxyType(
    {
        "phi_c": 0.231,
        "s_pi": 0.18,
        "phi_bar_cash": 0.127,
        "phi_bar_reserve": 0.694,
        "cash": CompartmentParams(A=1.5, B=1.0, delta=0.06, gamma=0.04, eta=0.05),
        "cash_kappa": 0.005,
        "reserve": CompartmentParams(A=3.0, B=1.0, delta=0.05, gamma=0.045, eta=0.04),
        "reserve_kappa": 0.0065,
    }
)


@dataclass(frozen=True)
class SynthSpec:
    """Everything needed to reproduce one synthetic economy bit-for-bit."""

    months: int = 600
    start: MonthIndex = MonthIndex(1975, 1)
    phi_low: float = TRUTH["phi_bar_cash"]
    phi_high: float = TRUTH["phi_bar_reserve"]
    t0: MonthIndex = MonthIndex(2000, 1)
    w: float = 6.0
    kernels: dict = field(default_factory=dict)
    phi_noise_sd: float = 0.004
    pi_noise_sd: float = 0.25
    pi_headline_extra_sd: float = 0.1
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
    partition: dict[str, np.ndarray]  # each phase's month mask of the noise-free profile


def _levels(first: float, monthly_growth: float, yoy: np.ndarray) -> np.ndarray:
    """Levels that grow geometrically over the first year, then x[t] = x[t-12](1 + yoy[t]/100)."""
    out = np.empty(yoy.size)
    out[:12] = [first * (1.0 + monthly_growth) ** t for t in range(12)]
    for t in range(12, yoy.size):
        out[t] = out[t - 12] * (1.0 + yoy[t] / 100.0)
    return out


def generate(spec: SynthSpec) -> tuple[Panel, GroundTruth]:
    """Build the full panel (MB, BN, CO, RB, MB_SA, CPI, CPI_core) plus truth."""
    spec.validate()
    rng = Stream(spec.seed)
    T = spec.months
    a0, a1 = AR_COEFFS

    e = rng.normal(0.0, INNOVATION_SD, BURN_IN + T)
    g_full = np.empty(BURN_IN + T)
    g_full[0] = a0 / (1.0 - a1)  # the stationary mean
    for t in range(1, g_full.size):
        g_full[t] = a0 + a1 * g_full[t - 1] + e[t]
    g = g_full[BURN_IN:]
    e_unit = e[BURN_IN:] / INNOVATION_SD

    t_axis = np.arange(T, dtype=np.float64)
    t0_offset = float(spec.t0 - spec.start)
    profile = spec.phi_mid + spec.phi_amp * np.tanh((t_axis - t0_offset) / spec.w)
    partition = classify(MonthlySeries(spec.start, profile), PhaseThresholds())

    def planted(outcome: str) -> np.ndarray:
        resp = np.zeros(T)
        for phase in (CASH, RESERVE):
            kern = spec.kernel(phase, outcome)
            masked = np.where(partition[phase], e_unit, 0.0)
            resp += np.convolve(masked, kern)[:T]
        return resp

    phi = profile + planted("phi") + rng.normal(0.0, spec.phi_noise_sd, T)
    pi_core = PI_BASE + planted("pi") + rng.normal(0.0, spec.pi_noise_sd, T)
    pi_head = pi_core + rng.normal(0.0, spec.pi_headline_extra_sd, T)

    mb_sa = _levels(MB0, MB_SEED_GROWTH, g)
    if (mb_sa <= 0).any():
        raise DataError("generated monetary base hit zero")
    mb = mb_sa.copy()
    rb = phi * mb
    co = CO_SHARE * mb
    bn = mb - rb - co
    if (rb > mb).any() or (bn < 0).any():
        raise DataError("generated composition violates RB + CO <= MB")

    in_2020 = (spec.start.ordinal + np.arange(T)) // 12 == 2020
    cpi_head, cpi_core = (_levels(100.0, CPI_SEED_GROWTH, pi) for pi in (pi_head, pi_core))
    if in_2020.any():  # the base the CPI ingest expects
        cpi_head *= 100.0 / np.mean(cpi_head[in_2020])
        cpi_core *= 100.0 / np.mean(cpi_core[in_2020])

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


def two_compartment_spec(
    seed: int = 1,
    months: int = 1080,
    start: MonthIndex = MonthIndex(1935, 1),
    t0: MonthIndex = MonthIndex(2000, 1),
    w: float = 6.0,
) -> SynthSpec:
    """An economy whose kernels, h = 0..36 per unit shock, come from TRUTH."""
    coupling = CouplingParams(s_pi=TRUTH["s_pi"], phi_c=TRUTH["phi_c"])
    h = np.arange(37.0)
    kernels = {}
    for phase in (CASH, RESERVE):
        params, phi_bar = TRUTH[phase], TRUTH[f"phi_bar_{phase}"]
        kernels[(phase, "phi")] = tuple(phi_irf(h, params, phi_bar, TRUTH[f"{phase}_kappa"]))
        kernels[(phase, "pi")] = tuple(cpi_irf(h, params, coupling, phi_bar))
    return SynthSpec(
        months=months, start=start, t0=t0, w=w, kernels=kernels, truth=dict(TRUTH), seed=seed
    )


def default_spec(seed: int = 1, months: int = 612) -> SynthSpec:
    """Default economy on the Japan-like calendar: it ends 2025-12 at any length (612 months
    start 1975-01) and starts no later than the transition, 2013-04, so that it stays in
    sample. It starts no earlier than 0000-01, the first month a date cell can hold."""
    end, t0 = MonthIndex(2025, 12), MonthIndex(2013, 4)
    if months < (least := end - t0 + 1):
        raise DataError(f"synth.months must be at least {least} ({t0} to {end}), got {months}")
    if months > (most := end.ordinal + 1):
        raise DataError(f"synth.months must be at most {most} (0000-01 to {end}), got {months}")
    return two_compartment_spec(seed=seed, months=months, start=end - (months - 1), t0=t0)


def _join(values) -> str:
    """Semicolon-joined shortest round-trip floats; comma-free for the CSV."""
    return ";".join(repr(float(v)) for v in values)


def ground_truth_rows(truth: GroundTruth) -> list[tuple]:
    """The (key, value) rows of ground_truth.csv; arrays are semicolon-joined round-trip floats."""
    spec, thresholds = truth.spec, PhaseThresholds()
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
        ("cash_max", thresholds.cash_max),
        ("reserve_min", thresholds.reserve_min),
    ]
    for key, value in sorted(spec.truth.items()):
        rows.append((f"truth_{key}", _join(astuple(value)) if is_dataclass(value) else value))
    for phase, outcome in KERNEL_KEYS:
        rows.append((f"kernel_{phase}_{outcome}", _join(spec.kernel(phase, outcome))))
    for label in (CASH, RESERVE):
        segs = segments(truth.partition[label], spec.start)
        rows.append((f"segments_{label}", ";".join(f"{a}:{b}" for a, b in segs)))
    rows.append(("innovations_unit", _join(truth.innovations_unit)))
    return rows
