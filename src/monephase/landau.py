"""Landau coarse-graining of the order parameter.

The slow variable is the shifted order parameter m = phi - phi_c with
effective free energy

    F(m) = 1/2 a m^2 + 1/4 b m^4 - h m,        b > 0.

Stationary states solve the cubic a m + b m^3 = h, the over-damped
relaxation is tau dm/dt = -dF/dm + noise, and the sensitivity of the
critical region is summarized by a peak-normalized susceptibility
eps / (|phi - phi_c| + eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class LandauParams:
    a: float
    b: float
    h_field: float
    tau: float = 1.0

    def __post_init__(self):
        if self.b <= 0:
            raise DataError(f"quartic coefficient b must be positive, got {self.b}")
        if self.tau <= 0:
            raise DataError(f"relaxation timescale tau must be positive, got {self.tau}")


def free_energy(m, p: LandauParams):
    """F(m) = 1/2 a m^2 + 1/4 b m^4 - h m."""
    arr = np.asarray(m, dtype=np.float64)
    return 0.5 * p.a * arr**2 + 0.25 * p.b * arr**4 - p.h_field * arr


def _cubic_force(m, p: LandauParams):
    return p.a * m + p.b * m**3 - p.h_field


def _curvature(m, p: LandauParams):
    return p.a + 3.0 * p.b * m**2


MINIMUM = "minimum"
MAXIMUM = "maximum"


@dataclass(frozen=True)
class StationarySet:
    """Real roots of a m + b m^3 = h with their curvature classification."""

    roots: tuple[float, ...]
    kinds: tuple[str, ...]
    global_minimum: float
    degenerate_pair: bool = False


def stationary_points(p: LandauParams) -> StationarySet:
    """All real stationary points, found in closed form and Newton-polished.

    The depressed cubic m^3 + (a/b) m - h/b = 0 is solved by the
    trigonometric formula when three real roots exist and by Cardano's
    formula otherwise; every root receives one Newton step, and roots that
    merge within tolerance are kept once. For h = 0 and a < 0 the two
    symmetric minima are energy-degenerate: the positive branch is
    designated the global minimum and the degeneracy is flagged.
    """
    pc = p.a / p.b
    qc = -p.h_field / p.b
    disc = (qc / 2.0) ** 2 + (pc / 3.0) ** 3

    if pc == 0.0 and qc == 0.0:
        raw = [0.0]
    elif disc > 0.0:
        s = math.sqrt(disc)
        raw = [math.copysign(abs(-qc / 2.0 + s) ** (1 / 3), -qc / 2.0 + s)
               + math.copysign(abs(-qc / 2.0 - s) ** (1 / 3), -qc / 2.0 - s)]
    else:
        # three real roots (disc <= 0 forces pc < 0)
        rho = 2.0 * math.sqrt(-pc / 3.0)
        arg = 3.0 * qc / (pc * rho)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg)
        raw = sorted(
            rho * math.cos((theta - 2.0 * math.pi * k) / 3.0) for k in range(3)
        )

    polished = []
    for m in raw:
        f = _cubic_force(m, p)
        fp = _curvature(m, p)
        if fp != 0.0:
            m = m - f / fp
        polished.append(m)

    scale = max(1.0, max(abs(m) for m in polished))
    roots: list[float] = []
    for m in sorted(polished):
        if not roots or abs(m - roots[-1]) > 1e-9 * scale:
            roots.append(m)

    kinds = tuple(MINIMUM if _curvature(m, p) >= 0.0 else MAXIMUM for m in roots)
    minima = [m for m, kind in zip(roots, kinds) if kind == MINIMUM]
    if not minima:
        minima = roots
    energies = [free_energy(m, p) for m in minima]
    global_minimum = minima[int(np.argmin(energies))]

    degenerate_pair = p.h_field == 0.0 and p.a < 0.0
    if degenerate_pair:
        global_minimum = max(minima)

    return StationarySet(
        roots=tuple(roots),
        kinds=kinds,
        global_minimum=float(global_minimum),
        degenerate_pair=degenerate_pair,
    )


def lk_trajectory(
    m0: float,
    p: LandauParams,
    noise_sd: float = 0.0,
    dt: float = 0.01,
    steps: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Euler-Maruyama path of tau dm/dt = -a m - b m^3 + h + noise.

    The Gaussian increment has standard deviation noise_sd * sqrt(dt);
    noise_sd = 0 reduces to plain Euler. The step size must satisfy
    dt < tau / (|a| + 3 b m_max^2 + 1) with m_max the larger of |m0| and
    the outermost stationary point, which keeps the noiseless iteration a
    strict descent of F.
    """
    if dt <= 0:
        raise DataError("dt must be positive")
    if steps < 1:
        raise DataError("steps must be >= 1")
    stat = stationary_points(p)
    m_max = max(abs(m0), max(abs(r) for r in stat.roots))
    limit = p.tau / (abs(p.a) + 3.0 * p.b * m_max**2 + 1.0)
    if dt >= limit:
        raise DataError(
            f"step size {dt} violates the stability guard (needs dt < {limit:.6g})"
        )
    out = np.empty(steps + 1)
    out[0] = m0
    m = float(m0)
    if noise_sd > 0.0:
        increments = np.random.default_rng(seed).standard_normal(steps)
    else:
        increments = None
    sqrt_dt = math.sqrt(dt)
    for k in range(steps):
        drift = -p.a * m - p.b * m**3 + p.h_field
        bump = noise_sd * sqrt_dt * increments[k] if increments is not None else 0.0
        m = m + (dt * drift + bump) / p.tau
        out[k + 1] = m
    return out


def susceptibility(phi, phi_c: float, epsilon: float):
    """Peak-normalized sensitivity eps / (|phi - phi_c| + eps); equals 1 at phi_c."""
    if epsilon <= 0:
        raise DataError(f"epsilon must be positive, got {epsilon}")
    arr = np.asarray(phi, dtype=np.float64)
    return epsilon / (np.abs(arr - phi_c) + epsilon)
