"""Function-specific efficiency metrics extracted from IRF tables.

Reservation efficiency is the largest absolute order-parameter response
within the horizon budget; CPI efficiency is the analogue for the core
inflation response. Both use point estimates, whatever their
confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .econometrics import IRFTable
from .errors import DataError


@dataclass(frozen=True)
class EfficiencyReport:
    eff_r: float
    argmax_r: int
    eff_c: float
    argmax_c: int
    H: int


def _max_abs(table: IRFTable, H: int) -> tuple[float, int]:
    if H > table.horizon:  # IRFTable holds h = 0..horizon without gaps
        missing = list(range(table.horizon + 1, H + 1))
        raise DataError(f"IRF table missing horizons {missing}; cannot cover 0..{H}")
    values = np.abs(table.beta[: H + 1])
    h = int(np.argmax(values))  # the first on ties
    return float(values[h]), h


def efficiencies(irf_phi: IRFTable, irf_pi: IRFTable, H: int) -> EfficiencyReport:
    """Max |beta| within horizons 0..H for each response; ties pick the smallest h."""
    if H < 0:
        raise DataError("H must be nonnegative")
    eff_r, argmax_r = _max_abs(irf_phi, H)
    eff_c, argmax_c = _max_abs(irf_pi, H)
    return EfficiencyReport(eff_r=eff_r, argmax_r=argmax_r, eff_c=eff_c, argmax_c=argmax_c, H=H)
