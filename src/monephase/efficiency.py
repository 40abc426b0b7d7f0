"""Function-specific efficiency metrics extracted from IRF tables.

Reservation efficiency is the largest absolute order-parameter response
within the horizon budget; CPI efficiency is the analogue for the core
inflation response. Both use point estimates, whatever their
confidence intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .econometrics import IRFTable
from .errors import DataError


@dataclass(frozen=True)
class EfficiencyReport:
    eff_r: float
    argmax_r: int
    eff_c: float
    argmax_c: int
    H: int
    phase: str = ""
    shock_definition: str = ""


def _max_abs(table: IRFTable, H: int) -> tuple[float, int]:
    rows = {r.h: r for r in table.rows}
    missing = [h for h in range(H + 1) if h not in rows]
    if missing:
        raise DataError(f"IRF table missing horizons {missing}; cannot cover 0..{H}")
    best_val, best_h = 0.0, 0
    for h in range(H + 1):
        val = abs(rows[h].beta)
        if val > best_val:
            best_val, best_h = val, h
    return best_val, best_h


def efficiencies(irf_phi: IRFTable, irf_pi: IRFTable, H: int) -> EfficiencyReport:
    """Max |beta| within horizons 0..H for each response; ties pick the smallest h."""
    if H < 0:
        raise DataError("H must be nonnegative")
    eff_r, argmax_r = _max_abs(irf_phi, H)
    eff_c, argmax_c = _max_abs(irf_pi, H)
    return EfficiencyReport(
        eff_r=eff_r,
        argmax_r=argmax_r,
        eff_c=eff_c,
        argmax_c=argmax_c,
        H=H,
        phase=irf_phi.phase,
        shock_definition=irf_phi.shock_definition,
    )
