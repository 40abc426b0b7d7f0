"""Monetary order-parameter measurement and modelling pipeline."""

from .compartment import (
    CalibrationResult,
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
from .econometrics import (
    BreakResult,
    IRFRow,
    IRFTable,
    RegressionResult,
    ShockSeries,
    ar_fit,
    breakpoint,
    detrended_shock,
    hac_covariance,
    local_projection,
    ols,
    standardize,
)
from .efficiency import EfficiencyReport, efficiencies
from .errors import CollinearityError, ConvergenceError, DataError, MonephaseError
from .landau import (
    LandauParams,
    StationarySet,
    free_energy,
    lk_trajectory,
    stationary_points,
    susceptibility,
)
from .phase import (
    CASH,
    INTERMEDIATE,
    RESERVE,
    PhasePartition,
    PhaseThresholds,
    TanhFit,
    classify,
    fit_tanh,
    phase_means,
)
from .series import (
    MonthIndex,
    MonthlySeries,
    Panel,
    index_to_base,
    merge,
    order_parameter,
    yoy,
)
from .synth import SynthSpec, default_spec, generate, two_compartment_spec

__version__ = "0.1.0"
