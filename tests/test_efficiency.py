import numpy as np
import pytest

from monephase.compartment import (
    CompartmentParams,
    CouplingParams,
    cpi_irf,
    phi_irf,
)
from monephase.econometrics import IRFTable
from monephase.efficiency import efficiencies
from monephase.errors import DataError


def table(betas, se=0.05):
    beta = np.array(betas, dtype=np.float64)
    return IRFTable(beta, np.full(beta.size, se), np.full(beta.size, 50))


def test_max_abs_with_sign_ignored():
    rep = efficiencies(table([0.1, -0.3, 0.2]), table([0.0, 0.0, 0.1]), H=2)
    assert rep.eff_r == pytest.approx(0.3)
    assert rep.argmax_r == 1
    assert rep.eff_c == pytest.approx(0.1)
    assert rep.argmax_c == 2


def test_all_zero_betas():
    rep = efficiencies(table([0.0, 0.0, 0.0]), table([0.0, 0.0, 0.0]), H=2)
    assert rep.eff_r == 0.0 and rep.argmax_r == 0
    assert rep.eff_c == 0.0 and rep.argmax_c == 0


def test_tie_goes_to_smallest_horizon():
    rep = efficiencies(table([0.2, -0.2, 0.1]), table([0.1, 0.1, 0.1]), H=2)
    assert rep.argmax_r == 0
    assert rep.argmax_c == 0


def test_planted_model_oracle():
    p = CompartmentParams(A=1.2, B=1.0, delta=0.08, gamma=0.05, eta=0.1)
    c = CouplingParams(s_pi=0.4, phi_c=0.3)
    h = np.arange(25.0)
    phi_kernel = phi_irf(h, p, phi_bar=0.15, kappa=0.01)
    pi_kernel = cpi_irf(h, p, c, phi_bar=0.15)
    rep = efficiencies(table(phi_kernel), table(pi_kernel), H=24)
    assert rep.eff_r == pytest.approx(np.max(np.abs(phi_kernel)), abs=1e-10)
    assert rep.eff_c == pytest.approx(np.max(np.abs(pi_kernel)), abs=1e-10)


def test_monotone_in_horizon_budget():
    betas = [0.1, 0.5, 0.2, 0.9]
    for H in range(3):
        small = efficiencies(table(betas), table(betas), H=H)
        big = efficiencies(table(betas), table(betas), H=H + 1)
        assert small.eff_r <= big.eff_r


def test_sign_flip_invariance():
    betas = [0.1, -0.4, 0.3]
    a = efficiencies(table(betas), table(betas), H=2)
    b = efficiencies(table([-x for x in betas]), table(betas), H=2)
    assert a.eff_r == b.eff_r and a.argmax_r == b.argmax_r


def test_missing_horizon_rows():
    with pytest.raises(DataError, match="missing horizons"):
        efficiencies(table([0.1, 0.2]), table([0.1, 0.2]), H=5)


