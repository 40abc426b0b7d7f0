import numpy as np
import pytest

from monephase.compartment import (
    CompartmentParams,
    CouplingParams,
    cpi_irf,
    phi_irf,
)
from monephase.econometrics import IRFTable


def table(betas, se=0.05):
    beta = np.array(betas, dtype=np.float64)
    return IRFTable(beta, np.full(beta.size, se), np.full(beta.size, 50))


def test_max_abs_with_sign_ignored():
    eff_r, argmax_r = table([0.1, -0.3, 0.2]).peak()
    assert eff_r == pytest.approx(0.3)
    assert argmax_r == 1
    eff_c, argmax_c = table([0.0, 0.0, 0.1]).peak()
    assert eff_c == pytest.approx(0.1)
    assert argmax_c == 2


def test_all_zero_betas():
    assert table([0.0, 0.0, 0.0]).peak() == (0.0, 0)


def test_tie_goes_to_smallest_horizon():
    assert table([0.2, -0.2, 0.1]).peak()[1] == 0
    assert table([0.1, 0.1, 0.1]).peak()[1] == 0


def test_planted_model_oracle():
    p = CompartmentParams(A=1.2, B=1.0, delta=0.08, gamma=0.05, eta=0.1)
    c = CouplingParams(s_pi=0.4, phi_c=0.3)
    h = np.arange(25.0)
    phi_kernel = phi_irf(h, p, phi_bar=0.15, kappa=0.01)
    pi_kernel = cpi_irf(h, p, c, phi_bar=0.15)
    assert table(phi_kernel).peak()[0] == pytest.approx(np.max(np.abs(phi_kernel)), abs=1e-10)
    assert table(pi_kernel).peak()[0] == pytest.approx(np.max(np.abs(pi_kernel)), abs=1e-10)


def test_monotone_in_horizon_budget():
    betas = table([0.1, 0.5, 0.2, 0.9])
    for H in range(3):
        assert betas.head(H).peak()[0] <= betas.head(H + 1).peak()[0]


def test_sign_flip_invariance():
    betas = [0.1, -0.4, 0.3]
    assert table(betas).peak() == table([-x for x in betas]).peak()
