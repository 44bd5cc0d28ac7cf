"""The oracles themselves: log-det MI, discrete MI, SNR fits, full suite."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from steeplab import (BscParams, ParamError, SystemParams,
                      discrete_mi_enumerate, empirical_snr, gaussian_mi_logdet,
                      mac_bounds_digital, run_oracle_suite, sample_channels,
                      theorem1_term_oracles)
from steeplab.verify import _xi_by_enumeration
from steeplab.seeds import stream


# ------------------------------------------------------------- gaussian MI

def test_gaussian_mi_independent_is_zero():
    cov_u = np.eye(2, dtype=complex)
    cov_v = np.eye(3, dtype=complex) * 2.0
    joint = np.zeros((5, 5), dtype=complex)
    joint[:2, :2] = cov_u
    joint[2:, 2:] = cov_v
    assert gaussian_mi_logdet(cov_u, cov_v, joint) == pytest.approx(0.0,
                                                                    abs=1e-12)


def test_gaussian_mi_scalar_channel():
    # y = x + n with snr p: I = log2(1 + p)
    p = 3.7
    cov_u = np.array([[p]], dtype=complex)
    cov_v = np.array([[p + 1.0]], dtype=complex)
    joint = np.array([[p, p], [p, p + 1.0]], dtype=complex)
    assert gaussian_mi_logdet(cov_u, cov_v, joint) == pytest.approx(
        math.log2(1 + p), abs=1e-12)


def test_gaussian_mi_rejects_inconsistent_blocks():
    cov = np.eye(1, dtype=complex)
    with pytest.raises(ParamError):
        gaussian_mi_logdet(cov, cov, np.eye(3, dtype=complex))


def test_logdet_rejects_indefinite():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)  # eigenvalue -1
    good = np.eye(2, dtype=complex)
    joint = np.eye(4, dtype=complex)
    with pytest.raises(ParamError, match="positive definite"):
        gaussian_mi_logdet(bad, good, joint)


# ------------------------------------------------------------- discrete MI

def test_discrete_mi_perfect_correlation():
    pmf = np.zeros((2, 2))
    pmf[0, 0] = pmf[1, 1] = 0.5
    assert discrete_mi_enumerate(pmf, ([0], [1])) == pytest.approx(1.0)


def test_discrete_mi_independence():
    pmf = np.full((2, 2), 0.25)
    assert discrete_mi_enumerate(pmf, ([0], [1])) == pytest.approx(0.0,
                                                                   abs=1e-12)


def test_discrete_mi_bsc_capacity_term():
    # X fair, Y = X through BSC(0.1): I = 1 - f(0.1)
    p = 0.1
    pmf = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    expect = 1.0 - (-p * math.log2(p) - (1 - p) * math.log2(1 - p))
    assert discrete_mi_enumerate(pmf, ([0], [1])) == pytest.approx(expect,
                                                                   abs=1e-12)


def test_discrete_mi_grouped_axes():
    # (X, (Y1, Y2)) where Y1 = X and Y2 is an independent coin
    pmf = np.zeros((2, 2, 2))
    pmf[0, 0, :] = 0.25
    pmf[1, 1, :] = 0.25
    assert discrete_mi_enumerate(pmf, ([0], [1, 2])) == pytest.approx(1.0)


def test_discrete_mi_validates_pmf():
    with pytest.raises(ParamError):
        discrete_mi_enumerate(np.array([[0.7, 0.7]]), ([0], [1]))
    with pytest.raises(ParamError):
        discrete_mi_enumerate(np.array([[-0.1, 1.1]]), ([0], [1]))


def test_discrete_mi_groups_must_partition():
    pmf = np.full((2, 2), 0.25)
    with pytest.raises(ParamError):
        discrete_mi_enumerate(pmf, ([0], [0]))


def test_digital_enumerations_pinned():
    # both enumeration oracles on the oracle suite's 9x9 grid, return rates
    # 0 and 0.01; measured while each hand-rolled its own joint-PMF loop
    grid = np.arange(0.05, 0.50, 0.05)
    values = [(mac_bounds_digital(bsc), _xi_by_enumeration(bsc))
              for r in (0.0, 0.01) for p_ba in grid for p_ea in grid
              for bsc in [BscParams(P_BA=float(p_ba), P_EA=float(p_ea),
                                    P_AB=r, P_EB=r, m_A=8)]]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "bbfc82e261d659f7ba5f094bef45517f2d324160e53c05eda541412fc3356ee4")


# ------------------------------------------------------------- SNR fits

def test_empirical_snr_known_gain():
    rng = stream(0, "snr")
    s = (rng.normal(size=50_000) + 1j * rng.normal(size=50_000)) / np.sqrt(2)
    noise = (rng.normal(size=50_000) + 1j * rng.normal(size=50_000)) * 0.5
    t = (2.0 - 1.0j) * s + noise
    # |a|^2 E|s|^2 / E|n|^2 = 5 / 0.5
    assert empirical_snr(s, t) == pytest.approx(10.0, rel=0.05)


def test_empirical_snr_needs_enough_samples():
    s = np.ones(10, dtype=complex)
    with pytest.raises(ParamError, match="1000"):
        empirical_snr(s, s)


def test_empirical_snr_zero_signal():
    z = np.zeros(2000, dtype=complex)
    t = np.ones(2000, dtype=complex)
    with pytest.raises(ParamError):
        empirical_snr(z, t)


def test_empirical_snr_noiseless_is_astronomical():
    # exact multiples leave only rounding dust in the residual
    rng = stream(1, "snr")
    s = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    assert empirical_snr(s, 3.0 * s) > 1e15
    assert math.isinf(empirical_snr(s, s.copy()))  # bit-identical residual 0


# ------------------------------------------------------------- suite

def test_term_oracles_pass_on_random_realizations():
    p = SystemParams()
    for seed in range(10):
        r = sample_channels(p, seed)
        for report in theorem1_term_oracles(p, r):
            assert report.passed, f"{report.name}: {report.abs_dev}"


def test_term_oracles_cover_both_directions_and_dual_routes():
    p = SystemParams()
    names = [r.name for r in theorem1_term_oracles(p, sample_channels(p, 0))]
    assert any("BA" in n and "conditional MI" in n for n in names)
    assert any("BA" in n and "whitened quadratic" in n for n in names)
    assert any("AB" in n and "conditional MI" in n for n in names)
    assert sum("gamma" in n for n in names) == 2


def test_full_suite_green_and_deterministic():
    a = run_oracle_suite(SystemParams(), rng_seed=0, n_realizations=40)
    b = run_oracle_suite(SystemParams(), rng_seed=0, n_realizations=40)
    assert all(r.passed for r in a)
    assert [(r.name, r.oracle) for r in a] == [(r.name, r.oracle) for r in b]
    # the suite tests every family: exact, statistical, and digital
    joined = " ".join(r.name for r in a)
    for fragment in ("alpha", "xi integrand", "gamma integrand", "xi_digital",
                     "MSE", "SNR", "echo power", "high-secret-power"):
        assert fragment in joined


def test_suite_honors_parameter_overrides():
    p = dataclasses.replace(SystemParams(), rho=0.8, n_E=3)
    reports = run_oracle_suite(p, rng_seed=1, n_realizations=30)
    assert all(r.passed for r in reports)
    alpha_report = next(r for r in reports if r.name == "alpha")
    assert alpha_report.closed_form == pytest.approx(-math.log2(1 - 0.64),
                                                     abs=1e-12)


@pytest.mark.parametrize("n", [0, -1])
def test_oracle_suite_rejects_no_realizations(n):
    # zero draws used to drop the ten per-realization checks and still pass
    with pytest.raises(ParamError, match="n_realizations must be >= 1"):
        run_oracle_suite(SystemParams(), n_realizations=n)
