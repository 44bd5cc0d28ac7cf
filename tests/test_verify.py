"""The oracles themselves: log-det MI, discrete MI, SNR fits, full suite."""
import dataclasses
import hashlib
import itertools
import math
import threading

import numpy as np
import pytest

from steeplab import (BscParams, ChannelRealization, OracleReport,
                      ParamError, SystemParams, alice_estimate_s,
                      binary_entropy, bsc_convolve,
                      discrete_mi_enumerate, empirical_snr,
                      eve_estimate_s, eve_estimate_xA, gaussian_mi_logdet,
                      mac_bounds_digital, per_realization_rates,
                      run_oracle_suite, sample_channels, simulate_episode,
                      theorem1_term_oracles, xi_digital)
from steeplab import _workers, rates, verify
from steeplab.verify import _TERM_BLOCK, _logdet2
from steeplab.seeds import _state, stream, subseed


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


def test_gaussian_mi_of_one_matrix_is_a_float():
    joint = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    got = gaussian_mi_logdet(joint[:1, :1], joint[1:, 1:], joint)
    assert type(got) is float
    assert got == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)


def test_logdet_of_a_stack_is_one_per_matrix():
    stack = np.array([np.eye(3) * v for v in (1.0, 4.0, 16.0)], dtype=complex)
    np.testing.assert_array_equal(_logdet2(stack), [0.0, 6.0, 12.0])
    assert [_logdet2(m) for m in stack] == [0.0, 6.0, 12.0]


@pytest.mark.parametrize("bad, match", [
    (np.array([[1.0, 0.5], [0.2, 1.0]]), "not Hermitian"),
    (np.array([[1.0, 2.0], [2.0, 1.0]]), "positive definite"),
])
def test_logdet_stack_with_one_bad_matrix_raises(bad, match):
    stack = np.array([np.eye(2)] * 5, dtype=complex)
    stack[3] = bad
    with pytest.raises(ParamError, match=match):
        _logdet2(stack)
    with pytest.raises(ParamError, match=match):
        gaussian_mi_logdet(stack[:, :1, :1], stack[:, 1:, 1:], stack)


def test_logdet_rejects_indefinite():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)  # eigenvalue -1
    good = np.eye(2, dtype=complex)
    joint = np.eye(4, dtype=complex)
    with pytest.raises(ParamError, match="positive definite"):
        gaussian_mi_logdet(bad, good, joint)


def test_logdet_rejects_a_matrix_off_hermitian_in_the_5th_digit():
    # Cholesky reads one triangle, so the two triangles gave 0.4150452 and
    # 0.4150375; numpy's default rtol of 1e-5 used to let this through
    joint = np.array([[1.0, 0.5], [0.500004, 1.0]])
    for cov in (joint, joint.T):
        with pytest.raises(ParamError, match="not Hermitian"):
            gaussian_mi_logdet(np.eye(1), np.eye(1), cov)


def test_logdet_hermitian_check_scales_with_the_entries():
    # at p_A = 1e8 a probe covariance G G^H one ulp off Hermitian is off by
    # far more than 1e-10, and its log-det still runs
    p = SystemParams(p_A=1e8)
    r = sample_channels(p, 0)
    cov = _generator(p.p_A, r.h_BA, r.g_A, p.sigma_B2, p.sigma_EA2)
    cov = cov @ cov.conj().T
    cov[1, 0] += np.spacing(cov[1, 0].real)
    assert np.abs(cov - cov.conj().T).max() > 1e-10
    assert np.isfinite(_logdet2(cov))


def test_ba_logdet_checks_pass_at_high_snr():
    # `verify-bounds --p_A 1e8 --seed 1 --n-realizations 50` draws these 50
    # realizations.  A Cholesky of the joint covariance cancels p_A |h|^2
    # against itself and missed the four BA checks by 1.4e-7 to 2.3e-7
    # bits; the QR of the generator keeps them near 1e-14
    p = SystemParams(p_A=1e8)
    r = sample_channels(p, [subseed(1, "oracle", t) for t in range(50)])
    reports = {rep.name: rep for rep in theorem1_term_oracles(p, r)}
    ba = [reports[name] for name in (
        "main-channel MI integrand BA", "eavesdropper MI integrand BA",
        "xi integrand BA (conditional MI)",
        "gamma integrand BA (MI difference)")]
    assert all(rep.tolerance == 1e-9 for rep in ba)
    assert all(rep.passed for rep in ba), [rep.abs_dev for rep in ba]


def test_ba_main_check_catches_a_relative_1e_8_error_at_high_snr(monkeypatch):
    # a negative control for the test above: main_BA scaled by 1 + 1e-8
    # moves log2(1 + main_BA) by about 1.4e-8 bits, which the clean oracle
    # resolves at p_A = 1e8
    p = SystemParams(p_A=1e8)
    r = sample_channels(p, [subseed(1, "oracle", t) for t in range(50)])
    name = "main-channel MI integrand BA"
    clean = {rep.name: rep for rep in theorem1_term_oracles(p, r)}[name]
    assert clean.passed, clean.abs_dev

    def scaled(params, realization):
        terms = dict(rates.draw_terms(params, realization))
        terms["main_BA"] = terms["main_BA"] * (1.0 + 1e-8)
        return terms

    monkeypatch.setattr(verify, "draw_terms", scaled)
    bad = {rep.name: rep for rep in theorem1_term_oracles(p, r)}[name]
    assert not bad.passed and bad.abs_dev > 1e-8, bad.abs_dev


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
    # NaN compares false with everything, so it must fail the checks
    for pmf in ([[0.5, math.nan]], np.full((2, 2), math.nan)):
        with pytest.raises(ParamError):
            discrete_mi_enumerate(np.array(pmf), ([0], [1]))


def test_discrete_mi_groups_must_partition():
    pmf = np.full((2, 2), 0.25)
    with pytest.raises(ParamError):
        discrete_mi_enumerate(pmf, ([0], [0]))


def _enumerated_xi(bsc):
    """xi of one parameter set by the 5-bit enumeration, as a float."""
    return float(verify._xi_enumerated(bsc.P_BA, bsc.P_EA, bsc.P_AB,
                                       bsc.P_EB))


def test_digital_enumerations_pinned():
    # both enumeration oracles on the oracle suite's 9x9 grid, return rates
    # 0 and 0.01; measured while each hand-rolled its own joint-PMF loop
    grid = np.arange(0.05, 0.50, 0.05)
    values = [(mac_bounds_digital(bsc), _enumerated_xi(bsc))
              for r in (0.0, 0.01) for p_ba in grid for p_ea in grid
              for bsc in [BscParams(P_BA=float(p_ba), P_EA=float(p_ea),
                                    P_AB=r, P_EB=r, m_A=8)]]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == (
        "bbfc82e261d659f7ba5f094bef45517f2d324160e53c05eda541412fc3356ee4")


def _reference_digital_reports():
    """The suite's two digital checks one grid point at a time: the worst
    point kept with a strict >, so the first of equal deviations wins."""
    grid = np.arange(0.05, 0.50, 0.05)
    dev_xi = dev_lu = 0.0
    at_xi = at_lu = (0.0, 0.0)
    for p_ba in grid:
        for p_ea in grid:
            bsc = BscParams(P_BA=float(p_ba), P_EA=float(p_ea),
                            P_AB=0.01, P_EB=0.01, m_A=8)
            closed = xi_digital(bsc)
            oracle = _enumerated_xi(bsc)
            if abs(closed - oracle) > dev_xi:
                dev_xi, at_xi = abs(closed - oracle), (closed, oracle)
            xi_l, xi_u = mac_bounds_digital(bsc)
            if abs(xi_l - xi_u) > dev_lu:
                dev_lu, at_lu = abs(xi_l - xi_u), (xi_l, xi_u)
    return [OracleReport.build(
                "xi_digital vs joint-PMF enumeration (worst on 9x9 grid)",
                at_xi[0], at_xi[1], 1e-12, n_samples="exact"),
            OracleReport.build(
                "digital secret-key bounds coincide (worst on 9x9 grid)",
                at_lu[0], at_lu[1], 1e-12, n_samples="exact")]


def test_digital_grid_equals_the_per_point_oracles():
    # every point, not just the worst one the suite reports and pins
    grid = np.arange(0.05, 0.50, 0.05)
    points = [BscParams(P_BA=float(p_ba), P_EA=float(p_ea), P_AB=0.01,
                        P_EB=0.01, m_A=8) for p_ba in grid for p_ea in grid]
    want = np.array([(xi_digital(bsc), _enumerated_xi(bsc),
                      *mac_bounds_digital(bsc)) for bsc in points])
    got = np.stack(verify._digital_grid(), axis=1)
    assert got.shape == (81, 4)
    assert got.tobytes() == want.tobytes()
    suite = run_oracle_suite(SystemParams(), rng_seed=0, n_realizations=1)
    assert repr([r for r in suite if "9x9 grid" in r.name]) == repr(
        _reference_digital_reports())


@pytest.mark.parametrize("n", [*range(1, 9), 9, 17, 130, 300])
def test_numpy_sum_order(n):
    # rates._row_sum adds every entry in np.sum's order at any length, onto
    # its zero start: columns 500-599 hold -0.0 and sum to 0.0
    rng = stream(n, "sum")
    terms = rng.standard_normal((n, 2000)) * np.logspace(0, 12, n)[:, None]
    terms[:, 500:600] = -0.0
    want = [np.sum(terms[:, k]) for k in range(2000)]
    assert rates._row_sum(terms.T).tobytes() == np.array(want).tobytes()
    if n > 8:
        return
    # the enumerations add the terms p log2(p / d) of a PMF's positive
    # entries in np.sum's order for a 1-D array of just those terms; with
    # p / d = 2**e the term is p * e exactly; columns 0-499 have every
    # entry positive
    pmf = np.where(rng.random((n, 2000)) < 0.3, 0.0,
                   rng.random((n, 2000)) * np.logspace(0, -12, n)[:, None])
    pmf[:, :500] = 0.5
    e = rng.integers(-40, 41, (n, 2000)).astype(float)
    terms = pmf * e
    want = [np.sum(terms[pmf[:, k] > 0.0, k]) for k in range(2000)]
    got = verify._sum_plog2(pmf, pmf * 2.0 ** -e, (2000,))
    assert got.tobytes() == np.array(want).tobytes()


def _entropy(pmf):
    q = pmf[pmf > 0.0]
    return float(-np.sum(q * np.log2(q)))


def _reference_xi_enumerated(bsc):
    """``_xi_enumerated`` one PMF at a time, through the public
    ``discrete_mi_enumerate``."""
    pmf = verify._joint_pmf((bsc.P_BA, bsc.P_EA, bsc.P_AB, bsc.P_EB),
                            lambda b_s, w_ba, w_ea, w_ab, w_eb:
                            (b_s, b_s ^ w_ba ^ w_ab, b_s ^ w_ea ^ w_ba ^ w_eb))
    i_ab = discrete_mi_enumerate(pmf.sum(axis=2), ((0,), (1,)))
    i_eb = discrete_mi_enumerate(pmf.sum(axis=1), ((0,), (1,)))
    return i_ab - i_eb


def _reference_mac_bounds_digital(bsc):
    """``mac_bounds_digital`` one PMF at a time, each entropy an
    ``np.sum`` over the positive entries."""
    xi_l = float(binary_entropy(bsc_convolve(bsc.P_BA, bsc.P_EA))
                 - binary_entropy(bsc.P_BA))
    pmf = verify._joint_pmf((bsc.P_BA, bsc.P_EA),
                            lambda a, w_ba, w_ea: (a, a ^ w_ba, a ^ w_ea))
    p_b_ea = pmf.sum(axis=0)
    h_b_given_ea = _entropy(p_b_ea) - _entropy(p_b_ea.sum(axis=0))
    h_b_given_a_ea = _entropy(pmf) - _entropy(pmf.sum(axis=1))
    return xi_l, float(h_b_given_ea - h_b_given_a_ea)


def test_digital_kernels_equal_the_per_point_reference():
    # 10^4 points, zero and subnormal rates among them, so PMF entries drop
    # out of the sums; the array kernels on all points at once give the
    # bits of each point's batch of one
    values = (0.0, 5e-324, 1e-300, 1e-12, 0.01, 0.1, 0.25, 0.3, 0.49, 0.5)
    points = [BscParams(*rates, m_A=8)
              for rates in itertools.product(values, repeat=4)]
    got = [(_enumerated_xi(b), *mac_bounds_digital(b)) for b in points]
    want = [(_reference_xi_enumerated(b),
             *_reference_mac_bounds_digital(b)) for b in points]
    assert repr(got) == repr(want)
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "b5e8c0b1e1d8fe4a139de33107c9fd901bae3e17419a39f1f92fdb80206809f9")
    p_ba, p_ea, p_ab, p_eb = np.array(
        [(b.P_BA, b.P_EA, b.P_AB, b.P_EB) for b in points]).T
    arrays = np.stack([verify._xi_enumerated(p_ba, p_ea, p_ab, p_eb),
                       *verify._mac_bounds(p_ba, p_ea)], axis=1)
    assert arrays.tobytes() == np.array(got).tobytes()


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

def _generator(p, h, g, var_main, var_eve):
    """One draw's generator G, Cov(x, y, e_1..e_nE) = G G^H: its columns
    are the white sources sqrt(p) w_x, sqrt(var_main) n, sqrt(var_eve) n_i."""
    n_e = g.shape[0]
    gen = np.zeros((2 + n_e, 2 + n_e), dtype=complex)
    gen[0, 0] = math.sqrt(p)
    gen[1:, 0] = math.sqrt(p) * np.concatenate(([h], g))
    gen[1, 1] = math.sqrt(var_main)
    gen[2:, 2:] = math.sqrt(var_eve) * np.eye(n_e)
    return gen


def _reference_term_oracles(params, realization):
    """The per-realization term oracles one draw at a time: every log-det
    from that draw's own generator and its own QR."""
    def logdet2(gen, rows):
        r = np.linalg.qr(gen[rows].conj().T, mode="r")
        return 2.0 * np.sum(np.log2(np.abs(np.diag(r))))

    def mi(gen, idx_u, idx_v):
        return (logdet2(gen, idx_u) + logdet2(gen, idx_v)
                - logdet2(gen, idx_u + idx_v))

    terms = per_realization_rates(params, realization)
    rho = complex(params.rho)
    cov_hh = np.array([[1.0, rho], [np.conj(rho), 1.0]])
    reports = [OracleReport.build(
        "alpha", -math.log2(1.0 - abs(rho) ** 2),
        gaussian_mi_logdet([[1.0]], [[1.0]], cov_hh), 1e-12)]
    for side, p, h, g, var_main, var_eve in (
            ("BA", params.p_A, realization.h_BA, realization.g_A,
             params.sigma_B2, params.sigma_EA2),
            ("AB", params.p_B, realization.h_AB, realization.g_B,
             params.sigma_A2, params.sigma_EB2)):
        n_e = g.shape[0]
        gen = _generator(p, h, g, var_main, var_eve)
        e_rows = list(range(2, 2 + n_e))
        i_xy = mi(gen, [0], [1])
        i_xe = mi(gen, [0], e_rows)
        i_x_ye = mi(gen, [0], [1] + e_rows)
        main, eve = getattr(terms, f"main_{side}"), getattr(terms, f"eve_{side}")
        xi, gamma = (getattr(terms, f"{k}_{side}_term") for k in ("xi", "gamma"))
        reports += [
            OracleReport.build(f"main-channel MI integrand {side}",
                               np.log2(1.0 + main), i_xy, 1e-9),
            OracleReport.build(f"eavesdropper MI integrand {side}",
                               np.log2(1.0 + eve), i_xe, 1e-9),
            OracleReport.build(f"xi integrand {side} (conditional MI)",
                               xi, i_x_ye - i_xe, 1e-9),
            OracleReport.build(f"gamma integrand {side} (MI difference)",
                               gamma, i_xy - i_xe, 1e-9)]
        if side == "BA":
            g_prime = np.concatenate(([h], g))
            d_inv = np.concatenate(([1.0 / var_main],
                                    np.full(n_e, 1.0 / var_eve)))
            quad = float(np.real(np.sum(d_inv * np.abs(g_prime) ** 2)))
            t2 = np.log2(p * quad + 1.0) - np.log2(eve + 1.0)
            reports.append(OracleReport.build(
                "xi integrand BA (whitened quadratic form)", xi, t2, 1e-9))
    return reports


def _reference_worst_terms(params, rng_seed, sizes):
    """The worst report per check over the first n draws, one draw at a
    time, for each n in ``sizes``: {n: reports}."""
    worst, snapshots = {}, {}
    for i in range(max(sizes)):
        realization = sample_channels(params, subseed(rng_seed, "oracle", i))
        for rep in _reference_term_oracles(params, realization):
            old = worst.get(rep.name)
            if old is None or rep.abs_dev > old.abs_dev:
                worst[rep.name] = rep
        if i + 1 in sizes:
            snapshots[i + 1] = [dataclasses.replace(rep, n_samples=i + 1)
                                for rep in worst.values()]
    return snapshots


# non-unit powers and noises, where p (g g^H) and (p g) g^H differ in bits
_POWERS = dict(p_A=2.7, p_B=0.6, sigma_A2=1.3, sigma_B2=0.8, sigma_EA2=1.9,
               sigma_EB2=0.45)


@pytest.mark.parametrize("overrides, seed, sizes", [
    (dict(n_E=1, rho=0.7), 0,
     (1, 7, _TERM_BLOCK - 1, _TERM_BLOCK, _TERM_BLOCK + 1)),
    (dict(n_E=2, rho=0.3 + 0.4j, **_POWERS), 3, (1, 7, _TERM_BLOCK + 1)),
    (dict(n_E=4, rho=0.5, **_POWERS), 8, (1, _TERM_BLOCK)),
    (dict(n_E=1, rho=-0.2 + 0.6j, **_POWERS), 13, (7,)),
    (dict(n_E=2, rho=0.95), 21, (7,)),
    (dict(n_E=4, rho=-0.6j), 34, (1, 7)),
])
def test_stacked_term_oracles_equal_one_draw_at_a_time(overrides, seed, sizes):
    params = dataclasses.replace(SystemParams(), **overrides)
    want = _reference_worst_terms(params, seed, sizes)
    for n in sizes:
        got = run_oracle_suite(params, rng_seed=seed, n_realizations=n)[:10]
        assert repr(got) == repr(want[n]), n


def test_term_blocks_merge_like_one_loop(monkeypatch):
    # blocks of three draws, so the worst draw is found across many blocks
    monkeypatch.setattr(verify, "_TERM_BLOCK", 3)
    params = dataclasses.replace(SystemParams(), n_E=3, rho=0.4 - 0.3j,
                                 **_POWERS)
    want = _reference_worst_terms(params, 5, (40,))
    got = run_oracle_suite(params, rng_seed=5, n_realizations=40)[:10]
    assert repr(got) == repr(want[40])


def test_term_oracles_of_one_draw_and_of_a_sequence():
    p = dataclasses.replace(SystemParams(), n_E=3, rho=0.2 - 0.5j, **_POWERS)
    draws = [sample_channels(p, seed) for seed in range(40)]
    for r in draws:
        assert repr(theorem1_term_oracles(p, r)) == repr(
            _reference_term_oracles(p, r))
    worst = theorem1_term_oracles(p, sample_channels(p, range(40)))
    assert {r.n_samples for r in worst} == {40}
    per_draw = [theorem1_term_oracles(p, r) for r in draws]
    for k, rep in enumerate(worst):
        devs = [reps[k].abs_dev for reps in per_draw]
        first = devs.index(max(devs))   # ties go to the first draw
        assert repr(rep) == repr(dataclasses.replace(per_draw[first][k],
                                                     n_samples=40))
    empty = ChannelRealization(np.zeros(0, complex), np.zeros(0, complex),
                               np.zeros((0, 3), complex),
                               np.zeros((0, 3), complex))
    with pytest.raises(ParamError, match="at least one"):
        theorem1_term_oracles(p, empty)


@pytest.mark.parametrize("powers", [{}, _POWERS], ids=["unit", "powers"])
def test_qr_mis_agree_with_cholesky_of_the_covariance(powers):
    # the QR route and the public Cholesky route on G G^H, at powers where
    # forming G G^H loses nothing that matters
    p = dataclasses.replace(SystemParams(), n_E=3, **powers)
    r = sample_channels(p, range(20))
    for h, g, power, var_main, var_eve in (
            (r.h_BA, r.g_A, p.p_A, p.sigma_B2, p.sigma_EA2),
            (r.h_AB, r.g_B, p.p_B, p.sigma_A2, p.sigma_EB2)):
        gen = np.array([_generator(power, h[k], g[k], var_main, var_eve)
                        for k in range(len(h))])
        cov = gen @ np.conj(np.swapaxes(gen, -1, -2))
        for u, v in (([0], [1]), ([0], [2, 3, 4]), ([0], [1, 2, 3, 4])):
            joint = u + v
            want = gaussian_mi_logdet(cov[:, u][:, :, u], cov[:, v][:, :, v],
                                      cov[:, joint][:, :, joint])
            got = verify._mi_of_rows(gen, u, v)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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


def _reference_mmse_reports(params, rng_seed):
    """The estimator-MSE checks one trial at a time: an episode and three
    estimator calls per trial, Eve's probe estimate made twice."""
    mmse_params = dataclasses.replace(verify._regime(params),
                                      m_A=max(params.m_A, 500))
    emp = {"alice": [], "eve_x": [], "eve_s": []}
    closed = {"alice": [], "eve_x": [], "eve_s": []}
    for t in range(200):
        episode = simulate_episode(mmse_params, subseed(rng_seed, "mmse", t))
        for key, fn in (("alice", alice_estimate_s), ("eve_x", eve_estimate_xA),
                        ("eve_s", eve_estimate_s)):
            res = fn(episode, mmse_params)
            emp[key].append(res.empirical_mse)
            closed[key].append(res.closedform_mse)
    labels = {
        "alice": "Alice secret-estimate MSE vs conditional closed form",
        "eve_x": "Eve probe-estimate MSE vs closed form",
        "eve_s": "Eve secret-estimate MSE vs closed form",
    }
    reports = []
    for key, label in labels.items():
        diff = np.asarray(emp[key]) - np.asarray(closed[key])
        se = float(np.std(diff, ddof=1) / math.sqrt(200))
        reports.append(OracleReport.build(
            label, float(np.mean(closed[key])), float(np.mean(emp[key])),
            max(3.0 * se, 1e-15), n_samples=200 * mmse_params.m_A))
    return reports


@pytest.mark.parametrize("overrides, seed", [
    ({}, 3),
    (dict(n_E=3, rho=0.3 + 0.4j, m_A=700, **_POWERS), 20231),
    (dict(m_A=501), 5),                     # four chunks of 49 trials, then 4
    (dict(n_E=2, m_A=2001, **_POWERS), 7),  # 16 chunks of 12 trials, then 8
])
def test_batched_mmse_reports_equal_one_trial_at_a_time(overrides, seed):
    params = dataclasses.replace(SystemParams(), **overrides)
    got = [r for r in run_oracle_suite(params, rng_seed=seed, n_realizations=2)
           if "MSE" in r.name]
    assert repr(got) == repr(_reference_mmse_reports(params, seed))


@pytest.mark.parametrize("m_A, chunks", [
    (8, [50] * 4),
    (2001, [12] * 16 + [8]),
    (700, [35] * 5 + [25]),
])
def test_mmse_trials_run_in_chunks_of_bounded_size(monkeypatch, m_A, chunks):
    calls = []

    def recording(params, rng_seed):
        episode = simulate_episode(params, rng_seed)
        calls.append(episode.x_A.shape)
        return episode

    monkeypatch.setattr(verify, "simulate_episode", recording)
    run_oracle_suite(dataclasses.replace(SystemParams(), m_A=m_A),
                     rng_seed=1, n_realizations=2)
    m = max(m_A, 500)
    # the SNR episode is drawn beside the MMSE trials, so it is told apart
    # by its shape, not by its place among the calls
    snr = [shape for shape in calls if len(shape) == 1]
    mmse = [shape for shape in calls if len(shape) == 2]
    assert mmse == [(t, m) for t in chunks]
    assert all(t * m <= verify._MMSE_CHUNK for t in chunks)
    assert snr == [(100_000,)]
    assert len(calls) == len(chunks) + 1


@pytest.mark.parametrize("cpus", [2, 3])
def test_suite_reports_do_not_depend_on_the_cpu_count(monkeypatch, cpus):
    params = dataclasses.replace(SystemParams(), m_A=700)
    monkeypatch.setattr(_workers, "usable_cpus", lambda: 1)
    want = run_oracle_suite(params, rng_seed=11, n_realizations=30)
    monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)
    got = run_oracle_suite(params, rng_seed=11, n_realizations=30)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("cpus", [2, 3])
def test_suite_from_a_busy_pool_job(monkeypatch, cpus):
    # with every other pool thread held, the suite runs on the last one: the
    # group and role jobs it hands the pool are never started there, so
    # they must run on the calling pool thread instead of waiting
    want = run_oracle_suite(SystemParams(), rng_seed=12, n_realizations=30)
    monkeypatch.setattr(_workers, "usable_cpus", lambda: cpus)
    release = threading.Event()
    held = [_workers.pool().submit(release.wait, 60) for _ in range(cpus - 2)]
    try:
        job = _workers.pool().submit(run_oracle_suite, SystemParams(), 12, 30)
        got = job.result(timeout=60)
    finally:
        release.set()
    assert all(h.result(timeout=60) for h in held)
    assert repr(got) == repr(want)


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


def test_alpha_oracle_checks_the_shipped_alpha(monkeypatch):
    # the row's closed form is rates.alpha itself, not a copy of it
    p = dataclasses.replace(SystemParams(), rho=0.7)

    def alpha_row():
        return next(r for r in theorem1_term_oracles(p, sample_channels(p, 0))
                    if r.name == "alpha")

    assert alpha_row().passed
    assert alpha_row().closed_form == rates.alpha(p)
    monkeypatch.setattr(verify, "alpha", lambda params: rates.alpha(params)
                        + 1e-6)
    assert not alpha_row().passed


def test_a_check_with_no_finite_bound_fails():
    # max(3 se, floor) is inf when the trials' MSEs overflow; such a check
    # used to pass whatever its deviation
    assert not OracleReport.build("x", 1.0, 2.0, math.inf).passed
    assert not OracleReport.build("x", 1.0, math.inf, math.inf).passed
    assert not OracleReport.build("x", 1.0, math.nan, 1.0).passed
    assert OracleReport.build("x", 1.0, 2.0, 1.0).passed


@pytest.mark.parametrize("n", [0, -1])
def test_oracle_suite_rejects_no_realizations(n):
    # zero draws used to drop the ten per-realization checks and still pass
    with pytest.raises(ParamError, match="n_realizations must be >= 1"):
        run_oracle_suite(SystemParams(), n_realizations=n)


@pytest.mark.parametrize("seed, match", [
    ([1, 2], "an integer, got"), (list(range(200)), "an integer, got"),
    (np.array(3), "an integer, got"), (True, "an integer, got True"),
    (-1, r"in \[0, 2\*\*64\)")])
def test_oracle_suite_checks_its_seed_on_entry(monkeypatch, seed, match):
    # a list used to fail in the MMSE trials with a message about batch
    # lengths; unchecked, a list of 200 would pass as the trials' seeds
    ran = []
    monkeypatch.setattr(verify, "_exact_group", lambda: ran.append(1))
    with pytest.raises(ParamError, match="seed must be " + match):
        run_oracle_suite(SystemParams(), seed, 5)
    assert not ran


def test_default_suite_makes_at_most_eight_hash_passes(monkeypatch):
    # two for the term draws' seeds and channels, one for the 200 MMSE trial
    # seeds and one per batch episode of 50 trials; the echo group's single
    # seeds hash no array.  Seven passes per batch episode made 34.
    calls = []

    def counting(words):
        calls.append(len(words[0]))
        return _state(words)

    monkeypatch.setattr("steeplab.seeds._state", counting)
    run_oracle_suite(SystemParams(), rng_seed=1)
    assert len(calls) <= 8
