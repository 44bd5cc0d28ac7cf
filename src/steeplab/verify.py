"""Independent oracles that check every closed form in the package.

Routes kept deliberately separate from the formulas they test:

* Gaussian mutual informations are recomputed from assembled covariance
  matrices by log-determinants (Cholesky), never by the closed forms.
* Discrete informations are recomputed by exact joint-PMF summation.
* Estimator MSEs, effective SNRs, and powers are recomputed from simulated
  signals.

All informations use the circular complex Gaussian convention
I = log2 det(Cov U) + log2 det(Cov V) - log2 det(Cov joint); real-valued
covariances passed in are interpreted under the same convention.

One-sided bounds are verified as bounds (the oracle must not exceed /
undershoot them); equalities are verified against tolerances recorded in
the reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .channel import sample_channels, simulate_episode
from .digital import (BscParams, binary_entropy, mac_bounds_digital,
                      xi_digital)
from .mmse import alice_estimate_s, eve_estimate_s, eve_estimate_xA
from .params import ChannelRealization, ParamError, SystemParams, validate
from .rates import (_drop_shared_terms, per_realization_rates, power_budget,
                    theorem2_draw_terms)
from .seeds import subseed

__all__ = [
    "OracleReport",
    "gaussian_mi_logdet",
    "discrete_mi_enumerate",
    "empirical_snr",
    "theorem1_term_oracles",
    "run_oracle_suite",
]


# =====================================================================
# Report container
# =====================================================================

@dataclass(frozen=True)
class OracleReport:
    """One closed form checked against one independent recomputation."""

    name: str
    closed_form: float
    oracle: float
    abs_dev: float
    rel_dev: float
    n_samples: int | str      # sample count, or "exact"
    tolerance: float
    passed: bool

    @staticmethod
    def build(name: str, closed_form: float, oracle: float, tolerance: float,
              n_samples: int | str = "exact") -> "OracleReport":
        abs_dev = abs(closed_form - oracle)
        scale = max(abs(closed_form), abs(oracle))
        rel_dev = abs_dev / scale if scale > 0 else 0.0
        return OracleReport(
            name=name, closed_form=float(closed_form), oracle=float(oracle),
            abs_dev=float(abs_dev), rel_dev=float(rel_dev),
            n_samples=n_samples, tolerance=float(tolerance),
            passed=bool(abs_dev <= tolerance),
        )


# =====================================================================
# Gaussian log-det oracle
# =====================================================================

def _logdet2(cov: np.ndarray) -> float:
    """log2 det of a Hermitian positive definite matrix, via Cholesky."""
    cov = np.atleast_2d(np.asarray(cov))
    if cov.shape[0] != cov.shape[1]:
        raise ParamError(f"covariance must be square, got {cov.shape}")
    if not np.allclose(cov, cov.conj().T, atol=1e-10):
        raise ParamError("covariance matrix is not Hermitian")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ParamError("covariance matrix is not positive definite") from exc
    return float(2.0 * np.sum(np.log2(np.real(np.diag(chol)))))


def gaussian_mi_logdet(cov_u: np.ndarray, cov_v: np.ndarray,
                       cov_joint: np.ndarray) -> float:
    """I(U; V) in bits from marginal and joint covariances.

    Circular complex Gaussian convention: independent blocks give exactly
    zero; a scalar pair with correlation c gives -log2(1 - |c|^2).
    """
    cov_u = np.atleast_2d(np.asarray(cov_u))
    cov_v = np.atleast_2d(np.asarray(cov_v))
    cov_joint = np.atleast_2d(np.asarray(cov_joint))
    if cov_u.shape[0] + cov_v.shape[0] != cov_joint.shape[0]:
        raise ParamError("joint covariance dimension must equal dim U + dim V")
    return _logdet2(cov_u) + _logdet2(cov_v) - _logdet2(cov_joint)


def _mi_of_groups(cov: np.ndarray, idx_u, idx_v) -> float:
    """MI between two index groups of one joint covariance."""
    idx_u, idx_v = list(idx_u), list(idx_v)
    joint_idx = idx_u + idx_v
    return gaussian_mi_logdet(
        cov[np.ix_(idx_u, idx_u)],
        cov[np.ix_(idx_v, idx_v)],
        cov[np.ix_(joint_idx, joint_idx)],
    )


# =====================================================================
# Discrete enumeration oracle
# =====================================================================

def discrete_mi_enumerate(pmf: np.ndarray, groups) -> float:
    """Exact I(U; V) in bits by summation over a joint PMF array.

    ``groups`` is a pair (axes_u, axes_v) that must partition the pmf axes.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    axes_u, axes_v = (tuple(g) for g in groups)
    all_axes = sorted(axes_u + axes_v)
    if all_axes != list(range(pmf.ndim)) or set(axes_u) & set(axes_v):
        raise ParamError("groups must partition the pmf axes")
    if np.any(pmf < 0.0):
        raise ParamError("pmf entries must be nonnegative")
    total = float(pmf.sum())
    if abs(total - 1.0) > 1e-9:
        raise ParamError(f"pmf must sum to 1, got {total!r}")
    p_u = pmf.sum(axis=axes_v, keepdims=True)
    p_v = pmf.sum(axis=axes_u, keepdims=True)
    mask = pmf > 0.0
    ratio = np.ones_like(pmf)
    denom = (p_u * p_v)
    np.divide(pmf, denom, out=ratio, where=mask)
    return float(np.sum(pmf[mask] * np.log2(ratio[mask])))


# =====================================================================
# Empirical oracles
# =====================================================================

def empirical_snr(s: np.ndarray, t: np.ndarray) -> float:
    """Sample SNR of ``t`` as an observation of ``s``.

    Fits the single complex gain a minimizing ||t - a s||^2 and returns
    |a|^2 mean|s|^2 / mean|t - a s|^2.  Needs at least 1000 samples for a
    stable fit; a noiseless observation returns ``inf`` as the cap value.
    """
    s = np.asarray(s)
    t = np.asarray(t)
    if s.shape != t.shape or s.ndim != 1:
        raise ParamError("s and t must be one-dimensional with equal length")
    if s.shape[0] < 1000:
        raise ParamError("empirical_snr needs at least 1000 samples")
    s_pow = float(np.mean(np.abs(s) ** 2))
    if s_pow == 0.0:
        raise ParamError("reference signal has zero power")
    a = np.vdot(s, t) / np.vdot(s, s)
    resid = float(np.mean(np.abs(t - a * s) ** 2))
    if resid == 0.0:
        return float("inf")
    return float(abs(a) ** 2 * s_pow / resid)


# =====================================================================
# Per-realization information-term oracles
# =====================================================================

def _probe_covariance(p: float, h: complex, g: np.ndarray,
                      var_main: float, var_eve: float) -> np.ndarray:
    """Joint covariance of (x, y, e_1..e_nE) for one probing direction."""
    g = np.asarray(g)
    n_e = g.shape[0]
    dim = 2 + n_e
    cov = np.zeros((dim, dim), dtype=complex)
    cov[0, 0] = p
    cov[0, 1] = p * np.conj(h)
    cov[1, 0] = p * h
    cov[1, 1] = p * abs(h) ** 2 + var_main
    cov[0, 2:] = p * np.conj(g)
    cov[2:, 0] = p * g
    cov[1, 2:] = p * h * np.conj(g)
    cov[2:, 1] = p * np.conj(h) * g
    cov[2:, 2:] = p * np.outer(g, np.conj(g)) + var_eve * np.eye(n_e)
    return cov


def theorem1_term_oracles(params: SystemParams,
                          realization: ChannelRealization) -> list[OracleReport]:
    """Check every per-realization log term against log-det recomputation.

    Covariances are assembled for a single probe symbol; the probe count
    enters the session bounds only as a multiplier, so one symbol settles
    the integrands.
    """
    validate(params)
    realization.check_for(params)
    terms = per_realization_rates(params, realization)
    tol = 1e-9
    reports: list[OracleReport] = []

    rho = complex(params.rho)
    cov_hh = np.array([[1.0, rho], [np.conj(rho), 1.0]])
    reports.append(OracleReport.build(
        "alpha", -math.log2(1.0 - abs(rho) ** 2),
        gaussian_mi_logdet([[1.0]], [[1.0]], cov_hh), 1e-12))

    sides = (
        ("BA", params.p_A, realization.h_BA, realization.g_A,
         params.sigma_B2, params.sigma_EA2, terms.main_BA, terms.eve_BA,
         terms.xi_BA_term, terms.gamma_BA_term),
        ("AB", params.p_B, realization.h_AB, realization.g_B,
         params.sigma_A2, params.sigma_EB2, terms.main_AB, terms.eve_AB,
         terms.xi_AB_term, terms.gamma_AB_term),
    )
    for (side, p, h, g, var_main, var_eve, main, eve, xi_term,
         gamma_term) in sides:
        g = np.asarray(g)
        n_e = g.shape[0]
        cov = _probe_covariance(p, h, g, var_main, var_eve)
        e_axes = list(range(2, 2 + n_e))
        i_xy = _mi_of_groups(cov, [0], [1])
        i_xe = _mi_of_groups(cov, [0], e_axes)
        i_x_ye = _mi_of_groups(cov, [0], [1] + e_axes)

        reports.append(OracleReport.build(
            f"main-channel MI integrand {side}", math.log2(1.0 + main), i_xy, tol))
        reports.append(OracleReport.build(
            f"eavesdropper MI integrand {side}", math.log2(1.0 + eve), i_xe, tol))
        reports.append(OracleReport.build(
            f"xi integrand {side} (conditional MI)", xi_term, i_x_ye - i_xe, tol))
        reports.append(OracleReport.build(
            f"gamma integrand {side} (MI difference)", gamma_term, i_xy - i_xe, tol))

        if side == "BA":
            # independent second route for the same conditional-MI term:
            # whitened quadratic form over the stacked observation
            g_prime = np.concatenate(([h], g))
            d_inv = np.concatenate(([1.0 / var_main], np.full(n_e, 1.0 / var_eve)))
            quad = float(np.real(np.sum(d_inv * np.abs(g_prime) ** 2)))
            t2 = math.log2(p * quad + 1.0) - math.log2(eve + 1.0)
            reports.append(OracleReport.build(
                "xi integrand BA (whitened quadratic form)", xi_term, t2, tol))
    return reports


# =====================================================================
# Full suite
# =====================================================================

def _regime(params: SystemParams) -> SystemParams:
    """Premise overrides for echo-phase checks: eps well under sigma_B2."""
    eps = 1e-9 * params.sigma_B2
    return dc_replace(params, eps_A=eps, eps_E=eps)


def run_oracle_suite(params: SystemParams, rng_seed: int = 0,
                     n_realizations: int = 200) -> list[OracleReport]:
    """Run every oracle at one parameter point; returns all reports.

    Information-term oracles sweep ``n_realizations`` channel draws and
    report the worst deviation.  Echo-phase empirical checks override the
    return noises to 1e-9 sigma_B2, inside the regime the closed forms
    assume; everything else runs at the given parameters.
    """
    validate(params)
    reports: list[OracleReport] = []

    # --- per-realization information terms, worst case over draws -----
    worst: dict[str, OracleReport] = {}
    for i in range(n_realizations):
        realization = sample_channels(params, subseed(rng_seed, "oracle", i))
        for rep in theorem1_term_oracles(params, realization):
            old = worst.get(rep.name)
            if old is None or rep.abs_dev > old.abs_dev:
                worst[rep.name] = rep
    for name, rep in worst.items():
        reports.append(dc_replace(rep, n_samples=n_realizations))

    # --- digital closed forms vs exact enumeration --------------------
    grid = np.arange(0.05, 0.50, 0.05)
    dev_xi = 0.0
    dev_lu = 0.0
    at_xi = at_lu = (0.0, 0.0)
    for p_ba in grid:
        for p_ea in grid:
            bsc = BscParams(P_BA=float(p_ba), P_EA=float(p_ea),
                            P_AB=0.01, P_EB=0.01, m_A=8)
            closed = xi_digital(bsc, mode="exact")
            oracle = _xi_by_enumeration(bsc)
            if abs(closed - oracle) > dev_xi:
                dev_xi, at_xi = abs(closed - oracle), (closed, oracle)
            xi_l, xi_u = mac_bounds_digital(bsc)
            if abs(xi_l - xi_u) > dev_lu:
                dev_lu, at_lu = abs(xi_l - xi_u), (xi_l, xi_u)
    reports.append(OracleReport.build(
        "xi_digital vs joint-PMF enumeration (worst on 9x9 grid)",
        at_xi[0], at_xi[1], 1e-12, n_samples="exact"))
    reports.append(OracleReport.build(
        "digital secret-key bounds coincide (worst on 9x9 grid)",
        at_lu[0], at_lu[1], 1e-12, n_samples="exact"))

    # --- binary entropy vs channel MI ---------------------------------
    p = 0.1
    pmf = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    reports.append(OracleReport.build(
        "BSC(0.1) capacity 1 - f(0.1)", 1.0 - binary_entropy(p),
        discrete_mi_enumerate(pmf, ((0,), (1,))), 1e-12))

    # --- estimator MSE oracles (paired Monte Carlo) --------------------
    reg = _regime(params)
    n_trials = 200
    emp = {"alice": [], "eve_x": [], "eve_s": []}
    closed = {"alice": [], "eve_x": [], "eve_s": []}
    mmse_params = dc_replace(reg, m_A=max(reg.m_A, 500))
    for t in range(n_trials):
        episode = simulate_episode(mmse_params, subseed(rng_seed, "mmse", t))
        res_a = alice_estimate_s(episode, mmse_params)
        res_x = eve_estimate_xA(episode, mmse_params)
        res_s = eve_estimate_s(episode, mmse_params)
        for key, res in (("alice", res_a), ("eve_x", res_x), ("eve_s", res_s)):
            emp[key].append(res.empirical_mse)
            closed[key].append(res.closedform_mse)
    labels = {
        "alice": "Alice secret-estimate MSE vs conditional closed form",
        "eve_x": "Eve probe-estimate MSE vs closed form",
        "eve_s": "Eve secret-estimate MSE vs closed form",
    }
    n_eff = {"alice": mmse_params.m_A, "eve_x": mmse_params.m_A,
             "eve_s": mmse_params.m_A}
    for key, label in labels.items():
        diff = np.asarray(emp[key]) - np.asarray(closed[key])
        se = float(np.std(diff, ddof=1) / math.sqrt(n_trials))
        reports.append(OracleReport.build(
            label, float(np.mean(closed[key])), float(np.mean(emp[key])),
            max(3.0 * se, 1e-15), n_samples=n_trials * n_eff[key]))

    # --- echo-phase SNRs from raw signals ------------------------------
    snr_params = dc_replace(reg, m_A=100_000)
    episode = simulate_episode(snr_params, subseed(rng_seed, "snr"))
    terms = per_realization_rates(snr_params, episode.realization)
    t_a = episode.y_AB - episode.realization.h_BA * episode.x_A
    xhat = eve_estimate_xA(episode, snr_params).estimate
    t_e = episode.y_EB - episode.realization.h_BA * xhat
    for label, sig, want in (
            ("Alice residual SNR", t_a, terms.snr_AB),
            ("Eve residual SNR", t_e, terms.snr_EB)):
        got = empirical_snr(episode.s, sig)
        reports.append(OracleReport.build(
            label, want, got, 0.03 * want, n_samples=snr_params.m_A))

    # --- echo power budget ---------------------------------------------
    p_r, _ = power_budget(snr_params, episode.realization)
    reports.append(OracleReport.build(
        "echo power identity", p_r, float(np.mean(np.abs(episode.r) ** 2)),
        0.02 * p_r, n_samples=snr_params.m_A))

    # --- analog secrecy rate approaches its probing-limit cap ----------
    lim_params = dc_replace(params, sigma_s2=1e6 * params.sigma_B2)
    draws = theorem2_draw_terms(lim_params, 4000, subseed(rng_seed, "crn"))
    lim = float(np.mean(draws["xi_BA"]))
    got = float(np.mean(draws["xi_BA_prime"]))
    _drop_shared_terms()  # no other check reads this batch
    reports.append(OracleReport.build(
        "high-secret-power limit of the echo rate", lim, got,
        0.005 * lim, n_samples=4000))

    return reports


def _xi_by_enumeration(bsc: BscParams) -> float:
    """xi recomputed by exact enumeration over all five bit variables."""
    # axes: (b_s, bbar_AB, bbar_EB)
    pmf = np.zeros((2, 2, 2))
    rates = (bsc.P_BA, bsc.P_EA, bsc.P_AB, bsc.P_EB)
    for b_s in (0, 1):
        for w in np.ndindex(2, 2, 2, 2):
            prob = 0.5
            for bit, rate in zip(w, rates):
                prob *= rate if bit else (1.0 - rate)
            w_ba, w_ea, w_ab, w_eb = w
            bbar_ab = b_s ^ w_ba ^ w_ab
            bbar_eb = b_s ^ w_ea ^ w_ba ^ w_eb
            pmf[b_s, bbar_ab, bbar_eb] += prob
    i_ab = discrete_mi_enumerate(pmf.sum(axis=2), ((0,), (1,)))
    i_eb = discrete_mi_enumerate(pmf.sum(axis=1), ((0,), (1,)))
    return i_ab - i_eb
