"""Independent oracles that check every closed form in the package.

Routes kept deliberately separate from the formulas they test:

* Gaussian mutual informations are recomputed by log-determinants, never
  by the closed forms.  ``theorem1_term_oracles`` builds each draw's
  generator G (Cov = G G^H) and takes every log-det from a QR of rows of
  G, without forming the covariance; only the public
  ``gaussian_mi_logdet``, which takes covariances, uses Cholesky.  It takes
  one channel realization or a batch realization; the draws are one stack
  of generators, so each log-det is one stacked QR over all of them, and
  ``run_oracle_suite`` passes its draws in blocks of a fixed size.
* Discrete informations are recomputed by exact joint-PMF summation
  (``_joint_pmf``): the digital xi and ``mac_bounds_digital``'s upper bound,
  each one array kernel for the per-point functions and the suite's grid,
  whose sums are ``rates._row_sum``'s, in ``np.sum``'s order.
* Estimator MSEs, effective SNRs, and powers are recomputed from simulated
  signals.  Their sample reductions are numpy sums, never BLAS calls,
  whose split of a long sum depends on the BLAS thread count.

All informations use the circular complex Gaussian convention
I = log2 det(Cov U) + log2 det(Cov V) - log2 det(Cov joint); real-valued
covariances passed in are interpreted under the same convention.

One-sided bounds are verified as bounds (the oracle must not exceed /
undershoot them); equalities are verified against tolerances recorded in
the reports.  A check over many draws or grid points reports the point of
its largest deviation, the first on a tie (``_worst``).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import _workers
from .channel import sample_channels, simulate_episode
from .digital import (BscParams, _exact_rates, _xi_of_rates, binary_entropy,
                      bsc_convolve)
from .mmse import alice_estimate_s, eve_estimate_s, eve_estimate_xA
from .params import ChannelRealization, ParamError, SystemParams, _integer
from .rates import (_realization_terms, _row_sum, alpha,
                    per_realization_rates, power_budget, theorem1_draw_terms)
from .seeds import _seed_int, _subseeds, subseed

__all__ = [
    "OracleReport",
    "gaussian_mi_logdet",
    "discrete_mi_enumerate",
    "mac_bounds_digital",
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


def _worst(name: str, closed_form, oracle, tolerance: float,
           n_samples: int | str = "exact") -> OracleReport:
    """The report of one check over many points, at the point of largest
    deviation, the first on a tie."""
    closed_form, oracle = np.asarray(closed_form), np.asarray(oracle)
    k = int(np.argmax(np.abs(closed_form - oracle)))
    return OracleReport.build(name, float(closed_form[k]), float(oracle[k]),
                              tolerance, n_samples)


# =====================================================================
# Gaussian log-det oracle
# =====================================================================

def _logdet2(cov: np.ndarray) -> float | np.ndarray:
    """log2 det of Hermitian positive definite matrices, via Cholesky.

    ``cov`` is one matrix, which gives a float, or a stack ``(..., k, k)``,
    which gives an array of its leading shape from one Hermitian check and
    one Cholesky; any bad matrix in the stack raises.  A matrix is Hermitian
    when its largest |C - C^H| is at most 1e-10 of its largest |entry|:
    Cholesky reads one triangle, so a looser check would let the two
    triangles give two answers."""
    cov = np.atleast_2d(np.asarray(cov))
    if cov.shape[-2] != cov.shape[-1]:
        raise ParamError(f"covariance must be square, got {cov.shape}")
    skew = np.abs(cov - np.conj(np.swapaxes(cov, -1, -2)))
    if not np.all(skew.max(axis=(-2, -1), initial=0.0)
                  <= 1e-10 * np.abs(cov).max(axis=(-2, -1), initial=0.0)):
        raise ParamError("covariance matrix is not Hermitian")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ParamError("covariance matrix is not positive definite") from exc
    logdet = 2.0 * np.sum(
        np.log2(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)
    return float(logdet) if cov.ndim == 2 else logdet


def gaussian_mi_logdet(cov_u: np.ndarray, cov_v: np.ndarray,
                       cov_joint: np.ndarray) -> float | np.ndarray:
    """I(U; V) in bits from marginal and joint covariances.

    Circular complex Gaussian convention: independent blocks give exactly
    zero; a scalar pair with correlation c gives -log2(1 - |c|^2).  Stacks
    of covariances ``(..., k, k)`` give one MI per matrix.
    """
    cov_u = np.atleast_2d(np.asarray(cov_u))
    cov_v = np.atleast_2d(np.asarray(cov_v))
    cov_joint = np.atleast_2d(np.asarray(cov_joint))
    if cov_u.shape[-1] + cov_v.shape[-1] != cov_joint.shape[-1]:
        raise ParamError("joint covariance dimension must equal dim U + dim V")
    return _logdet2(cov_u) + _logdet2(cov_v) - _logdet2(cov_joint)


def _mi_of_rows(gen: np.ndarray, idx_u: list[int],
                idx_v: list[int]) -> np.ndarray:
    """I(U; V) in bits between two row groups of each generator in a stack
    (R, k, n), whose covariance is Cov = G G^H.

    No covariance is formed: log2 det Cov_S is 2 sum log2 |R_ii| for the R
    of a QR of G_S^H, the rows S of G, so the log-dets keep the generator's
    condition number, where Cholesky of G G^H would square it."""
    def logdet2(rows):
        r = np.linalg.qr(np.conj(np.swapaxes(gen[:, rows], -1, -2)),
                         mode="r")
        return 2.0 * np.sum(np.log2(np.abs(
            np.diagonal(r, axis1=-2, axis2=-1))), axis=-1)
    return logdet2(idx_u) + logdet2(idx_v) - logdet2(idx_u + idx_v)


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
    if not np.all(pmf >= 0.0):   # NaN fails too
        raise ParamError("pmf entries must be nonnegative")
    total = float(pmf.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ParamError(f"pmf must sum to 1, got {total!r}")
    p_u = pmf.sum(axis=axes_v, keepdims=True)
    p_v = pmf.sum(axis=axes_u, keepdims=True)
    mask = pmf > 0.0
    ratio = np.ones_like(pmf)
    denom = (p_u * p_v)
    np.divide(pmf, denom, out=ratio, where=mask)
    return float(np.sum(pmf[mask] * np.log2(ratio[mask])))


def _joint_pmf(rates, derive) -> np.ndarray:
    """Exact PMF of the three bits ``derive(b, *w)`` over a fair bit b and
    one Bernoulli(rate) flip w_i per rate, summed in ``np.ndindex`` order.

    Rates may be arrays of one shape: then the PMF has shape (2, 2, 2) plus
    that shape, each point the PMF of its own rates."""
    pmf = np.zeros((2, 2, 2) + np.broadcast(*rates).shape)
    for bits in itertools.product((0, 1), repeat=1 + len(rates)):
        prob = 0.5
        for bit, rate in zip(bits[1:], rates):
            prob *= rate if bit else (1.0 - rate)
        pmf[derive(*bits)] += prob
    return pmf


def _sum_plog2(pmf: np.ndarray, denom, points: tuple) -> np.ndarray:
    """Sum of pmf log2(pmf / denom) over the positive entries at each point
    of a (2, ..., 2) + points PMF, as ``np.sum`` adds them: minus the entropy
    for ``denom`` 1, the MI of two bits for the product of their marginals.

    ``rates._row_sum`` adds every entry's term in ``np.sum``'s order, a
    zero one for the other entries, which changes no bit below 8 entries.
    At 8, a zero entry leaves ``np.sum`` fewer than 8 terms, which it adds
    in turn, not by its pairwise tree."""
    mask = pmf > 0.0
    ratio = np.divide(pmf, denom, out=np.ones_like(pmf), where=mask)
    terms = np.moveaxis((pmf * np.log2(ratio)).reshape(-1, *points), 0, -1)
    total = _row_sum(terms)
    if terms.shape[-1] == 8:
        in_turn = _row_sum(terms[..., :7])
        in_turn += terms[..., 7]
        total = np.where(mask.reshape(8, *points).all(axis=0), total, in_turn)
    return total


def _xi_enumerated(p_ba, p_ea, p_ab, p_eb):
    """I(b_s; bbar_AB) - I(b_s; bbar_EB) over all five bits, per rate point."""
    # axes: (b_s, bbar_AB, bbar_EB)
    pmf = _joint_pmf((p_ba, p_ea, p_ab, p_eb),
                     lambda b_s, w_ba, w_ea, w_ab, w_eb:
                     (b_s, b_s ^ w_ba ^ w_ab, b_s ^ w_ea ^ w_ba ^ w_eb))
    i_ab, i_eb = (_sum_plog2(p, p.sum(axis=1, keepdims=True)
                             * p.sum(axis=0, keepdims=True), pmf.shape[3:])
                  for p in (pmf.sum(axis=2), pmf.sum(axis=1)))
    return i_ab - i_eb


def _mac_bounds(p_ba, p_ea):
    """The two bounds of ``mac_bounds_digital``, per rate point."""
    xi_l = binary_entropy(bsc_convolve(p_ba, p_ea)) - binary_entropy(p_ba)
    pmf = _joint_pmf((p_ba, p_ea),
                     lambda a, w_ba, w_ea: (a, a ^ w_ba, a ^ w_ea))
    p_b_ea = pmf.sum(axis=0)
    h_b_ea, h_ea, h_a_b_ea, h_a_ea = (
        -_sum_plog2(p, 1.0, pmf.shape[3:])
        for p in (p_b_ea, p_b_ea.sum(axis=0), pmf, pmf.sum(axis=1)))
    return xi_l, (h_b_ea - h_ea) - (h_a_b_ea - h_a_ea)


def mac_bounds_digital(bsc: BscParams) -> tuple[float, float]:
    """Lower and upper secret-key bounds for the probing data sets.

    The probing phase alone gives Alice b_A, Bob b_B = b_A xor w_BA, Eve
    b_EA = b_A xor w_EA.  The lower bound is the closed form
    f(P_BA * P_EA) - f(P_BA); the upper bound H(b_B | b_EA) -
    H(b_B | b_A, b_EA) comes from the exact joint PMF over
    (b_A, b_B, b_EA).  The two coincide for every valid parameter set.
    """
    return tuple(float(v) for v in _mac_bounds(bsc.P_BA, bsc.P_EA))


def _digital_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``xi_digital(bsc)``, its enumeration ``_xi_enumerated`` and the two
    values of ``mac_bounds_digital(bsc)`` from their kernels, as arrays over
    the 81 points of the suite's grid: every (P_BA, P_EA) pair of
    ``np.arange(0.05, 0.50, 0.05)``, P_BA outer, and P_AB = P_EB = 0.01."""
    grid = np.arange(0.05, 0.50, 0.05)
    p_ba, p_ea = np.repeat(grid, grid.size), np.tile(grid, grid.size)
    r = 0.01
    return (_xi_of_rates(*_exact_rates(p_ba, p_ea, r, r)),
            _xi_enumerated(p_ba, p_ea, r, r), *_mac_bounds(p_ba, p_ea))


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
    a = (np.conj(s) * t).sum() / (np.conj(s) * s).sum()
    resid = float(np.mean(np.abs(t - a * s) ** 2))
    if resid == 0.0:
        return float("inf")
    return float(abs(a) ** 2 * s_pow / resid)


# =====================================================================
# Per-realization information-term oracles
# =====================================================================

def theorem1_term_oracles(params: SystemParams,
                          realizations: ChannelRealization) -> list[OracleReport]:
    """Check every per-realization log term against log-det recomputation.

    ``realizations`` is one draw or a batch realization.  The draws of a
    batch are checked as one stack; then each check reports the draw with
    the largest deviation (the first on a tie), with ``n_samples`` the
    number of draws.  The closed forms come from one ``rates.draw_terms``
    call on the stacked draws, which gives each draw the bits
    ``per_realization_rates`` gives it.  Each draw's MIs come from its
    generator for a single probe symbol (``_mi_of_rows``); the probe count
    enters the session bounds only as a multiplier, so one symbol settles
    the integrands.
    """
    r = realizations   # one draw is checked as the batch of one
    batch = ChannelRealization(np.atleast_1d(r.h_AB), np.atleast_1d(r.h_BA),
                               np.atleast_2d(r.g_A), np.atleast_2d(r.g_B))
    n_draws = np.size(batch.h_BA)
    if n_draws == 0:
        raise ParamError("theorem1_term_oracles needs at least one realization")
    terms = _realization_terms(params, batch)

    tol = 1e-9
    # (name, closed form per draw, oracle per draw, tolerance)
    checks: list[tuple] = []

    rho = complex(params.rho)
    cov_hh = np.array([[1.0, rho], [np.conj(rho), 1.0]])
    checks.append(("alpha", [alpha(params)],
                   [gaussian_mi_logdet([[1.0]], [[1.0]], cov_hh)], 1e-12))

    sides = (("BA", params.p_A, "h_BA", "g_A", params.sigma_B2,
              params.sigma_EA2),
             ("AB", params.p_B, "h_AB", "g_B", params.sigma_A2,
              params.sigma_EB2))
    for side, p, h_name, g_name, var_main, var_eve in sides:
        # gains and noise variances of the observations y, e_1..e_nE
        gains = np.concatenate((getattr(batch, h_name)[:, None],
                                getattr(batch, g_name)), axis=1)
        n_e = gains.shape[1] - 1
        noise = np.array([var_main] + [var_eve] * n_e)
        # rows x, y, e_1..e_nE; columns the white sources sqrt(p) w_x,
        # sqrt(var_main) n and sqrt(var_eve) n_i
        gen = np.zeros((n_draws, 2 + n_e, 2 + n_e), dtype=complex)
        gen[:, 0, 0] = math.sqrt(p)
        gen[:, 1:, 0] = math.sqrt(p) * gains
        gen[:, 1:, 1:] = np.diag(np.sqrt(noise))
        e_rows = list(range(2, 2 + n_e))
        i_xy = _mi_of_rows(gen, [0], [1])
        i_xe = _mi_of_rows(gen, [0], e_rows)
        i_x_ye = _mi_of_rows(gen, [0], [1] + e_rows)
        checks += [
            (f"main-channel MI integrand {side}",
             np.log2(1.0 + terms[f"main_{side}"]), i_xy, tol),
            (f"eavesdropper MI integrand {side}",
             np.log2(1.0 + terms[f"eve_{side}"]), i_xe, tol),
            (f"xi integrand {side} (conditional MI)",
             terms[f"xi_{side}"], i_x_ye - i_xe, tol),
            (f"gamma integrand {side} (MI difference)",
             terms[f"gamma_{side}"], i_xy - i_xe, tol),
        ]

        if side == "BA":
            # independent second route for the same conditional-MI term:
            # whitened quadratic form over the stacked observation
            quad = np.sum(1.0 / noise * np.abs(gains) ** 2, axis=-1)
            t2 = np.log2(p * quad + 1.0) - np.log2(terms["eve_BA"] + 1.0)
            checks.append(("xi integrand BA (whitened quadratic form)",
                           terms["xi_BA"], t2, tol))

    n_samples = "exact" if np.ndim(r.h_BA) == 0 else n_draws
    return [_worst(*check, n_samples) for check in checks]


# =====================================================================
# Full suite
# =====================================================================

# realizations per stacked call of theorem1_term_oracles in run_oracle_suite;
# fixed, so memory stays bounded at any n_realizations
_TERM_BLOCK = 256
# most samples per signal in one batch episode of the MMSE trials: a quarter
# of the suite's SNR episode, which is drawn beside them, so a large m_A does
# not raise peak memory
_MMSE_CHUNK = 25_000


def _regime(params: SystemParams) -> SystemParams:
    """Premise overrides for echo-phase checks: eps well under sigma_B2."""
    eps = 1e-9 * params.sigma_B2
    return dc_replace(params, eps_A=eps, eps_E=eps)


def _term_group(params: SystemParams, rng_seed: int,
                n_realizations: int) -> list[OracleReport]:
    """The per-realization information terms, worst case over the draws."""
    worst: dict[str, OracleReport] = {}
    for lo in range(0, n_realizations, _TERM_BLOCK):
        seeds = _subseeds(rng_seed, "oracle",
                          range(lo, min(lo + _TERM_BLOCK, n_realizations)))
        for rep in theorem1_term_oracles(params,
                                         sample_channels(params, seeds)):
            old = worst.get(rep.name)
            if old is None or rep.abs_dev > old.abs_dev:
                worst[rep.name] = rep
    return [dc_replace(rep, n_samples=n_realizations) for rep in worst.values()]


def _exact_group() -> list[OracleReport]:
    """The digital closed forms and the BSC capacity vs exact enumeration."""
    xi, xi_enum, xi_l, xi_u = _digital_grid()
    reports = [
        _worst("xi_digital vs joint-PMF enumeration (worst on 9x9 grid)",
               xi, xi_enum, 1e-12),
        _worst("digital secret-key bounds coincide (worst on 9x9 grid)",
               xi_l, xi_u, 1e-12)]
    p = 0.1
    pmf = np.array([[0.5 * (1 - p), 0.5 * p], [0.5 * p, 0.5 * (1 - p)]])
    reports.append(OracleReport.build(
        "BSC(0.1) capacity 1 - f(0.1)", 1.0 - binary_entropy(p),
        discrete_mi_enumerate(pmf, ((0,), (1,))), 1e-12))
    return reports


def _mmse_group(params: SystemParams, rng_seed: int) -> list[OracleReport]:
    """The estimator MSEs over paired Monte Carlo trials: batch episodes of
    consecutive trials, trial t the episode of its own seed, each of at most
    _MMSE_CHUNK samples per signal or of one trial.  The trial seeds come
    from one ``_subseeds`` pass."""
    n_trials = 200
    mmse_params = dc_replace(_regime(params), m_A=max(params.m_A, 500))
    chunk = max(1, _MMSE_CHUNK // mmse_params.m_A)
    labels = ("Alice secret-estimate MSE vs conditional closed form",
              "Eve probe-estimate MSE vs closed form",
              "Eve secret-estimate MSE vs closed form")
    mses: dict[str, tuple[list, list]] = {label: ([], []) for label in labels}
    seeds = _subseeds(rng_seed, "mmse", range(n_trials))
    for lo in range(0, n_trials, chunk):
        episode = simulate_episode(mmse_params, seeds[lo:lo + chunk])
        probe = eve_estimate_xA(episode, mmse_params)
        results = (alice_estimate_s(episode, mmse_params), probe,
                   eve_estimate_s(episode, mmse_params, probe_estimate=probe))
        for label, res in zip(labels, results):
            mses[label][0].append(res.empirical_mse)
            mses[label][1].append(res.closedform_mse)
    reports = []
    for label, (emp, closed) in mses.items():
        emp, closed = np.concatenate(emp), np.concatenate(closed)
        se = float(np.std(emp - closed, ddof=1) / math.sqrt(n_trials))
        reports.append(OracleReport.build(
            label, float(np.mean(closed)), float(np.mean(emp)),
            max(3.0 * se, 1e-15), n_samples=n_trials * mmse_params.m_A))
    return reports


def _echo_group(params: SystemParams, rng_seed: int) -> list[OracleReport]:
    """Echo-phase SNRs from raw signals and the echo power budget, on one
    10^5-probe episode, then the echo rate's high-secret-power limit."""
    snr_params = dc_replace(_regime(params), m_A=100_000)
    episode = simulate_episode(snr_params, subseed(rng_seed, "snr"))
    terms = per_realization_rates(snr_params, episode.realization)
    h_ba = episode.realization.h_BA
    # each residual is freed once its SNR is fitted: the MMSE trials run
    # beside this group, so its peak adds to theirs
    snr_a = empirical_snr(episode.s, episode.y_AB - h_ba * episode.x_A)
    xhat = eve_estimate_xA(episode, snr_params).estimate
    snr_e = empirical_snr(episode.s, episode.y_EB - h_ba * xhat)
    reports = [OracleReport.build(label, want, got, 0.03 * want,
                                  n_samples=snr_params.m_A)
               for label, want, got in (
                   ("Alice residual SNR", terms.snr_AB, snr_a),
                   ("Eve residual SNR", terms.snr_EB, snr_e))]

    p_r, _ = power_budget(snr_params, episode.realization)
    reports.append(OracleReport.build(
        "echo power identity", p_r, float(np.mean(np.abs(episode.r) ** 2)),
        0.02 * p_r, n_samples=snr_params.m_A))

    lim_params = dc_replace(params, sigma_s2=1e6 * params.sigma_B2)
    draws = theorem1_draw_terms(lim_params, 4000, subseed(rng_seed, "crn"))
    lim = float(np.mean(draws["xi_BA"]))
    got = float(np.mean(draws["xi_BA_prime"]))
    reports.append(OracleReport.build(
        "high-secret-power limit of the echo rate", lim, got,
        0.005 * lim, n_samples=4000))
    return reports


def run_oracle_suite(params: SystemParams, rng_seed: int = 0,
                     n_realizations: int = 200) -> list[OracleReport]:
    """Run every oracle at one parameter point; returns all reports.

    Information-term oracles sweep ``n_realizations`` channel draws and
    report the worst deviation.  Echo-phase empirical checks override the
    return noises to 1e-9 sigma_B2, inside the regime the closed forms
    assume; everything else runs at the given parameters.

    The exact digital and BSC checks run first.  Then the calling thread
    runs the MMSE trials while the shared pool runs the information terms,
    the echo episode's checks and the limit check: two groups that share
    no data, handed to one ``_workers.in_order``.  Neither group calls the
    pool itself, and each draws only its own streams, so the reports have
    the same bits at any CPU count; they come back in a fixed order.
    ``rng_seed`` is one seed, checked on entry.
    """
    rng_seed = _seed_int(rng_seed)
    n_realizations = _integer("n_realizations", n_realizations, 1)
    exact = _exact_group()
    # Each group allocates in its own thread's malloc arena, so neither
    # reuses the pages the other frees: about 6,600 minor page faults per
    # suite at the defaults, where running the groups in turn took 5,600.
    mmse, (terms, echo) = _workers.in_order(lambda group: group(), (
        lambda: _mmse_group(params, rng_seed),
        lambda: (_term_group(params, rng_seed, n_realizations),
                 _echo_group(params, rng_seed))), 2)
    return terms + exact + mmse + echo
