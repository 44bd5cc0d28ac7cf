"""Linear MMSE estimation of the echoed secret, for Alice and for Eve.

Alice knows her own probes x_A and her probing observation of Bob, so her
channel estimate is hhat_BA = conj(rho) h_AB and her residual observation is

    r'_A = y_AB - hhat_BA x_A = (h_BA - hhat_BA) x_A + s + w_B + v_A.

Conditioned on x_A the covariance of r'_A is the rank-one-plus-diagonal
matrix (1 - |rho|^2) x_A x_A^H + g_A I with g_A = sigma_s2 + sigma_B2 +
eps_A, so the MMSE filter collapses to a closed rank-one update and the
estimator runs in O(m_A) with no dense inverse.

Eve has no reciprocity to lean on: she first estimates x_A from her probing
array snapshot e_A (per-symbol MMSE across her n_E antennas), subtracts
h_BA xhat_A from her return observation, and then scalar-MMSE-estimates the
secret.  Her floor is governed by phi_BA: the residual probe energy she
cannot remove acts as extra noise of variance |h_BA|^2 r_dx = phi_BA
sigma_B2.

Eve is granted exact knowledge of h_BA, the worst case for secrecy.

Every estimator takes one episode or a batch episode (see
``channel.simulate_episode``) and works along the last axis: a batch gives
per-trial (T,) MSE arrays, one episode gives floats.  Trial t of a batch
equals the estimate of its own episode bit for bit, and phi_BA comes from
the ``rates.draw_terms`` kernel on all trials at once.
``eve_estimate_s`` takes Eve's probe estimate when the caller already has it.

The inner products are numpy sums rather than BLAS calls, so an estimate
does not depend on the BLAS thread count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import AnalogEpisode, SimulationError
from .params import ParamError, SystemParams
from .rates import _realization_terms, phi

__all__ = [
    "EstimateResult",
    "alice_estimate_s",
    "alice_limit_mse",
    "eve_estimate_xA",
    "eve_estimate_s",
    "mse_ratio_eta",
]


@dataclass(frozen=True)
class EstimateResult:
    """An estimate plus its empirical and closed-form mean-square errors.

    ``empirical_mse`` is the per-entry average |estimate - truth|^2 over the
    episode; ``closedform_mse`` is the model-based prediction conditioned on
    the realized channels (and, where it matters, on the realized probes).
    For a batch episode both are (T,) arrays, one entry per trial.
    """

    estimate: np.ndarray
    empirical_mse: float | np.ndarray
    closedform_mse: float | np.ndarray

    def check(self) -> "EstimateResult":
        for name in ("empirical_mse", "closedform_mse"):
            mse = np.asarray(getattr(self, name))
            bad = ~(np.isfinite(mse) & (mse >= 0))
            if bad.any():
                raise ParamError(f"{name} must be finite and >= 0, "
                                 f"got {float(mse[bad].flat[0])!r}")
        return self


def _result(estimate: np.ndarray, empirical, closed) -> EstimateResult:
    """A checked result; one episode's MSEs as floats."""
    if np.ndim(empirical) == 0:
        empirical, closed = float(empirical), float(closed)
    return EstimateResult(estimate, empirical, closed).check()


def _require_echo(episode: AnalogEpisode) -> None:
    if not episode.complete:
        raise SimulationError("episode has no echo phase; run_echo first")


# =====================================================================
# Alice
# =====================================================================

def alice_estimate_s(episode: AnalogEpisode, params: SystemParams) -> EstimateResult:
    """Alice's MMSE estimate of Bob's secret sequence.

    Uses the rank-one (Sherman-Morrison) form of the filter,

        shat = (sigma_s2 / g) (r' - c x_A (x_A^H r')),
        c = (a / g) / (1 + a ||x_A||^2 / g),  a = 1 - |rho|^2,
        g = sigma_s2 + sigma_B2 + eps_A,

    which is exactly the dense-matrix MMSE solution evaluated in O(m_A).
    The closed-form MSE is the trace average of the conditional error
    covariance for the realized x_A:

        sigma_s2 (1 - sigma_s2/g)
          + sigma_s2 (sigma_s2/g) c ||x_A||^2 / m_A.
    """
    _require_echo(episode)
    x = episode.x_A
    m = x.shape[-1]
    a = 1.0 - abs(complex(params.rho)) ** 2
    g = params.sigma_s2 + params.sigma_B2 + params.eps_A
    conj_rho = np.conj(complex(params.rho))
    hhat = conj_rho * np.asarray(episode.realization.h_AB)
    r_prime = episode.y_AB - hhat[..., None] * x
    xnorm2 = np.sum(np.abs(x) ** 2, axis=-1)
    c = (a / g) / (1.0 + a * xnorm2 / g)
    proj = (np.conj(x) * r_prime).sum(axis=-1)
    estimate = (params.sigma_s2 / g) * (
        r_prime - c[..., None] * x * proj[..., None])
    closed = params.sigma_s2 * (1.0 - params.sigma_s2 / g) \
        + params.sigma_s2 * (params.sigma_s2 / g) * c * xnorm2 / m
    empirical = np.mean(np.abs(estimate - episode.s) ** 2, axis=-1)
    return _result(estimate, empirical, closed)


def alice_limit_mse(params: SystemParams) -> float:
    """Large-m_A limit of Alice's per-entry MSE.

    For (1 - |rho|^2) ||x_A||^2 >> g and eps_A << sigma_B2 the conditional
    MSE settles at sigma_s2 / (sigma_s2 / sigma_B2 + 1): the residual
    channel uncertainty stops mattering and only Bob's own receiver noise
    limits Alice.  Adequate once m_A >= 100 sigma_s2 / sigma_B2.
    """
    return float(params.sigma_s2 / (params.sigma_s2 / params.sigma_B2 + 1.0))


# =====================================================================
# Eve
# =====================================================================

def eve_estimate_xA(episode: AnalogEpisode, params: SystemParams) -> EstimateResult:
    """Eve's per-symbol MMSE estimate of Alice's probes from e_A.

        xhat_A(k) = p_A (p_A ||g_A||^2 + sigma_EA2)^{-1} g_A^H e_A(k)

    with per-symbol MSE r_dx = p_A / (p_A ||g_A||^2 / sigma_EA2 + 1).
    A zero gain vector degrades gracefully: xhat = 0 and MSE = p_A.
    """
    g = np.asarray(episode.realization.g_A)
    gnorm2 = np.sum(np.abs(g) ** 2, axis=-1)
    den = params.p_A * gnorm2 + params.sigma_EA2
    estimate = (params.p_A / den)[..., None] * (
        np.conj(g)[..., None] * episode.e_A).sum(axis=-2)
    closed = params.p_A / (params.p_A * gnorm2 / params.sigma_EA2 + 1.0)
    empirical = np.mean(np.abs(estimate - episode.x_A) ** 2, axis=-1)
    return _result(estimate, empirical, closed)


def eve_estimate_s(episode: AnalogEpisode, params: SystemParams, *,
                   probe_estimate: EstimateResult | None = None
                   ) -> EstimateResult:
    """Eve's linear MMSE estimate of the secret from her return observation.

    With h_BA granted she subtracts h_BA xhat_A and scalar-MMSE-filters what
    is left; the residual probe energy she cannot cancel has variance
    phi_BA sigma_B2, giving

        r_ds_E = sigma_s2 (phi_BA + 1) / (sigma_s2 / sigma_B2 + phi_BA + 1).

    ``probe_estimate`` is ``eve_estimate_xA`` of the same episode, computed
    here when not given.
    """
    _require_echo(episode)
    xr = probe_estimate
    if xr is None:
        xr = eve_estimate_xA(episode, params)
    if xr.estimate.shape != episode.x_A.shape:
        raise ParamError(f"probe estimate of shape {xr.estimate.shape} "
                         f"for probes of shape {episode.x_A.shape}")
    h = episode.realization.h_BA
    noise = np.square(np.abs(h)) * xr.closedform_mse + params.sigma_B2
    c = params.sigma_s2 / (params.sigma_s2 + noise)
    estimate = c[..., None] * (
        episode.y_EB - np.expand_dims(h, -1) * xr.estimate)
    p = _realization_terms(params, episode.realization)["phi_BA"]
    t = params.sigma_s2 / params.sigma_B2
    closed = params.sigma_s2 * (p + 1.0) / (t + p + 1.0)
    empirical = np.mean(np.abs(estimate - episode.s) ** 2, axis=-1)
    return _result(estimate, empirical, closed)


def mse_ratio_eta(params: SystemParams, realization) -> float:
    """Alice-to-Eve MSE ratio in the large-m_A regime.

        eta_AE = r_ds_A / r_ds_E
               = (t + phi_BA + 1) / ((t + 1)(phi_BA + 1)),
        t = sigma_s2 / sigma_B2.

    Bounded in (1 / (phi_BA + 1), 1): Alice always estimates at least as
    well as Eve, by a factor approaching phi_BA + 1 as the secret power
    grows.
    """
    p = phi(params, realization, "BA")
    t = params.sigma_s2 / params.sigma_B2
    return float((t + p + 1.0) / ((t + 1.0) * (p + 1.0)))
