"""Closed-form secrecy bounds and rates for probe-echo key generation.

Setting: reciprocal SISO fading between Alice and Bob (gains h_AB, h_BA,
jointly Gaussian, unit variances, cross-correlation rho) observed by a
passive Eve with n_E antennas (gain vectors g_A, g_B, per-antenna noise
sigma_EA2 / sigma_EB2).  Alice sends m_A probes of power p_A, Bob m_B probes
of power p_B.  All rates are in bits; all logs base 2.

Central per-realization quantity, direction Bob-from-Alice:

    phi_BA = (p_A |h_BA|^2 / sigma_B2) / (p_A ||g_A||^2 / sigma_EA2 + 1)

i.e. the legitimate probing SNR discounted by Eve's probing SNR plus one.
The A-from-B direction swaps every role.  Expectations over the channel
ensemble are estimated by plain Monte Carlo over i.i.d. channel draws, with
the standard error reported alongside each estimated term.

One vectorized kernel, ``draw_terms``, holds every per-draw formula; the
scalar functions run it on a single draw, and each bound below is a mean
(with standard error) over its output.  ``theorem1_draw_terms`` keeps the
terms of its last batch per thread, as sweep workers run points at once,
so the bounds ``cli.run_rates`` asks for at one ``(params, n_draws,
rng_seed)`` reduce one batch, sampled once, and terms that coincide
analytically coincide to the last bit.  Callers done with it release it.

Bounds computed here:

* ``theorem1_bounds``  - secret-key capacity bracket for two-way probing
  with an ideal public discussion phase:

      C_A = alpha + m_B xi_AB + m_A gamma_BA
      C_B = alpha + m_A xi_BA + m_B gamma_AB
      C_E = alpha + m_A xi_BA + m_B xi_AB

  with alpha = -log2(1 - |rho|^2), xi = E log2(1 + phi) and
  gamma = E log2((snr_main + 1) / (snr_eve + 1)).  max(C_A, C_B) lower- and
  min(I(A;B), C_E) upper-bound the key capacity; C_E is the conditional
  mutual information term of the bracket.

* ``corollary1_capacity`` - with one-way probing (m_B = 0 or m_A = 0) the
  bracket closes: C_key = alpha + m_A xi_BA (resp. alpha + m_B xi_AB).

* ``theorem2_lower_bound`` / ``theorem3_lower_bound`` - achievable secrecy
  rates of the echo protocol itself (Bob embeds a secret sequence of power
  sigma_s2 in his echo), without any public-discussion idealization.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .channel import sample_channel_batch
from .params import ChannelRealization, ParamError, RateReport, SystemParams, validate
from .seeds import stream

__all__ = [
    "alpha",
    "draw_terms",
    "phi",
    "PerRealizationRates",
    "per_realization_rates",
    "theorem1_draw_terms",
    "theorem1_bounds",
    "corollary1_capacity",
    "theorem2_draw_terms",
    "theorem2_lower_bound",
    "theorem3_lower_bound",
    "effective_snrs",
    "xi_tilde_analog",
    "power_budget",
]


# =====================================================================
# The draw-term kernel
# =====================================================================

def alpha(params: SystemParams) -> float:
    """Reciprocity rate alpha = -log2(1 - |rho|^2), in bits.

    The key material both sides share before any probing is exchanged; it
    diverges as |rho| -> 1 and vanishes for uncorrelated gains.
    """
    return float(-np.log2(1.0 - abs(complex(params.rho)) ** 2))


def draw_terms(params: SystemParams, h_AB, h_BA, g_A, g_B,
               xnorm2=None) -> dict[str, np.ndarray]:
    """Every per-draw term of the bounds, for a batch of channel draws.

    Gains ``h_AB``, ``h_BA`` have the batch shape, (n,) or () for one
    draw, and ``g_A``, ``g_B`` that shape plus (n_E,); only magnitudes
    enter.  ``alpha_prime`` needs ``xnorm2``, the energy ||x_A||^2 of
    Alice's probe sequence in each draw.  Returns arrays of the batch
    shape; t = sigma_s2 / sigma_B2 and XY is a probing direction (BA:
    Alice's probes at Bob and Eve; AB swaps every role):

        main_XY, eve_XY  probing SNRs p_A |h_BA|^2 / sigma_B2 (Bob) and
                         p_A ||g_A||^2 / sigma_EA2 (Eve)
        phi_XY, xi_XY    main / (eve + 1), log2(1 + phi)
        gamma_XY         log2((main + 1) / (eve + 1))
        xi_BA_prime      log2(1 + phi_BA t / (1 + phi_BA + t)), the echo
                         rate xi~ = log2(1 + snr_AB) - log2(1 + snr_EB)
        xi_bar_BA        log2(1 + eta_s phi_BA), eta_s = t / (t + 1)
        snr_AB, snr_EB   secret SNRs after the echo: t at Alice,
                         t / (phi_BA + 1) at Eve
        alpha_prime      log2((u + 1 / (1 - |rho|^2)) / (u + 1)),
                         u = xnorm2 / (sigma_s2 + sigma_B2)
    """
    sides = (
        ("BA", params.p_A * np.abs(h_BA) ** 2 / params.sigma_B2,
         params.p_A * (np.abs(g_A) ** 2).sum(axis=-1) / params.sigma_EA2),
        ("AB", params.p_B * np.abs(h_AB) ** 2 / params.sigma_A2,
         params.p_B * (np.abs(g_B) ** 2).sum(axis=-1) / params.sigma_EB2),
    )
    terms: dict[str, np.ndarray] = {}
    for side, main, eve in sides:
        phi_ = main / (eve + 1.0)
        terms[f"main_{side}"] = main
        terms[f"eve_{side}"] = eve
        terms[f"phi_{side}"] = phi_
        terms[f"xi_{side}"] = np.log2(1.0 + phi_)
        terms[f"gamma_{side}"] = np.log2((main + 1.0) / (eve + 1.0))
    phi_ba = terms["phi_BA"]
    t = params.sigma_s2 / params.sigma_B2
    terms["xi_BA_prime"] = np.log2(1.0 + phi_ba * t / (1.0 + phi_ba + t))
    terms["xi_bar_BA"] = np.log2(1.0 + t / (t + 1.0) * phi_ba)
    terms["snr_AB"] = np.full(np.shape(phi_ba), t)
    terms["snr_EB"] = t / (phi_ba + 1.0)
    if xnorm2 is not None:
        u = xnorm2 / (params.sigma_s2 + params.sigma_B2)
        leak = 1.0 / (1.0 - abs(complex(params.rho)) ** 2)
        terms["alpha_prime"] = np.log2((u + leak) / (u + 1.0))
    return terms


@dataclass(frozen=True)
class PerRealizationRates:
    """Every per-draw log term, conditioned on one channel realization.

    The ``*_term`` fields are the integrands whose channel-ensemble averages
    give the corresponding rates; they are what the log-det oracles check.
    """

    phi_BA: float
    phi_AB: float
    xi_BA_term: float        # log2(1 + phi_BA)
    xi_AB_term: float
    gamma_BA_term: float     # log2((snr_BA + 1) / (snr_EA + 1))
    gamma_AB_term: float
    xi_bar_BA_term: float    # log2(1 + eta_s phi_BA), eta_s = t/(t+1)
    xi_prime_BA_term: float  # log2(1 + phi_BA t / (1 + phi_BA + t))
    snr_AB: float            # secret-to-noise ratio at Alice after echo
    snr_EB: float            # same at Eve, discounted by phi_BA + 1
    xi_tilde: float          # log2(1 + snr_AB) - log2(1 + snr_EB) = xi'
    main_BA: float           # probing SNRs of Alice's probes at Bob, at Eve
    eve_BA: float
    main_AB: float           # the same for Bob's probes, at Alice and at Eve
    eve_AB: float

    def as_dict(self) -> dict[str, float]:
        return {k: float(getattr(self, k)) for k in self.__dataclass_fields__}


def per_realization_rates(params: SystemParams,
                          realization: ChannelRealization) -> PerRealizationRates:
    """All closed-form log terms for one channel draw: ``draw_terms`` on a
    single draw, the batch shape ()."""
    realization.check_for(params)
    # Python's abs gives the |h_BA|^2 that power_budget uses, to the last bit
    terms = draw_terms(params, abs(realization.h_AB), abs(realization.h_BA),
                       np.asarray(realization.g_A), np.asarray(realization.g_B))
    # field names are the kernel's, with a "_term" suffix on the integrands
    renamed = {"xi_prime_BA_term": "xi_BA_prime", "xi_tilde": "xi_BA_prime"}
    return PerRealizationRates(**{
        f: float(terms[renamed.get(f, f.removesuffix("_term"))])
        for f in PerRealizationRates.__dataclass_fields__})


def phi(params: SystemParams, realization: ChannelRealization,
        direction: str = "BA") -> float:
    """Eavesdropping-discounted probing SNR for one channel draw."""
    if direction not in ("BA", "AB"):
        raise ParamError(f"direction must be 'BA' or 'AB', got {direction!r}")
    return getattr(per_realization_rates(params, realization), f"phi_{direction}")


# =====================================================================
# One channel batch per thread, shared by every reduction
# =====================================================================

# what the reductions read, plus phi_BA for callers of theorem1_draw_terms
_SHARED_TERMS = ("phi_BA", "xi_BA", "xi_AB", "gamma_BA", "gamma_AB",
                 "xi_BA_prime", "snr_AB", "snr_EB", "alpha_prime")
_shared = threading.local()


def theorem1_draw_terms(params: SystemParams, n_draws: int,
                        rng_seed: int) -> dict[str, np.ndarray]:
    """The ``draw_terms`` arrays every bound reduces, for one channel batch.

    Entries: phi_BA, xi_BA, xi_AB, gamma_BA, gamma_AB, xi_BA_prime, snr_AB,
    snr_EB and, when m_A >= 1, alpha_prime: the energy of m_A i.i.d.
    CN(0, p_A) probes is (p_A / 2) chi^2 with 2 m_A degrees of freedom.
    Each thread keeps the arrays (read-only) of its last ``(params,
    n_draws, rng_seed)``, so repeat calls reuse the batch; a new key drops
    them before sampling.  The dict is fresh on each call.
    """
    key = (params, n_draws, rng_seed)
    entry = getattr(_shared, "entry", None)
    if entry is None or entry[0] != key:
        _drop_shared_terms()
        # magnitudes are all the kernel reads; the complex batch goes first
        batch = [np.abs(a)
                 for a in sample_channel_batch(params, rng_seed, n_draws)]
        xnorm2 = None
        if params.m_A >= 1:
            xnorm2 = 0.5 * params.p_A * stream(rng_seed, "xnorm").chisquare(
                2 * params.m_A, size=n_draws)
        terms = draw_terms(params, *batch, xnorm2)
        kept = {name: terms[name] for name in _SHARED_TERMS if name in terms}
        for arr in kept.values():
            arr.flags.writeable = False
        entry = _shared.entry = (key, kept)
    return dict(entry[1])


def _drop_shared_terms() -> None:
    _shared.entry = None


def theorem2_draw_terms(params: SystemParams, n_draws: int,
                        rng_seed: int) -> dict[str, np.ndarray]:
    """``theorem1_draw_terms`` for the echo-protocol bounds, which need
    Alice's probes: raises ParamError unless m_A >= 1."""
    if params.m_A < 1:
        raise ParamError("echo-protocol bounds need m_A >= 1")
    return theorem1_draw_terms(params, n_draws, rng_seed)


def _mean_se(arr: np.ndarray) -> tuple[float, float]:
    n = arr.shape[0]
    se = float(np.std(arr, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(arr)), se


# =====================================================================
# Two-way probing bracket (ideal public discussion)
# =====================================================================

def theorem1_bounds(params: SystemParams, n_draws: int = 10_000,
                    rng_seed: int = 0) -> RateReport:
    """Secret-key capacity bracket for two-way probing, in bits per session.

    Returns a report with alpha (exact), the four Monte Carlo expectation
    terms with standard errors, and the three session totals C_A, C_B, C_E.
    max(C_A, C_B) is achievable; min over the ideal-channel bound and C_E
    caps what any scheme can distill.
    """
    validate(params)
    terms = theorem1_draw_terms(params, n_draws, rng_seed)
    a = alpha(params)
    values: dict[str, float] = {"alpha": a}
    stderr: dict[str, float] = {}
    for name in ("xi_BA", "xi_AB", "gamma_BA", "gamma_AB"):
        values[name], stderr[name] = _mean_se(terms[name])

    m_A, m_B = params.m_A, params.m_B
    c_a = a + m_B * terms["xi_AB"] + m_A * terms["gamma_BA"]
    c_b = a + m_A * terms["xi_BA"] + m_B * terms["gamma_AB"]
    c_e = a + m_A * terms["xi_BA"] + m_B * terms["xi_AB"]
    for name, draws in (("C_A", c_a), ("C_B", c_b), ("C_E", c_e)):
        values[name], stderr[name] = _mean_se(draws)

    notes = []
    if m_A > 0 and m_B > 0:
        notes.append(
            "two-way probing: C_A or C_B can go negative when Eve's probing "
            "SNR dominates; the bracket stays valid, only the guaranteed "
            "positive one-way floor is lost"
        )
    return RateReport(params=params, values=values, stderr=stderr, notes=notes).check()


def corollary1_capacity(params: SystemParams, n_draws: int = 10_000,
                        rng_seed: int = 0) -> float:
    """Exact key capacity under one-way probing, bits per session.

    With probes in only one direction the bracket of ``theorem1_bounds``
    closes: the capacity equals alpha + m_A E log2(1 + phi_BA) (Alice
    probing) or alpha + m_B E log2(1 + phi_AB) (Bob probing).  Uses the same
    channel batch as ``theorem1_bounds`` for a shared seed, so the two
    agree draw for draw.
    """
    validate(params)
    if (params.m_A == 0) == (params.m_B == 0):
        raise ParamError("one-way probing required: exactly one of m_A, m_B "
                         "must be zero")
    terms = theorem1_draw_terms(params, n_draws, rng_seed)
    # same per-draw combination as theorem1_bounds so the results agree
    # bit for bit, not just statistically
    if params.m_B == 0:
        draws = alpha(params) + params.m_A * terms["xi_BA"]
    else:
        draws = alpha(params) + params.m_B * terms["xi_AB"]
    return _mean_se(draws)[0]


# =====================================================================
# Echo-protocol lower bounds (no public-discussion idealization)
# =====================================================================

def _echo_bound_report(params: SystemParams, n_draws: int, rng_seed: int,
                       with_eta: bool) -> RateReport:
    validate(params)
    if with_eta and not (params.eps_A > 0 and params.eps_E > 0):
        raise ParamError("theorem2_lower_bound needs eps_A > 0 and eps_E > 0 "
                         "so that eta = eps_E / eps_A is finite")
    terms = theorem2_draw_terms(params, n_draws, rng_seed)
    values: dict[str, float] = {}
    stderr: dict[str, float] = {}
    for name in ("alpha_prime", "xi_BA_prime"):
        values[name], stderr[name] = _mean_se(terms[name])
    total = values["alpha_prime"] + params.m_A * values["xi_BA_prime"]
    values["theorem3_lower"] = total
    notes = []
    if with_eta:
        eta = params.eps_E / params.eps_A
        values["eta"] = eta
        values["eta_term"] = params.m_A * math.log2(eta)
        values["theorem2_lower"] = total + values["eta_term"]
        notes.append(
            "eta is the Eve-to-Alice return-noise ratio eps_E / eps_A; the "
            "eta-free bound drops this term by letting Bob hash his secret "
            "sequence before privacy amplification"
        )
    return RateReport(params=params, values=values, stderr=stderr, notes=notes).check()


def theorem2_lower_bound(params: SystemParams, n_draws: int = 10_000,
                         rng_seed: int = 0) -> RateReport:
    """Achievable secrecy rate of the analog echo protocol, bits per session.

    C'_B >= alpha' + m_A xi'_BA + m_A log2(eta) with eta = eps_E / eps_A,
    valid for eps_A, eps_E well below sigma_B2.  The three addends are
    reported separately (keys alpha_prime, xi_BA_prime, eta_term).
    """
    return _echo_bound_report(params, n_draws, rng_seed, with_eta=True)


def theorem3_lower_bound(params: SystemParams, n_draws: int = 10_000,
                         rng_seed: int = 0) -> RateReport:
    """Eta-free echo-protocol bound: alpha' + m_A xi'_BA.

    Identical computation to ``theorem2_lower_bound`` without the
    m_A log2(eta) term, so it is invariant to the return-noise ratio.
    """
    return _echo_bound_report(params, n_draws, rng_seed, with_eta=False)


# =====================================================================
# Echo-phase diagnostics
# =====================================================================

def effective_snrs(params: SystemParams,
                   realization: ChannelRealization) -> tuple[float, float]:
    """Secret-to-noise ratios after probe cancellation, (Alice, Eve).

    Alice knows her own probes and (for eps_A << sigma_B2) strips them
    perfectly: snr_AB = sigma_s2 / sigma_B2.  Eve must first estimate the
    probes from her own observations, which costs her a factor phi_BA + 1:
    snr_EB = (sigma_s2 / sigma_B2) / (phi_BA + 1).
    """
    terms = per_realization_rates(params, realization)
    return terms.snr_AB, terms.snr_EB


def xi_tilde_analog(params: SystemParams,
                    realization: ChannelRealization) -> float:
    """Per-symbol secrecy rate of the analog echo for one channel draw.

    log2(1 + snr_AB) - log2(1 + snr_EB)
      = log2(1 + phi_BA t / (1 + phi_BA + t)),  t = sigma_s2 / sigma_B2.

    Strictly positive whenever phi_BA > 0 and capped by log2(1 + phi_BA),
    which it approaches as t -> infinity.
    """
    return per_realization_rates(params, realization).xi_tilde


def power_budget(params: SystemParams,
                 realization: ChannelRealization) -> tuple[float, float]:
    """Bob's echo power and the recommended secret power for one draw.

    Returns:
        ``(p_r, sigma_s2_reco)`` with p_r = |h_BA|^2 p_A + sigma_B2 +
        sigma_s2.  Matching the secret power to the received probe power,
        sigma_s2 = |h_BA|^2 p_A, makes the echo spend about half its power
        on the secret: p_r ~ 2 sigma_s2 once sigma_B2 is negligible.
    """
    recv = abs(realization.h_BA) ** 2 * params.p_A
    p_r = recv + params.sigma_B2 + params.sigma_s2
    return float(p_r), float(recv)
