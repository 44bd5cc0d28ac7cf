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
scalar functions run it on a single draw, which gives that draw's terms in
a batch bit for bit, and each bound below is a mean (with standard error)
over its output.  Each ``theorem1_draw_terms`` call samples its own batch;
a bound given that batch as ``terms`` reduces it instead of sampling, so
``cli.run_rates`` samples once per report and terms that coincide
analytically coincide to the last bit.

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
  bracket closes: C_key = C_E, the mean of its per-draw total, either way.

* ``theorem2_lower_bound`` / ``theorem3_lower_bound`` - achievable secrecy
  rates of the echo protocol itself (Bob embeds a secret sequence of power
  sigma_s2 in his echo), without any public-discussion idealization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import sample_channel_batch
from .params import (ChannelRealization, ParamError, RateReport, SystemParams,
                     _integer)
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


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` of a C-contiguous ``a``, bit for bit for any
    signs.  Below 8 columns numpy adds them in turn, and so does this, by
    adds of whole columns; numpy adds the sum to a zero start, and adding
    the zero last gives the same bits, since addition commutes and 0.0
    changes only the sign of -0.0.  From 8 columns on numpy sums each row
    pairwise, and that order follows the memory layout, so a view is
    summed as its contiguous copy."""
    if a.shape[-1] >= 8:
        return np.ascontiguousarray(a).sum(axis=-1)
    out = a[..., 0].copy()
    for i in range(1, a.shape[-1]):
        out += a[..., i]
    out += 0.0   # numpy's start: a sum of only -0.0 terms is 0.0
    return out


def draw_terms(params: SystemParams, h_AB, h_BA, g_A, g_B,
               xnorm2=None) -> dict[str, np.ndarray]:
    """Every per-draw term of the bounds, for a batch of channel draws.

    Gains ``h_AB``, ``h_BA`` have the batch shape, (n,) or () for one
    draw, and ``g_A``, ``g_B`` that shape plus (n_E,); only magnitudes
    enter.  ``alpha_prime`` needs ``xnorm2``, the energy ||x_A||^2 of
    Alice's probe sequence in each draw.  Returns arrays of the batch
    shape, numpy scalars for one draw; t = sigma_s2 / sigma_B2 and XY is a
    probing direction (BA: Alice's probes at Bob and Eve; AB swaps every
    role):

        main_XY, eve_XY  probing SNRs p_A |h_BA|^2 / sigma_B2 (Bob) and
                         p_A ||g_A||^2 / sigma_EA2 (Eve)
        phi_XY, xi_XY    main / (eve + 1), log2(1 + phi)
        gamma_XY         log2((main + 1) / (eve + 1))
        xi_BA_prime      log2(1 + phi_BA t / (1 + phi_BA + t)), the echo
                         rate xi~ = log2(1 + snr_AB) - log2(1 + snr_EB)
        snr_AB, snr_EB   secret SNRs after the echo: t at Alice,
                         t / (phi_BA + 1) at Eve
        alpha_prime      log2((u + 1 / (1 - |rho|^2)) / (u + 1)),
                         u = xnorm2 / (sigma_s2 + sigma_B2)

    Each term is one new array, built in place by the operations of its
    formula in their written order; Eve's sums over antennas are
    ``_row_sum``'s.  One draw runs as the batch of one, so it gets its
    draw's bits in any batch.
    """
    one = np.ndim(h_BA) == 0
    if one:
        h_AB, h_BA, g_A, g_B = (np.expand_dims(a, 0)
                                for a in (h_AB, h_BA, g_A, g_B))
        xnorm2 = None if xnorm2 is None else np.expand_dims(xnorm2, 0)
    terms = _power_terms(params, [*map(_power, (h_AB, h_BA, g_A, g_B))],
                         xnorm2)
    return {name: a[0] for name, a in terms.items()} if one else terms


def _power(gain) -> np.ndarray:
    """np.square(np.abs(gain)) as a new float array, squared in place."""
    power = np.abs(gain, dtype=float)
    return np.square(power, out=power)


def _power_terms(params: SystemParams, powers: list[np.ndarray], xnorm2,
                 names=None) -> dict[str, np.ndarray]:
    """``draw_terms`` of a batch from its squared gain magnitudes, the list
    ``powers`` of |h_AB|^2, |h_BA|^2, |g_A|^2 and |g_B|^2, which it takes
    over and empties: |h_BA|^2 and |h_AB|^2 become main_BA and main_AB, and
    Eve's squared gains of a direction are dropped once summed.

    With ``names`` it returns only those terms, each with its bits in the
    full set, and builds a step over the array of an unnamed term that no
    later step reads: eve -> eve + 1 -> 1 + phi -> xi and main -> phi in
    each direction, and snr_EB over the denominator of xi_BA_prime.
    """
    def named(name):
        return names is None or name in names

    terms: dict[str, np.ndarray] = {}

    for side, i, j, p, var_main, var_eve in (
            ("BA", 1, 2, params.p_A, params.sigma_B2, params.sigma_EA2),
            ("AB", 0, 3, params.p_B, params.sigma_A2, params.sigma_EB2)):
        main, eve = powers[i], _row_sum(powers[j])
        powers[i] = powers[j] = None
        np.multiply(p, main, out=main)
        np.divide(main, var_main, out=main)
        np.multiply(p, eve, out=eve)
        np.divide(eve, var_eve, out=eve)
        terms[f"main_{side}"], terms[f"eve_{side}"] = main, eve
        eve_1 = np.add(eve, 1.0, out=None if named(f"eve_{side}") else eve)
        gamma = np.add(main, 1.0)
        np.divide(gamma, eve_1, out=gamma)
        phi_ = terms[f"phi_{side}"] = np.divide(
            main, eve_1, out=None if named(f"main_{side}") else main)
        xi = np.add(1.0, phi_, out=eve_1)
        terms[f"xi_{side}"] = np.log2(xi, out=xi)
        terms[f"gamma_{side}"] = np.log2(gamma, out=gamma)
    phi_ba = terms["phi_BA"]
    t = params.sigma_s2 / params.sigma_B2
    prime = phi_ba * t
    rest = np.add(1.0, phi_ba)
    rest += t
    prime /= rest
    prime += 1.0
    terms["xi_BA_prime"] = np.log2(prime, out=prime)
    terms["snr_AB"] = np.full(np.shape(phi_ba), t)
    snr_eb = np.add(phi_ba, 1.0, out=rest)
    terms["snr_EB"] = np.divide(t, snr_eb, out=snr_eb)
    if xnorm2 is not None:
        u = np.divide(xnorm2, params.sigma_s2 + params.sigma_B2)
        leak = 1.0 / (1.0 - abs(complex(params.rho)) ** 2)
        ratio = u + leak
        u += 1.0
        ratio /= u
        terms["alpha_prime"] = np.log2(ratio, out=ratio)
    if names is None:
        return terms
    return {name: terms[name] for name in names if name in terms}


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
    xi_prime_BA_term: float  # log2(1 + phi_BA t / (1 + phi_BA + t))
    snr_AB: float            # secret-to-noise ratio at Alice after echo
    snr_EB: float            # same at Eve, discounted by phi_BA + 1
    xi_tilde: float          # log2(1 + snr_AB) - log2(1 + snr_EB) = xi'
    main_BA: float           # probing SNRs of Alice's probes at Bob, at Eve
    eve_BA: float
    main_AB: float           # the same for Bob's probes, at Alice and at Eve
    eve_AB: float


def _realization_terms(params: SystemParams,
                       realization: ChannelRealization) -> dict[str, np.ndarray]:
    """``draw_terms`` of one realization or of a batch realization."""
    realization.check_for(params)
    return draw_terms(params, realization.h_AB, realization.h_BA,
                      realization.g_A, realization.g_B)


def _one_draw(caller: str, realization: ChannelRealization) -> None:
    """Raise ParamError unless ``realization`` is one draw, not a batch."""
    if np.ndim(realization.h_BA) != 0:
        raise ParamError(f"{caller} takes one channel draw, not a batch")


def per_realization_rates(params: SystemParams,
                          realization: ChannelRealization) -> PerRealizationRates:
    """All closed-form log terms for one channel draw: ``draw_terms`` on a
    single draw, the batch shape ()."""
    _one_draw("per_realization_rates", realization)
    terms = _realization_terms(params, realization)
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
# One channel batch per rate report, shared by every reduction
# =====================================================================

# what the reductions read, plus phi_BA for callers of theorem1_draw_terms
_SHARED_TERMS = ("phi_BA", "xi_BA", "xi_AB", "gamma_BA", "gamma_AB",
                 "xi_BA_prime", "snr_AB", "snr_EB", "alpha_prime")


def theorem1_draw_terms(params: SystemParams, n_draws: int,
                        rng_seed: int) -> dict[str, np.ndarray]:
    """The ``draw_terms`` arrays every bound reduces, for one channel batch.

    Entries: phi_BA, xi_BA, xi_AB, gamma_BA, gamma_AB, xi_BA_prime, snr_AB,
    snr_EB and, when m_A >= 1, alpha_prime: the energy of m_A i.i.d.
    CN(0, p_A) probes is (p_A / 2) chi^2 with 2 m_A degrees of freedom.
    Each call samples afresh and returns writable arrays, no two sharing
    memory: a bound's ``terms``.

    Memory: the squared gain magnitudes of ``sample_channel_batch``, four
    float arrays of (2 + 2 n_E) n values, built through one normals
    scratch of max(2 n n_E, 4 n) floats and a complex work buffer of
    16,384 draws, so the complex batch is never held; ``_power_terms``
    builds the nine terms over those magnitudes and a few new arrays of n
    floats.  At 10^5 draws and n_E 2 sampling peaks at 8.8 MB and the
    call at 9.6 MB, while the terms are built (``tracemalloc``).
    """
    powers = [*sample_channel_batch(params, rng_seed, n_draws, True)]
    xnorm2 = None
    if params.m_A >= 1:
        xnorm2 = stream(rng_seed, "xnorm").chisquare(2 * params.m_A,
                                                      size=n_draws)
        np.multiply(0.5 * params.p_A, xnorm2, out=xnorm2)
    return _power_terms(params, powers, xnorm2, _SHARED_TERMS)


def _draws_of(params, n_draws, rng_seed, terms) -> dict[str, np.ndarray]:
    """The given ``terms``, of ``n_draws`` draws, or a batch sampled anew."""
    n_draws = _integer("n_draws", n_draws, 1)
    if terms is None:
        return theorem1_draw_terms(params, n_draws, rng_seed)
    if len(terms["xi_BA"]) != n_draws:
        raise ParamError(f"terms do not hold n_draws = {n_draws} draws")
    return terms


def _mean_se(arr: np.ndarray) -> tuple[float, float]:
    """``(np.mean(arr), np.std(arr, ddof=1) / sqrt(n))`` as floats, bit for
    bit, from one shared sum by numpy's own steps for the variance; the
    standard error of one draw is 0."""
    n = arr.shape[0]
    mean = arr.sum() / n
    if n == 1:
        return float(mean), 0.0
    dev = arr - mean
    np.multiply(dev, dev, out=dev)
    return float(mean), float(np.sqrt(dev.sum() / (n - 1)) / math.sqrt(n))


def _session_total(a, m_1, x_1, m_2, x_2) -> np.ndarray:
    """Per draw, the session total a + m_1 x_1 + m_2 x_2 of every report,
    summed left to right in place."""
    total = np.multiply(m_1, x_1)
    np.add(a, total, out=total)
    total += np.multiply(m_2, x_2)
    return total


# =====================================================================
# Two-way probing bracket (ideal public discussion)
# =====================================================================

def theorem1_bounds(params: SystemParams, n_draws: int = 10_000,
                    rng_seed: int = 0, *, terms=None) -> RateReport:
    """Secret-key capacity bracket for two-way probing, in bits per session.

    Returns a report with alpha (exact), the four Monte Carlo expectation
    terms with standard errors, and the three session totals C_A, C_B, C_E.
    max(C_A, C_B) is achievable; min over the ideal-channel bound and C_E
    caps what any scheme can distill.  A given ``terms``, the
    ``theorem1_draw_terms`` of these arguments, is reduced, not resampled.
    """
    terms = _draws_of(params, n_draws, rng_seed, terms)
    a = alpha(params)
    values: dict[str, float] = {"alpha": a}
    stderr: dict[str, float] = {}
    for name in ("xi_BA", "xi_AB", "gamma_BA", "gamma_AB"):
        values[name], stderr[name] = _mean_se(terms[name])

    m_A, m_B = params.m_A, params.m_B
    for name, m_1, x_1, m_2, x_2 in (("C_A", m_B, "xi_AB", m_A, "gamma_BA"),
                                     ("C_B", m_A, "xi_BA", m_B, "gamma_AB"),
                                     ("C_E", m_A, "xi_BA", m_B, "xi_AB")):
        values[name], stderr[name] = _mean_se(
            _session_total(a, m_1, terms[x_1], m_2, terms[x_2]))

    notes = []
    if m_A > 0 and m_B > 0:
        notes.append(
            "two-way probing: C_A or C_B can go negative when Eve's probing "
            "SNR dominates; the bracket stays valid, only the guaranteed "
            "positive one-way floor is lost"
        )
    return RateReport(params=params, values=values, stderr=stderr, notes=notes).check()


def corollary1_capacity(params: SystemParams, n_draws: int = 10_000,
                        rng_seed: int = 0, *, terms=None) -> float:
    """Exact key capacity under one-way probing, bits per session.

    With probes in only one direction the bracket of ``theorem1_bounds``
    closes at C_E = alpha + m_A E log2(1 + phi_BA) + m_B E log2(1 + phi_AB),
    one of whose two addends is zero.  It is the mean of C_E's per-draw
    total in ``theorem1_bounds``, the same batch for a shared seed or the
    same ``terms``, so the two agree bit for bit.
    """
    if (params.m_A == 0) == (params.m_B == 0):
        raise ParamError("one-way probing required: exactly one of m_A, m_B "
                         "must be zero")
    terms = _draws_of(params, n_draws, rng_seed, terms)
    return _mean_se(_session_total(alpha(params), params.m_A, terms["xi_BA"],
                                   params.m_B, terms["xi_AB"]))[0]


# =====================================================================
# Echo-protocol lower bounds (no public-discussion idealization)
# =====================================================================

def theorem3_lower_bound(params: SystemParams, n_draws: int = 10_000,
                         rng_seed: int = 0, *, terms=None) -> RateReport:
    """Eta-free echo-protocol bound: alpha' + m_A xi'_BA, bits per session.

    It has no m_A log2(eta) term, so it is invariant to the return-noise
    ratio; ``terms`` as in ``theorem1_bounds``.
    """
    if params.m_A < 1:
        raise ParamError("echo-protocol bounds need m_A >= 1")
    terms = _draws_of(params, n_draws, rng_seed, terms)
    values: dict[str, float] = {}
    stderr: dict[str, float] = {}
    for name in ("alpha_prime", "xi_BA_prime"):
        values[name], stderr[name] = _mean_se(terms[name])
    values["theorem3_lower"] = (values["alpha_prime"]
                                + params.m_A * values["xi_BA_prime"])
    return RateReport(params=params, values=values, stderr=stderr).check()


def theorem2_lower_bound(params: SystemParams, n_draws: int = 10_000,
                         rng_seed: int = 0, *, terms=None) -> RateReport:
    """Achievable secrecy rate of the analog echo protocol, bits per session.

    C'_B >= alpha' + m_A xi'_BA + m_A log2(eta) with eta = eps_E / eps_A, valid
    for eps_A, eps_E well below sigma_B2: the ``theorem3_lower_bound`` report
    of the same arguments plus the eta term.  The addends are reported apart
    (keys alpha_prime, xi_BA_prime, eta_term).
    """
    if not (params.eps_A > 0 and params.eps_E > 0):
        raise ParamError("theorem2_lower_bound needs eps_A > 0 and eps_E > 0 "
                         "so that eta = eps_E / eps_A is finite")
    report = theorem3_lower_bound(params, n_draws, rng_seed, terms=terms)
    values = report.values
    values["eta"] = params.eps_E / params.eps_A
    values["eta_term"] = params.m_A * math.log2(values["eta"])
    values["theorem2_lower"] = values["theorem3_lower"] + values["eta_term"]
    report.notes.append(
        "eta is the Eve-to-Alice return-noise ratio eps_E / eps_A; the "
        "eta-free bound drops this term by letting Bob hash his secret "
        "sequence before privacy amplification"
    )
    return report.check()


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
    _one_draw("power_budget", realization)
    recv = np.square(np.abs(realization.h_BA)) * params.p_A
    p_r = recv + params.sigma_B2 + params.sigma_s2
    return float(p_r), float(recv)
