"""Digital probe-echo key generation over binary symmetric channels.

Bit-level protocol.  Alice broadcasts probe bits b_A; Bob receives
b_BA = b_A xor w_BA and Eve receives b_EA = b_A xor w_EA.  Bob echoes
b_r = b_s xor b_BA, embedding his secret bits b_s; the echo reaches Alice as
b_AB = b_r xor w_AB and Eve as b_EB = b_r xor w_EB.  Each side folds in what
it knows:

    bbar_AB = b_AB xor b_A  = b_s xor w_BA xor w_AB      (Alice's view)
    bbar_EB = b_EB xor b_EA = b_s xor w_EA xor w_BA xor w_EB  (Eve's view)

so both views are b_s through an effective BSC.  With the binary convolution
p * q = p(1-q) + q(1-p):

    P_A|B = P_BA * P_AB            (~ P_BA when the return channel is clean)
    P_E|B = P_EA * P_BA * P_EB     (~ P_BA + P_EA (1 - 2 P_BA))

The clean-return forms on the right only explain the exact ones, which are
what ``effective_error_rates`` computes; they drop P_AB and P_EB.  The
per-bit secrecy rate is xi = f(P_E|B) - f(P_A|B) with f the binary
entropy in bits.  The same number is both the lower and the upper
secret-key bound for the probing data sets; ``steeplab.verify`` shows it by
exact enumeration.

``reconcile_and_amplify`` turns an episode into identical keys: Bob
discloses the syndrome of b_s under a public LDPC matrix (see
``steeplab.codes``), Alice decodes her error pattern, and both sides
Toeplitz-hash their strings down to the target length with one public
seed.  Bob's hash runs on the shared pool while Alice decodes.  A key is
a function of its string alone, so Alice's string is hashed only when it
differs from b_s; otherwise her key is a copy of Bob's.

Disclosure accounting: the rate xi already charges the ideal
reconciliation cost m_A f(P_A|B), so the leakage that must come out of
the key budget is the *excess* of the disclosed syndrome bits over that
ideal, and the distillable length is

    max_key_len = floor((m_A xi - leak_bits) (1 - safety_margin)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _workers
from .codes import (_COL_WEIGHT, decode_syndrome, make_ldpc, pack_bit_record,
                    syndrome_of, toeplitz_hash, unpack_bit_record)
from .params import ParamError, _integer, _real
from .seeds import stream, subseed

__all__ = [
    "BscParams",
    "DigitalEpisode",
    "ReconcilePlan",
    "ReconcileResult",
    "validate_bsc",
    "binary_entropy",
    "bsc_convolve",
    "effective_error_rates",
    "xi_digital",
    "run_digital_episode",
    "reconcile_plan",
    "reconcile_and_amplify",
]


# =====================================================================
# Parameters and elementary rate algebra
# =====================================================================

@dataclass(frozen=True)
class BscParams:
    """Crossover rates of the four binary symmetric channels plus m_A.

    P = 1/2 is allowed (it models lost packets) but the secrecy formulas
    require the effective rates to stay below 1/2.  Construction raises
    ParamError on an invalid field.
    """

    P_BA: float = 0.1   # probing, Alice -> Bob
    P_EA: float = 0.2   # probing, Alice -> Eve
    P_AB: float = 0.0   # return, Bob -> Alice
    P_EB: float = 0.0   # return, Bob -> Eve
    m_A: int = 10_000   # probe bits per episode

    def __post_init__(self):
        validate_bsc(self)


def validate_bsc(bsc: BscParams) -> BscParams:
    for name in ("P_BA", "P_EA", "P_AB", "P_EB"):
        _real(name, getattr(bsc, name), "lie in [0, 0.5]",
              lambda v: 0.0 <= v <= 0.5)
    _integer("m_A", bsc.m_A, 1)
    return bsc


def binary_entropy(p):
    """f(p) = -p log2 p - (1-p) log2 (1-p), elementwise, with f(0)=f(1)=0."""
    arr = np.asarray(p, dtype=np.float64)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):   # NaN fails too
        raise ParamError("binary_entropy needs probabilities in [0, 1]")
    inner = np.where((arr > 0.0) & (arr < 1.0), arr, 0.5)
    out = np.where(
        (arr > 0.0) & (arr < 1.0),
        -(inner * np.log2(inner) + (1.0 - inner) * np.log2(1.0 - inner)),
        0.0,
    )
    return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out


def bsc_convolve(p: float, q: float) -> float:
    """Crossover of two BSCs in series: p * q = p(1-q) + q(1-p)."""
    return p * (1.0 - q) + q * (1.0 - p)


def _exact_rates(p_ba, p_ea, p_ab, p_eb):
    """Exact (P_A|B, P_E|B), elementwise over scalar or array rates."""
    return (bsc_convolve(p_ba, p_ab),
            bsc_convolve(bsc_convolve(p_ea, p_ba), p_eb))


def _xi_of_rates(p_ab, p_eb):
    """xi = f(P_E|B) - f(P_A|B), elementwise."""
    return binary_entropy(p_eb) - binary_entropy(p_ab)


def effective_error_rates(bsc: BscParams) -> tuple[float, float]:
    """End-to-end crossover rates (P_A|B, P_E|B) of the two effective BSCs,
    every hop composed with the binary convolution."""
    p_ab, p_eb = _exact_rates(bsc.P_BA, bsc.P_EA, bsc.P_AB, bsc.P_EB)
    return float(p_ab), float(p_eb)


def xi_digital(bsc: BscParams) -> float:
    """Per-bit secrecy rate xi = f(P_E|B) - f(P_A|B), in bits.

    Raises when P_E|B reaches 1/2 (Eve's view pure noise only happens on
    the degenerate boundary where the formula's premises fail).
    """
    p_ab, p_eb = effective_error_rates(bsc)
    if p_eb >= 0.5:
        raise ParamError("secrecy formula outside stated regime: P_E|B >= 1/2")
    return float(_xi_of_rates(p_ab, p_eb))


# =====================================================================
# Episodes
# =====================================================================

@dataclass(frozen=True, eq=False)
class DigitalEpisode:
    """Every bit stream of one digital run, plus keys once distilled."""

    b_A: np.ndarray      # Alice's probe bits
    b_BA: np.ndarray     # Bob's copy of the probes
    b_EA: np.ndarray     # Eve's copy of the probes
    b_s: np.ndarray      # Bob's secret bits
    b_r: np.ndarray      # Bob's echo b_s xor b_BA
    b_AB: np.ndarray     # Alice's copy of the echo
    b_EB: np.ndarray     # Eve's copy of the echo
    bbar_AB: np.ndarray  # Alice's folded view of b_s
    bbar_EB: np.ndarray  # Eve's folded view of b_s
    key_A: np.ndarray | None = None
    key_B: np.ndarray | None = None

    @property
    def m_A(self) -> int:
        return self.b_A.shape[0]

    _FIELDS = ("b_A", "b_BA", "b_EA", "b_s", "b_r", "b_AB", "b_EB",
               "bbar_AB", "bbar_EB", "key_A", "key_B")

    def __post_init__(self):
        """Raise ParamError unless the nine streams are present and share
        one length; the keys keep their own."""
        for name in self._FIELDS[:-2]:
            bits = getattr(self, name)
            if bits is None:
                raise ParamError(f"digital episode is missing required stream {name}")
            if len(bits) != len(self.b_A):
                raise ParamError(f"stream {name} has {len(bits)} bits, "
                                 f"b_A has {len(self.b_A)}")

    def to_bytes(self) -> bytes:
        """Length-prefixed binary transcript; field order is ``_FIELDS``."""
        return b"".join(pack_bit_record(getattr(self, f)) for f in self._FIELDS)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "DigitalEpisode":
        fields = {}
        offset = 0
        for name in cls._FIELDS:
            bits, offset = unpack_bit_record(buf, offset)
            fields[name] = bits
        if offset != len(buf):
            raise ParamError("trailing bytes after digital episode transcript")
        return cls(**fields)


def _flips(rng_seed: int, role: str, n: int, p: float) -> np.ndarray:
    if p <= 0.0:
        return np.zeros(n, dtype=np.uint8)
    return (stream(rng_seed, role).random(n) < p).astype(np.uint8)


def run_digital_episode(bsc: BscParams, rng_seed: int) -> DigitalEpisode:
    """Simulate all five bit streams; deterministic in (bsc, rng_seed)."""
    m = bsc.m_A
    b_a = stream(rng_seed, "bits_a").integers(0, 2, size=m, dtype=np.uint8)
    b_s = stream(rng_seed, "bits_s").integers(0, 2, size=m, dtype=np.uint8)
    b_ba = b_a ^ _flips(rng_seed, "w_ba", m, bsc.P_BA)
    b_ea = b_a ^ _flips(rng_seed, "w_ea", m, bsc.P_EA)
    b_r = b_s ^ b_ba
    b_ab = b_r ^ _flips(rng_seed, "w_ab", m, bsc.P_AB)
    b_eb = b_r ^ _flips(rng_seed, "w_eb", m, bsc.P_EB)
    return DigitalEpisode(
        b_A=b_a, b_BA=b_ba, b_EA=b_ea, b_s=b_s, b_r=b_r,
        b_AB=b_ab, b_EB=b_eb, bbar_AB=b_ab ^ b_a, bbar_EB=b_eb ^ b_ea,
    )


# =====================================================================
# Reconciliation and privacy amplification
# =====================================================================

@dataclass(frozen=True)
class ReconcilePlan:
    """Disclosure accounting for one (bsc, m_A) operating point.

    ``syndrome_bits`` is what Bob will publish; ``ideal_bits`` is the
    Slepian-Wolf floor m_A f(P_A|B) already charged inside xi; ``leak_bits``
    is their difference, the only part that comes out of the key budget.
    """

    p_a_given_b: float
    p_e_given_b: float
    xi: float
    syndrome_bits: int
    ideal_bits: float
    leak_bits: float
    max_key_len: int


def reconcile_plan(bsc: BscParams, efficiency: float = 1.6,
                   safety_margin: float = 0.2) -> ReconcilePlan:
    """Size the syndrome and the distillable key for an operating point.

    ``efficiency`` multiplies the ideal disclosure f(P_A|B) per bit (1.6
    leaves the sum-product decoder far under its threshold at desk scale);
    ``safety_margin`` shrinks the final key below the information-theoretic
    budget m_A xi - leak_bits.  No LDPC code has fewer checks than its
    column weight, so neither does a plan with a key.
    """
    _real("efficiency", efficiency, "lie in [1, inf)", lambda v: v >= 1.0)
    _real("safety_margin", safety_margin, "lie in [0, 1)",
          lambda v: 0.0 <= v < 1.0)
    p_ab, p_eb = effective_error_rates(bsc)
    xi = xi_digital(bsc)
    ideal = bsc.m_A * binary_entropy(p_ab)
    if p_ab == 0.0:
        syndrome_bits = 0
    else:
        # capped before rounding: the product may overflow to inf
        syndrome_bits = math.ceil(min(efficiency * ideal, bsc.m_A - 1))
    leak = max(0.0, syndrome_bits - ideal)
    budget = bsc.m_A * xi - leak
    max_key = max(0, math.floor(budget * (1.0 - safety_margin)))
    if 0 < syndrome_bits < _COL_WEIGHT:
        max_key = 0   # too few checks to build the LDPC code
    return ReconcilePlan(
        p_a_given_b=p_ab, p_e_given_b=p_eb, xi=xi,
        syndrome_bits=syndrome_bits, ideal_bits=float(ideal),
        leak_bits=float(leak), max_key_len=max_key,
    )


@dataclass(frozen=True, eq=False)
class ReconcileResult:
    """Outcome of reconciliation plus privacy amplification."""

    key_A: np.ndarray
    key_B: np.ndarray
    leak_bits: float          # excess disclosure charged to the key budget
    syndrome_bits: int        # raw published syndrome length
    max_key_len: int
    decoder_converged: bool
    success: bool             # keys identical; failure is reported, not retried


def reconcile_and_amplify(episode: DigitalEpisode, bsc: BscParams,
                          target_len: int, rng_seed: int,
                          efficiency: float = 1.6,
                          safety_margin: float = 0.2) -> ReconcileResult:
    """Distill identical ``target_len``-bit keys from a digital episode.

    Bob's secret b_s is the reference string.  Bob publishes its LDPC
    syndrome; Alice decodes her folded view bbar_AB against it and both
    sides hash with a public Toeplitz seed.  Bob's key is hashed on the
    shared pool while this thread builds the code and decodes.  Alice's
    key is a copy of Bob's when her corrected string equals b_s, the same
    bits her own hash would give; otherwise this thread hashes her
    corrected string.  A key mismatch is reported via ``success=False``,
    never silently retried.
    """
    if episode.m_A != bsc.m_A:
        raise ParamError("episode length does not match bsc.m_A")
    plan = reconcile_plan(bsc, efficiency=efficiency, safety_margin=safety_margin)
    _integer("target_len", target_len, 1)
    if target_len > plan.max_key_len:
        raise ParamError(
            f"target_len {target_len} exceeds the distillable maximum "
            f"{plan.max_key_len} for this operating point"
        )

    hash_seed = subseed(rng_seed, "toeplitz")

    def alice_side() -> tuple[np.ndarray, bool]:
        """Alice's corrected string and whether her decoder converged."""
        if plan.syndrome_bits == 0:
            return episode.bbar_AB, True
        code = make_ldpc(bsc.m_A, plan.syndrome_bits,
                         subseed(rng_seed, "ldpc"))
        syn_b = syndrome_of(code, episode.b_s)
        syn_a = syndrome_of(code, episode.bbar_AB)
        err, converged = decode_syndrome(code, syn_a ^ syn_b,
                                         plan.p_a_given_b)
        return episode.bbar_AB ^ err, converged

    def bob_side() -> np.ndarray:
        return toeplitz_hash(episode.b_s, target_len, hash_seed)

    # Bob's hash needs nothing from Alice's side, so the pool runs it while
    # this thread decodes
    (corrected, converged), key_b = _workers.in_order(
        lambda side: side(), (alice_side, bob_side), 2)
    # the key is a function of the string alone: when Alice recovered b_s,
    # Bob's hash is hers too (copied, so the two keys share no memory)
    if np.array_equal(corrected, episode.b_s):
        key_a = key_b.copy()
    else:
        key_a = toeplitz_hash(corrected, target_len, hash_seed)
    return ReconcileResult(
        key_A=key_a, key_B=key_b,
        leak_bits=plan.leak_bits, syndrome_bits=plan.syndrome_bits,
        max_key_len=plan.max_key_len, decoder_converged=converged,
        success=bool(np.array_equal(key_a, key_b)),
    )
