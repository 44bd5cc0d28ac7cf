"""Bit-level machinery: syndrome code, Toeplitz hashing, bit serialization.

Reconciliation uses a systematic linear block code in syndrome form: Bob
publishes H b_s for a sparse parity-check matrix H, Alice XORs in the
syndrome of her own copy and decodes the resulting error-pattern syndrome
under a memoryless BSC prior.  The default H is a column-weight-3 regular
LDPC decoded by sum-product message passing; its check count (hence the
disclosure) is set by the caller from the target crossover rate.  The
edge list is put in stable check order.  Consecutive checks of equal
degree then own a dense (checks, degree) block of edges, and a built
code has at most two such blocks, so every per-check step runs as column
operations over a block: the decoder's check products multiply the
columns left to right, and every parity (the published syndromes and the
decoder's stop test) XORs them exactly over uint8 bits.  The blocks are
found once per code.  The decoder keeps its messages at half scale, the
argument of the tanh rule, in float32; it sums each posterior in float64
and stores it in float32.  It applies only the clamps that can bind:
each message is clipped to +-8 before tanh (float32 tanh(8) = 1 - 4 *
2^-24), |tanh| >= 1e-12, and at checks of degree 1 the extrinsic
product, exactly +-1, is clamped to the largest float32 below 1.  At
degree d >= 2 no extrinsic product reaches +-1, so no arctanh argument
does (``decode_syndrome`` gives the proof).  Its per-check work runs on the
shared pool over check ranges, each block cut in proportion to its share
of the edges.  Bit inputs must hold only 0 and 1.

Privacy amplification is seeded binary Toeplitz hashing: key = T bits mod 2
with T[i, j] = seed_bits[i - j + n - 1], a universal-hash family, applied
identically by both sides from a public seed.  T is never formed: T bits is
a slice of the convolution of seed_bits with bits, computed by FFT in
O((n + out_len) log(n + out_len)) time and O(n + out_len) memory at the
smallest 5-smooth length that holds it, and a guard checks that the float
result rounds to exact integers.

Serialized bit material uses one layout everywhere: a record is a 1-byte
presence flag, and if present a little-endian uint32 bit count followed by
ceil(count / 8) bytes packed LSB-first.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _workers
from .params import ParamError, _integer, _real
from .seeds import _seed_int, stream

__all__ = [
    "LdpcCode",
    "make_ldpc",
    "syndrome_of",
    "decode_syndrome",
    "toeplitz_hash",
    "pack_bit_record",
    "unpack_bit_record",
    "hexdump",
]


def _as_bits(bits) -> np.ndarray:
    """``bits`` as uint8; ParamError if any entry is not 0 or 1."""
    bits = np.asarray(bits)
    if not np.all((bits == 0) | (bits == 1)):
        raise ParamError("bit arrays may hold only 0 and 1")
    return bits.astype(np.uint8, copy=False)


# =====================================================================
# LDPC syndrome code
# =====================================================================

@dataclass(frozen=True, eq=False)
class LdpcCode:
    """Sparse parity-check matrix in edge-list form, sorted by check.

    ``var[e]`` is the variable of edge e; edges are grouped by check and
    ``ptr`` holds the first edge of each check, from which ``chk[e]``, the
    check of edge e, is derived.  A run of consecutive checks of equal
    degree d owns a contiguous slice of the edges, read as a (checks, d)
    block with one check per row.  The order is a stable sort by check, so
    within a check the edges keep their column order; that order fixes the
    float order of the decoder's check products, which multiply a block's
    columns left to right.  ParamError unless ``var`` is a 1-D integer
    array in [0, n_bits) and ``ptr`` holds n_checks >= 1 non-decreasing
    entries from 0 to at most ``len(var)``.
    """

    n_bits: int
    n_checks: int
    var: np.ndarray
    ptr: np.ndarray

    def __post_init__(self):
        n_bits = _integer("n_bits", self.n_bits, 1)
        n_checks = _integer("n_checks", self.n_checks, 1)
        var, ptr = self.var, self.ptr
        for name, a in (("var", var), ("ptr", ptr)):
            if not (isinstance(a, np.ndarray) and a.ndim == 1
                    and a.dtype.kind in "iu" and np.can_cast(a.dtype, np.intp)):
                raise ParamError(f"{name} must be a 1-D integer array")
        if var.size and not (var.min() >= 0 and var.max() < n_bits):
            raise ParamError(f"var entries must lie in [0, {n_bits})")
        if not (ptr.shape == (n_checks,) and ptr[0] == 0
                and np.all(ptr[1:] >= ptr[:-1]) and ptr[-1] <= var.size):
            raise ParamError(f"ptr must hold {n_checks} non-decreasing edge "
                             f"indices from 0 to at most {var.size}")

    @property
    def chk(self) -> np.ndarray:
        """The check of each edge, as a new int64 array built from ``ptr``."""
        return np.repeat(np.arange(self.n_checks, dtype=np.int64),
                         np.diff(self.ptr, append=self.var.size))

    @cached_property
    def _degree_runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """Maximal runs of consecutive checks of equal, nonzero degree,
        found once per code.

        Each run is (first edge, first check, check count, degree); its
        edges are the dense block ``[first edge, first edge + count *
        degree)``.  A ``make_ldpc`` code has at most two runs.  A check of
        degree 0 holds no edge, so it is in no run: its parity is 0 and it
        sends no message.
        """
        deg = np.diff(self.ptr, append=self.var.shape[0])
        first = np.flatnonzero(np.diff(deg, prepend=-1))
        count = np.diff(first, append=self.n_checks)
        return tuple((int(self.ptr[c]), int(c), int(k), int(deg[c]))
                     for c, k in zip(first, count) if deg[c])


_COL_WEIGHT = 3   # checks per bit, so a code needs at least this many


def _drawn_columns(row_w: np.ndarray, n_bits: int, col_weight: int,
                   rng: np.random.Generator) -> np.ndarray:
    """The (n_bits, col_weight) checks of the columns: the row_w[c] sockets
    of each check c shuffled, then swapped with random other columns until
    no column holds a check twice."""
    sockets = np.repeat(np.arange(row_w.size, dtype=np.int64), row_w)
    rng.shuffle(sockets)
    cols = sockets.reshape(n_bits, col_weight)
    pairs = [(a, b) for b in range(col_weight) for a in range(b)]
    for _ in range(200):
        dup = np.zeros(n_bits, dtype=bool)
        for a, b in pairs:
            dup |= cols[:, a] == cols[:, b]
        bad = np.flatnonzero(dup)
        if bad.size == 0:
            return cols
        for j in bad:
            row = cols[j]
            seen: set[int] = set()
            for slot in range(col_weight):
                if int(row[slot]) in seen:
                    k = int(rng.integers(n_bits))
                    other = int(rng.integers(col_weight))
                    row[slot], cols[k, other] = cols[k, other], row[slot]
                else:
                    seen.add(int(row[slot]))
    raise ParamError("could not build a duplicate-free parity structure; "
                     "lower col_weight or raise n_checks")


def make_ldpc(n_bits: int, n_checks: int, rng_seed: int,
              col_weight: int = _COL_WEIGHT) -> LdpcCode:
    """Random regular-column-weight LDPC with near-uniform check degrees.

    Columns never repeat a check (no double edges), which removes the
    dominant short-cycle failure mode at desk scale.  The edges are put in
    stable check order by one sort of integer keys that pack each edge's
    check above its variable.
    """
    n_bits = _integer("n_bits", n_bits)
    n_checks = _integer("n_checks", n_checks)
    col_weight = _integer("col_weight", col_weight)
    rng_seed = _seed_int(rng_seed)
    if not (1 <= n_checks < n_bits):
        raise ParamError(f"need 1 <= n_checks < n_bits, got {n_checks}, {n_bits}")
    if not 1 <= col_weight <= n_checks:
        raise ParamError(f"need 1 <= col_weight <= n_checks, got {col_weight}, "
                         f"{n_checks}")
    total = col_weight * n_bits
    base, extra = divmod(total, n_checks)
    row_w = np.full(n_checks, base, dtype=np.int64)
    row_w[:extra] += 1
    if col_weight == n_checks:
        # every column holds every check: the one such code, so none is drawn
        cols = np.tile(np.arange(n_checks, dtype=np.int64), (n_bits, 1))
    else:
        cols = _drawn_columns(row_w, n_bits, col_weight,
                              stream(rng_seed, "code"))

    # edge e = col_weight * v + slot holds variable v, so the edges of a
    # check in column order are its variables in increasing order: one sort
    # of the keys (check << vbits) | variable gives the variables of the
    # stable sort by check (keys that tie hold the same variable).  The
    # keys fit in 32 bits up to 2^16 bits, and in 64 at any size.
    vbits = (n_bits - 1).bit_length()
    dtype = (np.uint32 if vbits + (n_checks - 1).bit_length() <= 32
             else np.uint64)
    packed = cols.reshape(-1).astype(dtype) << vbits
    packed |= np.repeat(np.arange(n_bits, dtype=dtype), col_weight)
    packed.sort()
    packed &= (1 << vbits) - 1
    # the swaps only move sockets, so check c still holds row_w[c] edges,
    # and ptr is their running sum
    return LdpcCode(n_bits=n_bits, n_checks=n_checks,
                    var=packed.astype(np.int64),
                    ptr=np.concatenate(([0], np.cumsum(row_w)[:-1])))


def _fold_columns(op: np.ufunc, block: np.ndarray, out: np.ndarray) -> None:
    """``out`` = op over each row of ``block``, column by column left to
    right, so a product keeps the edge order of its check."""
    np.copyto(out, block[:, 0])
    for j in range(1, block.shape[1]):
        op(out, block[:, j], out=out)


def syndrome_of(code: LdpcCode, bits: np.ndarray) -> np.ndarray:
    """H bits mod 2 as a uint8 vector of length n_checks (bits are 0/1):
    per run of checks, the exact XOR of its block's columns."""
    bits = _as_bits(bits)
    if bits.shape != (code.n_bits,):
        raise ParamError(f"need {code.n_bits} bits in one dimension, got "
                         f"shape {bits.shape}")
    edge_bits = bits[code.var]
    out = np.zeros(code.n_checks, dtype=np.uint8)
    for e0, c0, k, d in code._degree_runs:
        _fold_columns(np.bitwise_xor, edge_bits[e0:e0 + k * d].reshape(k, d),
                      out[c0:c0 + k])
    return out


def _check_ranges(runs: tuple[tuple[int, int, int, int], ...],
                  parts: int) -> list[tuple[slice, slice, int]]:
    """Each run cut into contiguous check ranges of near-equal size, as
    (edge slice, check slice, degree).  A run gets ``parts`` times its
    share of all the runs' edges, rounded, and at least one range, so a
    run of a few checks beside a large one is not cut up; empty ranges
    are dropped."""
    total = sum(k * d for _, _, k, d in runs)
    ranges = []
    for e0, c0, k, d in runs:
        n = max(1, (2 * parts * k * d + total) // (2 * total))
        cuts = [k * i // n for i in range(n + 1)]
        ranges += [(slice(e0 + lo * d, e0 + hi * d), slice(c0 + lo, c0 + hi), d)
                   for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    return ranges


_HALF_CLIP = 8.0     # |half-scale message| bound; tanh(8) <= 1 - 3 * 2^-24
_TANH_FLOOR = 1e-12  # |tanh| floor, a normal float32, so no divisor is 0
_EXT_MAX = np.float32(1.0 - 2.0 ** -24)   # the largest float32 below 1


def decode_syndrome(code: LdpcCode, syndrome: np.ndarray, p: float,
                    max_iter: int = 100) -> tuple[np.ndarray, bool]:
    """Sum-product estimate of the error pattern with H e = syndrome.

    ``p`` is the BSC crossover prior on each error bit; ``max_iter`` >= 1
    bounds the iterations.  Returns the hard-decision pattern and a flag
    telling whether it reproduces the syndrome exactly (the usual
    convergence criterion).  Posteriors and check-to-variable messages are
    kept at half scale, L / 2, which is the argument of the tanh rule, so
    no pass scales by 2 and back.  The edge messages live in buffers
    allocated once and updated in place; each check's syndrome sign
    multiplies its product once.  A check reads only its own edges, so
    everything but the variable side's sum runs per check range on the
    shared pool: each ``_degree_runs`` block gets ranges in proportion to
    its share of the edges, about one per usable CPU in all and at least
    one per block.  That sum stays one ``np.bincount`` over the whole edge
    list, whose edge order fixes every posterior bit for bit.

    Precision.  The check side runs in float32, with unit roundoff
    u = 2^-24: each edge's variable-to-check message, its tanh, each
    check's product, the extrinsic products and their arctanh, the
    check-to-variable messages.  ``np.bincount`` sums those messages from
    a float64 copy, so each posterior is a float64 sum, stored rounded to
    float32.  No arctanh argument reaches +-1:

    * a message is clipped to [-8, 8], which numpy's float32 tanh maps into
      [-T, T] with T = tanh(8) = 1 - 4u.  The proof needs only T <= 1 - 3u,
      which a test checks, with |tanh x| <= T for every float32 x from 0.5
      to 8 (below 0.5, |tanh x| <= |x|);
    * |tanh| is raised to at least 1e-12, a normal float32, so no divisor
      is 0;
    * at degree d >= 2 an edge's extrinsic product is the product of the
      other d - 1 factors after d roundings (d - 1 products and one
      quotient; the syndrome sign is exact).  If every partial product is
      a normal float32, each rounding is within a factor 1 + u, so the
      magnitude is at most T^(d-1) (1 + u)^d <= exp(u (3 - 2d)) < 1, by
      ln(1 - 3u) <= -3u and ln(1 + u) <= u.  The factors are at most 1 in
      magnitude, so a partial product that falls below 2^-126 stays below
      it, and its quotient by |tanh| >= 1e-12 is below 1e-25;
    * at degree 1 the extrinsic product is +-t / t = +-1 exactly; it is
      clamped to the largest float32 below 1, whose arctanh is 8.66.
    """
    _real("decoder prior", p, "lie in (0, 0.5)", lambda v: 0.0 < v < 0.5)
    max_iter = _integer("max_iter", max_iter, 1)
    syndrome = _as_bits(syndrome)
    if syndrome.shape != (code.n_checks,):
        raise ParamError("syndrome length does not match the code")
    var = code.var
    cpus = _workers.usable_cpus()
    ranges = _check_ranges(code._degree_runs, cpus)
    half_llr0 = 0.5 * float(np.log((1.0 - p) / p))
    sign = (1.0 - 2.0 * syndrome).astype(np.float32)   # (-1)^syndrome
    n_edges = var.shape[0]
    # t holds each edge's posterior, then its variable-to-check message,
    # then tanh of it away from 0.  c2v holds the check-to-variable
    # messages from one iteration to the next, and |t| and then the
    # extrinsic products within one.  c2v starts at 0, so the first pass
    # sends llr0 / 2 - 0
    t = np.full(n_edges, half_llr0, dtype=np.float32)
    c2v = np.zeros(n_edges, dtype=np.float32)
    weights = np.empty(n_edges)          # c2v as float64, for bincount
    post = np.empty(code.n_bits, dtype=np.float32)   # posteriors
    prod = np.empty(code.n_checks, dtype=np.float32)   # signed products
    hard = np.empty(n_edges, dtype=bool)  # each edge's hard decision
    # H e_hat mod 2; a check of degree 0 is in no range, so its parity
    # stays 0 and a syndrome bit 1 there is never met
    parity = np.zeros(code.n_checks, dtype=np.uint8)

    def messages(edges: slice, checks: slice, d: int) -> None:
        """Both message updates on one check range's edges."""
        t_r, c_r = t[edges], c2v[edges]
        np.subtract(t_r, c_r, out=t_r)
        np.clip(t_r, -_HALF_CLIP, _HALF_CLIP, out=t_r)
        np.tanh(t_r, out=t_r)
        # raise |t| to at least 1e-12 and put the sign back, in the rare
        # range where some |t| is below it.  copysign would send -0.0 to
        # -1e-12, but no t here is -0.0: no posterior is (see below), a
        # difference of two floats is -0.0 only for -0.0 - (+0.0), and
        # tanh keeps a nonzero argument nonzero
        np.abs(t_r, out=c_r)
        if c_r.min() < _TANH_FLOOR:
            np.maximum(c_r, _TANH_FLOOR, out=c_r)
            np.copysign(c_r, t_r, out=t_r)
        # each check's product of its edges, signed by its syndrome bit;
        # the extrinsic product of an edge leaves its own factor out.  The
        # quotient runs column by column, each a long inner loop, where one
        # broadcast over the block would loop d elements at a time
        t_blk, c_blk = t_r.reshape(-1, d), c_r.reshape(-1, d)
        p_r = prod[checks]
        _fold_columns(np.multiply, t_blk, p_r)
        np.multiply(p_r, sign[checks], out=p_r)
        for j in range(d):
            np.divide(p_r, t_blk[:, j], out=c_blk[:, j])
        if d == 1:
            np.clip(c_r, -_EXT_MAX, _EXT_MAX, out=c_r)
        np.arctanh(c_r, out=c_r)
        np.copyto(weights[edges], c_r)

    def gather(edges: slice, checks: slice, d: int) -> None:
        """One range's posteriors into t, the parity of their hard
        decisions into parity."""
        # LdpcCode keeps var in [0, n_bits), so mode="clip" clips nothing;
        # it writes to out directly where the default mode would fill a
        # temporary first
        np.take(post, var[edges], out=t[edges], mode="clip")
        np.less(t[edges], 0.0, out=hard[edges])
        _fold_columns(np.bitwise_xor,
                      hard[edges].view(np.uint8).reshape(-1, d),
                      parity[checks])

    for _ in range(max_iter):
        list(_workers.in_order(lambda r: messages(*r), ranges, cpus))
        # each posterior is a float64 sum with llr0 / 2 > 2^-54, so it is
        # +0.0 or at least 2^-107 in magnitude, far above the least
        # float32, 2^-149: rounding it to float32 keeps its sign and hard
        # decision, and never gives -0.0
        np.add(np.bincount(var, weights=weights, minlength=code.n_bits),
               half_llr0, out=post)
        list(_workers.in_order(lambda r: gather(*r), ranges, cpus))
        if np.array_equal(parity, syndrome):
            return (post < 0.0).view(np.uint8), True
    return (post < 0.0).view(np.uint8), False


# =====================================================================
# Toeplitz hashing
# =====================================================================

def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1), an FFT length numpy's
    pocketfft runs fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that is >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def toeplitz_hash(bits: np.ndarray, out_len: int, hash_seed: int) -> np.ndarray:
    """Compress ``bits`` to ``out_len`` bits with a seeded Toeplitz matrix.

    T[i, j] = seed_bits[i - j + n - 1] over n + out_len - 1 fair seed bits,
    key = T bits mod 2.  Same (bits, out_len, hash_seed) always gives the
    same key; over random seeds flipping any single input bit flips each
    output bit with probability 1/2.

    T bits is computed as an FFT convolution in O((n + out_len) log(n +
    out_len)) time and O(n + out_len) memory, at the smallest 2^a 3^b 5^c
    length of at least n + out_len - 1 (about half the next power of two
    at n = 10^6).  Raises FloatingPointError, rather than return a key, if
    the float sums were not all within 0.25 of an integer.
    """
    bits = _as_bits(bits)
    if bits.ndim != 1:
        raise ParamError(f"can only hash a 1-D bit vector, got shape "
                         f"{bits.shape}")
    out_len = _integer("out_len", out_len, 0)
    hash_seed = _seed_int(hash_seed)
    n = bits.shape[0]
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    if n == 0:
        raise ParamError("cannot hash an empty bit vector to a nonzero length")
    if out_len > n:
        raise ParamError(f"hash must compress: out_len {out_len} exceeds "
                         f"input length {n}")
    n_seed = n + out_len - 1
    seed_bits = stream(hash_seed, "hash").integers(0, 2, size=n_seed,
                                                   dtype=np.uint8)
    # (T bits)[i] = conv(seed_bits, bits)[i + n - 1].  A cyclic convolution
    # of size >= n_seed wraps only terms past index n_seed - 1 onto indices
    # below n - 1, so the slice taken here is the linear convolution.
    size = _smooth_length(n_seed)
    acc = np.fft.irfft(np.fft.rfft(seed_bits, size) * np.fft.rfft(bits, size),
                       size)[n - 1:n_seed]
    sums = np.rint(acc)
    err = float(np.max(np.abs(acc - sums)))
    if not err < 0.25:
        raise FloatingPointError(f"FFT Toeplitz product is not exact: a sum is "
                                 f"{err:.3g} from the nearest integer")
    return (sums.astype(np.int64) & 1).astype(np.uint8)


# =====================================================================
# Bit-array serialization
# =====================================================================

def pack_bit_record(bits: np.ndarray | None) -> bytes:
    """One serialized record: presence byte, uint32 bit count, packed bits."""
    if bits is None:
        return b"\x00"
    bits = _as_bits(bits)
    if bits.ndim != 1:
        raise ParamError("bit records are one-dimensional")
    packed = np.packbits(bits, bitorder="little").tobytes()
    return b"\x01" + struct.pack("<I", bits.shape[0]) + packed


def unpack_bit_record(buf: bytes, offset: int = 0) -> tuple[np.ndarray | None, int]:
    """Inverse of ``pack_bit_record``; returns (bits, next_offset)."""
    offset = _integer("offset", offset, 0)
    if offset >= len(buf):
        raise ParamError("truncated bit record: missing presence byte")
    flag = buf[offset]
    offset += 1
    if flag == 0:
        return None, offset
    if flag != 1:
        raise ParamError(f"bad presence byte {flag!r} in bit record")
    if offset + 4 > len(buf):
        raise ParamError("truncated bit record: missing length")
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    nbytes = (count + 7) // 8
    if offset + nbytes > len(buf):
        raise ParamError("truncated bit record: missing payload")
    raw = np.frombuffer(buf, dtype=np.uint8, count=nbytes, offset=offset)
    bits = np.unpackbits(raw, count=count, bitorder="little").astype(np.uint8)
    return bits, offset + nbytes


def hexdump(data: bytes, width: int = 32) -> str:
    """Plain hex rendering, ``width`` bytes per line."""
    hexstr = data.hex()
    step = 2 * _integer("width", width, 1)
    return "\n".join(hexstr[i:i + step] for i in range(0, len(hexstr), step))
