"""Brute-force oracles for the extractor's combinatorial guarantees.

Everything here works on exhaustively enumerable instances and computes
exact integer or float quantities; nothing is estimated.  The checks:

  * :func:`check_hadamard` - for every nonzero field element a, the one-bit
    function f_a(x, y) = first bit of a * <x, y> has pairwise-uncorrelated
    rows: sum over y of (-1)^(f_a(x,y) + f_a(x',y)) is 0 for all x != x'.
  * :func:`check_one_bit_bias` - f_a restricted to flat sources (uniform on
    a size-2^k support) has bias at most 2^(1 - (2k - t)/2).
  * :func:`check_extractor_distance` - the exact output distribution of the
    inner product over explicit product sources is within the proven trace
    distance bound of uniform (classical restriction).
  * :func:`check_xor_lemma_instance` - the L1 form of the XOR lemma on an
    explicit joint distribution with classical side information.
  * :func:`check_first_bit_bijection` - S -> a matching of the linear
    functionals z -> parity(S & z) with z -> first bit of a * z.

Two methods back :func:`check_hadamard`.  "direct" literally forms the
+/-1 row matrix of every f_a and checks its Gram matrix, with zero
structural shortcuts; it is quadratic in the 2^t inputs and used up to
t = 8 by default.  "counts" histograms the exact value distribution of
<d, y> over all y for every nonzero difference d and reduces the pair sums
to those histograms; the reduction uses only the XOR-linearity of the inner
product and of the first-bit functionals, identities that the test suite
property-checks independently.  Within a method every reported quantity is
computed by literal enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import InfeasibleError
from .gf2q import GFContext
from .params import LOG2_SQRT3

MAX_HADAMARD_BITS = 16
MAX_DENSE_BITS = 12       # full 2^t x 2^t inner-product tables
DIRECT_METHOD_BITS = 8
_ROW_CHUNK = 512
EXHAUSTIVE_LIMIT = 10**5  # one-bit bias: enumerate supports up to this many
SAMPLED_PAIRS = 200       # one-bit bias: seeded support pairs tested otherwise


# ---------- vectorized schoolbook tables ----------

@cache
def shift_tables(ctx: GFContext) -> list[np.ndarray]:
    """T[j][v] = v * x^j mod modulus, for all q-bit v and 0 <= j < q.

    Built entrywise by shift-and-reduce, so each entry is an independent
    polynomial computation; combining them per set bit of a multiplier is
    exactly the schoolbook carry-less product.  Cached per context; treat
    the returned arrays as read-only.
    """
    q = ctx.q
    values = np.arange(1 << q, dtype=np.uint32)
    tables = []
    t = values.copy()
    for _ in range(q):
        tables.append(t.astype(np.uint16))
        t = t << 1
        high = (t >> q) & 1
        t ^= high * np.uint32(ctx.modulus)
    return tables


MAX_PRODUCT_TABLE_BITS = 11


@cache
def product_table(ctx: GFContext) -> np.ndarray | None:
    """Dense u*v table over all q-bit pairs, or None when q is too wide.

    Assembled from the shift tables by XORing T[j] into the rows whose u has
    bit j set, which is the schoolbook product expansion in bulk.
    """
    if ctx.q > MAX_PRODUCT_TABLE_BITS:
        return None
    q = ctx.q
    tables = shift_tables(ctx)
    us = np.arange(1 << q)
    m = np.zeros((1 << q, 1 << q), dtype=np.uint16)
    for j in range(q):
        m[((us >> j) & 1).astype(bool)] ^= tables[j][None, :]
    return m


def first_bit_rows(ctx: GFContext) -> np.ndarray:
    """brow[v] packs the first bits of v * x^j over j: bit j of brow[v].

    The first bit of a * v equals parity(a & brow[v]) for every a, again by
    schoolbook expansion of the product.
    """
    q = ctx.q
    tables = shift_tables(ctx)
    brow = np.zeros(1 << q, dtype=np.uint32)
    for j in range(q):
        brow |= (tables[j].astype(np.uint32) & 1) << j
    return brow


def walsh_transform(rows: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (exact, int64).

    out[..., a] = sum_w rows[..., w] * (-1)^popcount(a & w).
    """
    a = np.array(rows, dtype=np.int64, copy=True)
    n = a.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        b = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        top = b[..., 0, :] + b[..., 1, :]
        bot = b[..., 0, :] - b[..., 1, :]
        a = np.concatenate((top[..., None, :], bot[..., None, :]), axis=-2).reshape(a.shape)
        h *= 2
    return a


def _feasible(ctx: GFContext, n: int, cap: int, what: str) -> int:
    t = ctx.q * n
    if n < 1:
        raise ValueError("n must be >= 1")
    if t > cap:
        raise InfeasibleError(f"{what} limited to q*n <= {cap}, got {t}")
    return t


@cache
def _window_table(ctx: GFContext, base: int, width: int) -> np.ndarray:
    """W[d, u] = d * (u << base) mod modulus, for all q-bit d, width-bit u.

    Columns are assembled from the shift tables per set bit of u: the
    schoolbook expansion of the product over a window of multiplier bits.
    """
    tables = shift_tables(ctx)
    us = np.arange(1 << width)
    w = np.zeros((1 << ctx.q, 1 << width), dtype=np.uint16)
    for j in range(width):
        w[:, ((us >> j) & 1).astype(bool)] ^= tables[base + j][:, None]
    return w


def _ip_rows(ctx: GFContext, n: int, d_values: np.ndarray) -> np.ndarray:
    """Rows of inner-product values: out[r, y] = <d_values[r], y> over all y.

    Vectorized schoolbook.  The y index is positional in its digits, so each
    digit (or digit window, for n = 1) contributes a small per-row table
    placed on its own axis; one broadcast XOR chain materializes all rows.
    """
    q = ctx.q
    t = q * n
    mask = (1 << q) - 1
    d_values = np.asarray(d_values, dtype=np.int64)
    rows = len(d_values)
    if n == 1:
        window = 8 if q > 8 else q
        bases = list(range(0, q, window))
        parts = []
        for pos, base in enumerate(bases):
            width = min(window, q - base)
            table = _window_table(ctx, base, width)[d_values]  # (rows, 2^width)
            shape = [rows] + [1] * len(bases)
            shape[len(bases) - pos] = 1 << width
            parts.append(table.reshape(shape))
    else:
        dense = product_table(ctx)
        if dense is None:
            raise InfeasibleError(f"q={q} with n={n} exceeds the dense-table width")
        parts = []
        for i in range(n):
            di = (d_values >> (i * q)) & mask
            shape = [rows] + [1] * n
            shape[n - i] = 1 << q
            parts.append(dense[di].reshape(shape))
    acc = parts[0]
    for part in parts[1:]:
        acc = acc ^ part
    return np.ascontiguousarray(acc).reshape(rows, 1 << t)


def ip_value_table(ctx: GFContext, n: int) -> np.ndarray:
    """Dense table of <x, y> for all x, y; feasible for q*n <= 12."""
    t = _feasible(ctx, n, MAX_DENSE_BITS, "dense inner-product table")
    rows = []
    xs = np.arange(1 << t, dtype=np.int64)
    for start in range(0, 1 << t, _ROW_CHUNK):
        rows.append(_ip_rows(ctx, n, xs[start:start + _ROW_CHUNK]))
    return np.concatenate(rows, axis=0)


# ---------- hadamard property ----------

def check_hadamard(ctx: GFContext, n: int, method: str = "auto") -> bool:
    """Whether every f_a has exactly uncorrelated rows (zero tolerance)."""
    t = _feasible(ctx, n, MAX_HADAMARD_BITS, "hadamard check")
    if method == "auto":
        method = "direct" if t <= DIRECT_METHOD_BITS else "counts"
    if method == "direct":
        return _hadamard_direct(ctx, n)
    if method == "counts":
        return _hadamard_counts(ctx, n)
    raise ValueError(f"unknown method {method!r}")


def _hadamard_direct(ctx: GFContext, n: int) -> bool:
    """Literal check: Gram matrix of every f_a's +/-1 row matrix."""
    t = ctx.q * n
    if t > MAX_DENSE_BITS:
        raise InfeasibleError(f"direct method needs q*n <= {MAX_DENSE_BITS}")
    size = 1 << t
    z = ip_value_table(ctx, n)
    brow = first_bit_rows(ctx)
    parity = _parity_table(ctx.q)
    identity = np.int64(size) * np.eye(size, dtype=np.int64)
    for a in range(1, 1 << ctx.q):
        fa = parity[a & brow][z]                       # 0/1 truth table of f_a
        signs = (1 - 2 * fa.astype(np.int32)).astype(np.float64)
        gram = signs @ signs.T
        if not np.array_equal(gram.astype(np.int64), identity):
            return False
    return True


def _parity_table(q: int) -> np.ndarray:
    v = np.arange(1 << q, dtype=np.uint32)
    p = v.copy()
    shift = 1
    while shift < (1 << q).bit_length():
        p ^= p >> shift
        shift <<= 1
    return (p & 1).astype(np.uint8)


def _hadamard_counts(ctx: GFContext, n: int) -> bool:
    """Histogram check over pair differences.

    For nonzero d, the pair sum at (x, x + d) equals
    sum_v counts_d[v] * (-1)^(first bit of a*v) with
    counts_d[v] = #{y : <d, y> = v}, by XOR-linearity of the inner product
    and the first-bit functionals (property-tested separately).  When
    counts_d is the uniform 2^(t-q) histogram the sums factor through the
    functional balances, which are checked exactly once via a Walsh
    transform; any non-uniform row falls back to an exact per-a Walsh
    evaluation of its sums.
    """
    q = ctx.q
    t = q * n
    brow = first_bit_rows(ctx)

    # balances[a] = sum_v (-1)^(first bit of a*v); must vanish for a != 0.
    hist = np.bincount(brow, minlength=1 << q)
    balances = walsh_transform(hist)
    balances_ok = not np.any(balances[1:])

    expected = 1 << (t - q)
    ds = np.arange(1, 1 << t, dtype=np.int64)
    for start in range(0, len(ds), _ROW_CHUNK):
        chunk = ds[start:start + _ROW_CHUNK]
        z = _ip_rows(ctx, n, chunk)
        counts = np.empty((len(chunk), 1 << q), dtype=np.int64)
        for row in range(len(chunk)):
            counts[row] = np.bincount(z[row], minlength=1 << q)
        uniform = np.all(counts == expected, axis=1)
        if uniform.all():
            if not balances_ok:
                return False
            continue
        # Exact fallback for the non-uniform rows (and the uniform ones are
        # still governed by the balances).
        if not balances_ok and uniform.any():
            return False
        for row in np.nonzero(~uniform)[0]:
            grouped = np.bincount(brow, weights=counts[row].astype(np.float64),
                                  minlength=1 << q)
            sums = walsh_transform(np.rint(grouped).astype(np.int64))
            if np.any(sums[1:]):
                return False
    return True


# ---------- one-bit bias over flat sources ----------

@dataclass(frozen=True)
class BiasReport:
    input_bits: int        # t = q * n per source
    entropy_floor: int     # k, min-entropy of each flat source
    max_bias: float        # worst |2 Pr[f_a = 1] - 1| observed
    bound: float           # 2^(1 - (2k - t)/2), may exceed 1
    pairs_tested: int
    exhaustive: bool

    @property
    def holds(self) -> bool:
        return self.max_bias <= self.bound + 1e-12


def check_one_bit_bias(ctx: GFContext, n: int, k: int, *, seed: int = 0) -> BiasReport:
    """Max bias of every f_a over flat source pairs with min-entropy k.

    Flat sources (uniform on a size-2^k support) are the extreme points of
    the min-entropy polytope, so they witness the worst bias.  All supports
    are enumerated when there are at most EXHAUSTIVE_LIMIT of them and at
    most that many support pairs; otherwise SAMPLED_PAIRS seeded random
    pairs are tested and the report says so.
    """
    t = _feasible(ctx, n, MAX_DENSE_BITS, "one-bit bias check")
    if not 0 <= k <= t:
        raise ValueError(f"entropy floor k={k} outside 0..{t}")
    size = 1 << t
    support = 1 << k
    z = ip_value_table(ctx, n)
    brow = first_bit_rows(ctx)
    w_of_z = brow[z]  # map each (x, y) cell straight to its functional group

    n_subsets = math.comb(size, support)
    exhaustive = n_subsets <= EXHAUSTIVE_LIMIT and n_subsets**2 <= EXHAUSTIVE_LIMIT
    if exhaustive:
        subsets = [np.fromiter(c, dtype=np.int64) for c in combinations(range(size), support)]
        pairs = [(sx, sy) for sx in subsets for sy in subsets]
    else:
        rng = np.random.default_rng(seed)
        pairs = [
            (
                rng.choice(size, size=support, replace=False).astype(np.int64),
                rng.choice(size, size=support, replace=False).astype(np.int64),
            )
            for _ in range(SAMPLED_PAIRS)
        ]

    denom = float(support) * float(support)
    max_bias = 0.0
    for sx, sy in pairs:
        grouped = np.bincount(w_of_z[np.ix_(sx, sy)].ravel(), minlength=1 << ctx.q)
        spectrum = walsh_transform(grouped)
        # spectrum[a] = sum over support pairs of (-1)^f_a; bias = |spectrum|/4^k
        bias = float(np.abs(spectrum[1:]).max()) / denom
        max_bias = max(max_bias, bias)
    bound = 2.0 ** (1.0 - (2 * k - t) / 2.0)
    return BiasReport(t, k, max_bias, bound, len(pairs), exhaustive)


# ---------- exact output distance ----------

@dataclass(frozen=True)
class DistanceReport:
    description: str
    input_bits: int
    rate: float            # min-entropy rate used in the bound
    distance: float        # exact total variation distance from uniform
    bound: float           # proven distance bound, clamped to 1

    @property
    def holds(self) -> bool:
        return self.distance <= self.bound + 1e-12


def check_extractor_distance(
    ctx: GFContext,
    n: int,
    px: Sequence[float],
    py: Sequence[float],
    declared_rate: float | None = None,
    description: str = "",
) -> DistanceReport:
    """Exact distance of the inner-product output from uniform.

    px and py are explicit distributions over the 2^(q*n) inputs of each
    source.  The rate defaults to the largest one the tables support; a
    declared rate is validated against the tables' min-entropies.
    """
    t = _feasible(ctx, n, MAX_DENSE_BITS, "distance check")
    size = 1 << t
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    for name, p in (("px", px), ("py", py)):
        if p.shape != (size,):
            raise ValueError(f"{name} must have {size} entries")
        if np.any(p < 0) or abs(float(p.sum()) - 1.0) > 2.0 ** -30:
            raise ValueError(f"{name} is not a probability distribution")
    hmin = min(-math.log2(float(px.max())), -math.log2(float(py.max())))
    if declared_rate is None:
        rate = hmin / t
    else:
        rate = declared_rate
        if hmin + 1e-12 < rate * t:
            raise ValueError(
                f"tables have min-entropy {hmin:.6f} < declared rate * qn = {rate * t:.6f}"
            )
    z = ip_value_table(ctx, n)
    weights = np.outer(px, py)
    out = np.bincount(z.ravel(), weights=weights.ravel(), minlength=1 << ctx.q)
    distance = 0.5 * float(np.abs(out - 1.0 / (1 << ctx.q)).sum())
    log2_bound = LOG2_SQRT3 - 0.25 - (rate / 4.0 - 0.125) * t + 2.0 * ctx.q
    bound = min(1.0, 2.0 ** log2_bound)
    return DistanceReport(description or f"q={ctx.q} n={n}", t, rate, distance, bound)


# ---------- XOR lemma on explicit instances ----------

def xor_lemma_sides(q: int, joint) -> tuple[float, float]:
    """L1 sides of the XOR lemma for a q-bit Z with classical side info.

    joint[z, e] is the joint distribution.  Returns (lhs, rhs) with
    lhs = ||P(Z,E) - U_q x P(E)||_1 and
    rhs = 2^q * sum over nonzero S of ||P(S.Z, E) - U_1 x P(E)||_1.
    """
    if q > 4:
        raise InfeasibleError("XOR lemma check limited to q <= 4")
    joint = np.asarray(joint, dtype=np.float64)
    if joint.ndim != 2 or joint.shape[0] != 1 << q:
        raise ValueError(f"joint must be (2^{q}, num_e)")
    if joint.shape[1] > 16:
        raise InfeasibleError("classical side information limited to <= 16 values")
    if np.any(joint < 0) or abs(float(joint.sum()) - 1.0) > 2.0 ** -30:
        raise ValueError("joint is not a probability distribution")
    pe = joint.sum(axis=0)
    lhs = float(np.abs(joint - pe[None, :] / (1 << q)).sum())
    parity = _parity_table(q)
    zs = np.arange(1 << q)
    rhs = 0.0
    for s in range(1, 1 << q):
        bits = parity[s & zs]
        p1 = joint[bits == 1].sum(axis=0)
        p0 = joint[bits == 0].sum(axis=0)
        rhs += float(np.abs(p1 - pe / 2).sum() + np.abs(p0 - pe / 2).sum())
    rhs *= float(1 << q)
    return lhs, rhs


def check_xor_lemma_instance(q: int, joint) -> bool:
    """Whether the XOR lemma inequality holds on this explicit instance."""
    lhs, rhs = xor_lemma_sides(q, joint)
    return lhs <= rhs + 1e-12


# ---------- the S <-> a functional bijection ----------

def check_first_bit_bijection(ctx: GFContext) -> bool:
    """Each parity functional S.z equals first-bit(a * z) for exactly one a.

    Verified by matching complete truth tables, feasible for q <= 8.
    """
    if ctx.q > 8:
        raise InfeasibleError("bijection check limited to q <= 8")
    q = ctx.q
    parity = _parity_table(q)
    zs = np.arange(1 << q)
    brow = first_bit_rows(ctx)
    a_tables = {}
    for a in range(1 << q):
        key = parity[a & brow[zs]].tobytes()
        if key in a_tables:
            return False
        a_tables[key] = a
    for s in range(1 << q):
        key = parity[s & zs].astype(np.uint8).tobytes()
        if key not in a_tables:
            return False
        if (s == 0) != (a_tables[key] == 0):
            return False
    return True


def hadamard_instances(max_bits: int = MAX_HADAMARD_BITS):
    """All (q, n) with q * n <= max_bits, the canonical sweep order."""
    for q in range(1, max_bits + 1):
        for n in range(1, max_bits // q + 1):
            yield q, n


__all__ = [
    "BiasReport",
    "DistanceReport",
    "MAX_DENSE_BITS",
    "MAX_HADAMARD_BITS",
    "check_extractor_distance",
    "check_first_bit_bijection",
    "check_hadamard",
    "check_one_bit_bias",
    "check_xor_lemma_instance",
    "first_bit_rows",
    "hadamard_instances",
    "ip_value_table",
    "shift_tables",
    "walsh_transform",
    "xor_lemma_sides",
]
