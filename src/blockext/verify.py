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
property-checks independently.

Five identities make the oracles fast; each keeps its result exact and
equal to literal enumeration, and each has a guard:

  * Gram blocking (direct).  The Gram matrix is formed in row blocks of at
    most 2^18 multiply-adds each, below OpenBLAS's threading threshold, in
    float32.  Guard: exact, because every entry and partial sum is an
    integer of magnitude at most 2^t <= 2^12 < 2^24.
  * Per-digit Walsh product (counts, n >= 2).  The histogram of
    <d, y> = XOR_i d_i * y_i is the XOR-convolution of the per-digit
    histograms h_{d_i}, so it is the inverse Walsh transform of the product
    of their transforms.  A counting fact, using no field property.  Guard:
    each h_d for d != 0 is the bincount of a literal n = 1 table row, and
    h_0 is the point mass 2^q at 0 (0 * y = 0), never a table row, so a
    wrong product in any nonzero-digit row shows in the difference (d, 0).
  * Rank (counts, n = 1).  A row y -> d * y that is GF(2)-linear in y,
    with unit columns in range(2^q), is a permutation of the field, so its
    histogram is all ones, exactly when its q x q matrix M(d) of unit
    columns has rank q; one batched GF(2) elimination ranks every M(d).
    Guard: every window table the rows are built from is first checked to
    be linear in its column over every cell, so every row is linear in y;
    a table that is not, a column outside range(2^q), or a short rank
    sends all rows to the literal bincount loop.
  * Linearity in y (one-bit bias, q < k).  f_a(x, .) is GF(2)-linear in y,
    so a pair's spectrum is a sum of 2^q * 2^k lookups in the Walsh
    transform of the y support instead of a 4^k-cell histogram.  Guard: the
    table is first checked, over all 4^t cells, to equal the XOR-span of its
    unit columns; a table that is not takes the literal path.
  * Discrete-log convolution (one-bit bias, n = 1).  With g a generator of
    the multiplicative group, log(x * y) = log x + log y mod 2^q - 1, so the
    histogram of x * y over a support pair is the cyclic convolution of the
    two log indicators, plus the zero cell in closed form; it is taken by
    FFT for a batch of pairs and rounded.  Guard: g is read off the table
    and every cell is checked against exp[log x + log y] (row 0 and column 0
    zero); a table that fails, q = 1, or a convolution value 1/4 or more
    from an integer takes the literal path.

Every inner-product table is assembled from window tables: for each digit
of the multiplier and each window of at most 8 of its bits, the products of
every field element with every window value, built from per-bit shift
tables by schoolbook expansion, by doubling: the columns of values with top
bit j are the columns below them XOR shift table j, so each cell is written
once.  No table shares code with the extractor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleError
from .gf2q import GFContext
from .params import LOG2_SQRT3

MAX_HADAMARD_BITS = 16
MAX_DENSE_BITS = 12       # full 2^t x 2^t inner-product tables
DIRECT_METHOD_BITS = 8
_ROW_CHUNK = 512
_LOOKUP_BATCH = 1 << 16   # one-bit bias: table entries per batch of support pairs
_GRAM_BLOCK_OPS = 1 << 18  # multiply-adds per Gram product; OpenBLAS threads above this
EXHAUSTIVE_LIMIT = 10**5  # one-bit bias: enumerate supports up to this many
SAMPLED_PAIRS = 200       # one-bit bias: seeded support pairs tested otherwise
_SUPPORT_DRAWS = 32       # one-bit bias: draws kept, all of `verify --suite bias` at t <= 12


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
    a = np.array(rows, dtype=np.int64, order="C")  # a C-contiguous copy: reshape is a view
    n = a.shape[-1]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < n:
        # In place on a view of the fresh copy: (lo, hi) -> (lo + hi, lo - hi).
        b = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        lo, hi = b[..., 0, :], b[..., 1, :]
        lo += hi
        hi *= -2
        hi += lo
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

    Column u is the XOR of the shift-table columns of u's set bits: the
    schoolbook expansion of the product over a window of multiplier bits.
    Built by doubling, so each cell is written once: columns
    [2^j, 2^(j+1)) are columns [0, 2^j) XOR shift-table column base + j.
    """
    tables = shift_tables(ctx)
    w = np.empty((1 << ctx.q, 1 << width), dtype=np.uint16)
    w[:, 0] = 0
    for j in range(width):
        np.bitwise_xor(w[:, :1 << j], tables[base + j][:, None], out=w[:, 1 << j:2 << j])
    return w


def _windows(q: int) -> list[tuple[int, int]]:
    """(base, width) of each window of at most 8 bits of a q-bit digit."""
    return [(base, min(8, q - base)) for base in range(0, q, 8)]


def _ip_rows(ctx: GFContext, n: int, d_values: np.ndarray) -> np.ndarray:
    """Rows of inner-product values: out[r, y] = <d_values[r], y> over all y.

    Vectorized schoolbook.  The y index is positional: each digit of y,
    split into windows of at most 8 bits, contributes a per-row window table
    placed on its own axis, and one broadcast XOR chain materializes all rows.
    """
    q = ctx.q
    d_values = np.asarray(d_values, dtype=np.int64)
    rows = len(d_values)
    axes = [(i, base, width) for i in range(n) for base, width in _windows(q)]
    acc = None
    for pos, (i, base, width) in enumerate(axes):
        di = (d_values >> (i * q)) & ctx.mask
        shape = [rows] + [1] * len(axes)
        shape[len(axes) - pos] = 1 << width
        part = _window_table(ctx, base, width)[di].reshape(shape)
        acc = part if acc is None else acc ^ part
    return np.ascontiguousarray(acc).reshape(rows, 1 << (q * n))


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
    """Literal check: Gram matrix of every f_a's +/-1 row matrix.

    The Gram matrix is formed in row blocks of `step` rows, each product at
    most _GRAM_BLOCK_OPS multiply-adds.  float32 is exact here: every entry
    and partial sum is an integer of magnitude at most 2^t <= 2^12.
    """
    size = 1 << (ctx.q * n)
    z = ip_value_table(ctx, n)
    brow = first_bit_rows(ctx)
    parity = _parity_table(ctx.q)
    step = max(1, min(size, _GRAM_BLOCK_OPS // (size * size)))
    identity = (np.float32(size) * np.eye(size, dtype=np.float32)).reshape(
        size // step, step, size)
    for a in range(1, 1 << ctx.q):
        signs = (1 - 2 * parity[a & brow].astype(np.float32))[z]   # +/-1 truth table of f_a
        gram = np.matmul(signs.reshape(size // step, step, size), signs.T)
        if not np.array_equal(gram, identity):
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
    evaluation of its sums.  For n = 1 every row is uniform when the
    window tables pass the rank check (:func:`_rank_verdicts`), and
    otherwise each row takes a literal bincount of its inner-product row;
    for n >= 2 the histograms come from the per-digit Walsh product
    (:func:`_product_counts`).
    """
    q = ctx.q
    t = q * n
    brow = first_bit_rows(ctx)

    # balances[a] = sum_v (-1)^(first bit of a*v); must vanish for a != 0.
    hist = np.bincount(brow, minlength=1 << q)
    balances = walsh_transform(hist)
    balances_ok = not np.any(balances[1:])
    if n == 1:
        permutations = _rank_verdicts(ctx)
        if permutations is not None and permutations.all():
            return balances_ok   # every row's histogram is all ones

    spectra = _digit_spectra(ctx) if n > 1 else None
    expected = 1 << (t - q)
    ds = np.arange(1, 1 << t, dtype=np.int64)
    for start in range(0, len(ds), _ROW_CHUNK):
        chunk = ds[start:start + _ROW_CHUNK]
        if spectra is None:
            z = _ip_rows(ctx, n, chunk)
            counts = np.empty((len(chunk), 1 << q), dtype=np.int64)
            for row in range(len(chunk)):
                counts[row] = np.bincount(z[row], minlength=1 << q)
        else:
            counts = _product_counts(spectra, chunk, q, n)
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


def _linear_in_y(w: np.ndarray) -> bool:
    """Whether every row of w is GF(2)-linear in the column index y.

    Checked over every cell: column y + 2^j must equal column y XOR column
    2^j for every y < 2^j (j = 0 forces column 0 to be zero).
    """
    size = w.shape[1]
    for j in range(size.bit_length() - 1):
        unit = 1 << j
        if not np.array_equal(w[:, unit:2 * unit], w[:, :unit] ^ w[:, unit:unit + 1]):
            return False
    return True


def _rank_verdicts(ctx: GFContext) -> np.ndarray | None:
    """perm[d - 1]: the n = 1 row y -> d * y takes every value in range(2^q) once.

    :func:`_ip_rows` builds row d as the XOR of the window tables' rows d,
    so when every window table is GF(2)-linear in its column (checked over
    every cell), so is every row, with matrix M(d) made of the tables' unit
    columns.  Such a row with columns in range(2^q) is a bijection exactly
    when M(d) has rank q.  None when a window table is not linear.
    """
    q = ctx.q
    columns = []
    for base, width in _windows(q):
        w = _window_table(ctx, base, width)
        if not _linear_in_y(w):
            return None
        columns.append(w[1:, 1 << np.arange(width)])
    m = np.concatenate(columns, axis=1)
    return np.all(m < 1 << q, axis=1) & (_gf2_ranks(m, q) == q)


def _gf2_ranks(columns: np.ndarray, bits: int) -> np.ndarray:
    """ranks[r] = GF(2) rank of the bit vectors columns[r, :], each below 2^bits.

    One pivot bit per step: a column holding the bit is XORed into every
    column holding it, itself included, and the pivots found are counted.
    """
    cols = columns.astype(np.int64)
    rows = np.arange(len(cols))
    ranks = np.zeros(len(cols), dtype=np.int64)
    for bit in range(bits):
        holds = (cols >> bit) & 1
        pivot = cols[rows, holds.argmax(axis=1)]   # any column, when none holds the bit
        cols ^= holds * pivot[:, None]
        ranks += holds.any(axis=1)
    return ranks


def _digit_spectra(ctx: GFContext) -> np.ndarray:
    """spec[d] = Walsh transform of h_d, h_d[u] = #{y : d * y = u} over q-bit y.

    h_d for nonzero d is the bincount of a literal n = 1 inner-product row;
    h_0 is the point mass 2^q at 0 (0 * y = 0), not a table row.
    """
    q = ctx.q
    z = _ip_rows(ctx, 1, np.arange(1, 1 << q))
    offsets = np.arange(1, 1 << q, dtype=np.int64)[:, None] << q
    hist = np.bincount((z + offsets).ravel(), minlength=1 << (2 * q)).reshape(1 << q, 1 << q)
    hist[0, 0] = 1 << q
    return walsh_transform(hist)


def _product_counts(spectra: np.ndarray, d_values: np.ndarray, q: int, n: int) -> np.ndarray:
    """counts[r, v] = #{y : <d_values[r], y> = v}, by the per-digit Walsh product.

    The value histogram of <d, y> = XOR_i d_i * y_i over all y is the
    XOR-convolution of the per-digit histograms h_{d_i}, so its Walsh
    transform is the pointwise product of their transforms; transforming
    back and dividing by 2^q recovers the exact integer counts.
    """
    mask = (1 << q) - 1
    product = spectra[d_values & mask]
    for i in range(1, n):
        product = product * spectra[(d_values >> (i * q)) & mask]
    return walsh_transform(product) >> q


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
    pairs are tested and the report says so.  The one report of
    :func:`bias_reports` for k.
    """
    return next(bias_reports(ctx, n, (k,), seed=seed))


def bias_reports(ctx: GFContext, n: int, ks: Sequence[int], *,
                 seed: int = 0) -> Iterator[BiasReport]:
    """One :func:`check_one_bit_bias` report per entropy floor in ks, in order.

    The tables are built once for all of ks; each k draws its support pairs
    as :func:`check_one_bit_bias` does, from `seed`.  Each pair's spectrum
    is the Walsh transform of its grouped histogram (4^k cells).  For a
    batch of pairs at a time it comes instead, when n = 1 and the table
    passes the discrete-log guard, from a cyclic convolution of log
    indicators (:func:`_log_tables`, :func:`_log_spectra`), or, when q < k
    and the table is GF(2)-linear in y, from 2^k lookups per a in the Walsh
    transform of the y support (:func:`_y_functionals`,
    :func:`_linear_spectra`).  All give the same integers.
    """
    t = _feasible(ctx, n, MAX_DENSE_BITS, "one-bit bias check")
    for k in ks:
        if not 0 <= k <= t:
            raise ValueError(f"entropy floor k={k} outside 0..{t}")
    size = 1 << t
    z = ip_value_table(ctx, n)
    brow = first_bit_rows(ctx)
    logs = _log_tables(z) if n == 1 else None
    functionals = cache(lambda: _y_functionals(brow[z], ctx.q))   # built at the first k > q

    for k in ks:
        support = 1 << k
        x_sets, y_sets, exhaustive = _support_pairs(size, support, seed)
        batched = None
        if logs is not None:
            batched = partial(_log_spectra, logs, brow)
            step = max(1, _LOOKUP_BATCH >> ctx.q)
        elif ctx.q < k and functionals() is not None:
            batched = partial(_linear_spectra, functionals())
            step = max(1, _LOOKUP_BATCH // max(size, support << ctx.q))

        denom = float(support) * float(support)
        max_bias = None
        if batched is not None:
            max_bias = 0.0
            for start in range(0, len(x_sets), step):
                spectra = batched(x_sets[start:start + step], y_sets[start:start + step])
                if spectra is None:   # a convolution that did not round: enumerate
                    max_bias = None
                    break
                max_bias = max(max_bias, float(np.abs(spectra[:, 1:]).max()) / denom)
        if max_bias is None:
            max_bias = 0.0
            w_of_z = brow[z]  # map each (x, y) cell straight to its functional group
            for sx, sy in zip(x_sets, y_sets):
                grouped = np.bincount(w_of_z[np.ix_(sx, sy)].ravel(), minlength=1 << ctx.q)
                spectrum = walsh_transform(grouped)
                # spectrum[a] = sum over support pairs of (-1)^f_a; bias = |spectrum|/4^k
                bias = float(np.abs(spectrum[1:]).max()) / denom
                max_bias = max(max_bias, bias)
        bound = 2.0 ** (1.0 - (2 * k - t) / 2.0)
        yield BiasReport(t, k, max_bias, bound, len(x_sets), exhaustive)


@lru_cache(maxsize=_SUPPORT_DRAWS)
def _support_pairs(size: int, support: int, seed: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """The (x, y) support pairs of the bias check, as two (pairs, support) arrays.

    Every pair of size-`support` subsets of range(size) when there are few
    enough; otherwise SAMPLED_PAIRS seeded random pairs, x drawn before y.
    Cached, because the draw depends on (t, k, seed) alone and every
    instance (q, n) of one t = q * n repeats it; the arrays are read-only.
    """
    n_subsets = math.comb(size, support)
    exhaustive = n_subsets <= EXHAUSTIVE_LIMIT and n_subsets**2 <= EXHAUSTIVE_LIMIT
    if exhaustive:
        subsets = np.array(list(combinations(range(size), support)), dtype=np.uint16)
        x_sets, y_sets = np.repeat(subsets, n_subsets, axis=0), np.tile(subsets, (n_subsets, 1))
    else:
        rng = np.random.default_rng(seed)
        drawn = np.array([rng.choice(size, size=support, replace=False)
                          for _ in range(2 * SAMPLED_PAIRS)], dtype=np.uint16)
        x_sets, y_sets = drawn[0::2], drawn[1::2]
    for sets in (x_sets, y_sets):
        sets.setflags(write=False)
    return x_sets, y_sets, exhaustive


def _y_functionals(w: np.ndarray, q: int) -> np.ndarray | None:
    """L[a, x] with parity(a & w[x, y]) = parity(y & L[a, x]) for every y.

    Bit j of L[a, x] is parity(a & w[x, 2^j]).  The identity needs w[x, .]
    to be GF(2)-linear in y, so it is checked first, over all 4^t cells
    (:func:`_linear_in_y`).  A table that fails gets None.
    """
    if not _linear_in_y(w):
        return None
    t = w.shape[1].bit_length() - 1
    parity = _parity_table(q)
    a = np.arange(1 << q, dtype=w.dtype)[:, None]
    functionals = np.zeros((1 << q, w.shape[0]), dtype=np.int64)
    for j in range(t):
        functionals |= parity[a & w[:, 1 << j]].astype(np.int64) << j
    return functionals


def _linear_spectra(functionals: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """spectra[p, a] = sum over sx[p] x sy[p] of (-1)^parity(a & w[x, y]).

    By linearity in y, the sum over y in sy[p] of (-1)^parity(y & L[a, x])
    is the Walsh transform of the indicator of sy[p] at L[a, x]: 2^q * 2^k
    lookups per pair in place of 4^k cells.  sx and sy are (pairs, 2^k).
    """
    rows = np.arange(len(sy))[:, None]
    indicator = np.zeros((len(sy), functionals.shape[1]), dtype=np.int64)
    indicator[rows, sy] = 1
    walsh = walsh_transform(indicator)
    return walsh[rows[:, :, None], functionals[:, sx].swapaxes(0, 1)].sum(axis=-1)


def _log_tables(z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(exp, log) with exp[i] = g^i, log[exp[i]] = i, for z[x, y] = x * y (n = 1).

    A generator g is read off the table: its powers, taken through row
    z[g], must hit all 2^q - 1 nonzero elements.  The table is then checked
    over every cell: row 0 and column 0 are zero, and z[x, y] =
    exp[(log x + log y) mod (2^q - 1)], in row blocks of at most _ROW_CHUNK
    rows.  log[0] is 2^q - 1, one past every power.  None when no g is
    found (always at q = 1, where g = 1 is the only candidate) or a cell
    differs.
    """
    size = z.shape[0]
    order = size - 1
    if z[0].any() or z[:, 0].any():
        return None
    for g in range(2, size):
        row, powers, seen = z[g].tolist(), [1], {1}
        while len(powers) < order:
            power = row[powers[-1]]
            if not 0 < power < size or power in seen:
                break
            seen.add(power)
            powers.append(power)
        if len(powers) == order:
            break
    else:
        return None
    exp = np.array(powers, dtype=np.int64)
    log = np.empty(size, dtype=np.int64)
    log[exp] = np.arange(order)
    log[0] = order
    exp_twice = np.concatenate((exp, exp))   # exp_twice[i + j] = exp[(i + j) mod order]
    for start in range(1, size, _ROW_CHUNK):
        rows = log[start:start + _ROW_CHUNK, None]
        if not np.array_equal(z[start:start + _ROW_CHUNK, 1:], exp_twice[rows + log[1:]]):
            return None
    return exp, log


def _log_spectra(logs: tuple[np.ndarray, np.ndarray], brow: np.ndarray,
                 sx: np.ndarray, sy: np.ndarray) -> np.ndarray | None:
    """spectra[p, a] = sum over sx[p] x sy[p] of (-1)^parity(a & brow[x * y]), n = 1.

    For nonzero x and y, log(x * y) = log x + log y mod 2^q - 1, so the
    histogram of the nonzero products is the cyclic convolution of the log
    indicators of sx[p] and sy[p], taken by FFT and rounded; the zero cell
    counts the rest of the 4^k pairs.  The counts are grouped by brow and
    Walsh transformed.  None when a convolution value lies 1/4 or more from
    an integer: the exact values are counts of at most 2^12 over at most
    4095 terms, far inside float64's rounding.
    """
    exp, log = logs
    order = len(exp)
    q = order.bit_length()
    rows = np.arange(len(sx))[:, None]
    indicators = []
    for support in (sx, sy):
        indicator = np.zeros((len(sx), order + 1))   # column `order` marks a support holding 0
        indicator[rows, log[support]] = 1.0
        indicators.append(indicator)
    conv = np.fft.irfft(np.fft.rfft(indicators[0][:, :order]) *
                        np.fft.rfft(indicators[1][:, :order]), n=order)
    counts = np.rint(conv)
    if np.any(np.abs(conv - counts) >= 0.25):
        return None
    nonzero = [sx.shape[1] - indicator[:, order] for indicator in indicators]
    zero_cell = sx.shape[1] * sy.shape[1] - nonzero[0] * nonzero[1]
    keys = brow[exp][None, :] + (rows << q)
    grouped = np.bincount(keys.ravel(), weights=counts.ravel(), minlength=len(sx) << q)
    grouped = grouped.reshape(len(sx), 1 << q)
    grouped[:, brow[0]] += zero_cell
    return walsh_transform(grouped.astype(np.int64))


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
    out = np.zeros(1 << ctx.q)
    for start in range(0, size, _ROW_CHUNK):   # row blocks bound the weight arrays
        rows = slice(start, start + _ROW_CHUNK)
        out += np.bincount(z[rows].ravel(), weights=np.outer(px[rows], py).ravel(),
                           minlength=1 << ctx.q)
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
    "bias_reports",
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
