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

Two methods back :func:`check_hadamard`.  "counts", the default and the
only one `verify` runs, decides every n at once by a GF(2) rank of the
window tables (the Rank identity below).  "direct" literally forms the
+/-1 row matrix of every f_a and checks its Gram matrix, with zero
structural shortcuts; it is quadratic in the 2^t inputs, feasible up to
t = 12, and kept as the literal reference the tests compare against.
Counts is one-sided: it fails every table that is not bilinear, even one
that direct passes because its rows only relabel a passing table's rows,
so it never passes a table that direct fails.  Both methods fail a table
holding a value outside range(2^q).

Six identities make the oracles fast; each keeps its result exact and
equal to literal enumeration, and each has a guard:

  * Gram blocking (direct).  The Gram matrix is formed in square tiles of
    at most 2^18 multiply-adds each, below OpenBLAS's threading threshold,
    in float32.  Guard: exact, because every entry and partial sum is an
    integer of magnitude at most 2^t <= 2^12 < 2^24.
  * Gram tile symmetry (direct).  Only the tiles (i, j) with i <= j are
    formed: tile (j, i) is exactly tile (i, j) transposed, since both are
    the same exact integers.  Every unordered pair of rows and every
    diagonal entry is still formed and compared.
  * Sylvester factors (Walsh transform).  H_(2^t) = H_m1 (x) H_m2 with
    m1 = 2^ceil(t/2) and m2 = 2^floor(t/2), so a row read as an m1 x m2
    matrix X transforms to H_m1 X H_m2: two float64 products, each at most
    2^18 multiply-adds.  Precondition, else ValueError: length at most 2^12
    and max|x| * 2^t < 2^53, so every product is +/-x and every partial sum
    an integer below 2^53, exact in any summation order.
  * Rank (counts, every n).  When every window table is GF(2)-bilinear,
    <x, y> is bilinear and the row y -> <d, y> has q x t matrix
    [M(d_1) | ... | M(d_n)], M(e) the unit columns of the tables' rows e.
    The row d = (e, 0, ...) has the rank of M(e), so every row d != 0 is
    onto, each value hit 2^(t - q) times, exactly when every M(e) with
    e != 0 has rank q and columns in range(2^q); one batched GF(2)
    elimination ranks every M(e).  Guard: bilinearity is checked over every
    cell of every window table, on both axes; a table that is not bilinear,
    a column outside range(2^q) or a short rank fails.
  * Linearity in y (one-bit bias, q < k).  f_a(x, .) is GF(2)-linear in y,
    so a pair's spectrum is a sum of 2^q * 2^k lookups in the Walsh
    transform of the y support instead of a 4^k-cell histogram.  Guard: the
    table is first checked, over all 4^t cells, to equal the XOR-span of its
    unit columns, block of rows by block; a table that is not takes the
    literal path.
  * Discrete-log convolution (one-bit bias, n = 1).  With g a generator of
    the multiplicative group, log(x * y) = log x + log y mod 2^q - 1, so the
    histogram of x * y over a support pair is the cyclic convolution of the
    two log indicators, plus the zero cell in closed form; it is taken by
    FFT for a batch of pairs and rounded.  Guard: g is read off the table
    and every cell is checked against exp[log x + log y] (row 0 and column 0
    zero), block of rows by block; a table that fails, or q = 1, takes the
    literal path.  A
    convolution value 1/4 or more from an integer raises ArithmeticError.

Every inner-product table is assembled from window tables: for each digit
of the multiplier and each window of at most 8 of its bits, the products of
every field element with every window value, built from per-bit shift
tables by schoolbook expansion, by doubling: the columns of values with top
bit j are the columns below them XOR shift table j, so each cell is written
once.  No table shares code with the extractor.

Working set.  Besides the tables an instance needs, every temporary holds
at most _CELL_BUDGET cells: the table builders, the every-cell guards, the
spectra, the Walsh transform, the support pairs and the distance weights
work in chunks of rows or batches of pairs sized by it, with index arrays
in the narrowest unsigned dtype that holds them exactly.  The bias guards
and the distance read the 2^t x 2^t inner-product table in row blocks of
_ROW_BLOCK_CELLS cells, each pass writing every block into one buffer
(:func:`_ip_row_blocks`).  Only the literal references hold it whole: the
literal bias path (built at the first entropy floor that takes it, and
turned into brow[z] in place), the direct Hadamard method and
:func:`ip_value_table`.  The shift and window tables are cached for the
current width only, so a sweep over q holds one width's tables.  Chunking
changes no verdict or integer; the distance's float64 sums follow the same
chunks of rows whatever the blocks, and are exact for the uniform and flat
sources `verify` draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial, wraps
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleError
from .gf2q import GFContext
from .params import LOG2_SQRT3

MAX_HADAMARD_BITS = 16
MAX_DENSE_BITS = 12       # full 2^t x 2^t inner-product tables
_CELL_BUDGET = 1 << 15    # cells of each temporary array: the working-set rule (module docstring)
_ROW_BLOCK_CELLS = 1 << 18  # cells of each row block the guards and the distance read a table in
_GRAM_BLOCK_OPS = 1 << 18  # multiply-adds per float product; OpenBLAS threads above this
EXHAUSTIVE_LIMIT = 10**5  # one-bit bias: enumerate supports up to this many
SAMPLED_PAIRS = 200       # one-bit bias: seeded support pairs tested otherwise
_SUPPORT_DRAWS = 32       # one-bit bias: draws kept, all of `verify --suite bias` at t <= 12


# ---------- vectorized schoolbook tables ----------

def _width_cache(build):
    """Cache build(ctx, *args), keeping the tables of one width only.

    A call for another q drops every entry before it builds, so a sweep
    over the widths holds one width's tables at a time, never all of them.
    """
    entries = {}

    @wraps(build)
    def cached(ctx: GFContext, *args):
        key = (ctx.q, *args)
        if key not in entries:
            if any(q != ctx.q for q, *_ in entries):
                entries.clear()
            entries[key] = build(ctx, *args)
        return entries[key]

    return cached


@_width_cache
def shift_tables(ctx: GFContext) -> list[np.ndarray]:
    """T[j][v] = v * x^j mod modulus, for all q-bit v and 0 <= j < q.

    Built entrywise by shift-and-reduce, so each entry is an independent
    polynomial computation; combining them per set bit of a multiplier is
    exactly the schoolbook carry-less product.  Cached for the current
    width only; treat the returned arrays as read-only.
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
    schoolbook expansion of the product.  uint16, like the shift tables:
    q <= 16.
    """
    q = ctx.q
    tables = shift_tables(ctx)
    brow = np.zeros(1 << q, dtype=np.uint16)
    for j in range(q):
        brow |= (tables[j] & 1) << j
    return brow


def walsh_transform(rows: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (exact, int64).

    out[..., a] = sum_w rows[..., w] * (-1)^popcount(a & w).  Each row,
    read as an m1 x m2 matrix X (m1 = 2^ceil(t/2), m2 = 2^floor(t/2)),
    transforms to H_m1 X H_m2 in float64, in batches of rows whose right
    product and each left-product matrix take at most _GRAM_BLOCK_OPS
    multiply-adds and _CELL_BUDGET cells.  The length must be a power of
    two up to 2^MAX_DENSE_BITS and max|x| * length below 2^53, else
    ValueError: then every product is +/-x and every partial sum an integer
    below 2^53, exact in any summation order.
    """
    a = np.asarray(rows, dtype=np.int64)
    n = a.shape[-1]
    if not 0 < n <= 1 << MAX_DENSE_BITS or n & (n - 1):
        raise ValueError(f"length must be a power of two up to 2^{MAX_DENSE_BITS}, got {n}")
    if max(-int(a.min(initial=0)), int(a.max(initial=0))) * n >= 1 << 53:
        raise ValueError("max|x| * length must be below 2^53 for an exact transform")
    m2 = 1 << ((n.bit_length() - 1) // 2)
    m1 = n // m2
    h1, h2 = _sylvester(m1), _sylvester(m2)
    flat = a.reshape(-1, n)
    out = np.empty(flat.shape, dtype=np.int64)
    step = max(1, min(_GRAM_BLOCK_OPS // (n * m1), _CELL_BUDGET // n))
    for start in range(0, len(flat), step):
        x = flat[start:start + step].reshape(-1, m2).astype(np.float64)
        out[start:start + step] = np.matmul(h1, np.matmul(x, h2).reshape(-1, m1, m2)).reshape(-1, n)
    return out.reshape(a.shape)


@cache
def _sylvester(size: int) -> np.ndarray:
    """H[a, w] = (-1)^popcount(a & w) for a, w < size, in float64.

    Built by the Sylvester doubling H_2m = [[H_m, H_m], [H_m, -H_m]].
    Cached per size; the returned array is read-only.
    """
    h = np.ones((1, 1))
    while len(h) < size:
        h = np.block([[h, h], [h, -h]])
    h.setflags(write=False)
    return h


def _feasible(ctx: GFContext, n: int, cap: int, what: str) -> int:
    t = ctx.q * n
    if n < 1:
        raise ValueError("n must be >= 1")
    if t > cap:
        raise InfeasibleError(f"{what} limited to q*n <= {cap}, got {t}")
    return t


@_width_cache
def _window_table(ctx: GFContext, base: int, width: int) -> np.ndarray:
    """W[d, u] = d * (u << base) mod modulus, for all q-bit d, width-bit u.

    Column u is the XOR of the shift-table columns of u's set bits: the
    schoolbook expansion of the product over a window of multiplier bits.
    Built by doubling, so each cell is written once: columns
    [2^j, 2^(j+1)) are columns [0, 2^j) XOR shift-table column base + j.
    Cached for the current width only.
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


def _ip_rows(ctx: GFContext, n: int, d_values: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Rows of inner-product values: out[r, y] = <d_values[r], y> over all y.

    Vectorized schoolbook.  The y index is positional: each digit of y,
    split into windows of at most 8 bits, contributes a per-row window-table
    row.  The windows of y's high bits and of its low bits are XOR-chained
    apart (split where the larger part is smallest), and one broadcast XOR
    of the two parts writes each chunk of rows, so no temporary holds more
    than _CELL_BUDGET cells however many rows are asked for.  The rows go
    into `out` when it is given (uint16, one row per d value), else into a
    new array.
    """
    q = ctx.q
    d_values = np.asarray(d_values)
    # (digit, base, width) of each window of y, most significant first.
    axes = [(i, base, width) for i in reversed(range(n)) for base, width in reversed(_windows(q))]
    widths = [width for _, _, width in axes]
    split = min(range(len(axes) + 1), key=lambda m: max(sum(widths[:m]), sum(widths[m:])))
    if out is None:
        out = np.empty((len(d_values), 1 << (q * n)), dtype=np.uint16)
    rows = _rows_per_chunk(1 << max(sum(widths[:split]), sum(widths[split:])))
    for start in range(0, len(d_values), rows):
        d = d_values[start:start + rows]
        high, low = _outer_xor(ctx, d, axes[:split]), _outer_xor(ctx, d, axes[split:])
        np.bitwise_xor(high[:, :, None], low[:, None, :],
                       out=out[start:start + rows].reshape(len(d), high.shape[1], low.shape[1]))
    return out


def _outer_xor(ctx: GFContext, d_values: np.ndarray, axes) -> np.ndarray:
    """acc[r, u]: XOR over `axes` of each window table's row for d_values[r]'s digit.

    u reads the axes' windows as one positional index, the first axis most
    significant; with no axes, acc is one zero column.
    """
    acc = np.zeros((len(d_values), 1), dtype=np.uint16)
    for i, base, width in axes:
        part = _window_table(ctx, base, width)[(d_values >> (i * ctx.q)) & ctx.mask]
        acc = (acc[:, :, None] ^ part[:, None, :]).reshape(len(d_values), -1)
    return acc


def ip_value_table(ctx: GFContext, n: int) -> np.ndarray:
    """Dense table of <x, y> for all x, y; feasible for q*n <= 12."""
    t = _feasible(ctx, n, MAX_DENSE_BITS, "dense inner-product table")
    return _ip_rows(ctx, n, _offsets(1 << t))


def _ip_row_blocks(ctx: GFContext, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(x, z) with z[r, y] = <x + r, y>: the rows of the dense table, a block at a time.

    :func:`_ip_rows` writes every block into one buffer of _ROW_BLOCK_CELLS
    cells (the whole table when it is smaller), allocated once per call, so
    a block is valid until the next one is asked for and its reader may
    overwrite it.
    """
    size = 1 << (ctx.q * n)
    offsets = _offsets(size)
    block = np.empty((min(size, _ROW_BLOCK_CELLS // size), size), dtype=np.uint16)
    for x in range(0, size, len(block)):
        yield x, _ip_rows(ctx, n, offsets[x:x + len(block)], out=block)


def _first_bits(brow: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z becomes brow[z] in place, in chunks of rows within _CELL_BUDGET cells; returns z.

    Each cell then names the functional group of its value: the first bit
    of a * z[x, y] is parity(a & brow[z[x, y]]).
    """
    rows = _rows_per_chunk(z.shape[1])
    for start in range(0, len(z), rows):
        z[start:start + rows] = brow[z[start:start + rows]]
    return z


def _rows_per_chunk(width: int) -> int:
    """Rows of `width` cells that one chunk of _CELL_BUDGET cells holds (at least one)."""
    return max(1, _CELL_BUDGET // width)


def _offsets(count: int, stride: int = 1) -> np.ndarray:
    """0, stride, ..., (count - 1) * stride, in the narrowest exact unsigned dtype.

    The dtype holds count * stride - 1, so an offset plus an index below
    stride is exact in it too.
    """
    return np.arange(0, count * stride, stride,
                     dtype=np.min_scalar_type(max(0, count * stride - 1)))


# ---------- hadamard property ----------

def check_hadamard(ctx: GFContext, n: int, method: str = "counts") -> bool:
    """Whether every f_a has exactly uncorrelated rows (zero tolerance).

    "counts" (the default) is the rank verdict over bilinear window tables
    and fails any table that is not bilinear; "direct" is the literal Gram
    check, for t <= 12.
    """
    _feasible(ctx, n, MAX_HADAMARD_BITS, "hadamard check")
    if method == "direct":
        return _hadamard_direct(ctx, n)
    if method == "counts":
        return _hadamard_counts(ctx)
    raise ValueError(f"unknown method {method!r}")


def _hadamard_direct(ctx: GFContext, n: int) -> bool:
    """Literal check: Gram matrix of every f_a's +/-1 row matrix.

    The Gram matrix is formed as square tiles of `side` rows, each product
    at most _GRAM_BLOCK_OPS multiply-adds, and only the tiles (i, j) with
    i <= j: tile (j, i) is tile (i, j) transposed, so every unordered pair
    of rows and every diagonal entry is still formed and compared.  float32
    is exact here: every entry and partial sum is an integer of magnitude
    at most 2^t <= 2^12.
    """
    t = ctx.q * n
    size = 1 << t
    z = ip_value_table(ctx, n)
    if int(z.max()) >> ctx.q:
        return False   # a value outside the field: no f_a there
    z = z.astype(np.intp)
    brow = first_bit_rows(ctx)
    parity = _parity_table(ctx.q)
    side = min(size, 1 << ((_GRAM_BLOCK_OPS.bit_length() - 1 - t) // 2))
    tiles = size // side
    # gram[starts[i] + j - i] is tile (i, j), for i <= j.
    starts = [i * tiles - i * (i - 1) // 2 for i in range(tiles + 1)]
    expected = np.zeros((starts[-1], side, side), dtype=np.float32)
    expected[starts[:-1]] = np.float32(size) * np.eye(side, dtype=np.float32)
    gram = np.empty_like(expected)
    signs = np.empty((tiles, side, size), dtype=np.float32)
    for a in range(1, 1 << ctx.q):
        # +/-1 truth table of f_a, as `tiles` row tiles
        np.take(1 - 2 * parity[a & brow].astype(np.float32), z, out=signs.reshape(size, size))
        for i in range(tiles):
            np.matmul(signs[i], signs[i:].transpose(0, 2, 1), out=gram[starts[i]:starts[i + 1]])
        if not np.array_equal(gram, expected):
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


def _hadamard_counts(ctx: GFContext) -> bool:
    """Rank verdict over bilinear window tables, one-sided by design.

    For nonzero d, the pair sum at (x, x + d) equals
    sum_v counts_d[v] * (-1)^(first bit of a*v) with
    counts_d[v] = #{y : <d, y> = v}, by XOR-linearity of the inner product
    and the first-bit functionals (property-tested separately).  When every
    counts_d is the uniform 2^(t-q) histogram, the sums factor through the
    functional balances, the Walsh spectrum of the histogram of
    :func:`first_bit_rows`; it vanishes off a = 0 exactly when the
    histogram is flat, so they are checked as one permutation count.
    :func:`_rank_verdicts` decides uniformity for every d at once, and for
    every n, when the window tables are bilinear; a table that is not
    fails, even one whose rows relabel a passing table's rows.  So this
    never passes a table that the direct method fails.
    """
    balanced = np.all(np.bincount(first_bit_rows(ctx), minlength=1 << ctx.q) == 1)
    verdicts = _rank_verdicts(ctx)
    return verdicts is not None and bool(verdicts.all()) and bool(balanced)


def _linear_in_y(w: np.ndarray) -> bool:
    """Whether every row of w is GF(2)-linear in the column index y.

    Checked over every cell: column y + 2^j must equal column y XOR column
    2^j for every y < 2^j (j = 0 forces column 0 to be zero), compared in
    chunks of rows whose 2^j columns hold at most _CELL_BUDGET cells.
    """
    size = w.shape[1]
    for j in range(size.bit_length() - 1):
        unit = 1 << j
        rows = _rows_per_chunk(unit)
        for start in range(0, len(w), rows):
            block = w[start:start + rows]
            if not np.array_equal(block[:, unit:2 * unit],
                                  block[:, :unit] ^ block[:, unit:unit + 1]):
                return False
    return True


def _linear_in_x(w: np.ndarray) -> bool:
    """Whether every column of w is GF(2)-linear in the row index x.

    The check of :func:`_linear_in_y` on the other axis, over every cell:
    row x + 2^j must equal row x XOR row 2^j for every x < 2^j, compared in
    chunks of whole rows within _CELL_BUDGET cells.
    """
    rows = _rows_per_chunk(w.shape[1])
    for j in range(len(w).bit_length() - 1):
        unit = 1 << j
        for start in range(0, unit, rows):
            stop = min(unit, start + rows)
            if not np.array_equal(w[unit + start:unit + stop], w[start:stop] ^ w[unit]):
                return False
    return True


def _rank_verdicts(ctx: GFContext) -> np.ndarray | None:
    """perm[e - 1]: the digit map y -> e * y takes every value in range(2^q) once.

    :func:`_ip_rows` builds a digit's part of a row as the XOR of the
    window tables' rows e.  When every window table is GF(2)-bilinear
    (linear in its column and in its row, checked over every cell), so is
    <x, y> at any n, with the digit's matrix M(e) made of the tables' unit
    columns; row 0 is then zero.  Such a map with columns in range(2^q) is
    a bijection exactly when M(e) has rank q, and the row d = (e, 0, ...)
    has the rank of M(e); so every row d != 0 is onto exactly when every
    e != 0 passes.  None when a window table is not bilinear.
    """
    q = ctx.q
    tables = []
    for base, width in _windows(q):
        w = _window_table(ctx, base, width)
        if not (_linear_in_y(w) and _linear_in_x(w)):
            return None
        tables.append((w, 1 << np.arange(width)))
    perm = np.empty((1 << q) - 1, dtype=bool)
    rows = _rows_per_chunk(q)
    for start in range(1, 1 << q, rows):   # M(e) for a chunk of rows e
        m = np.concatenate([w[start:start + rows, units] for w, units in tables], axis=1)
        perm[start - 1:start - 1 + len(m)] = np.all(m < 1 << q, axis=1) & (_gf2_ranks(m, q) == q)
    return perm


def _gf2_ranks(columns: np.ndarray, bits: int) -> np.ndarray:
    """ranks[r] = GF(2) rank of the bit vectors columns[r, :], each below 2^bits.

    One pivot bit per step: a column holding the bit is XORed into every
    column holding it, itself included, and the pivots found are counted.
    """
    cols = columns.copy()   # reduced in place, in the table's own dtype
    rows = np.arange(len(cols))
    ranks = np.zeros(len(cols), dtype=np.int64)
    for bit in range(bits):
        holds = (cols >> bit) & 1
        pivot = cols[rows, holds.argmax(axis=1)]   # any column, when none holds the bit
        cols ^= holds * pivot[:, None]
        ranks += holds.any(axis=1)
    return ranks


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

    The guards run once for all of ks; each k draws its support pairs as
    :func:`check_one_bit_bias` does, from `seed`.  Each pair's spectrum is
    the Walsh transform of its grouped histogram (4^k cells,
    :func:`_literal_spectra`).  It comes instead, when n = 1 and the table
    passes the discrete-log guard, from a cyclic convolution of log
    indicators (:func:`_log_tables`, :func:`_log_spectra`), or, when q < k
    and the table is GF(2)-linear in y, from 2^k lookups per a in the Walsh
    transform of the y support (:func:`_y_functionals`,
    :func:`_linear_spectra`).  All give the same integers.  The guards read
    the table in row blocks (:func:`_ip_row_blocks`); only the literal
    path reads it whole, as brow[z], built at the first k that takes it.
    """
    t = _feasible(ctx, n, MAX_DENSE_BITS, "one-bit bias check")
    for k in ks:
        if not 0 <= k <= t:
            raise ValueError(f"entropy floor k={k} outside 0..{t}")
    size = 1 << t
    brow = first_bit_rows(ctx)
    logs = _block_log_tables(ctx) if n == 1 else None
    functionals = None
    if logs is None and any(ctx.q < k for k in ks):
        functionals = _block_y_functionals(ctx, n, brow)
    literal_table = cache(lambda: _first_bits(brow, ip_value_table(ctx, n)))

    for k in ks:
        support = 1 << k
        sets, exhaustive = _support_sets(size, support, seed)
        # Each path's largest temporary per pair, in cells, sizes its batches.
        # The log path's float64 and complex FFT arrays count 8 cells a
        # value: the allocator reuses arrays of 2^12 values, where arrays of
        # 2^15 faulted in fresh pages every batch (5,430 minor faults in
        # `verify --suite bias --max-bits 10` against 24).
        if logs is not None:
            spectra, cells = partial(_log_spectra, logs, brow), 8 << ctx.q
        elif ctx.q < k and functionals is not None:
            spectra, cells = partial(_linear_spectra, functionals), max(size, support << ctx.q)
        else:
            spectra = partial(_literal_spectra, literal_table(), ctx.q)
            cells = max(support**2, 1 << ctx.q)
        denom = float(support) * float(support)
        max_bias, pairs = 0.0, 0
        for sx, sy in _pair_batches(sets, exhaustive, _rows_per_chunk(cells)):
            # spectra[p, a] = sum over pair p's cells of (-1)^f_a; bias = |spectrum| / 4^k
            max_bias = max(max_bias, float(np.abs(spectra(sx, sy)[:, 1:]).max()) / denom)
            pairs += len(sx)
        bound = 2.0 ** (1.0 - (2 * k - t) / 2.0)
        yield BiasReport(t, k, max_bias, bound, pairs, exhaustive)


@lru_cache(maxsize=_SUPPORT_DRAWS)
def _support_sets(size: int, support: int, seed: int) -> tuple[np.ndarray, bool]:
    """The support sets of the bias check, and whether they are every subset.

    Every size-`support` subset of range(size) when there are few enough,
    each ordered pair of them tested; otherwise 2 * SAMPLED_PAIRS seeded
    random draws, pair p being draws 2p (x) and 2p + 1 (y).
    :func:`_pair_batches` deals the pairs out.  Cached, because the draw
    depends on (t, k, seed) alone and every instance (q, n) of one t = q * n
    repeats it; the array is read-only.
    """
    n_subsets = math.comb(size, support)
    exhaustive = n_subsets <= EXHAUSTIVE_LIMIT and n_subsets**2 <= EXHAUSTIVE_LIMIT
    if exhaustive:
        sets = np.array(list(combinations(range(size), support)), dtype=np.uint16)
    else:
        rng = np.random.default_rng(seed)
        sets = np.empty((2 * SAMPLED_PAIRS, support), dtype=np.uint16)
        for row in sets:
            row[:] = rng.choice(size, size=support, replace=False)
    sets.setflags(write=False)
    return sets, exhaustive


def _pair_batches(sets: np.ndarray, exhaustive: bool,
                  step: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(sx, sy) of the support pairs of :func:`_support_sets`, `step` pairs at a time.

    Exhaustive: pair p is (sets[p // m], sets[p % m]) for m sets, every
    ordered pair once; each batch's pairs are gathered as it is dealt.
    Sampled: pair p is (sets[2p], sets[2p + 1]).  Both are (pairs, 2^k).
    """
    if not exhaustive:
        for start in range(0, len(sets), 2 * step):
            yield sets[start:start + 2 * step:2], sets[start + 1:start + 2 * step:2]
        return
    m = len(sets)
    for start in range(0, m * m, step):
        pairs = np.arange(start, min(m * m, start + step))
        yield sets[pairs // m], sets[pairs % m]


def _literal_spectra(w: np.ndarray, q: int, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """spectra[p, a] = sum over sx[p] x sy[p] of (-1)^parity(a & w[x, y]), cell by cell.

    Each pair's 4^k cells of w = brow[z] are grouped by value and the
    histogram is Walsh transformed: literal enumeration, with no identity.
    """
    cells = w[sx[:, :, None], sy[:, None, :]].reshape(len(sx), -1)
    grouped = np.bincount((cells + _offsets(len(sx), 1 << q)[:, None]).ravel(),
                          minlength=len(sx) << q)
    return walsh_transform(grouped.reshape(len(sx), 1 << q))


def _y_functionals(w: np.ndarray, q: int) -> np.ndarray | None:
    """L[a, r] with parity(a & w[r, y]) = parity(y & L[a, r]) for every y.

    Bit j of L[a, r] is parity(a & w[r, 2^j]), which is linear in a: row
    2^i holds bit i of the unit columns w[r, 2^j], and rows [2^i, 2^(i+1))
    are rows [0, 2^i) XOR row 2^i, so each cell is written once.  The
    identity needs w[r, .] to be GF(2)-linear in y, so it is checked first,
    over every cell (:func:`_linear_in_y`).  A table that fails gets None.
    Each row r stands alone, so w may be any block of a table's rows.
    """
    if not _linear_in_y(w):
        return None
    t = w.shape[1].bit_length() - 1
    shifts = np.arange(t, dtype=np.uint16)
    units = w[:, 1 << shifts]
    functionals = np.empty((1 << q, w.shape[0]), dtype=np.uint16)
    functionals[0] = 0
    for i in range(q):
        row = (((units >> i) & 1) << shifts).sum(axis=1, dtype=np.uint16)
        np.bitwise_xor(functionals[:1 << i], row, out=functionals[1 << i:2 << i])
    return functionals


def _block_y_functionals(ctx: GFContext, n: int, brow: np.ndarray) -> np.ndarray | None:
    """:func:`_y_functionals` of the table brow[<x, y>], over its row blocks.

    Each block is mapped through brow in place and checked over every cell;
    its functionals are columns x of the whole.  None when a block fails.
    """
    functionals = np.empty((1 << ctx.q, 1 << (ctx.q * n)), dtype=np.uint16)
    for x, z in _ip_row_blocks(ctx, n):
        block = _y_functionals(_first_bits(brow, z), ctx.q)
        if block is None:
            return None
        functionals[:, x:x + len(z)] = block
    return functionals


def _linear_spectra(functionals: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """spectra[p, a] = sum over sx[p] x sy[p] of (-1)^parity(a & w[x, y]).

    By linearity in y, the sum over y in sy[p] of (-1)^parity(y & L[a, x])
    is the Walsh transform of the indicator of sy[p] at L[a, x]: 2^q * 2^k
    lookups per pair in place of 4^k cells, taken for chunks of the x
    support within _CELL_BUDGET lookups.  sx and sy are (pairs, 2^k).
    """
    width = functionals.shape[1]
    indicator = np.zeros((len(sy), width), dtype=np.int64)
    indicator[_offsets(len(sy))[:, None], sy] = 1
    walsh = walsh_transform(indicator).ravel()
    # Flat lookups: pair p's transform starts at p * 2^t in walsh.
    offsets = _offsets(len(sx), width)[:, None]
    spectra = np.zeros((len(functionals), len(sx)), dtype=np.int64)
    chunk = _rows_per_chunk(len(functionals) * len(sx))
    for start in range(0, sx.shape[1], chunk):
        spectra += walsh.take(functionals[:, sx[:, start:start + chunk]] + offsets).sum(axis=-1)
    return spectra.T


def _log_tables(z: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(exp, log) of :func:`_discrete_logs` for a whole table z[x, y] = x * y (n = 1).

    None unless its rows give a generator and every cell passes
    :func:`_log_rows_match`.
    """
    logs = _discrete_logs(z.__getitem__, len(z))
    return logs if logs is not None and _log_rows_match(logs, 0, z) else None


def _block_log_tables(ctx: GFContext) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_log_tables` of the n = 1 table, whose cells are read in row blocks.

    The generator's rows are made one at a time.
    """
    logs = _discrete_logs(lambda g: _ip_rows(ctx, 1, np.array([g]))[0], 1 << ctx.q)
    if logs is None or not all(_log_rows_match(logs, x, z) for x, z in _ip_row_blocks(ctx, 1)):
        return None
    return logs


def _discrete_logs(row, size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(exp, log) with exp[i] = g^i and log[exp[i]] = i, for the table z[x, y] = x * y.

    A generator g is read off the table: its powers, taken through the row
    row(g) = z[g], must hit all size - 1 nonzero elements.  log[0] is size - 1, one
    past every power.  None when no g is found (always at q = 1, where
    g = 1 is the only candidate).
    """
    order = size - 1
    for g in range(2, size):
        values, powers, seen = row(g).tolist(), [1], {1}
        while len(powers) < order:
            power = values[powers[-1]]
            if not 0 < power < size or power in seen:
                break
            seen.add(power)
            powers.append(power)
        if len(powers) == order:
            break
    else:
        return None
    exp = np.array(powers, dtype=np.uint16)
    log = np.empty(size, dtype=np.uint16)
    log[exp] = np.arange(order)
    log[0] = order
    return exp, log


def _log_rows_match(logs: tuple[np.ndarray, np.ndarray], x: int, z: np.ndarray) -> bool:
    """Whether rows x, x + 1, ... of the table, held in z, are x * y by (exp, log).

    Checked over every cell: column 0 (and row 0) are zero, and z[r, y] =
    exp[(log(x + r) + log y) mod (2^q - 1)], in chunks of rows within
    _CELL_BUDGET cells, in uint16 (log x + log y < 2^13).
    """
    exp, log = logs
    if z[:, 0].any() or (x == 0 and z[0].any()):
        return False
    exp_twice = np.concatenate((exp, exp))   # exp_twice[i + j] = exp[(i + j) mod order]
    rows = _rows_per_chunk(z.shape[1])
    for start in range(1 if x == 0 else 0, len(z), rows):
        cells = z[start:start + rows, 1:]
        sums = log[x + start:x + start + len(cells), None] + log[1:]
        if not np.array_equal(cells, exp_twice[sums]):
            return False
    return True


def _log_spectra(logs: tuple[np.ndarray, np.ndarray], brow: np.ndarray,
                 sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """spectra[p, a] = sum over sx[p] x sy[p] of (-1)^parity(a & brow[x * y]), n = 1.

    For nonzero x and y, log(x * y) = log x + log y mod 2^q - 1, so the
    histogram of the nonzero products is the cyclic convolution of the log
    indicators of sx[p] and sy[p], taken by FFT and rounded; the zero cell
    counts the rest of the 4^k pairs.  The counts are grouped by brow and
    Walsh transformed.  ArithmeticError when a convolution value lies 1/4
    or more from an integer, which cannot happen: the exact values are
    counts of at most 2^12 over at most 4095 terms, far inside float64's
    rounding.
    """
    exp, log = logs
    order = len(exp)
    q = order.bit_length()
    rows = _offsets(len(sx))[:, None]
    # Each float array is deleted once used, so few are live at a time.
    nonzero, transforms = [], []
    for support in (sx, sy):
        indicator = np.zeros((len(sx), order + 1))   # column `order` marks a support holding 0
        indicator[rows, log[support]] = 1.0
        nonzero.append(support.shape[1] - indicator[:, order])
        transforms.append(np.fft.rfft(indicator[:, :order]))
        del indicator
    conv = np.fft.irfft(transforms[0] * transforms[1], n=order)
    del transforms
    counts = np.rint(conv)
    if np.any(np.abs(conv - counts) >= 0.25):
        raise ArithmeticError("discrete-log convolution did not round to integers")
    del conv
    zero_cell = sx.shape[1] * sy.shape[1] - nonzero[0] * nonzero[1]
    keys = brow[exp][None, :] + _offsets(len(sx), 1 << q)[:, None]
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
    out = np.zeros(1 << ctx.q)
    chunk = _rows_per_chunk(size)
    for x, z in _ip_row_blocks(ctx, n):
        for start in range(0, len(z), chunk):   # chunks of rows bound the weight arrays
            weights = np.outer(px[x + start:x + start + chunk], py)
            out += np.bincount(z[start:start + chunk].ravel(), weights=weights.ravel(),
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
