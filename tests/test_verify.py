"""Verification-oracle tests.

The reference checker below evaluates the pair correlations by the raw
triple loop over (a, x, x', y) with nothing but ctx.mul and ext_ip, so the
packaged methods (Gram-matrix "direct" and rank "counts") are both
validated against an implementation with zero shared structure.  The
XOR-linearity identities that justify the counts method's pair-to-
difference reduction are property-tested here as well.
"""

import gc
import itertools
import json
import random
import runpy
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from blockext import verify as verify_mod
from blockext.errors import InfeasibleError
from blockext.extractor import ext_ip
from blockext.gf2q import field
from blockext.verify import (
    bias_reports,
    check_extractor_distance,
    check_first_bit_bijection,
    check_hadamard,
    check_one_bit_bias,
    check_xor_lemma_instance,
    first_bit_rows,
    hadamard_instances,
    ip_value_table,
    shift_tables,
    walsh_transform,
    xor_lemma_sides,
)
from blockext.verify import (
    BiasReport,
    _block_log_tables,
    _block_y_functionals,
    _gf2_ranks,
    _ip_row_blocks,
    _ip_rows,
    _linear_spectra,
    _log_spectra,
    _log_tables,
    _parity_table,
    _rank_verdicts,
    _pair_batches,
    _support_sets,
    _window_table,
    _y_functionals,
)


def _vec(value, q, n):
    mask = (1 << q) - 1
    return tuple((value >> (i * q)) & mask for i in range(n))


def reference_hadamard(ctx, n):
    """Raw triple-loop correlation check; the independent oracle."""
    q = ctx.q
    t = q * n
    for a in range(1, 1 << q):
        rows = []
        for x in range(1 << t):
            row = [ctx.mul(a, ext_ip(ctx, _vec(x, q, n), _vec(y, q, n))) & 1
                   for y in range(1 << t)]
            rows.append(row)
        for x, x2 in itertools.combinations(range(1 << t), 2):
            corr = sum(1 if rows[x][y] == rows[x2][y] else -1 for y in range(1 << t))
            if corr != 0:
                return False
    return True


# ---------- table machinery ----------


def test_walsh_transform_matches_definition():
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 50, size=(3, 8))
    got = walsh_transform(rows)
    for r in range(3):
        for a in range(8):
            expect = sum(int(rows[r, w]) * (-1) ** bin(a & w).count("1")
                         for w in range(8))
            assert got[r, a] == expect


def _butterfly(rows):
    """The int64 Walsh butterfly, one stage at a time; the reference transform."""
    a = np.array(rows, dtype=np.int64)
    n = a.shape[-1]
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            lo = a[..., start:start + h].copy()
            hi = a[..., start + h:start + 2 * h].copy()
            a[..., start:start + h] = lo + hi
            a[..., start + h:start + 2 * h] = lo - hi
        h *= 2
    return a


def test_walsh_transform_equals_the_integer_butterfly():
    # Random 1-D and 2-D inputs of every length 2^0 .. 2^12, up to the edge
    # of the exact domain (max|x| * length < 2^53), equal the butterfly.
    # Past that domain, at length 2^13 or at max|x| * length = 2^53, the
    # transform raises instead of rounding.
    rng = np.random.default_rng(17)
    for t in range(13):
        n = 1 << t
        limit = (1 << 53) // n   # max|x| must stay below this
        for shape in ((n,), (3, n)):
            for high in (1 << 20, limit - 1):
                rows = rng.integers(-high, high, size=shape, endpoint=True)
                rows.flat[0] = -high   # pin max|x| at the chosen edge
                got = walsh_transform(rows)
                assert got.dtype == np.int64
                assert np.array_equal(got, _butterfly(rows)), (t, shape, high)
            with pytest.raises(ValueError):
                walsh_transform(np.full(shape, limit))
            with pytest.raises(ValueError):
                walsh_transform(np.full(shape, -limit))
    with pytest.raises(ValueError):
        walsh_transform(np.ones(1 << 13, dtype=np.int64))
    with pytest.raises(ValueError):
        walsh_transform(np.ones(12, dtype=np.int64))


def test_parity_table():
    pt = _parity_table(5)
    for v in range(32):
        assert pt[v] == bin(v).count("1") % 2


def test_shift_and_window_tables_match_field_multiplication():
    rnd = random.Random(21)
    for q in (1, 2, 3, 5, 8, 12, 16):
        ctx = field(q)
        tables = shift_tables(ctx)
        samples = range(1 << q) if q <= 8 else [rnd.getrandbits(q) for _ in range(200)]
        for v in samples:
            for j in range(q):
                assert int(tables[j][v]) == ctx.mul(v, 1 << j)
        window = _window_table(ctx, 0, min(q, 8))
        for v in list(samples)[:32]:
            for u in range(1 << min(q, 8)):
                assert int(window[v, u]) == ctx.mul(v, u)
        if q > 8:
            hi = _window_table(ctx, 8, q - 8)
            for v in list(samples)[:32]:
                for u in range(1 << (q - 8)):
                    assert int(hi[v, u]) == ctx.mul(v, (u << 8) & ctx.mask)


def test_window_tables_are_schoolbook_sums_of_shift_table_columns():
    # Every cell of every window table equals the XOR of the shift-table
    # columns of its column index's set bits.
    for q in (1, 5, 8, 9, 12, 13):
        ctx = field(q)
        tables = shift_tables(ctx)
        for base in range(0, q, 8):
            width = min(8, q - base)
            expected = np.zeros((1 << q, 1 << width), dtype=np.uint16)
            for u in range(1 << width):
                for j in range(width):
                    if u >> j & 1:
                        expected[:, u] ^= tables[base + j]
            assert np.array_equal(_window_table(ctx, base, width), expected), (q, base)


def test_first_bit_rows_are_xor_linear():
    # brow[u ^ w] == brow[u] ^ brow[w]: the identity behind the counts method.
    for q in (1, 2, 3, 4, 8):
        brow = first_bit_rows(field(q))
        for u in range(1 << q):
            for w in range(1 << q):
                assert brow[u ^ w] == brow[u] ^ brow[w]
    rnd = random.Random(22)
    for q in (12, 16):
        brow = first_bit_rows(field(q))
        for _ in range(4000):
            u, w = rnd.getrandbits(q), rnd.getrandbits(q)
            assert brow[u ^ w] == brow[u] ^ brow[w]


def test_first_bit_rows_give_product_first_bit():
    rnd = random.Random(23)
    for q in (1, 2, 3, 4, 8, 16):
        ctx = field(q)
        brow = first_bit_rows(ctx)
        pt = _parity_table(q)
        pairs = ([(a, v) for a in range(1 << q) for v in range(1 << q)]
                 if q <= 6 else
                 [(rnd.getrandbits(q), rnd.getrandbits(q)) for _ in range(3000)])
        for a, v in pairs:
            assert int(pt[a & int(brow[v])]) == ctx.mul(a, v) & 1


def test_ip_value_table_matches_ext_ip():
    rnd = random.Random(24)
    for q, n in ((1, 3), (2, 2), (3, 2), (4, 1), (12, 1), (2, 6), (8, 1), (6, 2), (4, 3)):
        ctx = field(q)
        table = ip_value_table(ctx, n)
        for _ in range(300):
            x = rnd.getrandbits(q * n)
            y = rnd.getrandbits(q * n)
            assert int(table[x, y]) == ext_ip(ctx, _vec(x, q, n), _vec(y, q, n))
    with pytest.raises(InfeasibleError):
        ip_value_table(field(13), 1)


# ---------- hadamard ----------


def test_hadamard_methods_agree_with_reference():
    for q, n in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)):
        ctx = field(q)
        assert reference_hadamard(ctx, n)
        assert check_hadamard(ctx, n, method="direct")
        assert check_hadamard(ctx, n, method="counts")


def test_hadamard_identity_multiplier_hand_enumeration():
    # q=2, n=1, a=1: all 6 distinct pairs, summed over the 4 inputs directly.
    ctx = field(2)
    f = [[ctx.mul(1, ctx.mul(x, y)) & 1 for y in range(4)] for x in range(4)]
    for x, x2 in itertools.combinations(range(4), 2):
        assert sum((-1) ** (f[x][y] ^ f[x2][y]) for y in range(4)) == 0


def test_hadamard_mixed_method_midsize():
    for q, n in ((2, 5), (5, 2), (3, 3), (10, 1)):
        assert check_hadamard(field(q), n)


def test_hadamard_infeasible():
    with pytest.raises(InfeasibleError):
        check_hadamard(field(1), 17)
    with pytest.raises(InfeasibleError):
        check_hadamard(field(16), 1, method="direct")


def test_oracle_float_products_stay_within_the_blas_block(monkeypatch):
    # Every float product of the Walsh transform and the direct Gram check
    # takes at most _GRAM_BLOCK_OPS multiply-adds per matrix, so OpenBLAS
    # never starts its worker thread.
    real = np.matmul
    ops = []

    def counted(a, b, *args, **kwargs):
        ops.append(np.shape(a)[-2] * np.shape(a)[-1] * np.shape(b)[-1])
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    rng = np.random.default_rng(5)
    for t in range(1, 13):
        walsh_transform(rng.integers(0, 2, size=(300, 1 << t)))
    for q, n in ((8, 1), (4, 2), (1, 10), (2, 5)):
        assert check_hadamard(field(q), n, method="direct")
    assert ops and max(ops) <= verify_mod._GRAM_BLOCK_OPS


def test_direct_equals_counts_on_every_small_instance():
    for q, n in hadamard_instances(8):
        verdicts = {check_hadamard(field(q), n, method=m) for m in ("direct", "counts")}
        assert verdicts == {True}, (q, n)


@pytest.mark.parametrize("row", [0, 131, 255], ids=["first-tile", "middle-tile", "last-tile"])
def test_direct_fails_on_one_flipped_cell_in_any_row_tile(monkeypatch, row):
    # q = 8, n = 1: 256 rows in tiles of 32, of which only the tile pairs
    # (i, j) with i <= j are formed; a flipped cell in the first, a middle or
    # the last row tile must still break a Gram entry.
    ctx = field(8)
    real_ip_rows = verify_mod._ip_rows

    def flipped_ip_rows(ctx, n, d_values):
        z = real_ip_rows(ctx, n, d_values).copy()
        hit = np.nonzero(np.asarray(d_values) == row)[0]
        z[hit, (7 * row + 3) % z.shape[1]] ^= 1
        return z

    assert check_hadamard(ctx, 1, method="direct")
    monkeypatch.setattr(verify_mod, "_ip_rows", flipped_ip_rows)
    assert not check_hadamard(ctx, 1, method="direct")


def test_oracles_reject_corrupted_tables(monkeypatch):
    # Each oracle must fail, not pass vacuously, when its tables are wrong:
    # one flipped product bit for both Hadamard methods (the counts method
    # in a window table, which is then not bilinear), one duplicated
    # first-bit row for the bijection check.
    ctx = field(3)
    for method in ("counts", "direct"):
        assert check_hadamard(ctx, 2, method=method)
    assert check_first_bit_bijection(ctx)

    real_ip_rows = verify_mod._ip_rows

    def flipped_ip_rows(*args):
        z = real_ip_rows(*args).copy()
        z[0, 1] ^= 1
        return z

    def flipped_window(w, base):
        w[1, 1] ^= 1
        return w

    def duplicated_first_bit_rows(ctx):
        brow = first_bit_rows(ctx)
        brow[1] = brow[2]
        return brow

    with monkeypatch.context() as m:
        _patch_window_tables(m, flipped_window)
        assert not check_hadamard(ctx, 2, method="counts")
    with monkeypatch.context() as m:
        m.setattr(verify_mod, "_ip_rows", flipped_ip_rows)
        assert not check_hadamard(ctx, 2, method="direct")
    with monkeypatch.context() as m:
        m.setattr(verify_mod, "first_bit_rows", duplicated_first_bit_rows)
        assert not check_first_bit_bijection(ctx)


def _table_variants(q):
    """Window-table changes under which counts must still give the literal verdict."""
    def row0_is_row1(w, base):
        w[0] = w[1]
        return w

    def row0_leaves_range(w, base):
        w[0, 1] ^= 1 << q
        return w

    def bent(w, base):
        w[-1, 0] ^= 1
        return w

    def row3_is_row5(w, base):
        if len(w) > 5:
            w[3] = w[5]
        return w

    return {
        "unchanged": lambda w, base: w,
        "low-bit-dropped": lambda w, base: w ^ (w & 1),
        "bit0-copied-to-bit-q": lambda w, base: w ^ ((w & 1) << q),
        "row0-is-row1": row0_is_row1,
        "row0-leaves-range": row0_leaves_range,
        "bent-cell": bent,
        "row3-is-row5": row3_is_row5,
    }


def test_counts_verdict_equals_direct_under_table_variants(monkeypatch):
    # Every instance with t <= 8, n = 1 included: the counts verdict equals
    # the literal Gram verdict of the direct method, whether the window
    # tables are right, lose rank, leave range(2^q), give the zero digit a
    # nonzero row in or out of range, are bent in one cell, or repeat a row
    # (q >= 3; at q < 3 that variant leaves the tables unchanged).
    verdicts = set()
    for q, n in hadamard_instances(8):
        ctx = field(q)
        for name, variant in _table_variants(q).items():
            with monkeypatch.context() as m:
                _patch_window_tables(m, variant)
                direct = check_hadamard(ctx, n, method="direct")
                assert check_hadamard(ctx, n, method="counts") == direct, (q, n, name)
            unchanged = name == "unchanged" or (name == "row3-is-row5" and q < 3)
            assert direct == unchanged, (q, n, name)
            verdicts.add(direct)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q, n", [(3, 1), (5, 1), (3, 2)])
def test_counts_fail_on_swapped_rows_that_direct_passes(monkeypatch, q, n):
    # Swapping window rows 1 and 2 only relabels the rows x, so the Hadamard
    # property still holds and the literal Gram check passes; the table is
    # no longer linear in its row, and counts fails it by design.
    def swapped(w, base):
        w[[1, 2]] = w[[2, 1]]
        return w

    _patch_window_tables(monkeypatch, swapped)
    assert check_hadamard(field(q), n, method="direct") is True
    assert check_hadamard(field(q), n, method="counts") is False


def test_counts_fail_on_unbalanced_first_bit_functionals(monkeypatch):
    # With bilinear window tables of full rank, the balances of the
    # first-bit functionals decide the verdict: a duplicated first-bit row
    # leaves some functional unbalanced, and both methods must fail.  At
    # q = 13 the balances have length 2^13; direct stops at t = 12.
    def duplicated_first_bit_rows(ctx):
        brow = real(ctx)
        brow[1] = brow[2]
        return brow

    real = verify_mod.first_bit_rows
    assert check_hadamard(field(13), 1, method="counts")
    monkeypatch.setattr(verify_mod, "first_bit_rows", duplicated_first_bit_rows)
    assert _rank_verdicts(field(3)).all()
    for method in ("counts", "direct"):
        assert check_hadamard(field(3), 1, method=method) is False, method
    assert _rank_verdicts(field(13)).all()
    assert check_hadamard(field(13), 1, method="counts") is False


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("q", [3, 5])
def test_hadamard_fails_on_a_value_outside_the_field(monkeypatch, q, n):
    # Bit 0 copied to bit q puts values at or above 2^q in the tables; both
    # methods must answer False, not raise.
    _patch_window_tables(monkeypatch, lambda w, base: w ^ ((w & 1) << q))
    for method in ("counts", "direct"):
        assert check_hadamard(field(q), n, method=method) is False, method


@pytest.mark.parametrize("q", [2, 3])
def test_counts_fail_on_any_flipped_bit_of_a_digit_table_row(monkeypatch, q):
    # The n >= 2 rows are built from the window-table rows of every digit;
    # one flipped product bit in any row d >= 1 must fail the check.
    ctx = field(q)
    assert check_hadamard(ctx, 2, method="counts")
    for d in range(1, 1 << q):
        for y in range(1 << q):
            for bit in range(q):
                def flipped(w, base, d=d, y=y, bit=bit):
                    w[d, y] ^= 1 << bit
                    return w

                with monkeypatch.context() as m:
                    _patch_window_tables(m, flipped)
                    assert not check_hadamard(ctx, 2, method="counts"), (d, y, bit)


def _literal_permutation_rows(ctx):
    """Per n = 1 row d >= 1: np.all(np.bincount(row) == 1), row by row."""
    z = _ip_rows(ctx, 1, np.arange(1, 1 << ctx.q)).astype(np.int64)
    return np.array([np.all(np.bincount(row) == 1) for row in z])


def _patch_window_tables(monkeypatch, change):
    real = verify_mod._window_table
    monkeypatch.setattr(verify_mod, "_window_table",
                        lambda ctx, base, width: change(real(ctx, base, width).copy(), base))


def test_gf2_ranks_match_elimination_one_matrix_at_a_time():
    def rank(columns):
        pivots = {}   # leading bit -> column
        for v in columns:
            while v and v.bit_length() - 1 in pivots:
                v ^= pivots[v.bit_length() - 1]
            if v:
                pivots[v.bit_length() - 1] = v
        return len(pivots)

    rng = np.random.default_rng(12)
    for bits in (1, 2, 3, 5, 8, 12):
        m = rng.integers(0, 1 << bits, size=(400, bits))
        expected = [rank(row.tolist()) for row in m]
        assert np.array_equal(_gf2_ranks(m, bits), expected), bits
        assert len(set(expected)) > 1


def test_rank_verdict_matches_bincount_per_row(monkeypatch):
    # Every n = 1 row for q <= 12, and two linear variants of each, built on
    # the window tables: one with the low output bit dropped (a nontrivial
    # kernel) and one with it copied to bit q (injective, but leaving
    # range(2^q)).  A window table not linear in its column gets no verdict.
    for q in range(1, 13):
        ctx = field(q)
        for variant in (lambda w, base: w, lambda w, base: w ^ (w & 1),
                        lambda w, base: w ^ ((w & 1) << q)):
            with monkeypatch.context() as m:
                _patch_window_tables(m, variant)
                assert np.array_equal(_rank_verdicts(ctx), _literal_permutation_rows(ctx)), q
        for bent_base in range(0, q, 8):
            def bent(w, base, bent_base=bent_base):
                if base == bent_base:
                    w[-1, 0] ^= 1
                return w

            with monkeypatch.context() as m:
                _patch_window_tables(m, bent)
                assert _rank_verdicts(ctx) is None, (q, bent_base)


@pytest.mark.parametrize("q", [2, 3])
def test_counts_fail_on_any_flipped_bit_of_an_n1_table_row(monkeypatch, q):
    # The n = 1 counts method takes the rank path only after checking that
    # the window table is linear in its column; one flipped product bit in
    # any row d >= 1 must fail the check.  At q <= 8 the one window table is
    # the whole n = 1 table.
    ctx = field(q)
    assert check_hadamard(ctx, 1, method="counts")
    for d in range(1, 1 << q):
        for y in range(1 << q):
            for bit in range(q):
                def flipped(w, base, d=d, y=y, bit=bit):
                    w[d, y] ^= 1 << bit
                    return w

                with monkeypatch.context() as m:
                    _patch_window_tables(m, flipped)
                    assert not check_hadamard(ctx, 1, method="counts"), (d, y, bit)


def test_counts_fail_on_flipped_bits_of_both_q9_windows(monkeypatch):
    # q = 9 splits y into windows of 8 bits and 1 bit.  A flipped bit in
    # the 1-bit window's unit column leaves that table linear in its column
    # but not in its row, and some flips of either window keep every row a
    # bijection.  The tables are then not bilinear, so a pair sum need not
    # reduce to one row's histogram: every flip must fail counts, and each
    # flip that keeps every row a bijection must fail the literal Gram
    # check too.
    q = 9
    ctx = field(q)
    rng = random.Random(9)
    outcomes = set()
    for base, width in ((0, 8), (8, 1)):
        for _ in range(24):
            d, u, bit = rng.randrange(1, 1 << q), rng.randrange(1 << width), rng.randrange(q)

            def flipped(w, b, base=base, d=d, u=u, bit=bit):
                if b == base:
                    w[d, u] ^= 1 << bit
                return w

            with monkeypatch.context() as m:
                _patch_window_tables(m, flipped)
                assert check_hadamard(ctx, 1, method="counts") is False, (base, d, u, bit)
                bijective = bool(_literal_permutation_rows(ctx).all())
                if bijective:
                    assert check_hadamard(ctx, 1, method="direct") is False, (base, d, u, bit)
            outcomes.add((base, u == 0, bijective))
    assert {(0, False, False), (8, True, False), (8, False, False),
            (8, False, True)} <= outcomes


# ---------- one-bit bias ----------


def test_bias_full_entropy_equals_zero_block_artifact():
    # At k = t both sources are uniform; the all-zero input forces exactly
    # bias 2^-t (not 0: the zero block fixes the output).
    for q, n in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)):
        t = q * n
        rep = check_one_bit_bias(field(q), n, t)
        assert rep.exhaustive and rep.pairs_tested == 1
        assert rep.max_bias == 2.0 ** -t
        assert rep.holds


def test_bias_monotone_in_entropy_on_exhaustive_cases():
    for q, n in ((1, 2), (1, 3), (3, 1)):
        t = q * n
        maxima = []
        for k in range(0, t + 1):
            rep = check_one_bit_bias(field(q), n, k)
            assert rep.exhaustive
            assert rep.holds
            maxima.append(rep.max_bias)
        assert all(a >= b - 1e-12 for a, b in zip(maxima, maxima[1:]))


def test_bias_sampled_midsize():
    rep = check_one_bit_bias(field(2), 2, 3, seed=5)
    assert not rep.exhaustive and rep.pairs_tested == 200
    assert rep.holds
    rep = check_one_bit_bias(field(1), 4, 3, seed=5)
    assert rep.bound == 2.0 ** (1 - (6 - 4) / 2)
    assert rep.holds


def test_bias_validation():
    with pytest.raises(InfeasibleError):
        check_one_bit_bias(field(13), 1, 4)
    with pytest.raises(ValueError):
        check_one_bit_bias(field(2), 2, 5)
    with pytest.raises(ValueError):
        next(bias_reports(field(2), 2, (3, 5)))


def test_bias_reports_equal_one_check_per_k():
    # The tables shared across k change no report: every instance with
    # t <= 8, at the CLI's k set.
    for q, n in hadamard_instances(8):
        t = q * n
        ks = sorted({t, t - 1, max(1, (3 * t) // 4)})
        seed = 100 + t
        assert (list(bias_reports(field(q), n, ks, seed=seed))
                == [check_one_bit_bias(field(q), n, k, seed=seed) for k in ks]), (q, n)


def test_linear_bias_spectra_match_grouped_walsh():
    # Every pair of every instance with t <= 8, at every k: the spectrum from
    # linearity in y equals the literal grouped-histogram Walsh spectrum.
    for q, n in hadamard_instances(8):
        ctx = field(q)
        t = q * n
        w = first_bit_rows(ctx)[ip_value_table(ctx, n)]
        functionals = _y_functionals(w, q)
        assert functionals is not None
        for k in range(t + 1):
            sets, exhaustive = _support_sets(1 << t, 1 << k, seed=t + k)
            for sx, sy in _pair_batches(sets, exhaustive, max(1, (1 << 16) >> max(t, 2 * k))):
                cells = w[sx[:, :, None], sy[:, None, :]].reshape(len(sx), -1).astype(np.int64)
                cells += np.arange(len(sx), dtype=np.int64)[:, None] << q
                grouped = np.bincount(cells.ravel(), minlength=len(sx) << q)
                literal = walsh_transform(grouped.reshape(len(sx), 1 << q))
                assert np.array_equal(_linear_spectra(functionals, sx, sy), literal), (q, n, k)


def test_linear_spectra_match_the_literal_walsh_on_random_pairs():
    # Random support pairs at q < k on instances up to t = 10: the lookups
    # in the y support's transform equal the grouped literal histogram,
    # transformed by the reference butterfly.
    rng = np.random.default_rng(31)
    for q, n in ((1, 10), (2, 5), (3, 3), (5, 2), (4, 2)):
        ctx = field(q)
        t = q * n
        w = first_bit_rows(ctx)[ip_value_table(ctx, n)]
        functionals = _y_functionals(w, q)
        assert functionals is not None
        for k in range(q + 1, t + 1):
            pairs = 6
            sx, sy = (np.array([rng.choice(1 << t, size=1 << k, replace=False)
                                for _ in range(pairs)]) for _ in range(2))
            cells = w[sx[:, :, None], sy[:, None, :]].reshape(pairs, -1).astype(np.int64)
            cells += np.arange(pairs, dtype=np.int64)[:, None] << q
            grouped = np.bincount(cells.ravel(), minlength=pairs << q).reshape(pairs, 1 << q)
            assert np.array_equal(_linear_spectra(functionals, sx, sy), _butterfly(grouped)), \
                (q, n, k)


@pytest.mark.parametrize("case", ["cell", "column"])
def test_bias_on_a_table_not_linear_in_y_takes_the_literal_path(monkeypatch, case):
    # q = 2 < k, so a linear table would take the linear path.  The bent
    # cells lie off the unit columns, which alone feed that path, so only
    # literal enumeration sees them; the pinned reports are the literal ones.
    ctx = field(2)
    k, seed, clean_bias, bent_bias, pairs, exhaustive = {
        "cell": (6, 0, 1 / 64, 33 / 2048, 1, True),
        "column": (4, 7, 3 / 16, 25 / 128, 200, False),
    }[case]
    real_ip_rows = verify_mod._ip_rows

    def bent_ip_rows(ctx, n, d_values, out=None):
        z = real_ip_rows(ctx, n, d_values, out)
        if case == "cell":
            z[np.asarray(d_values) == 5, 3] ^= 1
        else:
            z[:, 3] ^= 1
        return z

    def bent_table(ctx, n):
        return bent_ip_rows(ctx, n, np.arange(1 << (ctx.q * n)))

    assert check_one_bit_bias(ctx, 3, k, seed=seed).max_bias == clean_bias
    monkeypatch.setattr(verify_mod, "_ip_rows", bent_ip_rows)
    assert _y_functionals(first_bit_rows(ctx)[bent_table(ctx, 3)], 2) is None
    rep = check_one_bit_bias(ctx, 3, k, seed=seed)
    assert rep == BiasReport(6, k, bent_bias, 2.0 ** (1 - (2 * k - 6) / 2), pairs, exhaustive)


def test_log_bias_spectra_match_grouped_walsh():
    # Every pair of every n = 1 instance with q <= 10, at every k of the CLI
    # and acceptance k sets and their seeds: the discrete-log convolution
    # gives the literal grouped-histogram Walsh spectrum.  Supports with and
    # without 0 occur on both sides.
    zero_cases = set()
    for q in range(1, 11):
        ctx = field(q)
        z = ip_value_table(ctx, 1)
        logs = _log_tables(z)
        assert (logs is None) == (q == 1)
        if logs is None:
            continue
        brow = first_bit_rows(ctx)
        w = brow[z]
        for k in sorted({q, q - 1, max(1, (3 * q) // 4), max(1, q // 2)}):
            for seed in (0, 1000 + q):
                sets, exhaustive = _support_sets(1 << q, 1 << k, seed)
                for sx, sy in _pair_batches(sets, exhaustive, max(1, (1 << 16) >> max(q, 2 * k))):
                    cells = w[sx[:, :, None], sy[:, None, :]].reshape(len(sx), -1)
                    cells = cells.astype(np.int64) + (np.arange(len(sx))[:, None] << q)
                    grouped = np.bincount(cells.ravel(), minlength=len(sx) << q)
                    literal = walsh_transform(grouped.reshape(len(sx), 1 << q))
                    assert np.array_equal(_log_spectra(logs, brow, sx, sy), literal), (q, k)
                    zero_cases.update(zip((sx == 0).any(axis=1), (sy == 0).any(axis=1)))
    assert zero_cases == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("case", ["cell", "generator-row", "column-0", "row-0"])
def test_bias_on_a_bent_n1_table_takes_the_literal_path(monkeypatch, case):
    # One flipped product bit makes the table fail the discrete-log guard, so
    # only literal enumeration sees it; the pinned reports are the literal ones.
    q, k, seed, cell, clean_bias, bent_bias, pairs, exhaustive = {
        "cell": (3, 2, 0, (5, 3), 5 / 8, 3 / 4, 4900, True),
        "generator-row": (3, 2, 0, (2, 1), 5 / 8, 3 / 4, 4900, True),
        "column-0": (4, 3, 9, (7, 0), 3 / 8, 11 / 32, 200, False),
        "row-0": (5, 4, 1005, (0, 3), 23 / 128, 11 / 64, 200, False),
    }[case]
    ctx = field(q)
    real_table = verify_mod.ip_value_table
    real_ip_rows = verify_mod._ip_rows

    def bent_ip_rows(ctx, n, d_values, out=None):
        z = real_ip_rows(ctx, n, d_values, out)
        z[np.asarray(d_values) == cell[0], cell[1]] ^= 1
        return z

    def bent_table(ctx, n):
        return bent_ip_rows(ctx, n, np.arange(1 << (ctx.q * n)))

    assert _log_tables(real_table(ctx, 1)) is not None
    assert check_one_bit_bias(ctx, 1, k, seed=seed).max_bias == clean_bias
    monkeypatch.setattr(verify_mod, "_ip_rows", bent_ip_rows)
    assert _log_tables(bent_table(ctx, 1)) is None
    rep = check_one_bit_bias(ctx, 1, k, seed=seed)
    assert rep == BiasReport(q, k, bent_bias, 2.0 ** (1 - (2 * k - q) / 2), pairs, exhaustive)


def test_row_block_guards_equal_the_whole_table_guards():
    # Blocks hold 2^18 cells, so every instance with t = 10..12 has several:
    # they tile the table, the discrete-log guard (n = 1) gives the whole
    # table's log tables and the linear guard (n >= 2) its functionals.
    for q, n in hadamard_instances(12):
        if q * n < 10:
            continue
        ctx = field(q)
        z = ip_value_table(ctx, n)
        blocks = [(x, block.copy()) for x, block in _ip_row_blocks(ctx, n)]
        assert len(blocks) > 1, (q, n)
        assert [x for x, _ in blocks] == list(range(0, len(z), len(blocks[0][1])))
        assert np.array_equal(np.concatenate([block for _, block in blocks]), z), (q, n)
        if n == 1:
            whole = _log_tables(z)
            assert whole is not None
            assert all(map(np.array_equal, _block_log_tables(ctx), whole)), q
        else:
            brow = first_bit_rows(ctx)
            assert np.array_equal(_block_y_functionals(ctx, n, brow),
                                  _y_functionals(brow[z], q)), (q, n)


@pytest.mark.parametrize("row", [0, 255, 256, 700, 1023])
def test_row_block_guards_see_a_bent_cell_in_any_block(monkeypatch, row):
    # t = 10 is four blocks of 256 rows; one flipped bit off the unit
    # columns, in the first or last row of a block or inside one, fails both
    # guards.
    real_ip_rows = verify_mod._ip_rows

    def bent_ip_rows(ctx, n, d_values, out=None):
        z = real_ip_rows(ctx, n, d_values, out)
        z[np.asarray(d_values) == row, 7] ^= 1
        return z

    monkeypatch.setattr(verify_mod, "_ip_rows", bent_ip_rows)
    assert _block_log_tables(field(10)) is None
    assert _block_y_functionals(field(2), 5, first_bit_rows(field(2))) is None


def test_bias_raises_when_the_convolution_does_not_round(monkeypatch):
    # Every exact convolution value is an integer far inside float64's
    # rounding, so a value off by 1/2 is an arithmetic fault, not a case for
    # another path.
    ctx = field(4)
    assert check_one_bit_bias(ctx, 1, 3, seed=9).holds
    real = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: real(*args, **kwargs) + 0.5)
    with pytest.raises(ArithmeticError):
        check_one_bit_bias(ctx, 1, 3, seed=9)


# ---------- output distance ----------


def test_distance_uniform_pair_is_zero_block_mixture():
    # Exact value 2^-t (1 - 2^-q): the all-zero block is the only deviation.
    for q, n in ((1, 1), (2, 2), (3, 2), (1, 8), (4, 3)):
        t = q * n
        size = 1 << t
        u = np.full(size, 1.0 / size)
        rep = check_extractor_distance(field(q), n, u, u)
        assert rep.distance == pytest.approx(2.0 ** -t * (1 - 2.0 ** -q), abs=1e-13)
        assert rep.rate == 1.0
        assert rep.holds


def test_distance_sums_the_whole_table_histogram_chunk_by_chunk():
    # Row blocks change no float: the weighted histogram is summed in the
    # same chunks of rows, in the same order, as over the whole table.
    rng = np.random.default_rng(12)
    for q, n in ((11, 1), (3, 4), (1, 10)):
        ctx = field(q)
        size = 1 << (q * n)
        px, py = (p / p.sum() for p in rng.random((2, size)))
        z = ip_value_table(ctx, n)
        out = np.zeros(1 << q)
        chunk = verify_mod._rows_per_chunk(size)
        for start in range(0, size, chunk):
            weights = np.outer(px[start:start + chunk], py).ravel()
            out += np.bincount(z[start:start + chunk].ravel(), weights=weights, minlength=1 << q)
        distance = 0.5 * float(np.abs(out - 1.0 / (1 << q)).sum())
        assert check_extractor_distance(ctx, n, px, py).distance == distance, (q, n)


def test_distance_zero_free_uniform_side_is_exact_zero():
    rng = np.random.default_rng(31)
    q, n = 2, 2
    size = 16
    u = np.full(size, 1.0 / size)
    py = np.zeros(size)
    py[rng.choice(np.arange(1, size), size=8, replace=False)] = 1 / 8
    rep = check_extractor_distance(field(q), n, u, py)
    assert rep.distance <= 1e-15


def test_distance_constant_zero_source():
    q, n = 2, 2
    size = 16
    const = np.zeros(size)
    const[0] = 1.0
    u = np.full(size, 1.0 / size)
    rep = check_extractor_distance(field(q), n, const, u)
    assert rep.distance == pytest.approx(1 - 2.0 ** -q, abs=1e-13)
    assert rep.rate == 0.0
    assert rep.holds  # the bound is clamped to 1


def test_distance_flat_pairs_within_bound():
    rng = np.random.default_rng(32)
    for q, n in ((2, 2), (3, 2), (2, 3)):
        t = q * n
        size = 1 << t
        for k in (t - 1, max(1, 3 * t // 4)):
            px = np.zeros(size)
            px[rng.choice(size, 1 << k, replace=False)] = 2.0 ** -k
            py = np.zeros(size)
            py[rng.choice(size, 1 << k, replace=False)] = 2.0 ** -k
            rep = check_extractor_distance(field(q), n, px, py)
            assert rep.holds
            assert rep.distance <= 1.0 + 1e-12


def test_distance_declared_rate_validation():
    size = 16
    u = np.full(size, 1.0 / size)
    flat = np.zeros(size)
    flat[:4] = 0.25
    with pytest.raises(ValueError):
        check_extractor_distance(field(2), 2, flat, u, declared_rate=0.9)
    rep = check_extractor_distance(field(2), 2, flat, u, declared_rate=0.5)
    assert rep.rate == 0.5
    with pytest.raises(InfeasibleError):
        check_extractor_distance(field(13), 1, np.ones(2), np.ones(2))


# ---------- XOR lemma ----------


def test_xor_lemma_frozen_examples():
    constant = np.zeros((2, 1))
    constant[0, 0] = 1.0
    lhs, rhs = xor_lemma_sides(1, constant)
    assert lhs == pytest.approx(1.0) and rhs == pytest.approx(2.0)
    uniform = np.full((4, 1), 0.25)
    lhs, rhs = xor_lemma_sides(2, uniform)
    assert lhs == pytest.approx(0.0, abs=1e-15) and rhs == pytest.approx(0.0, abs=1e-15)


def test_xor_lemma_random_instances_hold():
    rng = np.random.default_rng(33)
    for q in (1, 2, 3, 4):
        for _ in range(25):
            joint = rng.random((1 << q, rng.integers(1, 5)))
            joint /= joint.sum()
            assert check_xor_lemma_instance(q, joint)


def test_xor_lemma_validation():
    with pytest.raises(InfeasibleError):
        check_xor_lemma_instance(5, np.full((32, 1), 1 / 32))
    with pytest.raises(InfeasibleError):
        check_xor_lemma_instance(2, np.full((4, 17), 1 / 68))
    with pytest.raises(ValueError):
        check_xor_lemma_instance(2, np.full((4, 1), 1.0))


# ---------- bijection ----------


def test_first_bit_bijection_small_fields():
    for q in range(1, 9):
        assert check_first_bit_bijection(field(q))
    with pytest.raises(InfeasibleError):
        check_first_bit_bijection(field(9))


# ---------- working set ----------


def _traced_peak(call) -> int:
    """Bytes a call's traced allocations peak at above what was live before it."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_oracle_working_set_is_the_dense_tables_plus_the_cell_budget():
    # Above the tables an instance needs (one 2^t x 2^t uint16 table for a
    # bias instance; the current width's window and shift tables for
    # Hadamard), every temporary is within _CELL_BUDGET cells: eight of
    # 8-byte cells bound what is live at once.  A bias call at t = 10 on the
    # discrete-log path (q = 10, n = 1) and on the linear path (q = 2, n = 5),
    # with its support draws already cached, and check_hadamard at q = 13
    # right after q = 12.
    temporaries = 8 * 8 * verify_mod._CELL_BUDGET
    for q, n in ((10, 1), (2, 5)):
        call = lambda: list(bias_reports(field(q), n, (7, 9, 10)))
        call()
        assert _traced_peak(call) <= 2 * 4**10 + temporaries, (q, n)
    check_hadamard(field(12), 1)
    q13_tables = 2 * 2**13 * (2**8 + 2**5 + 13)
    assert _traced_peak(lambda: check_hadamard(field(13), 1)) <= q13_tables + temporaries
    # The caches hold the current width only: q = 13's tables are freed
    # once q = 12 is asked for, and q = 12's are kept.
    tables = [weakref.ref(_window_table(field(13), 0, 8)),
              weakref.ref(_window_table(field(13), 8, 5)),
              weakref.ref(shift_tables(field(13))[0])]
    assert _window_table(field(12), 0, 8) is _window_table(field(12), 0, 8)
    assert shift_tables(field(12)) is shift_tables(field(12))
    gc.collect()
    assert [ref() for ref in tables] == [None] * 3


def test_bias_and_distance_hold_less_than_one_dense_table():
    # Guards and distance read the table in row blocks, and a bias instance
    # that takes no literal path never holds it whole: each traced peak is
    # below one dense t = 10 table.  Bias on the discrete-log path
    # (q = 10, n = 1) and on the linear path (q = 2, n = 5), with its support
    # draws already cached, and the distance at t = 10.
    table = 2 * 4**10
    for q, n in ((10, 1), (2, 5)):
        call = lambda: list(bias_reports(field(q), n, (7, 9, 10)))
        call()
        assert _traced_peak(call) < table, (q, n)
    uniform = np.full(1 << 10, 2.0**-10)
    assert _traced_peak(lambda: check_extractor_distance(field(5), 2, uniform, uniform)) < table


def test_hadamard_instances_enumeration():
    pairs = list(hadamard_instances(16))
    assert len(pairs) == 50
    assert all(q * n <= 16 for q, n in pairs)
    assert (16, 1) in pairs and (1, 16) in pairs and (4, 4) in pairs


def test_verify_reports_match_the_recorded_digests():
    # The cheap runs of scripts/verify_digests.py, replayed in process
    # against the digests it recorded in tests/data/verify_digests.json.
    # The hadamard run is the only pinned one over q = 13..16.
    root = Path(__file__).resolve().parents[1]
    script = runpy.run_path(str(root / "scripts" / "verify_digests.py"))
    recorded = json.loads((root / "tests" / "data" / "verify_digests.json").read_text())
    assert set(recorded) == {" ".join(script["argv"](*run)) for run in script["RUNS"]}
    for run in (("all", 10, 0), ("all", 10, 1), ("hadamard", 16, 0)):
        argv = script["argv"](*run)
        assert script["digest"](argv) == recorded[" ".join(argv)], argv
