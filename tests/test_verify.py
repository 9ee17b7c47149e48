"""Verification-oracle tests.

The reference checker below evaluates the pair correlations by the raw
triple loop over (a, x, x', y) with nothing but ctx.mul and ext_ip, so the
packaged methods (Gram-matrix "direct" and histogram "counts") are both
validated against an implementation with zero shared structure.  The
XOR-linearity identities that justify the counts method's pair-to-
difference reduction are property-tested here as well.
"""

import itertools
import random

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
    _digit_spectra,
    _gf2_ranks,
    _ip_rows,
    _linear_spectra,
    _log_spectra,
    _log_tables,
    _parity_table,
    _product_counts,
    _rank_verdicts,
    _support_pairs,
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


def test_counts_fallback_rejects_nonuniform_histograms():
    # A non-uniform value histogram with nonzero signed sums must fail; the
    # grouped-Walsh evaluation the fallback uses is checked on a fabricated
    # histogram here.
    ctx = field(2)
    brow = first_bit_rows(ctx)
    counts = np.array([3, 1, 0, 0], dtype=np.int64)   # not uniform
    grouped = np.bincount(brow, weights=counts.astype(np.float64), minlength=4)
    sums = walsh_transform(np.rint(grouped).astype(np.int64))
    assert np.any(sums[1:])


def test_oracles_reject_corrupted_tables(monkeypatch):
    # Each oracle must fail, not pass vacuously, when its tables are wrong:
    # one flipped product bit for both Hadamard methods (the counts method
    # through its non-uniform fallback), one duplicated first-bit row for
    # the bijection check.
    ctx = field(3)
    for method in ("counts", "direct"):
        assert check_hadamard(ctx, 2, method=method)
    assert check_first_bit_bijection(ctx)

    real_ip_rows = verify_mod._ip_rows

    def flipped_ip_rows(*args):
        z = real_ip_rows(*args).copy()
        z[0, 1] ^= 1
        return z

    def duplicated_first_bit_rows(ctx):
        brow = first_bit_rows(ctx)
        brow[1] = brow[2]
        return brow

    with monkeypatch.context() as m:
        m.setattr(verify_mod, "_ip_rows", flipped_ip_rows)
        for method in ("counts", "direct"):
            assert not check_hadamard(ctx, 2, method=method)
    with monkeypatch.context() as m:
        m.setattr(verify_mod, "first_bit_rows", duplicated_first_bit_rows)
        assert not check_first_bit_bijection(ctx)


def test_walsh_product_counts_match_bincount():
    # Every n >= 2 instance with t <= 12: the per-digit Walsh product gives
    # exactly the literal value histogram of every inner-product row.
    for q, n in hadamard_instances(12):
        if n < 2:
            continue
        ctx = field(q)
        ds = np.arange(1, 1 << (q * n), dtype=np.int64)
        spectra = _digit_spectra(ctx)
        for start in range(0, len(ds), 512):
            chunk = ds[start:start + 512]
            z = _ip_rows(ctx, n, chunk).astype(np.int64)
            offsets = np.arange(len(chunk), dtype=np.int64)[:, None] << q
            literal = np.bincount((z + offsets).ravel(),
                                  minlength=len(chunk) << q).reshape(len(chunk), 1 << q)
            assert np.array_equal(_product_counts(spectra, chunk, q, n), literal), (q, n)


@pytest.mark.parametrize("q", [2, 3])
def test_counts_fail_on_any_flipped_bit_of_a_digit_table_row(monkeypatch, q):
    # The n >= 2 counts method reads the n = 1 table rows of the nonzero
    # digits; one flipped product bit anywhere in them must fail the check.
    ctx = field(q)
    real_ip_rows = verify_mod._ip_rows
    assert check_hadamard(ctx, 2, method="counts")
    for d in range(1, 1 << q):
        for y in range(1 << q):
            for bit in range(q):
                def flipped(ctx, n, d_values, d=d, y=y, bit=bit):
                    z = real_ip_rows(ctx, n, d_values).copy()
                    assert n == 1 and d_values[d - 1] == d
                    z[d - 1, y] ^= 1 << bit
                    return z

                monkeypatch.setattr(verify_mod, "_ip_rows", flipped)
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


def test_counts_on_flipped_bits_of_both_q9_windows_match_literal_histograms(monkeypatch):
    # q = 9 splits y into windows of 8 bits and 1 bit.  A flipped bit in the
    # 1-bit window's unit column leaves its table linear, and the rows stay
    # bijections exactly when M(d) keeps rank 9; some flips of either window
    # keep every row a bijection, so the Hadamard property holds for the
    # flipped table.  The verdict must be the literal one: pass exactly when
    # every row's value histogram is all ones.
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
                literal = bool(_literal_permutation_rows(ctx).all())
                assert check_hadamard(ctx, 1, method="counts") == literal, (base, d, u, bit)
            outcomes.add((base, u == 0, literal))
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
            x_sets, y_sets, _ = _support_pairs(1 << t, 1 << k, seed=t + k)
            step = max(1, (1 << 16) >> max(t, 2 * k))
            for start in range(0, len(x_sets), step):
                sx, sy = x_sets[start:start + step], y_sets[start:start + step]
                cells = w[sx[:, :, None], sy[:, None, :]].reshape(len(sx), -1).astype(np.int64)
                cells += np.arange(len(sx), dtype=np.int64)[:, None] << q
                grouped = np.bincount(cells.ravel(), minlength=len(sx) << q)
                literal = walsh_transform(grouped.reshape(len(sx), 1 << q))
                assert np.array_equal(_linear_spectra(functionals, sx, sy), literal), (q, n, k)


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
    real_table = verify_mod.ip_value_table

    def bent_table(ctx, n):
        z = real_table(ctx, n).copy()
        if case == "cell":
            z[5, 3] ^= 1
        else:
            z[:, 3] ^= 1
        return z

    assert check_one_bit_bias(ctx, 3, k, seed=seed).max_bias == clean_bias
    monkeypatch.setattr(verify_mod, "ip_value_table", bent_table)
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
                x_sets, y_sets, _ = _support_pairs(1 << q, 1 << k, seed)
                step = max(1, (1 << 16) >> max(q, 2 * k))
                for start in range(0, len(x_sets), step):
                    sx, sy = x_sets[start:start + step], y_sets[start:start + step]
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

    def bent_table(ctx, n):
        z = real_table(ctx, n).copy()
        z[cell] ^= 1
        return z

    assert _log_tables(real_table(ctx, 1)) is not None
    assert check_one_bit_bias(ctx, 1, k, seed=seed).max_bias == clean_bias
    monkeypatch.setattr(verify_mod, "ip_value_table", bent_table)
    assert _log_tables(bent_table(ctx, 1)) is None
    rep = check_one_bit_bias(ctx, 1, k, seed=seed)
    assert rep == BiasReport(q, k, bent_bias, 2.0 ** (1 - (2 * k - q) / 2), pairs, exhaustive)


def test_bias_takes_the_literal_path_when_the_convolution_does_not_round(monkeypatch):
    ctx = field(4)
    clean = check_one_bit_bias(ctx, 1, 3, seed=9)
    monkeypatch.setattr(verify_mod, "_log_spectra", lambda *args: None)
    assert check_one_bit_bias(ctx, 1, 3, seed=9) == clean


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


def test_hadamard_instances_enumeration():
    pairs = list(hadamard_instances(16))
    assert len(pairs) == 50
    assert all(q * n <= 16 for q, n in pairs)
    assert (16, 1) in pairs and (1, 16) in pairs and (4, 4) in pairs
