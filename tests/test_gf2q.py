"""Field arithmetic tests, cross-checked against list-based polynomial oracles."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from blockext.gf2q import (
    GFContext,
    MAX_FIELD_BITS,
    MODULUS_EXPONENTS,
    field,
    is_irreducible,
    modulus_int,
    poly_degree,
)
from blockext.errors import CapacityError


# ---------- independent oracles (coefficient lists, no bit tricks) ----------

def _to_list(p):
    return [(p >> i) & 1 for i in range(p.bit_length())]


def _from_list(coeffs):
    return sum(c << i for i, c in enumerate(coeffs))


def list_mul(a, b):
    """Schoolbook convolution over GF(2) on coefficient lists."""
    la, lb = _to_list(a), _to_list(b)
    out = [0] * (len(la) + len(lb))
    for i, ca in enumerate(la):
        for j, cb in enumerate(lb):
            out[i + j] ^= ca & cb
    return _from_list(out)


def list_mod(a, m):
    """Long division over GF(2) on coefficient lists."""
    la, lm = _to_list(a), _to_list(m)
    dm = len(lm) - 1
    while len(la) - 1 >= dm and any(la):
        da = len(la) - 1
        if la[da]:
            for k, cm in enumerate(lm):
                la[da - dm + k] ^= cm
        while la and not la[-1]:
            la.pop()
    return _from_list(la)


def trial_division_irreducible(p):
    """Exhaustive trial division; the independent irreducibility oracle."""
    d = poly_degree(p)
    for f in range(2, 1 << (d // 2 + 1)):
        if poly_degree(f) >= 1 and list_mod(p, f) == 0:
            return False
    return d >= 1


# ---------- modulus table ----------

def test_modulus_table_complete_and_irreducible():
    assert sorted(MODULUS_EXPONENTS) == list(range(1, 129))
    for q, exps in MODULUS_EXPONENTS.items():
        m = modulus_int(q)
        assert poly_degree(m) == q
        assert m & 1, f"q={q}: constant term missing"
        assert len(exps) in (2, 3, 5), f"q={q}: not low weight"
        assert is_irreducible(m), f"q={q}: shipped modulus reducible"


def test_gen_moduli_script_rebuilds_shipped_table():
    # The table is the only source of moduli, so pin its construction rule
    # (first irreducible in the script's scan order), not just irreducibility.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, str(root / "scripts" / "gen_moduli.py")],
                         capture_output=True, text=True, check=True, env=env).stdout
    assert ast.literal_eval(out.split("=", 1)[1]) == MODULUS_EXPONENTS
    for q in range(1, MAX_FIELD_BITS + 1):
        assert GFContext(q).modulus == modulus_int(q)


def test_is_irreducible_matches_trial_division_exhaustively():
    for p in range(2, 1 << 12):
        if p & 1 == 0 and p != 2:
            continue  # even constant term: divisible by x, skip the bulk
        if poly_degree(p) < 1:
            continue
        assert is_irreducible(p) == trial_division_irreducible(p), bin(p)


def test_is_irreducible_examples():
    assert is_irreducible(0b111)          # x^2 + x + 1
    assert not is_irreducible(0b101)      # x^2 + 1 = (x + 1)^2
    assert is_irreducible(modulus_int(80))
    with pytest.raises(ValueError):
        is_irreducible(1)


# ---------- element operations ----------

def test_add_examples():
    ctx = field(3)
    assert ctx.add(0b101, 0b101) == 0
    assert ctx.add(0b101, 0b010) == 0b111
    ctx80 = field(80)
    v = 0x1234_5678_9ABC_DEF0_1234
    assert ctx80.add(0, v) == v


def test_mul_examples():
    assert field(1).mul(1, 1) == 1
    ctx = field(2)
    assert ctx.modulus == 0b111
    assert ctx.mul(0b10, 0b10) == 0b11
    for q in (3, 8, 80):
        ctx = field(q)
        assert ctx.mul(0, (1 << q) - 1) == 0


def test_mul_matches_list_oracle_randomized():
    # Every shipped modulus meets the list oracle; (mask, mask) gives a
    # product of the highest degree, 2q - 2.
    rnd = random.Random(2024)
    for q in range(1, MAX_FIELD_BITS + 1):
        ctx = field(q)
        pairs = [(rnd.getrandbits(q), rnd.getrandbits(q)) for _ in range(3)]
        for a, b in pairs + [(ctx.mask, ctx.mask)]:
            assert ctx.mul(a, b) == list_mod(list_mul(a, b), ctx.modulus)


def test_argument_validation():
    ctx = field(4)
    with pytest.raises(ValueError):
        ctx.add(1 << 4, 0)
    with pytest.raises(ValueError):
        ctx.mul(0, -1)
    for q in (0, MAX_FIELD_BITS + 1):
        with pytest.raises(CapacityError):
            GFContext(q)
        with pytest.raises(CapacityError):
            field(q)


# ---------- field axioms ----------

def _axiom_triple(ctx, a, b, c):
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, 0) == a
    assert ctx.mul(a, 1) == a
    assert ctx.add(a, a) == 0


def test_axioms_exhaustive_small_fields():
    for q in (1, 2, 3):
        ctx = field(q)
        for a in range(1 << q):
            for b in range(1 << q):
                for c in range(1 << q):
                    _axiom_triple(ctx, a, b, c)


@given(st.integers(0, 2**80 - 1), st.integers(0, 2**80 - 1), st.integers(0, 2**80 - 1))
def test_axioms_random_triples_q80(a, b, c):
    _axiom_triple(field(80), a, b, c)


@given(st.data())
def test_axioms_random_triples_various_q(data):
    q = data.draw(st.sampled_from([4, 8, 16, 128]))
    ctx = field(q)
    a = data.draw(st.integers(0, ctx.mask))
    b = data.draw(st.integers(0, ctx.mask))
    c = data.draw(st.integers(0, ctx.mask))
    _axiom_triple(ctx, a, b, c)


def test_every_nonzero_element_has_inverse_exhaustive():
    for q in range(1, 9):
        ctx = field(q)
        for x in range(1, 1 << q):
            inverses = [y for y in range(1, 1 << q) if ctx.mul(x, y) == 1]
            assert inverses == [ctx.inv(x)]


def test_mul_by_fixed_nonzero_is_bijection():
    for q in range(1, 9):
        ctx = field(q)
        for a in range(1, 1 << q):
            image = {ctx.mul(a, z) for z in range(1 << q)}
            assert len(image) == 1 << q


def test_pow_and_inv():
    ctx = field(16)
    rnd = random.Random(5)
    for _ in range(50):
        x = rnd.getrandbits(16) or 1
        assert ctx.mul(x, ctx.inv(x)) == 1
        assert ctx.pow(x, 3) == ctx.mul(x, ctx.mul(x, x))
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_context_cache_and_equality():
    assert field(7) is field(7)
    assert field(7) == GFContext(7)
    assert field(7) != field(8)
