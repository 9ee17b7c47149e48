"""Arithmetic in the binary fields GF(2^q), 1 <= q <= 128.

Field elements are plain Python integers: bit i is the coefficient of x^i,
so 0 is the additive identity and 1 the multiplicative identity.  Addition
is bit-wise XOR; multiplication is carry-less (shift/XOR schoolbook)
polynomial multiplication reduced modulo an irreducible degree-q modulus.

A :class:`GFContext` fixes q and takes its modulus from the shipped
low-weight table in :mod:`blockext._moduli`.  That table is the only source
of moduli: custom moduli are not accepted, and contexts do not re-prove
irreducibility, because the test suite proves every entry irreducible and
``scripts/gen_moduli.py`` regenerates the table (the first irreducible
polynomial of each degree in a fixed scan order).  Any irreducible modulus
yields an isomorphic field; one fixed table keeps outputs reproducible.
Contexts are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from functools import cache

from .errors import CapacityError
from ._moduli import MODULUS_EXPONENTS, modulus_int

MAX_FIELD_BITS = 128


# ---------- polynomial helpers (ints as GF(2)[x] coefficient vectors) ----------

def poly_degree(a: int) -> int:
    """Degree of polynomial a, with degree(0) = -1."""
    return a.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    """Remainder of polynomial a modulo nonzero polynomial m."""
    if m == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dm = poly_degree(m)
    da = poly_degree(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = poly_degree(a)
    return a


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of polynomials a and b."""
    if a.bit_length() > b.bit_length():
        a, b = b, a
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor of polynomials a and b."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def is_irreducible(poly: int) -> bool:
    """Test whether a GF(2) polynomial of degree >= 1 is irreducible.

    Uses the finite-field criterion: poly of degree d is irreducible iff
    x^(2^d) == x (mod poly) and gcd(x^(2^i) - x mod poly, poly) = 1 for all
    1 <= i <= d/2 (an irreducible factor of degree i divides x^(2^i) - x).
    """
    d = poly_degree(poly)
    if d < 1:
        raise ValueError("polynomial must have degree >= 1")
    x = poly_mod(2, poly)
    t = x
    for i in range(1, d + 1):
        t = poly_mod(poly_mul(t, t), poly)
        if i <= d // 2 and poly_gcd(t ^ x, poly) != 1:
            return False
    return t == x


# ---------- field context ----------

class GFContext:
    """GF(2^q) with the shipped modulus polynomial for q.

    Attributes:
        q: field degree (bits per element).
        modulus: degree-q modulus as an int (bit i = coefficient of x^i).
        mask: (1 << q) - 1, the range mask for elements.
    """

    __slots__ = ("q", "modulus", "mask")

    def __init__(self, q: int):
        if not 1 <= q <= MAX_FIELD_BITS:
            raise CapacityError(f"field degree {q} outside supported range 1..{MAX_FIELD_BITS}")
        self.q = q
        self.modulus = modulus_int(q)
        self.mask = (1 << q) - 1

    def __repr__(self) -> str:
        return f"GFContext({self.q})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GFContext) and self.q == other.q

    def __hash__(self) -> int:
        return hash(self.q)

    def check(self, x: int) -> int:
        """Validate that x is a q-bit element and return it."""
        if not isinstance(x, int) or x < 0 or x > self.mask:
            raise ValueError(f"element {x!r} not in range of GF(2^{self.q})")
        return x

    def add(self, x: int, y: int) -> int:
        """Field addition: bit-wise XOR."""
        self.check(x)
        self.check(y)
        return x ^ y

    def mul(self, x: int, y: int) -> int:
        """Field multiplication: carry-less product reduced by the modulus."""
        self.check(x)
        self.check(y)
        return poly_mod(poly_mul(x, y), self.modulus)

    def pow(self, x: int, e: int) -> int:
        """x raised to a nonnegative integer power."""
        self.check(x)
        if e < 0:
            raise ValueError("negative exponent")
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def inv(self, x: int) -> int:
        """Multiplicative inverse of nonzero x, via x^(2^q - 2)."""
        self.check(x)
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(x, (1 << self.q) - 2)


@cache
def field(q: int) -> GFContext:
    """GFContext for degree q, cached so repeat lookups share one instance."""
    return GFContext(q)


__all__ = [
    "MAX_FIELD_BITS",
    "MODULUS_EXPONENTS",
    "GFContext",
    "field",
    "is_irreducible",
    "modulus_int",
    "poly_degree",
    "poly_gcd",
    "poly_mod",
    "poly_mul",
]
