"""Parameter planning and error-bound evaluation for the block extractors.

Error magnitudes reach 2^-80 and below, so every bound here is handled as a
log2 value in double precision; evaluation order is fixed so identical inputs
give bit-identical outputs.  Documented slop of the float evaluation is
within +/- 2^-40 of the exact value for all supported parameter ranges.

The min-entropy rate is kept as an exact Fraction end to end: the
samples-per-element count is a ceiling of a rational function of the rate,
and a float rate near a ceiling boundary could silently change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, DivergenceError, UnsupportedRateError
from .gf2q import MAX_FIELD_BITS

LOG2_SQRT3 = 0.5 * math.log2(3.0)

MAX_SAMPLE_BITS = 64

# Widest numerator or denominator, in bits, that a number string may give:
# every real plan is far inside it, and it refuses '2^-100000000' or
# '1e10000000' before their power is computed (seconds, or gigabytes).
_MAX_VALUE_BITS = 1 << 16


def _log2_int(n: int) -> float:
    """log2 of a positive integer, safe for values beyond float range."""
    if n <= 0:
        raise ValueError("log2 of non-positive integer")
    shift = max(0, n.bit_length() - 900)
    return math.log2(n >> shift) + shift


def log2_fraction(fr: Fraction) -> float:
    """log2 of a positive Fraction."""
    if fr <= 0:
        raise ValueError("log2 of non-positive value")
    return _log2_int(fr.numerator) - _log2_int(fr.denominator)


def as_rational(value, name: str = "value") -> Fraction:
    """Coerce an exact rational input; floats are rejected.

    Accepts Fraction, int, or a string like "10.74/16", "537/800", "0.67125",
    "1e400" or "2^-30"; a string whose numerator or denominator is wider
    than 2^16 bits is refused, judged from its exponent before any power is
    computed.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be rational, got bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                result = as_rational(num.strip(), name) / as_rational(den.strip(), name)
            elif "^" in text:
                base, exp = (int(part) for part in text.split("^", 1))
                # base^exp is at least (bits(base) - 1) * |exp| bits wide.
                _refuse_wide((abs(base).bit_length() - 1) * abs(exp), name, value)
                result = Fraction(base) ** exp
            else:
                _, e, exp = text.lower().partition("e")
                if e:  # 10^|exp| is more than 3 * |exp| bits wide
                    _refuse_wide(3 * abs(int(exp)), name, value)
                result = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"{name}: division by zero in {value!r}") from None
        _refuse_wide(max(result.numerator.bit_length(), result.denominator.bit_length()),
                     name, value)
        return result
    if isinstance(value, float):
        raise TypeError(
            f"{name} must be an exact rational (Fraction, int, or string); "
            f"floats near a ceiling boundary can change derived parameters"
        )
    raise TypeError(f"cannot interpret {name}={value!r} as a rational")


def _refuse_wide(bits: int, name: str, value) -> None:
    if bits > _MAX_VALUE_BITS:
        raise ValueError(f"{name}: {value!r} is wider than 2^16 bits")


def parse_count(text: str) -> int:
    """Parse a positive integer count in the grammar of :func:`as_rational`,
    e.g. '2^47' or '1000'."""
    value = as_rational(text, "count")
    if value.denominator != 1 or value <= 0:
        raise ValueError(f"count must be a positive integer, got {text!r}")
    return int(value)


def parse_probability(text: str) -> Fraction:
    """Parse a probability in (0,1), allowing '2^-30' style notation."""
    return as_rational(text, "probability")


# ---------- plans ----------

@dataclass(frozen=True)
class EqPlan:
    """Fully derived parameters for the equal-block extractor."""

    bits_per_sample: int        # b, bits per raw sample
    num_samples: int            # N, samples per source
    entropy_rate: Fraction      # min-entropy bits per sample bit, in (1/2, 1]
    epsilon: Fraction           # target total distance from uniform
    vec_len: int                # n, field elements per inner product
    field_bits: int             # q, bits per field element and per output chunk
    num_blocks: int             # floor(N*b / (q*n))
    output_bits: int            # num_blocks * q
    log2_error: float           # proven bound on total distance, log2 domain

    @property
    def block_bits(self) -> int:
        """Input bits consumed per source per block."""
        return self.field_bits * self.vec_len


@dataclass(frozen=True)
class NeqPlan:
    """Parameters for the incremental-block extractor."""

    bits_per_sample: int            # b
    entropy_rate: Fraction          # min-entropy bits per sample bit
    vec_len: int                    # n, field elements per inner product
    first_field_bits: int           # q_1, divisible by b
    growth: int                     # samples added to the element width per block
    log2_error_limit: float | None  # closed-form infinite-run bound; None if growth = 0

    def field_bits_for_block(self, index: int) -> int:
        """Element width q of 1-based block index."""
        if index < 1:
            raise ValueError("block index is 1-based")
        return self.first_field_bits + (index - 1) * self.growth * self.bits_per_sample

    def output_bits_after(self, k: int) -> int:
        """Total output bits after k blocks: k*q1 + (k-1)*k*growth*b/2."""
        if k < 0:
            raise ValueError("block count must be >= 0")
        return k * self.first_field_bits + (k - 1) * k * self.growth * self.bits_per_sample // 2


def _vec_len(entropy_rate: Fraction) -> int:
    """Samples-per-element count: ceil(24 / (2*rate - 1)), exact."""
    return math.ceil(Fraction(24) / (2 * entropy_rate - 1))


def _validate_rate(entropy_rate: Fraction) -> None:
    if entropy_rate <= Fraction(1, 2):
        raise UnsupportedRateError(
            f"min-entropy rate {entropy_rate} <= 1/2; extraction requires rate > 1/2"
        )
    if entropy_rate > 1:
        raise ValueError(f"min-entropy rate {entropy_rate} exceeds 1")


def _validate_sample_bits(bits_per_sample: int) -> None:
    if not 1 <= bits_per_sample <= MAX_SAMPLE_BITS:
        raise ValueError(f"bits per sample must be in 1..{MAX_SAMPLE_BITS}")


def plan_eq(bits_per_sample: int, num_samples: int, entropy_rate, epsilon) -> EqPlan:
    """Derive the equal-block plan for two (b, N, rate)-block sources.

    The element width is the smallest multiple of b with
    2^q >= N / (epsilon * n) whose summed per-block bound is at most
    epsilon (rarely more than the first condition alone asks), so the
    returned plan always satisfies log2_error <= log2(epsilon).
    """
    entropy_rate = as_rational(entropy_rate, "entropy_rate")
    epsilon = as_rational(epsilon, "epsilon")
    _validate_rate(entropy_rate)
    _validate_sample_bits(bits_per_sample)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    if num_samples < 1:
        raise ValueError("sample count must be positive")

    n = _vec_len(entropy_rate)
    b = bits_per_sample
    threshold = Fraction(num_samples) / (epsilon * n)  # need 2^q >= this
    log2_eps = log2_fraction(epsilon)
    q = b
    while q <= MAX_FIELD_BITS:
        if (1 << q) >= threshold:
            num_blocks = num_samples * b // (q * n)
            log2_error = _sum_log2_error(num_blocks, n, q, entropy_rate)
            if log2_error <= log2_eps:
                break
        q += b
    else:
        raise CapacityError(
            f"derived field width {q} exceeds the {MAX_FIELD_BITS}-bit implementation cap"
        )
    return EqPlan(
        bits_per_sample=b,
        num_samples=num_samples,
        entropy_rate=entropy_rate,
        epsilon=epsilon,
        vec_len=n,
        field_bits=q,
        num_blocks=num_blocks,
        output_bits=num_blocks * q,
        log2_error=log2_error,
    )


def plan_neq(
    bits_per_sample: int,
    entropy_rate,
    first_field_bits: int | None = None,
    growth: int = 1,
    epsilon=None,
) -> NeqPlan:
    """Derive an incremental-block plan.

    With first_field_bits unset, the smallest starting width whose
    infinite-run closed-form bound meets epsilon is chosen (growth >= 1
    required: the infinite error series converges only with growing blocks).
    growth = 0 is allowed with an explicit starting width; such plans carry
    no infinite-run guarantee and reproduce the equal-block extractor.
    """
    entropy_rate = as_rational(entropy_rate, "entropy_rate")
    _validate_rate(entropy_rate)
    _validate_sample_bits(bits_per_sample)
    if growth < 0:
        raise ValueError("growth must be >= 0")
    b = bits_per_sample
    n = _vec_len(entropy_rate)

    if first_field_bits is None:
        if epsilon is None:
            raise ValueError("need first_field_bits or epsilon")
        if growth < 1:
            raise DivergenceError("infinite-run planning requires growth >= 1")
        epsilon = as_rational(epsilon, "epsilon")
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
        log2_eps = log2_fraction(epsilon)
        q1 = b
        while _closed_form_limit(q1, growth * b) > log2_eps:
            q1 += b
            if q1 > MAX_FIELD_BITS:
                raise CapacityError(
                    f"starting width needed for epsilon={epsilon} exceeds "
                    f"the {MAX_FIELD_BITS}-bit cap"
                )
    else:
        q1 = first_field_bits
        if q1 < 1 or q1 % b != 0:
            raise ValueError(f"starting width {q1} must be a positive multiple of b={b}")
        if q1 > MAX_FIELD_BITS:
            raise CapacityError(
                f"starting width {q1} exceeds the {MAX_FIELD_BITS}-bit implementation cap"
            )

    limit = _closed_form_limit(q1, growth * b) if growth >= 1 else None
    return NeqPlan(
        bits_per_sample=b,
        entropy_rate=entropy_rate,
        vec_len=n,
        first_field_bits=q1,
        growth=growth,
        log2_error_limit=limit,
    )


# ---------- error bounds (log2 domain) ----------

def error_bound_block(vec_len: int, field_bits: int, entropy_rate) -> float:
    """log2 bound on one block's distance from uniform.

    Evaluates log2(sqrt(3)) - 1/4 - (rate/4 - 1/8) * q * n + 2 * q in double
    precision with a fixed evaluation order.
    """
    coeff = _rate_coefficient(vec_len, field_bits, entropy_rate)
    return _block_log2(coeff, vec_len, field_bits)


def _rate_coefficient(vec_len: int, field_bits: int, entropy_rate) -> float:
    """float(rate/4 - 1/8) of :func:`error_bound_block`, once its arguments are checked."""
    entropy_rate = as_rational(entropy_rate, "entropy_rate")
    if vec_len < 1 or field_bits < 1:
        raise ValueError("vec_len and field_bits must be >= 1")
    if not Fraction(1, 2) < entropy_rate <= 1:
        raise ValueError(f"entropy rate {entropy_rate} outside (1/2, 1]")
    return float(entropy_rate / 4 - Fraction(1, 8))


def _block_log2(coeff: float, vec_len: int, field_bits: int) -> float:
    return LOG2_SQRT3 - 0.25 - coeff * (field_bits * vec_len) + 2.0 * field_bits


def _sum_log2_error(num_blocks: int, n: int, q: int, rate: Fraction) -> float:
    if num_blocks == 0:
        return float("-inf")
    return _log2_int(num_blocks) + error_bound_block(n, q, rate)


def error_bound_eq(plan: EqPlan, blocks: int | None = None) -> float:
    """log2 bound on the total distance of an equal-block run: blocks * per-block.

    `blocks` defaults to the plan's full block count; pass the completed
    count to bound a truncated run.
    """
    if blocks is None:
        blocks = plan.num_blocks
    if blocks < 0:
        raise ValueError("block count must be >= 0")
    return _sum_log2_error(blocks, plan.vec_len, plan.field_bits, plan.entropy_rate)


def _closed_form_limit(q1: int, width_step_bits: int) -> float:
    """log2 of sqrt(3) * 2^(-1/4 - q1) / (1 - 2^-step): the geometric tail limit."""
    if width_step_bits < 1:
        raise DivergenceError("error series converges only for growth >= 1")
    # Any step above 1074 already gives 0.0; the cap keeps a huge step a float.
    return LOG2_SQRT3 - 0.25 - q1 - math.log2(1.0 - 2.0 ** -min(width_step_bits, 1100))


def error_bound_neq(plan: NeqPlan, k: int | None = None) -> float:
    """log2 bound on the distance after k blocks; k=None means the infinite run.

    Finite k sums the per-block bounds in log2 domain (ascending block order,
    base-2 log-sum-exp anchored at the first and largest term); with
    growth 0 the k terms are equal, so that sum is exactly k times the first.
    The infinite run uses the closed-form geometric limit and requires
    growth >= 1.
    """
    if k is None:
        if plan.growth < 1:
            raise DivergenceError(
                "growth = 0 repeats one block width forever; the error series diverges"
            )
        return _closed_form_limit(plan.first_field_bits, plan.growth * plan.bits_per_sample)
    if k < 1:
        raise ValueError("block count must be >= 1")
    if plan.growth == 0:
        return _sum_log2_error(k, plan.vec_len, plan.first_field_bits, plan.entropy_rate)
    # One rate coefficient, then the same float expression for every block.
    coeff = _rate_coefficient(plan.vec_len, plan.first_field_bits, plan.entropy_rate)
    terms = [_block_log2(coeff, plan.vec_len, plan.field_bits_for_block(i))
             for i in range(1, k + 1)]
    anchor = terms[0]
    acc = 0.0
    for t in terms:
        acc += 2.0 ** (t - anchor)
    return anchor + math.log2(acc)


def extraction_rate(plan: EqPlan | NeqPlan) -> tuple[float, float]:
    """Fraction of source min-entropy recovered per block.

    Returns the exact value 1 / (2 * rate * n) alongside the headline
    approximation (2*rate - 1) / (48 * rate); they differ only by the
    ceiling slack in n.
    """
    rate = plan.entropy_rate
    exact = Fraction(1) / (2 * rate * plan.vec_len)
    approx = (2 * rate - 1) / (48 * rate)
    return float(exact), float(approx)


__all__ = [
    "EqPlan",
    "NeqPlan",
    "LOG2_SQRT3",
    "MAX_SAMPLE_BITS",
    "as_rational",
    "error_bound_block",
    "error_bound_eq",
    "error_bound_neq",
    "extraction_rate",
    "log2_fraction",
    "parse_count",
    "parse_probability",
    "plan_eq",
    "plan_neq",
]
