"""Planner and error-bound tests; expected values frozen from exact evaluation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from blockext.errors import CapacityError, DivergenceError, UnsupportedRateError
from blockext.params import (
    EqPlan,
    LOG2_SQRT3,
    as_rational,
    error_bound_block,
    error_bound_eq,
    error_bound_neq,
    extraction_rate,
    log2_fraction,
    parse_count,
    parse_probability,
    plan_eq,
    plan_neq,
)
from blockext.report import plan_from_text, plan_to_text

FLAGSHIP_RATE = Fraction(1074, 1600)  # 10.74 entropy bits per 16-bit sample


def test_plan_eq_flagship_samples_reading():
    plan = plan_eq(16, 2**47, FLAGSHIP_RATE, Fraction(1, 2**30))
    assert plan.vec_len == 71
    assert plan.field_bits == 80
    assert plan.num_blocks == 2**51 // (80 * 71) == 396443629169
    assert plan.output_bits == plan.num_blocks * 80
    assert plan.log2_error <= -30
    assert plan.log2_error == pytest.approx(-44.104193964034880, abs=1e-9)


def test_plan_eq_flagship_bit_count_reading():
    # Interpreting the raw-data length 2^51 as bits gives the same (n, q).
    plan = plan_eq(16, 2**51 // 16, "10.74/16", "2^-30")
    assert (plan.vec_len, plan.field_bits) == (71, 80)


def test_vec_len_formula_examples():
    assert plan_neq(1, Fraction(3, 4), 1, 0).vec_len == 48
    assert plan_neq(1, 1, 1, 0).vec_len == 24
    assert plan_eq(16, 2**20, FLAGSHIP_RATE, "2^-10").vec_len == 71


def test_rate_boundaries():
    with pytest.raises(UnsupportedRateError):
        plan_eq(16, 2**40, Fraction(1, 2), "2^-30")
    with pytest.raises(UnsupportedRateError):
        plan_neq(16, Fraction(2, 5), 16, 1)
    with pytest.raises(ValueError):
        plan_eq(16, 2**40, Fraction(3, 2), "2^-30")


def test_capacity_errors():
    with pytest.raises(CapacityError):
        plan_eq(1, 2**200, "0.51", Fraction(1, 2**300))
    with pytest.raises(CapacityError):
        plan_neq(16, "3/4", first_field_bits=144)


def test_width_search_stops_at_the_first_width_past_the_cap():
    # 2^100000 samples would need a width near 100032 bits; the search
    # stops at the first multiple of b past the 128-bit cap and names it.
    with pytest.raises(CapacityError, match="derived field width 144 "):
        plan_eq(16, 2**100_000, "10.74/16", "2^-30")


def test_float_rate_rejected():
    with pytest.raises(TypeError):
        plan_eq(16, 2**40, 0.67125, "2^-30")


def test_error_bound_block_flagship():
    # log2(sqrt 3) - 1/4 - (rate/4 - 1/8)*5680 + 160, evaluated exactly:
    # the rational part is -243.175 + 159.75 exactly.
    got = error_bound_block(71, 80, FLAGSHIP_RATE)
    assert got == pytest.approx(-82.632518749639422, abs=1e-9)


def test_error_bound_block_degenerate_rate_rejected():
    with pytest.raises(ValueError):
        error_bound_block(71, 80, Fraction(1, 2))


def test_error_bound_block_dominated_by_minus_q():
    # With n >= 24/(2*rate - 1), the exponent is at most log2(sqrt3) - 1/4 - q.
    import random

    rnd = random.Random(9)
    for _ in range(300):
        rate = Fraction(rnd.randint(51, 100), 100)
        n_min = math.ceil(Fraction(24) / (2 * rate - 1))
        n = n_min + rnd.randint(0, 30)
        q = rnd.randint(1, 128)
        assert error_bound_block(n, q, rate) <= LOG2_SQRT3 - 0.25 - q + 1e-9


def test_error_bound_eq_single_block_and_doubling():
    plan1 = plan_eq(1, 384, Fraction(3, 4), Fraction(1, 4))
    assert plan1.num_blocks >= 1
    one = EqPlan(**{**plan1.__dict__, "num_blocks": 1, "output_bits": plan1.field_bits})
    assert error_bound_eq(one) == error_bound_block(plan1.vec_len, plan1.field_bits,
                                                    plan1.entropy_rate)
    doubled = EqPlan(**{**plan1.__dict__, "num_blocks": 2 * plan1.num_blocks})
    assert error_bound_eq(doubled) - error_bound_eq(plan1) == pytest.approx(1.0, abs=1e-12)


def test_error_bound_eq_zero_blocks_is_minus_inf():
    plan = plan_eq(16, 4, FLAGSHIP_RATE, "2^-4")   # far too little data for a block
    assert plan.num_blocks == 0
    assert plan.log2_error == float("-inf")


def test_error_bound_neq_closed_form_value():
    plan = plan_neq(16, FLAGSHIP_RATE, 64, 1)
    assert error_bound_neq(plan, None) == pytest.approx(-63.457496735692158, abs=1e-9)
    assert plan.log2_error_limit == error_bound_neq(plan, None)


def test_error_bound_neq_finite_properties():
    plan = plan_neq(16, Fraction(3, 4), 16, 1)
    closed = error_bound_neq(plan, None)
    assert error_bound_neq(plan, 1) == error_bound_block(48, 16, Fraction(3, 4))
    prev = float("-inf")
    for k in range(1, 80):
        val = error_bound_neq(plan, k)
        assert val >= prev
        assert val <= closed + 1e-9
        prev = val
    assert abs(error_bound_neq(plan, 60) - closed) < 0.01


def _error_bound_neq_loop(plan, k):
    """Reference: the log2-domain sum of the k per-block bounds, term by term."""
    terms = [error_bound_block(plan.vec_len, plan.field_bits_for_block(i), plan.entropy_rate)
             for i in range(1, k + 1)]
    acc = 0.0
    for t in terms:
        acc += 2.0 ** (t - terms[0])
    return terms[0] + math.log2(acc)


@pytest.mark.parametrize("growth", [0, 1, 3])
def test_error_bound_neq_matches_the_term_loop(growth):
    plan = plan_neq(16, Fraction(3, 4), 16, growth)
    eq = plan_eq(16, 3072, Fraction(3, 4), "2^-8")  # the blocks of growth 0: q=16, n=48
    assert (eq.field_bits, eq.vec_len) == (16, plan.vec_len)
    for k in (1, 2, 3, 7, 64, 97, 1000, 4321):
        assert error_bound_neq(plan, k) == _error_bound_neq_loop(plan, k), k
        if growth == 0:
            assert error_bound_neq(plan, k) == error_bound_eq(eq, k), k


def test_error_bound_neq_divergence():
    plan = plan_neq(16, Fraction(3, 4), 16, 0)
    assert plan.log2_error_limit is None
    with pytest.raises(DivergenceError):
        error_bound_neq(plan, None)
    assert error_bound_neq(plan, 5) > error_bound_neq(plan, 1)


def test_plan_neq_takes_a_growth_too_large_for_a_float():
    # Every width step above 1074 bits gives the same float limit.
    huge = plan_neq(8, "3/4", 8, 10**400)
    assert huge.log2_error_limit == plan_neq(8, "3/4", 8, 2000).log2_error_limit


def test_plan_neq_auto_width():
    plan = plan_neq(16, FLAGSHIP_RATE, epsilon="2^-40")
    assert plan.first_field_bits % 16 == 0
    assert plan.log2_error_limit <= log2_fraction(Fraction(1, 2**40))
    tighter = plan_neq(16, FLAGSHIP_RATE, plan.first_field_bits - 16, 1)
    assert tighter.log2_error_limit > log2_fraction(Fraction(1, 2**40))
    with pytest.raises(ValueError):
        plan_neq(16, FLAGSHIP_RATE, first_field_bits=20)  # not a multiple of b


def test_extraction_rate_flagship():
    plan = plan_eq(16, 2**47, FLAGSHIP_RATE, "2^-30")
    exact, approx = extraction_rate(plan)
    assert exact == pytest.approx(float(Fraction(400, 38127)), abs=1e-15)
    assert approx == pytest.approx(float(Fraction(137, 12888)), abs=1e-15)
    exact_lim, approx_lim = extraction_rate(plan_neq(1, 1, 1, 0))
    assert exact_lim == pytest.approx(1 / 48)
    assert approx_lim == pytest.approx(1 / 48)


@given(st.data())
def test_plan_eq_invariants(data):
    b = data.draw(st.integers(1, 8))
    rate = Fraction(data.draw(st.integers(51, 100)), 100)
    eps = Fraction(1, 1 << data.draw(st.integers(1, 40)))
    samples = data.draw(st.integers(1, 1 << 24))
    try:
        plan = plan_eq(b, samples, rate, eps)
    except CapacityError:
        return
    assert plan.field_bits % b == 0
    # the defining ceiling property of the derived width (a bump only widens)
    assert Fraction(1, 1 << plan.field_bits) <= eps * plan.vec_len / samples
    assert plan.log2_error <= log2_fraction(eps)
    assert plan.output_bits == plan.num_blocks * plan.field_bits


def test_plan_eq_bumps_width_at_bound_boundary():
    # At b=1, rate 1, N=24 the formula width is q=1 and the single block's
    # bound is sqrt(3)*2^(-5/4+2) ~ 0.728: epsilon below that forces a bump.
    bumped = plan_eq(1, 24, 1, Fraction(6, 10))
    assert bumped.field_bits == 2
    assert bumped.num_blocks == 0 and bumped.log2_error == float("-inf")
    plain = plan_eq(1, 24, 1, Fraction(75, 100))
    assert plain.field_bits == 1 and plain.num_blocks == 1
    assert 2.0 ** plain.log2_error == pytest.approx(0.7282376575, abs=1e-9)


def test_parse_helpers():
    assert parse_count("2^47") == 2**47
    assert parse_count(" 1000 ") == 1000
    assert parse_probability("2^-30") == Fraction(1, 2**30)
    assert as_rational("10.74/16") == FLAGSHIP_RATE
    assert as_rational("537/800") == FLAGSHIP_RATE
    assert as_rational("0.67125") == FLAGSHIP_RATE
    for bad in ("2^-1", "1.5", "0", "-3", "1/0", "x"):
        with pytest.raises(ValueError):
            parse_count(bad)
    with pytest.raises(ValueError):
        plan_eq(16, 2**30, "3/4", 1)


@pytest.mark.parametrize("text", ["2^-100000000", "1e1000000", "2^65536", "2^-65536",
                                  "1e-20000", "3^41400", "2^65535/2^-1"])
def test_as_rational_refuses_a_value_wider_than_2_16_bits(text):
    # The exponent is judged before the power is computed: '2^-100000000'
    # and '1e1000000' once took 0.6 s and 0.2 s to build.
    with pytest.raises(ValueError, match="wider than 2\\^16 bits"):
        as_rational(text)


def test_as_rational_accepts_values_up_to_2_16_bits():
    assert as_rational("2^65535") == 2**65535
    assert as_rational("1e19000") == 10**19000
    assert as_rational("1^100000000000") == 1


def test_plan_serialization_round_trip():
    eq = plan_eq(16, 2**30, FLAGSHIP_RATE, "2^-20")
    assert plan_from_text(plan_to_text(eq)) == eq
    neq = plan_neq(8, "3/4", 16, 2)
    assert plan_from_text(plan_to_text(neq)) == neq
    neq0 = plan_neq(8, "3/4", 16, 0)
    assert plan_from_text(plan_to_text(neq0)) == neq0
