"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The hadamard sweep enumerates every feasible instance and the
one-bit bias sweep every q*n <= 12 instance; each takes a minute or more.
Both carry the `slow` marker but run in the default suite.

One criterion is knowingly red: the uniform-source clause of the distance
oracle demands a numerically-zero distance, but the exact distance of the
inner product on two fully uniform sources is 2^-(qn) * (1 - 2^-q) - the
all-zero input block forces output zero with probability 2^-(qn) - which
exceeds 2^-40 for every enumerable size.  The test asserts the clause as
stated and fails with that analysis; the bound clause of the same criterion
and the zero-free variants pass exactly.
"""

import io
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from blockext.bench import FpgaModel, GateCostModel, gate_count, projected_speed
from blockext.extractor import extract_eq, extract_neq
from blockext.gf2q import field
from blockext.params import (
    EqPlan,
    error_bound_neq,
    plan_eq,
    plan_neq,
)
from blockext.verify import (
    check_extractor_distance,
    check_hadamard,
    check_one_bit_bias,
    hadamard_instances,
)

FLAGSHIP_RATE = Fraction(1074, 1600)


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_parameter_reproduction():
    plan = plan_eq(16, 2**47, FLAGSHIP_RATE, Fraction(1, 2**30))
    assert plan.vec_len == 71
    assert plan.field_bits == 80
    timings = []
    for _ in range(10):
        t0 = time.perf_counter()
        plan_eq(16, 2**47, FLAGSHIP_RATE, Fraction(1, 2**30))
        timings.append(time.perf_counter() - t0)
    assert min(timings) < 1e-3, f"plan_eq took {min(timings) * 1e3:.3f} ms"
    _report("parameter reproduction (n=71, q=80, <1ms)")


def test_cost_model_reproduction():
    assert gate_count(71, 80, 4885) == 352435
    cost = GateCostModel(field_bits=80, vec_len=71, mul_ops=4885)
    device = FpgaModel(clock_hz=200e6, lut_count=3 * 10**5, ops_per_lut=5)
    proj = projected_speed(device, cost)
    assert proj.lanes == 4
    assert proj.bits_per_second == 64_000_000_000.0
    _report("cost model (352435 ops, 4 lanes, 64 Gbps)")


def test_output_length_formulas():
    rnd = random.Random(20250811)
    eq_cases = 0
    while eq_cases < 110:
        b = rnd.choice([1, 2, 4, 8, 16])
        vec_len = rnd.randint(1, 8)
        field_bits = rnd.randint(1, 24)
        samples = rnd.randint(1, 600)
        num_blocks = samples * b // (field_bits * vec_len)
        plan = EqPlan(b, samples, Fraction(3, 4), Fraction(1, 2), vec_len,
                      field_bits, num_blocks, num_blocks * field_bits, 0.0)
        nbytes = (samples * b + 7) // 8
        emitted = sum(c.width for c in
                      extract_eq(rnd.randbytes(nbytes), rnd.randbytes(nbytes), plan))
        assert emitted == num_blocks * field_bits
        eq_cases += 1

    neq_cases = 0
    while neq_cases < 110:
        b = rnd.choice([1, 2, 4])
        growth = rnd.randint(0, 3)
        q1 = b * rnd.randint(1, 4)
        k = rnd.randint(1, 7)
        plan = plan_neq(b, "3/4", q1, growth)
        if plan.field_bits_for_block(k) > 128:
            continue
        need_bits = sum(plan.field_bits_for_block(i) * plan.vec_len
                        for i in range(1, k + 1))
        blob_x = rnd.randbytes((need_bits + 7) // 8)
        blob_y = rnd.randbytes((need_bits + 7) // 8)
        emitted = sum(c.width for c in
                      extract_neq(blob_x, blob_y, plan, max_blocks=k))
        assert emitted == k * q1 + (k - 1) * k * growth * b // 2
        neq_cases += 1
    _report(f"output length formulas ({eq_cases} eq + {neq_cases} neq cases)")


@pytest.mark.slow
def test_hadamard_oracle_exhaustive():
    failures = [(q, n) for q, n in hadamard_instances(16)
                if not check_hadamard(field(q), n)]
    assert failures == []
    _report("hadamard oracle (all q*n <= 16, zero tolerance)")


def _distance_instances():
    rng = np.random.default_rng(77)
    for q, n in hadamard_instances(12):
        t = q * n
        size = 1 << t
        uniform = np.full(size, 1.0 / size)
        yield q, n, "uniform", uniform, uniform
        for k in sorted({t - 1, max(1, (3 * t) // 4)}):
            px = np.zeros(size)
            px[rng.choice(size, 1 << k, replace=False)] = 2.0 ** -k
            py = np.zeros(size)
            py[rng.choice(size, 1 << k, replace=False)] = 2.0 ** -k
            yield q, n, f"flat k={k}", px, py


def test_distance_oracle_bound():
    violations = []
    checked = 0
    for q, n, name, px, py in _distance_instances():
        rep = check_extractor_distance(field(q), n, px, py,
                                       description=f"q={q} n={n} {name}")
        checked += 1
        if not rep.holds:
            violations.append(rep)
    assert violations == []
    _report(f"distance oracle bound ({checked} instances, zero violations)")


def test_distance_oracle_uniform_sources_numerically_zero():
    worst = 0.0
    for q, n in hadamard_instances(12):
        size = 1 << (q * n)
        uniform = np.full(size, 1.0 / size)
        rep = check_extractor_distance(field(q), n, uniform, uniform)
        worst = max(worst, rep.distance)
        # exact mixture value, pinned: the all-zero block forces output 0
        assert rep.distance == pytest.approx(
            2.0 ** -(q * n) * (1 - 2.0 ** -q), abs=1e-13)
    if worst > 2.0 ** -40:
        print("ACCEPTANCE distance oracle uniform clause: FAIL "
              f"(exact distance reaches {worst:.6g})")
        pytest.fail(
            "uniform-source instances cannot be numerically zero: the exact "
            "output distribution of the inner product on two uniform sources "
            "is the mixture with the all-zero input block, at total variation "
            "distance 2^-(qn) * (1 - 2^-q) from uniform; over q*n <= 12 the "
            f"largest such distance is {worst:.6g} > 2^-40.  The bound clause "
            "of this criterion passes (see test_distance_oracle_bound); a "
            "zero distance needs the uniform side paired with a source that "
            "never emits the all-zero block "
            "(test_distance_zero_free_uniform_side_is_exact_zero)."
        )
    _report("distance oracle uniform clause")


@pytest.mark.slow
def test_one_bit_bias_bound():
    violations = []
    checked = 0
    for q, n in hadamard_instances(12):
        t = q * n
        for k in sorted({t, t - 1, max(1, (3 * t) // 4), max(1, t // 2)}):
            rep = check_one_bit_bias(field(q), n, k, seed=1000 + t)
            checked += 1
            if not rep.holds:
                violations.append((q, n, k, rep.max_bias, rep.bound))
    assert violations == []
    _report(f"one-bit bias (t <= 12, {checked} (q,n,k) instances, zero violations)")


def test_mode_equivalence_growth_zero():
    rnd = random.Random(424242)
    compared = 0
    while compared < 50:
        b = rnd.choice([1, 2, 4, 8, 16])
        eps = Fraction(1, 1 << rnd.randint(1, 12))
        samples = rnd.randint(100, 3000)
        plan = plan_eq(b, samples, "3/4", eps)
        if plan.num_blocks == 0:
            continue
        nbytes = (samples * b + 7) // 8
        xb, yb = rnd.randbytes(nbytes), rnd.randbytes(nbytes)
        eq_buf, neq_buf = io.BytesIO(), io.BytesIO()
        extract_eq(xb, yb, plan).run(eq_buf)
        nplan = plan_neq(b, "3/4", plan.field_bits, 0)
        extract_neq(xb, yb, nplan, max_blocks=plan.num_blocks).run(neq_buf)
        assert eq_buf.getvalue() == neq_buf.getvalue()
        assert len(eq_buf.getvalue()) > 0
        compared += 1
    _report(f"eq/neq equivalence at growth 0 ({compared} random inputs)")


def test_parallel_determinism():
    rnd = random.Random(31337)
    plan = plan_eq(8, 4000, "3/4", "2^-10")   # q=16, n=48: 1 block per 96 bytes
    blocks_target = 1200
    plan = EqPlan(**{**plan.__dict__,
                     "num_samples": blocks_target * plan.block_bits // 8,
                     "num_blocks": blocks_target,
                     "output_bits": blocks_target * plan.field_bits})
    nbytes = plan.num_samples
    xb, yb = rnd.randbytes(nbytes), rnd.randbytes(nbytes)
    outputs = {}
    for workers in (1, 2, 8):
        buf = io.BytesIO()
        report = extract_eq(xb, yb, plan, workers=workers).run(buf)
        assert report.blocks_completed >= 1000
        outputs[workers] = buf.getvalue()
    assert outputs[1] == outputs[2] == outputs[8]
    _report(f"parallel determinism ({report.blocks_completed} blocks, workers 1/2/8)")


def test_error_bound_convergence():
    checked = 0
    for rate, b in ((Fraction(3, 4), 8), (Fraction(3, 4), 16),
                    (Fraction(5, 8), 8), (Fraction(1), 16)):
        for growth in (1, 2):
            if growth * b < 8:
                continue
            plan = plan_neq(b, rate, b, growth)
            closed = error_bound_neq(plan, None)
            prev = float("-inf")
            for k in range(1, 61):
                val = error_bound_neq(plan, k)
                assert val >= prev - 1e-12
                prev = val
                if k >= 50:
                    assert abs(val - closed) <= 0.01
            checked += 1
    _report(f"error-bound convergence ({checked} (rate, step) settings)")


def test_field_correctness():
    # exhaustive axioms for q <= 3
    for q in (1, 2, 3):
        ctx = field(q)
        size = 1 << q
        for a in range(size):
            for b in range(size):
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                for c in range(size):
                    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                    assert ctx.mul(a, ctx.add(b, c)) == \
                        ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, 0) == a and ctx.mul(a, 1) == a and ctx.add(a, a) == 0

    # randomized axioms, >= 10^4 triples per q
    rnd = random.Random(1618)
    for q in (4, 8, 16, 80, 128):
        ctx = field(q)
        for _ in range(10_000):
            a, b, c = (rnd.getrandbits(q) for _ in range(3))
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, a) == 0

    # inverse existence, exhaustive for q <= 8
    for q in range(1, 9):
        ctx = field(q)
        for x in range(1, 1 << q):
            assert any(ctx.mul(x, y) == 1 for y in range(1, 1 << q))
    _report("field correctness (exhaustive q<=3, 10^4 triples q in {4,8,16,80,128}, "
            "inverses q<=8)")
