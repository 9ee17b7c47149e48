"""Per-layer timings: calls into the public functions of one module at a time.

Each function returns {metric name: (value, unit)}.  Inputs come from the
same seeded P(1)=0.6278 sources as the workloads, so operand bit density
matches raw-source data.  Timings are medians over REPEATS repetitions.
Run in-process by `run.py --trace 1`; blockext must be importable.
"""

from __future__ import annotations

import io
import statistics
import time
from fractions import Fraction

from reference import source_bytes

from blockext import bitio, extractor, gf2q, params, verify

RATE = Fraction("10.74") / 16
N = 71
REPEATS = 3


def _median_s(fn, repeats=REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _elements(seed: int, stream: int, q: int, count: int) -> list[int]:
    data = int.from_bytes(source_bytes(seed, stream, (q * count + 7) // 8), "little")
    mask = (1 << q) - 1
    return [(data >> (i * q)) & mask for i in range(count)]


def bitio_layer(seed: int, smoke: bool) -> dict:
    out = {}
    for q, kib in ((32, 128), (80, 256)):
        data = source_bytes(seed, 100 + q, (4 if smoke else kib) * 1024)
        blocks = len(data) * 8 // (q * N)

        def read_all():
            r = bitio.BitReader(io.BytesIO(data))
            while r.read_bits(q * N) is not None:
                pass

        out[f"bitio.read_us_per_block.q{q}"] = (_median_s(read_all) / blocks * 1e6, "us")
    writes = 100 if smoke else 2000
    values = _elements(seed, 110, 32, writes)
    for label, prefill in (("10k", 10_000), ("160k", 160_000)):
        if smoke:
            prefill //= 100
        fill = int.from_bytes(source_bytes(seed, 111, 4 * prefill), "little")
        times = []
        for _ in range(REPEATS):
            w = bitio.BitWriter()
            w.write_bits(fill, 32 * prefill)  # the state after `prefill` 32-bit chunks
            t = time.perf_counter()
            for v in values:
                w.write_bits(v, 32)
            times.append(time.perf_counter() - t)
        out[f"bitio.write_us_per_chunk.{label}"] = (statistics.median(times) / writes * 1e6, "us")
    return out


def gf2q_layer(seed: int, smoke: bool) -> dict:
    out = {}
    count = 200 if smoke else 5000
    for q in (32, 80):
        mul = gf2q.field(q).mul
        pairs = list(zip(_elements(seed, 120 + q, q, count), _elements(seed, 121 + q, q, count)))

        def mul_all():
            for a, b in pairs:
                mul(a, b)

        out[f"gf2q.mul_ns.q{q}"] = (_median_s(mul_all) / count * 1e9, "ns")
    widths = range(120 if smoke else 32, gf2q.MAX_FIELD_BITS + 1)

    def build_all():
        for w in widths:
            gf2q.GFContext(w)  # uncached, unlike blockext.field

    out["gf2q.context_ms.w32_128"] = (_median_s(build_all) * 1e3, "ms")
    return out


def _eq_plan(q: int):
    if q == 32:
        return params.plan_eq(16, 2**16, RATE, Fraction(1, 2**20))
    return params.plan_eq(16, 2**47, RATE, Fraction(1, 2**30))


def extractor_layer(seed: int, smoke: bool) -> dict:
    out = {}
    vectors = 3 if smoke else 30
    for q in (32, 80):
        ctx = gf2q.field(q)
        vecs = [(_elements(seed, 130 + 2 * i, q, N), _elements(seed, 131 + 2 * i, q, N))
                for i in range(vectors)]

        def ip_all():
            for xs, ys in vecs:
                extractor.ext_ip(ctx, xs, ys)

        out[f"extractor.ext_ip_us.q{q}"] = (_median_s(ip_all) / vectors * 1e6, "us")

    neq_plan = params.plan_neq(1, RATE, first_field_bits=112 if smoke else 32, growth=1)
    for w in range(neq_plan.first_field_bits, gf2q.MAX_FIELD_BITS + 1):
        gf2q.field(w)  # contexts warm: this measures blocks, not set-up
    cases = (
        ("q32.w1", _eq_plan(32), 1, 128),
        ("q80.w1", _eq_plan(80), 1, 128),
        ("q80.w2", _eq_plan(80), 2, 128),
        ("neq", neq_plan, 1, 72),
    )
    for label, plan, workers, kib in cases:
        x = source_bytes(seed, 140, (8 if smoke else kib) * 1024)
        y = source_bytes(seed, 141, len(x))
        extract = extractor.extract_eq if isinstance(plan, params.EqPlan) else extractor.extract_neq
        blocks = []

        def run_once():
            run = extract(io.BytesIO(x), io.BytesIO(y), plan, workers=workers)
            blocks.append(run.run().blocks_completed)

        out[f"extractor.block_us.{label}"] = (_median_s(run_once) / blocks[-1] * 1e6, "us")
    return out


def params_layer(seed: int, smoke: bool) -> dict:
    calls = 20 if smoke else 200
    neq_plan = params.plan_neq(1, RATE, first_field_bits=32, growth=1)

    def plan_all():
        for _ in range(calls):
            params.plan_eq(16, 2**47, RATE, Fraction(1, 2**30))

    def bound_all():
        for _ in range(calls):
            params.error_bound_neq(neq_plan, 97)

    return {
        "params.plan_us.eq": (_median_s(plan_all) / calls * 1e6, "us"),
        "params.error_bound_neq_us.k97": (_median_s(bound_all) / calls * 1e6, "us"),
    }


def verify_layer(seed: int, smoke: bool) -> dict:
    # t = q*n is the enumerated input size; full sizes are the largest the
    # `oracles` workload runs, smoke sizes keep a test run short.
    bias_q, bias_n = (3, 2) if smoke else (5, 2)
    t = bias_q * bias_n
    counts_q, direct = (8, (2, 2)) if smoke else (13, (4, 2))
    ctx = gf2q.field(bias_q)
    return {
        "verify.bias_s.k_t-1": (_median_s(
            lambda: verify.check_one_bit_bias(ctx, bias_n, t - 1, seed=0), 1), "s"),
        "verify.bias_s.k_3t4": (_median_s(
            lambda: verify.check_one_bit_bias(ctx, bias_n, 3 * t // 4, seed=0), 1), "s"),
        "verify.hadamard_s.counts_t13": (_median_s(
            lambda: verify.check_hadamard(gf2q.field(counts_q), 1, method="counts"), 1), "s"),
        "verify.hadamard_s.direct_t8": (_median_s(
            lambda: verify.check_hadamard(gf2q.field(direct[0]), direct[1], method="direct"), 1),
            "s"),
    }


LAYERS = (bitio_layer, gf2q_layer, extractor_layer, params_layer, verify_layer)


def measure_layers(seed: int, smoke: bool) -> dict:
    out = {}
    for layer in LAYERS:
        out.update(layer(seed, smoke))
    return out
