"""Cost models for hardware mapping, and software throughput measurement.

The gate-count model prices one inner-product block in single-bit XOR/AND
operations: q per field addition and a caller-supplied budget per field
multiplication (a multiplier circuit budget is a synthesis fact, not
derivable from this package's software multiplier).  The FPGA projection
assumes a fully pipelined lane finishes one block per clock cycle; lanes
are whatever fits the device's LUT budget.

Software throughput is measured on in-memory buffers so storage I/O never
dominates, with a warm-up window of 10% of the requested duration excluded
from the sustained rate.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .extractor import extract_eq
from .params import EqPlan

DEFAULT_MUL_OPS_Q80 = 4885  # published circuit budget for one 80-bit multiply
# Shortest measured window whose rate measure_throughput trusts; timer
# resolution and per-pass set-up make shorter windows noisy even when they
# hold several passes.
MIN_STEADY_S = 0.1


@dataclass(frozen=True)
class GateCostModel:
    """Bit-operation budget of one inner-product block."""

    field_bits: int   # q
    vec_len: int      # n
    mul_ops: int      # XOR/AND budget of one field multiplication

    @property
    def add_ops(self) -> int:
        return self.field_bits

    @property
    def block_ops(self) -> int:
        return gate_count(self.vec_len, self.field_bits, self.mul_ops)


@dataclass(frozen=True)
class FpgaModel:
    """Device budget: clock rate, LUT count, parallel bit-ops per LUT."""

    clock_hz: float
    lut_count: int
    ops_per_lut: int

    def parallel_blocks(self, block_ops: int) -> int:
        return int(self.lut_count * self.ops_per_lut) // block_ops


@dataclass(frozen=True)
class SpeedProjection:
    lanes: int
    bits_per_second: float

    @property
    def feasible(self) -> bool:
        return self.lanes >= 1


def gate_count(vec_len: int, field_bits: int, mul_ops: int) -> int:
    """Single-bit ops per block: q*(n-1) additions plus n multiplications."""
    if vec_len < 1 or field_bits < 1:
        raise ValueError("vec_len and field_bits must be >= 1")
    return field_bits * (vec_len - 1) + mul_ops * vec_len


def projected_speed(model: FpgaModel, cost: GateCostModel) -> SpeedProjection:
    """Output bit rate with as many block lanes as the device fits.

    One lane emits q bits per clock cycle (full pipelining assumed).  A
    block too large for the device yields zero lanes; callers treat that as
    an error condition.
    """
    lanes = model.parallel_blocks(cost.block_ops)
    return SpeedProjection(lanes, model.clock_hz * lanes * cost.field_bits)


@dataclass
class ThroughputReport:
    plan: EqPlan
    duration_s: float       # measured window, warm-up excluded
    blocks: int
    input_bits_per_source: int
    output_bits: int
    output_bits_per_second: float
    model_block_ops: int | None = None
    warnings: list[str] = dc_field(default_factory=list)


def measure_throughput(
    plan: EqPlan,
    duration_s: float = 2.0,
    *,
    mul_ops: int | None = None,
    seed: int = 0,
) -> ThroughputReport:
    """Sustained software output rate of the equal-block extractor.

    Pre-generates pseudorandom in-memory input, runs repeated passes for
    roughly `duration_s` seconds of wall time after a 10% warm-up, and
    reports the sustained output bit rate, with a warning when the measured
    window holds fewer than 3 passes or lasts under MIN_STEADY_S seconds.
    The matching gate-model cost is included so measured software rates can
    sit next to the hardware projection they approximate.
    """
    if not 0 < duration_s < float("inf"):
        raise ValueError("duration must be positive and finite")
    rng = np.random.default_rng(seed)
    # Enough input for ~64 blocks per pass keeps per-pass overhead small.
    blocks_per_pass = min(plan.num_blocks, 64) or 1
    nbytes = (plan.block_bits * blocks_per_pass + 7) // 8
    x_buf = rng.bytes(nbytes)
    y_buf = rng.bytes(nbytes)

    def one_pass() -> tuple[int, int]:
        report = extract_eq(io.BytesIO(x_buf), io.BytesIO(y_buf), plan,
                            max_blocks=blocks_per_pass).run()
        return report.blocks_completed, report.output_bits

    warm_deadline = time.perf_counter() + 0.1 * duration_s
    while time.perf_counter() < warm_deadline:
        one_pass()

    blocks = 0
    out_bits = 0
    start = time.perf_counter()
    deadline = start + 0.9 * duration_s
    passes = 0
    while time.perf_counter() < deadline or passes == 0:
        b, o = one_pass()
        blocks += b
        out_bits += o
        passes += 1
    elapsed = time.perf_counter() - start

    warnings = []
    if passes < 3:
        warnings.append(
            f"only {passes} measurement passes; duration too short for steady state"
        )
    elif elapsed < MIN_STEADY_S:
        warnings.append(
            f"measured window {elapsed:.3f} s is under {MIN_STEADY_S} s; "
            "duration too short for steady state"
        )
    cost = gate_count(plan.vec_len, plan.field_bits, mul_ops) if mul_ops else None
    return ThroughputReport(
        plan=plan,
        duration_s=elapsed,
        blocks=blocks,
        input_bits_per_source=blocks * plan.block_bits,
        output_bits=out_bits,
        output_bits_per_second=out_bits / elapsed,
        model_block_ops=cost,
        warnings=warnings,
    )


__all__ = [
    "DEFAULT_MUL_OPS_Q80",
    "FpgaModel",
    "GateCostModel",
    "SpeedProjection",
    "ThroughputReport",
    "gate_count",
    "measure_throughput",
    "projected_speed",
]
