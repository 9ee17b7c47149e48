"""Cost models for hardware mapping, and software throughput measurement.

The gate-count model prices one inner-product block in single-bit XOR/AND
operations: q per field addition and a caller-supplied budget per field
multiplication (a multiplier circuit budget is a synthesis fact, not
derivable from this package's software multiplier).  The FPGA projection
assumes a fully pipelined lane finishes one block per clock cycle; lanes
are whatever fits the device's LUT budget.

Software throughput is measured on one extraction over endless in-memory
input, so storage I/O and per-run set-up never dominate; the first 10% of
the requested duration is warm-up and excluded from the rate.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .extractor import extract_neq
from .params import EqPlan, plan_neq

DEFAULT_MUL_OPS_Q80 = 4885  # published circuit budget for one 80-bit multiply
# Shortest measured window whose rate measure_throughput trusts; timer
# resolution and the chunks of a batch arriving together make shorter
# windows noisy.
MIN_STEADY_S = 0.1


@dataclass(frozen=True)
class GateCostModel:
    """Bit-operation budget of one inner-product block."""

    field_bits: int   # q
    vec_len: int      # n
    mul_ops: int      # XOR/AND budget of one field multiplication

    @property
    def block_ops(self) -> int:
        return gate_count(self.vec_len, self.field_bits, self.mul_ops)


@dataclass(frozen=True)
class FpgaModel:
    """Device budget: clock rate, LUT count, parallel bit-ops per LUT."""

    clock_hz: float
    lut_count: int
    ops_per_lut: int

    def __post_init__(self):
        if not 0 < self.clock_hz < math.inf:
            raise ValueError(f"clock rate must be positive and finite, got {self.clock_hz}")
        if self.lut_count < 1 or self.ops_per_lut < 1:
            raise ValueError("lut_count and ops_per_lut must be >= 1")

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
    if vec_len < 1 or field_bits < 1 or mul_ops < 1:
        raise ValueError("vec_len, field_bits and mul_ops must be >= 1")
    return field_bits * (vec_len - 1) + mul_ops * vec_len


def projected_speed(model: FpgaModel, cost: GateCostModel) -> SpeedProjection:
    """Output bit rate with as many block lanes as the device fits.

    One lane emits q bits per clock cycle (full pipelining assumed).  A
    block too large for the device yields zero lanes; callers treat that as
    an error condition.  A rate beyond the float range raises ValueError.
    """
    lanes = model.parallel_blocks(cost.block_ops)
    rate = Fraction(model.clock_hz) * lanes * cost.field_bits
    if rate > sys.float_info.max:
        raise ValueError("projected rate overflows a float; the device budget is too large")
    return SpeedProjection(lanes, float(rate))


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


@dataclass(frozen=True)
class _Endless:
    """A stream that never ends: every read returns `data`."""

    data: bytes

    def read(self, size: int) -> bytes:
        return self.data


class _WindowEnd(Exception):
    """Raised by a `_WindowSink` to end its run."""


class _WindowSink:
    """Counts the bytes written after `warm_end`, and ends the run `span` seconds later."""

    def __init__(self, warm_end: float, span: float):
        self.warm_end, self.span = warm_end, span
        self.start = self.elapsed = None
        self.bytes = 0

    def write(self, data: bytes) -> int:
        now = time.perf_counter()
        if self.start is None:
            if now >= self.warm_end:
                self.start = now
        else:
            self.bytes += len(data)
            if now >= self.start + self.span:
                self.elapsed = now - self.start
                raise _WindowEnd
        return len(data)


def measure_throughput(
    plan: EqPlan,
    duration_s: float = 2.0,
    *,
    mul_ops: int | None = None,
    seed: int = 0,
) -> ThroughputReport:
    """Steady-state software output rate of one extraction at the plan's block shape.

    Runs one extraction over endless in-memory input (both sources return
    the same 64 pre-generated blocks on every read) for about `duration_s`
    seconds, through `Extraction.run` as the extract commands do, and
    reports the rate at which it writes packed output into a counting sink
    after a 10% warm-up, with a warning when the measured window lasts
    under MIN_STEADY_S seconds.  The window spans whole writes, one per
    batch; its blocks are its bits floor-divided by q.  The matching
    gate-model cost is included so measured software rates can sit next to
    the hardware projection they approximate.
    """
    if not 0 < duration_s < float("inf"):
        raise ValueError("duration must be positive and finite")
    cost = gate_count(plan.vec_len, plan.field_bits, mul_ops) if mul_ops is not None else None
    rng = np.random.default_rng(seed)
    x, y = (_Endless(rng.bytes(plan.block_bits * 8)) for _ in range(2))   # 64 blocks each
    # Growth 0 gives the bytes of extract_eq, with no planned end.
    endless = plan_neq(plan.bits_per_sample, plan.entropy_rate, plan.field_bits, growth=0)
    sink = _WindowSink(time.perf_counter() + 0.1 * duration_s, 0.9 * duration_s)
    with contextlib.suppress(_WindowEnd):
        extract_neq(x, y, endless).run(sink)
    elapsed = sink.elapsed
    blocks = sink.bytes * 8 // plan.field_bits
    out_bits = blocks * plan.field_bits

    warnings = []
    if elapsed < MIN_STEADY_S:
        warnings.append(
            f"measured window {elapsed:.3f} s is under {MIN_STEADY_S} s; "
            "duration too short for steady state"
        )
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
