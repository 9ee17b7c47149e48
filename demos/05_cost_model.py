#!/usr/bin/env python3
"""Hardware cost model and measured software throughput, side by side.

One block of the headline configuration (n=71 elements of 80 bits) costs
80 XORs per addition and a budgeted 4885 bit-ops per multiplication.  On a
device with 3x10^5 LUTs at 5 ops each and a 200 MHz clock, four such
blocks fit in parallel, projecting 64 Gbps of output.  That parallelism
is the hardware-lane model; the software path runs on one thread,
computing batches of equal-width blocks with numpy.  Below, for scale, is
the steady-state rate of one software run at the q=32 reference plan's
block shape over endless in-memory input.
"""

from blockext import (
    FpgaModel,
    GateCostModel,
    gate_count,
    measure_throughput,
    plan_eq,
    projected_speed,
)

cost = GateCostModel(field_bits=80, vec_len=71, mul_ops=4885)
print(f"ops per block: 80*(71-1) + 4885*71 = {cost.block_ops}")

device = FpgaModel(clock_hz=200e6, lut_count=300_000, ops_per_lut=5)
proj = projected_speed(device, cost)
print(f"device fits {proj.lanes} lanes -> "
      f"{proj.bits_per_second / 1e9:.0f} Gbps projected")

tiny = FpgaModel(clock_hz=200e6, lut_count=300_000, ops_per_lut=1)
print(f"with 1 op per LUT the block no longer fits: "
      f"{projected_speed(tiny, cost).lanes} lanes")

# Total logic work for a full run scales as blocks x block_ops.
plan = plan_eq(16, 2**47, "10.74/16", "2^-30")
total_ops = plan.num_blocks * gate_count(plan.vec_len, plan.field_bits, 4885)
print(f"whole-run logic model: {plan.num_blocks} blocks x {cost.block_ops} "
      f"= {total_ops:.3e} bit-ops")

print("\nsoftware steady-state rate of one run (q=32 plan, in-memory input, one thread):")
small = plan_eq(16, 2**16, "10.74/16", "2^-20")
rep = measure_throughput(small, duration_s=1.0, mul_ops=4885)
print(f"  {rep.output_bits_per_second / 1e3:.0f} kbit/s out "
      f"({rep.blocks} blocks in {rep.duration_s:.2f}s)"
      + (f"  [{'; '.join(rep.warnings)}]" if rep.warnings else ""))
