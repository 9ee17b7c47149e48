#!/usr/bin/env python3
"""End-to-end extraction: simulate two sources, run both extractors.

The two extractors differ only in how block widths evolve.  Equal blocks
need the input length up front (the width is logarithmic in it);
incremental blocks grow by a fixed number of samples each round and can
run forever.  With growth zero and matching widths they produce identical
bytes, demonstrated at the end.  Both run their blocks in order on the
calling thread.
"""

import io
from fractions import Fraction

from blockext import (
    certify_forward_block,
    extract_eq,
    extract_neq,
    generate,
    iid_table,
    plan_eq,
    plan_neq,
)

import numpy as np

# A simulated 8-bit source: one heavy outcome sets the min-entropy rate.
table = np.full(256, (1 - 0.02) / 255)
table[37] = 0.02
model_x = iid_table(table, 8, seed=101)
model_y = iid_table(table, 8, seed=202)
cert = certify_forward_block(model_x)
print(f"certified rate: {cert.rate:.4f} entropy bits per sample bit "
      f"(worst mass {cert.worst_guess_prob})")

samples = 50_000
x_bytes = generate(model_x, samples)
y_bytes = generate(model_y, samples)

plan = plan_eq(8, samples, Fraction(cert.rate).limit_denominator(10**9), "2^-20")
print(f"plan: n={plan.vec_len}, q={plan.field_bits}, "
      f"{plan.num_blocks} blocks, {plan.output_bits} output bits")

out = io.BytesIO()
report = extract_eq(x_bytes, y_bytes, plan).run(out)
print(f"extracted {report.output_bits} bits in {report.wall_time_s * 1e3:.1f} ms "
      f"({report.x_discarded_tail_bits} tail bits discarded per source)")
print(f"log2 error bound of the emitted output: {report.log2_error_bound:.2f}")

# Incremental mode on the same data: widths grow, no length needed.
nplan = plan_neq(8, plan.entropy_rate, 16, growth=1)
run = extract_neq(x_bytes, y_bytes, nplan)
widths = [chunk.width for chunk in run]
print(f"incremental widths until exhaustion/cap: {widths} "
      f"(stop: {run.report.stop_reason})")

# growth = 0 with the equal plan's width reproduces extract_eq bit for bit.
flat = plan_neq(8, plan.entropy_rate, plan.field_bits, growth=0)
out2 = io.BytesIO()
extract_neq(x_bytes, y_bytes, flat, max_blocks=plan.num_blocks).run(out2)
print(f"growth-0 output identical to equal-block output: "
      f"{out2.getvalue() == out.getvalue()}")
