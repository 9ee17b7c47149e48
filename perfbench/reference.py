"""Seeded inputs and an independent reference for checking blockext output.

Nothing here calls into blockext except the shipped modulus table
(``blockext._moduli``), which fixes which field the output lives in.  The
arithmetic is a 4-bit-window carry-less multiply with long-division
reduction, a different algorithm from the package's shift-and-add multiply
with fold-table reduction, so a bug in one does not hide in the other.

Bit framing follows the README: a byte stream is a flat little-endian bit
stream, a block takes the next q*n bits of each source and splits them into
n consecutive q-bit elements, least significant bit first, and output
chunks are concatenated in block order and packed with the same bit order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Raw-source model of every workload: iid bits with P(1) = ONE_PROB, whose
# min-entropy -log2(ONE_PROB) = 0.6716 per bit is above the 10.74/16 rate
# the plans certify.  Uniform bytes would be the wrong data: the package's
# multiply loops over operand bits, so its cost depends on bit density.
ONE_PROB = 0.6278
GENERATOR = "numpy.random.default_rng(SeedSequence([seed, stream])).integers(uint32) < P(1)*2^32"

_ORACLE_FILE = Path(__file__).with_name("oracle_expected.json")


def source_bytes(seed: int, stream: int, nbytes: int) -> bytes:
    """nbytes of iid P(1)=ONE_PROB bits, a pure function of (seed, stream)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    threshold = np.uint32(round(ONE_PROB * 2**32))
    out = bytearray()
    step = 1 << 17  # bytes per draw, to keep the uint32 draw buffer small
    for start in range(0, nbytes, step):
        count = min(step, nbytes - start)
        bits = rng.integers(0, 2**32, size=8 * count, dtype=np.uint32) < threshold
        out += np.packbits(bits, bitorder="little").tobytes()
    return bytes(out)


# ---------- independent GF(2^q) arithmetic ----------

def modulus(q: int) -> int:
    from blockext._moduli import MODULUS_EXPONENTS

    return sum(1 << e for e in MODULUS_EXPONENTS[q])


def clmul(a: int, b: int) -> int:
    """Carry-less product, four bits of `a` per step from the top."""
    table = [0] * 16
    for k in range(1, 16):
        low = k & -k
        table[k] = table[k ^ low] ^ (b << (low.bit_length() - 1))
    r = 0
    for shift in range((a.bit_length() + 3) // 4 * 4 - 4, -1, -4):
        r = (r << 4) ^ table[(a >> shift) & 15]
    return r


def reduce(p: int, q: int, m: int) -> int:
    """p mod m by long division, m of degree q."""
    while p.bit_length() > q:
        p ^= m << (p.bit_length() - 1 - q)
    return p


def inner_product(xs, ys, q: int) -> int:
    m = modulus(q)
    acc = 0
    for x, y in zip(xs, ys):
        acc ^= clmul(x, y)
    return reduce(acc, q, m)


@dataclass(frozen=True)
class Expected:
    """What a correct extraction command must report and write."""

    widths: tuple[int, ...]      # element width q of each block, in order
    vec_len: int
    stop_reason: str
    discarded_tail_bits: int     # per source
    plan_fields: dict            # report keys under plan.* that must match

    @property
    def blocks(self) -> int:
        return len(self.widths)

    @property
    def output_bits(self) -> int:
        return sum(self.widths)

    @property
    def consumed_bits(self) -> int:
        return self.vec_len * self.output_bits


def expected_eq(source_bits: int, q: int, n: int, planned_bits: int | None) -> Expected:
    """Equal-block run: stops `completed` at the planned bits, else when input runs out."""
    usable = source_bits if planned_bits is None else min(source_bits, planned_bits)
    blocks = usable // (q * n)
    if planned_bits is not None and planned_bits <= source_bits:
        stop, tail = "completed", planned_bits - blocks * q * n
    else:
        stop, tail = "input-exhausted", source_bits - blocks * q * n
    return Expected((q,) * blocks, n, stop, tail, {"field_bits": q, "vec_len": n})


def expected_neq(source_bits: int, q1: int, step: int, n: int, cap: int = 128) -> Expected:
    """Incremental run with widths q1, q1+step, ...; stops at the width cap."""
    widths = []
    used = 0
    w = q1
    while w <= cap and used + w * n <= source_bits:
        widths.append(w)
        used += w * n
        w += step
    stop = "width-cap" if w > cap else "input-exhausted"
    tail = source_bits - used if stop == "input-exhausted" else 0
    return Expected(tuple(widths), n, stop, tail, {"first_field_bits": q1, "vec_len": n})


def parse_report(text: str) -> dict[str, str]:
    """key = value lines after the header; empty dict when malformed."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "blockext-report v1":
        return {}
    fields = {}
    for ln in lines[1:]:
        key, sep, value = ln.partition("=")
        if not sep:
            return {}
        fields[key.strip()] = value.strip()
    return fields


def report_problems(report: dict[str, str], exp: Expected) -> list[str]:
    want = {
        "blocks_completed": str(exp.blocks),
        "output_bits": str(exp.output_bits),
        "x_bits_consumed": str(exp.consumed_bits),
        "y_bits_consumed": str(exp.consumed_bits),
        "x_discarded_tail_bits": str(exp.discarded_tail_bits),
        "y_discarded_tail_bits": str(exp.discarded_tail_bits),
        "stop_reason": exp.stop_reason,
        "pad_bits": str(-exp.output_bits % 8),
    }
    want.update({f"plan.{k}": str(v) for k, v in exp.plan_fields.items()})
    return [f"{k}: got {report.get(k)!r}, want {v!r}" for k, v in want.items()
            if report.get(k) != v]


def sample_blocks(blocks: int, seed: int, count: int) -> list[int]:
    """First, last and up to count-2 seeded blocks in between, 0-based, sorted."""
    if blocks == 0:
        return []
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB10C]))
    inner = range(1, blocks - 1)
    picked = rng.choice(len(inner), size=min(count - 2, len(inner)), replace=False) \
        if len(inner) else []
    return sorted({0, blocks - 1, *(inner[i] for i in picked)})


def output_problems(out: bytes, x: bytes, y: bytes, exp: Expected, sample: list[int]) -> list[str]:
    """Length, zero padding, and the sampled blocks recomputed from the inputs."""
    problems = []
    if len(out) != (exp.output_bits + 7) // 8:
        return [f"output is {len(out)} bytes, want {(exp.output_bits + 7) // 8}"]
    z = int.from_bytes(out, "little")
    if z >> exp.output_bits:
        problems.append("pad bits are not zero")
    xi = int.from_bytes(x, "little")
    yi = int.from_bytes(y, "little")
    n = exp.vec_len
    in_off = [0]
    out_off = [0]
    for w in exp.widths:
        in_off.append(in_off[-1] + w * n)
        out_off.append(out_off[-1] + w)
    for b in sample:
        q = exp.widths[b]
        mask = (1 << q) - 1
        xw = xi >> in_off[b]
        yw = yi >> in_off[b]
        xs = [(xw >> (j * q)) & mask for j in range(n)]
        ys = [(yw >> (j * q)) & mask for j in range(n)]
        got = (z >> out_off[b]) & mask
        if got != inner_product(xs, ys, q):
            problems.append(f"block {b + 1} differs from the reference")
    return problems


# ---------- recorded oracle results ----------

def oracle_seeds() -> list[int]:
    return sorted(int(s) for s in _load_oracles()["bias"])


def expected_oracle_checks(suite: str, verify_seed: int) -> dict[str, str]:
    """Recorded check line per instance key, e.g. 'bias q=2 n=3 k=5'."""
    data = _load_oracles()[suite]
    return data[str(verify_seed)] if suite == "bias" else data


def parse_oracle_report(text: str) -> dict[str, str]:
    """Instance key -> the rest of the line (max_bias, bound, pairs, verdict)."""
    checks = {}
    for ln in text.splitlines():
        key, sep, rest = ln.partition(":")
        if sep and ln.startswith(("bias ", "hadamard ")):
            checks[key] = rest.strip()
    return checks


def _load_oracles() -> dict:
    with open(_ORACLE_FILE) as fh:
        return json.load(fh)
