"""Streaming two-source extraction over GF(2^q).

The core primitive is :func:`ext_ip`, the inner product of two length-n
vectors of field elements; one inner product turns 2*q*n raw input bits into
one q-bit output chunk.  :func:`extract_eq` applies it to consecutive
equal-width windows of two bit streams; :func:`extract_neq` grows the
element width by a fixed number of samples per block, which is what allows
unbounded input with a convergent total error.

Block framing is bit-exact and fixed: each source is a flat little-endian
bit stream (see :mod:`blockext.bitio`); a block takes the next q*n bits and
splits them into n consecutive q-bit elements, least-significant-bit first.
Blocks are disjoint: each block starts exactly q*n/b samples after the one
before it (q being that block's width), in both modes.

Blocks are independent, which is what lets hardware run several block
lanes side by side (the lane model is :func:`blockext.bench.projected_speed`).
In software the multiply is pure-Python integer work that holds the
interpreter lock, so every block runs in order on the calling thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

from .bitio import BitReader, BitWriter
from .gf2q import GFContext, MAX_FIELD_BITS, field
from .params import EqPlan, NeqPlan, error_bound_eq, error_bound_neq
from .report import ExtractionReport


@dataclass(frozen=True)
class OutputChunk:
    """One block's output: `width` bits, emitted in block order."""

    index: int   # 1-based block index
    bits: int    # chunk value, bit i = output bit i of the chunk
    width: int


def ext_ip(ctx: GFContext, x: Sequence[int], y: Sequence[int]) -> int:
    """Inner product sum(x_i * y_i) over GF(2^q)."""
    if len(x) != len(y):
        raise ValueError(f"vector lengths differ: {len(x)} vs {len(y)}")
    if not x:
        raise ValueError("vectors must be non-empty")
    mul = ctx.mul
    acc = 0
    for xi, yi in zip(x, y):
        acc ^= mul(xi, yi)
    return acc


class Extraction:
    """One streaming extraction run: iterate for chunks, then read `.report`.

    Single-use: the input streams are consumed as iteration proceeds.  The
    report is available once iteration finishes (normally or via an early
    stop condition).
    """

    def __init__(self, x_stream, y_stream, plan: EqPlan | NeqPlan, *,
                 max_blocks: int | None = None):
        self._x = BitReader(x_stream)
        self._y = BitReader(y_stream)
        self.plan = plan
        # The width schedule: block i is first_width + (i-1)*width_step bits
        # wide.  Equal-block mode is incremental mode with growth 0 and a
        # planned length; this is the only branch on the plan type.
        if isinstance(plan, EqPlan):
            self.mode = "eq"
            self._first_width = plan.field_bits
            self._width_step = 0
            self._planned_blocks = plan.num_blocks
            self._planned_bits = plan.num_samples * plan.bits_per_sample
            self._bound = partial(error_bound_eq, plan)
        else:
            self.mode = "neq"
            self._first_width = plan.first_field_bits
            self._width_step = plan.growth * plan.bits_per_sample
            self._planned_blocks = None
            self._planned_bits = None
            self._bound = partial(error_bound_neq, plan)
        limits = [v for v in (self._planned_blocks, max_blocks) if v is not None]
        self._block_limit = min(limits) if limits else None
        self._started = False
        self._stop_reason = "completed"
        self._blocks_done = 0
        self._output_bits = 0
        self.report: ExtractionReport | None = None

    def __iter__(self) -> Iterator[OutputChunk]:
        if self._started:
            raise RuntimeError("an Extraction is single-use; create a new one")
        self._started = True
        t0 = time.perf_counter()
        try:
            yield from self._chunks()
        except GeneratorExit:
            # The consumer closed the iterator before the schedule ended.
            self._stop_reason = "interrupted"
            raise
        finally:
            self._finalize(time.perf_counter() - t0)

    def _chunks(self) -> Iterator[OutputChunk]:
        n = self.plan.vec_len
        limit = self._block_limit
        while limit is None or self._blocks_done < limit:
            width = self._first_width + self._blocks_done * self._width_step
            if width > MAX_FIELD_BITS:
                self._stop_reason = "width-cap"
                return
            ctx = field(width)
            xw = self._x.read_bits(width * n)
            yw = self._y.read_bits(width * n)
            if xw is None or yw is None:
                self._stop_reason = "input-exhausted"
                return
            mask = ctx.mask
            xs = [(xw >> (j * width)) & mask for j in range(n)]
            ys = [(yw >> (j * width)) & mask for j in range(n)]
            self._blocks_done += 1
            self._output_bits += width
            yield OutputChunk(self._blocks_done, ext_ip(ctx, xs, ys), width)
        self._stop_reason = "completed" if limit == self._planned_blocks else "block-limit"

    def _finalize(self, wall: float) -> None:
        k = self._blocks_done
        exhausted = self._stop_reason == "input-exhausted"
        self.report = ExtractionReport(
            mode=self.mode,
            plan=self.plan,
            blocks_completed=k,
            x_bits_consumed=self._x.bits_consumed,
            y_bits_consumed=self._y.bits_consumed,
            output_bits=self._output_bits,
            x_discarded_tail_bits=self._discarded(self._x, exhausted),
            y_discarded_tail_bits=self._discarded(self._y, exhausted),
            log2_error_bound=self._bound(k) if k else float("-inf"),
            wall_time_s=wall,
            window_disjointness=True,
            stop_reason=self._stop_reason,
        )

    def _discarded(self, reader: BitReader, exhausted: bool) -> int:
        # Bits delivered but not used by any completed block; when the stream
        # ran dry, the short buffered tail can never form a block and counts
        # too.  A completed run with a planned length charges the window's
        # indivisible remainder (N*b mod q*n), which no block can use.  On a
        # width-cap, block-limit or interrupted stop the rest of the stream
        # is simply unprocessed, not discarded.  Each block uses q*n bits per
        # source for q output bits.
        used = self._output_bits * self.plan.vec_len
        discarded = reader.bits_consumed - used
        if exhausted:
            discarded += reader.tail_bits()
        elif self._stop_reason == "completed" and self._planned_bits is not None:
            discarded += self._planned_bits - used
        return discarded

    def run(self, sink=None) -> ExtractionReport:
        """Consume the whole run; optionally pack chunks into `sink`.

        Chunk bits are concatenated in block order and packed little-endian
        into bytes; the final partial byte is zero-padded and the pad length
        recorded in the report.
        """
        writer = BitWriter() if sink is not None else None
        for chunk in self:
            if writer is not None:
                writer.write_bits(chunk.bits, chunk.width)
        if writer is not None:
            data, pad = writer.getvalue()
            sink.write(data)
            self.report.pad_bits = pad
        return self.report


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError("workers must be >= 1")


def extract_eq(x_stream, y_stream, plan: EqPlan, *, workers: int = 1,
               max_blocks: int | None = None) -> Extraction:
    """Equal-block extraction of two streams under a derived plan.

    Emits floor(N*b/(q*n)) chunks of q bits; a final window shorter than
    q*n bits is discarded and accounted in the report.  `workers` must be
    >= 1 and has no effect: blocks always run in order on the calling
    thread.
    """
    if not isinstance(plan, EqPlan):
        raise TypeError("extract_eq needs an EqPlan")
    _check_workers(workers)
    return Extraction(x_stream, y_stream, plan, max_blocks=max_blocks)


def extract_neq(x_stream, y_stream, plan: NeqPlan, *, workers: int = 1,
                max_blocks: int | None = None) -> Extraction:
    """Incremental-block extraction: block widths grow by growth*b bits.

    Runs until the input is exhausted, `max_blocks` is reached, or the next
    width would exceed the implementation cap, whichever comes first; the
    report records which.  With growth = 0 and a starting width equal to an
    equal-block plan's width, the output is bit-identical to
    :func:`extract_eq` on the same streams.  `workers` is as for
    :func:`extract_eq`.
    """
    if not isinstance(plan, NeqPlan):
        raise TypeError("extract_neq needs a NeqPlan")
    _check_workers(workers)
    return Extraction(x_stream, y_stream, plan, max_blocks=max_blocks)


__all__ = [
    "Extraction",
    "OutputChunk",
    "ext_ip",
    "extract_eq",
    "extract_neq",
]
