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
In software, :class:`Extraction` computes each run of equal-width blocks in
batches with numpy: the inner product's unreduced carry-less product is a
GF(2) bit-matrix product, and each block is reduced once, at the end (see
:func:`_inner_products`).  A run computes every batch in one workspace of
arrays (:class:`_Workspace`) that it keeps until the block width changes,
so its memory is bounded by _BATCH_BUDGET and not by the input length, and
a long run allocates nothing large after its first batch.  Iteration only
yields chunks: :meth:`Extraction.run` alone packs them, writing the bytes
each chunk completes as soon as it is made; both run in one session, which
reports once, however the run ends.  :func:`ext_ip` stays as the independent
scalar reference; the two share only the shipped modulus table.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from ._moduli import modulus_int
from .bitio import BitReader, BitWriter, bit_rows_to_ints
from .gf2q import GFContext, MAX_FIELD_BITS
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


# ---------- the batched block engine ----------

# Working-set budget of one batch: blocks * q * max(q, n) stays below it, so
# the decoded bits and the q x q parity matrices of a batch take at most
# this many bytes each, whatever the window size.
_BATCH_BUDGET = 1 << 17
# Elements per float32 matrix product.  Every count stays at most 255, so
# the uint8 cast that keeps its parity is exact, and q*q*step stays within
# the size OpenBLAS computes on the calling thread; larger products wake its
# worker threads, which cost milliseconds per call on a busy machine.
_GEMM_CELLS = 1 << 18


def _batch_size(q: int, n: int) -> int:
    """Blocks of width q computed together: a constant of the working-set budget."""
    return max(1, _BATCH_BUDGET // (q * max(q, n)))


class _Workspace:
    """The arrays a batch of up to `blocks` blocks of width q computes in.

    An :class:`Extraction` keeps one and fills it in place batch after
    batch (a shorter batch uses the leading blocks), so the steady state
    allocates nothing large: arrays of this size allocated per batch are
    mapped from the OS and faulted in again every time.  As
    blocks * q * max(q, n) <= _BATCH_BUDGET unless blocks == 1, it holds
    at most 15 * _BATCH_BUDGET bytes, or 8 * _BATCH_BUDGET + 7 * q * q for
    one block, besides the reduction matrix's 4 * (2q - 1) * q.
    """

    def __init__(self, blocks: int, q: int, n: int):
        self.q = q
        # Elements per product, and decoded at once (below n only if blocks == 1).
        self.step = max(1, min(255, _GEMM_CELLS // (q * q)))
        self.span = min(n, _BATCH_BUDGET // q)
        rows = min(self.step, self.span)
        self.xf = np.empty((blocks, rows, q), np.float32)
        self.yf = np.empty((blocks, rows, q), np.float32)
        self.counts = np.empty((blocks, q, q), np.float32)
        self.parity = np.empty((blocks, q, q), np.uint8)
        # Rows of 2q whose right half stays zero (see _inner_products).
        self.padded = np.zeros((blocks, q, 2 * q), np.uint8)
        # (2q-1) x q GF(2) matrix whose row k holds the bits of x^k mod f.
        f, rows, r = modulus_int(q), [], 1
        for _ in range(2 * q - 1):
            rows.append(r)
            r <<= 1
            if r >> q:
                r ^= f
        raw = np.frombuffer(b"".join(v.to_bytes((q + 7) // 8, "little") for v in rows), np.uint8)
        bits = np.unpackbits(raw, bitorder="little").reshape(2 * q - 1, -1)[:, :q]
        self.reduction = bits.astype(np.float32)


def _inner_products(ws: _Workspace, x: BitReader, y: BitReader, blocks: int,
                    n: int) -> np.ndarray:
    """Output bits (blocks, q) of the next `blocks` blocks of width ws.q.

    The blocks' windows must be buffered in both readers; nothing is
    consumed.  For one block with element bit matrices X and Y (n x q),
    C = X^T Y counts, for each pair of bit positions (i, j), the elements
    whose x-bit i and y-bit j are both set, so the parities of the sums of
    C's anti-diagonals i + j = k are the 2q-1 coefficients of the unreduced
    sum of carry-less products.  One multiply by the reduction matrix then
    reduces that sum modulo the field's modulus.  The result is a new
    array; the workspace is scratch for the next batch.
    """
    q, step = ws.q, ws.step
    counts = ws.counts[:blocks]
    parity = ws.parity[:blocks]
    parity.fill(0)
    for lo in range(0, n, ws.span):
        hi = min(n, lo + ws.span)
        # One block, or whole windows: either way the bits are contiguous.
        xs = x.peek(lo * q, blocks * (hi - lo) * q).reshape(blocks, hi - lo, q)
        ys = y.peek(lo * q, blocks * (hi - lo) * q).reshape(blocks, hi - lo, q)
        for k in range(0, hi - lo, step):
            m = min(step, hi - lo - k)
            xf, yf = ws.xf[:blocks, :m], ws.yf[:blocks, :m]
            np.copyto(xf, xs[:, k:k + m], casting="unsafe")
            np.copyto(yf, ys[:, k:k + m], casting="unsafe")
            np.matmul(xf.transpose(0, 2, 1), yf, out=counts)
            np.bitwise_xor(parity, counts, out=parity, dtype=np.uint8, casting="unsafe")
    # Shift row i of each parity matrix right by i: padded rows of 2q cut
    # to 2q-1 put C[i, j] in column i + j, so column sums are the
    # anti-diagonal sums.
    padded = ws.padded[:blocks]
    np.bitwise_and(parity, 1, out=padded[:, :, :q])
    skewed = padded.reshape(blocks, 2 * q * q)[:, :q * (2 * q - 1)].reshape(blocks, q, 2 * q - 1)
    product = skewed.sum(axis=1, dtype=np.uint8) & 1
    reduced = product.astype(np.float32) @ ws.reduction
    return reduced.astype(np.uint8) & 1


class Extraction:
    """One streaming extraction run: iterate for chunks, then read `.report`.

    Single-use: the input streams are consumed as iteration proceeds.  The
    report is available once the run ends, however it ends.
    """

    def __init__(self, x_stream, y_stream, plan: EqPlan | NeqPlan, *,
                 max_blocks: int | None = None):
        if max_blocks is not None and max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")
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
        self._workspace: _Workspace | None = None
        self.report: ExtractionReport | None = None

    def __iter__(self) -> Iterator[OutputChunk]:
        with self._session():
            yield from self._chunks()

    @contextlib.contextmanager
    def _session(self) -> Iterator[None]:
        """The one run, reported once: ``interrupted`` if it ends by an exception."""
        if self._started:
            raise RuntimeError("an Extraction is single-use; create a new one")
        self._started = True
        t0 = time.perf_counter()
        try:
            yield
        except BaseException:
            # A closed iterator, or a failed read, write or flush.
            self._stop_reason = "interrupted"
            raise
        finally:
            self._finalize(time.perf_counter() - t0)

    def _chunks(self) -> Iterator[OutputChunk]:
        # Computes each run of equal-width blocks of the schedule in batches
        # (in incremental mode a run is one block), but consumes a block's
        # windows only as its chunk is yielded, and reads the streams exactly
        # as a block-by-block read would (see _ready_blocks).
        n = self.plan.vec_len
        limit = self._block_limit
        while limit is None or self._blocks_done < limit:
            width = self._first_width + self._blocks_done * self._width_step
            if width > MAX_FIELD_BITS:
                self._stop_reason = "width-cap"
                return
            window = width * n
            want = 1 if self._width_step else _batch_size(width, n)
            if limit is not None:
                want = min(want, limit - self._blocks_done)
            ready = self._ready_blocks(want, window)
            if ready:
                ws = self._workspace
                if ws is None or ws.q != width:
                    self._workspace = ws = None  # free the old arrays first
                    self._workspace = ws = _Workspace(want, width, n)
                bits = _inner_products(ws, self._x, self._y, ready, n)
                for value in bit_rows_to_ints(bits):
                    self._x.advance(window)
                    self._y.advance(window)
                    self._blocks_done += 1
                    self._output_bits += width
                    yield OutputChunk(self._blocks_done, value, width)
            if ready < want:
                # A block-by-block read would have asked both streams for the
                # next window; the one that had it consumed it.
                for reader in (self._x, self._y):
                    if reader.tail_bits() >= window:
                        reader.advance(window)
                self._stop_reason = "input-exhausted"
                return
        self._stop_reason = "completed" if limit == self._planned_blocks else "block-limit"

    def _ready_blocks(self, want: int, window: int) -> int:
        """Fill both readers for up to `want` blocks; how many both can serve.

        Fills block by block, x then y, and stops at the first block either
        stream cannot serve, so the bytes taken from each stream (and hence
        the buffered tail a report charges on exhaustion) match a
        block-by-block read.
        """
        x, y = self._x, self._y
        if x.tail_bits() >= want * window and y.tail_bits() >= want * window:
            return want
        for i in range(1, want + 1):
            x_ok = x.fill(i * window)
            y_ok = y.fill(i * window)
            if not (x_ok and y_ok):
                return i - 1
        return want

    def _finalize(self, wall: float) -> None:
        self._workspace = None
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
        into bytes; each chunk's completed bytes are written as soon as it
        is made.  The final partial byte is zero-padded, `sink` is flushed
        if it can be, and the pad length is recorded in the report.  A write
        or flush that fails ends the run as ``interrupted``, with no pad.
        """
        writer = BitWriter()
        with self._session():
            for chunk in self._chunks():
                if sink is not None and (data := writer.write_bits(chunk.bits, chunk.width)):
                    sink.write(data)
            if sink is not None:
                data, pad = writer.getvalue()
                if data:
                    sink.write(data)
                if hasattr(sink, "flush"):
                    sink.flush()
        if sink is not None:
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
