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
GF(2) bit-matrix product, computed pair-packed (two bits of each element
per float32 operand, three bit counts per product entry, a quarter of the
multiply-adds), and each block is reduced once, at the end (see
:func:`_inner_products`).  A run computes every batch in one workspace of
arrays (:class:`_Workspace`) that it keeps until the block width changes,
so its memory is bounded by _BATCH_BUDGET and not by the input length, and
a long run allocates nothing large after its first batch.  One producer
yields each batch's output bits and consumes nothing; iteration expands a
batch into chunks, committing each as it is yielded, and
:meth:`Extraction.run` commits the whole batch, packs it once and writes
its completed bytes in one write; both run in one session, which
reports once, however the run ends.  :func:`ext_ip` stays as the
independent scalar reference; the two share only the shipped modulus table.
"""

from __future__ import annotations

import contextlib
import errno
import io
import time
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from ._moduli import MODULUS_EXPONENTS
from .bitio import BitReader, bit_rows_to_ints
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
# the decoded bits of a batch take at most this many bytes, whatever the
# window size.
_BATCH_BUDGET = 1 << 17
# Multiply-adds per float32 matrix product: h*h*step stays within the size
# OpenBLAS computes on the calling thread; larger products wake its worker
# threads, which cost milliseconds per call on a busy machine.
_GEMM_CELLS = 1 << 18
# Elements per product.  A pair-packed product sums three bit counts in
# fields 8 bits apart (see _inner_products), at most 127, 254 and 127 over
# 127 elements, so no field carries into the next and every sum stays
# below 2^23, which float32 holds exactly in any summation order.
_MAX_STEP = 127


def _batch_size(q: int, n: int) -> int:
    """Blocks of width q computed together: a constant of the working-set budget."""
    return max(1, _BATCH_BUDGET // (q * max(q, n)))


def _reduction_matrix(q: int) -> np.ndarray:
    """The (2q-1) x q float32 GF(2) matrix whose row k holds the bits of x^k mod f.

    Rows below q are unit rows.  For k >= q, x^k = sum of x^(k-q+e) over the
    exponents e < q of the modulus f, so each row is the XOR of earlier
    rows, and the lag q - max(e) rows at a time depend only on rows before them.
    """
    low = MODULUS_EXPONENTS[q][1:]
    lag = q - low[0]
    bits = np.zeros((2 * q - 1, q), np.uint8)
    bits.reshape(-1)[:q * q:q + 1] = 1
    for lo in range(q, 2 * q - 1, lag):
        hi = min(lo + lag, 2 * q - 1)
        for e in low:
            bits[lo:hi] ^= bits[lo - q + e:hi - q + e]
    return bits.astype(np.float32)


class _Workspace:
    """The arrays a batch of up to `blocks` blocks of width q computes in.

    An :class:`Extraction` keeps one and fills it in place batch after
    batch (a shorter batch uses the leading blocks), so the steady state
    allocates nothing large: arrays of this size allocated per batch are
    mapped from the OS and faulted in again every time.  As
    blocks * q * max(q, n) <= _BATCH_BUDGET unless blocks == 1, it holds at
    most 40 * _BATCH_BUDGET bytes (at q = n = 1; 16 from q = 2 on, under 7
    at q = 80, n = 71), or _BATCH_BUDGET / 2 + 12 * h * h for one block,
    besides the reduction matrix's 4 * (2q - 1) * q.
    """

    def __init__(self, blocks: int, q: int, n: int):
        self.q = q
        self.h = h = (q + 1) // 2
        # Elements per product, and decoded at once (below n only if blocks == 1).
        self.step = max(1, min(_MAX_STEP, _GEMM_CELLS // (h * h)))
        self.span = min(n, _BATCH_BUDGET // q)
        rows = min(self.step, self.span)
        self.xf = np.empty((blocks, rows, h), np.float32)
        self.yf = np.empty((blocks, rows, h), np.float32)
        self.counts = np.empty((blocks, h, h), np.float32)
        # Rows of 2h whose right half stays zero, and the 2h - 1
        # anti-diagonals between two columns that stay zero (see
        # _inner_products).
        self.padded = np.zeros((blocks, h, 2 * h), np.int32)
        self.diagonals = np.zeros((blocks, 2 * h + 1), np.int32)
        self.coefficient_pairs = np.empty((blocks, 2 * h), "<u2")
        self.coefficients = np.empty((blocks, 2 * q - 1), np.float32)
        self.reduction = _reduction_matrix(q)


def _copy_pairs(out: np.ndarray, bits: np.ndarray) -> None:
    """Copy elements' bits (..., q) into their float32 pair operands out (..., h).

    Pair a of an element is its bit 2a plus 256 times its bit 2a + 1: the
    first 2 * floor(q/2) bits viewed as '<u2', read little-endian whatever
    the machine's byte order.  An odd q's last bit is an operand of its own,
    a pair whose bit 2a + 1 is zero.
    """
    if bits.shape[-1] & 1:
        np.copyto(out[..., -1], bits[..., -1])
        out, bits = out[..., :-1], bits[..., :-1]
    np.copyto(out, bits.view("<u2"))


def _inner_products(ws: _Workspace, x: BitReader, y: BitReader, blocks: int,
                    n: int) -> np.ndarray:
    """Output bits (blocks, q) of the next `blocks` blocks of width ws.q.

    The blocks' windows must be buffered in both readers; nothing is
    consumed.  For one block with element bit matrices X and Y (n x q),
    C = X^T Y counts, for each pair of bit positions (i, j), the elements
    whose x-bit i and y-bit j are both set, so the parities of the sums of
    C's anti-diagonals i + j = k are the 2q-1 coefficients of the unreduced
    sum of carry-less products.  The product is pair-packed: with bits 2a
    and 2a+1 of each element read as one operand x[2a] + 256*x[2a+1] (an
    odd q's last bit is an operand of its own, x[q-1] + 256*0), the h x h
    product G = X2^T Y2 holds G[a, b] = F0 + 256*F1 + 65536*F2, with
    F0 = C[2a, 2b], F1 = C[2a+1, 2b] + C[2a, 2b+1] and F2 = C[2a+1, 2b+1],
    the counts of coefficients 2(a+b), 2(a+b)+1 and 2(a+b)+2: a quarter of
    the multiply-adds of the q x q product.  Bits 0, 8 and 16 of G are the three
    parities.  One multiply by the reduction matrix then reduces the
    coefficients modulo the field's modulus.  The result is a new array;
    the workspace is scratch for the next batch.
    """
    q, h, step = ws.q, ws.h, ws.step
    counts = ws.counts[:blocks]
    # G XORed over the products of the element chunks, as int32, in the
    # left half of rows of 2h whose right half stays zero.
    padded = ws.padded[:blocks]
    left = padded[:, :, :h]
    for lo in range(0, n, ws.span):
        rows = min(n, lo + ws.span) - lo
        # One block, or whole windows: either way the bits are contiguous.
        xs = x.peek(lo * q, blocks * rows * q).reshape(blocks, rows, q)
        ys = y.peek(lo * q, blocks * rows * q).reshape(blocks, rows, q)
        for k in range(0, rows, step):
            m = min(step, rows - k)
            xf, yf = ws.xf[:blocks, :m], ws.yf[:blocks, :m]
            _copy_pairs(xf, xs[:, k:k + m])
            _copy_pairs(yf, ys[:, k:k + m])
            np.matmul(xf.transpose(0, 2, 1), yf, out=counts)
            if lo == k == 0:
                np.copyto(left, counts, casting="unsafe")
            else:
                np.bitwise_xor(left, counts, out=left, dtype=np.int32, casting="unsafe")
    # Shift row a right by a: padded rows of 2h cut to 2h-1 put G[a, b] in
    # column a + b, so XORs down the columns are anti-diagonal XORs, whose
    # bits 0, 8 and 16 are the parities of fields 0, 1 and 2 of diagonal d,
    # that is of coefficients 2d, 2d+1 and 2d+2.
    skewed = padded.reshape(blocks, 2 * h * h)[:, :h * (2 * h - 1)].reshape(blocks, h, 2 * h - 1)
    diagonals = ws.diagonals[:blocks]
    np.bitwise_xor.reduce(skewed, axis=1, out=diagonals[:, 1:2 * h])
    # Bit 16 of each diagonal XORed into bit 0 of the next leaves, in bits 0
    # and 8 of the low half of diagonal d, coefficients 2d and 2d+1: read
    # little-endian, the halves' bytes are coefficients 0, 1, 2, ... in order.
    pairs = ws.coefficient_pairs[:blocks]
    np.right_shift(diagonals[:, :-1], 16, out=pairs, casting="unsafe")
    np.bitwise_xor(pairs, diagonals[:, 1:], out=pairs, casting="unsafe")
    np.bitwise_and(pairs, 0x0101, out=pairs)
    # Coefficients past 2q-2 are zero (an odd q's last operand has no bit q).
    coefficients = ws.coefficients[:blocks]
    np.copyto(coefficients, pairs.view(np.uint8)[:, :2 * q - 1])
    reduced = np.matmul(coefficients, ws.reduction)
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
            for bits, width in self._batches():
                for value in bit_rows_to_ints(bits):
                    self._commit(1, width)
                    yield OutputChunk(self._blocks_done, value, width)

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

    def _batches(self) -> Iterator[tuple[np.ndarray, int]]:
        # Computes each run of equal-width blocks of the schedule in batches
        # (in incremental mode a run is one block) and yields each batch's
        # output bits (blocks, width) with its width.  It consumes
        # nothing: the caller commits the blocks it delivers (_commit), all of
        # a batch before asking for the next, and the streams are read
        # exactly as a block-by-block read would (see _ready_blocks).
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
                yield _inner_products(ws, self._x, self._y, ready, n), width
            if ready < want:
                # A block-by-block read would have asked both streams for the
                # next window; the one that had it consumed it.
                for reader in (self._x, self._y):
                    if reader.tail_bits() >= window:
                        reader.advance(window)
                self._stop_reason = "input-exhausted"
                return
        self._stop_reason = "completed" if limit == self._planned_blocks else "block-limit"

    def _commit(self, blocks: int, width: int) -> None:
        """Count the next `blocks` blocks as done: consume their windows, credit their bits."""
        window = width * self.plan.vec_len
        self._x.advance(blocks * window)
        self._y.advance(blocks * window)
        self._blocks_done += blocks
        self._output_bits += blocks * width

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
        into bytes; each batch's completed bytes go to `sink` in one write
        as soon as the batch is made (what a short write leaves, again).
        The final partial byte is zero-padded, `sink` is flushed if it can
        be, and the pad length is recorded in the report.  A write or flush
        that fails ends the run as ``interrupted``, with no pad, and the
        blocks counted through the batch whose bytes were refused.
        """
        pending = np.zeros(0, np.uint8)
        with self._session():
            for bits, width in self._batches():
                # Committed before its write, so a write that fails counts it.
                self._commit(len(bits), width)
                stream = np.concatenate((pending, bits.ravel()))
                whole = len(stream) & ~7
                if sink is not None and whole:
                    _write_all(sink, np.packbits(stream[:whole], bitorder="little").tobytes())
                pending = stream[whole:]
            if sink is not None:
                if len(pending):
                    _write_all(sink, np.packbits(pending, bitorder="little").tobytes())
                if hasattr(sink, "flush"):
                    sink.flush()
        if sink is not None:
            self.report.pad_bits = -len(pending) % 8
        return self.report


def _write_all(sink, data: bytes) -> None:
    """Write all of `data`, again after a short write.

    A raw sink may take fewer bytes than it is given (`io.RawIOBase.write`
    returns the count).  A write that takes no bytes raises OSError.  A raw
    sink's None means it took nothing because it would block (a
    non-blocking file), which raises BlockingIOError; a duck-typed sink's
    None means it took everything.
    """
    while data:
        written = sink.write(data)
        if written is None:
            if isinstance(sink, io.RawIOBase):
                raise BlockingIOError(errno.EAGAIN, f"sink would block on {len(data)} bytes")
            return
        if written < 1:
            raise OSError(f"sink took no bytes of {len(data)}")
        data = data[written:]


def _check_entry(plan, plan_type: type, refusal: str, workers: int) -> None:
    if not isinstance(plan, plan_type):
        raise TypeError(refusal)
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
    _check_entry(plan, EqPlan, "extract_eq needs an EqPlan", workers)
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
    _check_entry(plan, NeqPlan, "extract_neq needs a NeqPlan", workers)
    return Extraction(x_stream, y_stream, plan, max_blocks=max_blocks)


__all__ = [
    "Extraction",
    "OutputChunk",
    "ext_ip",
    "extract_eq",
    "extract_neq",
]
