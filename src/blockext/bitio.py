"""Bit-exact stream framing.

All byte/bit conversions in the package use one convention: a byte stream is
a flat bit stream in little-endian bit order, so bit i of the stream is bit
(i mod 8) of byte (i div 8).  Values assembled from k consecutive stream bits
are read least-significant-bit-first, matching the field-element convention
in :mod:`blockext.gf2q`.

:func:`bit_rows_to_ints` decodes rows of peeked bits to ints, and
:meth:`BitWriter.write_bits` packs one value at a time, returning the bytes
each write completes; extraction packs a whole batch of output bits at once
with ``np.packbits`` in the same bit order.
"""

from __future__ import annotations

import io
from typing import BinaryIO

import numpy as np

READ_SIZE = 1 << 16  # bytes asked of the stream per buffered read


class BitReader:
    """Consume a binary stream as a flat little-endian bit sequence.

    Accepts any object with ``read(size) -> bytes`` (or raw ``bytes``, which
    are wrapped in a BytesIO).  Reads are buffered in a byte buffer with a bit
    offset, so each read costs time in proportion to the bits it returns.
    The reader keeps exact counts so callers can account for every bit,
    including a final partial tail that is too short to serve a request.

    A caller fills the buffer (:meth:`fill`), looks at buffered bits with
    :meth:`peek` and commits them later with :meth:`advance`; only committed
    bits count as consumed.  :meth:`read_bits` does all three for one value.
    """

    def __init__(self, stream: BinaryIO | bytes | bytearray):
        if isinstance(stream, (bytes, bytearray)):
            stream = io.BytesIO(bytes(stream))
        self._stream = stream
        self._buf = bytearray()  # bytes read and not yet dropped
        self._pos = 0            # bit offset in _buf of the next unconsumed bit
        self._exhausted = False
        self.bits_consumed = 0

    def fill(self, nbits: int) -> bool:
        """Buffer at least nbits unconsumed bits if the stream has them.

        Returns whether they are buffered.  Each stream read asks for
        max(READ_SIZE, missing bytes), and a short read is read again until
        nbits are buffered, so the bytes taken from the stream depend on the
        sequence of fill targets and, for a stream whose reads may return
        fewer bytes than asked (a raw pipe or terminal), on those read
        sizes.  Only an empty read is the end of the stream: a non-blocking
        stream that has no data ready (its read returns None) raises
        BlockingIOError.
        """
        while self.tail_bits() < nbits and not self._exhausted:
            need = max(READ_SIZE, (nbits - self.tail_bits() + 7) // 8)
            chunk = self._stream.read(need)
            if chunk is None:
                raise BlockingIOError(
                    "the stream has no data ready (non-blocking read); "
                    "sources must be blocking streams")
            if not chunk:
                self._exhausted = True
                break
            del self._buf[: self._pos >> 3]
            self._pos &= 7
            self._buf += chunk
        return self.tail_bits() >= nbits

    def peek(self, offset: int, nbits: int) -> np.ndarray:
        """Unconsumed bits [offset, offset + nbits) as a uint8 array of 0/1.

        The bits must be buffered (see :meth:`fill`); nothing is consumed.
        """
        if offset < 0 or nbits < 0 or offset + nbits > self.tail_bits():
            raise ValueError(f"bits [{offset}, {offset + nbits}) are not buffered")
        start = self._pos + offset
        first = start >> 3
        raw = np.frombuffer(self._buf, np.uint8, (start + nbits + 7) // 8 - first, first)
        skip = start & 7
        return np.unpackbits(raw, bitorder="little")[skip: skip + nbits]

    def advance(self, nbits: int) -> None:
        """Consume nbits buffered bits."""
        if not 0 <= nbits <= self.tail_bits():
            raise ValueError(f"cannot consume {nbits} of {self.tail_bits()} buffered bits")
        self._pos += nbits
        self.bits_consumed += nbits

    def read_bits(self, nbits: int) -> int | None:
        """Next nbits of the stream as an int, or None if fewer remain.

        On None the remaining short tail is left in place; its length is
        :meth:`tail_bits`.
        """
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        if not self.fill(nbits):
            return None
        start = self._pos
        raw = self._buf[start >> 3: (start + nbits + 7) >> 3]
        value = (int.from_bytes(raw, "little") >> (start & 7)) & ((1 << nbits) - 1)
        self.advance(nbits)
        return value

    def tail_bits(self) -> int:
        """Bits buffered but not consumed; once the stream is exhausted, its tail."""
        return 8 * len(self._buf) - self._pos


class BitWriter:
    """Pack values into a flat little-endian bit sequence.

    Each write returns the whole bytes it completes, so bytes leave as soon
    as their last bit is written; at most 7 bits stay pending between
    writes, and each write costs time in proportion to its own width.
    """

    def __init__(self):
        self._acc = 0  # pending bits, fewer than 8
        self._acc_bits = 0

    def write_bits(self, value: int, nbits: int) -> bytes:
        """Append value as nbits bits; the whole bytes this completes, maybe b""."""
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        acc = self._acc | value << self._acc_bits
        total = self._acc_bits + nbits
        whole = total >> 3
        self._acc, self._acc_bits = acc >> 8 * whole, total & 7
        return (acc & ((1 << 8 * whole) - 1)).to_bytes(whole, "little")

    def getvalue(self) -> tuple[bytes, int]:
        """The pending bits zero-padded into a last byte (b"" if none), and the pad length."""
        return self._acc.to_bytes((self._acc_bits + 7) >> 3, "little"), (-self._acc_bits) % 8


def bit_rows_to_ints(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D array of 0/1 bits as an int, its first bit least significant."""
    return [int.from_bytes(row, "little") for row in np.packbits(bits, axis=1, bitorder="little")]
