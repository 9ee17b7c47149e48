"""Bit-exact stream framing.

All byte/bit conversions in the package use one convention: a byte stream is
a flat bit stream in little-endian bit order, so bit i of the stream is bit
(i mod 8) of byte (i div 8).  Values assembled from k consecutive stream bits
are read least-significant-bit-first, matching the field-element convention
in :mod:`blockext.gf2q`.
"""

from __future__ import annotations

import io
from typing import BinaryIO

READ_SIZE = 1 << 16  # bytes asked of the stream per buffered read


class BitReader:
    """Consume a binary stream as a flat little-endian bit sequence.

    Accepts any object with ``read(size) -> bytes`` (or raw ``bytes``, which
    are wrapped in a BytesIO).  Reads are buffered; the reader keeps exact
    counts so callers can account for every bit, including a final partial
    tail that is too short to serve a request.
    """

    def __init__(self, stream: BinaryIO | bytes | bytearray):
        if isinstance(stream, (bytes, bytearray)):
            stream = io.BytesIO(bytes(stream))
        self._stream = stream
        self._buf = 0
        self._buf_bits = 0
        self._exhausted = False
        self.bits_consumed = 0

    def _fill(self, want_bits: int) -> None:
        while self._buf_bits < want_bits and not self._exhausted:
            need = max(READ_SIZE, (want_bits - self._buf_bits + 7) // 8)
            chunk = self._stream.read(need)
            if not chunk:
                self._exhausted = True
                break
            self._buf |= int.from_bytes(chunk, "little") << self._buf_bits
            self._buf_bits += 8 * len(chunk)

    def read_bits(self, nbits: int) -> int | None:
        """Next nbits of the stream as an int, or None if fewer remain.

        On None the remaining short tail is left in place; its length is
        :meth:`tail_bits`.
        """
        if nbits <= 0:
            raise ValueError("nbits must be positive")
        self._fill(nbits)
        if self._buf_bits < nbits:
            return None
        value = self._buf & ((1 << nbits) - 1)
        self._buf >>= nbits
        self._buf_bits -= nbits
        self.bits_consumed += nbits
        return value

    def tail_bits(self) -> int:
        """Bits still buffered once the underlying stream is exhausted."""
        return self._buf_bits


class BitWriter:
    """Accumulate values as a flat little-endian bit sequence."""

    def __init__(self):
        self._buf = 0
        self._buf_bits = 0

    def write_bits(self, value: int, nbits: int) -> None:
        if value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._buf |= value << self._buf_bits
        self._buf_bits += nbits

    @property
    def bit_length(self) -> int:
        return self._buf_bits

    def getvalue(self) -> tuple[bytes, int]:
        """Packed bytes and the number of zero pad bits in the last byte."""
        pad = (-self._buf_bits) % 8
        nbytes = (self._buf_bits + pad) // 8
        return self._buf.to_bytes(nbytes, "little"), pad


def pack_values(values, width: int) -> tuple[bytes, int]:
    """Pack equal-width values into bytes; returns (data, pad_bits)."""
    w = BitWriter()
    for v in values:
        w.write_bits(v, width)
    return w.getvalue()


def unpack_values(data: bytes, width: int, count: int) -> list[int]:
    """Read count width-bit values back out of packed bytes."""
    r = BitReader(data)
    out = []
    for _ in range(count):
        v = r.read_bits(width)
        if v is None:
            raise ValueError("packed data too short")
        out.append(v)
    return out
