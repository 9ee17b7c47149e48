"""Bit framing tests: little-endian within bytes, exact accounting."""

import io

import pytest
from hypothesis import given, strategies as st

from blockext.bitio import BitReader, BitWriter, pack_values, unpack_values


class DribbleIO:
    """File-like wrapper that returns at most `step` bytes per read."""

    def __init__(self, data: bytes, step: int = 1):
        self._buf = io.BytesIO(data)
        self._step = step

    def read(self, size: int) -> bytes:
        return self._buf.read(min(size, self._step))


class NotReadyIO(DribbleIO):
    """`reads` reads of at most `step` bytes, then None on every read: a
    non-blocking stream with no data ready."""

    def __init__(self, data: bytes, step: int = 1, reads: int = 1):
        super().__init__(data, step)
        self._reads = reads

    def read(self, size: int) -> bytes | None:
        self._reads -= 1
        return super().read(size) if self._reads >= 0 else None


def test_reader_refuses_a_stream_with_no_data_ready():
    r = BitReader(NotReadyIO(bytes(range(64)), step=4, reads=1))
    assert r.fill(32)
    with pytest.raises(BlockingIOError, match="no data ready"):
        r.fill(64)
    assert r.bits_consumed == 0 and r.tail_bits() == 32


def test_reader_bit_order():
    r = BitReader(bytes([0b10110010]))
    assert [r.read_bits(1) for _ in range(8)] == [0, 1, 0, 0, 1, 1, 0, 1]


def test_reader_cross_byte_values():
    r = BitReader(bytes([0xAB, 0xCD]))
    assert r.read_bits(12) == 0xDAB
    assert r.read_bits(4) == 0xC
    assert r.read_bits(1) is None


def test_reader_exhaustion_and_tail():
    r = BitReader(bytes([0xFF]))
    assert r.read_bits(5) == 0b11111
    assert r.read_bits(5) is None
    assert r.tail_bits() == 3
    assert r.bits_consumed == 5


def test_reader_rejects_nonpositive():
    with pytest.raises(ValueError):
        BitReader(b"").read_bits(0)


@given(st.binary(min_size=0, max_size=64), st.integers(1, 7))
def test_dribble_reads_equal_whole_buffer(data, step):
    a = BitReader(data)
    b = BitReader(DribbleIO(data, step))
    while True:
        va, vb = a.read_bits(13), b.read_bits(13)
        assert va == vb
        if va is None:
            assert a.tail_bits() == b.tail_bits()
            break


def test_writer_padding():
    w = BitWriter()
    w.write_bits(0b101, 3)
    data, pad = w.getvalue()
    assert data == bytes([0b101]) and pad == 5
    with pytest.raises(ValueError):
        w.write_bits(4, 2)


def test_reader_peek_consumes_nothing_until_advance():
    r = BitReader(DribbleIO(bytes([0xAB, 0xCD, 0xEF]), 1))
    assert r.fill(12) and r.bits_consumed == 0
    assert list(r.peek(4, 8)) == [0, 1, 0, 1, 1, 0, 1, 1]   # 0xBA, LSB first
    assert r.bits_consumed == 0
    r.advance(4)
    assert r.bits_consumed == 4 and r.read_bits(8) == 0xDA
    with pytest.raises(ValueError):
        r.peek(0, r.tail_bits() + 1)
    with pytest.raises(ValueError):
        r.advance(r.tail_bits() + 1)
    assert not r.fill(13) and r.tail_bits() == 12


@given(st.lists(st.tuples(st.integers(1, 200), st.integers(0, 2**200)), max_size=30))
def test_writer_hands_out_whole_bytes_as_they_complete(writes):
    w = BitWriter()
    handed_out = b""
    expected, total = 0, 0
    for nbits, value in writes:
        value &= (1 << nbits) - 1
        handed_out += w.write_bits(value, nbits)
        expected |= value << total
        total += nbits
        assert len(handed_out) == total // 8
    rest, pad = w.getvalue()
    assert pad == (-total) % 8
    assert handed_out + rest == expected.to_bytes((total + 7) // 8, "little")


@given(st.data(), st.integers(1, 128))
def test_pack_unpack_round_trip(data, width):
    values = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=0, max_size=40))
    packed, pad = pack_values(values, width)
    assert len(packed) * 8 == width * len(values) + pad
    assert unpack_values(packed, width, len(values)) == values


@pytest.mark.parametrize("width, count", [(1, 1), (7, 3), (8, 2), (11, 5), (128, 2)])
def test_unpack_refuses_short_data_and_zero_width(width, count):
    packed, _ = pack_values([(1 << width) - 1] * count, width)
    assert unpack_values(packed, width, count) == [(1 << width) - 1] * count
    with pytest.raises(ValueError, match="packed data too short"):
        unpack_values(packed[:-1], width, count)
    with pytest.raises(ValueError):
        unpack_values(packed, 0, count)
