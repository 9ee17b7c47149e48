"""Streaming extractor tests: worked examples, framing, stop reasons, reports."""

import io
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blockext import extractor
from blockext.bitio import READ_SIZE, pack_values, unpack_values
from blockext.extractor import _batch_size, ext_ip, extract_eq, extract_neq
from blockext.gf2q import MAX_FIELD_BITS, field
from blockext.params import (
    EqPlan,
    NeqPlan,
    as_rational,
    error_bound_eq,
    error_bound_neq,
    plan_eq,
    plan_neq,
)
from blockext.report import ExtractionReport
from tests.test_bitio import DribbleIO, NotReadyIO


def tiny_eq_plan(b, samples, rate, vec_len, field_bits):
    """Hand-assembled plan for engine tests that pin q and n directly."""
    rate = as_rational(rate)
    num_blocks = samples * b // (field_bits * vec_len)
    draft = EqPlan(b, samples, rate, Fraction(1, 2), vec_len, field_bits,
                   num_blocks, num_blocks * field_bits, 0.0)
    return EqPlan(**{**draft.__dict__, "log2_error": error_bound_eq(draft)})


# ---------- inner product ----------

def test_ext_ip_examples():
    assert ext_ip(field(1), (1, 1), (1, 1)) == 0
    ctx = field(2)
    v = 0b11
    assert ext_ip(ctx, (1,), (v,)) == v
    expected = ctx.add(0b11, ctx.add(0b10, ctx.mul(0b11, 0b10)))
    assert ext_ip(ctx, (0b10, 0b01, 0b11), (0b10, 0b10, 0b10)) == expected == 0


def test_ext_ip_validation():
    with pytest.raises(ValueError):
        ext_ip(field(2), (1,), (1, 2))
    with pytest.raises(ValueError):
        ext_ip(field(2), (), ())
    with pytest.raises(ValueError):
        ext_ip(field(2), (4,), (1,))


@given(st.data())
def test_ext_ip_linear_in_first_argument(data):
    q = data.draw(st.sampled_from([1, 2, 3, 4, 8, 12, 16]))
    n = data.draw(st.integers(1, 4))
    ctx = field(q)
    draw_vec = lambda: tuple(data.draw(st.integers(0, ctx.mask)) for _ in range(n))
    x, x2, y = draw_vec(), draw_vec(), draw_vec()
    xor = tuple(a ^ b for a, b in zip(x, x2))
    assert ext_ip(ctx, xor, y) == ext_ip(ctx, x, y) ^ ext_ip(ctx, x2, y)
    assert ext_ip(ctx, y, xor) == ext_ip(ctx, y, x) ^ ext_ip(ctx, y, x2)


def test_ext_ip_linearity_exhaustive_tiny():
    for q, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        ctx = field(q)
        vecs = [tuple((v >> (i * q)) & ctx.mask for i in range(n))
                for v in range(1 << (q * n))]
        for x in vecs:
            for x2 in vecs:
                xor = tuple(a ^ b for a, b in zip(x, x2))
                for y in vecs:
                    assert ext_ip(ctx, xor, y) == ext_ip(ctx, x, y) ^ ext_ip(ctx, x2, y)


# ---------- block framing ----------

def test_single_block_matches_standalone_inner_product():
    # 5680 input bits per source -> one 80-bit chunk, checked element by element.
    rnd = random.Random(11)
    plan = tiny_eq_plan(16, 355, "10.74/16", 71, 80)
    assert plan.num_blocks == 1
    xs = [rnd.getrandbits(80) for _ in range(71)]
    ys = [rnd.getrandbits(80) for _ in range(71)]
    x_bytes, _ = pack_values(xs, 80)
    y_bytes, _ = pack_values(ys, 80)
    chunks = list(extract_eq(x_bytes, y_bytes, plan))
    assert len(chunks) == 1 and chunks[0].width == 80
    assert chunks[0].bits == ext_ip(field(80), xs, ys)


def test_all_zero_streams_give_all_zero_chunks():
    plan = tiny_eq_plan(8, 64, "3/4", 4, 8)
    chunks = list(extract_eq(bytes(64), bytes(64), plan))
    assert len(chunks) == plan.num_blocks > 1
    assert all(c.bits == 0 for c in chunks)


def test_minimal_block_example():
    plan = tiny_eq_plan(1, 2, 1, 2, 1)
    chunks = list(extract_eq(bytes([0b11]), bytes([0b11]), plan))
    assert [(c.index, c.bits, c.width) for c in chunks] == [(1, 0, 1)]


def test_stream_chunk_size_invariance():
    rnd = random.Random(3)
    data_x = rnd.randbytes(500)
    data_y = rnd.randbytes(500)
    plan = tiny_eq_plan(8, 500, "3/4", 5, 8)
    whole = [c.bits for c in extract_eq(data_x, data_y, plan)]
    dribble = [c.bits for c in
               extract_eq(DribbleIO(data_x, 1), DribbleIO(data_y, 1), plan)]
    assert whole == dribble and len(whole) == plan.num_blocks


def test_block_isolation():
    rnd = random.Random(4)
    plan = tiny_eq_plan(8, 120, "3/4", 6, 8)   # 48-bit blocks, 20 blocks
    base_x = bytearray(rnd.randbytes(120))
    data_y = rnd.randbytes(120)
    base = [c.bits for c in extract_eq(bytes(base_x), data_y, plan)]
    for target_block in (0, 7, 19):
        mutated = bytearray(base_x)
        bit = target_block * 48 + rnd.randrange(48)
        mutated[bit // 8] ^= 1 << (bit % 8)
        got = [c.bits for c in extract_eq(bytes(mutated), data_y, plan)]
        diffs = [i for i, (a, b) in enumerate(zip(base, got)) if a != b]
        assert diffs == [target_block]


# ---------- output accounting ----------

@settings(max_examples=120)
@given(st.data())
def test_eq_output_length_formula(data):
    b = data.draw(st.integers(1, 8))
    vec_len = data.draw(st.integers(1, 6))
    field_bits = data.draw(st.integers(1, 16))
    samples = data.draw(st.integers(1, 400))
    plan = tiny_eq_plan(b, samples, "3/4", vec_len, field_bits)
    nbytes = (samples * b + 7) // 8
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    run = extract_eq(rnd.randbytes(nbytes), rnd.randbytes(nbytes), plan)
    total = sum(c.width for c in run)
    assert total == (samples * b // (field_bits * vec_len)) * field_bits
    assert run.report.output_bits == total
    assert run.report.blocks_completed == plan.num_blocks


@settings(max_examples=120)
@given(st.data())
def test_neq_output_length_formula(data):
    b = data.draw(st.integers(1, 4))
    growth = data.draw(st.integers(0, 3))
    q1 = b * data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 6))
    plan = plan_neq(b, "3/4", q1, growth)
    need_bits = sum(plan.field_bits_for_block(i) * plan.vec_len
                    for i in range(1, k + 1))
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    data_x = rnd.randbytes((need_bits + 7) // 8)
    data_y = rnd.randbytes((need_bits + 7) // 8)
    run = extract_neq(data_x, data_y, plan, max_blocks=k)
    total = sum(c.width for c in run)
    blocks = run.report.blocks_completed
    assert blocks == min(k, blocks)
    assert total == plan.output_bits_after(blocks)
    assert plan.output_bits_after(k) == k * q1 + (k - 1) * k * growth * b // 2


def test_neq_width_cap_stops_cleanly():
    plan = plan_neq(16, "3/4", 16, 1)
    blob = bytes(200_000)
    run = extract_neq(blob, blob, plan)
    widths = [c.width for c in run]
    assert widths == [16, 32, 48, 64, 80, 96, 112, 128]
    assert run.report.stop_reason == "width-cap"
    assert run.report.blocks_completed == 8
    assert run.report.output_bits == plan.output_bits_after(8)


def test_tail_discard_reported():
    plan = tiny_eq_plan(8, 100, "3/4", 5, 8)   # 40-bit blocks, planned 20 blocks
    run = extract_eq(bytes(43), bytes(100), plan)   # x ends mid-block
    chunks = list(run)
    assert len(chunks) == 8          # 344 bits serve 8 full 40-bit blocks
    rep = run.report
    assert rep.stop_reason == "input-exhausted"
    assert rep.x_discarded_tail_bits == 43 * 8 - 8 * 40
    assert rep.y_discarded_tail_bits >= 0
    assert rep.blocks_completed == 8


def test_completed_run_reports_planned_remainder():
    plan = tiny_eq_plan(8, 100, "3/4", 6, 8)   # 48 | 800 leaves 32 bits
    run = extract_eq(bytes(100), bytes(100), plan)
    list(run)
    assert run.report.stop_reason == "completed"
    assert run.report.x_discarded_tail_bits == 800 - plan.num_blocks * 48 == 32


STOP_CASES = {
    # id: (plan, x bytes, y bytes, max_blocks, stop reason, blocks, x/y discarded)
    "eq-completed": (tiny_eq_plan(8, 100, "3/4", 6, 8), 100, 100, None,
                     "completed", 16, 32, 32),
    "eq-block-limit": (tiny_eq_plan(8, 100, "3/4", 6, 8), 100, 100, 5,
                       "block-limit", 5, 0, 0),
    "eq-input-exhausted": (tiny_eq_plan(8, 100, "3/4", 5, 8), 43, 100, None,
                           "input-exhausted", 8, 43 * 8 - 320, 800 - 320),
    "neq-block-limit": (plan_neq(8, "3/4", 8, 1), 400, 400, 3,
                        "block-limit", 3, 0, 0),
    # n=48: blocks take 384, 768, 1152, 1536 bits; 3200 bits serve three
    "neq-input-exhausted": (plan_neq(8, "3/4", 8, 1), 400, 400, None,
                            "input-exhausted", 3, 3200 - 2304, 3200 - 2304),
    "neq-width-cap": (plan_neq(16, "3/4", 16, 1), 200_000, 200_000, None,
                      "width-cap", 8, 0, 0),
}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_stop_reasons(case):
    plan, x_len, y_len, max_blocks, stop, blocks, x_disc, y_disc = STOP_CASES[case]
    rnd = random.Random(case)
    xb, yb = rnd.randbytes(x_len), rnd.randbytes(y_len)
    if isinstance(plan, EqPlan):
        run = extract_eq(xb, yb, plan, max_blocks=max_blocks)
        bound = error_bound_eq(plan, blocks)
    else:
        run = extract_neq(xb, yb, plan, max_blocks=max_blocks)
        bound = error_bound_neq(plan, blocks)
    assert [c.index for c in run] == list(range(1, blocks + 1))
    rep = run.report
    assert rep.stop_reason == stop
    assert rep.blocks_completed == blocks
    assert (rep.x_discarded_tail_bits, rep.y_discarded_tail_bits) == (x_disc, y_disc)
    assert rep.log2_error_bound == bound


def test_exhausted_run_reads_the_streams_block_by_block():
    # 40-bit windows, one batch of 80 blocks; y ends inside window 4.  A
    # block-by-block reader takes x up to the end of window 4 (it reads x
    # before finding y short) and charges what it took but did not use.
    plan = tiny_eq_plan(8, 400, "3/4", 5, 8)
    assert _batch_size(8, 5) >= plan.num_blocks
    rnd = random.Random(19)
    xb, yb = rnd.randbytes(50), rnd.randbytes(18)
    for step, x_taken in ((1, 20), (3, 21), (7, 21), (64, 50)):
        run = extract_eq(DribbleIO(xb, step), DribbleIO(yb, step), plan)
        assert len(list(run)) == 3
        rep = run.report
        assert rep.stop_reason == "input-exhausted"
        assert (rep.x_bits_consumed, rep.y_bits_consumed) == (160, 120)
        assert rep.x_discarded_tail_bits == 8 * x_taken - 120
        assert rep.y_discarded_tail_bits == 144 - 120


def test_consumer_stopping_early_still_gets_a_report():
    rnd = random.Random(16)
    xb, yb = rnd.randbytes(400), rnd.randbytes(400)
    many = tiny_eq_plan(8, 400, "3/4", 5, 8)   # 80 blocks of 40 bits, one batch
    assert _batch_size(8, 5) >= many.num_blocks
    cases = (
        (extract_eq(xb, yb, tiny_eq_plan(8, 400, "3/4", 5, 8)), 1, 40),
        (extract_neq(xb, yb, plan_neq(8, "3/4", 8, 1)), 1, 8 * 48),
        # closed mid-batch: blocks 4.. are computed but must not count
        (extract_eq(xb, yb, many), 3, 3 * 40),
    )
    for run, taken, consumed in cases:
        chunks = iter(run)
        assert [next(chunks).index for _ in range(taken)] == list(range(1, taken + 1))
        chunks.close()
        assert run.report.blocks_completed == taken
        assert run.report.output_bits == 8 * taken
        assert run.report.stop_reason == "interrupted"
        assert run.report.x_bits_consumed == run.report.y_bits_consumed == consumed
        assert run.report.x_discarded_tail_bits == 0
        assert run.report.y_discarded_tail_bits == 0


def test_stream_with_no_data_ready_interrupts_the_run():
    rnd = random.Random(18)
    plan = tiny_eq_plan(8, 400, "3/4", 5, 8)   # 80 blocks of 5 bytes
    run = extract_eq(NotReadyIO(rnd.randbytes(400), step=100), rnd.randbytes(400), plan)
    with pytest.raises(BlockingIOError):
        run.run(io.BytesIO())
    assert run.report.stop_reason == "interrupted"
    assert run.report.x_discarded_tail_bits == run.report.y_discarded_tail_bits == 0


class FailingSink:
    """Keeps what it is given until its `fail_at`-th write (1-based) raises."""

    def __init__(self, fail_at: int):
        self.data = bytearray()
        self.refused = b""
        self.writes = 0
        self.fail_at = fail_at

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            self.refused = bytes(data)
            raise BrokenPipeError("sink closed")
        self.data += data
        return len(data)


@pytest.mark.parametrize("mode", ["eq", "neq"])
def test_sink_failing_mid_run_leaves_a_prefix_and_an_interrupted_report(mode):
    rnd = random.Random(20)
    xb, yb = rnd.randbytes(32768), rnd.randbytes(32768)
    if mode == "eq":
        # 46 blocks of 80 bits in batches of 20: write 25 falls mid-batch.
        extract, plan = extract_eq, tiny_eq_plan(16, 16384, "10.74/16", 71, 80)
    else:
        # Widths 6, 9, 12, ...: most chunks leave bits pending.
        extract, plan = extract_neq, plan_neq(3, "3/4", 6, 1)
    whole = io.BytesIO()
    extract(xb, yb, plan).run(whole)
    for fail_at in (1, 2, 25):
        sink = FailingSink(fail_at)
        run = extract(xb, yb, plan)
        with pytest.raises(BrokenPipeError):
            run.run(sink)
        rep = run.report
        assert rep.stop_reason == "interrupted" and rep.pad_bits is None
        assert whole.getvalue().startswith(sink.data + sink.refused)
        assert 8 * len(sink.data) <= rep.output_bits
        # Blocks count through the chunk whose bytes were refused.
        assert rep.output_bits // 8 == len(sink.data) + len(sink.refused)
        assert rep.output_bits == sum(
            c.width for c in extract(xb, yb, plan, max_blocks=rep.blocks_completed))


def test_failing_final_flush_reports_interrupted():
    rnd = random.Random(21)
    plan = tiny_eq_plan(8, 300, "3/4", 6, 12)   # 33 blocks of 12 bits: 4 pad bits

    class FlushFails:
        def __init__(self):
            self.data = bytearray()

        def write(self, data):
            self.data += data
            return len(data)

        def flush(self):
            raise OSError("no space left")

    xb, yb = rnd.randbytes(300), rnd.randbytes(300)
    sink = FlushFails()
    run = extract_eq(xb, yb, plan)
    with pytest.raises(OSError):
        run.run(sink)
    rep = run.report
    assert rep.stop_reason == "interrupted" and rep.pad_bits is None
    assert rep.blocks_completed == plan.num_blocks
    assert rep.x_discarded_tail_bits == rep.y_discarded_tail_bits == 0
    whole = io.BytesIO()
    assert extract_eq(xb, yb, plan).run(whole).pad_bits == 4
    assert bytes(sink.data) == whole.getvalue()   # the padded byte went out first


class InjectedFault(Exception):
    pass


class FaultyReader(DribbleIO):
    """A dribbled stream whose `fail_at`-th read (1-based) raises."""

    def __init__(self, data: bytes, step: int, fail_at: int | None):
        super().__init__(data, step)
        self.reads = 0
        self.fail_at = fail_at

    def read(self, size: int) -> bytes:
        self.reads += 1
        if self.reads == self.fail_at:
            raise InjectedFault("read")
        return super().read(size)


class FaultySink:
    """Keeps what it accepts; its `fail_at`-th write, or its flush, raises."""

    def __init__(self, fail_at: int | None = None, fail_flush: bool = False):
        self.data = bytearray()
        self.writes = 0
        self.fail_at = fail_at
        self.fail_flush = fail_flush

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise InjectedFault("write")
        self.data += data
        return len(data)

    def flush(self):
        if self.fail_flush:
            raise InjectedFault("flush")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_fault_anywhere_leaves_a_prefix_and_an_interrupted_report(data):
    mode = data.draw(st.sampled_from(["eq", "neq"]), label="mode")
    q = data.draw(st.integers(1, MAX_FIELD_BITS), label="q")
    n = data.draw(st.integers(1, 40), label="n")
    growth = 0 if mode == "eq" else data.draw(st.integers(0, 3), label="growth")
    blocks = data.draw(st.integers(1, min(2 * _batch_size(q, n) + 1, 48)), label="blocks")
    need = sum(w * n for w in (q + i * growth for i in range(blocks)) if w <= MAX_FIELD_BITS)
    if mode == "eq":
        extract, plan = extract_eq, tiny_eq_plan(1, need, "3/4", n, q)
    else:
        extract, plan = extract_neq, NeqPlan(1, Fraction(3, 4), n, q, growth, None)
    rnd = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    length = (need + 7) // 8 + data.draw(st.integers(0, q * n // 8), label="extra")
    xb, yb = rnd.randbytes(length), rnd.randbytes(length)
    step = data.draw(st.one_of(st.sampled_from(READ_STEPS), st.integers(1, 1 << 20)), label="step")
    fault = data.draw(st.sampled_from(["xread", "yread", "write", "flush"]), label="fault")
    reads = data.draw(st.integers(1, length // step + 2), label="fail_at_read")
    writes = data.draw(st.integers(1, blocks + 1), label="fail_at_write")

    whole = io.BytesIO()
    extract(xb, yb, plan).run(whole)
    sink = FaultySink(writes if fault == "write" else None, fault == "flush")
    run = extract(FaultyReader(xb, step, reads if fault == "xread" else None),
                  FaultyReader(yb, step, reads if fault == "yread" else None), plan)
    try:
        run.run(sink)
    except InjectedFault:
        pass
    else:
        return   # the drawn fault lay beyond the run's last read or write
    rep = run.report
    written = bytes(sink.data)
    assert whole.getvalue().startswith(written)
    assert ExtractionReport.from_text(rep.to_text()) == rep
    assert rep.stop_reason == "interrupted" and rep.pad_bits is None
    assert 8 * len(written) < rep.output_bits + 8
    assert rep.x_bits_consumed == rep.y_bits_consumed == rep.output_bits * plan.vec_len
    assert rep.x_discarded_tail_bits == rep.y_discarded_tail_bits == 0
    if rep.blocks_completed:
        again = list(extract(xb, yb, plan, max_blocks=rep.blocks_completed))
        assert again == list(extract(xb, yb, plan))[:rep.blocks_completed]
        assert sum(c.width for c in again) == rep.output_bits


@pytest.mark.parametrize("ending", ["iterate", "close-mid-batch", "run-no-sink", "run-sink",
                                    "write-fails", "flush-fails"])
@pytest.mark.parametrize("mode", ["eq", "neq"])
def test_a_run_is_finalized_exactly_once(monkeypatch, mode, ending):
    calls = []
    finalize = extractor.Extraction._finalize

    def counting(self, wall):
        calls.append(wall)
        finalize(self, wall)

    monkeypatch.setattr(extractor.Extraction, "_finalize", counting)
    rnd = random.Random(22)
    xb, yb = rnd.randbytes(400), rnd.randbytes(400)
    # One batch of 12-bit blocks in both modes (33 eq, 5 neq), with 4 pad bits.
    if mode == "eq":
        run = extract_eq(xb, yb, tiny_eq_plan(8, 300, "3/4", 6, 12))
    else:
        run = extract_neq(xb, yb, plan_neq(4, "3/4", 12, 0))
    if ending == "iterate":
        list(run)
    elif ending == "close-mid-batch":
        chunks = iter(run)
        next(chunks), next(chunks)
        chunks.close()
    elif ending == "run-no-sink":
        run.run()
    elif ending == "run-sink":
        assert run.run(io.BytesIO()).pad_bits == 4
    elif ending == "write-fails":
        with pytest.raises(BrokenPipeError):
            run.run(FailingSink(2))
    else:
        with pytest.raises(InjectedFault):
            run.run(FaultySink(fail_flush=True))
        rep = run.report
        assert rep.stop_reason == "interrupted" and rep.pad_bits is None
        assert rep.x_discarded_tail_bits == rep.y_discarded_tail_bits == 0
    assert len(calls) == 1


def test_sink_receives_bytes_while_blocks_remain():
    rnd = random.Random(17)
    plan = tiny_eq_plan(16, 16384, "10.74/16", 71, 80)   # 46 blocks
    assert plan.num_blocks > 2 * _batch_size(80, 71)
    xb, yb = rnd.randbytes(32768), rnd.randbytes(32768)

    class RecordingSink(io.BytesIO):
        def write(self, data):
            writes.append((len(data), run.report is None))
            return super().write(data)

    writes = []
    run = extract_eq(xb, yb, plan)
    sink = RecordingSink()
    report = run.run(sink)
    assert writes[0][0] > 0 and writes[0][1]     # written before the run ended
    assert len(writes) >= plan.num_blocks // _batch_size(80, 71)
    whole = io.BytesIO()
    extract_eq(xb, yb, plan).run(whole)
    assert sink.getvalue() == whole.getvalue()
    assert len(sink.getvalue()) * 8 == report.output_bits + report.pad_bits


def test_empty_streams():
    plan = tiny_eq_plan(8, 100, "3/4", 5, 8)
    run = extract_eq(b"", b"", plan)
    assert list(run) == []
    rep = run.report
    assert rep.blocks_completed == 0 and rep.output_bits == 0
    assert rep.log2_error_bound == float("-inf")


def test_report_bound_matches_recomputation():
    rnd = random.Random(8)
    plan = tiny_eq_plan(8, 300, "3/4", 5, 8)
    run = extract_eq(rnd.randbytes(300), rnd.randbytes(300), plan)
    list(run)
    assert run.report.log2_error_bound == error_bound_eq(plan, run.report.blocks_completed)
    nplan = plan_neq(8, "3/4", 8, 1)
    run2 = extract_neq(rnd.randbytes(400), rnd.randbytes(400), nplan)
    list(run2)
    assert run2.report.log2_error_bound == error_bound_neq(nplan, run2.report.blocks_completed)


def test_report_text_round_trip():
    plan = tiny_eq_plan(8, 300, "3/4", 5, 8)
    rnd = random.Random(8)
    run = extract_eq(rnd.randbytes(300), rnd.randbytes(300), plan)
    sink = io.BytesIO()
    rep = run.run(sink)
    parsed = ExtractionReport.from_text(rep.to_text())
    assert parsed == rep
    assert rep.pad_bits == (-rep.output_bits) % 8
    assert len(sink.getvalue()) * 8 == rep.output_bits + rep.pad_bits


# ---------- the batched engine against the scalar reference ----------

READ_STEPS = [1, 2, 3, 7, 100, 4096, READ_SIZE - 1, READ_SIZE, READ_SIZE + 1, 1 << 20]


def _elements(data, offset, width, n):
    """The n width-bit elements starting at bit `offset` of `data`."""
    first, shift = divmod(offset, 8)
    value = int.from_bytes(data[first:first + (shift + width * n + 7) // 8], "little") >> shift
    return unpack_values(value.to_bytes((width * n + 7) // 8 + 1, "little"), width, n)


def _bytes_taken(length, step, targets):
    """Bytes a block-by-block reader takes from a `length`-byte stream served
    at most `step` bytes per read, asked in turn for each cumulative bit target."""
    total = 0
    for target in targets:
        while 8 * total < target and total < length:
            total += min(max(READ_SIZE, (target - 8 * total + 7) // 8), step, length - total)
    return total


def _reference_run(plan, xb, yb, steps, max_blocks):
    """Chunks and report counters by the scalar rules, one block at a time."""
    n = plan.vec_len
    if isinstance(plan, EqPlan):
        planned, planned_bits = plan.num_blocks, plan.num_samples * plan.bits_per_sample
        width_of = lambda i: plan.field_bits
    else:
        planned, planned_bits = None, None
        width_of = plan.field_bits_for_block
    limits = [v for v in (planned, max_blocks) if v is not None]
    limit = min(limits) if limits else None
    chunks, used, targets = [], 0, []
    while True:
        if limit is not None and len(chunks) == limit:
            stop = "completed" if limit == planned else "block-limit"
            break
        width = width_of(len(chunks) + 1)
        if width > MAX_FIELD_BITS:
            stop = "width-cap"
            break
        window = width * n
        targets.append(used + window)
        ok = [8 * len(d) >= used + window for d in (xb, yb)]
        if not all(ok):
            # x is read before y, and each read that succeeds consumes its window
            consumed = [used + window if o else used for o in ok]
            stop = "input-exhausted"
            break
        value = ext_ip(field(width), _elements(xb, used, width, n), _elements(yb, used, width, n))
        chunks.append((len(chunks) + 1, value, width))
        used += window
    if stop == "input-exhausted":
        discarded = [8 * _bytes_taken(len(d), step, targets) - used
                     for d, step in zip((xb, yb), steps)]
    else:
        consumed = [used, used]
        remainder = planned_bits - used if stop == "completed" and planned_bits else 0
        discarded = [remainder, remainder]
    return chunks, stop, consumed, discarded


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batched_engine_matches_scalar_reference(data):
    mode = data.draw(st.sampled_from(["eq", "neq"]), label="mode")
    q = data.draw(st.integers(1, MAX_FIELD_BITS), label="q")
    n = data.draw(st.integers(1, 80), label="n")
    growth = 0 if mode == "eq" else data.draw(st.integers(0, 3), label="growth")
    batch = _batch_size(q, n)
    if growth == 0 and batch <= 600:   # straddle the batch boundary
        blocks = max(1, data.draw(st.sampled_from([batch - 1, batch, batch + 1, 2 * batch + 1])))
    else:
        blocks = data.draw(st.integers(1, 6))
    windows = [w * n for w in (q + i * growth for i in range(blocks)) if w <= MAX_FIELD_BITS]
    need = sum(windows)
    window = windows[0]
    enough, short = st.integers(0, window - 1), st.integers(-window, -1)
    if mode == "eq":
        samples = max(1, need + data.draw(st.one_of(enough, enough, short), label="extra"))
        plan = tiny_eq_plan(1, samples, "3/4", n, q)
    else:
        plan = NeqPlan(1, Fraction(3, 4), n, q, growth, None)
    y_len = max(0, need + data.draw(st.one_of(enough, enough, short), label="y_extra")) // 8
    longer = y_len + window // 8 + 1 + data.draw(st.integers(0, window // 4))  # > one window
    x_len = data.draw(st.sampled_from([y_len, y_len, longer, longer, max(0, y_len - 1 - window // 8)]),
                      label="x_len")
    rnd = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    xb, yb = rnd.randbytes(x_len), rnd.randbytes(y_len)
    steps = (data.draw(st.sampled_from(READ_STEPS)), data.draw(st.sampled_from(READ_STEPS)))
    max_blocks = data.draw(st.one_of(st.none(), st.none(), st.integers(1, blocks + 1)),
                           label="max_blocks")
    extract = extract_eq if mode == "eq" else extract_neq

    chunks, stop, consumed, discarded = _reference_run(plan, xb, yb, steps, max_blocks)
    run = extract(DribbleIO(xb, steps[0]), DribbleIO(yb, steps[1]), plan, max_blocks=max_blocks)
    assert [(c.index, c.bits, c.width) for c in run] == chunks
    sink = io.BytesIO()
    rep = extract(DribbleIO(xb, steps[0]), DribbleIO(yb, steps[1]), plan,
                  max_blocks=max_blocks).run(sink)
    rep.wall_time_s = run.report.wall_time_s = 0.0
    run.report.pad_bits = rep.pad_bits   # only run() packs
    assert rep == run.report
    assert rep.stop_reason == stop
    assert rep.blocks_completed == len(chunks)
    assert rep.output_bits == sum(w for _, _, w in chunks)
    assert [rep.x_bits_consumed, rep.y_bits_consumed] == consumed
    assert [rep.x_discarded_tail_bits, rep.y_discarded_tail_bits] == discarded
    bits = sum(v << off for v, off in zip(
        (v for _, v, _ in chunks), [sum(w for *_, w in chunks[:i]) for i in range(len(chunks))]))
    assert sink.getvalue() == bits.to_bytes((rep.output_bits + 7) // 8, "little")
    assert rep.pad_bits == (-rep.output_bits) % 8


def test_one_block_near_rate_one_half_matches_scalar_reference():
    # n = ceil(24 / (2*rate - 1)) grows without bound as rate -> 1/2; the
    # engine decodes and multiplies the window in pieces.
    n = plan_neq(1, "0.5005", 80, 1).vec_len
    assert n == 24000
    plan = tiny_eq_plan(1, 80 * n, "0.5005", n, 80)
    rnd = random.Random(18)
    xb, yb = rnd.randbytes(10 * n), rnd.randbytes(10 * n)
    tracemalloc.start()
    try:
        chunks = list(extract_eq(xb, yb, plan))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Decoding both whole windows at once would take 2*80*n bytes = 3.84 MB.
    assert peak < 2_000_000
    assert len(chunks) == 1
    assert chunks[0].bits == ext_ip(field(80), unpack_values(xb, 80, n), unpack_values(yb, 80, n))


# ---------- memory and the batch workspace ----------

class LazyStream:
    """`total` pseudo-random bytes, generated as they are read."""

    def __init__(self, total, seed):
        self._left = total
        self._rnd = random.Random(seed)

    def read(self, size):
        size = min(size, self._left)
        self._left -= size
        return self._rnd.randbytes(size)


class NullSink:
    def write(self, data):
        return len(data)


def _traced_peak(extract, plan, nbytes):
    """tracemalloc peak of a whole run over two lazy streams of nbytes each."""
    run = extract(LazyStream(nbytes, 1), LazyStream(nbytes, 2), plan)
    tracemalloc.start()
    try:
        report = run.run(NullSink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, report


@pytest.mark.parametrize("mode", ["eq", "neq"])
def test_memory_does_not_grow_with_input_length(mode):
    # The q=80 headline plan, and incremental mode with growth 0 at the same
    # width: both run until the input is exhausted.
    if mode == "eq":
        extract, plan = extract_eq, plan_eq(16, 2**47, "10.74/16", "2^-30")
        assert (plan.vec_len, plan.field_bits) == (71, 80)
    else:
        extract, plan = extract_neq, plan_neq(16, "10.74/16", 80, 0)
        assert plan.vec_len == 71
    _traced_peak(extract, plan, 1 << 16)   # fills the caches both runs share
    small, small_report = _traced_peak(extract, plan, 1 << 20)
    large, large_report = _traced_peak(extract, plan, 8 << 20)
    assert large_report.blocks_completed >= 8 * small_report.blocks_completed - 1
    assert abs(large - small) <= 64 * 1024, (small, large)


def test_one_workspace_per_run_of_equal_widths(monkeypatch):
    built = []

    class CountingWorkspace(extractor._Workspace):
        def __init__(self, blocks, q, n):
            built.append((blocks, q))
            super().__init__(blocks, q, n)

    monkeypatch.setattr(extractor, "_Workspace", CountingWorkspace)
    rnd = random.Random(19)
    batch = _batch_size(80, 71)
    blocks = 3 * batch + 7                           # three full batches and a short one
    window_bytes = 80 * 71 // 8
    plan = tiny_eq_plan(16, blocks * 80 * 71 // 16, "10.74/16", 71, 80)
    longer = tiny_eq_plan(16, 2 * blocks * 80 * 71 // 16, "10.74/16", 71, 80)
    xb, yb = rnd.randbytes(blocks * window_bytes), rnd.randbytes(blocks * window_bytes)
    for eq_plan, stop in ((plan, "completed"), (longer, "input-exhausted")):
        built.clear()
        report = extract_eq(xb, yb, eq_plan).run(io.BytesIO())
        assert (report.blocks_completed, report.stop_reason) == (blocks, stop)
        assert built == [(batch, 80)]
    built.clear()
    nplan = plan_neq(8, "3/4", 8, 1)
    report = extract_neq(rnd.randbytes(4000), rnd.randbytes(4000), nplan).run(io.BytesIO())
    assert report.blocks_completed > 3
    assert built == [(1, 8 + 8 * i) for i in range(report.blocks_completed)]


# ---------- equivalence of the two modes ----------

def test_neq_growth_zero_equals_eq():
    rnd = random.Random(12)
    for trial in range(50):
        b = rnd.choice([1, 2, 4, 8])
        eq_plan = plan_eq(b, rnd.randrange(200, 2000), "3/4",
                          Fraction(1, 1 << rnd.randrange(1, 10)))
        if eq_plan.field_bits > 128 or eq_plan.num_blocks == 0:
            continue
        nbytes = (eq_plan.num_samples * b + 7) // 8
        xb, yb = rnd.randbytes(nbytes), rnd.randbytes(nbytes)
        neq_plan = plan_neq(b, "3/4", eq_plan.field_bits, 0)
        eq_out = io.BytesIO()
        extract_eq(xb, yb, eq_plan).run(eq_out)
        neq_out = io.BytesIO()
        extract_neq(xb, yb, neq_plan, max_blocks=eq_plan.num_blocks).run(neq_out)
        assert eq_out.getvalue() == neq_out.getvalue()


# ---------- the workers argument ----------

def test_parallel_output_matches_sequential():
    rnd = random.Random(13)
    plan = tiny_eq_plan(8, 1000, "3/4", 4, 8)
    xb, yb = rnd.randbytes(1000), rnd.randbytes(1000)
    outputs = []
    for workers in (1, 2, 8):
        buf = io.BytesIO()
        extract_eq(xb, yb, plan, workers=workers).run(buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1] == outputs[2]


def test_workers_validated_at_call_time():
    plan = tiny_eq_plan(1, 2, 1, 2, 1)
    with pytest.raises(ValueError):
        extract_eq(bytes([0b11]), bytes([0b11]), plan, workers=0)
    with pytest.raises(ValueError):
        extract_neq(b"", b"", plan_neq(1, "3/4", 1, 1), workers=0)


def test_max_blocks_validated_at_call_time():
    plan = tiny_eq_plan(1, 2, 1, 2, 1)
    for max_blocks in (0, -3):
        with pytest.raises(ValueError, match="max_blocks"):
            extract_eq(bytes([0b11]), bytes([0b11]), plan, max_blocks=max_blocks)
        with pytest.raises(ValueError, match="max_blocks"):
            extract_neq(b"", b"", plan_neq(1, "3/4", 1, 1), max_blocks=max_blocks)


def test_extraction_is_single_use():
    plan = tiny_eq_plan(1, 2, 1, 2, 1)
    run = extract_eq(bytes([0b11]), bytes([0b11]), plan)
    list(run)
    with pytest.raises(RuntimeError):
        list(run)


def test_repeated_runs_identical():
    rnd = random.Random(15)
    plan = tiny_eq_plan(8, 400, "3/4", 5, 8)
    xb, yb = rnd.randbytes(400), rnd.randbytes(400)
    first = [c.bits for c in extract_eq(xb, yb, plan)]
    second = [c.bits for c in extract_eq(xb, yb, plan)]
    assert first == second
