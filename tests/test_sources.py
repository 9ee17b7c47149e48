"""Simulator determinism, framing, and min-entropy certificates."""

import math
import os
import threading

import numpy as np
import pytest

from blockext.errors import (
    InfeasibleError,
    TruncatedSourceError,
    UncertifiableError,
    UnsupportedRateError,
)
from blockext.params import plan_eq
from blockext.sources import (
    certify_forward_block,
    file_source,
    generate,
    iid_biased,
    iid_table,
    joint_table,
    markov,
    parse_model,
    sample_chunks,
)


def test_generate_is_deterministic():
    model = iid_biased(0.5, seed=99)
    a = generate(model, 4096)
    b = generate(model, 4096)
    assert a == b
    assert generate(iid_biased(0.5, seed=100), 4096) != a


def test_sample_packing_is_lsb_first():
    # Two 3-bit samples 1 and 2 occupy stream bits 0..2 and 3..5.
    model = iid_table([0, 1.0, 0, 0, 0, 0, 0, 0], 3, seed=0)
    data = generate(model, 2)
    assert data == bytes([0b001001])
    from blockext.sources import _pack_samples

    assert _pack_samples(np.array([1, 2], dtype=np.uint64), 3) == bytes([0b010001])


def test_uniform_table_has_full_rate():
    model = iid_table(np.full(1 << 16, 2.0 ** -16), 16, seed=1)
    cert = certify_forward_block(model)
    assert cert.rate == 1.0 and cert.method == "analytic"


@pytest.mark.parametrize("b", [1, 8, 20])
def test_uniform_model_equals_the_explicit_uniform_table(b):
    count = (1 << 16) + 1  # two chunks, the second one sample long
    model = parse_model({"kind": "uniform", "b": b, "seed": 40 + b})
    table = iid_table(np.full(1 << b, 2.0 ** -b), b, seed=40 + b)
    assert generate(model, count) == generate(table, count)
    assert certify_forward_block(model) == certify_forward_block(table)


def test_biased_rate_and_planner_rejection():
    model = iid_biased(0.75, seed=0)
    cert = certify_forward_block(model)
    assert cert.rate == pytest.approx(0.41503749927884384, abs=1e-12)
    assert cert.worst_guess_prob == 0.75
    with pytest.raises(UnsupportedRateError):
        plan_eq(1, 2**20, "415037499278844/1000000000000000", "2^-20")


def test_point_mass_has_zero_rate():
    table = np.zeros(4)
    table[2] = 1.0
    cert = certify_forward_block(iid_table(table, 2))
    assert cert.rate == 0.0


def test_flagship_like_table_rate():
    # One 16-bit outcome carries the 2^-10.74 worst-case mass.
    pmax = 2.0 ** -10.74
    table = np.full(1 << 16, (1.0 - pmax) / ((1 << 16) - 1))
    table[0] = pmax
    cert = certify_forward_block(iid_table(table, 16, seed=3))
    assert cert.rate == pytest.approx(10.74 / 16, abs=1e-9)


def test_markov_certificate_is_max_transition():
    t = np.array([[0.7, 0.3], [0.4, 0.6]])
    cert = certify_forward_block(markov(t, 1, seed=4))
    assert cert.rate == pytest.approx(-math.log2(0.7), abs=1e-12)
    assert cert.worst_guess_prob == 0.7
    data = generate(markov(t, 1, seed=4), 2000)
    assert data == generate(markov(t, 1, seed=4), 2000)


def test_exhaustive_matches_analytic_on_iid_truncations():
    rng = np.random.default_rng(7)
    for b in (1, 2, 3):
        p = rng.random(1 << b) + 0.05
        p /= p.sum()
        analytic = certify_forward_block(iid_table(p, b)).rate
        for m in (1, 2, 3):
            probs = p.copy()
            joint = probs
            for _ in range(m - 1):
                joint = np.multiply.outer(joint, probs)
            cert = certify_forward_block(joint_table(joint, b))
            assert cert.method == "exhaustive"
            assert cert.rate == pytest.approx(analytic, abs=1e-12)


def test_constant_first_sample_gives_zero_rate():
    # Second sample uniform, but the k=1, i=1 window has no entropy.
    joint = np.zeros((4, 4))
    joint[1, :] = 0.25
    cert = certify_forward_block(joint_table(joint, 2))
    assert cert.rate == 0.0 and cert.worst_guess_prob == 1.0


def test_window_of_iid_stream_keeps_rate():
    # Any contiguous window of an i.i.d. joint keeps the per-sample rate.
    p = np.array([0.5, 0.25, 0.125, 0.125])
    full = np.multiply.outer(np.multiply.outer(p, p), p)
    rate3 = certify_forward_block(joint_table(full, 2)).rate
    rate2 = certify_forward_block(joint_table(np.multiply.outer(p, p), 2)).rate
    rate1 = certify_forward_block(joint_table(p, 2)).rate
    assert rate3 == pytest.approx(rate2, abs=1e-12)
    assert rate2 == pytest.approx(rate1, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        iid_table([0.5, 0.6], 1)          # sums past 1
    with pytest.raises(ValueError):
        iid_table([1.5, -0.5], 1)         # negative entry
    with pytest.raises(ValueError):
        iid_table([0.5, 0.5], 2)          # wrong length
    with pytest.raises(ValueError):
        iid_biased(1.5)
    with pytest.raises(ValueError):
        markov(np.eye(3), 1)              # not 2^b states
    with pytest.raises(ValueError):
        generate(iid_biased(0.5), 0)


@pytest.mark.parametrize("b", [0, -1, 65, 99])
def test_factories_refuse_a_sample_width_outside_1_to_64(tmp_path, b):
    factories = [
        lambda: iid_table([1.0], b),
        lambda: markov([[1.0]], b),
        lambda: joint_table([1.0], b),
        lambda: file_source(str(tmp_path / "raw.bin"), b),
    ]
    for factory in factories:
        with pytest.raises(ValueError, match="bits per sample must be in 1..64"):
            factory()


def test_file_source_round_trip(tmp_path):
    path = tmp_path / "raw.bin"
    payload = bytes(range(64))
    path.write_bytes(payload)
    model = file_source(str(path), 16)
    assert generate(model, 32) == payload
    assert generate(model, 8) == payload[:16]
    with pytest.raises(TruncatedSourceError):
        generate(model, 33)
    with pytest.raises(UncertifiableError):
        certify_forward_block(model)


def test_file_source_partial_final_byte(tmp_path):
    path = tmp_path / "raw.bin"
    path.write_bytes(bytes([0xFF]))
    data = generate(file_source(str(path), 3), 2)   # 6 bits used
    assert data == bytes([0b00111111])


def test_file_source_is_sized_first_and_read_by_chunks(tmp_path):
    # 2^16 samples are one chunk: at b = 3 that is 24,576 bytes, and three
    # more samples start a second chunk of 2 bytes, the last keeping 1 bit.
    # A regular file too short is refused by its length, before any chunk.
    path = tmp_path / "raw.bin"
    payload = np.random.default_rng(8).bytes(24_577) + bytes([0xFF] * 3)
    path.write_bytes(payload)
    chunks = list(sample_chunks(file_source(str(path), 3), 2**16 + 3))
    assert chunks == [payload[:24_576], payload[24_576:24_577] + bytes([0b1])]
    with pytest.raises(TruncatedSourceError):
        sample_chunks(file_source(str(path), 3), 2**16 + 12)


def test_file_source_from_a_pipe_is_one_read(tmp_path):
    # A pipe cannot be sized by fstat, so it is read whole, then checked.
    path = tmp_path / "raw.fifo"
    os.mkfifo(path)
    payload = bytes(range(100))
    writer = threading.Thread(target=path.write_bytes, args=(payload,))
    writer.start()
    chunks = list(sample_chunks(file_source(str(path), 3), 201))   # 603 bits
    writer.join()
    assert chunks == [payload[:75] + bytes([payload[75] & 0b111])]


def test_joint_infeasible_limits():
    with pytest.raises(InfeasibleError):
        certify_forward_block(joint_table(np.full((2,) * 4, 1 / 16), 1))
    big = np.full((32, 32), 1 / 1024.0)
    with pytest.raises(InfeasibleError):
        certify_forward_block(joint_table(big, 5))
    with pytest.raises(ValueError):
        generate(joint_table(np.full((2, 2), 0.25), 1), 4)


def test_parse_model_kinds(tmp_path):
    m = parse_model({"kind": "iid-biased", "p": 0.25, "seed": 5})
    assert m.kind == "iid-biased" and m.p == 0.25 and m.seed == 5
    m = parse_model({"kind": "uniform", "b": 4})
    assert m.kind == "uniform" and m.table is None
    m = parse_model({"kind": "markov", "b": 1,
                     "transitions": [[0.9, 0.1], [0.2, 0.8]]})
    assert m.kind == "markov"
    m = parse_model({"kind": "joint", "b": 1, "probs": [0.25, 0.25, 0.25, 0.25]})
    assert m.table.shape == (2, 2)
    path = tmp_path / "x.bin"
    path.write_bytes(b"ab")
    m = parse_model({"kind": "file", "b": 8, "path": str(path)})
    assert generate(m, 2) == b"ab"
    with pytest.raises(ValueError):
        parse_model({"kind": "nope"})
