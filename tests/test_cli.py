"""Command-line behavior: formats, round trips, exit codes."""

import json
import os
import sys
from types import SimpleNamespace

import pytest

from blockext import cli
from blockext.cli import main
from blockext.report import ExtractionReport, parse_document, plan_from_text
from tests.test_bitio import NotReadyIO


def run_cli(*argv):
    return main(list(argv))


def test_params_prints_flagship_plan(capsys):
    assert run_cli("params", "--b", "16", "--delta", "10.74/16",
                   "--N", "2^47", "--epsilon", "2^-30") == 0
    plan = plan_from_text(capsys.readouterr().out)
    assert plan.vec_len == 71 and plan.field_bits == 80


def test_params_n_bits_flag(capsys):
    assert run_cli("params", "--b", "16", "--delta", "10.74/16",
                   "--N-bits", "2^51", "--epsilon", "2^-30") == 0
    plan = plan_from_text(capsys.readouterr().out)
    assert plan.num_samples == 2**47 and plan.field_bits == 80


def test_params_n_bits_divisibility(capsys):
    assert run_cli("params", "--b", "16", "--delta", "10.74/16",
                   "--N-bits", "1001", "--epsilon", "2^-30") == 2


def test_params_exit_codes(capsys):
    assert run_cli("params", "--b", "16", "--delta", "1/2",
                   "--N", "2^40", "--epsilon", "2^-30") == 4
    assert run_cli("params", "--b", "16", "--delta", "0.51",
                   "--N", "2^500", "--epsilon", "2^-300") == 3
    assert run_cli("params", "--b", "16", "--delta", "3/4",
                   "--N", "2^40", "--epsilon", "2") == 2


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("verify", "--suite", "nope")
    assert exc_info.value.code == 2


def _write_uniform_config(tmp_path, b=8, seed=1):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"kind": "uniform", "b": b, "seed": seed}))
    return str(cfg)


def test_simulate_extract_round_trip(tmp_path, capsys):
    cfg = _write_uniform_config(tmp_path)
    x = tmp_path / "x.bin"
    y = tmp_path / "y.bin"
    assert run_cli("simulate", "--config", str(cfg), "--count", "2^12",
                   "--out", str(x), "--seed", "11") == 0
    sim_doc = capsys.readouterr().out
    kind, fields = parse_document(sim_doc)
    assert kind == "simulation"
    assert fields["certified_rate"] == "1.0"
    assert x.stat().st_size == 4096
    assert run_cli("simulate", "--config", str(cfg), "--count", "2^12",
                   "--out", str(y), "--seed", "12") == 0
    capsys.readouterr()

    out1 = tmp_path / "z1.bin"
    rep1_path = tmp_path / "rep1.txt"
    assert run_cli("extract-eq", "--x", str(x), "--y", str(y), "--out", str(out1),
                   "--b", "8", "--delta", "3/4", "--epsilon", "2^-8",
                   "--report", str(rep1_path)) == 0
    rep1 = ExtractionReport.from_text(rep1_path.read_text())
    assert rep1.blocks_completed == rep1.plan.num_blocks > 0
    assert rep1.output_bits == rep1.blocks_completed * rep1.plan.field_bits
    # the reported bound must match an independent recomputation from the echo
    from blockext.params import error_bound_eq

    assert rep1.log2_error_bound == error_bound_eq(rep1.plan, rep1.blocks_completed)

    # identical flags -> byte-identical output and report modulo wall time
    out2 = tmp_path / "z2.bin"
    rep2_path = tmp_path / "rep2.txt"
    assert run_cli("extract-eq", "--x", str(x), "--y", str(y), "--out", str(out2),
                   "--b", "8", "--delta", "3/4", "--epsilon", "2^-8",
                   "--report", str(rep2_path)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep2 = ExtractionReport.from_text(rep2_path.read_text())
    rep2.wall_time_s = rep1.wall_time_s
    assert rep1 == rep2


def test_extract_neq_growth_zero_matches_eq(tmp_path, capsys):
    cfg = _write_uniform_config(tmp_path, seed=3)
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    run_cli("simulate", "--config", str(cfg), "--count", "4000", "--out", str(x), "--seed", "1")
    run_cli("simulate", "--config", str(cfg), "--count", "4000", "--out", str(y), "--seed", "2")
    capsys.readouterr()
    eq_out, neq_out = tmp_path / "eq.bin", tmp_path / "neq.bin"
    assert run_cli("extract-eq", "--x", str(x), "--y", str(y), "--out", str(eq_out),
                   "--b", "8", "--delta", "3/4", "--epsilon", "2^-8") == 0
    eq_doc = capsys.readouterr().out
    q = int(parse_document(eq_doc)[1]["plan.field_bits"])
    blocks = parse_document(eq_doc)[1]["blocks_completed"]
    assert run_cli("extract-neq", "--x", str(x), "--y", str(y), "--out", str(neq_out),
                   "--b", "8", "--delta", "3/4", "--q1", str(q), "--growth", "0",
                   "--max-blocks", blocks) == 0
    capsys.readouterr()
    assert eq_out.read_bytes() == neq_out.read_bytes()


def test_extract_empty_inputs(tmp_path, capsys):
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(b"")
    y.write_bytes(b"")
    out = tmp_path / "z.bin"
    assert run_cli("extract-eq", "--x", str(x), "--y", str(y), "--out", str(out),
                   "--b", "8", "--delta", "3/4", "--epsilon", "2^-8",
                   "--N", "1024") == 0
    _, fields = parse_document(capsys.readouterr().out)
    assert fields["blocks_completed"] == "0"
    assert out.stat().st_size == 0


def test_extract_missing_input_is_io_error(tmp_path, capsys):
    y = tmp_path / "y.bin"
    y.write_bytes(b"\x00" * 10)
    assert run_cli("extract-eq", "--x", str(tmp_path / "nope.bin"), "--y", str(y),
                   "--out", str(tmp_path / "z.bin"),
                   "--b", "8", "--delta", "3/4", "--epsilon", "2^-8") == 5


EQ_FLAGS = ("extract-eq", "--b", "8", "--delta", "3/4", "--epsilon", "2^-8")
NEQ_FLAGS = ("extract-neq", "--b", "8", "--delta", "3/4", "--q1", "8")


@pytest.mark.parametrize("flags", [EQ_FLAGS, NEQ_FLAGS], ids=["eq", "neq"])
def test_extract_closes_x_when_y_cannot_be_opened(tmp_path, monkeypatch, flags):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(1024))
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert run_cli(*flags, "--x", str(x), "--y", str(tmp_path),
                   "--out", str(tmp_path / "z.bin")) == 5
    assert opened and all(fh.closed for fh in opened)


def test_extract_from_a_stream_with_no_data_ready_is_io_error(tmp_path, monkeypatch, capsys):
    y = tmp_path / "y.bin"
    y.write_bytes(bytes(range(256)) * 8)
    # A non-blocking standard input: one byte, then no data ready yet.
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=NotReadyIO(b"\x5a" * 64)))
    assert run_cli(*EQ_FLAGS, "--N-bits", "2^14", "--x", "-", "--y", str(y),
                   "--out", str(tmp_path / "z.bin")) == 5
    assert "no data ready" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [EQ_FLAGS, NEQ_FLAGS], ids=["eq", "neq"])
def test_extract_refuses_self_pairing(tmp_path, capsys, flags):
    x = tmp_path / "x.bin"
    x.write_bytes(bytes(range(256)) * 8)
    link = tmp_path / "link.bin"
    os.link(x, link)
    out = tmp_path / "z.bin"
    for y in (x, link):
        assert run_cli(*flags, "--x", str(x), "--y", str(y), "--out", str(out)) == 2
        assert "same file" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flags", [EQ_FLAGS, NEQ_FLAGS], ids=["eq", "neq"])
def test_extract_rejects_zero_workers(tmp_path, capsys, flags):
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(bytes(1024))
    y.write_bytes(bytes(1024))
    out = tmp_path / "z.bin"
    assert run_cli(*flags, "--x", str(x), "--y", str(y), "--out", str(out),
                   "--workers", "0") == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_file_model_uncertifiable(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(64))
    cfg = tmp_path / "file_model.json"
    cfg.write_text(json.dumps({"kind": "file", "b": 8, "path": str(raw)}))
    assert run_cli("simulate", "--config", str(cfg), "--count", "64",
                   "--out", str(tmp_path / "copy.bin")) == 0
    _, fields = parse_document(capsys.readouterr().out)
    assert "uncertifiable" in fields["certificate"]


def test_simulate_markov_certificate(tmp_path, capsys):
    cfg = tmp_path / "markov.json"
    cfg.write_text(json.dumps({
        "kind": "markov", "b": 1, "seed": 9,
        "transitions": [[0.6, 0.4], [0.3, 0.7]],
    }))
    assert run_cli("simulate", "--config", str(cfg), "--count", "2^10",
                   "--out", str(tmp_path / "m.bin")) == 0
    _, fields = parse_document(capsys.readouterr().out)
    assert fields["certificate_method"] == "analytic"
    assert abs(float(fields["certified_rate"]) - 0.5145731728297583) < 1e-12


def test_simulate_truncated_file_is_io_error(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(4))
    cfg = tmp_path / "file_model.json"
    cfg.write_text(json.dumps({"kind": "file", "b": 8, "path": str(raw)}))
    assert run_cli("simulate", "--config", str(cfg), "--count", "64",
                   "--out", str(tmp_path / "copy.bin")) == 5


def test_verify_fast_suites(tmp_path, capsys):
    assert run_cli("verify", "--suite", "bijection") == 0
    out = capsys.readouterr().out
    assert "failures = 0" in out
    assert run_cli("verify", "--suite", "xor") == 0
    capsys.readouterr()
    report = tmp_path / "verify.txt"
    assert run_cli("verify", "--suite", "hadamard", "--max-bits", "6",
                   "--report", str(report)) == 0
    assert "failures = 0" in report.read_text()


def test_verify_distance_and_bias_small(capsys):
    assert run_cli("verify", "--suite", "distance", "--max-bits", "4") == 0
    assert "PASS" in capsys.readouterr().out
    assert run_cli("verify", "--suite", "bias", "--max-bits", "4") == 0
    assert "PASS" in capsys.readouterr().out


def test_bench_cost_and_zero_lane_exit(capsys):
    assert run_cli("bench", "cost") == 0
    _, fields = parse_document(capsys.readouterr().out)
    assert fields["block_ops"] == "352435"
    assert fields["lanes"] == "4"
    assert fields["gigabits_per_second"] == "64.0"
    assert run_cli("bench", "cost", "--ops-per-lut", "1") == 3


def test_bench_throughput(capsys):
    assert run_cli("bench", "throughput", "--b", "8", "--delta", "3/4",
                   "--epsilon", "2^-8", "--N", "4096",
                   "--duration", "0.2") == 0
    _, fields = parse_document(capsys.readouterr().out)
    assert float(fields["output_bits_per_second"]) > 0
