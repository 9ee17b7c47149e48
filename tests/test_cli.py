"""Command-line behavior: formats, round trips, exit codes."""

import io
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from blockext import cli
from blockext.cli import main
from blockext.errors import (
    CapacityError,
    DivergenceError,
    InfeasibleError,
    TruncatedSourceError,
    UncertifiableError,
    UnsupportedRateError,
    VerificationError,
)
from blockext.extractor import extract_eq, extract_neq
from blockext.params import plan_eq
from blockext.report import ExtractionReport, parse_document, plan_from_text
from tests.test_bitio import NotReadyIO


def run_cli(*argv):
    return main(list(argv))


@pytest.mark.parametrize("command", ["extract-eq", "extract-neq"])
def test_extract_commands_document_every_flag(command):
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
    flags = {a.option_strings[-1]: a.help for a in commands.choices[command]._actions}
    assert {"--x", "--y", "--out", "--b", "--delta", "--max-blocks", "--workers",
            "--report"} <= set(flags)
    assert all(flags.values()), flags


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
    assert run_cli("params", "--b", "16", "--delta", "1/0",
                   "--N", "2^40", "--epsilon", "2^-30") == 2
    assert run_cli("params", "--b", "16", "--delta", "3/4",
                   "--N", "2^-1", "--epsilon", "2^-30") == 2


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


STARTUP_CHECK = """
import gc, sys
from blockext import cli

x, y, out, report = sys.argv[1:]
files = ["--x", x, "--y", y, "--out", out, "--report", report]
lazy = ("blockext.verify", "blockext.sources", "blockext.bench", "json")
for flags in {flags!r}:
    assert cli.main([*flags, *files]) == 0
    print(sorted(m for m in lazy if m in sys.modules))
assert cli.main(["verify", "--suite", "bijection", "--max-bits", "3", "--report", report]) == 0
print("blockext.verify" in sys.modules, gc.get_freeze_count())
sys.argv = ["blockext", "bench", "cost", "--ops-per-lut", "1", "--report", report]
print(cli.run(), gc.get_freeze_count() > 0)
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # In a fresh process: the extract commands import neither the oracles,
    # the simulators, the cost models nor json; verify imports its oracles;
    # main never freezes the collector, and the process entry does.
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(bytes(range(256)) * 8)
    y.write_bytes(bytes(range(255, -1, -1)) * 8)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    script = STARTUP_CHECK.format(flags=[(*EQ_FLAGS, "--N", "1024"), (*NEQ_FLAGS, "--growth", "1")])
    done = subprocess.run([sys.executable, "-c", script, str(x), str(y), str(tmp_path / "z.bin"),
                           str(tmp_path / "r.txt")], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]", "True 0", "3 True"]


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
    report = tmp_path / "r.txt"
    assert run_cli(*EQ_FLAGS, "--N-bits", "2^14", "--x", "-", "--y", str(y),
                   "--out", str(tmp_path / "z.bin"), "--report", str(report)) == 5
    assert "no data ready" in capsys.readouterr().err
    # The run had started, so the report it made is still written.
    rep = ExtractionReport.from_text(report.read_text())
    assert rep.stop_reason == "interrupted" and rep.pad_bits is None


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_extract_to_a_full_device_reports_interrupted(tmp_path, capsys):
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(bytes(range(250)) * 4)
    y.write_bytes(bytes(range(5, 255)) * 4)
    report = tmp_path / "r.txt"
    # 12 output bytes in one batch: its one write fails.
    assert run_cli("extract-eq", "--x", str(x), "--y", str(y), "--out", "/dev/full",
                   "--b", "16", "--delta", "10.74/16", "--epsilon", "2^-20",
                   "--N", "2^9", "--report", str(report)) == 5
    assert "No space left" in capsys.readouterr().err
    rep = ExtractionReport.from_text(report.read_text())
    assert (rep.blocks_completed, rep.output_bits) == (3, 96)
    assert rep.stop_reason == "interrupted" and rep.pad_bits is None


@pytest.mark.parametrize("argv", [
    ("params", "--N-bits", "64", "--epsilon", "2^-8"),
    ("extract-eq", "--N-bits", "64", "--epsilon", "2^-8"),
    ("extract-eq", "--epsilon", "2^-8"),
    ("bench", "throughput", "--N-bits", "64", "--epsilon", "2^-8"),
], ids=["params", "extract-eq-N-bits", "extract-eq-inferred-N", "bench-throughput"])
def test_zero_bits_per_sample_is_usage_error(tmp_path, capsys, argv):
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(bytes(64))
    y.write_bytes(bytes(64))
    files = ("--x", str(x), "--y", str(y), "--out", str(tmp_path / "z.bin"))
    extra = files if argv[0] == "extract-eq" else ()
    assert run_cli(*argv, *extra, "--b", "0", "--delta", "3/4") == 2
    assert "bits per sample must be in 1..64" in capsys.readouterr().err
    assert not (tmp_path / "z.bin").exists()


def test_extract_eq_stdin_refusals(tmp_path, capsys):
    y = tmp_path / "y.bin"
    y.write_bytes(bytes(64))
    out = tmp_path / "z.bin"
    assert run_cli(*EQ_FLAGS, "--N", "64", "--x", "-", "--y", "-", "--out", str(out)) == 2
    assert "at most one may be standard input" in capsys.readouterr().err
    assert run_cli(*EQ_FLAGS, "--x", "-", "--y", str(y), "--out", str(out)) == 2
    assert "--N or --N-bits is required" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("case", ["dev-stdin", "redirected-file", "dev-fd-0-pipe"])
def test_extract_refuses_standard_input_paired_with_itself(tmp_path, case):
    # --x - with a --y that names the file standard input reads: one stream
    # would be paired with itself.
    f = tmp_path / "f.bin"
    f.write_bytes(bytes(range(256)) * 8)
    out = tmp_path / "z.bin"
    y = {"dev-stdin": "/dev/stdin", "redirected-file": str(f), "dev-fd-0-pipe": "/dev/fd/0"}[case]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "blockext.cli", *EQ_FLAGS, "--N", "2048", "--x", "-",
            "--y", y, "--out", str(out)]
    if case == "dev-fd-0-pipe":
        done = subprocess.run(argv, input=f.read_bytes(), capture_output=True, env=env,
                              timeout=60)
    else:
        with open(f, "rb") as stdin:
            done = subprocess.run(argv, stdin=stdin, capture_output=True, env=env, timeout=60)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "same file" in err and "--x -" in err and f"--y {y}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_extract_refuses_to_write_over_the_file_standard_input_reads(tmp_path, flag):
    # extract-eq --x - ... --out f.bin < f.bin would truncate its own input.
    f = tmp_path / "f.bin"
    data = bytes(range(256)) * 16
    f.write_bytes(data)
    y = tmp_path / "y.bin"
    y.write_bytes(bytes(4096))
    outputs = {"--out": str(tmp_path / "z.bin"), "--report": str(tmp_path / "r.txt"),
               flag: str(f)}
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "blockext.cli", *EQ_FLAGS, "--N", "4096", "--x", "-",
            "--y", str(y), *(arg for item in outputs.items() for arg in item)]
    with open(f, "rb") as stdin:
        done = subprocess.run(argv, stdin=stdin, capture_output=True, env=env, timeout=60)
    err = done.stderr.decode()
    assert done.returncode == 2, err
    assert "same file" in err and "--x -" in err and f"{flag} {f}" in err
    assert f.read_bytes() == data
    assert not any(Path(path).exists() for name, path in outputs.items() if name != flag)


def test_extract_accepts_dev_null_as_standard_input_and_output(tmp_path):
    # Not a regular file: standard input and --out on /dev/null destroy nothing.
    y = tmp_path / "y.bin"
    y.write_bytes(bytes(4096))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "blockext.cli", *EQ_FLAGS, "--N", "4096", "--x", "-",
            "--y", str(y), "--out", os.devnull]
    with open(os.devnull, "rb") as stdin:
        done = subprocess.run(argv, stdin=stdin, capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    assert "stop_reason = input-exhausted" in done.stdout.decode()


@pytest.mark.parametrize("target", [("--out", "x"), ("--out", "y"), ("--report", "x")],
                         ids=["out-x", "out-y", "report-x"])
@pytest.mark.parametrize("flags", [EQ_FLAGS, NEQ_FLAGS], ids=["eq", "neq"])
def test_extract_refuses_to_write_over_an_input(tmp_path, capsys, flags, target):
    inputs = {"x": bytes(range(256)) * 8, "y": bytes(range(255, -1, -1)) * 8}
    paths = {name: tmp_path / f"{name}.bin" for name in inputs}
    for name, data in inputs.items():
        paths[name].write_bytes(data)
    flag, name = target
    outputs = {"--out": str(tmp_path / "z.bin"), "--report": str(tmp_path / "r.txt"),
               flag: str(paths[name])}
    assert run_cli(*flags, "--x", str(paths["x"]), "--y", str(paths["y"]),
                   *(arg for item in outputs.items() for arg in item)) == 2
    err = capsys.readouterr().err
    assert flag in err and f"--{name}" in err
    for name, data in inputs.items():
        assert paths[name].read_bytes() == data


@pytest.mark.parametrize("spelling", ["same", "dot-slash", "hard-link"])
@pytest.mark.parametrize("flags", [EQ_FLAGS, NEQ_FLAGS], ids=["eq", "neq"])
def test_extract_refuses_one_file_for_out_and_report(tmp_path, monkeypatch, capsys, flags,
                                                     spelling):
    monkeypatch.chdir(tmp_path)
    Path("x.bin").write_bytes(bytes(range(256)) * 8)
    Path("y.bin").write_bytes(bytes(range(255, -1, -1)) * 8)
    out = "z.bin"
    report = {"same": "z.bin", "dot-slash": "./z.bin", "hard-link": "r.txt"}[spelling]
    if spelling == "hard-link":
        Path(out).write_bytes(b"older output")
        os.link(out, report)
    assert run_cli(*flags, "--x", "x.bin", "--y", "y.bin", "--out", out,
                   "--report", report) == 2
    err = capsys.readouterr().err
    assert "same file" in err and "--out" in err and "--report" in err
    if spelling == "hard-link":
        assert Path(out).read_bytes() == b"older output"
    else:
        assert not Path(out).exists()


@pytest.mark.parametrize("flags", [EQ_FLAGS, NEQ_FLAGS], ids=["eq", "neq"])
def test_sigint_leaves_a_prefix_and_an_interrupted_report(tmp_path, flags):
    rnd = random.Random(23)
    xb, yb = rnd.randbytes(200_000), rnd.randbytes(1 << 18)
    y, out, report = tmp_path / "y.bin", tmp_path / "z.bin", tmp_path / "r.txt"
    y.write_bytes(yb)
    # Neither run can end by itself while standard input stays open.
    length = ("--N", "2^30") if flags is EQ_FLAGS else ("--growth", "0")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "blockext.cli", *flags, *length, "--x", "-", "--y", str(y),
            "--out", str(out), "--report", str(report)]
    # Python raises KeyboardInterrupt on SIGINT only if it did not start with SIGINT ignored.
    restore_sigint = partial(signal.signal, signal.SIGINT, signal.SIG_DFL)
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
                          preexec_fn=restore_sigint) as child:
        # More than a pipe buffer: the write returns only once the run is reading.
        feeder = threading.Thread(target=lambda: (child.stdin.write(xb), child.stdin.flush()))
        try:
            feeder.start()
            feeder.join(timeout=60)
            assert not feeder.is_alive()
            child.send_signal(signal.SIGINT)
            assert child.wait(timeout=60) in (-signal.SIGINT, 130)
        finally:
            child.kill()
            child.wait(timeout=60)
            feeder.join(timeout=60)
    rep = ExtractionReport.from_text(report.read_text())
    assert rep.stop_reason == "interrupted" and rep.pad_bits is None
    whole = io.BytesIO()
    (extract_eq if flags is EQ_FLAGS else extract_neq)(xb, yb, rep.plan).run(whole)
    written = out.read_bytes()
    assert whole.getvalue().startswith(written)
    assert 8 * len(written) <= rep.output_bits


def test_extract_writes_output_while_standard_input_stays_open(tmp_path):
    # The headline q=80 plan (n = 71, 710-byte windows, batches of 20 blocks)
    # fed 100 windows on a pipe kept open: all 100 blocks' 1,000 output
    # bytes must reach --out before standard input closes.
    rnd = random.Random(37)
    xb, yb = rnd.randbytes(100 * 710), rnd.randbytes(200 * 710)
    y, out, report = tmp_path / "y.bin", tmp_path / "z.bin", tmp_path / "r.txt"
    y.write_bytes(yb)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "blockext.cli", "extract-eq", "--b", "16", "--delta",
            "10.74/16", "--N", "2^47", "--epsilon", "2^-30", "--x", "-", "--y", str(y),
            "--out", str(out), "--report", str(report)]
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env) as child:
        # More than a pipe buffer: the write returns only once the run is reading.
        feeder = threading.Thread(target=lambda: (child.stdin.write(xb), child.stdin.flush()))
        try:
            feeder.start()
            deadline = time.monotonic() + 30
            while not (out.exists() and out.stat().st_size >= 1000):
                assert time.monotonic() < deadline, "output held back while the input is open"
                assert child.poll() is None
                time.sleep(0.05)
            feeder.join(timeout=60)
            child.stdin.close()
            assert child.wait(timeout=60) == 0
        finally:
            child.kill()
            child.wait(timeout=60)
            feeder.join(timeout=60)
    rep = ExtractionReport.from_text(report.read_text())
    assert (rep.plan.field_bits, rep.plan.vec_len) == (80, 71)
    assert rep.stop_reason == "input-exhausted" and rep.blocks_completed == 100
    whole = io.BytesIO()
    extract_eq(xb, yb, rep.plan).run(whole)
    assert out.read_bytes() == whole.getvalue()


def test_closed_output_pipe_leaves_a_prefix_and_an_interrupted_report(tmp_path):
    # `extract-eq ... --out /dev/stdout | head -c 100`.  The complete output
    # is more than twice a 64 KiB pipe buffer, so the run is still writing
    # when the reader closes the pipe.
    rnd = random.Random(29)
    xb, yb = rnd.randbytes(1 << 22), rnd.randbytes(1 << 22)
    x, y, report = tmp_path / "x.bin", tmp_path / "y.bin", tmp_path / "r.txt"
    x.write_bytes(xb)
    y.write_bytes(yb)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "blockext.cli", "extract-eq", "--b", "8", "--delta", "31/32",
            "--epsilon", "2^-8", "--x", str(x), "--y", str(y), "--out", "/dev/stdout",
            "--report", str(report)]
    head = b""
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env) as child:
        try:
            while len(head) < 100:
                ready, _, _ = select.select([child.stdout], [], [], 60)
                assert ready, "no output within 60 s"
                data = os.read(child.stdout.fileno(), 100 - len(head))
                assert data, "output ended before 100 bytes"
                head += data
            child.stdout.close()
            assert child.wait(timeout=60) == 5
        finally:
            child.kill()
            child.wait(timeout=60)
    rep = ExtractionReport.from_text(report.read_text())
    assert rep.stop_reason == "interrupted" and rep.pad_bits is None
    whole = io.BytesIO()
    extract_eq(xb, yb, rep.plan).run(whole)
    assert len(whole.getvalue()) > 2 * 65536
    assert whole.getvalue().startswith(head)


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


@pytest.mark.parametrize("value", ["0", "-3"])
def test_extract_neq_rejects_nonpositive_max_blocks(tmp_path, capsys, value):
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(bytes(1024))
    y.write_bytes(bytes(1024))
    out = tmp_path / "z.bin"
    assert run_cli(*NEQ_FLAGS, "--x", str(x), "--y", str(y), "--out", str(out),
                   "--max-blocks", value) == 2
    assert "max_blocks" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [EQ_FLAGS, NEQ_FLAGS], ids=["eq", "neq"])
def test_extract_refuses_dash_for_both_out_and_report(tmp_path, monkeypatch, capsys, flags):
    # Only --x and --y read '-' as standard input; as --out and --report it
    # is one file named '-', which the report would overwrite.
    monkeypatch.chdir(tmp_path)
    Path("x.bin").write_bytes(bytes(range(256)) * 8)
    Path("y.bin").write_bytes(bytes(range(255, -1, -1)) * 8)
    assert run_cli(*flags, "--x", "x.bin", "--y", "y.bin", "--out", "-", "--report", "-") == 2
    err = capsys.readouterr().err
    assert "same file" in err and "--out" in err and "--report" in err
    assert not Path("-").exists()


def test_extract_eq_max_blocks_gives_a_prefix_of_the_whole_run(tmp_path, capsys):
    rnd = random.Random(41)
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(rnd.randbytes(4096))
    y.write_bytes(rnd.randbytes(4096))
    whole, capped = tmp_path / "whole.bin", tmp_path / "capped.bin"
    assert run_cli(*EQ_FLAGS, "--x", str(x), "--y", str(y), "--out", str(whole)) == 0
    full = ExtractionReport.from_text(capsys.readouterr().out)
    assert full.stop_reason == "completed" and full.blocks_completed == 42
    assert run_cli(*EQ_FLAGS, "--x", str(x), "--y", str(y), "--out", str(capped),
                   "--max-blocks", "8") == 0
    rep = ExtractionReport.from_text(capsys.readouterr().out)
    assert rep.stop_reason == "block-limit" and rep.blocks_completed == 8
    assert rep.output_bits == 8 * rep.plan.field_bits == 8 * len(capped.read_bytes())
    assert whole.read_bytes().startswith(capped.read_bytes())


@pytest.mark.parametrize("value", ["0", "-3"])
def test_extract_eq_rejects_nonpositive_max_blocks(tmp_path, capsys, value):
    x, y = tmp_path / "x.bin", tmp_path / "y.bin"
    x.write_bytes(bytes(1024))
    y.write_bytes(bytes(1024))
    out = tmp_path / "z.bin"
    assert run_cli(*EQ_FLAGS, "--x", str(x), "--y", str(y), "--out", str(out),
                   "--max-blocks", value) == 2
    assert "max_blocks" in capsys.readouterr().err
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


@pytest.mark.parametrize("config, message", [
    ({"kind": "iid-biased"}, "needs the key 'p'"),
    ({"kind": "markov", "b": 1}, "needs the key 'transitions'"),
    ([{"kind": "iid-biased", "p": 0.5}], "must be a JSON object"),
    ({"kind": "uniform", "b": 2.5}, "'b' must be an integer"),
    ({"kind": "uniform", "b": True}, "'b' must be an integer"),
    ({"kind": "uniform", "b": 8, "seed": 1.9}, "'seed' must be an integer"),
    ({"kind": "iid-biased", "p": True}, "'p' must be a number"),
    ({"kind": "iid-biased", "p": [0.5]}, "'p' must be a number"),
    ({"kind": "uniform", "b": 48}, "'b' of kind 'uniform' must be at most 24"),
], ids=["no-p", "no-transitions", "not-an-object", "b-fraction", "b-bool", "seed-fraction",
        "p-bool", "p-list", "uniform-b-48"])
def test_simulate_malformed_config_is_usage_error(tmp_path, capsys, config, message):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.bin"
    assert run_cli("simulate", "--config", str(cfg), "--count", "64", "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"kind": "uniform", "b": 0},
    {"kind": "uniform", "b": -1},
    {"kind": "uniform", "b": 65},
    {"kind": "iid-table", "b": 0, "probs": [1.0]},
    {"kind": "markov", "b": 0, "transitions": [[1.0]]},
    {"kind": "joint", "b": 0, "probs": [1.0]},
    {"kind": "file", "b": 0},
    {"kind": "file", "b": 99},
], ids=["uniform-0", "uniform-neg", "uniform-65", "iid-table-0", "markov-0", "joint-0",
        "file-0", "file-99"])
def test_simulate_sample_width_outside_1_to_64_is_usage_error(tmp_path, capsys, config):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(range(256)) * 4)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**config, "path": str(raw)} if config["kind"] == "file"
                              else config))
    out = tmp_path / "out.bin"
    assert run_cli("simulate", "--config", str(cfg), "--count", "64", "--out", str(out)) == 2
    assert "bits per sample must be in 1..64" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_truncated_file_is_io_error(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(4))
    cfg = tmp_path / "file_model.json"
    cfg.write_text(json.dumps({"kind": "file", "b": 8, "path": str(raw)}))
    assert run_cli("simulate", "--config", str(cfg), "--count", "64",
                   "--out", str(tmp_path / "copy.bin")) == 5


@pytest.mark.parametrize("case", ["out-raw", "out-report", "out-config"])
def test_simulate_refuses_to_write_over_an_input_or_its_output(tmp_path, monkeypatch, capsys,
                                                               case):
    monkeypatch.chdir(tmp_path)
    raw = Path("raw.bin")
    raw.write_bytes(bytes(range(256)) * 16)
    cfg = Path("u.json")
    cfg.write_text(json.dumps({"kind": "file", "b": 8, "path": "raw.bin"} if case == "out-raw"
                              else {"kind": "uniform", "b": 8, "seed": 7}))
    inputs = {path: path.read_bytes() for path in (raw, cfg)}
    flags, argv = {
        "out-raw": (("--config path", "--out"), ("--out", "raw.bin")),
        "out-report": (("--out", "--report"), ("--out", "s.bin", "--report", "s.bin")),
        "out-config": (("--config", "--out"), ("--out", "u.json")),
    }[case]
    assert run_cli("simulate", "--config", "u.json", "--count", "100", *argv) == 2
    err = capsys.readouterr().err
    assert "same file" in err and all(flag in err for flag in flags)
    assert {path: path.read_bytes() for path in inputs} == inputs
    assert not Path("s.bin").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("suite", ["hadamard", "bias", "distance", "all"])
def test_verify_max_bits_below_one_is_usage_error(capsys, suite, value):
    assert run_cli("verify", "--suite", suite, "--max-bits", value) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--max-bits must be >= 1" in err


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


VERIFY_ALL_4 = """\
hadamard q=1 n=1: PASS
hadamard q=1 n=2: PASS
hadamard q=1 n=3: PASS
hadamard q=1 n=4: PASS
hadamard q=2 n=1: PASS
hadamard q=2 n=2: PASS
hadamard q=3 n=1: PASS
hadamard q=4 n=1: PASS
bias q=1 n=1 k=0: max 1 bound 2.82843 pairs 4 exhaustive PASS
bias q=1 n=1 k=1: max 0.5 bound 1.41421 pairs 1 exhaustive PASS
bias q=1 n=2 k=1: max 1 bound 2 pairs 36 exhaustive PASS
bias q=1 n=2 k=2: max 0.25 bound 1 pairs 1 exhaustive PASS
bias q=1 n=3 k=2: max 0.625 bound 1.41421 pairs 4900 exhaustive PASS
bias q=1 n=3 k=3: max 0.125 bound 0.707107 pairs 1 exhaustive PASS
bias q=1 n=4 k=3: max 0.34375 bound 1 pairs 200 PASS
bias q=1 n=4 k=4: max 0.0625 bound 0.5 pairs 1 exhaustive PASS
bias q=2 n=1 k=1: max 1 bound 2 pairs 36 exhaustive PASS
bias q=2 n=1 k=2: max 0.25 bound 1 pairs 1 exhaustive PASS
bias q=2 n=2 k=3: max 0.34375 bound 1 pairs 200 PASS
bias q=2 n=2 k=4: max 0.0625 bound 0.5 pairs 1 exhaustive PASS
bias q=3 n=1 k=2: max 0.625 bound 1.41421 pairs 4900 exhaustive PASS
bias q=3 n=1 k=3: max 0.125 bound 0.707107 pairs 1 exhaustive PASS
bias q=4 n=1 k=3: max 0.34375 bound 1 pairs 200 PASS
bias q=4 n=1 k=4: max 0.0625 bound 0.5 pairs 1 exhaustive PASS
distance q=1 n=1 uniform: d=0.25 bound 1 PASS
distance q=1 n=1 flat k=0: d=0.5 bound 1 PASS
distance q=1 n=1 flat k=1: d=0.25 bound 1 PASS
distance q=1 n=2 uniform: d=0.125 bound 1 PASS
distance q=1 n=2 flat k=1: d=0.25 bound 1 PASS
distance q=1 n=3 uniform: d=0.0625 bound 1 PASS
distance q=1 n=3 flat k=2: d=0.0625 bound 1 PASS
distance q=1 n=4 uniform: d=0.03125 bound 1 PASS
distance q=1 n=4 flat k=3: d=0.109375 bound 1 PASS
distance q=2 n=1 uniform: d=0.1875 bound 1 PASS
distance q=2 n=1 flat k=1: d=0.25 bound 1 PASS
distance q=2 n=2 uniform: d=0.046875 bound 1 PASS
distance q=2 n=2 flat k=3: d=0.09375 bound 1 PASS
distance q=3 n=1 uniform: d=0.109375 bound 1 PASS
distance q=3 n=1 flat k=2: d=0.1875 bound 1 PASS
distance q=4 n=1 uniform: d=0.0585938 bound 1 PASS
distance q=4 n=1 flat k=3: d=0.109375 bound 1 PASS
xor-lemma constant q=1: PASS
xor-lemma uniform q=1: PASS
xor-lemma random q=1: PASS
xor-lemma uniform q=2: PASS
xor-lemma random q=2: PASS
xor-lemma uniform q=3: PASS
xor-lemma random q=3: PASS
xor-lemma uniform q=4: PASS
xor-lemma random q=4: PASS
bijection q=1: PASS
bijection q=2: PASS
bijection q=3: PASS
bijection q=4: PASS
bijection q=5: PASS
bijection q=6: PASS
bijection q=7: PASS
bijection q=8: PASS
checks = 58
failures = 0
"""


def test_verify_all_report_is_pinned(capsys):
    assert run_cli("verify", "--suite", "all", "--max-bits", "4") == 0
    assert capsys.readouterr().out == VERIFY_ALL_4


def test_verify_oracle_lines_match_the_recorded_benchmark_results(capsys):
    # The check lines the `oracles` benchmark workload compares, at its seed 0.
    recorded = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "oracle_expected.json").read_text())
    for argv, expected in ((("--suite", "bias", "--max-bits", "10", "--seed", "0"),
                            recorded["bias"]["0"]),
                           (("--suite", "hadamard", "--max-bits", "13"), recorded["hadamard"])):
        assert run_cli("verify", *argv) == 0
        checks = {}
        for line in capsys.readouterr().out.splitlines():
            key, sep, rest = line.partition(":")
            if sep and line.startswith(("bias ", "hadamard ")):
                checks[key] = rest.strip()
        assert checks == expected


def test_verify_clamps_every_suite_to_its_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli.verify_mod, "MAX_HADAMARD_BITS", 4)
    assert run_cli("verify", "--suite", "hadamard", "--max-bits", "4") == 0
    capped = capsys.readouterr().out
    assert run_cli("verify", "--suite", "hadamard", "--max-bits", "5") == 0
    assert capsys.readouterr().out == capped
    monkeypatch.setattr(cli.verify_mod, "MAX_DENSE_BITS", 4)
    assert run_cli("verify", "--suite", "all", "--max-bits", "5") == 0
    assert capsys.readouterr().out == VERIFY_ALL_4


def test_verify_failure_is_reported_and_exits_6(monkeypatch, tmp_path, capsys):
    real = cli.verify_mod.check_first_bit_bijection
    monkeypatch.setattr(cli.verify_mod, "check_first_bit_bijection",
                        lambda ctx: ctx.q != 3 and real(ctx))
    report = tmp_path / "verify.txt"
    assert run_cli("verify", "--suite", "bijection", "--report", str(report)) == 6
    text = report.read_text()
    assert "bijection q=3: FAIL\n" in text
    assert "bijection q=4: PASS\n" in text
    assert text.endswith("checks = 8\nfailures = 1\n")


@pytest.mark.parametrize("to_report", [False, True], ids=["stdout", "report"])
def test_verify_writes_each_check_line_as_it_is_decided(monkeypatch, tmp_path, capsys,
                                                        to_report):
    # The second check sees the first one's line already in the sink, and a
    # suite that raises partway leaves the lines decided before it.
    report = tmp_path / "verify.txt"
    written = []

    def sink_text():
        if not to_report:
            written.append(capsys.readouterr().out)
            return "".join(written)
        return report.read_text()

    def suite(args):
        yield "first:", True
        assert sink_text() == "first: PASS\n"
        yield "second:", False
        raise RuntimeError("a check that could not run")

    monkeypatch.setitem(cli.VERIFY_SUITES, "xor", suite)
    with pytest.raises(RuntimeError):
        run_cli("verify", "--suite", "xor", *(("--report", str(report)) if to_report else ()))
    assert sink_text() == "first: PASS\nsecond: FAIL\n"


def test_bench_cost_and_zero_lane_exit(capsys):
    assert run_cli("bench", "cost") == 0
    _, fields = parse_document(capsys.readouterr().out)
    assert fields["block_ops"] == "352435"
    assert fields["lanes"] == "4"
    assert fields["gigabits_per_second"] == "64.0"
    assert run_cli("bench", "cost", "--ops-per-lut", "1") == 3


@pytest.mark.parametrize("argv", [
    ("--vec-len", "1", "--field-bits", "1", "--mul-ops", "0"),
    ("--luts", "1e400"),
    ("--mul-ops", "-5"),
    ("--clock-mhz", "nan"),
], ids=["zero-mul-ops", "huge-luts", "negative-mul-ops", "nan-clock"])
def test_bench_cost_rejects_bad_numbers(capsys, argv):
    assert run_cli("bench", "cost", *argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_bench_cost_parses_luts_as_a_count(capsys):
    assert run_cli("bench", "cost", "--luts", "3e5") == 0
    _, fields = parse_document(capsys.readouterr().out)
    assert fields["lanes"] == "4"


def test_bench_throughput(capsys):
    assert run_cli("bench", "throughput", "--b", "8", "--delta", "3/4",
                   "--epsilon", "2^-8", "--N", "4096",
                   "--duration", "0.2") == 0
    _, fields = parse_document(capsys.readouterr().out)
    assert float(fields["output_bits_per_second"]) > 0


@pytest.mark.parametrize("duration", ["inf", "nan"])
def test_bench_throughput_refuses_a_non_finite_duration(monkeypatch, capsys, duration):
    monkeypatch.setattr(cli.bench_mod, "extract_neq",
                        lambda *a, **k: pytest.fail("a measurement pass started"))
    assert run_cli("bench", "throughput", "--b", "8", "--delta", "3/4",
                   "--epsilon", "2^-8", "--N", "4096", "--duration", duration) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("mul_ops", [None, "4885"])
def test_bench_throughput_document_keys(capsys, mul_ops):
    extra = ("--mul-ops", mul_ops) if mul_ops else ()
    assert run_cli("bench", "throughput", "--b", "8", "--delta", "3/4",
                   "--epsilon", "2^-8", "--N", "4096", "--duration", "0.2", *extra) == 0
    kind, fields = parse_document(capsys.readouterr().out)
    keys = {"machine", "python", "cpus", "duration_s", "blocks", "input_bits_per_source",
            "output_bits", "output_bits_per_second"}
    assert kind == "throughput"
    assert set(fields) == keys | ({"model_block_ops"} if mul_ops else set())
    q = plan_eq(8, 4096, "3/4", "2^-8").field_bits
    assert int(fields["output_bits"]) == int(fields["blocks"]) * q > 0


@pytest.mark.parametrize("error, code", [
    (UnsupportedRateError, 4),
    (CapacityError, 3),
    (VerificationError, 6),
    (OSError, 5),
    (BlockingIOError, 5),
    (TruncatedSourceError, 5),
    (DivergenceError, 2),
    (InfeasibleError, 2),
    (UncertifiableError, 2),
    (ValueError, 2),
    (TypeError, 2),
])
def test_command_errors_map_to_exit_codes(monkeypatch, capsys, error, code):
    def failing_command(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_verify", failing_command)
    assert run_cli("verify") == code
    assert capsys.readouterr().err == "error: boom\n"


def test_other_command_errors_propagate(monkeypatch):
    def failing_command(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_verify", failing_command)
    with pytest.raises(RuntimeError, match="boom"):
        run_cli("verify")
