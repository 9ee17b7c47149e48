"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(name):
    proc = _bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    meta = json.loads(proc.stdout.splitlines()[-2])
    assert meta["error_rate"] == 0 and meta["seed"] == 5 and meta["nproc"] >= 1


def test_smoke_trace_emits_every_per_layer_metric():
    proc = _bench("--workload", "eq-q32", "--seed", "5", "--seconds", "0", "--trace", "1",
                  "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["correct"], proc.stdout
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("per_layer")
    assert res["metrics"]["trace.write_calls.eq-q32"]["value"] >= 1


def _flip_first_byte(data: bytes) -> bytes:
    return bytes([data[0] ^ 0xFF]) + data[1:] if data else b"\xff"


@pytest.mark.parametrize("name", run.EXTRACTION_WORKLOADS)
def test_flipped_output_byte_fails_every_command(name, tmp_path):
    res, meta = run.measure(name, seed=2, seconds=0.5, smoke=True, work=tmp_path,
                            corrupt=_flip_first_byte)
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"] and meta["error_rate"] == 1
    assert not res["correct"]


def test_flipped_oracle_report_byte_fails_a_check(tmp_path):
    res, _ = run.measure("oracles", seed=2, seconds=0, smoke=True, work=tmp_path,
                         corrupt=_flip_first_byte)
    assert res["failed"] >= 1 and not res["correct"]


def test_reference_matches_package_inner_product():
    from blockext import ext_ip, field

    rng = random.Random(11)
    for q in (1, 7, 32, 80, 128):
        xs = [rng.getrandbits(q) for _ in range(5)]
        ys = [rng.getrandbits(q) for _ in range(5)]
        assert ref.inner_product(xs, ys, q) == ext_ip(field(q), xs, ys)


def test_sources_are_a_function_of_the_seed():
    a = ref.source_bytes(3, 0, 5000)
    assert a == ref.source_bytes(3, 0, 5000)
    assert a != ref.source_bytes(4, 0, 5000)
    ones = sum(bin(b).count("1") for b in a) / (8 * len(a))
    assert abs(ones - ref.ONE_PROB) < 0.02


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "eq-q32", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_times_are_scaled_by_the_speed_probes_on_extraction_only(name, tmp_path):
    res, meta = run.measure(name, seed=3, seconds=0, smoke=True, work=tmp_path)
    assert meta["rounds"] == 1
    scale = meta["speed_scale"]
    if name == "oracles":
        assert scale == 1
    else:
        assert 0.1 < scale < 10
    for key in ("wall_s", "first_out_s"):
        assert res["metrics"][key]["value"] == pytest.approx(meta["raw"][key] * scale)
    assert res["metrics"]["out_bits_per_s"]["value"] == pytest.approx(
        meta["raw"]["out_bits_per_s"] / scale)
    assert res["metrics"]["setup_s"]["value"] == pytest.approx(meta["raw"]["setup_s"] * scale)


def test_speed_probe_times_at_least_the_asked_span():
    start = run.time.perf_counter()
    per_product = run.speed_probe(0.02)
    assert run.time.perf_counter() - start >= 0.02
    assert 0 < per_product < 0.02
