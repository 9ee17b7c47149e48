"""blockext benchmark: the public command line, file to file, on seeded inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (README.md in this directory says why each exists):

    eq-q32     extract-eq, b=16 rate 10.74/16 N=2^16 eps=2^-20 (q=32, n=71), 1 worker
    eq-q80-w2  extract-eq, b=16 rate 10.74/16 N=2^47 eps=2^-30 (q=80, n=71),
               2 workers, 1.5 MiB per source, stops at input-exhausted
    neq-grow   extract-neq, b=1 q1=32 growth=1: 97 blocks of widths 32..128
    oracles    verify --suite bias --max-bits 10, then --suite hadamard --max-bits 13

--trace 0 runs rounds of the workload's commands in fresh processes for
--seconds, checks every output, and prints the end-to-end metrics; the
times of the extraction workloads are scaled to a reference machine speed
measured between commands (SpeedProbes).
--trace 1 prints the per-layer metrics: calls timed into each module, and
one traced and one untraced command of each extraction workload.  --smoke
shrinks every size so the tests of the benchmark run in seconds.

The last line of standard output is the result as one JSON object; the line
before it holds the run's metadata.  Exit code 2 means the program under
test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
SAMPLED_BLOCKS = 24      # recomputed per extraction output, first and last included
CHILD_TIMEOUT_S = 100
TRACE_PAIRS = 3          # untraced + traced commands per extraction workload, at most
TRACE_BUDGET_S = 8.0     # ... and no new pair after this long
RATE = "10.74/16"
SPEED_SHARE = 0.1        # a speed probe lasts this share of the command before it ...
SPEED_MIN_S = 0.03       # ... and at least this long
SPEED_REF_S = 4.8e-4     # seconds per probe product at the reference speed (README.md)


@dataclass(frozen=True)
class ExtractWorkload:
    command: str                       # blockext subcommand
    flags: tuple[str, ...]             # plan flags, as a user would type them
    workers: int
    source_bytes: int                  # per source, per command
    expected: Callable[[int], ref.Expected]   # from the source length in bits
    probe: tuple[str, ...]             # setup_probe.py arguments


@dataclass(frozen=True)
class OracleWorkload:
    suites: tuple[tuple[str, int], ...]   # (suite, --max-bits)
    probe: tuple[str, ...]


def workload(name: str, smoke: bool):
    if name == "eq-q32":
        n_exp = 12 if smoke else 16
        return ExtractWorkload(
            "extract-eq", ("--b", "16", "--delta", RATE, "--epsilon", "2^-20", "--N", f"2^{n_exp}"),
            1, 2**n_exp * 2, lambda bits: ref.expected_eq(bits, 32, 71, 2**n_exp * 16),
            ("eq", "16", f"2^{n_exp}", "2^-20"))
    if name == "eq-q80-w2":
        return ExtractWorkload(
            "extract-eq", ("--b", "16", "--delta", RATE, "--epsilon", "2^-30", "--N", "2^47"),
            2, (32 << 10) if smoke else (1536 << 10),
            lambda bits: ref.expected_eq(bits, 80, 71, 2**47 * 16),
            ("eq", "16", "2^47", "2^-30"))
    if name == "neq-grow":
        # 72 KiB covers the 550,960 bits the 97 blocks use, so the run stops
        # at the width cap, not at the end of input.
        q1 = 112 if smoke else 32
        return ExtractWorkload(
            "extract-neq", ("--b", "1", "--delta", RATE, "--q1", str(q1), "--growth", "1"),
            1, (19 if smoke else 72) << 10, lambda bits: ref.expected_neq(bits, q1, 1, 71),
            ("neq", "1", str(q1), "1"))
    if name == "oracles":
        return OracleWorkload((("bias", 6), ("hadamard", 8)) if smoke
                              else (("bias", 10), ("hadamard", 13)), ("fields", "1", "13"))
    raise ValueError(f"unknown workload {name!r}")


EXTRACTION_WORKLOADS = ("eq-q32", "eq-q80-w2", "neq-grow")
WORKLOADS = EXTRACTION_WORKLOADS + ("oracles",)


# ---------- child processes ----------

@dataclass
class Child:
    returncode: int
    wall_s: float
    first_out_s: float     # first byte on stdout; the whole run if there was none
    stdout: bytes
    stderr: str
    peak_rss_mib: float


def run_child(argv: list[str], work: Path) -> Child:
    """Run argv to completion, reading its stdout as a pipe reader would."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = work / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        first = None
        chunks = []
        fd = proc.stdout.fileno()
        while data := os.read(fd, 1 << 16):
            if first is None:
                first = time.perf_counter() - start
            chunks.append(data)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # before cancel: kill() then no-ops
        timer.cancel()
    return Child(proc.returncode, wall, wall if first is None else first, b"".join(chunks),
                 err_path.read_text(errors="replace"), usage.ru_maxrss / 1024)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "blockext.cli", *args]


# ---------- machine speed ----------

# Fixed operands of the speed probe: 71 elements of GF(2^80) per side, and a
# degree-80 reduction polynomial that is the benchmark's own, not blockext's.
_PROBE_RNG = random.Random(80)
_PROBE_XS = [_PROBE_RNG.getrandbits(80) for _ in range(71)]
_PROBE_YS = [_PROBE_RNG.getrandbits(80) for _ in range(71)]
_PROBE_MODULUS = (1 << 80) | (1 << 9) | (1 << 4) | (1 << 2) | 1


def speed_probe(seconds: float) -> float:
    """Seconds per reference inner product, averaged over at least `seconds`.

    The work is pure-Python big-integer arithmetic from reference.py, the
    same kind the commands spend their time on, and no blockext code, so a
    change to the program cannot move it; only the machine's speed does.
    """
    reps = 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds or not reps:
        for _ in range(4):
            acc = 0
            for x, y in zip(_PROBE_XS, _PROBE_YS):
                acc ^= ref.clmul(x, y)
            ref.reduce(acc, 80, _PROBE_MODULUS)
        reps += 4
    return elapsed / reps


class SpeedProbes:
    """Probes taken between timed commands of an extraction workload.

    A command timed between two probes is scaled by SPEED_REF_S over their
    mean, which maps it to the reference speed: the shared machine's speed
    drifts by more than the bounds over minutes, and the probes follow it on
    big-integer work.  They do not follow the numpy-bound verify oracles, so
    the `oracles` workload is not scaled (active=False: every scale is 1).
    """

    def __init__(self, active: bool):
        self.probes = []
        if active:
            speed_probe(SPEED_MIN_S)  # warm-up: the first probe of a process runs slow
            self.probes.append(speed_probe(SPEED_MIN_S))

    def after(self, wall_s: float) -> float:
        """Probe after a command of `wall_s`; return the scale for that command."""
        if not self.probes:
            return 1.0
        self.probes.append(speed_probe(max(SPEED_MIN_S, SPEED_SHARE * wall_s)))
        return 2 * SPEED_REF_S / (self.probes[-2] + self.probes[-1])


def measure_setup(w, work: Path, repeats: int) -> float:
    """Median raw set-up time of fresh processes."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), *w.probe]
    walls = []
    for i in range(repeats + 1):  # the first run compiles bytecode: not timed
        child = run_child(argv, work)
        if child.returncode:
            raise RuntimeError(f"setup probe failed: {child.stderr}")
        if i:
            walls.append(child.wall_s)
    return statistics.median(walls)


# ---------- rounds ----------

@dataclass
class Round:
    wall_s: float
    first_out_s: float
    peak_rss_mib: float
    out_bits: int
    attempted: int
    failed: int
    problems: list[str]


def check_extraction(w: ExtractWorkload, seed: int, index: int, x: bytes, y: bytes,
                     returncode: int, out: bytes, report_text: str) -> list[str]:
    """Every reason the command's output or report is wrong; empty when correct."""
    if returncode:
        return [f"exit code {returncode}"]
    exp = w.expected(8 * len(x))
    sample = ref.sample_blocks(exp.blocks, seed * 100_003 + index, SAMPLED_BLOCKS)
    return (ref.report_problems(ref.parse_report(report_text), exp)
            + ref.output_problems(out, x, y, exp, sample))


def extraction_round(w: ExtractWorkload, seed: int, index: int, work: Path,
                     corrupt=None) -> Round:
    x = ref.source_bytes(seed, 2 * index, w.source_bytes)
    y = ref.source_bytes(seed, 2 * index + 1, w.source_bytes)
    (work / "x.bin").write_bytes(x)
    (work / "y.bin").write_bytes(y)
    report = work / "report.txt"
    report.unlink(missing_ok=True)
    child = run_child(cli(w.command, "--x", str(work / "x.bin"), "--y", str(work / "y.bin"),
                          "--out", "/dev/stdout", "--report", str(report),
                          *w.flags, "--workers", str(w.workers)), work)
    out = corrupt(child.stdout) if corrupt else child.stdout
    text = report.read_text() if report.exists() else ""
    problems = check_extraction(w, seed, index, x, y, child.returncode, out, text)
    if child.returncode:
        problems.append(child.stderr[-500:])
    return Round(child.wall_s, child.first_out_s, child.peak_rss_mib, 8 * len(child.stdout),
                 1, int(bool(problems)), problems)


def _instance_bits(key: str) -> int:
    fields = dict(part.split("=") for part in key.split()[1:])
    return int(fields["q"]) * int(fields["n"])


def oracle_round(w: OracleWorkload, seed: int, work: Path, corrupt=None) -> Round:
    seeds = ref.oracle_seeds()
    verify_seed = seeds[seed % len(seeds)]
    wall = rss = 0.0
    first = None
    out_bits = attempted = failed = 0
    problems = []
    for suite, max_bits in w.suites:
        child = run_child(cli("verify", "--suite", suite, "--max-bits", str(max_bits),
                              "--seed", str(verify_seed)), work)
        if first is None:
            first = child.first_out_s
        wall += child.wall_s
        rss = max(rss, child.peak_rss_mib)
        out_bits += 8 * len(child.stdout)
        out = corrupt(child.stdout) if corrupt else child.stdout
        cap = min(max_bits, 12) if suite == "bias" else max_bits
        want = {k: v for k, v in ref.expected_oracle_checks(suite, verify_seed).items()
                if _instance_bits(k) <= cap}
        got = ref.parse_oracle_report(out.decode(errors="replace")) if child.returncode == 0 else {}
        wrong = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        attempted += len(want.keys() | got.keys())
        failed += len(wrong)
        problems += [f"{k}: got {got.get(k)!r}, want {want.get(k)!r}" for k in wrong]
        if child.returncode:
            problems.append(f"verify --suite {suite} exit code {child.returncode}")
    return Round(wall, first, rss, out_bits, attempted, failed, problems)


def measure(name: str, seed: int, seconds: float, smoke: bool, work: Path,
            corrupt: Callable[[bytes], bytes] | None = None) -> tuple[dict, dict]:
    """Untraced rounds for `seconds`; returns (result, metadata)."""
    w = workload(name, smoke)
    raw_setup_s = measure_setup(w, work, 2 if smoke else SETUP_REPEATS)
    speed = SpeedProbes(isinstance(w, ExtractWorkload))
    rounds, scales = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if isinstance(w, OracleWorkload):
            rounds.append(oracle_round(w, seed, work, corrupt))
        else:
            rounds.append(extraction_round(w, seed, len(rounds), work, corrupt))
        scales.append(speed.after(rounds[-1].wall_s))

    def times(scales: list[float]) -> dict:
        """Median out_bits_per_s, wall_s and first_out_s, each round's times scaled."""
        walls = [r.wall_s * s for r, s in zip(rounds, scales)]
        return {
            "out_bits_per_s": (statistics.median(r.out_bits / t for r, t in zip(rounds, walls)),
                               "bit/s"),
            "wall_s": (statistics.median(walls), "s"),
            "first_out_s": (statistics.median(r.first_out_s * s for r, s in zip(rounds, scales)),
                            "s"),
        }

    metrics = {
        **times(scales),
        "peak_rss_mib": (statistics.median(r.peak_rss_mib for r in rounds), "MiB"),
        # Set-up is scaled by the run's median scale: probes between the short
        # set-up processes read slower than those between rounds (README.md).
        "setup_s": (raw_setup_s * statistics.median(scales), "s"),
    }
    walls = [r.wall_s for r in rounds]
    raw = {k: v for k, (v, _) in times([1.0] * len(rounds)).items()}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    meta = {
        "rounds": len(rounds),
        "wall_s_quartiles": statistics.quantiles(walls, n=4) if len(walls) > 1 else None,
        "speed_scale": statistics.median(scales),
        "raw": {**raw, "setup_s": raw_setup_s},
        "error_rate": failed / attempted,
        "problems": [p for r in rounds for p in r.problems][:20],
    }
    return result(attempted, failed, metrics), meta


# ---------- traced run ----------

def self_times(spans: list[dict]) -> dict:
    """Self time of reads, writes and the compute between them, inside the run span."""
    run = next(s for s in spans if s["name"] == "run")
    reads = [s for s in spans if s["name"] == "read"]
    writes = [s for s in spans if s["name"] == "write"]
    read_s = sum(s["end"] - s["start"] for s in reads)
    write_s = sum(s["end"] - s["start"] for s in writes)
    return {
        "read_s": (read_s, "s"),
        "compute_s": (run["end"] - run["start"] - read_s - write_s, "s"),
        "write_s": (write_s, "s"),
        "read_calls": (len(reads), "count"),
        "write_calls": (len(writes), "count"),
        "bytes_read": (sum(s["bytes"] for s in reads), "count"),
    }


def trace_workload(name: str, seed: int, smoke: bool, work: Path) -> tuple[dict, int, int]:
    """Alternate untraced and traced commands of one extraction workload.

    Returns (metrics, attempted, failed).  Span times are medians over the
    traced commands; the overhead ratio compares median command walls.
    """
    w = workload(name, smoke)
    untraced, traced, spans = [], [], []
    failed = 0
    deadline = time.perf_counter() + TRACE_BUDGET_S
    while not traced or (len(traced) < TRACE_PAIRS and time.perf_counter() < deadline):
        index = len(traced)
        plain = extraction_round(w, seed, index, work)
        untraced.append(plain.wall_s)
        failed += plain.failed
        x, y = (work / "x.bin").read_bytes(), (work / "y.bin").read_bytes()
        spans_path, out, report = work / "spans.json", work / "out.bin", work / "report.txt"
        for path in (spans_path, out, report):
            path.unlink(missing_ok=True)
        child = run_child([sys.executable, str(HERE / "traced_extract.py"), str(spans_path),
                           str(work / "x.bin"), str(work / "y.bin"), str(out), str(report),
                           str(w.workers), w.command, *w.flags], work)
        traced.append(child.wall_s)
        failed += bool(check_extraction(
            w, seed, index, x, y, child.returncode, out.read_bytes() if out.exists() else b"",
            report.read_text() if report.exists() else ""))
        if child.returncode == 0:
            spans.append(self_times(json.loads(spans_path.read_text())))
    metrics = {f"trace.{key}.{name}": (statistics.median(s[key][0] for s in spans), unit)
               for key, (_, unit) in (spans[0].items() if spans else ())}
    metrics[f"trace.overhead_ratio.{name}"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics, 2 * len(traced), failed


def trace(seed: int, smoke: bool, work: Path) -> tuple[dict, dict]:
    import layers

    metrics = layers.measure_layers(seed, smoke)
    attempted = failed = 0
    for name in EXTRACTION_WORKLOADS:
        m, a, f = trace_workload(name, seed, smoke, work)
        metrics.update(m)
        attempted += a
        failed += f
    return result(attempted, failed, metrics), {"error_rate": failed / attempted}


# ---------- entry point ----------

def result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown"
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref_file = ROOT / ".git" / text[5:]
        return ref_file.read_text().strip() if ref_file.exists() else text[5:]
    return text


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "generator": ref.GENERATOR,
        "one_prob": ref.ONE_PROB,
        "machine": platform.platform(),
        "cpu": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=lambda v: int(v) % 2**64, required=True,
                   help="any integer; taken mod 2^64, as numpy seeds must be non-negative")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = p.parse_args(argv)
    if not (SRC / "blockext" / "__init__.py").is_file():
        print(f"error: blockext sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.trace:
            res, meta = trace(args.seed, args.smoke, work)
        else:
            res, meta = measure(args.workload, args.seed, args.seconds, args.smoke, work)
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    print(json.dumps({**metadata(args), **meta}))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
