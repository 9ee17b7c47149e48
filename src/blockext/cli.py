"""Command-line front end.

Subcommands: params, extract-eq, extract-neq, simulate, verify, bench.
Exit codes: 0 success; 2 usage; 3 capacity (field width over the cap);
4 unsupported rate (min-entropy rate <= 1/2); 5 I/O; 6 verification
failure.  All configuration is explicit flags; no environment variables.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import bench as bench_mod
from . import sources as sources_mod
from . import verify as verify_mod
from .errors import (
    CapacityError,
    TruncatedSourceError,
    UncertifiableError,
    UnsupportedRateError,
    VerificationError,
)
from .extractor import extract_eq, extract_neq
from .gf2q import field
from .params import (
    as_rational,
    parse_count,
    parse_probability,
    plan_eq,
    plan_neq,
)
from .report import format_document, plan_to_text

EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_RATE = 4
EXIT_IO = 5
EXIT_VERIFY = 6

WORKERS_HELP = ("must be >= 1; has no effect, blocks run in order on one thread "
                "(parallel lanes are a hardware figure, see `bench cost`)")


def _add_eq_plan_flags(p: argparse.ArgumentParser, need_n: bool = True) -> None:
    p.add_argument("--b", required=True, help="bits per sample, e.g. 16")
    p.add_argument("--delta", required=True,
                   help="min-entropy rate as a rational, e.g. 10.74/16")
    p.add_argument("--epsilon", required=True,
                   help="target distance from uniform, e.g. 2^-30")
    group = p.add_mutually_exclusive_group(required=need_n)
    group.add_argument("--N", help="samples per source, e.g. 2^47")
    group.add_argument("--N-bits", dest="n_bits",
                       help="raw bits per source; must divide by --b")


def _eq_plan_from_args(args, default_samples: int | None = None):
    b = int(args.b)
    if args.N is not None:
        samples = parse_count(args.N)
    elif args.n_bits is not None:
        bits = parse_count(args.n_bits)
        if bits % b:
            raise ValueError(f"--N-bits {bits} is not a multiple of --b {b}")
        samples = bits // b
    elif default_samples is not None:
        samples = default_samples
    else:
        raise ValueError("need --N or --N-bits")
    return plan_eq(b, samples, as_rational(args.delta, "delta"),
                   parse_probability(args.epsilon))


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_params(args) -> int:
    plan = _eq_plan_from_args(args)
    _emit(plan_to_text(plan), args.report)
    return 0


@contextlib.contextmanager
def _open_sources(x_path: str, y_path: str):
    """The two input streams: distinct files, at most one standard input ('-')."""
    if x_path == "-" and y_path == "-":
        raise ValueError(
            "the two sources must be physically independent streams; "
            "at most one may be standard input"
        )
    if "-" not in (x_path, y_path) and os.path.samefile(x_path, y_path):
        raise ValueError(
            "the two sources must be physically independent streams; "
            f"{x_path} and {y_path} are the same file"
        )
    with contextlib.ExitStack() as stack:
        yield [sys.stdin.buffer if path == "-" else stack.enter_context(open(path, "rb"))
               for path in (x_path, y_path)]


def cmd_extract_eq(args) -> int:
    default_samples = None
    if args.N is None and args.n_bits is None:
        if "-" in (args.x, args.y):
            raise ValueError("--N or --N-bits is required when reading standard input")
        usable = min(os.path.getsize(args.x), os.path.getsize(args.y))
        default_samples = usable * 8 // int(args.b)
    plan = _eq_plan_from_args(args, default_samples)
    with _open_sources(args.x, args.y) as (fx, fy):
        run = extract_eq(fx, fy, plan, workers=args.workers)
        with open(args.out, "wb") as out:
            report = run.run(out)
    _emit(report.to_text(), args.report)
    return 0


def cmd_extract_neq(args) -> int:
    plan = plan_neq(int(args.b), as_rational(args.delta, "delta"),
                    first_field_bits=int(args.q1), growth=int(args.growth))
    with _open_sources(args.x, args.y) as (fx, fy):
        run = extract_neq(fx, fy, plan, workers=args.workers,
                          max_blocks=args.max_blocks)
        with open(args.out, "wb") as out:
            report = run.run(out)
    _emit(report.to_text(), args.report)
    return 0


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        model = sources_mod.parse_model(json.load(fh))
    if args.seed is not None:
        model = sources_mod.SourceModel(
            kind=model.kind, bits_per_sample=model.bits_per_sample,
            seed=args.seed, p=model.p, table=model.table, path=model.path,
        )
    count = parse_count(args.count)
    data = sources_mod.generate(model, count)
    with open(args.out, "wb") as fh:
        fh.write(data)
    fields = {
        "model_kind": model.kind,
        "bits_per_sample": model.bits_per_sample,
        "seed": model.seed,
        "samples": count,
        "bytes_written": len(data),
        "warning": "simulated stream, for testing only; not cryptographic randomness",
    }
    try:
        cert = sources_mod.certify_forward_block(model)
        fields["certified_rate"] = cert.rate
        fields["certificate_method"] = cert.method
        fields["worst_guess_prob"] = cert.worst_guess_prob
    except UncertifiableError as exc:
        fields["certificate"] = f"uncertifiable: {exc}"
    _emit(format_document("simulation", fields), args.report)
    return 0


def _verify_hadamard(max_bits: int, lines: list[str]) -> int:
    failures = 0
    for q, n in verify_mod.hadamard_instances(max_bits):
        ok = verify_mod.check_hadamard(field(q), n)
        failures += not ok
        lines.append(f"hadamard q={q} n={n}: {'PASS' if ok else 'FAIL'}")
    return failures


def _verify_bias(max_bits: int, seed: int, lines: list[str]) -> int:
    failures = 0
    cap = min(max_bits, verify_mod.MAX_DENSE_BITS)
    for q, n in verify_mod.hadamard_instances(cap):
        t = q * n
        for k in sorted({t, t - 1, max(1, (3 * t) // 4)}):
            rep = verify_mod.check_one_bit_bias(field(q), n, k, seed=seed)
            failures += not rep.holds
            lines.append(
                f"bias q={q} n={n} k={k}: max {rep.max_bias:.6g} "
                f"bound {rep.bound:.6g} pairs {rep.pairs_tested}"
                f"{' exhaustive' if rep.exhaustive else ''} "
                f"{'PASS' if rep.holds else 'FAIL'}"
            )
    return failures


def _verify_distance(max_bits: int, seed: int, lines: list[str]) -> int:
    failures = 0
    rng = np.random.default_rng(seed)
    cap = min(max_bits, verify_mod.MAX_DENSE_BITS)
    for q, n in verify_mod.hadamard_instances(cap):
        t = q * n
        size = 1 << t
        uniform = np.full(size, 1.0 / size)
        instances = [("uniform", uniform, uniform)]
        for k in {t - 1, max(1, (3 * t) // 4)}:
            px = _flat(rng, size, 1 << k)
            py = _flat(rng, size, 1 << k)
            instances.append((f"flat k={k}", px, py))
        for name, px, py in instances:
            rep = verify_mod.check_extractor_distance(
                field(q), n, px, py, description=f"q={q} n={n} {name}"
            )
            failures += not rep.holds
            lines.append(
                f"distance {rep.description}: d={rep.distance:.6g} "
                f"bound {rep.bound:.6g} {'PASS' if rep.holds else 'FAIL'}"
            )
    return failures


def _flat(rng, size: int, support: int) -> np.ndarray:
    p = np.zeros(size)
    p[rng.choice(size, size=support, replace=False)] = 1.0 / support
    return p


def _verify_xor(seed: int, lines: list[str]) -> int:
    failures = 0
    rng = np.random.default_rng(seed)
    instances = []
    constant = np.zeros((2, 1))
    constant[0, 0] = 1.0
    instances.append(("constant q=1", 1, constant))
    for q in (1, 2, 3, 4):
        u = np.full((1 << q, 1), 1.0 / (1 << q))
        instances.append((f"uniform q={q}", q, u))
        j = rng.random((1 << q, 4))
        instances.append((f"random q={q}", q, j / j.sum()))
    for name, q, joint in instances:
        ok = verify_mod.check_xor_lemma_instance(q, joint)
        failures += not ok
        lines.append(f"xor-lemma {name}: {'PASS' if ok else 'FAIL'}")
    return failures


def _verify_bijection(lines: list[str]) -> int:
    failures = 0
    for q in range(1, 9):
        ok = verify_mod.check_first_bit_bijection(field(q))
        failures += not ok
        lines.append(f"bijection q={q}: {'PASS' if ok else 'FAIL'}")
    return failures


def cmd_verify(args) -> int:
    lines: list[str] = []
    failures = 0
    suites = ("hadamard", "bias", "distance", "xor", "bijection") \
        if args.suite == "all" else (args.suite,)
    for suite in suites:
        if suite == "hadamard":
            failures += _verify_hadamard(args.max_bits, lines)
        elif suite == "bias":
            failures += _verify_bias(args.max_bits, args.seed, lines)
        elif suite == "distance":
            failures += _verify_distance(args.max_bits, args.seed, lines)
        elif suite == "xor":
            failures += _verify_xor(args.seed, lines)
        elif suite == "bijection":
            failures += _verify_bijection(lines)
    lines.append(f"checks = {len(lines)}")
    lines.append(f"failures = {failures}")
    _emit("\n".join(lines) + "\n", args.report)
    if failures:
        raise VerificationError(f"{failures} verification check(s) violated a bound")
    return 0


def cmd_bench_cost(args) -> int:
    cost = bench_mod.GateCostModel(
        field_bits=int(args.field_bits), vec_len=int(args.vec_len),
        mul_ops=int(args.mul_ops),
    )
    model = bench_mod.FpgaModel(
        clock_hz=float(args.clock_mhz) * 1e6,
        lut_count=int(float(args.luts)),
        ops_per_lut=int(args.ops_per_lut),
    )
    proj = bench_mod.projected_speed(model, cost)
    fields = {
        "block_ops": cost.block_ops,
        "lanes": proj.lanes,
        "bits_per_second": proj.bits_per_second,
        "gigabits_per_second": proj.bits_per_second / 1e9,
    }
    _emit(format_document("cost-model", fields), args.report)
    if not proj.feasible:
        raise CapacityError("block does not fit the device: zero lanes")
    return 0


def cmd_bench_throughput(args) -> int:
    import platform

    plan = _eq_plan_from_args(args)
    rep = bench_mod.measure_throughput(
        plan, duration_s=args.duration, mul_ops=args.mul_ops,
    )
    fields = {
        "machine": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "duration_s": rep.duration_s,
        "blocks": rep.blocks,
        "input_bits_per_source": rep.input_bits_per_source,
        "output_bits": rep.output_bits,
        "output_bits_per_second": rep.output_bits_per_second,
        "model_block_ops": rep.model_block_ops,
    }
    for i, w in enumerate(rep.warnings):
        fields[f"warning_{i}"] = w
    _emit(format_document("throughput", fields), args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockext",
        description="Seedless two-source randomness extraction for block sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derive and print an equal-block plan")
    _add_eq_plan_flags(p)
    p.add_argument("--report", help="write the plan here instead of stdout")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("extract-eq", help="equal-block extraction of two files")
    p.add_argument("--x", required=True, help="first source file")
    p.add_argument("--y", required=True, help="second source file")
    p.add_argument("--out", required=True, help="output file (packed bits)")
    _add_eq_plan_flags(p, need_n=False)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--report", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_extract_eq)

    p = sub.add_parser("extract-neq", help="incremental-block extraction")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--q1", required=True, help="starting field bits, multiple of --b")
    p.add_argument("--growth", default=1, help="samples added per block (0 reproduces eq)")
    p.add_argument("--max-blocks", type=int, default=None)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--report")
    p.set_defaults(func=cmd_extract_neq)

    p = sub.add_parser("simulate", help="generate a test stream from a model config")
    p.add_argument("--config", required=True, help="JSON model description")
    p.add_argument("--count", required=True, help="samples to draw, e.g. 2^20")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--report")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run brute-force verification suites")
    p.add_argument("--suite", default="all",
                   choices=["hadamard", "bias", "distance", "xor", "bijection", "all"])
    p.add_argument("--max-bits", type=int, default=12,
                   help="cap on q*n for enumerated instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="cost models and throughput measurement")
    bsub = p.add_subparsers(dest="bench_command", required=True)

    c = bsub.add_parser("cost", help="gate-count and FPGA speed projection")
    c.add_argument("--vec-len", default=71)
    c.add_argument("--field-bits", default=80)
    c.add_argument("--mul-ops", default=bench_mod.DEFAULT_MUL_OPS_Q80)
    c.add_argument("--clock-mhz", default=200)
    c.add_argument("--luts", default=300000)
    c.add_argument("--ops-per-lut", default=5)
    c.add_argument("--report")
    c.set_defaults(func=cmd_bench_cost)

    t = bsub.add_parser("throughput", help="measure software extraction rate")
    _add_eq_plan_flags(t)
    t.add_argument("--duration", type=float, default=2.0)
    t.add_argument("--mul-ops", type=int, default=None)
    t.add_argument("--report")
    t.set_defaults(func=cmd_bench_throughput)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RATE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, TruncatedSourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
