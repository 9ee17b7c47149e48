"""Command-line front end.

Subcommands: params, extract-eq, extract-neq, simulate, verify, bench.
Exit codes: 0 success; 2 usage; 3 capacity (field width over the cap);
4 unsupported rate (min-entropy rate <= 1/2); 5 I/O; 6 verification
failure.  All configuration is explicit flags; no environment variables.

The extractor is sound only for two independent sources, so the extract
commands and simulate refuse, before opening anything, two flags that
name one file: one guard, _refuse_same_files, where '-' as --x or --y is
standard input and matches /dev/stdin, /dev/fd/0 or the file it is
redirected from.  Each command imports the modules only it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import os
import stat
import sys

import numpy as np

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
    _validate_sample_bits,
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

# Exit code per error type, matched in order: ValueError subclasses first.
EXIT_CODES = (
    (UnsupportedRateError, EXIT_RATE),
    (CapacityError, EXIT_CAPACITY),
    (VerificationError, EXIT_VERIFY),
    ((OSError, TruncatedSourceError), EXIT_IO),
    ((ValueError, TypeError), EXIT_USAGE),
)

WORKERS_HELP = ("must be >= 1; has no effect, blocks run in order on one thread "
                "(parallel lanes are a hardware figure, see `bench cost`)")


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--b", required=True, help="bits per sample, e.g. 16")
    p.add_argument("--delta", required=True,
                   help="min-entropy rate as a rational, e.g. 10.74/16")


def _add_eq_plan_flags(p: argparse.ArgumentParser, need_n: bool = True) -> None:
    _add_source_flags(p)
    p.add_argument("--epsilon", required=True,
                   help="target distance from uniform, e.g. 2^-30")
    group = p.add_mutually_exclusive_group(required=need_n)
    group.add_argument("--N", help="samples per source, e.g. 2^47")
    group.add_argument("--N-bits", dest="n_bits",
                       help="raw bits per source; must divide by --b")


def _add_extract_flags(p: argparse.ArgumentParser) -> None:
    """The files and run limits both extract commands take."""
    p.add_argument("--x", required=True, help="first source file (- reads standard input)")
    p.add_argument("--y", required=True, help="second source file (- reads standard input)")
    p.add_argument("--out", required=True, help="output file (packed bits)")
    p.add_argument("--max-blocks", type=int, default=None,
                   help="stop after this many blocks (>= 1), before the planned end")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--report", help="write the report here instead of stdout")


def _eq_plan_from_args(args, default_bits: int | None = None):
    b = int(args.b)
    _validate_sample_bits(b)  # before any division by b
    if args.N is not None:
        samples = parse_count(args.N)
    elif args.n_bits is not None:
        bits = parse_count(args.n_bits)
        if bits % b:
            raise ValueError(f"--N-bits {bits} is not a multiple of --b {b}")
        samples = bits // b
    else:
        samples = default_bits // b
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


def _refuse_same_files(*named: tuple[str, str | None]) -> None:
    """Refuse two (flag, path) pairs that name one file, skipping None.

    '-' as --x or --y is standard input, known by os.fstat of its
    descriptor (skipped when it has none), so /dev/stdin, /dev/fd/0 and a
    redirected file match it.  Any other existing path is known by os.stat
    (hard links match), a path not yet created by its resolved path.  The
    one pair let through is standard input and an --out or --report that is
    not a regular file: a terminal or /dev/null on both sides destroys
    nothing.
    """
    files = []
    for flag, path in named:
        if path == "-" and flag in ("--x", "--y"):
            with contextlib.suppress(AttributeError, OSError, ValueError):
                st = os.fstat(sys.stdin.fileno())
                files.append((flag, "- (standard input)", (st.st_dev, st.st_ino), "stdin"))
        elif path and os.path.exists(path):
            st = os.stat(path)
            harmless = flag in ("--out", "--report") and not stat.S_ISREG(st.st_mode)
            files.append((flag, path, (st.st_dev, st.st_ino), "harmless" if harmless else None))
        elif path:
            files.append((flag, path, os.path.realpath(path), None))
    for (flag_a, a, id_a, kind_a), (flag_b, b, id_b, kind_b) in itertools.combinations(files, 2):
        if id_a == id_b and {kind_a, kind_b} != {"stdin", "harmless"}:
            raise ValueError(f"{flag_a} {a} and {flag_b} {b} are the same file")


def _extract(args, extract, plan) -> int:
    """Run `extract` over the --x/--y sources into --out and emit its report.

    At most one source may be standard input, and no two of --x, --y, --out
    and --report may be one file (see _refuse_same_files), checked before
    anything is opened (opening --out truncates it); a run that fails after
    it started still emits its report (stop_reason = interrupted) before
    the error propagates.
    """
    if args.x == args.y == "-":
        raise ValueError("the two sources must be physically independent streams; "
                         "at most one may be standard input")
    _refuse_same_files(("--x", args.x), ("--y", args.y), ("--out", args.out),
                       ("--report", args.report))
    # Unbuffered: each read returns what the OS has to Python, which sees a
    # SIGINT before the next read blocks, and each batch's bytes reach --out
    # as soon as the batch is made.
    with contextlib.ExitStack() as stack:
        fx, fy = (getattr(sys.stdin.buffer, "raw", sys.stdin.buffer) if path == "-"
                  else stack.enter_context(open(path, "rb", buffering=0))
                  for path in (args.x, args.y))
        run = extract(fx, fy, plan, workers=args.workers, max_blocks=args.max_blocks)
        try:
            with open(args.out, "wb", buffering=0) as out:
                run.run(out)
        finally:
            if run.report is not None:
                _emit(run.report.to_text(), args.report)
    return 0


def cmd_extract_eq(args) -> int:
    default_bits = None
    if args.N is None and args.n_bits is None:
        # N from the file sizes: a stream has none, and a directory fails as it opens.
        sizes = []
        for flag, path in (("--x", args.x), ("--y", args.y)):
            st = None if path == "-" else os.stat(path)
            if st is None or not (stat.S_ISREG(st.st_mode) or stat.S_ISDIR(st.st_mode)):
                what = "standard input" if st is None else "not a regular file"
                raise ValueError(f"--N or --N-bits is required: {flag} {path} is {what}")
            sizes.append(st.st_size)
        default_bits = 8 * min(sizes)
    return _extract(args, extract_eq, _eq_plan_from_args(args, default_bits))


def cmd_extract_neq(args) -> int:
    plan = plan_neq(int(args.b), as_rational(args.delta, "delta"),
                    first_field_bits=int(args.q1), growth=int(args.growth))
    return _extract(args, extract_neq, plan)


def cmd_simulate(args) -> int:
    import json

    from . import sources as sources_mod

    with open(args.config) as fh:
        model = sources_mod.parse_model(json.load(fh))
    if args.seed is not None:
        model = dataclasses.replace(model, seed=args.seed)
    _refuse_same_files(("--config", args.config), ("--config path", model.path),
                       ("--out", args.out), ("--report", args.report))
    count = parse_count(args.count)
    chunks = sources_mod.sample_chunks(model, count)  # refuses before --out is opened
    with open(args.out, "wb") as fh:
        fh.writelines(chunks)
    fields = {
        "model_kind": model.kind,
        "bits_per_sample": model.bits_per_sample,
        "seed": model.seed,
        "samples": count,
        "bytes_written": (count * model.bits_per_sample + 7) // 8,
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


# Each verify suite yields (text, ok) per check; cmd_verify appends PASS/FAIL.

def _hadamard_checks(args):
    from . import verify as verify_mod

    cap = min(args.max_bits, verify_mod.MAX_HADAMARD_BITS)
    for q, n in verify_mod.hadamard_instances(cap):
        yield f"hadamard q={q} n={n}:", verify_mod.check_hadamard(field(q), n)


def _bias_checks(args):
    from . import verify as verify_mod

    cap = min(args.max_bits, verify_mod.MAX_DENSE_BITS)
    for q, n in verify_mod.hadamard_instances(cap):
        t = q * n
        ks = sorted({t, t - 1, max(1, (3 * t) // 4)})
        for rep in verify_mod.bias_reports(field(q), n, ks, seed=args.seed):
            yield (f"bias q={q} n={n} k={rep.entropy_floor}: max {rep.max_bias:.6g} "
                   f"bound {rep.bound:.6g} pairs {rep.pairs_tested}"
                   f"{' exhaustive' if rep.exhaustive else ''}"), rep.holds


def _distance_checks(args):
    from . import verify as verify_mod

    rng = np.random.default_rng(args.seed)
    cap = min(args.max_bits, verify_mod.MAX_DENSE_BITS)
    for q, n in verify_mod.hadamard_instances(cap):
        t = q * n
        size = 1 << t
        uniform = np.full(size, 1.0 / size)
        instances = [("uniform", uniform, uniform)]
        # Set order, not sorted: the order fixes the RNG draws, and so the report.
        for k in {t - 1, max(1, (3 * t) // 4)}:
            px = _flat(rng, size, 1 << k)
            py = _flat(rng, size, 1 << k)
            instances.append((f"flat k={k}", px, py))
        for name, px, py in instances:
            rep = verify_mod.check_extractor_distance(
                field(q), n, px, py, description=f"q={q} n={n} {name}"
            )
            yield (f"distance {rep.description}: d={rep.distance:.6g} "
                   f"bound {rep.bound:.6g}"), rep.holds


def _flat(rng, size: int, support: int) -> np.ndarray:
    p = np.zeros(size)
    p[rng.choice(size, size=support, replace=False)] = 1.0 / support
    return p


def _xor_checks(args):
    from . import verify as verify_mod

    rng = np.random.default_rng(args.seed)
    constant = np.zeros((2, 1))
    constant[0, 0] = 1.0
    instances = [("constant q=1", 1, constant)]
    for q in (1, 2, 3, 4):
        u = np.full((1 << q, 1), 1.0 / (1 << q))
        instances.append((f"uniform q={q}", q, u))
        j = rng.random((1 << q, 4))
        instances.append((f"random q={q}", q, j / j.sum()))
    for name, q, joint in instances:
        yield f"xor-lemma {name}:", verify_mod.check_xor_lemma_instance(q, joint)


def _bijection_checks(args):
    from . import verify as verify_mod

    for q in range(1, 9):
        yield f"bijection q={q}:", verify_mod.check_first_bit_bijection(field(q))


VERIFY_SUITES = {
    "hadamard": _hadamard_checks,
    "bias": _bias_checks,
    "distance": _distance_checks,
    "xor": _xor_checks,
    "bijection": _bijection_checks,
}


def cmd_verify(args) -> int:
    """Run the suites, writing each check line to stdout or --report as it is decided."""
    if args.max_bits < 1:
        # A suite that enumerates no instance must not read as a pass.
        raise ValueError(f"--max-bits must be >= 1, got {args.max_bits}")
    checks = failures = 0
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(args.report, "w")) if args.report else sys.stdout
        for suite in VERIFY_SUITES if args.suite == "all" else (args.suite,):
            for text, ok in VERIFY_SUITES[suite](args):
                checks += 1
                failures += not ok
                sink.write(f"{text} {'PASS' if ok else 'FAIL'}\n")
                sink.flush()
        sink.write(f"checks = {checks}\nfailures = {failures}\n")
    if failures:
        raise VerificationError(f"{failures} verification check(s) violated a bound")
    return 0


def cmd_bench_cost(args) -> int:
    from . import bench as bench_mod

    mul_ops = bench_mod.DEFAULT_MUL_OPS_Q80 if args.mul_ops is None else int(args.mul_ops)
    cost = bench_mod.GateCostModel(
        field_bits=int(args.field_bits), vec_len=int(args.vec_len), mul_ops=mul_ops,
    )
    model = bench_mod.FpgaModel(
        clock_hz=float(args.clock_mhz) * 1e6,
        lut_count=parse_count(args.luts),
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

    from . import bench as bench_mod

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
    _add_extract_flags(p)
    _add_eq_plan_flags(p, need_n=False)
    p.set_defaults(func=cmd_extract_eq)

    p = sub.add_parser("extract-neq", help="incremental-block extraction")
    _add_extract_flags(p)
    _add_source_flags(p)
    p.add_argument("--q1", required=True, help="starting field bits, multiple of --b")
    p.add_argument("--growth", default=1, help="samples added per block (0 reproduces eq)")
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
                   choices=[*VERIFY_SUITES, "all"])
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
    c.add_argument("--mul-ops")  # default: bench.DEFAULT_MUL_OPS_Q80, set in cmd_bench_cost
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
    except Exception as exc:
        for types, code in EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


def run() -> int:
    """Process entry of the `blockext` command and `python -m blockext.cli`."""
    code = main()
    gc.freeze()  # frozen objects are skipped by the full collections of interpreter shutdown
    return code


if __name__ == "__main__":
    sys.exit(run())
