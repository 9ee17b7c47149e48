#!/usr/bin/env python3
"""Print the extraction contract: what 200 seeded extraction runs produce.

Case `seed` draws everything from random.Random(seed): eq or neq mode,
b in {1, 2, 3, 4, 8, 16}, q a multiple of b up to 128, n in 1..40, growth
0..3 (neq), up to 60 blocks, two sources of `randbytes` that may run short,
a read size of 1 B to 1 MiB per stream read, a `max_blocks` cap in about a
third of the cases, and one ending: `run(sink)`, a write that fails, a sink
that takes half of each write, a flush that fails, `run()`, iterating to the
end, or closing the iterator mid-run.  Per case it records the SHA-256 of
the bytes written, the SHA-256 of the (index, bits, width) list a full
iteration yields, the exception type the ending raised, the stop reason and
block count, and the SHA-256 of the report text with wall_time_s zeroed.

The shipped corpus is tests/data/extract_contract.json, and
tests/test_extractor.py replays it; a diff against that file means a change
to what extraction writes, yields or reports.

    PYTHONPATH=src python scripts/extract_contract.py > tests/data/extract_contract.json
"""

import dataclasses
import hashlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction

from blockext.extractor import extract_eq, extract_neq
from blockext.gf2q import MAX_FIELD_BITS
from blockext.params import EqPlan, NeqPlan, error_bound_eq, error_bound_neq

CASES = 200
SAMPLE_BITS = (1, 2, 3, 4, 8, 16)
ENDINGS = ("run-sink", "write-fails", "short-writes", "flush-fails", "run", "iterate", "close")
RATE = Fraction(3, 4)


class Dribble:
    """A stream that returns at most `step` bytes per read."""

    def __init__(self, data: bytes, step: int):
        self._buf = io.BytesIO(data)
        self._step = step

    def read(self, size: int) -> bytes:
        return self._buf.read(min(size, self._step))


class Sink:
    """Keeps what it takes: all of each write, or half with `short`.

    Its `fail_at`-th write (1-based) raises BrokenPipeError, and its flush
    raises OSError with `fail_flush`.
    """

    def __init__(self, fail_at: int | None = None, short: bool = False,
                 fail_flush: bool = False):
        self.data = bytearray()
        self.writes = 0
        self.fail_at = fail_at
        self.short = short
        self.fail_flush = fail_flush

    def write(self, data) -> int:
        self.writes += 1
        if self.writes == self.fail_at:
            raise BrokenPipeError("sink closed")
        taken = (len(data) + 1) // 2 if self.short else len(data)
        self.data += data[:taken]
        return taken

    def flush(self) -> None:
        if self.fail_flush:
            raise OSError("no space left")


def draw(seed: int) -> dict:
    """The plan, inputs, reads, cap and ending of case `seed`."""
    rnd = random.Random(seed)
    mode = rnd.choice(("eq", "neq"))
    b = rnd.choice(SAMPLE_BITS)
    q = b * rnd.randint(1, MAX_FIELD_BITS // b)
    n = rnd.randint(1, 40)
    growth = rnd.randint(0, 3) if mode == "neq" else 0
    blocks = rnd.randint(1, 60)
    widths = (q + i * growth * b for i in range(blocks))
    need = n * sum(w for w in widths if w <= MAX_FIELD_BITS)   # bits per source
    if mode == "eq":
        samples = -(-(need + rnd.randrange(q * n)) // b)
        num_blocks = samples * b // (q * n)
        plan = EqPlan(b, samples, RATE, Fraction(1, 2), n, q, num_blocks, num_blocks * q, 0.0)
        plan = dataclasses.replace(plan, log2_error=error_bound_eq(plan))
    else:
        plan = NeqPlan(b, RATE, n, q, growth, None)
        if growth:
            plan = dataclasses.replace(plan, log2_error_limit=error_bound_neq(plan))
    # Each source holds the blocks' bits, less up to one first window or more up to two.
    x_len, y_len = (max(0, need + rnd.randint(-q * n, 2 * q * n)) // 8 for _ in "xy")
    steps = [rnd.randint(1, 1 << rnd.randint(0, 20)) for _ in "xy"]
    max_blocks = rnd.randint(1, blocks + 1) if rnd.randrange(3) == 0 else None
    ending = rnd.choice(ENDINGS)
    at = rnd.randint(1, blocks + 1)   # the failing write, or chunks taken before close
    return dict(mode=mode, plan=plan, x=rnd.randbytes(x_len), y=rnd.randbytes(y_len),
                steps=steps, max_blocks=max_blocks, ending=ending, at=at,
                label=(f"{mode} b={b} q={q} n={n} growth={growth} bytes={x_len}/{y_len} "
                       f"reads={steps[0]}/{steps[1]} max_blocks={max_blocks} {ending}"
                       + (f"@{at}" if ending in ("write-fails", "close") else "")))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(seed: int) -> dict:
    """What case `seed` writes, yields and reports."""
    case = draw(seed)
    extract = extract_eq if case["mode"] == "eq" else extract_neq

    def fresh():
        return extract(Dribble(case["x"], case["steps"][0]), Dribble(case["y"], case["steps"][1]),
                       case["plan"], max_blocks=case["max_blocks"])

    chunks = [[c.index, c.bits, c.width] for c in fresh()]
    ending, at = case["ending"], case["at"]
    sink = Sink(fail_at=at if ending == "write-fails" else None,
                short=ending == "short-writes", fail_flush=ending == "flush-fails")
    run = fresh()
    error = None
    try:
        if ending == "iterate":
            list(run)
        elif ending == "close":
            chunk_iter = iter(run)
            list(itertools.islice(chunk_iter, at))
            chunk_iter.close()
        elif ending == "run":
            run.run()
        else:
            run.run(sink)
    except Exception as exc:
        error = type(exc).__name__
    report = run.report
    report.wall_time_s = 0.0
    return {
        "seed": seed,
        "case": case["label"],
        "out": sha256(bytes(sink.data)),
        "chunks": sha256(json.dumps(chunks).encode()),
        "error": error,
        "stop_reason": report.stop_reason,
        "blocks_completed": report.blocks_completed,
        "report": sha256(report.to_text().encode()),
    }


def render(cases: list[dict]) -> str:
    """The corpus file's text: one case per line."""
    return "[\n" + ",\n".join(json.dumps(case) for case in cases) + "\n]\n"


def main() -> int:
    sys.stdout.write(render([run_case(seed) for seed in range(CASES)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
