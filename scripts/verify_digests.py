#!/usr/bin/env python3
"""Print the SHA-256 of each pinned `blockext verify` report.

Runs, in process, `verify --suite all --max-bits 12` and `verify --suite
hadamard --max-bits 16` for seeds 0-3, and the cheaper `verify --suite all
--max-bits 10` for seeds 0-1, and prints a JSON object that maps each
argument list to the SHA-256 of the bytes the command printed.  The shipped
digests are in tests/data/verify_digests.json, and tests/test_verify.py
replays the `--max-bits 10` runs and `--suite hadamard --max-bits 16
--seed 0`; a diff against that file means a change to what `verify`
prints.

    PYTHONPATH=src python scripts/verify_digests.py > tests/data/verify_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys

from blockext.cli import main as cli_main

RUNS = ([("all", 12, seed) for seed in range(4)]
        + [("hadamard", 16, seed) for seed in range(4)]
        + [("all", 10, seed) for seed in range(2)])


def argv(suite: str, max_bits: int, seed: int) -> list[str]:
    return ["verify", "--suite", suite, "--max-bits", str(max_bits), "--seed", str(seed)]


def digest(args: list[str]) -> str:
    """SHA-256 of what `blockext *args` prints on standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(args)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    digests = {" ".join(argv(*run)): digest(argv(*run)) for run in RUNS}
    json.dump(digests, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
