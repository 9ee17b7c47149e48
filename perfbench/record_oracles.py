"""Record the verification oracles' results that the `oracles` workload checks.

Run from the repository root:  python3 perfbench/record_oracles.py

Writes perfbench/oracle_expected.json: for each recorded verify seed, every
`verify --suite bias --max-bits 10` check line, and every
`verify --suite hadamard --max-bits 13` check line.  The recorded values
(holds, max_bias, pairs_tested) are what a faster oracle must reproduce;
re-record only for a change that is meant to alter them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from reference import parse_oracle_report

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(4)


def _verify(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "blockext.cli", "verify", *args],
                          env=env, check=True, capture_output=True, text=True).stdout


def main() -> None:
    data = {
        "bias": {str(s): parse_oracle_report(_verify("--suite", "bias", "--max-bits", "10",
                                                      "--seed", str(s)))
                 for s in SEEDS},
        "hadamard": parse_oracle_report(_verify("--suite", "hadamard", "--max-bits", "13")),
    }
    out = Path(__file__).with_name("oracle_expected.json")
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
