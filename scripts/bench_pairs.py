"""Interleaved parent/change pairs of the benchmark, one workload at a time.

Run from anywhere:

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload W \
        [--pairs 10] [--seed 2700] [--seconds 20] > pairs.json

DIR are two checkouts of the repository (for example `git archive` copies
of two commits).  Pair i runs `python3 perfbench/run.py --workload W
--seed SEED+i --seconds S --trace 0` once in each checkout, the parent
first in even pairs and the change first in odd ones.  Prints one JSON
object: every pair's end-to-end metrics, attempted and failed counts and
`correct`, and per metric each side's median and quartiles and how many
pairs the change won (ties count for neither side).
"""

import argparse
import json
import statistics
import subprocess
import sys

BETTER = {"out_bits_per_s": "higher", "wall_s": "lower", "first_out_s": "lower",
          "peak_rss_mib": "lower", "setup_s": "lower"}


def bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(pairs: list[dict]) -> dict:
    out = {}
    for metric, better in BETTER.items():
        sides = {side: [p[side][metric] for p in pairs] for side in ("parent", "change")}
        wins = sum((c > p) if better == "higher" else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[metric] = {
            **{side: {"median": statistics.median(v),
                      "quartiles": statistics.quantiles(v, n=4) if len(v) > 1 else None}
               for side, v in sides.items()},
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=2700)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args()
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: bench(getattr(args, side), args.workload, seed, args.seconds)
                for side in order}
        pairs.append({
            "seed": seed,
            "first": order[0],
            **{side: {k: v["value"] for k, v in runs[side]["metrics"].items()}
               for side in ("parent", "change")},
            "attempted": {side: runs[side]["attempted"] for side in ("parent", "change")},
            "failed": {side: runs[side]["failed"] for side in ("parent", "change")},
            "correct": all(runs[side]["correct"] for side in order),
        })
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    json.dump({"workload": args.workload, "seconds": args.seconds, "pairs": pairs,
               "summary": summary(pairs)}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
