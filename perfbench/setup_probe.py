"""The set-up a command of one workload pays before its first block.

Usage (PYTHONPATH=src):
    python3 perfbench/setup_probe.py eq B N EPSILON
    python3 perfbench/setup_probe.py neq B Q1 GROWTH
    python3 perfbench/setup_probe.py fields LO HI

Imports blockext, derives the plan, and builds the field context of every
width the command uses, through the public `blockext.field`.  The caller
times the whole process, interpreter start included, because a user of the
command line pays all of it.
"""

import sys
from fractions import Fraction

import blockext
from blockext.params import parse_count, parse_probability

RATE = Fraction("10.74") / 16


def widths(kind: str, *args: str):
    if kind == "eq":
        b, n, eps = args
        return [blockext.plan_eq(int(b), parse_count(n), RATE, parse_probability(eps)).field_bits]
    if kind == "neq":
        b, q1, growth = map(int, args)
        plan = blockext.plan_neq(b, RATE, first_field_bits=q1, growth=growth)
        return range(plan.first_field_bits, blockext.MAX_FIELD_BITS + 1, growth * b)
    if kind == "fields":
        lo, hi = map(int, args)
        return range(lo, hi + 1)
    raise SystemExit(f"unknown probe {kind!r}")


if __name__ == "__main__":
    for q in widths(*sys.argv[1:]):
        blockext.field(q)
