"""Peak RSS, minor faults and wall time of `blockext` commands.

Run from the repository root, under a bare interpreter so that the
spawning process stays small:

    python3 -S scripts/oracle_rss.py [--tree DIR] [--repeats R] [COMMAND] [ARGS ...]

COMMAND is any `blockext` subcommand; the first argument after the
options names it unless it starts with `-`, and then COMMAND is `verify`.
Each repeat runs `python3 -m blockext.cli COMMAND ARGS` with PYTHONPATH
set to DIR/src (DIR defaults to this repository) and reads the child's
`ru_maxrss`, `ru_minflt` and wall time from `os.wait4`.  On Linux a child's
`ru_maxrss` includes the high-water RSS of the process that spawned it, so
the numbers are only the command's own when the parent is smaller than the
command, which a `-S` interpreter importing nothing but `os`, `sys`,
`json` and `time` is.  With no argument after the options it measures the
four `verify` commands the `oracles` workload and `verify`'s defaults run.
Prints one JSON object: per command, the runs and their medians.  For
example, a 16 MiB simulated stream:

    python3 -S scripts/oracle_rss.py simulate --config u16.json --count 2^23 --out u16.bin
"""

import json
import os
import sys
import time

COMMANDS = (
    ("--suite", "bias", "--max-bits", "10"),
    ("--suite", "hadamard", "--max-bits", "13"),
    (),
    ("--suite", "hadamard", "--max-bits", "16"),
)


def run(tree: str, args) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    argv = [sys.executable, "-m", "blockext.cli", *args]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        fd = os.open(os.devnull, os.O_WRONLY)
        os.dup2(fd, 1)
        try:
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise SystemExit(f"{' '.join(args)} exited {os.waitstatus_to_exitcode(status)}")
    return {"peak_rss_mib": usage.ru_maxrss / 1024, "minor_faults": usage.ru_minflt,
            "wall_s": round(wall, 3)}


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def main(argv) -> None:
    tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    repeats = 3
    while argv[:1] in (["--tree"], ["--repeats"]):
        if argv[0] == "--tree":
            tree = os.path.abspath(argv[1])
        else:
            repeats = int(argv[1])
        argv = argv[2:]
    if not argv:
        commands = [("verify", *args) for args in COMMANDS]
    elif argv[0].startswith("-"):
        commands = [("verify", *argv)]
    else:
        commands = [tuple(argv)]
    out = {}
    for args in commands:
        runs = [run(tree, args) for _ in range(repeats)]
        out[" ".join(args)] = {
            "runs": runs,
            "median": {key: median([r[key] for r in runs]) for key in runs[0]},
        }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(sys.argv[1:])
