"""One extraction command with spans around the calls into each layer.

Usage (PYTHONPATH=src):
    python3 perfbench/traced_extract.py SPANS.json X Y OUT REPORT WORKERS \
        extract-eq|extract-neq PLAN-FLAGS...

Does what `blockext extract-eq` / `extract-neq` does for the same flags,
through the same public functions, but hands the extractor source files and
an output sink owned by this script, which record a span for every read and
write.  Spans stay in memory and are written to SPANS.json at exit as a list
of {"name", "start", "end", "parent", "bytes"}, times in seconds from the
script start; "parent" is the index of the enclosing span or null.
"""

import json
import sys
import threading
import time

T0 = time.perf_counter()
SPANS = []
_LOCK = threading.Lock()


def _now() -> float:
    return time.perf_counter() - T0


def _record(name, start, parent, nbytes=0) -> None:
    with _LOCK:
        SPANS.append({"name": name, "start": start, "end": _now(),
                      "parent": parent, "bytes": nbytes})


class Span:
    """A span whose slot is reserved on entry, so children can name it as parent."""

    def __init__(self, name, parent=None):
        self.name, self.parent = name, parent

    def __enter__(self):
        with _LOCK:
            SPANS.append(None)
            self.index = len(SPANS) - 1
        self.start = _now()
        return self

    def __exit__(self, *exc):
        SPANS[self.index] = {"name": self.name, "start": self.start, "end": _now(),
                             "parent": self.parent, "bytes": 0}
        return False


class TracedSource:
    def __init__(self, fh, parent):
        self._fh, self._parent = fh, parent

    def read(self, size=-1):
        start = _now()
        data = self._fh.read(size)
        _record("read", start, self._parent, len(data))
        return data


class TracedSink:
    def __init__(self, fh, parent):
        self._fh, self._parent = fh, parent

    def write(self, data):
        start = _now()
        written = self._fh.write(data)
        _record("write", start, self._parent, len(data))
        return written


def main(spans_path, x, y, out, report_path, workers, command, *flags):
    with Span("command") as root:
        with Span("import", root.index):
            import argparse
            from blockext import extract_eq, extract_neq, plan_eq, plan_neq
            from blockext.params import as_rational, parse_count, parse_probability

        parser = argparse.ArgumentParser()
        for flag in ("--b", "--delta", "--epsilon", "--N", "--q1", "--growth"):
            parser.add_argument(flag)
        a = parser.parse_args(flags)
        with Span("plan", root.index):
            if command == "extract-eq":
                plan = plan_eq(int(a.b), parse_count(a.N), as_rational(a.delta),
                               parse_probability(a.epsilon))
            else:
                plan = plan_neq(int(a.b), as_rational(a.delta),
                                first_field_bits=int(a.q1), growth=int(a.growth))
        extract = extract_eq if command == "extract-eq" else extract_neq
        with open(x, "rb") as fx, open(y, "rb") as fy, open(out, "wb") as fo:
            with Span("run", root.index) as run_span:
                run = extract(TracedSource(fx, run_span.index), TracedSource(fy, run_span.index),
                              plan, workers=int(workers))
                report = run.run(TracedSink(fo, run_span.index))
        with Span("report", root.index), open(report_path, "w") as fh:
            fh.write(report.to_text())
    with open(spans_path, "w") as fh:
        json.dump(SPANS, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
