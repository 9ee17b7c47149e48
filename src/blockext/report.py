"""Line-oriented key-value documents: plans and extraction reports.

One text format serves every structured artifact the toolkit emits.  A
document starts with a versioned header line, then `key = value` lines:

    blockext-report v1
    kind = eq-plan
    bits_per_sample = 16
    ...

Values are decimal integers, full-precision float reprs, `num/den`
fractions, `true`/`false`, or bare strings.  The format is diffable and
trivially parseable, which the tests rely on for byte-exact round trips.

A document's keys are its dataclass's fields in declaration order (a
report's plan expanded in place as `plan.*` keys), None fields left out.
Parsers type each value by its field, default absent keys, ignore unknown ones.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Any, get_args, get_type_hints

from . import params as _params

HEADER = "blockext-report v1"


def format_document(kind: str, fields: dict[str, Any]) -> str:
    lines = [HEADER, f"kind = {kind}"]
    lines += [f"{key} = {_encode(value)}" for key, value in fields.items() if value is not None]
    return "\n".join(lines) + "\n"


def parse_document(text: str) -> tuple[str, dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != HEADER:
        raise ValueError(f"missing or unsupported header; expected {HEADER!r}")
    fields: dict[str, str] = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise ValueError(f"malformed line: {ln!r}")
        key, value = ln.split("=", 1)
        fields[key.strip()] = value.strip()
    kind = fields.pop("kind", None)
    if kind is None:
        raise ValueError("document has no kind line")
    return kind, fields


def _encode(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------- plan documents ----------

_PLAN_KINDS = {"eq-plan": _params.EqPlan, "neq-plan": _params.NeqPlan}


def _field_values(obj, prefix: str = "") -> dict[str, Any]:
    values: dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            values.update(_field_values(value, f"{prefix}{f.name}."))
        else:
            values[prefix + f.name] = value
    return values


def _decode(tp: Any, text: str) -> Any:
    # `X | None` decodes as X: an absent key, not a value, stands for None.
    tp = next((a for a in get_args(tp) if a is not type(None)), tp)
    if tp is bool and text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true" if tp is bool else tp(text)


def _from_values(cls, values: dict[str, str], prefix: str = "", **given):
    """Dataclass cls from the document's `prefix + field` keys, beyond `given`."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        key = prefix + f.name
        if f.name in given:
            continue
        if key in values:
            given[f.name] = _decode(hints[f.name], values[key])
        elif f.default is MISSING:
            if type(None) not in get_args(hints[f.name]):
                raise ValueError(f"{cls.__name__} document lacks the required key {key!r}")
            given[f.name] = None
    return cls(**given)


def _plan_from_values(kind: str, values: dict[str, str], prefix: str = ""):
    if kind not in _PLAN_KINDS:
        raise ValueError(f"unknown plan kind {kind!r}")
    return _from_values(_PLAN_KINDS[kind], values, prefix)


def plan_to_text(plan) -> str:
    for kind, cls in _PLAN_KINDS.items():
        if isinstance(plan, cls):
            return format_document(kind, _field_values(plan))
    raise TypeError(f"not a plan: {plan!r}")


def plan_from_text(text: str):
    return _plan_from_values(*parse_document(text))


# ---------- extraction reports ----------

@dataclass
class ExtractionReport:
    """Structured summary of one extraction run.

    `stop_reason` says why the run ended: ``completed`` (every planned
    equal-width block was extracted), ``input-exhausted`` (a source ran out
    before the next block), ``block-limit`` (``max_blocks`` was reached),
    ``width-cap`` (the next incremental block would exceed the 128-bit
    field cap) or ``interrupted`` (the consumer closed the chunk iterator
    before the schedule ended, or a read or a write failed).
    """

    mode: str                       # "eq" | "neq"
    plan: Any                       # EqPlan | NeqPlan, echoed in full
    blocks_completed: int
    x_bits_consumed: int
    y_bits_consumed: int
    output_bits: int
    x_discarded_tail_bits: int
    y_discarded_tail_bits: int
    log2_error_bound: float
    wall_time_s: float
    window_disjointness: bool = True
    stop_reason: str = "completed"
    pad_bits: int | None = None     # set when chunks were packed into bytes

    def to_text(self) -> str:
        return format_document("extraction-report", _field_values(self))

    @classmethod
    def from_text(cls, text: str) -> "ExtractionReport":
        kind, values = parse_document(text)
        if kind != "extraction-report":
            raise ValueError(f"not an extraction report: kind {kind!r}")
        report = _from_values(cls, values, plan=None)
        report.plan = _plan_from_values(f"{report.mode}-plan", values, "plan.")
        return report


__all__ = [
    "HEADER",
    "ExtractionReport",
    "format_document",
    "parse_document",
    "plan_from_text",
    "plan_to_text",
]
