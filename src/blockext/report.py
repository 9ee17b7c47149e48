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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from . import params as _params

HEADER = "blockext-report v1"


def format_document(kind: str, fields: dict[str, Any]) -> str:
    lines = [HEADER, f"kind = {kind}"]
    for key, value in fields.items():
        if value is None:
            continue
        lines.append(f"{key} = {_encode(value)}")
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

def plan_to_text(plan) -> str:
    if isinstance(plan, _params.EqPlan):
        return format_document(
            "eq-plan",
            {
                "bits_per_sample": plan.bits_per_sample,
                "num_samples": plan.num_samples,
                "entropy_rate": plan.entropy_rate,
                "epsilon": plan.epsilon,
                "vec_len": plan.vec_len,
                "field_bits": plan.field_bits,
                "num_blocks": plan.num_blocks,
                "output_bits": plan.output_bits,
                "log2_error": plan.log2_error,
            },
        )
    if isinstance(plan, _params.NeqPlan):
        return format_document(
            "neq-plan",
            {
                "bits_per_sample": plan.bits_per_sample,
                "entropy_rate": plan.entropy_rate,
                "vec_len": plan.vec_len,
                "first_field_bits": plan.first_field_bits,
                "growth": plan.growth,
                "log2_error_limit": plan.log2_error_limit,
            },
        )
    raise TypeError(f"not a plan: {plan!r}")


def plan_from_text(text: str):
    kind, f = parse_document(text)
    if kind == "eq-plan":
        return _params.EqPlan(
            bits_per_sample=int(f["bits_per_sample"]),
            num_samples=int(f["num_samples"]),
            entropy_rate=Fraction(f["entropy_rate"]),
            epsilon=Fraction(f["epsilon"]),
            vec_len=int(f["vec_len"]),
            field_bits=int(f["field_bits"]),
            num_blocks=int(f["num_blocks"]),
            output_bits=int(f["output_bits"]),
            log2_error=float(f["log2_error"]),
        )
    if kind == "neq-plan":
        limit = f.get("log2_error_limit")
        return _params.NeqPlan(
            bits_per_sample=int(f["bits_per_sample"]),
            entropy_rate=Fraction(f["entropy_rate"]),
            vec_len=int(f["vec_len"]),
            first_field_bits=int(f["first_field_bits"]),
            growth=int(f["growth"]),
            log2_error_limit=float(limit) if limit is not None else None,
        )
    raise ValueError(f"unknown plan kind {kind!r}")


# ---------- extraction reports ----------

@dataclass
class ExtractionReport:
    """Structured summary of one extraction run.

    `stop_reason` says why the run ended: ``completed`` (every planned
    equal-width block was extracted), ``input-exhausted`` (a source ran out
    before the next block), ``block-limit`` (``max_blocks`` was reached),
    ``width-cap`` (the next incremental block would exceed the 128-bit
    field cap) or ``interrupted`` (the consumer closed the chunk iterator
    before the schedule ended).
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
        fields: dict[str, Any] = {"mode": self.mode}
        _, plan_fields = parse_document(plan_to_text(self.plan))
        for key, value in plan_fields.items():
            fields[f"plan.{key}"] = value
        fields.update(
            {
                "blocks_completed": self.blocks_completed,
                "x_bits_consumed": self.x_bits_consumed,
                "y_bits_consumed": self.y_bits_consumed,
                "output_bits": self.output_bits,
                "x_discarded_tail_bits": self.x_discarded_tail_bits,
                "y_discarded_tail_bits": self.y_discarded_tail_bits,
                "log2_error_bound": self.log2_error_bound,
                "wall_time_s": self.wall_time_s,
                "window_disjointness": self.window_disjointness,
                "stop_reason": self.stop_reason,
                "pad_bits": self.pad_bits,
            }
        )
        return format_document("extraction-report", fields)

    @classmethod
    def from_text(cls, text: str) -> "ExtractionReport":
        kind, f = parse_document(text)
        if kind != "extraction-report":
            raise ValueError(f"not an extraction report: kind {kind!r}")
        mode = f["mode"]
        plan_kind = "eq-plan" if mode == "eq" else "neq-plan"
        plan_lines = [HEADER, f"kind = {plan_kind}"]
        for key, value in f.items():
            if key.startswith("plan."):
                plan_lines.append(f"{key[len('plan.'):]} = {value}")
        plan = plan_from_text("\n".join(plan_lines) + "\n")
        pad = f.get("pad_bits")
        return cls(
            mode=mode,
            plan=plan,
            blocks_completed=int(f["blocks_completed"]),
            x_bits_consumed=int(f["x_bits_consumed"]),
            y_bits_consumed=int(f["y_bits_consumed"]),
            output_bits=int(f["output_bits"]),
            x_discarded_tail_bits=int(f["x_discarded_tail_bits"]),
            y_discarded_tail_bits=int(f["y_discarded_tail_bits"]),
            log2_error_bound=float(f["log2_error_bound"]),
            wall_time_s=float(f["wall_time_s"]),
            window_disjointness=f["window_disjointness"] == "true",
            stop_reason=f.get("stop_reason", "completed"),
            pad_bits=int(pad) if pad is not None else None,
        )


__all__ = [
    "HEADER",
    "ExtractionReport",
    "format_document",
    "parse_document",
    "plan_from_text",
    "plan_to_text",
]
