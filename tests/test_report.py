"""The `blockext-report v1` documents: exact bytes and tolerant parsing."""

from fractions import Fraction

import pytest

from blockext.params import EqPlan, NeqPlan
from blockext.report import ExtractionReport, plan_from_text, plan_to_text

EQ_PLAN = EqPlan(
    bits_per_sample=16, num_samples=65536, entropy_rate=Fraction(537, 800),
    epsilon=Fraction(1, 1048576), vec_len=71, field_bits=32, num_blocks=461,
    output_bits=14752, log2_error=-23.878895809210093,
)
EQ_PLAN_TEXT = """\
blockext-report v1
kind = eq-plan
bits_per_sample = 16
num_samples = 65536
entropy_rate = 537/800
epsilon = 1/1048576
vec_len = 71
field_bits = 32
num_blocks = 461
output_bits = 14752
log2_error = -23.878895809210093
"""

NEQ_PLAN = NeqPlan(
    bits_per_sample=16, entropy_rate=Fraction(537, 800), vec_len=71,
    first_field_bits=32, growth=0, log2_error_limit=None,
)
NEQ_PLAN_TEXT = """\
blockext-report v1
kind = neq-plan
bits_per_sample = 16
entropy_rate = 537/800
vec_len = 71
first_field_bits = 32
growth = 0
"""

REPORT = ExtractionReport(
    mode="eq", plan=EQ_PLAN, blocks_completed=36, x_bits_consumed=81792,
    y_bits_consumed=81792, output_bits=1152, x_discarded_tail_bits=128,
    y_discarded_tail_bits=128, log2_error_bound=-27.557593748197117,
    wall_time_s=0.25, window_disjointness=True, stop_reason="input-exhausted",
    pad_bits=4,
)
REPORT_TEXT = """\
blockext-report v1
kind = extraction-report
mode = eq
plan.bits_per_sample = 16
plan.num_samples = 65536
plan.entropy_rate = 537/800
plan.epsilon = 1/1048576
plan.vec_len = 71
plan.field_bits = 32
plan.num_blocks = 461
plan.output_bits = 14752
plan.log2_error = -23.878895809210093
blocks_completed = 36
x_bits_consumed = 81792
y_bits_consumed = 81792
output_bits = 1152
x_discarded_tail_bits = 128
y_discarded_tail_bits = 128
log2_error_bound = -27.557593748197117
wall_time_s = 0.25
window_disjointness = true
stop_reason = input-exhausted
pad_bits = 4
"""


def _drop(text: str, *keys: str) -> str:
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if ln.split(" = ")[0] not in keys)


@pytest.mark.parametrize("obj, text", [(EQ_PLAN, EQ_PLAN_TEXT), (NEQ_PLAN, NEQ_PLAN_TEXT)])
def test_plan_text_is_pinned(obj, text):
    assert plan_to_text(obj) == text
    assert plan_from_text(text) == obj


def test_report_text_is_pinned():
    assert REPORT.to_text() == REPORT_TEXT
    assert ExtractionReport.from_text(REPORT_TEXT) == REPORT


def test_unknown_keys_are_ignored():
    assert plan_from_text(EQ_PLAN_TEXT + "future_key = 7\n") == EQ_PLAN
    extra = REPORT_TEXT + "plan = x\nplan.future_key = x\nkernel_s = 0.5\n"
    assert ExtractionReport.from_text(extra) == REPORT


def test_report_without_optional_keys_takes_the_defaults():
    text = _drop(REPORT_TEXT, "stop_reason", "pad_bits", "window_disjointness")
    parsed = ExtractionReport.from_text(text)
    assert parsed.stop_reason == "completed"
    assert parsed.pad_bits is None
    assert parsed.window_disjointness is True
    assert parsed.plan == EQ_PLAN


@pytest.mark.parametrize("key", ["blocks_completed", "mode", "plan.vec_len"])
def test_missing_required_report_key_is_a_value_error(key):
    with pytest.raises(ValueError, match=key):
        ExtractionReport.from_text(_drop(REPORT_TEXT, key))


def test_missing_required_plan_key_is_a_value_error():
    with pytest.raises(ValueError, match="field_bits"):
        plan_from_text(_drop(EQ_PLAN_TEXT, "field_bits"))
    # An absent optional key is not missing: growth 0 has no limit.
    assert plan_from_text(NEQ_PLAN_TEXT).log2_error_limit is None


def test_mode_without_a_plan_kind_is_a_value_error():
    with pytest.raises(ValueError, match="plan kind"):
        ExtractionReport.from_text(REPORT_TEXT.replace("mode = eq", "mode = xx"))


def test_boolean_other_than_true_or_false_is_a_value_error():
    text = REPORT_TEXT.replace("window_disjointness = true", "window_disjointness = yes")
    with pytest.raises(ValueError, match="yes"):
        ExtractionReport.from_text(text)


@pytest.mark.parametrize("key, bad", [
    ("bits_per_sample", "x"),
    ("entropy_rate", "1/0"),
])
def test_value_that_does_not_parse_names_its_key(key, bad):
    line = next(ln for ln in EQ_PLAN_TEXT.splitlines() if ln.startswith(key + " ="))
    text = EQ_PLAN_TEXT.replace(line, f"{key} = {bad}")
    with pytest.raises(ValueError, match=key):
        plan_from_text(text)
    with pytest.raises(ValueError, match=f"plan.{key}"):
        ExtractionReport.from_text(REPORT_TEXT.replace("plan." + line, f"plan.{key} = {bad}"))
