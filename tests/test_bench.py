"""Cost-model arithmetic and software throughput measurement."""

import pytest

from blockext import bench
from blockext.bench import (
    DEFAULT_MUL_OPS_Q80,
    FpgaModel,
    GateCostModel,
    gate_count,
    measure_throughput,
    projected_speed,
)
from blockext.params import plan_eq
from tests.test_extractor import tiny_eq_plan


def test_gate_count_published_configuration():
    assert gate_count(71, 80, 4885) == 352435
    assert gate_count(1, 80, 4885) == 4885
    assert gate_count(2, 1, 1) == 3


def test_gate_cost_model_identity():
    cost = GateCostModel(field_bits=80, vec_len=71, mul_ops=DEFAULT_MUL_OPS_Q80)
    assert cost.block_ops == cost.field_bits * (71 - 1) + cost.mul_ops * 71
    assert cost.block_ops == 352435


def test_projected_speed_published_configuration():
    cost = GateCostModel(field_bits=80, vec_len=71, mul_ops=4885)
    device = FpgaModel(clock_hz=200e6, lut_count=300_000, ops_per_lut=5)
    proj = projected_speed(device, cost)
    assert proj.lanes == 4
    assert proj.bits_per_second == 64e9
    assert proj.feasible


def test_projected_speed_single_lane_scaling():
    cost = GateCostModel(field_bits=80, vec_len=71, mul_ops=4885)
    one_lane = FpgaModel(clock_hz=200e6, lut_count=352435, ops_per_lut=1)
    proj = projected_speed(one_lane, cost)
    assert proj.lanes == 1
    assert proj.bits_per_second == 16e9


def test_projected_speed_zero_lanes():
    cost = GateCostModel(field_bits=80, vec_len=71, mul_ops=4885)
    small = FpgaModel(clock_hz=200e6, lut_count=300_000, ops_per_lut=1)
    proj = projected_speed(small, cost)
    assert proj.lanes == 0 and proj.bits_per_second == 0.0
    assert not proj.feasible


def test_gate_count_validation():
    with pytest.raises(ValueError):
        gate_count(0, 80, 4885)
    for mul_ops in (0, -5):
        with pytest.raises(ValueError, match="mul_ops"):
            gate_count(1, 1, mul_ops)


@pytest.mark.parametrize("clock_hz, lut_count, ops_per_lut", [
    (float("nan"), 300_000, 5), (float("inf"), 300_000, 5), (0.0, 300_000, 5),
    (-1.0, 300_000, 5), (200e6, 0, 5), (200e6, 300_000, 0),
])
def test_fpga_model_validation(clock_hz, lut_count, ops_per_lut):
    with pytest.raises(ValueError):
        FpgaModel(clock_hz=clock_hz, lut_count=lut_count, ops_per_lut=ops_per_lut)


def test_projected_speed_beyond_the_float_range():
    cost = GateCostModel(field_bits=80, vec_len=71, mul_ops=4885)
    with pytest.raises(ValueError, match="overflows"):
        projected_speed(FpgaModel(clock_hz=200e6, lut_count=10**400, ops_per_lut=5), cost)


def test_measure_throughput_tiny_plan():
    plan = plan_eq(8, 4096, "3/4", "2^-8")
    rep = measure_throughput(plan, duration_s=0.3, mul_ops=4885, seed=1)
    assert rep.blocks > 0
    assert rep.output_bits == rep.blocks * plan.field_bits
    assert rep.output_bits_per_second > 0
    assert rep.model_block_ops == gate_count(plan.vec_len, plan.field_bits, 4885)
    assert rep.input_bits_per_source == rep.blocks * plan.block_bits


def test_measure_throughput_short_duration_warns():
    plan = plan_eq(16, 2**14, "10.74/16", "2^-10")   # q=48 blocks are slow
    rep = measure_throughput(plan, duration_s=0.005, seed=3)
    assert rep.warnings
    with pytest.raises(ValueError):
        measure_throughput(plan, duration_s=0.0)


def test_measure_throughput_runs_one_extraction(monkeypatch):
    calls, real = [], bench.extract_neq

    def counting(*args, **kwargs):
        calls.append(args[2])   # the plan
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "extract_neq", counting)
    plan = plan_eq(8, 4096, "3/4", "2^-8")
    for _ in range(2):
        calls.clear()
        rep = measure_throughput(plan, duration_s=0.2, seed=2)
        assert len(calls) == 1 and rep.blocks > 0
        assert (calls[0].first_field_bits, calls[0].growth) == (plan.field_bits, 0)


def test_measure_throughput_runs_the_plans_own_vector_length(monkeypatch):
    # At rate 3/4 the planner's n is 48; a hand-made plan keeps its own.
    calls, real = [], bench.extract_neq

    def capturing(*args, **kwargs):
        calls.append(args[2])   # the plan
        return real(*args, **kwargs)

    monkeypatch.setattr(bench, "extract_neq", capturing)
    plan = tiny_eq_plan(8, 4096, "3/4", 5, 8)
    rep = measure_throughput(plan, duration_s=0.2, seed=2)
    assert [(p.vec_len, p.first_field_bits, p.growth) for p in calls] == [(5, 8, 0)]
    assert rep.blocks > 0 and rep.input_bits_per_source == rep.blocks * 40
