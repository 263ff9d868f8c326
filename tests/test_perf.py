import math

import pytest

from pimfilter.perf import (
    GB,
    CpuBaseline,
    PerfParams,
    PowerParams,
    compute_latency,
    crossover_arrays,
    curve_tsv,
    figure_params,
    latency_curve,
    power_constrained_arrays,
    total_latency,
    total_transferred_bytes,
    transfer_latency,
)


def sig3(value, target):
    return math.isclose(value, target, rel_tol=5e-3)


class TestComputeLatency:
    def test_full_array_count(self):
        assert sig3(compute_latency(PerfParams(), 500_000), 13.8)

    def test_power_throttled_count(self):
        assert sig3(compute_latency(PerfParams(), 100_000), 69.0)

    def test_single_array_figure_mode(self):
        assert sig3(compute_latency(figure_params(), 1), 1.38e6)

    def test_product_with_arrays_is_constant(self):
        p = PerfParams()
        ref = compute_latency(p, 1) * 1
        for n in (7, 1000, 499_999):
            assert math.isclose(compute_latency(p, n) * n, ref)


class TestTransfer:
    def test_total_bytes(self):
        assert sig3(total_transferred_bytes(PerfParams()) / GB, 598.0)

    def test_latency(self):
        assert sig3(transfer_latency(PerfParams()), 59.8)

    def test_zero_locations_rejected(self):
        with pytest.raises(ValueError):
            PerfParams(locations=0)

    def test_rate_halved_latency_doubled(self):
        base = transfer_latency(PerfParams())
        halved = transfer_latency(PerfParams(transfer_rate_gb_s=5.0))
        assert math.isclose(halved, 2 * base)


class TestTotal:
    def test_headline_number(self):
        total, speedups = total_latency(PerfParams(), 500_000)
        assert sig3(total, 73.6)
        assert round(speedups.compute) == 160
        assert round(speedups.transfer) == 86
        assert round(speedups.total) == 100

    def test_total_is_sum_of_parts(self):
        p = PerfParams()
        total, _ = total_latency(p, 12_345)
        assert math.isclose(total, compute_latency(p, 12_345) + transfer_latency(p))

    def test_throttled_total_ratio(self):
        full, _ = total_latency(PerfParams(), 500_000)
        throttled, _ = total_latency(PerfParams(), 100_000)
        assert sig3(throttled, 128.8)
        assert abs(throttled / full - 1.75) <= 0.01


class TestPower:
    def test_hundred_watt_budget(self):
        assert power_constrained_arrays(PowerParams(budget_w=100), 500_000) == 100_000

    def test_one_watt_budget(self):
        assert power_constrained_arrays(PowerParams(budget_w=1), 500_000) == 1_000

    def test_unconstrained(self):
        assert power_constrained_arrays(PowerParams(budget_w=500), 500_000) == 500_000

    def test_budget_near_float_limit(self):
        # the allowed count overflows to inf; it must not reach int()
        assert power_constrained_arrays(PowerParams(budget_w=1e308), 500_000) == 500_000


class TestCurve:
    def test_crossover_near_190(self):
        assert abs(crossover_arrays(figure_params()) - 190) <= 5

    def test_crossover_is_tight(self):
        p = figure_params()
        n = crossover_arrays(p)
        cpu = CpuBaseline()
        assert total_latency(p, n, cpu)[0] < cpu.total_s
        assert total_latency(p, n - 1, cpu)[0] >= cpu.total_s

    def test_no_crossover_when_transfer_alone_is_slower(self):
        # 598 GB at 0.01 GB/s take 59,800 s, past the CPU's 7,360 s total
        with pytest.raises(ValueError, match="^transfer alone exceeds the baseline$"):
            crossover_arrays(PerfParams(transfer_rate_gb_s=0.01))

    def test_endpoint(self):
        total, _ = total_latency(figure_params(), 500_000)
        assert 61.5 <= total <= 63.0

    def test_monotone_non_increasing(self):
        pts = latency_curve(figure_params(), [1, 10, 200, 10_000, 500_000])
        values = [s for _, s, _ in pts]
        assert values == sorted(values, reverse=True)

    def test_doubling_halves_compute_term(self):
        p = figure_params()
        xfer = transfer_latency(p)
        t1, _ = total_latency(p, 1000)
        t2, _ = total_latency(p, 2000)
        assert math.isclose(t1 - xfer, 2 * (t2 - xfer))

    def test_tsv_format(self):
        text = curve_tsv(figure_params(), [1, 500_000])
        lines = text.strip().split("\n")
        assert lines[0] == "arrays\tpim_seconds\tcpu_seconds"
        assert len(lines) == 3
        first = lines[1].split("\t")
        assert first[0] == "1" and float(first[2]) == 7360.0


class TestValidation:
    def test_baseline_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CpuBaseline(transfer_fraction=0.5, compute_fraction=0.4)

    def test_at_least_one_array(self):
        with pytest.raises(ValueError):
            compute_latency(PerfParams(), 0)

    @pytest.mark.parametrize("value", [0, -1, math.nan, math.inf, -math.inf])
    def test_non_finite_or_non_positive_rejected(self, value):
        with pytest.raises(ValueError, match="cycles_per_iteration"):
            PerfParams(cycles_per_iteration=value)
        with pytest.raises(ValueError, match="budget_w"):
            PowerParams(budget_w=value)
