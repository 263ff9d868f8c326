"""Analytic latency, bandwidth, and power model of the filter at scale.

Pure arithmetic over a handful of constants: arrays work in lockstep,
each check costs a fixed cycle count, and every candidate location moves
13 bytes over the host link. Two modes differ only in the iteration
factor: the `PerfParams` default (factor 5) models a per-tile cap of
five times the mean queue length, `figure_params` (factor 1) the idealised
one-location-per-iteration sweep used for scaling curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GB = 1e9


def _positive(**kv):
    for name, value in kv.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be a finite positive number")


@dataclass(frozen=True)
class PerfParams:
    cycle_time_ns: float = 10.0
    crossbars: int = 500_000
    cycles_per_iteration: float = 3_000.0
    locations: float = 46e9
    iter_factor: float = 5.0
    bytes_per_location: float = 13.0
    transfer_rate_gb_s: float = 10.0

    def __post_init__(self):
        _positive(cycle_time_ns=self.cycle_time_ns, crossbars=self.crossbars,
                  cycles_per_iteration=self.cycles_per_iteration,
                  locations=self.locations, iter_factor=self.iter_factor,
                  bytes_per_location=self.bytes_per_location,
                  transfer_rate_gb_s=self.transfer_rate_gb_s)


def figure_params():
    return PerfParams(iter_factor=1.0)


@dataclass(frozen=True)
class CpuBaseline:
    total_s: float = 7360.0
    transfer_fraction: float = 0.70
    compute_fraction: float = 0.30

    def __post_init__(self):
        if abs(self.transfer_fraction + self.compute_fraction - 1.0) > 1e-9:
            raise ValueError("baseline fractions must sum to 1")


@dataclass(frozen=True)
class PowerParams:
    watts_per_thousand_arrays: float = 1.0  # at up to 100 active rows each
    budget_w: float = 100.0

    def __post_init__(self):
        _positive(watts_per_thousand_arrays=self.watts_per_thousand_arrays,
                  budget_w=self.budget_w)


def iterations(params, active_arrays):
    if active_arrays < 1:
        raise ValueError("need at least one active array")
    return params.iter_factor * params.locations / active_arrays


def compute_latency(params, active_arrays):
    """Seconds of in-array compute with `active_arrays` working in parallel."""
    return iterations(params, active_arrays) * params.cycles_per_iteration \
        * params.cycle_time_ns * 1e-9


def total_transferred_bytes(params):
    return params.bytes_per_location * params.locations


def transfer_latency(params):
    return total_transferred_bytes(params) / (params.transfer_rate_gb_s * GB)


@dataclass(frozen=True)
class Speedups:
    compute: float
    transfer: float
    total: float


def total_latency(params, active_arrays, cpu=CpuBaseline()):
    """Compute + transfer seconds, with speedups against the CPU baseline."""
    comp = compute_latency(params, active_arrays)
    xfer = transfer_latency(params)
    total = comp + xfer
    speedups = Speedups(
        compute=cpu.compute_fraction * cpu.total_s / comp,
        transfer=cpu.transfer_fraction * cpu.total_s / xfer,
        total=cpu.total_s / total,
    )
    return total, speedups


def power_constrained_arrays(power, requested_arrays):
    """Arrays allowed to run simultaneously under the power budget."""
    allowed = power.budget_w / power.watts_per_thousand_arrays * 1000
    # compare as floats first: a budget near the float limit gives inf here
    return requested_arrays if allowed >= requested_arrays else int(allowed)


def crossover_arrays(params, cpu=CpuBaseline()):
    """Smallest array count whose total latency beats the CPU baseline."""
    xfer = transfer_latency(params)
    if xfer >= cpu.total_s:
        raise ValueError("transfer alone exceeds the baseline")
    per_array = params.iter_factor * params.locations \
        * params.cycles_per_iteration * params.cycle_time_ns * 1e-9
    if not math.isfinite(per_array):
        raise ValueError("latency of one array is not finite")
    n = math.floor(per_array / (cpu.total_s - xfer)) + 1
    while compute_latency(params, n) + xfer >= cpu.total_s:  # guard rounding
        n += 1
    return n


def latency_curve(params, array_counts, cpu=CpuBaseline()):
    """(arrays, pim seconds, cpu seconds) triples, non-increasing in arrays."""
    curve = [
        (n, compute_latency(params, n) + transfer_latency(params), cpu.total_s)
        for n in array_counts
    ]
    if not all(math.isfinite(pim_s) for _, pim_s, _ in curve):
        raise ValueError("latency is not finite")
    return curve


def curve_tsv(params, array_counts, cpu=CpuBaseline()):
    lines = ["arrays\tpim_seconds\tcpu_seconds"]
    for n, pim_s, cpu_s in latency_curve(params, array_counts, cpu):
        lines.append(f"{n}\t{pim_s:.6f}\t{cpu_s:.6f}")
    return "\n".join(lines) + "\n"
