"""Static EPR-pair pre-distribution planning (Section 2.3).

Teleportation consumes one pre-distributed EPR pair per move; pairs are
generated at the global memory and shipped to the endpoints *ahead* of
their consumption ("Our compiler schedules the pre-distribution of EPR
pairs statically"). Latency is masked as long as supply keeps up;
otherwise the computation stalls waiting for pairs. Longer distances do
not add latency, but they do add *bandwidth* pressure (more pairs in
flight per channel).

Given a movement-annotated schedule, this module derives:

* the per-epoch and per-channel pair demand timeline;
* the minimum steady generation rate that masks all distribution
  (no stalls);
* the stall cycles incurred at any lower rate, and the resulting
  effective runtime;
* the pair buffer each endpoint must provide when generation runs
  eagerly from cycle zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..sched.types import Schedule
from .machine import GATE_CYCLES, epoch_cycles, split_epoch
from .memory import loc_label

__all__ = ["EPRDemand", "EPRPlan", "epr_demand_timeline", "plan_epr_distribution"]


@dataclass(frozen=True)
class EPRDemand:
    """Pair demand of one movement epoch.

    Attributes:
        cycle: the cycle at which the epoch begins (pairs must be on
            site by then).
        pairs: total pairs consumed in this epoch.
        channels: per-(src,dst) channel consumption.
    """

    cycle: int
    pairs: int
    channels: Dict[Tuple[str, str], int]


@dataclass
class EPRPlan:
    """A static pre-distribution plan.

    Attributes:
        demands: the epoch demand timeline.
        total_pairs: pairs consumed over the whole schedule.
        base_runtime: schedule runtime with fully masked distribution.
        rate: the generation rate the plan was computed for
            (pairs/cycle).
        stall_cycles: added cycles spent waiting for pair generation.
        runtime: base_runtime + stall_cycles.
        prestage_pairs: pairs that must exist before cycle 0 (initial
            operand fetches) regardless of rate.
        min_masking_rate: smallest steady rate with zero stalls, given
            the prestaged pairs.
        peak_buffer: largest number of generated-but-unconsumed pairs
            outstanding under eager generation at ``rate`` (the storage
            the endpoints must provide).
        peak_channel_rate: busiest single-epoch channel demand.
    """

    demands: List[EPRDemand]
    total_pairs: int
    base_runtime: int
    rate: float
    stall_cycles: int
    prestage_pairs: int
    min_masking_rate: float
    peak_buffer: int
    peak_channel_rate: int

    @property
    def runtime(self) -> int:
        return self.base_runtime + self.stall_cycles


def epr_demand_timeline(sched: Schedule) -> Tuple[List[EPRDemand], int]:
    """Walk a movement-annotated schedule and return (demands,
    base_runtime), where each demand is pinned to the cycle its epoch
    starts at."""
    demands: List[EPRDemand] = []
    cycle = 0
    for ts in sched.timesteps:
        teleports, locals_ = split_epoch(ts.moves)
        if teleports:
            channels: Dict[Tuple[str, str], int] = {}
            for m in teleports:
                key = (loc_label(m.src), loc_label(m.dst))
                channels[key] = channels.get(key, 0) + 1
            demands.append(
                EPRDemand(cycle=cycle, pairs=len(teleports),
                          channels=channels)
            )
        cycle += epoch_cycles(len(teleports), len(locals_))
        cycle += GATE_CYCLES
    return demands, cycle


def plan_epr_distribution(
    sched: Schedule, rate: float = math.inf
) -> EPRPlan:
    """Plan pre-distribution for ``sched`` at a steady generation
    ``rate`` (pairs per cycle).

    Generation is eager: the source starts producing at cycle 0 and
    never idles while pairs remain to produce. An epoch whose demand
    outruns cumulative production stalls the machine until the missing
    pairs exist; stalls themselves give the generator time to catch up.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    demands, base_runtime = epr_demand_timeline(sched)
    total_pairs = sum(d.pairs for d in demands)
    peak_channel = max(
        (max(d.channels.values()) for d in demands), default=0
    )

    # Initial operand fetches consume pairs at cycle 0; those must be
    # pre-staged regardless of rate.
    prestage = demands[0].pairs if demands and demands[0].cycle == 0 else 0

    # Minimum masking rate: with the prestage granted, demand through
    # epoch i (beyond the prestage) must be producible in c_i cycles.
    min_rate = 0.0
    cumulative = 0
    for d in demands:
        cumulative += d.pairs
        if d.cycle > 0:
            need = cumulative - prestage
            if need > 0:
                min_rate = max(min_rate, need / d.cycle)

    # Stall computation at the requested rate: production (prestage +
    # rate * elapsed) must cover cumulative demand at every epoch;
    # shortfalls stall the machine, which also buys production time.
    stalls = 0
    cumulative = 0
    peak_buffer = prestage
    for d in demands:
        cumulative += d.pairs
        elapsed = d.cycle + stalls
        if math.isinf(rate):
            # Just-in-time production: never stalls, never buffers more
            # than the prestage.
            continue
        produced = prestage + rate * elapsed
        if produced < cumulative:
            stalls += math.ceil((cumulative - produced) / rate)
        produced = min(prestage + rate * (d.cycle + stalls), total_pairs)
        peak_buffer = max(peak_buffer, int(produced) - (cumulative - d.pairs))
    return EPRPlan(
        demands=demands,
        total_pairs=total_pairs,
        base_runtime=base_runtime,
        rate=rate,
        stall_cycles=stalls,
        prestage_pairs=prestage,
        min_masking_rate=min_rate,
        peak_buffer=peak_buffer,
        peak_channel_rate=peak_channel,
    )
