"""Movement derivation and communication-aware runtime (Sections 3.2, 4.4).

The fine-grained schedulers place *operations*; the qubit movements those
placements imply are derived afterwards, following the paper's execution
model:

* an operand not resident in its op's region is teleported there in the
  movement epoch before the timestep;
* after a timestep, a qubit staying in a region that is *active* next
  timestep (executing other qubits' ops) must be evacuated — to the
  region's local scratchpad if its next op is in the same region and
  space remains (a 1-cycle ballistic move), otherwise to global memory
  by teleportation; idle regions double as passive storage;
* a movement epoch costs 4 cycles if it contains any teleport, 1 cycle
  if it contains only local moves, 0 if empty ("If any SIMD regions in a
  timestep have a global move, the full four cycle move time is
  retained").

The *naive movement model* — the baseline of Figures 7 and 8 — instead
charges a teleport epoch around every sequential gate: runtime = 5x the
gate count.

:func:`iter_schedule_epochs` is the one implementation of the epoch
loop. It runs over :class:`~repro.sched.columns.StreamColumns` and a
:class:`~repro.sched.columns.StreamedSchedule`, for both compile
pipelines and the streamed engine; :func:`derive_movement_stream`
drains it, and :func:`derive_movement` adapts a boxed
:class:`~repro.sched.types.Schedule`, storing each epoch in its
timestep's ``moves``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    NAIVE_FACTOR,
    epoch_cycles,
    split_epoch,
)
from ..arch.memory import MemoryMap, loc_label
from ..arch.teleport import EPRAccounting
from ..instrument import spanned
from .columns import StreamColumns, StreamedSchedule
from .types import Move, Schedule

__all__ = [
    "CommStats",
    "derive_movement",
    "derive_movement_stream",
    "iter_schedule_epochs",
    "naive_runtime",
]


@dataclass
class CommStats:
    """Communication profile of one scheduled module.

    Attributes:
        gate_cycles: schedule length (1 cycle per timestep).
        comm_cycles: cycles added by movement epochs.
        runtime: gate_cycles + comm_cycles.
        teleports / local_moves: total move counts by kind.
        teleport_epochs / local_epochs: epochs billed at 4 / at 1.
        epr: per-channel EPR-pair consumption.
    """

    gate_cycles: int = 0
    comm_cycles: int = 0
    teleports: int = 0
    local_moves: int = 0
    teleport_epochs: int = 0
    local_epochs: int = 0
    epr: EPRAccounting = field(default_factory=EPRAccounting)

    @property
    def runtime(self) -> int:
        return self.gate_cycles + self.comm_cycles


def naive_runtime(op_count: int) -> int:
    """Runtime of the sequential, naive movement model: one gate per
    timestep, every timestep wrapped in a teleport epoch (5x)."""
    return NAIVE_FACTOR * op_count


def derive_movement(
    sched: Schedule, machine: MultiSIMD
) -> CommStats:
    """Derive the movement epochs for ``sched`` on ``machine``.

    Populates each timestep's ``moves`` list in place (idempotent: any
    existing moves are replaced) and returns the communication profile.
    """
    return derive_movement_stream(
        StreamColumns.from_dag(sched.dag),
        StreamedSchedule.from_schedule(sched),
        machine,
        sink=sched.store_epoch,
    )


def iter_schedule_epochs(
    cols: StreamColumns,
    ssched: StreamedSchedule,
    machine: MultiSIMD,
    stats: CommStats,
) -> Iterator[Tuple[int, List[Move], List[Tuple[int, List[int]]]]]:
    """Derive movement epoch-at-a-time, yielding ``(t, moves,
    regions)`` per timestep and billing each epoch into ``stats``.

    The set of region-resident qubits is tracked incrementally instead
    of rescanning the whole memory map every timestep (the
    pre-optimization scan made movement derivation O(qubits x
    timesteps)); dead qubits are retired from the tracked set once their
    use list is exhausted. Eviction candidates are visited in each
    qubit's first-move order — the memory map's insertion order, which
    is what the reference scan iterates — so the scratchpad fill
    decisions and the emitted ``Move`` sequence are bit-identical to the
    pre-optimization oracle kept with the tests
    (``tests/_reference.py``). Peak memory is the per-qubit use lists
    (one packed int per operand slot), never the epochs themselves.
    """
    op_q, op_off = cols.op_q, cols.op_off
    qubit_objs = cols.qubits
    n_ts = ssched.length
    stats.gate_cycles += n_ts * GATE_CYCLES
    # Per-qubit ordered use list: packed (timestep << 16) | region.
    uses: List[array] = [array("q") for _ in range(len(qubit_objs))]
    for t in range(n_ts):
        for j in range(ssched.ts_off[t], ssched.ts_off[t + 1]):
            packed = (t << 16) | ssched.flat_regions[j]
            node = ssched.flat_nodes[j]
            for qid in op_q[op_off[node] : op_off[node + 1]]:
                uses[qid].append(packed)
    next_use_idx = array("i", bytes(4 * len(qubit_objs)))

    mm = MemoryMap(k=ssched.k, local_capacity=machine.local_memory)
    pending_evictions: List[Move] = []
    # Qubits currently sitting in a SIMD region, plus each qubit's
    # first-move serial (== its position in mm.locations' insertion
    # order, which the reference eviction scan iterates).
    resident: Dict[int, int] = {}
    serial: Dict[int, int] = {}

    next_regions = ssched.regions_at(0) if n_ts else []
    for t in range(n_ts):
        cur_regions = next_regions
        epoch: List[Move] = pending_evictions
        pending_evictions = []
        # --- fetch operands into their regions -------------------------
        for r, nodes in cur_regions:
            target = ("region", r)
            for node in nodes:
                for qid in op_q[op_off[node] : op_off[node + 1]]:
                    q = qubit_objs[qid]
                    src = mm.location(q)
                    if src == target:
                        continue
                    kind = "local" if src == ("local", r) else "teleport"
                    epoch.append(Move(q, src, target, kind))
                    mm.move(q, target)
                    resident[qid] = r
                    if qid not in serial:
                        serial[qid] = len(serial)
            # Advance the qubit-use cursors past this timestep.
            for node in nodes:
                for qid in op_q[op_off[node] : op_off[node + 1]]:
                    ulist = uses[qid]
                    u = next_use_idx[qid]
                    end = len(ulist)
                    while u < end and (ulist[u] >> 16) <= t:
                        u += 1
                    next_use_idx[qid] = u
        _bill_epoch(epoch, stats)
        # --- eviction decisions for the next epoch ----------------------
        if t + 1 < n_ts:
            next_regions = ssched.regions_at(t + 1)
            active_next = {r for r, _ in next_regions}
            used_next: Dict[int, int] = {}
            for r, nodes in next_regions:
                for node in nodes:
                    for qid in op_q[op_off[node] : op_off[node + 1]]:
                        used_next[qid] = r
            candidates: List[Tuple[int, int]] = []
            dead: List[int] = []
            for qid, r in resident.items():
                if qid in used_next:
                    # Either stays for its next op or is fetched by the
                    # next timestep's operand pass.
                    continue
                if r not in active_next:
                    continue  # idle regions store qubits passively
                if next_use_idx[qid] >= len(uses[qid]):
                    # Dead qubit: left behind and reabsorbed as ancilla
                    # or EPR feedstock (Section 4.4) — no move billed,
                    # and no reason to ever reconsider it.
                    dead.append(qid)
                    continue
                candidates.append((serial[qid], qid))
            for qid in dead:
                del resident[qid]
            # Scratchpad space is claimed in visit order, so the visit
            # order must match the reference scan's (first-move order).
            candidates.sort()
            for _, qid in candidates:
                r = resident[qid]
                next_region = uses[qid][next_use_idx[qid]] & 0xFFFF
                if (
                    next_region == r
                    and machine.has_local_memory
                    and mm.local_has_space(r)
                ):
                    dest = ("local", r)
                    kind = "local"
                else:
                    dest = ("global",)
                    kind = "teleport"
                q = qubit_objs[qid]
                pending_evictions.append(Move(q, ("region", r), dest, kind))
                mm.move(q, dest)
                del resident[qid]
        yield t, epoch, cur_regions


@spanned("comm:derive_movement")
def derive_movement_stream(
    cols: StreamColumns,
    ssched: StreamedSchedule,
    machine: MultiSIMD,
    sink: Optional[
        Callable[[int, List[Move], List[Tuple[int, List[int]]]], None]
    ] = None,
) -> CommStats:
    """Drain :func:`iter_schedule_epochs` and return the communication
    profile; ``sink`` (if given) observes each epoch as it retires —
    the hook that fills ``ts.moves`` and writes stream exports."""
    stats = CommStats()
    for t, epoch, regions in iter_schedule_epochs(
        cols, ssched, machine, stats
    ):
        if sink is not None:
            sink(t, epoch, regions)
    return stats


def _bill_epoch(epoch: List[Move], stats: CommStats) -> None:
    """Charge one movement epoch per the paper's cost rule
    (:func:`~repro.arch.machine.epoch_cycles` — the one canonical
    implementation, shared with EPR planning, NUMA re-billing, replay
    and the execution engine)."""
    teleports, locals_ = split_epoch(epoch)
    stats.teleports += len(teleports)
    stats.local_moves += len(locals_)
    stats.comm_cycles += epoch_cycles(len(teleports), len(locals_))
    if teleports:
        stats.teleport_epochs += 1
        stats.epr.record_epoch(
            [(loc_label(m.src), loc_label(m.dst)) for m in teleports]
        )
    elif locals_:
        stats.local_epochs += 1
