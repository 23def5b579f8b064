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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    NAIVE_FACTOR,
    epoch_cycles,
    split_epoch,
)
from ..arch.memory import MemoryMap, loc_label
from ..arch.teleport import EPRAccounting
from ..core.qubits import Qubit
from ..instrument import spanned
from .types import Move, Schedule

__all__ = ["CommStats", "derive_movement", "naive_runtime"]


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

    gate_cycles: int
    comm_cycles: int
    teleports: int
    local_moves: int
    teleport_epochs: int
    local_epochs: int
    epr: EPRAccounting = field(default_factory=EPRAccounting)

    @property
    def runtime(self) -> int:
        return self.gate_cycles + self.comm_cycles


def naive_runtime(op_count: int) -> int:
    """Runtime of the sequential, naive movement model: one gate per
    timestep, every timestep wrapped in a teleport epoch (5x)."""
    return NAIVE_FACTOR * op_count


@spanned("comm:derive_movement")
def derive_movement(
    sched: Schedule, machine: MultiSIMD
) -> CommStats:
    """Derive the movement epochs for ``sched`` on ``machine``.

    Populates each timestep's ``moves`` list in place (idempotent: any
    existing moves are cleared) and returns the communication profile.

    The set of region-resident qubits is tracked incrementally instead
    of rescanning the whole memory map every timestep (the
    pre-optimization scan made movement derivation O(qubits x
    timesteps)); dead qubits are retired from the tracked set once their
    use list is exhausted. Eviction candidates are visited in each
    qubit's first-move order — the memory map's insertion order, which
    is what the reference scan iterates — so the scratchpad fill
    decisions and the emitted ``Move`` sequence are bit-identical to the
    pre-optimization oracle kept with the tests
    (``tests/_reference.py``).
    """
    for ts in sched.timesteps:
        ts.moves = []

    statements = sched.dag.statements
    timesteps = sched.timesteps
    # Per-qubit ordered use list: (timestep, region).
    uses: Dict[Qubit, List[Tuple[int, int]]] = {}
    for t, ts in enumerate(timesteps):
        for r, nodes in enumerate(ts.regions):
            for n in nodes:
                for q in statements[n].qubits:
                    ulist = uses.get(q)
                    if ulist is None:
                        ulist = uses[q] = []
                    ulist.append((t, r))
    next_use_idx: Dict[Qubit, int] = {q: 0 for q in uses}

    mm = MemoryMap(k=sched.k, local_capacity=machine.local_memory)
    stats = CommStats(
        gate_cycles=sched.length * GATE_CYCLES,
        comm_cycles=0,
        teleports=0,
        local_moves=0,
        teleport_epochs=0,
        local_epochs=0,
    )
    pending_evictions: List[Move] = []
    # Qubits currently sitting in a SIMD region, plus each qubit's
    # first-move serial (== its position in mm.locations' insertion
    # order, which the reference eviction scan iterates).
    resident: Dict[Qubit, int] = {}
    serial: Dict[Qubit, int] = {}
    n_ts = len(timesteps)

    for t, ts in enumerate(timesteps):
        epoch: List[Move] = pending_evictions
        pending_evictions = []
        # --- fetch operands into their regions -------------------------
        for r, nodes in enumerate(ts.regions):
            target = ("region", r)
            for n in nodes:
                for q in statements[n].qubits:
                    src = mm.location(q)
                    if src == target:
                        continue
                    kind = (
                        "local"
                        if src == ("local", r)
                        else "teleport"
                    )
                    epoch.append(Move(q, src, target, kind))
                    mm.move(q, target)
                    resident[q] = r
                    if q not in serial:
                        serial[q] = len(serial)
                # Advance the qubit-use cursors past this timestep.
            for n in nodes:
                for q in statements[n].qubits:
                    ulist = uses[q]
                    i = next_use_idx[q]
                    while i < len(ulist) and ulist[i][0] <= t:
                        i += 1
                    next_use_idx[q] = i
        ts.moves = epoch
        _bill_epoch(epoch, stats)
        # --- eviction decisions for the next epoch ----------------------
        if t + 1 < n_ts:
            next_ts = timesteps[t + 1]
            active_next = {
                r for r, nodes in enumerate(next_ts.regions) if nodes
            }
            used_next: Dict[Qubit, int] = {}
            for r, nodes in enumerate(next_ts.regions):
                for n in nodes:
                    for q in statements[n].qubits:
                        used_next[q] = r
            candidates: List[Tuple[int, Qubit]] = []
            dead: List[Qubit] = []
            for q, r in resident.items():
                if q in used_next:
                    # Either stays for its next op or is fetched by the
                    # next timestep's operand pass.
                    continue
                if r not in active_next:
                    continue  # idle regions store qubits passively
                if next_use_idx[q] >= len(uses[q]):
                    # Dead qubit: left behind and reabsorbed as ancilla
                    # or EPR feedstock (Section 4.4) — no move billed,
                    # and no reason to ever reconsider it.
                    dead.append(q)
                    continue
                candidates.append((serial[q], q))
            for q in dead:
                del resident[q]
            # Scratchpad space is claimed in visit order, so the visit
            # order must match the reference scan's (first-move order).
            candidates.sort()
            for _, q in candidates:
                r = resident[q]
                next_region = uses[q][next_use_idx[q]][1]
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
                pending_evictions.append(Move(q, ("region", r), dest, kind))
                mm.move(q, dest)
                del resident[q]
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
