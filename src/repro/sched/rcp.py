"""Ready Critical Path (RCP) scheduling — the paper's Algorithm 1.

RCP is a classical list-scheduling algorithm (Yang & Gerasoulis) that
keeps a *ready* list — only ops whose dependencies are all met — and is
extended here for the Multi-SIMD execution model with a priority over
(operation, region) pairs built from three terms:

* **operation-type prevalence** (``w_op``): common gate types are
  preferred, because scheduling one type fills a SIMD region with
  data-parallel work;
* **movement cost** (``w_dist``): operands already resident in a region
  make that region cheaper;
* **slack** (``w_slack``): ops far from their next use can wait
  (negatively correlated with priority).

Each timestep repeatedly picks the highest-weight (region, gate-type)
pair, extracts every ready op of that type into the region (up to ``d``),
and removes the region from the available set, until regions or ready
ops run out. All weights default to 1, as in the paper. Weight ties are
broken deterministically: smallest gate name first, then smallest
region index (historically the tie went to whichever pair the scan
encountered first, which depended on ready-list arrival order).

The ready set is kept *bucketed by gate type* (arrival order preserved
within each bucket), so type prevalence is an O(1) counter read and
batch extraction pops one bucket instead of rescanning the whole ready
deque; the (region, gate) selection enumerates each ready op's
resident regions (at most its operand count) plus one zero-residency
representative instead of every available region. The pre-optimization
implementation is kept as a test oracle (``tests/_reference.py``); the
differential battery checks that both produce bit-identical schedules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.dag import DependenceDAG
from ..core.qubits import Qubit
from ..instrument import spanned
from .types import Schedule

__all__ = ["RCPWeights", "schedule_rcp"]


class RCPWeights:
    """The w_op / w_dist / w_slack multipliers of Algorithm 1."""

    def __init__(
        self, w_op: float = 1.0, w_dist: float = 1.0, w_slack: float = 1.0
    ):
        self.w_op = w_op
        self.w_dist = w_dist
        self.w_slack = w_slack


@spanned("schedule:rcp")
def schedule_rcp(
    dag: DependenceDAG,
    k: int,
    d: Optional[int] = None,
    weights: Optional[RCPWeights] = None,
) -> Schedule:
    """Schedule ``dag`` on a Multi-SIMD(k,d) machine with RCP."""
    w = weights or RCPWeights()
    sched = Schedule(dag, k=k, d=d, algorithm="rcp")
    statements = dag.statements
    succs = dag.succs
    indeg = dag.indegrees()
    slack = dag.slack()
    # Ready set, bucketed by gate type. Within a bucket nodes keep
    # arrival order, which is all batch extraction needs; the bucket
    # length doubles as the type-prevalence count.
    buckets: Dict[str, Deque[int]] = {}
    n_ready = 0
    for node in dag.sources():
        gate = statements[node].gate
        bucket = buckets.get(gate)
        if bucket is None:
            bucket = buckets[gate] = deque()
        bucket.append(node)
        n_ready += 1
    # Region of last activity per qubit; None = memory (Section 3.2: all
    # qubits start in global memory).
    location: Dict[Qubit, Optional[int]] = {}
    scheduled = 0

    while scheduled < dag.n:
        ts = sched.append_timestep()
        available = list(range(k))
        placed_this_ts: List[int] = []
        while available and n_ready:
            region, gate = _pick_max_weight(
                statements, buckets, available, location, slack, w
            )
            bucket = buckets[gate]
            cap = len(bucket) if d is None else d
            batch: List[int] = []
            while bucket and len(batch) < cap:
                batch.append(bucket.popleft())
            if not bucket:
                del buckets[gate]
            n_ready -= len(batch)
            ts.regions[region].extend(batch)
            placed_this_ts.extend(batch)
            for node in batch:
                for q in statements[node].qubits:
                    location[q] = region
            available.remove(region)
        # Ready-list update: children whose last dependency completed
        # this timestep become ready for the *next* timestep.
        for node in placed_this_ts:
            for child in succs[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    gate = statements[child].gate
                    bucket = buckets.get(gate)
                    if bucket is None:
                        bucket = buckets[gate] = deque()
                    bucket.append(child)
                    n_ready += 1
        scheduled += len(placed_this_ts)
        if not placed_this_ts:  # pragma: no cover - defensive
            raise RuntimeError("RCP made no progress (scheduler bug)")
    return sched


def _pick_max_weight(
    statements,
    buckets: Dict[str, Deque[int]],
    available: List[int],
    location: Dict[Qubit, Optional[int]],
    slack: List[int],
    w: RCPWeights,
) -> Tuple[int, str]:
    """The paper's ``getMaxWeightSimdOpType`` over the bucketed ready
    set: the (region, gate-type) pair maximising the scheduling
    priority, ties broken by (gate name, region index).

    For each ready op the candidate regions are the op's resident
    regions (at most its operand count) plus the lowest-index available
    region with zero residency — every other region yields the same
    weight as the zero-residency representative but a larger index, so
    the tie-break can never prefer it.
    """
    w_op, w_dist, w_slack = w.w_op, w.w_dist, w.w_slack
    loc_get = location.get
    avail_set = set(available)
    best_weight = float("-inf")
    best_gate: Optional[str] = None
    best_region = -1
    for gate, bucket in buckets.items():
        type_term = w_op * len(bucket)
        for node in bucket:
            base = type_term - w_slack * slack[node]
            resident: Dict[int, int] = {}
            for q in statements[node].qubits:
                r = loc_get(q)
                if r is not None:
                    resident[r] = resident.get(r, 0) + 1
            for r, count in resident.items():
                if r not in avail_set:
                    continue
                weight = base + w_dist * count
                if weight > best_weight or (
                    weight == best_weight
                    and (gate, r) < (best_gate, best_region)
                ):
                    best_weight = weight
                    best_gate = gate
                    best_region = r
            for r in available:
                if r not in resident:
                    # Lowest-index zero-residency region; all others
                    # score the same weight with a larger index.
                    if base > best_weight or (
                        base == best_weight
                        and (gate, r) < (best_gate, best_region)
                    ):
                        best_weight = base
                        best_gate = gate
                        best_region = r
                    break
    assert best_gate is not None
    return best_region, best_gate
