"""Longest-Path-First Scheduling (LPFS) — the paper's Algorithm 2.

Many quantum benchmarks are mostly serial at the operation level
(critical-path speedup ~1.5x, Figure 6), so parallelism buys little —
but *communication* can be attacked by keeping the qubits of long serial
chains pinned in one region. LPFS dedicates ``l`` of the ``k`` SIMD
regions to the ``l`` longest dependence paths; operations on those paths
execute in their pinned region, so their qubits never move. Remaining
regions consume the *free list* (ready ops not on any pinned path) with
SIMD grouping by gate type.

Options (both enabled in the paper's experiments, with ``l = 1``):

* **SIMD** — a path region may also execute free-list ops of the same
  gate type as the path op (data parallelism), and may execute free-list
  ops outright when its path is stalled on a dependency;
* **Refill** — when a pinned path completes, the region is re-seeded
  with the longest path rooted in the current ready list.

Paths are chains (each node a DAG successor of the previous), so only a
path's *head* can ever be ready; heads stall until their off-path
dependencies resolve.

The ready set is a :class:`_FreeList` rather than one deque rescanned
per free-list query: per-gate-type buckets plus an arrival FIFO, with
lazy deletion and incremental per-gate counts, so most-common-gate is a
counter read, oldest-gate amortizes to O(1), and extraction touches
only the requested bucket. Nodes become ready exactly once, so lazily
dropped stale entries never resurface. The pre-optimization
implementation is kept as a test oracle (``tests/_reference.py``); the
differential battery checks that both produce bit-identical schedules.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set

from ..core.dag import DependenceDAG
from ..instrument import spanned
from .types import Schedule

__all__ = ["schedule_lpfs"]


class _FreeList:
    """Bucketed lazy-deletion ready set for LPFS.

    ``in_ready`` is the authoritative membership; ``buckets`` (per gate
    type, arrival order) and ``fifo`` (global arrival order) may hold
    stale entries, dropped when encountered. ``counts[g]`` is the live
    in-ready count per gate; ``path_counts[g]`` the live in-ready count
    claimed by a pinned path — the difference is the free-list size per
    gate, which answers ``most_common`` without a rescan.
    """

    __slots__ = (
        "gates",
        "on_path",
        "in_ready",
        "buckets",
        "fifo",
        "counts",
        "path_counts",
    )

    def __init__(self, dag: DependenceDAG, on_path: Set[int]):
        self.gates = [stmt.gate for stmt in dag.statements]
        self.on_path = on_path
        self.in_ready: Set[int] = set()
        self.buckets: Dict[str, Deque[int]] = {}
        self.fifo: Deque[int] = deque()
        self.counts: Dict[str, int] = {}
        self.path_counts: Dict[str, int] = {}

    def add(self, node: int) -> None:
        """A node's last dependency completed: it is now ready."""
        gate = self.gates[node]
        bucket = self.buckets.get(gate)
        if bucket is None:
            bucket = self.buckets[gate] = deque()
        bucket.append(node)
        self.fifo.append(node)
        self.in_ready.add(node)
        self.counts[gate] = self.counts.get(gate, 0) + 1
        if node in self.on_path:
            # A claimed path head just became ready.
            self.path_counts[gate] = self.path_counts.get(gate, 0) + 1

    def claim_mark(self, node: int) -> None:
        """A path claim just put ``node`` in ``on_path``."""
        if node in self.in_ready:
            gate = self.gates[node]
            self.path_counts[gate] = self.path_counts.get(gate, 0) + 1

    def remove_scheduled(self, node: int) -> None:
        """``node`` was scheduled outside extraction (path head or
        progress-guard fallback); its bucket/FIFO entries go stale."""
        if node in self.in_ready:
            self.in_ready.discard(node)
            gate = self.gates[node]
            self.counts[gate] -= 1
            if node in self.on_path:
                self.path_counts[gate] -= 1

    def extract(self, gate: str, cap: Optional[int]) -> List[int]:
        """Pull up to ``cap`` live, non-path ops of type ``gate`` in
        arrival order (all of them when ``cap`` is None)."""
        bucket = self.buckets.get(gate)
        if not bucket:
            return []
        limit = len(bucket) if cap is None else cap
        if limit <= 0:
            return []
        in_ready = self.in_ready
        on_path = self.on_path
        batch: List[int] = []
        stash: List[int] = []
        while bucket and len(batch) < limit:
            node = bucket.popleft()
            if node not in in_ready:
                continue  # stale entry: dropped for good
            if node in on_path:
                stash.append(node)  # path-claimed: keep, in order
                continue
            batch.append(node)
            in_ready.discard(node)
        if stash:
            bucket.extendleft(reversed(stash))
        if not bucket:
            del self.buckets[gate]
        if batch:
            self.counts[gate] -= len(batch)
        return batch

    def most_common(self) -> Optional[str]:
        """Gate type with the most free (live, non-path) ready ops;
        ties go to the lexicographically largest name."""
        path_counts = self.path_counts
        best_gate: Optional[str] = None
        best_free = 0
        for gate, count in self.counts.items():
            free = count - path_counts.get(gate, 0)
            if free <= 0:
                continue
            if free > best_free or (free == best_free and gate > best_gate):
                best_free = free
                best_gate = gate
        return best_gate

    def oldest(self) -> Optional[str]:
        """Gate type of the oldest free ready op (FIFO order)."""
        fifo = self.fifo
        in_ready = self.in_ready
        on_path = self.on_path
        # Fast path: pop stale heads in place; a live, non-path head
        # answers without any reordering.
        while fifo:
            node = fifo[0]
            if node not in in_ready:
                fifo.popleft()
                continue  # stale entry: dropped for good
            if node not in on_path:
                return self.gates[node]
            break
        else:
            return None
        # A live path head blocks the front: scan past it with a stash.
        stash: List[int] = []
        gate: Optional[str] = None
        while fifo:
            node = fifo.popleft()
            if node not in in_ready:
                continue
            stash.append(node)
            if node not in on_path:
                gate = self.gates[node]
                break
        if stash:
            fifo.extendleft(reversed(stash))
        return gate

    def fallback_pop(self) -> Optional[int]:
        """Pop the oldest live ready op (path-claimed or not) for the
        progress guard. Removes it from the ready set."""
        fifo = self.fifo
        while fifo:
            node = fifo.popleft()
            if node in self.in_ready:
                self.remove_scheduled(node)
                return node
        return None


@spanned("schedule:lpfs")
def schedule_lpfs(
    dag: DependenceDAG,
    k: int,
    d: Optional[int] = None,
    l: int = 1,
    simd: bool = True,
    refill: bool = True,
) -> Schedule:
    """Schedule ``dag`` on a Multi-SIMD(k,d) machine with LPFS.

    Args:
        k: SIMD region count.
        d: per-region data-parallel cap (None = unbounded).
        l: number of regions pinned to longest paths (1 <= l <= k).
        simd: enable opportunistic SIMD fill in path regions.
        refill: re-seed a path region when its path completes.
    """
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    sched = Schedule(dag, k=k, d=d, algorithm="lpfs")
    statements = dag.statements
    succs_all = dag.succs
    indeg = dag.indegrees()
    heights = dag.heights()
    on_path: Set[int] = set()
    done: Set[int] = set()
    free_list = _FreeList(dag, on_path)
    for node in dag.sources():
        free_list.add(node)
    paths: List[Deque[int]] = [
        _claim_longest_path(dag, heights, free_list, done)
        for _ in range(l)
    ]

    scheduled = 0
    while scheduled < dag.n:
        ts = sched.append_timestep()
        placed: List[int] = []
        # --- allocated (path-pinned) regions -----------------------------
        for i in range(l):
            if refill and not paths[i]:
                paths[i] = _claim_longest_path(
                    dag, heights, free_list, done
                )
            path = paths[i]
            if path and path[0] in free_list.in_ready:
                head = path.popleft()
                free_list.remove_scheduled(head)
                on_path.discard(head)
                ts.regions[i].append(head)
                placed.append(head)
                if simd:
                    gate = statements[head].gate
                    cap = None if d is None else d - 1
                    batch = free_list.extract(gate, cap)
                    ts.regions[i].extend(batch)
                    placed.extend(batch)
            elif simd:
                # Path empty or stalled: execute free-list ops instead.
                gate = free_list.most_common()
                if gate is not None:
                    batch = free_list.extract(gate, d)
                    ts.regions[i].extend(batch)
                    placed.extend(batch)
        # --- unallocated regions: drain the free list --------------------
        for i in range(l, k):
            gate = free_list.oldest()
            if gate is None:
                break
            batch = free_list.extract(gate, d)
            ts.regions[i].extend(batch)
            placed.extend(batch)
        # --- progress guard ----------------------------------------------
        # With k == l and SIMD off, free-list ops have no region to run
        # in; fall back to executing the oldest ready op in region 0 so
        # the schedule always completes (deviation noted in DESIGN.md).
        if not placed:
            node = free_list.fallback_pop()
            if node is None:  # pragma: no cover - defensive
                raise RuntimeError("LPFS deadlock (scheduler bug)")
            on_path.discard(node)
            for i in range(l):
                if paths[i] and paths[i][0] == node:
                    paths[i].popleft()
            ts.regions[0].append(node)
            placed.append(node)
        # --- ready-list update -------------------------------------------
        done.update(placed)
        for node in placed:
            for child in succs_all[node]:
                indeg[child] -= 1
                if indeg[child] == 0 and child not in free_list.in_ready:
                    free_list.add(child)
        scheduled += len(placed)
    return sched


def _claim_longest_path(
    dag: DependenceDAG,
    heights: List[int],
    free_list: _FreeList,
    done: Set[int],
) -> Deque[int]:
    """``getNextLongestPath``: the longest chain rooted in the current
    ready list, truncated if it runs into a node already claimed by
    another path or already scheduled. Claims its nodes in
    ``on_path``."""
    on_path = free_list.on_path
    candidates = [n for n in free_list.in_ready if n not in on_path]
    if not candidates:
        return deque()
    start = max(candidates, key=lambda n: (heights[n], -n))
    path: Deque[int] = deque()
    node: Optional[int] = start
    while node is not None and node not in on_path and node not in done:
        path.append(node)
        on_path.add(node)
        free_list.claim_mark(node)
        succs = dag.succs[node]
        node = (
            max(succs, key=lambda s: (heights[s], -s)) if succs else None
        )
    return path
