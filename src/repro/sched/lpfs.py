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
dropped stale entries never resurface.

:func:`lpfs_columns` is the one implementation, over
:class:`~repro.sched.columns.StreamColumns` (both compile pipelines);
:func:`schedule_lpfs` adapts a DAG. The differential battery checks it
bit-for-bit against the pre-optimization oracle (``tests/_reference.py``).
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Dict, List, Optional, Set

from ..core.dag import DependenceDAG
from ..instrument import spanned
from .columns import StreamColumns, StreamedSchedule
from .types import Schedule

__all__ = ["lpfs_columns", "schedule_lpfs"]


class _FreeList:
    """Bucketed lazy-deletion ready set for LPFS.

    ``in_ready`` is the authoritative membership; ``buckets`` (per gate
    id, arrival order) and ``fifo`` (global arrival order) may hold
    stale entries, dropped when encountered. ``counts[g]`` is the live
    in-ready count per gate; ``path_counts[g]`` the live in-ready count
    claimed by a pinned path — the difference is the free-list size per
    gate, which answers ``most_common`` without a rescan. Name-ordered
    tie-breaks resolve through the intern table.
    """

    __slots__ = (
        "gate_ids",
        "gate_names",
        "on_path",
        "in_ready",
        "buckets",
        "fifo",
        "counts",
        "path_counts",
    )

    def __init__(self, cols: StreamColumns, on_path: bytearray):
        self.gate_ids = cols.gate_ids
        self.gate_names = cols.gate_names
        self.on_path = on_path
        self.in_ready: Set[int] = set()
        self.buckets: Dict[int, Deque[int]] = {}
        self.fifo: Deque[int] = deque()
        self.counts: Dict[int, int] = {}
        self.path_counts: Dict[int, int] = {}

    def add(self, node: int) -> None:
        """A node's last dependency completed: it is now ready."""
        gid = self.gate_ids[node]
        bucket = self.buckets.get(gid)
        if bucket is None:
            bucket = self.buckets[gid] = deque()
        bucket.append(node)
        self.fifo.append(node)
        self.in_ready.add(node)
        self.counts[gid] = self.counts.get(gid, 0) + 1
        if self.on_path[node]:
            # A claimed path head just became ready.
            self.path_counts[gid] = self.path_counts.get(gid, 0) + 1

    def claim_mark(self, node: int) -> None:
        """A path claim just set ``on_path[node]``."""
        if node in self.in_ready:
            gid = self.gate_ids[node]
            self.path_counts[gid] = self.path_counts.get(gid, 0) + 1

    def remove_scheduled(self, node: int) -> None:
        """``node`` was scheduled outside extraction (path head or
        progress-guard fallback); its bucket/FIFO entries go stale."""
        if node in self.in_ready:
            self.in_ready.discard(node)
            gid = self.gate_ids[node]
            self.counts[gid] -= 1
            if self.on_path[node]:
                self.path_counts[gid] -= 1

    def extract(self, gid: int, cap: Optional[int]) -> List[int]:
        """Pull up to ``cap`` live, non-path ops of gate ``gid`` in
        arrival order (all of them when ``cap`` is None)."""
        bucket = self.buckets.get(gid)
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
            if on_path[node]:
                stash.append(node)  # path-claimed: keep, in order
                continue
            batch.append(node)
            in_ready.discard(node)
        if stash:
            bucket.extendleft(reversed(stash))
        if not bucket:
            del self.buckets[gid]
        if batch:
            self.counts[gid] -= len(batch)
        return batch

    def most_common(self) -> Optional[int]:
        """Gate id with the most free (live, non-path) ready ops; ties
        go to the lexicographically largest name."""
        path_counts = self.path_counts
        gate_names = self.gate_names
        best_gid: Optional[int] = None
        best_name: Optional[str] = None
        best_free = 0
        for gid, count in self.counts.items():
            free = count - path_counts.get(gid, 0)
            if free <= 0:
                continue
            name = gate_names[gid]
            if free > best_free or (free == best_free and name > best_name):
                best_free = free
                best_gid = gid
                best_name = name
        return best_gid

    def oldest(self) -> Optional[int]:
        """Gate id of the oldest free ready op (FIFO order)."""
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
            if not on_path[node]:
                return self.gate_ids[node]
            break
        else:
            return None
        # A live path head blocks the front: scan past it with a stash.
        stash: List[int] = []
        gid: Optional[int] = None
        while fifo:
            node = fifo.popleft()
            if node not in in_ready:
                continue
            stash.append(node)
            if not on_path[node]:
                gid = self.gate_ids[node]
                break
        if stash:
            fifo.extendleft(reversed(stash))
        return gid

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
    cols = StreamColumns.from_dag(dag)
    return lpfs_columns(cols, k, d, l, simd, refill).inflate(dag)


@spanned("schedule:lpfs")
def lpfs_columns(
    cols: StreamColumns,
    k: int,
    d: Optional[int] = None,
    l: int = 1,
    simd: bool = True,
    refill: bool = True,
) -> StreamedSchedule:
    """Schedule ``cols`` with LPFS (arguments as for
    :func:`schedule_lpfs`). ``done``/``on_path`` are byte flags: sets
    of int would cost O(gates) boxed memory."""
    if not 1 <= l <= k:
        raise ValueError(f"need 1 <= l <= k, got l={l}, k={k}")
    out = StreamedSchedule(k, d, "lpfs")
    n = cols.n
    gate_ids = cols.gate_ids
    succ_flat, succ_off = cols.succ_flat, cols.succ_off
    indeg = cols.indegrees()
    heights = cols.heights()
    on_path = bytearray(n)
    done = bytearray(n)
    free_list = _FreeList(cols, on_path)
    for node in cols.sources():
        free_list.add(node)
    paths: List[Deque[int]] = [
        _claim_longest_path(cols, heights, free_list, done)
        for _ in range(l)
    ]

    scheduled = 0
    while scheduled < n:
        regions: Dict[int, List[int]] = {}
        placed: List[int] = []
        # --- allocated (path-pinned) regions -----------------------------
        for i in range(l):
            if refill and not paths[i]:
                paths[i] = _claim_longest_path(
                    cols, heights, free_list, done
                )
            path = paths[i]
            if path and path[0] in free_list.in_ready:
                head = path.popleft()
                free_list.remove_scheduled(head)
                on_path[head] = 0
                dst = regions.setdefault(i, [])
                dst.append(head)
                placed.append(head)
                if simd:
                    cap = None if d is None else d - 1
                    batch = free_list.extract(gate_ids[head], cap)
                    dst.extend(batch)
                    placed.extend(batch)
            elif simd:
                # Path empty or stalled: execute free-list ops instead.
                gid = free_list.most_common()
                if gid is not None:
                    batch = free_list.extract(gid, d)
                    if batch:
                        regions.setdefault(i, []).extend(batch)
                        placed.extend(batch)
        # --- unallocated regions: drain the free list --------------------
        for i in range(l, k):
            gid = free_list.oldest()
            if gid is None:
                break
            batch = free_list.extract(gid, d)
            if batch:
                regions.setdefault(i, []).extend(batch)
                placed.extend(batch)
        # --- progress guard ----------------------------------------------
        # With k == l and SIMD off, free-list ops have no region to run
        # in; fall back to executing the oldest ready op in region 0 so
        # the schedule always completes (deviation noted in DESIGN.md).
        if not placed:
            node = free_list.fallback_pop()
            if node is None:  # pragma: no cover - defensive
                raise RuntimeError("LPFS deadlock (scheduler bug)")
            on_path[node] = 0
            for i in range(l):
                if paths[i] and paths[i][0] == node:
                    paths[i].popleft()
            regions[0] = [node]
            placed.append(node)
        # --- ready-list update -------------------------------------------
        for node in placed:
            done[node] = 1
        for node in placed:
            for j in range(succ_off[node], succ_off[node + 1]):
                child = succ_flat[j]
                indeg[child] -= 1
                if indeg[child] == 0 and child not in free_list.in_ready:
                    free_list.add(child)
        scheduled += len(placed)
        out._append_timestep(regions)
    return out


def _claim_longest_path(
    cols: StreamColumns,
    heights: array,
    free_list: _FreeList,
    done: bytearray,
) -> Deque[int]:
    """``getNextLongestPath``: the longest chain rooted in the current
    ready list, truncated if it runs into a node already claimed by
    another path or already scheduled. Claims its nodes in ``on_path``.
    The strict-max key ``(height, -node)`` makes the claim independent
    of the ready set's iteration order."""
    on_path = free_list.on_path
    candidates = [n for n in free_list.in_ready if not on_path[n]]
    if not candidates:
        return deque()
    start = max(candidates, key=lambda n: (heights[n], -n))
    path: Deque[int] = deque()
    succ_flat, succ_off = cols.succ_flat, cols.succ_off
    node: Optional[int] = start
    while node is not None and not on_path[node] and not done[node]:
        path.append(node)
        on_path[node] = 1
        free_list.claim_mark(node)
        lo, hi = succ_off[node], succ_off[node + 1]
        node = (
            max(succ_flat[lo:hi], key=lambda s: (heights[s], -s))
            if lo < hi
            else None
        )
    return path
