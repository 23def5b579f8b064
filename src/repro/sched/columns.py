"""Columnar leaf bodies and schedules — the data the schedulers run on.

A boxed leaf costs ~1 KiB per gate: each op is an ``Operation`` with a
qubit tuple, the DAG holds per-node Python lists, and a
:class:`~repro.sched.types.Schedule` holds per-timestep region lists.
The columnar encoding costs ~50 B per gate:

* gates are interned ids in an ``array('H')``;
* operands are interned qubit ids in one flat ``array('i')`` plus an
  offsets array (CSR layout);
* dependence edges are a CSR successor table plus base in-degrees;
* heights/depths/slack are ``array('i')`` passes over the CSR tables.

Columns come from two places: :func:`build_columns` ingests an
:class:`~repro.core.opstream.OpStream` window by window (the streaming
pipeline), and :meth:`StreamColumns.from_dag` copies an already built
:class:`~repro.core.dag.DependenceDAG` (the materialized pipeline and
the ``schedule_*`` / ``derive_movement`` adapters). Node ids are
statement indices in program order either way, so a
:class:`StreamedSchedule` inflates onto the leaf's DAG with
:meth:`StreamedSchedule.inflate`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.dag import DependenceDAG
from ..core.operation import Operation
from ..core.opstream import OpStream, iter_chunks
from ..core.qubits import Qubit
from ..instrument import spanned
from .types import Schedule, Timestep

__all__ = ["StreamColumns", "build_columns", "StreamedSchedule"]

_MAX_NODES = 2**31 - 1
_MAX_GATES = 2**16


class StreamColumns:
    """Columnar form of one leaf body plus its dependence structure.

    Node ids are statement indices ``0..n-1`` in program order, exactly
    as in :class:`~repro.core.dag.DependenceDAG`. Qubits and gate names
    are interned; the boxed ops themselves are not retained.
    """

    def __init__(self) -> None:
        self.n = 0
        self.gate_names: List[str] = []
        self.gate_ids = array("H")
        self.qubits: List[Qubit] = []
        self.op_q = array("i")  # flattened operand qubit ids
        self.op_off = array("i", [0])
        self.angles: Dict[int, float] = {}
        self.succ_flat = array("i")
        self.succ_off = array("i")
        self.indeg_base = array("i")
        self._heights: Optional[array] = None
        self._depths: Optional[array] = None
        self._slack: Optional[array] = None

    @classmethod
    def from_dag(cls, dag: DependenceDAG) -> "StreamColumns":
        """Columns for a built DAG: operands interned from its
        statements, the successor table copied from ``dag.succs`` and
        in-degrees from ``dag.preds`` (the edges are not re-derived).
        A weighted DAG's longest-path analyses are taken from the DAG,
        since the column passes assume unit weights."""
        cols = cls()
        gate_table: Dict[str, int] = {}
        qubit_table: Dict[Qubit, int] = {}
        gate_names, gate_ids = cols.gate_names, cols.gate_ids
        qubits, op_q, op_off = cols.qubits, cols.op_q, cols.op_off
        for i, op in enumerate(dag.statements):
            gid = gate_table.get(op.gate)
            if gid is None:
                gid = gate_table[op.gate] = len(gate_names)
                gate_names.append(op.gate)
            gate_ids.append(gid)
            for q in op.qubits:
                qid = qubit_table.get(q)
                if qid is None:
                    qid = qubit_table[q] = len(qubits)
                    qubits.append(q)
                op_q.append(qid)
            op_off.append(len(op_q))
            if op.angle is not None:
                cols.angles[i] = op.angle
        cols.n = dag.n
        succ_flat, succ_off = cols.succ_flat, cols.succ_off
        succ_off.append(0)
        for succ in dag.succs:
            succ_flat.extend(succ)
            succ_off.append(len(succ_flat))
        cols.indeg_base = array("i", map(len, dag.preds))
        if any(w != 1 for w in dag.weights):
            cols._heights = array("i", dag.heights())
            cols._depths = array("i", dag.depths())
            cols._slack = array("i", dag.slack())
        return cols

    # -- shape ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def operation(self, node: int) -> Operation:
        """Rebox one node as an :class:`Operation` (tests, inflation)."""
        return Operation(
            self.gate_names[self.gate_ids[node]],
            tuple(
                self.qubits[qid]
                for qid in self.op_q[self.op_off[node] : self.op_off[node + 1]]
            ),
            self.angles.get(node),
        )

    def sources(self) -> Iterator[int]:
        indeg = self.indeg_base
        return (i for i in range(self.n) if not indeg[i])

    def indegrees(self) -> array:
        """Fresh in-degree array (consumed by the list schedulers)."""
        return array("i", self.indeg_base)

    # -- longest-path analyses (the DependenceDAG recurrences) ------------

    def heights(self) -> array:
        if self._heights is None:
            n = self.n
            h = array("i", bytes(4 * n))
            succ_flat, succ_off = self.succ_flat, self.succ_off
            for i in range(n - 1, -1, -1):
                below = 0
                for j in range(succ_off[i], succ_off[i + 1]):
                    hs = h[succ_flat[j]]
                    if hs > below:
                        below = hs
                h[i] = 1 + below
            self._heights = h
        return self._heights

    def depths(self) -> array:
        # Forward relaxation over successor edges (all edges point
        # forward in program order): when node i is visited, d[i]
        # already holds the max depth over its predecessors — the same
        # recurrence DependenceDAG.depths computes over preds.
        if self._depths is None:
            n = self.n
            d = array("i", bytes(4 * n))
            succ_flat, succ_off = self.succ_flat, self.succ_off
            for i in range(n):
                di = d[i] + 1
                d[i] = di
                for j in range(succ_off[i], succ_off[i + 1]):
                    s = succ_flat[j]
                    if di > d[s]:
                        d[s] = di
            self._depths = d
        return self._depths

    def critical_path_length(self) -> int:
        return max(self.depths(), default=0)

    def slack(self) -> array:
        if self._slack is None:
            cp = self.critical_path_length()
            d, h = self.depths(), self.heights()
            self._slack = array(
                "i", (cp - (d[i] + h[i] - 1) for i in range(self.n))
            )
        return self._slack

    def release_graph(self) -> None:
        """Drop the dependence structure once scheduling is done —
        movement derivation only reads operands and the schedule."""
        self.succ_flat = array("i")
        self.succ_off = array("i")
        self._heights = self._depths = self._slack = None


@spanned("stream:build_columns")
def build_columns(
    stream: OpStream, window: Optional[int] = None
) -> StreamColumns:
    """Ingest a leaf stream into columns, ``window`` ops at a time.

    ``window`` bounds how many boxed ``Operation`` objects are alive
    during ingestion (``None`` materializes the whole stream first); it
    cannot change the columns. The per-qubit last-writer map, inline
    <=3-element dedup and sort are those of
    :func:`repro.core.dag._build_edges_fast`; successor lists come out
    in ascending node order (counting sort over the predecessor table),
    matching the DAG's append order.
    """
    cols = StreamColumns()
    gate_table: Dict[str, int] = {}
    qubit_table: Dict[Qubit, int] = {}
    gate_names = cols.gate_names
    gate_ids = cols.gate_ids
    qubits = cols.qubits
    op_q = cols.op_q
    op_off = cols.op_off
    angles = cols.angles
    pred_flat = array("i")
    pred_off = array("i", [0])
    last_touch: Dict[int, int] = {}
    get_last = last_touch.get
    n = 0
    for chunk in iter_chunks(stream, window):
        for op in chunk:
            gid = gate_table.get(op.gate)
            if gid is None:
                gid = gate_table[op.gate] = len(gate_names)
                if gid >= _MAX_GATES:
                    raise OverflowError(
                        f"more than {_MAX_GATES} distinct gate names"
                    )
                gate_names.append(op.gate)
            plist: List[int] = []
            for q in op.qubits:
                qid = qubit_table.get(q)
                if qid is None:
                    qid = qubit_table[q] = len(qubits)
                    qubits.append(q)
                op_q.append(qid)
                prev = get_last(qid)
                if prev is not None and prev not in plist:
                    plist.append(prev)
                last_touch[qid] = n
            if len(plist) > 1:
                plist.sort()
            pred_flat.extend(plist)
            pred_off.append(len(pred_flat))
            gate_ids.append(gid)
            op_off.append(len(op_q))
            if op.angle is not None:
                angles[n] = op.angle
            n += 1
            if n >= _MAX_NODES:
                raise OverflowError("leaf exceeds 2^31-1 operations")
        # Chunk ops die here; a finite window bounds peak boxed-op count.
        del chunk
    cols.n = n
    cols.indeg_base = array(
        "i", (pred_off[i + 1] - pred_off[i] for i in range(n))
    )
    # Transpose preds -> succs by counting sort. Node ids are appended
    # in ascending order, so each successor list is ascending.
    n_edges = len(pred_flat)
    succ_cnt = array("i", bytes(4 * n))
    for p in pred_flat:
        succ_cnt[p] += 1
    succ_off = array("i", bytes(4 * (n + 1)))
    run = 0
    for i in range(n):
        succ_off[i] = run
        run += succ_cnt[i]
    succ_off[n] = run
    cursor = array("i", succ_off[:n])
    succ_flat = array("i", bytes(4 * n_edges))
    for i in range(n):
        for j in range(pred_off[i], pred_off[i + 1]):
            p = pred_flat[j]
            succ_flat[cursor[p]] = i
            cursor[p] += 1
    cols.succ_flat = succ_flat
    cols.succ_off = succ_off
    return cols


class StreamedSchedule:
    """A schedule in flat arrays: ~10 B per op instead of per-timestep
    region lists of boxed ints.

    Entries are stored timestep-major, region-ascending, insertion order
    within a region — the order ``for r, nodes in enumerate(ts.regions)``
    iterates a materialized :class:`~repro.sched.types.Schedule`.
    Region ids are ``array('H')`` entries; :class:`~repro.arch.machine.
    MultiSIMD` bounds ``k`` to fit.
    """

    def __init__(self, k: int, d: Optional[int], algorithm: str):
        self.k = k
        self.d = d
        self.algorithm = algorithm
        self.ts_off = array("i", [0])
        self.flat_regions = array("H")
        self.flat_nodes = array("i")
        self.max_width = 0
        self.op_count = 0

    @classmethod
    def from_schedule(cls, sched: Schedule) -> "StreamedSchedule":
        """Flatten a boxed schedule's region lists (moves are dropped)."""
        out = cls(sched.k, sched.d, sched.algorithm)
        for ts in sched.timesteps:
            out._append_timestep(
                {r: nodes for r, nodes in enumerate(ts.regions) if nodes}
            )
        return out

    @property
    def length(self) -> int:
        return len(self.ts_off) - 1

    def _append_timestep(self, regions: Dict[int, List[int]]) -> None:
        """Flush one timestep's region->nodes map (all lists non-empty)."""
        flat_r, flat_n = self.flat_regions, self.flat_nodes
        for r in sorted(regions):
            nodes = regions[r]
            for node in nodes:
                flat_r.append(r)
                flat_n.append(node)
            self.op_count += len(nodes)
        self.ts_off.append(len(flat_n))
        if len(regions) > self.max_width:
            self.max_width = len(regions)

    def regions_at(self, t: int) -> List[Tuple[int, List[int]]]:
        """The non-empty regions of timestep ``t`` as ``(r, nodes)``,
        region-ascending (entries are stored grouped and sorted)."""
        flat_r, flat_n = self.flat_regions, self.flat_nodes
        out: List[Tuple[int, List[int]]] = []
        j = self.ts_off[t]
        end = self.ts_off[t + 1]
        while j < end:
            r = flat_r[j]
            nodes: List[int] = []
            while j < end and flat_r[j] == r:
                nodes.append(flat_n[j])
                j += 1
            out.append((r, nodes))
        return out

    def inflate(self, dag: DependenceDAG) -> Schedule:
        """This schedule as a boxed :class:`Schedule` over ``dag``, the
        DAG whose node ids it uses (moves are left empty)."""
        sched = Schedule(dag, k=self.k, d=self.d, algorithm=self.algorithm)
        flat_r, flat_n = self.flat_regions, self.flat_nodes
        ts_off, k = self.ts_off, self.k
        for t in range(self.length):
            regions: List[List[int]] = [[] for _ in range(k)]
            for j in range(ts_off[t], ts_off[t + 1]):
                regions[flat_r[j]].append(flat_n[j])
            sched.timesteps.append(Timestep(regions))
        return sched
