"""Windowed columnar scheduling for paper-scale leaf bodies.

At the paper's 10^7-gate leaves a boxed leaf (ops, DAG, ``Schedule``)
costs tens of GiB. The streaming pipeline never builds one:
:func:`build_columns` ingests the leaf's
:class:`~repro.core.opstream.OpStream` ``window`` ops at a time into
:class:`~repro.sched.columns.StreamColumns` (~50 B per gate), and
:func:`schedule_columns` and :func:`derive_movement_stream` run the one
RCP, LPFS, sequential and movement implementation
(:mod:`repro.sched.rcp`, :mod:`~repro.sched.lpfs`,
:mod:`~repro.sched.sequential`, :mod:`~repro.sched.comm`) on the
columns — the kernels the materialized pipeline runs too. So
``window`` cannot change a schedule; ``tests/test_stream_sched.py``
checks this window-invariance end to end.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..arch.machine import MultiSIMD
from ..core.dag import DependenceDAG
from .columns import StreamColumns, StreamedSchedule, build_columns
from .comm import CommStats, derive_movement_stream, iter_schedule_epochs
from .lpfs import lpfs_columns
from .rcp import RCPWeights, rcp_columns
from .sequential import sequential_columns
from .types import Move, Schedule

__all__ = [
    "StreamColumns",
    "build_columns",
    "StreamedSchedule",
    "schedule_columns",
    "derive_movement_stream",
    "iter_schedule_epochs",
    "engine_epochs",
    "to_schedule",
]


def schedule_columns(
    cols: StreamColumns,
    algorithm: str,
    k: int,
    d: Optional[int] = None,
    lpfs_l: int = 1,
    lpfs_simd: bool = True,
    lpfs_refill: bool = True,
    rcp_weights: Optional[RCPWeights] = None,
) -> StreamedSchedule:
    """Schedule columns with the named algorithm (the option surface
    of :class:`repro.toolflow.SchedulerConfig`; LPFS's ``l`` is
    clamped to at most ``k``)."""
    if algorithm == "sequential":
        return sequential_columns(cols, k, d)
    if algorithm == "rcp":
        return rcp_columns(cols, k, d, rcp_weights)
    if algorithm == "lpfs":
        return lpfs_columns(
            cols, k, d, min(lpfs_l, k), lpfs_simd, lpfs_refill
        )
    raise ValueError(f"unknown scheduling algorithm: {algorithm!r}")


def engine_epochs(
    cols: StreamColumns,
    ssched: StreamedSchedule,
    machine: MultiSIMD,
) -> Iterator[Tuple[List[Move], List[Tuple[int, str, int]]]]:
    """Adapt :func:`iter_schedule_epochs` to the engine's streamed
    input shape: ``(moves, [(region, gate_name, op_count), ...])`` per
    timestep, ready for
    :func:`repro.engine.executor.run_schedule_stream`. The movement is
    derived on the fly; nothing is inflated."""
    gate_names = cols.gate_names
    gate_ids = cols.gate_ids
    for _, epoch, regions in iter_schedule_epochs(
        cols, ssched, machine, CommStats()
    ):
        yield epoch, [
            (r, gate_names[gate_ids[nodes[0]]], len(nodes))
            for r, nodes in regions
            if nodes
        ]


def to_schedule(cols: StreamColumns, ssched: StreamedSchedule) -> Schedule:
    """Inflate a streamed schedule to a boxed :class:`Schedule` over a
    DAG rebuilt from the columns (small inputs and tests only — this
    rematerializes the full op list)."""
    dag = DependenceDAG([cols.operation(i) for i in range(cols.n)])
    return ssched.inflate(dag)
