"""Sequential baseline scheduler.

One operation per timestep, in program order (which is a valid
topological order of the dependence DAG by construction). This is the
"sequential execution" that Figure 6's speedups — and, multiplied by the
naive movement factor, Figures 7 and 8's — are measured against.
"""

from __future__ import annotations

from typing import Optional

from ..core.dag import DependenceDAG
from ..instrument import spanned
from .columns import StreamColumns, StreamedSchedule
from .types import Schedule

__all__ = ["schedule_sequential", "sequential_columns"]


def schedule_sequential(
    dag: DependenceDAG, k: int = 1, d: Optional[int] = None
) -> Schedule:
    """Schedule one op per timestep in region 0."""
    cols = StreamColumns.from_dag(dag)
    return sequential_columns(cols, k, d).inflate(dag)


@spanned("schedule:sequential")
def sequential_columns(
    cols: StreamColumns, k: int = 1, d: Optional[int] = None
) -> StreamedSchedule:
    """Schedule one op per timestep in region 0."""
    out = StreamedSchedule(k, d, "sequential")
    for node in range(cols.n):
        out._append_timestep({0: [node]})
    return out
