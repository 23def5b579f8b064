"""Differential battery: the package vs the reference oracle.

The optimized implementations (:mod:`repro.core.dag`,
:mod:`repro.sched.rcp`, :mod:`repro.sched.lpfs`,
:mod:`repro.sched.comm`, :mod:`repro.sched.coarse`) promise
**bit-identical** output to the pre-optimization implementations kept
as a test oracle in ``tests/_reference.py``. This battery generates
random programs with hypothesis and runs every stage through both the
package and the oracle (whose DAGs are built by the oracle's own edge
construction), checking

* identical DAG edges and byte-identical
  :func:`~repro.sched.report.schedule_to_dict` exports,
* the Multi-SIMD execution invariants (dependence order, region count
  within ``k``, SIMD group width within ``d``, one gate type per group),
* that the analytic runtime equals the engine's realized runtime under
  the ideal configuration (no stalls possible), and
* identical coarse schedules and length profiles for hierarchical
  modules.

The per-test ``max_examples`` settings sum to 255 generated programs
per run, all seeded by hypothesis's deterministic derandomization in
CI.
"""

from __future__ import annotations

import json
import math
from typing import Callable, List, Optional

from hypothesis import given, settings, strategies as st

from repro.arch.machine import MultiSIMD
from repro.core import ProgramBuilder
from repro.core.dag import DependenceDAG
from repro.core.operation import Operation
from repro.core.qubits import Qubit
from repro.engine import run_schedule
from repro.sched import (
    CoarseResult,
    RCPWeights,
    coarse_length_profile,
    derive_movement,
    schedule_coarse,
    schedule_lpfs,
    schedule_rcp,
    schedule_sequential,
    schedule_to_dict,
)

from ._reference import (
    dag_edges_reference,
    derive_movement_reference,
    schedule_coarse_reference,
    schedule_lpfs_reference,
    schedule_rcp_reference,
)

N_QUBITS = 8
QUBITS = [Qubit("q", i) for i in range(N_QUBITS)]
GATES_BY_ARITY = {
    1: ("H", "T", "X", "S", "PrepZ", "MeasZ"),
    2: ("CNOT", "CZ", "SWAP"),
    3: ("Toffoli", "Fredkin"),
}


@st.composite
def leaf_bodies(draw, max_ops: int = 24) -> List[Operation]:
    """A random leaf-module body over eight qubits."""
    n = draw(st.integers(min_value=1, max_value=max_ops))
    ops: List[Operation] = []
    for _ in range(n):
        arity = draw(st.integers(min_value=1, max_value=3))
        gate = draw(st.sampled_from(GATES_BY_ARITY[arity]))
        idxs = draw(
            st.lists(
                st.integers(min_value=0, max_value=N_QUBITS - 1),
                min_size=arity,
                max_size=arity,
                unique=True,
            )
        )
        ops.append(Operation(gate, tuple(QUBITS[i] for i in idxs)))
    return ops


ds = st.sampled_from([None, 1, 2, 4])
ks = st.integers(min_value=1, max_value=4)


def oracle_dag(ops: List[Operation]) -> DependenceDAG:
    """A DAG whose edges come from the oracle's construction."""
    dag = DependenceDAG(list(ops))
    dag.preds, dag.succs = dag_edges_reference(dag.statements)
    return dag


def schedule_bytes(sched) -> bytes:
    return json.dumps(schedule_to_dict(sched), sort_keys=True).encode()


def check_invariants(
    sched, dag: DependenceDAG, k: int, d: Optional[int]
) -> None:
    """The Multi-SIMD execution invariants, checked from first
    principles (independently of ``Schedule.validate``)."""
    sched.validate()
    ts_of = {}
    for t, ts in enumerate(sched.timesteps):
        assert len(ts.regions) <= k, "more SIMD regions than k"
        for region in ts.regions:
            if d is not None:
                assert len(region) <= d, "SIMD group wider than d"
            gates = {dag.statements[n].gate for n in region}
            assert len(gates) <= 1, "mixed gate types in one region"
            for n in region:
                assert n not in ts_of, "operation scheduled twice"
                ts_of[n] = t
    assert len(ts_of) == dag.n, "operation never scheduled"
    for u in range(dag.n):
        for v in dag.succs[u]:
            assert ts_of[u] < ts_of[v], "dependence order violated"


@settings(max_examples=25, deadline=None)
@given(ops=leaf_bodies())
def test_sequential_differential(ops):
    dag, oracle = DependenceDAG(list(ops)), oracle_dag(ops)
    assert (dag.preds, dag.succs) == (oracle.preds, oracle.succs)
    assert schedule_bytes(schedule_sequential(dag)) == schedule_bytes(
        schedule_sequential(oracle)
    )


# The paper's all-ones default (None) plus the zero-term settings of
# benchmarks/bench_ablation_rcp_weights.py.
rcp_weights = st.sampled_from(
    [
        None,
        RCPWeights(0, 1, 1),
        RCPWeights(1, 0, 1),
        RCPWeights(1, 1, 0),
        RCPWeights(0, 10, 0),
    ]
)


@settings(max_examples=60, deadline=None)
@given(ops=leaf_bodies(), k=ks, d=ds, weights=rcp_weights)
def test_rcp_differential(ops, k, d, weights):
    dag = DependenceDAG(list(ops))
    sched = schedule_rcp(dag, k, d, weights)
    ref = schedule_rcp_reference(oracle_dag(ops), k, d, weights)
    assert schedule_bytes(sched) == schedule_bytes(ref)
    check_invariants(sched, dag, k, d)


@settings(max_examples=60, deadline=None)
@given(
    ops=leaf_bodies(),
    k=ks,
    d=ds,
    l_frac=st.floats(min_value=0.0, max_value=1.0),
    simd=st.booleans(),
    refill=st.booleans(),
)
def test_lpfs_differential(ops, k, d, l_frac, simd, refill):
    n_paths = 1 + int(l_frac * (k - 1))
    dag = DependenceDAG(list(ops))
    sched = schedule_lpfs(dag, k, d, n_paths, simd, refill)
    ref = schedule_lpfs_reference(
        oracle_dag(ops), k, d, n_paths, simd, refill
    )
    assert schedule_bytes(sched) == schedule_bytes(ref)
    check_invariants(sched, dag, k, d)


@settings(max_examples=40, deadline=None)
@given(
    ops=leaf_bodies(),
    k=st.integers(min_value=1, max_value=4),
    d=ds,
    algorithm=st.sampled_from(["rcp", "lpfs"]),
    local=st.sampled_from([None, 2.0, math.inf]),
)
def test_movement_differential(ops, k, d, algorithm, local):
    """Movement epochs and the communication profile are identical —
    including the order of eviction ``Move`` records within an epoch."""
    machine = MultiSIMD(k=k, d=d, local_memory=local)

    def run(schedule: Callable, derive: Callable, dag) -> str:
        sched = schedule(dag, k, d)
        stats = derive(sched, machine)
        return json.dumps(
            {
                "schedule": schedule_to_dict(sched),
                "teleports": stats.teleports,
                "local_moves": stats.local_moves,
                "teleport_epochs": stats.teleport_epochs,
                "local_epochs": stats.local_epochs,
                "gate_cycles": stats.gate_cycles,
                "comm_cycles": stats.comm_cycles,
            },
            sort_keys=True,
        )

    if algorithm == "rcp":
        schedule, oracle = schedule_rcp, schedule_rcp_reference
    else:
        schedule, oracle = schedule_lpfs, schedule_lpfs_reference
    assert run(schedule, derive_movement, DependenceDAG(list(ops))) == run(
        oracle, derive_movement_reference, oracle_dag(ops)
    )


@settings(max_examples=30, deadline=None)
@given(
    ops=leaf_bodies(),
    k=st.integers(min_value=1, max_value=4),
    d=ds,
    algorithm=st.sampled_from(["sequential", "rcp", "lpfs"]),
    local=st.sampled_from([None, 2.0, math.inf]),
)
def test_engine_realizes_analytic_runtime(ops, k, d, algorithm, local):
    """Under the ideal engine configuration (infinite EPR rate, no
    faults, centralized memory) a fast-path schedule's realized runtime
    equals its analytic runtime with zero stalls."""
    machine = MultiSIMD(k=k, d=d, local_memory=local)
    dag = DependenceDAG(list(ops))
    if algorithm == "sequential":
        sched = schedule_sequential(dag, k, d)
    elif algorithm == "rcp":
        sched = schedule_rcp(dag, k, d)
    else:
        sched = schedule_lpfs(dag, k, d)
    derive_movement(sched, machine)
    result = run_schedule(sched, machine)
    assert result.realized_runtime == result.analytic_runtime
    assert result.stalls.total == 0
    assert result.preflight_violations == 0


@st.composite
def hierarchical_cases(draw):
    """A non-leaf module calling one leaf, plus a synthetic dimension
    table for the callee (width 1 always present, widths up to 4)."""
    pb = ProgramBuilder()
    leaf = pb.module("leaf")
    p = leaf.param_register("p", 3)
    leaf.toffoli(p[0], p[1], p[2])
    main = pb.module("main")
    q = main.register("q", N_QUBITS)
    n = draw(st.integers(min_value=1, max_value=14))
    for _ in range(n):
        if draw(st.booleans()):
            i = draw(st.integers(min_value=0, max_value=N_QUBITS - 1))
            main.gate(draw(st.sampled_from(["H", "T", "X"])), q[i])
        else:
            idxs = draw(
                st.lists(
                    st.integers(min_value=0, max_value=N_QUBITS - 1),
                    min_size=3,
                    max_size=3,
                    unique=True,
                )
            )
            iterations = draw(st.integers(min_value=1, max_value=3))
            main.call("leaf", [q[i] for i in idxs], iterations)
    program = pb.build("main")
    max_w = draw(st.integers(min_value=1, max_value=4))
    dims = {
        w: draw(st.integers(min_value=1, max_value=20))
        for w in range(1, max_w + 1)
    }
    k = draw(st.integers(min_value=1, max_value=4))
    gate_cost = draw(st.sampled_from([1, 5]))
    call_overhead = draw(st.sampled_from([0, 4]))
    return program.entry_module, dims, k, gate_cost, call_overhead


@settings(max_examples=40, deadline=None)
@given(case=hierarchical_cases())
def test_coarse_differential(case):
    module, dims, k, gate_cost, call_overhead = case
    callee_dims = {"leaf": dims}
    widths = list(range(1, k + 1))
    dag = DependenceDAG(module.body)
    assert (dag.preds, dag.succs) == dag_edges_reference(module.body)

    result = schedule_coarse(
        module, callee_dims, k, gate_cost, call_overhead
    )
    profile = coarse_length_profile(
        module, callee_dims, widths, gate_cost, call_overhead
    )
    assert isinstance(result, CoarseResult)
    assert result == schedule_coarse_reference(
        module, callee_dims, k, gate_cost, call_overhead
    )
    assert profile == {
        w: schedule_coarse_reference(
            module, callee_dims, w, gate_cost, call_overhead
        ).total_length
        for w in widths
    }
    # The profile at k agrees with the full placement at k.
    assert profile[k] == result.total_length
