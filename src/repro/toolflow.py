"""End-to-end toolflow: decompose -> flatten -> schedule -> account.

This is the ScaffCC-equivalent driver (Section 3): a hierarchical
program goes through gate decomposition and threshold flattening, leaf
modules are fine-scheduled (RCP or LPFS) at every candidate width,
movement is derived against the machine model, and non-leaf modules are
coarse-scheduled over flexible blackbox dimensions. The result carries
everything the paper's figures report: schedule lengths, communication-
aware runtimes, speedups against the sequential and naive-movement
baselines, and the estimated critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .analysis import (
    AnalysisError,
    Diagnostic,
    DiagnosticSet,
    analyze_deep,
    analyze_program,
    audit_profile_bounds,
    audit_schedule,
)
from .arch.machine import (
    GATE_CYCLES,
    MultiSIMD,
    TELEPORT_CYCLES,
)
from .core.dag import DependenceDAG
from .core.module import Module, Program
from .instrument import span
from .passes.decompose import (
    DecomposeConfig,
    decompose_module,
    decompose_program,
)
from .passes.flatten import DEFAULT_FTH, FlattenResult, flatten_program
from .passes.manager import PassManager
from .passes.optimize import optimize_program
from .passes.resource import estimate_resources, total_gate_counts
from .passes.stream import decomposed_gate_counts, leaf_stream, plan_flatten
from .sched.coarse import best_dim, coarse_length_profile
from .sched.comm import CommStats, naive_runtime
from .sched.metrics import (
    comm_speedup,
    hierarchical_critical_path,
    parallel_speedup,
)
from .sched.stream import (
    StreamColumns,
    StreamedSchedule,
    build_columns,
    derive_movement_stream,
    schedule_columns,
)
from .sched.types import Schedule

__all__ = [
    "SchedulerConfig",
    "ModuleProfile",
    "CompileResult",
    "compile_and_schedule",
    "StreamedCompileResult",
    "compile_and_schedule_streamed",
    "DEFAULT_WINDOW",
]

#: Default ingestion window for the streaming pipeline: enough ops per
#: chunk that chunking overhead vanishes, small enough that boxed-op
#: peak memory stays in the tens of MiB.
DEFAULT_WINDOW = 65536


@dataclass(frozen=True)
class SchedulerConfig:
    """Fine-grained scheduler selection and options.

    ``algorithm`` is ``"sequential"`` (the one-op-per-timestep baseline
    the paper's speedups are measured against), ``"rcp"`` or
    ``"lpfs"``. The LPFS options default to the paper's experimental
    configuration (l=1, SIMD and Refill on).
    """

    algorithm: str = "lpfs"
    lpfs_l: int = 1
    lpfs_simd: bool = True
    lpfs_refill: bool = True

    def __post_init__(self) -> None:
        if self.algorithm not in ("sequential", "rcp", "lpfs"):
            raise ValueError(
                f"unknown scheduler {self.algorithm!r} "
                "(expected 'sequential', 'rcp' or 'lpfs')"
            )

    def schedule_columns(
        self, cols: StreamColumns, k: int, d: Optional[int]
    ) -> StreamedSchedule:
        return schedule_columns(
            cols,
            self.algorithm,
            k,
            d,
            lpfs_l=self.lpfs_l,
            lpfs_simd=self.lpfs_simd,
            lpfs_refill=self.lpfs_refill,
        )

    def schedule(self, dag: DependenceDAG, k: int, d: Optional[int]) -> Schedule:
        cols = StreamColumns.from_dag(dag)
        return self.schedule_columns(cols, k, d).inflate(dag)


@dataclass
class ModuleProfile:
    """Blackbox dimensions of one module at every candidate width.

    ``length`` maps width -> schedule cycles (communication-free);
    ``runtime`` maps width -> communication-aware cycles.
    """

    name: str
    is_leaf: bool
    length: Dict[int, int] = field(default_factory=dict)
    runtime: Dict[int, int] = field(default_factory=dict)
    comm: Dict[int, CommStats] = field(default_factory=dict)


@dataclass
class CompileResult:
    """Everything the evaluation figures are computed from."""

    program: Program
    machine: MultiSIMD
    scheduler: SchedulerConfig
    profiles: Dict[str, ModuleProfile]
    schedules: Dict[str, Schedule]
    total_gates: int
    critical_path: int
    flattened_percent: float
    #: Diagnostics gathered by strict-mode analysis (empty otherwise).
    diagnostics: Tuple[Diagnostic, ...] = ()
    #: Leaf modules whose schedule replay was proven permutation-
    #: preserving by the reversible simulator (``verify=True`` only).
    verified: Tuple[str, ...] = ()

    @property
    def entry_profile(self) -> ModuleProfile:
        return self.profiles[self.program.entry]

    @property
    def schedule_length(self) -> int:
        """Whole-program schedule length at the machine's full width."""
        _, cost = best_dim(self.entry_profile.length, self.machine.k)
        return cost

    @property
    def runtime(self) -> int:
        """Whole-program communication-aware runtime at full width."""
        _, cost = best_dim(self.entry_profile.runtime, self.machine.k)
        return cost

    # -- the paper's headline metrics ---------------------------------

    @property
    def parallel_speedup(self) -> float:
        """Figure 6: speedup over sequential, communication-free."""
        return parallel_speedup(self.total_gates, self.schedule_length)

    @property
    def cp_speedup(self) -> float:
        """Figure 6's theoretical bound from the estimated critical
        path."""
        return parallel_speedup(self.total_gates, self.critical_path)

    @property
    def comm_aware_speedup(self) -> float:
        """Figures 7-9: speedup over the sequential naive movement
        model."""
        return comm_speedup(self.total_gates, self.runtime)

    @property
    def naive_runtime(self) -> int:
        return naive_runtime(self.total_gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompileResult({self.program.entry!r}, "
            f"{self.scheduler.algorithm}, {self.machine}, "
            f"gates={self.total_gates}, len={self.schedule_length}, "
            f"runtime={self.runtime})"
        )


def _verify_leaf(
    name: str,
    program_order,
    cols: StreamColumns,
    ssched: StreamedSchedule,
    qubits,
) -> None:
    """Replay-vs-program-order semantic gate for one leaf: bit-identical
    output on every lane or a :class:`VerificationError` carrying the
    minimal counterexample. Import is local so paper-scale compiles that
    never verify never touch the sim package."""
    from .sim.reversible import (
        VerificationError,
        streamed_schedule_ops,
        verify_equivalent,
    )

    with span("toolflow:verify"):
        report = verify_equivalent(
            program_order,
            streamed_schedule_ops(cols, ssched),
            qubits,
            label=name,
        )
    if not report.ok:
        raise VerificationError(name, report)


def _schedule_leaf(
    cols: StreamColumns,
    scheduler: "SchedulerConfig",
    machine: MultiSIMD,
    widths: List[int],
    profile: "ModuleProfile",
    dag: Optional[DependenceDAG] = None,
) -> Tuple[StreamedSchedule, CommStats, Optional[Schedule]]:
    """The leaf routine both compile pipelines share: schedule ``cols``
    at every width, derive its movement and fill ``profile``.

    Returns the full-width (``machine.k``) schedule and its stats; given
    the leaf's ``dag``, also that schedule inflated onto it, with the
    movement epochs stored in its timesteps' ``moves``.
    """
    k, d = machine.k, machine.d
    kept: Tuple[StreamedSchedule, CommStats, Optional[Schedule]]
    for w in widths:
        ssched = scheduler.schedule_columns(cols, w, d)
        sched = ssched.inflate(dag) if dag is not None and w == k else None
        stats = derive_movement_stream(
            cols,
            ssched,
            machine.with_k(w),
            sink=None if sched is None else sched.store_epoch,
        )
        profile.length[w] = max(ssched.length, 1)
        profile.runtime[w] = max(stats.runtime, 1)
        profile.comm[w] = stats
        if w == k:
            kept = (ssched, stats, sched)
    return kept


def _candidate_widths(k: int) -> List[int]:
    """Widths at which blackbox dimensions are computed: exhaustive for
    small k, powers of two (plus k) for large region counts."""
    if k <= 8:
        return list(range(1, k + 1))
    widths = [1]
    w = 2
    while w < k:
        widths.append(w)
        w *= 2
    widths.append(k)
    return widths


def _coarse_profile(
    mod: Module,
    profile: ModuleProfile,
    profiles: Dict[str, ModuleProfile],
    widths: List[int],
) -> None:
    """Fill a non-leaf ``profile`` at every width by coarse-scheduling
    ``mod`` over its callees' profiles, once per cost metric (the
    schedule length, then the communication-aware runtime)."""
    # Sorted for cross-process determinism: callees() is a set, and set
    # iteration order varies with the hash seed.
    callees = sorted(mod.callees())
    lengths = coarse_length_profile(
        mod,
        {c: profiles[c].length for c in callees},
        widths,
        gate_cost=GATE_CYCLES,
        call_overhead=0,
    )
    runtimes = coarse_length_profile(
        mod,
        {c: profiles[c].runtime for c in callees},
        widths,
        gate_cost=GATE_CYCLES + TELEPORT_CYCLES,
        call_overhead=TELEPORT_CYCLES,
    )
    for w in widths:
        profile.length[w] = max(lengths[w], 1)
        profile.runtime[w] = max(runtimes[w], 1)


def compile_and_schedule(
    program: Program,
    machine: MultiSIMD,
    scheduler: Optional[SchedulerConfig] = None,
    fth: int = DEFAULT_FTH,
    decompose: bool = True,
    decompose_config: Optional[DecomposeConfig] = None,
    optimize: bool = False,
    keep_schedules: bool = True,
    strict: bool = False,
    verify: bool = False,
) -> CompileResult:
    """Run the full toolflow on ``program`` for ``machine``.

    Args:
        program: hierarchical input program (Scaffold-level gates OK).
        machine: target Multi-SIMD(k,d) configuration; its
            ``local_memory`` setting controls the scratchpad refinement.
        scheduler: fine-grained scheduler selection (default LPFS with
            the paper's options).
        fth: flattening threshold in expanded ops (Section 3.1.1).
        decompose: lower to the QASM subset first (disable only for
            programs already expressed in primitives).
        decompose_config: rotation-synthesis configuration.
        optimize: run the peephole pass (inverse cancellation +
            rotation merging) before decomposition.
        keep_schedules: retain each leaf's full-width schedule for
            inspection (memory permitting).
        strict: run the static analyzer (:mod:`repro.analysis`)
            between passes — on the input program and again after
            decomposition/flattening — and audit every retained
            schedule; raise :class:`~repro.analysis.AnalysisError` on
            any ERROR-severity finding. All collected diagnostics
            (warnings included) are attached to the result's
            ``diagnostics`` field.
        verify: prove every retained full-width leaf schedule
            permutation-preserving — replay it through the bit-sliced
            reversible simulator and require bit-identical output to
            the leaf body in program order, over all inputs (small
            leaves) or a seeded sample. Requires the post-pipeline
            leaves to stay inside the classical-permutation gate subset
            (in practice: ``decompose=False``); raises
            :class:`~repro.sim.reversible.NonReversibleOpError`
            otherwise, and
            :class:`~repro.sim.reversible.VerificationError` on a
            semantic mismatch. Verified module names land on the
            result's ``verified`` field.

    Returns:
        a :class:`CompileResult`.

    Raises:
        AnalysisError: in strict mode, when analysis finds errors.
    """
    scheduler = scheduler or SchedulerConfig()
    collected = DiagnosticSet()

    def strict_gate(prog: Program, stage: str) -> None:
        with span("toolflow:analysis"):
            diags = analyze_program(prog)
        collected.extend(diags)
        if diags.has_errors:
            raise AnalysisError(diags, stage=stage)

    if strict:
        strict_gate(program, "input")

    # The front-end pipeline runs through the PassManager so every pass
    # gets a ``pass:*`` instrumentation span and a validation step.
    flat_holder: Dict[str, FlattenResult] = {}

    def _flatten(prog: Program) -> Program:
        result = flatten_program(prog, fth=fth)
        flat_holder["result"] = result
        return result.program

    pipeline = PassManager()
    if optimize:
        pipeline.add("optimize", lambda prog: optimize_program(prog)[0])
    if decompose:
        pipeline.add(
            "decompose",
            lambda prog: decompose_program(prog, decompose_config),
        )
    pipeline.add("flatten", _flatten)
    program = pipeline.run(program)
    flat = flat_holder["result"]
    if strict:
        strict_gate(program, "flattened")

    k, d = machine.k, machine.d
    widths = _candidate_widths(k)
    profiles: Dict[str, ModuleProfile] = {}
    schedules: Dict[str, Schedule] = {}
    verified_names: List[str] = []

    with span("toolflow:schedule"):
        for name in program.topological_order():
            mod = program.module(name)
            profile = ModuleProfile(name, mod.is_leaf)
            if mod.is_leaf:
                dag = DependenceDAG(list(mod.body))
                cols = StreamColumns.from_dag(dag)
                ssched, _, sched = _schedule_leaf(
                    cols,
                    scheduler,
                    machine,
                    widths,
                    profile,
                    dag if keep_schedules else None,
                )
                if sched is not None:
                    schedules[name] = sched
                if verify:
                    _verify_leaf(
                        name, mod.operations(), cols, ssched, mod.qubits()
                    )
                    verified_names.append(name)
            else:
                _coarse_profile(mod, profile, profiles, widths)
            profiles[name] = profile

    if strict:
        with span("toolflow:analysis"):
            audit = DiagnosticSet()
            # Structural/physical audit plus the QL5xx bounds
            # sanitizer on every retained full-width schedule, fed the
            # realized movement stats so communication volume is
            # checked too.
            for name, sched in schedules.items():
                audit.extend(
                    audit_schedule(
                        sched,
                        machine,
                        module=name,
                        deep=True,
                        comm=profiles[name].comm.get(k),
                    )
                )
            # Interprocedural battery (QL4xx lifetime + QL501 fit) on
            # the scheduled (post-pass) program, then the blackbox
            # profiles of every module against the static bounds.
            deep = analyze_deep(program, machine=machine)
            audit.extend(deep.diagnostics)
            for name, profile in profiles.items():
                summary = deep.context.resources.get(name)
                if summary is None:
                    continue
                audit.extend(
                    audit_profile_bounds(
                        profile.length,
                        profile.runtime,
                        summary,
                        module=name,
                    )
                )
        collected.extend(audit)
        if audit.has_errors:
            raise AnalysisError(audit, stage="schedule")

    with span("toolflow:estimate"):
        resources = estimate_resources(program)
        cp = hierarchical_critical_path(program)
    return CompileResult(
        program=program,
        machine=machine,
        scheduler=scheduler,
        profiles=profiles,
        schedules=schedules,
        total_gates=resources.total_gates,
        critical_path=max(cp[program.entry], 1),
        flattened_percent=flat.percent_flattened,
        diagnostics=tuple(collected.sorted()),
        verified=tuple(verified_names),
    )


@dataclass
class StreamedCompileResult(CompileResult):
    """A :class:`CompileResult` produced by the streaming pipeline.

    ``program`` is the *input* (hierarchical, unexpanded) program —
    the streamed pipeline never rewrites it — and ``schedules`` is
    empty; retained leaf schedules live in ``stream_schedules`` /
    ``columns`` in their compact columnar form (inflate via
    :func:`repro.sched.stream.to_schedule`, export via
    :func:`repro.service.stream_io.write_schedule_stream`). All metric
    fields and properties carry the same values the materialized
    pipeline computes — ``tests/test_stream_sched.py`` asserts profile,
    gate-count and critical-path equality per module.
    """

    window: Optional[int] = DEFAULT_WINDOW
    stream_schedules: Dict[str, StreamedSchedule] = field(
        default_factory=dict
    )
    columns: Dict[str, StreamColumns] = field(default_factory=dict)
    leaf_comm: Dict[str, CommStats] = field(default_factory=dict)


def compile_and_schedule_streamed(
    program: Program,
    machine: MultiSIMD,
    scheduler: Optional[SchedulerConfig] = None,
    fth: int = DEFAULT_FTH,
    decompose: bool = True,
    decompose_config: Optional[DecomposeConfig] = None,
    optimize: bool = False,
    window: Optional[int] = DEFAULT_WINDOW,
    keep_schedules: bool = True,
    widths: str = "all",
    verify: bool = False,
) -> StreamedCompileResult:
    """The streaming counterpart of :func:`compile_and_schedule`.

    Produces metric-identical results without ever materializing a
    leaf body: flattening *decisions* come from hierarchical gate
    counts (:func:`~repro.passes.stream.plan_flatten`), leaf bodies are
    lazily expanded (:func:`~repro.passes.stream.leaf_stream`) and
    ingested into columns ``window`` ops at a time, and the same leaf
    routine as the materialized pipeline schedules the columns.
    Peak memory is O(gates * ~50 bytes) for the columns instead of
    O(gates * ~1 KiB) for boxed ops — and independent of ``window``,
    which only bounds the boxed-op transient during ingestion.

    Args:
        window: ingestion chunk size in ops (None = materialize each
            leaf's op stream whole during ingestion; columns are
            identical either way).
        keep_schedules: retain each leaf's full-width streamed schedule
            and columns on the result (compact; needed for export and
            engine execution).
        widths: ``"all"`` profiles every candidate width like the
            materialized pipeline; ``"entry"`` profiles only the
            machine's full width ``k`` — the paper-scale mode, where
            one width already costs minutes and entry-level metrics
            are what the scale run reports.
        verify: same contract as :func:`compile_and_schedule` — each
            full-width streamed schedule is replayed through the
            reversible simulator against the leaf's op stream in
            program order, one streaming pass per side.
    """
    scheduler = scheduler or SchedulerConfig()
    if optimize:
        program = optimize_program(program)[0]
    with span("toolflow:stream-plan"):
        if decompose:
            totals = decomposed_gate_counts(program, decompose_config)
        else:
            totals = total_gate_counts(program)
        plan = plan_flatten(program, totals, fth)

    k, d = machine.k, machine.d
    if widths == "all":
        width_list = _candidate_widths(k)
    elif widths == "entry":
        width_list = [k]
    else:
        raise ValueError(f"widths must be 'all' or 'entry', got {widths!r}")

    synth = (
        (decompose_config or DecomposeConfig()).synthesizer()
        if decompose
        else None
    )
    profiles: Dict[str, ModuleProfile] = {}
    stream_schedules: Dict[str, StreamedSchedule] = {}
    columns: Dict[str, StreamColumns] = {}
    leaf_comm: Dict[str, CommStats] = {}
    cp: Dict[str, int] = {}
    verified_names: List[str] = []

    with span("toolflow:stream-schedule"):
        for name in plan.order:
            mod = program.module(name)
            if plan.is_leaf_after(name):
                profile = ModuleProfile(name, True)
                stream = leaf_stream(
                    program,
                    name,
                    decompose=decompose,
                    decompose_config=decompose_config,
                    length_hint=totals[name],
                )
                cols = build_columns(stream, window=window)
                cp[name] = cols.critical_path_length()
                ssched, stats, _ = _schedule_leaf(
                    cols, scheduler, machine, width_list, profile
                )
                if keep_schedules:
                    stream_schedules[name] = ssched
                    leaf_comm[name] = stats
                if verify:
                    _verify_leaf(
                        name, iter(stream), cols, ssched, cols.qubits
                    )
                    verified_names.append(name)
                cols.release_graph()
                if keep_schedules:
                    columns[name] = cols
            else:
                profile = ModuleProfile(name, False)
                dmod = decompose_module(mod, synth) if synth else mod
                _coarse_profile(dmod, profile, profiles, width_list)
                # hierarchical_critical_path's recurrence for one
                # module: a call weighs iterations * CP(callee).
                weights = [
                    1
                    if not hasattr(stmt, "callee")
                    else stmt.iterations * cp[stmt.callee]
                    for stmt in dmod.body
                ]
                cp[name] = DependenceDAG(
                    dmod.body, weights=weights
                ).critical_path_length()
            profiles[name] = profile

    return StreamedCompileResult(
        program=program,
        machine=machine,
        scheduler=scheduler,
        profiles=profiles,
        schedules={},
        total_gates=totals[program.entry],
        critical_path=max(cp[program.entry], 1),
        flattened_percent=plan.percent_flattened,
        window=window,
        stream_schedules=stream_schedules,
        columns=columns,
        leaf_comm=leaf_comm,
        verified=tuple(verified_names),
    )
