"""Parent-linked spans around the package's layer entry points.

The traced run installs timing wrappers, from these files only, on the
functions the package resolves at call time: each wrapper opens a span
named after its layer, links it to the span that was open when it was
called, and closes it when the call returns. Spans stay in memory; a
child process hands its spans to the benchmark as JSON, where they are
re-parented under the operation that started the child.

A layer's self time is the time its spans cover minus the time their
child spans cover, so summed over all layers, plus the root operation
spans' own self time (``toolflow.self_s``), it equals the root spans'
total wall time. Counting work (ops, edges, bytes) runs in a ``trace``
child span, so its cost shows as the tracer's own time, not as a
layer's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers whose self time is reported as ``<layer>_s``, in report
#: order. ``toolflow`` is the root: time no other layer claims.
LAYERS = (
    "startup.import",
    "core.parse",
    "core.build",
    "analysis.lint",
    "passes.decompose",
    "passes.flatten",
    "dag.build",
    "sched.rcp",
    "sched.lpfs",
    "comm.derive_movement",
    "coarse.profile",
    "toolflow.estimate",
    "stream.build_columns",
    "stream.schedule",
    "stream.movement",
    "stream_io.write",
    "stream_io.read",
    "engine.run",
    "engine.stream_run",
    "sim.spec_check",
    "sim.replay",
    "toolflow",
    "trace",
)

#: Counters the wrappers record, summed over the traced pass.
COUNTERS = (
    "passes.ops_after_decompose",
    "passes.ops_after_flatten",
    "dag.nodes",
    "dag.edges",
    "sched.timesteps",
    "comm.teleports",
    "comm.local_moves",
    "comm.epochs",
    "stream.column_bytes",
    "stream.ops",
    "stream_io.bytes",
    "engine.events",
    "sim.inputs_checked",
)


class Span:
    __slots__ = ("id", "parent", "layer", "t0", "t1", "counters")

    def __init__(self, sid: int, parent: Optional[int], layer: str) -> None:
        self.id = sid
        self.parent = parent
        self.layer = layer
        self.t0 = time.perf_counter()
        self.t1 = self.t0
        self.counters: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Per-process span recorder (one open-span stack per thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._next = 0
        self._pid = os.getpid()
        #: Called with each closed root span (long-lived processes
        #: flush their spans there).
        self.on_root_close: Optional[Callable[[Span], None]] = None

    def _stack(self) -> List[Span]:
        if os.getpid() != self._pid:  # forked: drop the parent's spans
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, layer: str) -> Span:
        stack = self._stack()
        self._next += 1
        span = Span(self._next, stack[-1].id if stack else None, layer)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span.parent is None and self.on_root_close is not None:
            self.on_root_close(span)

    def accumulate(self, layer: str, seconds: float) -> None:
        """Add ``seconds`` to one merged child span of the current span
        (used for many tiny calls, like reading a stream line by line)."""
        parent = self.current()
        key = (parent.id if parent else None, layer)
        merged = self._local.__dict__.setdefault("merged", {})
        span = merged.get(key)
        if span is None:
            self._next += 1
            span = Span(self._next, key[0], layer)
            span.t1 = span.t0
            merged[key] = span
            self.spans.append(span)
        span.t1 += seconds

    def export(self) -> List[List[Any]]:
        return [
            [s.id, s.parent, s.layer, s.seconds, s.counters]
            for s in self.spans
        ]


#: The process-wide tracer the wrappers record into.
TRACER = Tracer()


def _count(span: Span, fn: Callable[..., Dict[str, float]], *args: Any) -> None:
    probe = TRACER.open("trace")
    try:
        for name, value in fn(*args).items():
            span.counters[name] = span.counters.get(name, 0) + value
    finally:
        TRACER.close(probe)


def _wrap(orig: Callable, layer: str, counter: Optional[Callable]) -> Callable:
    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = TRACER.open(layer)
        try:
            result = orig(*args, **kwargs)
            if counter is not None:
                _count(span, counter, args, kwargs, result)
        finally:
            TRACER.close(span)
        return result

    wrapper.__perfbench_orig__ = orig  # type: ignore[attr-defined]
    return wrapper


# -- counters ----------------------------------------------------------


def _program_ops(program: Any) -> int:
    return sum(len(mod.body) for mod in program)


def _count_decompose(args, kwargs, result) -> Dict[str, float]:
    return {"passes.ops_after_decompose": _program_ops(result)}


def _count_flatten(args, kwargs, result) -> Dict[str, float]:
    return {"passes.ops_after_flatten": _program_ops(result.program)}


def _count_dag(args, kwargs, result) -> Dict[str, float]:
    dag = args[0]
    return {
        "dag.nodes": len(dag.statements),
        "dag.edges": sum(len(s) for s in dag.succs),
    }


def _count_schedule(args, kwargs, result) -> Dict[str, float]:
    return {"sched.timesteps": result.length}


def _count_comm(args, kwargs, result) -> Dict[str, float]:
    return {
        "comm.teleports": result.teleports,
        "comm.local_moves": result.local_moves,
        "comm.epochs": result.teleport_epochs + result.local_epochs,
    }


def _count_columns(args, kwargs, result) -> Dict[str, float]:
    arrays = [v for v in vars(result).values() if isinstance(v, array)]
    return {
        "stream.column_bytes": sum(len(a) * a.itemsize for a in arrays),
        "stream.ops": len(result),
    }


def _count_stream_write(args, kwargs, result) -> Dict[str, float]:
    path = args[0] if args else kwargs["path"]
    return {"stream_io.bytes": os.path.getsize(path)}


def _count_engine(args, kwargs, result) -> Dict[str, float]:
    return {
        "engine.events": result.ops_executed
        + result.teleport_epochs
        + result.local_epochs
    }


def _count_verify(args, kwargs, result) -> Dict[str, float]:
    return {"sim.inputs_checked": result.lanes}


#: (module, attribute or Class.method, layer, counter).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.scaffold", "parse_scaffold", "core.parse", None),
    ("repro.core.qasm", "parse_qasm", "core.parse", None),
    ("repro.benchmarks.registry", "BenchmarkSpec.build", "core.build", None),
    ("repro.benchmarks.scale", "build_scale", "core.build", None),
    ("repro.analysis.frontend", "lint_scaffold_source", "analysis.lint", None),
    ("repro.analysis.frontend", "lint_qasm_source", "analysis.lint", None),
    ("repro.analysis.registry", "analyze_program", "analysis.lint", None),
    ("repro.analysis.deep", "analyze_deep", "analysis.lint", None),
    ("repro.passes.decompose", "decompose_program", "passes.decompose",
     _count_decompose),
    ("repro.passes.flatten", "flatten_program", "passes.flatten",
     _count_flatten),
    ("repro.core.dag", "DependenceDAG.__init__", "dag.build", _count_dag),
    ("repro.sched.rcp", "schedule_rcp", "sched.rcp", _count_schedule),
    ("repro.sched.lpfs", "schedule_lpfs", "sched.lpfs", _count_schedule),
    ("repro.sched.comm", "derive_movement", "comm.derive_movement",
     _count_comm),
    ("repro.sched.coarse", "coarse_length_profile", "coarse.profile", None),
    ("repro.passes.resource", "estimate_resources", "toolflow.estimate",
     None),
    ("repro.sched.metrics", "hierarchical_critical_path",
     "toolflow.estimate", None),
    ("repro.sched.stream", "build_columns", "stream.build_columns",
     _count_columns),
    ("repro.sched.stream", "schedule_columns", "stream.schedule", None),
    ("repro.service.stream_io", "write_schedule_stream", "stream_io.write",
     _count_stream_write),
    ("repro.engine.executor", "execute_result", "engine.run", None),
    ("repro.engine.executor", "run_schedule", "engine.run", _count_engine),
    ("repro.engine.executor", "run_schedule_stream", "engine.stream_run",
     _count_engine),
    ("repro.sim.reversible", "verify_reference", "sim.spec_check",
     _count_verify),
    ("repro.sim.reversible", "verify_equivalent", "sim.replay",
     _count_verify),
)


def _wrap_reader(orig: Callable) -> Callable:
    """``read_schedule_stream`` returns a lazy epoch iterator that its
    caller drains; time each line read as ``stream_io.read`` under
    whichever span is draining it."""

    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = TRACER.open("stream_io.read")
        try:
            header, epochs, footer = orig(*args, **kwargs)
        finally:
            TRACER.close(span)

        def timed() -> Iterator[Any]:
            clock = time.perf_counter
            while True:
                t0 = clock()
                try:
                    epoch = next(epochs)
                except StopIteration:
                    TRACER.accumulate("stream_io.read", clock() - t0)
                    return
                TRACER.accumulate("stream_io.read", clock() - t0)
                yield epoch

        return header, timed(), footer

    wrapper.__perfbench_orig__ = orig  # type: ignore[attr-defined]
    return wrapper


def _wrap_movement(orig: Callable) -> Callable:
    """``derive_movement_stream`` hands each finished epoch to an
    optional ``sink``; the stream exporter formats and writes the file
    there, so the sink's time is ``stream_io.write``, not movement."""
    plain = _wrap(orig, "stream.movement", None)

    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sink = kwargs.get("sink")
        if sink is not None:
            clock = time.perf_counter

            def timed_sink(*a: Any, **k: Any) -> Any:
                t0 = clock()
                try:
                    return sink(*a, **k)
                finally:
                    TRACER.accumulate("stream_io.write", clock() - t0)

            kwargs["sink"] = timed_sink
        return plain(*args, **kwargs)

    wrapper.__perfbench_orig__ = orig  # type: ignore[attr-defined]
    return wrapper


def _rebind(orig: Any, new: Any) -> None:
    """Point every name in the loaded package that holds ``orig`` at
    ``new`` (covers ``from x import f`` copies and re-exports)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install() -> None:
    """Wrap every layer entry point (idempotent)."""
    import importlib

    for modname, attr, layer, counter in TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            if hasattr(orig, "__perfbench_orig__"):
                continue
            setattr(cls, meth, _wrap(orig, layer, counter))
            continue
        orig = getattr(mod, attr)
        if hasattr(orig, "__perfbench_orig__"):
            continue
        _rebind(orig, _wrap(orig, layer, counter))
    for modname, attr, wrap in (
        ("repro.service.stream_io", "read_schedule_stream", _wrap_reader),
        ("repro.sched.stream", "derive_movement_stream", _wrap_movement),
    ):
        orig = getattr(importlib.import_module(modname), attr)
        if not hasattr(orig, "__perfbench_orig__"):
            _rebind(orig, wrap(orig))


def dump_on_exit(path: str) -> None:
    """Write this process's spans to ``path`` when it exits."""
    import atexit

    def dump() -> None:
        with open(path, "w") as fh:
            json.dump(TRACER.export(), fh)

    atexit.register(dump)


def flush_roots_to(directory: str) -> None:
    """In a long-lived process (the daemon and its forked workers),
    append each finished root span's tree to ``<dir>/<pid>.jsonl``."""

    def flush(_root: Span) -> None:
        spans = TRACER.export()
        TRACER.spans = []
        TRACER._local.__dict__.pop("merged", None)
        path = os.path.join(directory, f"{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(spans) + "\n")

    TRACER.on_root_close = flush


class SpanSet:
    """Spans collected from this process and its children, re-linked
    into one tree, with the per-layer aggregation the report needs."""

    def __init__(self) -> None:
        self.rows: List[List[Any]] = []  # [id, parent, layer, seconds, counters]
        self._next = 0

    def add_local(self, tracer: Tracer) -> None:
        self.adopt(tracer.export(), None)

    def adopt(self, rows: List[List[Any]], parent: Optional[int]) -> None:
        """Add exported spans, mapping their ids into this set and
        hanging their roots under ``parent``."""
        base = self._next
        top = 0
        for sid, par, layer, seconds, counters in rows:
            top = max(top, sid)
            self.rows.append([
                base + sid,
                parent if par is None else base + par,
                layer,
                seconds,
                counters,
            ])
        self._next = base + top

    def root(self, seconds: float, layer: str = "toolflow") -> int:
        """A root span of known duration (an operation timed from the
        benchmark); returns its id for children to hang under."""
        self._next += 1
        self.rows.append([self._next, None, layer, seconds, {}])
        return self._next

    def aggregate(
        self,
    ) -> Tuple[Dict[str, float], Dict[str, float], float, Tuple[float, str]]:
        """(self seconds by layer, counter totals, root wall, and the
        lowest self time of any one span with that span's layer)."""
        child_time: Dict[int, float] = {}
        for sid, par, layer, seconds, _ in self.rows:
            if par is not None:
                child_time[par] = child_time.get(par, 0.0) + seconds
        selfs = {layer: 0.0 for layer in LAYERS}
        counters = {name: 0.0 for name in COUNTERS}
        wall = 0.0
        worst = (0.0, "")
        for sid, par, layer, seconds, ctrs in self.rows:
            own = seconds - child_time.get(sid, 0.0)
            selfs[layer] = selfs.get(layer, 0.0) + own
            worst = min(worst, (own, layer))
            if par is None:
                wall += seconds
            for name, value in ctrs.items():
                counters[name] = counters.get(name, 0.0) + value
        return selfs, counters, wall, worst
