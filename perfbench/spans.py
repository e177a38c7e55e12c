"""Outside-in tracing: spans around calls into each layer's public functions.

Nothing inside ``src/`` is instrumented. :class:`Patcher` replaces the
public functions and methods named in :data:`TARGETS` with wrappers that
open a span in a :class:`SpanRecorder`, for the duration of a traced
phase, and restores them afterwards. Spans live in memory until the run
writes them out once at exit.

A span records its name (the layer), start and end, the span that was
open on the same thread when it started (its parent), and the request
id the serve replay had set, if any. A layer's self time is each span's
duration minus the part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; counters ride along by name."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        #: Set by the serve replay around each request (one connection,
        #: closed loop, so every span opened meanwhile belongs to it).
        self.request: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        with self._lock:
            record = Span(
                index=len(self.spans), name=name, start=time.perf_counter(),
                parent=stack[-1] if stack else None, request=self.request,
            )
            self.spans.append(record)
        stack.append(record.index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def as_jsonable(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "request": s.request, **s.attrs}
                for s in self.spans
            ],
            "counters": self.counters,
        }


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(span.index, []), span.start, span.end)
        for span in spans
    ]


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
#: (module, attribute, span name). ``Class.method`` attributes patch the
#: class; plain functions are replaced in their defining module and in
#: every loaded ``repro`` module that imported them by name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.experiments.table1", "run_table1", "experiments"),
    ("repro.experiments.table2", "run_table2", "experiments"),
    ("repro.experiments.figure1", "run_figure1", "experiments"),
    ("repro.experiments.survey", "run_survey", "experiments"),
    ("repro.experiments.emulab", "run_emulab", "experiments"),
    # Driver cells the executor runs through map_calls.
    ("repro.exec.jobs", "CallJob.run", "experiments"),
    ("repro.core.characterization", "characterize", "core.metrics"),
    ("repro.backends.base", "run_spec", "backends.run_spec"),
    ("repro.exec.executor", "Executor.submit", "exec.plan"),
    ("repro.perf.cache", "TraceCache.get", "perf.store.load"),
    ("repro.perf.cache", "TraceCache.get_arrays", "perf.store.load"),
    ("repro.perf.cache", "TraceCache.put", "perf.store.put"),
    ("repro.perf.cache", "TraceCache.put_arrays", "perf.store.put"),
    ("repro.backends.batch", "plan_batches", "backends.batch.plan"),
    ("repro.backends.batch", "plan_network_batches", "backends.batch.plan"),
    ("repro.backends.batch", "plan_meanfield_batches", "backends.batch.plan"),
    ("repro.backends.batch", "run_specs_batched", "backends.batch.lane"),
    ("repro.backends.batch", "run_network_specs_batched", "backends.batch.lane"),
    ("repro.backends.batch", "run_meanfield_specs_batched", "backends.batch.lane"),
    ("repro.model.batch", "run_batch_kernel", "model.batch"),
    ("repro.netmodel.batch", "run_network_batch_kernel", "netmodel.batch"),
    ("repro.meanfield.batch", "run_meanfield_batch_kernel", "meanfield.batch"),
    ("repro.model.dynamics", "FluidSimulator.run", "model.dynamics"),
    ("repro.netmodel.dynamics", "NetworkFluidSimulator.run", "netmodel.dynamics"),
    ("repro.meanfield.dynamics", "MeanFieldSimulator.run", "meanfield.dynamics"),
    ("repro.packetsim.engine", "EventScheduler.run_until", "packetsim"),
    ("repro.exec.client", "ServeClient.run_specs", "exec.serve"),
    ("repro.exec.wire", "encode_trace", "exec.wire.encode"),
    ("repro.exec.wire", "decode_trace", "exec.wire.decode"),
    ("repro.exec.wire", "spec_from_wire", "exec.wire.decode"),
)

#: The estimator layer: every public ``estimate_*`` function plus the
#: robustness helpers, across the ``repro.core.metrics`` modules.
ESTIMATOR_MODULES = (
    "repro.core.metrics",
    "repro.core.metrics.convergence",
    "repro.core.metrics.efficiency",
    "repro.core.metrics.extensions",
    "repro.core.metrics.fairness",
    "repro.core.metrics.fast_utilization",
    "repro.core.metrics.friendliness",
    "repro.core.metrics.latency",
    "repro.core.metrics.loss_avoidance",
    "repro.core.metrics.robustness",
)
ESTIMATOR_EXTRAS = ("diverges_under_loss", "robustness_profile")


def estimator_targets() -> list[tuple[str, str, str]]:
    targets = []
    for module_name in ESTIMATOR_MODULES:
        module = importlib.import_module(module_name)
        for attr, value in sorted(vars(module).items()):
            if not callable(value) or getattr(value, "__module__", None) != module_name:
                continue
            if attr.startswith("estimate_") or attr in ESTIMATOR_EXTRAS:
                targets.append((module_name, attr, "core.metrics"))
    return targets


def _ndarray_bytes(value: Any) -> int:
    import numpy as np

    return sum(
        item.nbytes for item in vars(value).values() if isinstance(item, np.ndarray)
    )


def _hooks() -> dict[str, Callable]:
    """Per-layer attribute capture: ``hook(span, args, result)``."""

    def load(span, args, result):
        span.attrs["hit"] = result is not None

    def plan(span, args, result):
        specs = args[0]
        indices = args[1] if len(args) > 1 else None
        span.attrs["specs_in"] = len(specs) if indices is None else len(indices)
        span.attrs["specs_lowered"] = sum(len(g.indices) for g in result.groups)
        span.attrs["groups"] = len(result.groups)

    def kernel(span, args, result):
        span.attrs["bytes"] = _ndarray_bytes(result)

    def encode(span, args, result):
        span.attrs["bytes"] = len(result)

    return {
        "perf.store.load": load,
        "backends.batch.plan": plan,
        "model.batch": kernel,
        "netmodel.batch": kernel,
        "meanfield.batch": kernel,
        "exec.wire.encode": encode,
    }


class Patcher:
    """Installs span wrappers on :data:`TARGETS`; ``restore`` undoes it."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []
        self._wrappers: set[int] = set()

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(name) as span:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(span, args, result)
                return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def _wrap_fluid_run(self, fn: Callable) -> Callable:
        """``FluidSimulator.run`` also notes which engine path ran its steps."""
        recorder = self.recorder
        from repro.perf import REGISTRY

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            steps = args[0] if args else kwargs["steps"]
            before = REGISTRY.stats().get("sim.run.general")
            general_before = before.count if before else 0
            with recorder.span("model.dynamics"):
                result = fn(sim, *args, **kwargs)
            after = REGISTRY.stats().get("sim.run.general")
            if after is not None and after.count > general_before:
                recorder.count("model.dynamics.general.steps", steps)
            return result

        return wrapper

    def install(self) -> None:
        hooks = _hooks()
        for module_name, attr, name in TARGETS + tuple(estimator_targets()):
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[method]
                if attr == "FluidSimulator.run":
                    wrapped = self._wrap_fluid_run(original)
                else:
                    wrapped = self._wrap(name, original, hooks.get(name))
                self._set(owner, method, wrapped)
                continue
            original = getattr(module, attr)
            if id(original) in self._wrappers:
                continue  # a re-exported name, already wrapped via another module
            wrapped = self._wrap(name, original, hooks.get(name))
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.startswith("repro") and loaded is not None:
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, key, wrapped)
        self._wrap_index_append()

    def _wrap_index_append(self) -> None:
        from repro.perf.cache import TraceCache

        recorder = self.recorder
        original = vars(TraceCache)["index_append"]

        @functools.wraps(original)
        def index_append(cache, key, kind, nbytes):
            recorder.count("perf.store.bytes_written", nbytes)
            return original(cache, key, kind, nbytes)

        self._set(TraceCache, "index_append", index_append)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# Counters the program exposes, read before and after the traced phase
# ----------------------------------------------------------------------
def snapshot(extra: dict[str, float] | None = None) -> dict[str, float]:
    """Executor counters, timing-registry buckets and kernel cell counts."""
    from repro.exec import default_executor
    from repro.meanfield.batch import meanfield_kernel_cells
    from repro.model.batch import kernel_cells
    from repro.netmodel.batch import net_kernel_cells
    from repro.perf import REGISTRY

    values: dict[str, float] = {
        f"exec.{name}": float(count)
        for name, count in default_executor().snapshot().items()
    }
    stats = REGISTRY.stats()
    for bucket, prefix in (("sim.run.general", "model.dynamics.general"),
                           ("sim.run.vectorized", "model.dynamics.vectorized")):
        stat = stats.get(bucket)
        values[f"{prefix}.runs"] = float(stat.count) if stat else 0.0
        values[f"{prefix}.self_s"] = stat.total if stat else 0.0
    values["model.batch.cell_steps"] = float(kernel_cells())
    values["netmodel.batch.cell_steps"] = float(net_kernel_cells())
    values["meanfield.batch.cell_steps"] = float(meanfield_kernel_cells())
    values.update(extra or {})
    return values


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    before: dict[str, float],
    after: dict[str, float],
    ops: int,
) -> dict[str, float]:
    """Every per-layer metric of a traced phase of ``ops`` units of work.

    Counts and times are totals divided by ``ops``; ratios and rates are
    taken over the whole phase.
    """
    spans = recorder.spans
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span.index)

    def total_self(name: str) -> float:
        return sum(selfs[i] for i in by_name.get(name, []))

    def attr_sum(name: str, key: str) -> float:
        return float(sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, [])))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def has_ancestor(span: Span, names: tuple[str, ...], direct: bool) -> bool:
        parent = span.parent
        while parent is not None:
            if spans[parent].name in names:
                return True
            if direct:
                return False
            parent = spans[parent].parent
        return False

    delta = {key: after[key] - before.get(key, 0.0) for key in after}
    counted = {
        "experiments.self_s": total_self("experiments"),
        "core.metrics.calls": calls("core.metrics"),
        "core.metrics.self_s": total_self("core.metrics"),
        "core.metrics.specs": sum(
            1 for i in by_name.get("backends.run_spec", [])
            if has_ancestor(spans[i], ("core.metrics",), direct=False)
        ),
        "backends.run_spec.calls": calls("backends.run_spec"),
        "backends.run_spec.self_s": total_self("backends.run_spec"),
        "exec.plan_s": total_self("exec.plan"),
        "perf.store.probes": calls("perf.store.load"),
        "perf.store.hits": attr_sum("perf.store.load", "hit"),
        "perf.store.load_s": total_self("perf.store.load"),
        "perf.store.puts": calls("perf.store.put"),
        "perf.store.put_s": total_self("perf.store.put"),
        "perf.store.bytes_written": recorder.counters.get("perf.store.bytes_written", 0.0),
        "backends.batch.plan_s": total_self("backends.batch.plan"),
        "backends.batch.specs_in": attr_sum("backends.batch.plan", "specs_in"),
        "backends.batch.specs_lowered": attr_sum("backends.batch.plan", "specs_lowered"),
        "backends.batch.groups": attr_sum("backends.batch.plan", "groups"),
        "backends.batch.fallback_runs": sum(
            1 for i in by_name.get("backends.run_spec", [])
            if has_ancestor(spans[i], ("backends.batch.lane",), direct=True)
        ),
        "netmodel.dynamics.runs": calls("netmodel.dynamics"),
        "netmodel.dynamics.self_s": total_self("netmodel.dynamics"),
        "meanfield.dynamics.runs": calls("meanfield.dynamics"),
        "meanfield.dynamics.self_s": total_self("meanfield.dynamics"),
        "packetsim.runs": calls("packetsim"),
        "packetsim.self_s": total_self("packetsim"),
        "exec.wire.encode_s": total_self("exec.wire.encode"),
        "exec.wire.decode_s": total_self("exec.wire.decode"),
        "exec.wire.bytes_out": attr_sum("exec.wire.encode", "bytes"),
        "exec.serve.overhead_s": serve_overhead(recorder),
    }
    for name in ("exec.submissions", "exec.jobs", "exec.computed", "exec.cache_hits",
                 "exec.deduped", "exec.inflight_waits", "exec.serve.requests",
                 "model.dynamics.general.runs", "model.dynamics.general.self_s",
                 "model.dynamics.vectorized.runs", "model.dynamics.vectorized.self_s"):
        counted[name] = delta.get(name, 0.0)
    for kernel in ("model.batch", "netmodel.batch", "meanfield.batch"):
        counted[f"{kernel}.calls"] = calls(kernel)
        counted[f"{kernel}.self_s"] = total_self(kernel)
        counted[f"{kernel}.cell_steps"] = delta.get(f"{kernel}.cell_steps", 0.0)
        counted[f"{kernel}.bytes_computed"] = attr_sum(kernel, "bytes")

    metrics = {name: float(value) / ops for name, value in counted.items()}
    metrics.update({
        "exec.jobs_per_submission": _ratio(counted["exec.jobs"], counted["exec.submissions"]),
        "exec.computed_ratio": _ratio(counted["exec.computed"], counted["exec.jobs"]),
        "perf.store.hit_ratio": _ratio(counted["perf.store.hits"], counted["perf.store.probes"]),
        "perf.store.probes_per_job": _ratio(counted["perf.store.probes"], counted["exec.jobs"]),
        "backends.batch.lane_ratio": _ratio(
            counted["backends.batch.specs_lowered"], counted["backends.batch.specs_in"]
        ),
        "model.dynamics.general.steps_per_s": _ratio(
            recorder.counters.get("model.dynamics.general.steps", 0.0),
            counted["model.dynamics.general.self_s"],
        ),
    })
    for kernel in ("model.batch", "netmodel.batch", "meanfield.batch"):
        metrics[f"{kernel}.cell_steps_per_s"] = _ratio(
            counted[f"{kernel}.cell_steps"], counted[f"{kernel}.self_s"]
        )
    return metrics


#: Spans a served request's time is attributed to; the rest is overhead.
SERVE_WORK = ("exec.plan", "exec.wire.encode", "exec.wire.decode")


def serve_overhead(recorder: SpanRecorder) -> float:
    """Request time not covered by its executor submit or wire spans, summed."""
    work: dict[int, list[tuple[float, float]]] = {}
    for span in recorder.spans:
        if span.request is not None and span.name in SERVE_WORK:
            work.setdefault(span.request, []).append((span.start, span.end))
    return sum(
        span.duration - covered(work.get(span.request, []), span.start, span.end)
        for span in recorder.spans
        if span.name == "exec.serve" and span.request is not None
    )
