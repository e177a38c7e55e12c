"""The one scheduler behind every execution path.

:class:`Executor` replaces the hand-dispatch that used to live in
``run_specs`` and in each experiment driver: callers submit a list of
:mod:`~repro.exec.jobs` jobs and get results back in submission order,
while the executor decides how little work that actually requires:

1. **Plan** — every job is content-keyed where its kind allows.
2. **Dedup** — duplicate keys inside one submission collapse to a single
   computation; keys already being computed by a concurrent submission
   attach as *waiters* (one computation, many waiters — the property the
   serve layer's concurrent clients rely on); keyed jobs whose result is
   already in the content-addressed store are served from it.
3. **Route** — the jobs that remain are grouped per kind and sent to the
   cheapest engine that preserves bit-identity: with ``batch=True`` the
   stacked fluid, network or mean-field kernel or the merged packet
   scheduler (one batch lane per spec backend), a process pool when
   ``workers > 1``, a serial loop otherwise.
4. **Fall back** — anything a batched engine cannot express runs per-job
   through exactly the code path a hand-written driver would have used.

Results are bit-identical to the pre-executor paths for every routing
decision: the engines themselves already guarantee batched == pooled ==
serial, and dedup only ever reuses results of *identical* content keys
produced by deterministic backends.

Thread-safety: one process-wide executor may be shared by any number of
threads (the serve layer submits from a thread per request). The planning
step and the stats counters are lock-protected; computation runs outside
the lock.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.exec.jobs import (
    CallJob,
    PacketScenarioJob,
    SpecJob,
    WorkloadJob,
    job_runner,
)

#: Spec backend -> its batched entry point in :mod:`repro.backends.batch`
#: and whether that entry point chunks over ``workers``. Entry points are
#: named rather than held, so every call looks the function up on its
#: module. SpecJobs on any other backend fall back per-job (with a
#: one-time warning naming the backend).
_SPEC_LANES = {
    "fluid": ("run_specs_batched", True),
    "meanfield": ("run_meanfield_specs_batched", False),
    "network": ("run_network_specs_batched", True),
    "packet": ("run_packet_specs_batched", False),
}

#: Backends already warned about falling back from ``batch=True``.
_warned_laneless: set[str] = set()

__all__ = [
    "ExecutorStats",
    "Executor",
    "JobOutcome",
    "default_executor",
    "map_calls",
    "reset_default_executor",
]


@dataclass
class JobOutcome:
    """One job's result plus how the executor obtained it.

    ``source`` is one of ``"computed"`` (an engine ran the job),
    ``"cache"`` (served from the content-addressed store), ``"dedup"``
    (identical to an earlier job in the same submission) or
    ``"inflight"`` (attached to a computation another submission had
    already started). ``error`` carries the failure message when ``ok``
    is false; ``value`` is then ``None``.
    """

    value: Any = None
    ok: bool = True
    source: str = "computed"
    error: str | None = None


class _InFlight:
    """One keyed computation in progress: a latch plus its outcome."""

    __slots__ = ("event", "outcome", "exception")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.outcome: JobOutcome | None = None
        self.exception: BaseException | None = None

    def resolve(self, outcome: JobOutcome,
                exception: BaseException | None = None) -> None:
        self.outcome = outcome
        self.exception = exception
        self.event.set()


@dataclass
class ExecutorStats:
    """Lifetime counters (guarded by the executor's lock)."""

    submissions: int = 0
    jobs: int = 0
    computed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    inflight_waits: int = 0
    errors: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "submissions": self.submissions,
            "jobs": self.jobs,
            "computed": self.computed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "inflight_waits": self.inflight_waits,
            "errors": self.errors,
        }


@dataclass
class _Plan:
    """The lock-protected planning outcome for one submission."""

    compute: list[int] = field(default_factory=list)
    followers: dict[int, int] = field(default_factory=dict)
    waiters: list[tuple[int, _InFlight]] = field(default_factory=list)
    claimed: dict[int, str] = field(default_factory=dict)
    cached: dict[int, Any] = field(default_factory=dict)


class Executor:
    """Plans, dedups and routes jobs; see the module docstring."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[str, _InFlight] = {}
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[Any],
        *,
        batch: bool = False,
        workers: int | None = None,
        use_cache: bool = True,
        skip_errors: bool = False,
    ) -> list[Any]:
        """Results in submission order; raises on the first failing job.

        The value-only face of :meth:`submit`, with the exact semantics
        the hand-dispatched ``run_specs`` had: with ``skip_errors`` a
        failing job yields ``None`` without disturbing the rest, without
        it the original exception of the earliest-submitted failing job
        propagates.
        """
        outcomes = self.submit(
            jobs,
            batch=batch,
            workers=workers,
            use_cache=use_cache,
            skip_errors=skip_errors,
        )
        return [outcome.value for outcome in outcomes]

    def submit(
        self,
        jobs: Sequence[Any],
        *,
        batch: bool = False,
        workers: int | None = None,
        use_cache: bool = True,
        skip_errors: bool = False,
    ) -> list[JobOutcome]:
        """Run every job, returning one :class:`JobOutcome` per job.

        Outcomes come back in submission order regardless of which path
        — store, dedup, in-flight wait, batched engine, pool, serial —
        produced each value. Without ``skip_errors`` the first failure
        (in submission order) re-raises its original exception after
        every claimed in-flight entry has been resolved, so concurrent
        waiters never hang.
        """
        jobs = list(jobs)
        outcomes: list[JobOutcome | None] = [None] * len(jobs)
        if not jobs:
            return []
        keys = [job.key() for job in jobs]
        cache = self._active_cache() if use_cache else None
        plan = self._plan(jobs, keys, cache)
        try:
            computed = self._compute(
                jobs, plan.compute, batch=batch, workers=workers,
                use_cache=use_cache, skip_errors=skip_errors,
            )
        except BaseException as exc:
            # Engines raised before per-job outcomes existed: fail every
            # claim so concurrent waiters see the error instead of hanging.
            failure = JobOutcome(
                ok=False, error=f"{type(exc).__name__}: {exc}"
            )
            self._resolve_claims(plan.claimed, dict.fromkeys(plan.claimed),
                                 failure, exc)
            raise
        for index in plan.compute:
            outcomes[index] = computed[index]
        self._resolve_claims(plan.claimed, computed)
        for index, value in plan.cached.items():
            outcomes[index] = JobOutcome(value=value, source="cache")
        for index, leader in plan.followers.items():
            lead = outcomes[leader]
            assert lead is not None
            outcomes[index] = JobOutcome(
                value=lead.value, ok=lead.ok, source="dedup", error=lead.error
            )
        first_error: tuple[int, BaseException] | None = None
        for index, record in plan.waiters:
            record.event.wait()
            waited = record.outcome
            assert waited is not None
            outcomes[index] = JobOutcome(
                value=waited.value, ok=waited.ok, source="inflight",
                error=waited.error,
            )
            if record.exception is not None and not skip_errors:
                if first_error is None or index < first_error[0]:
                    first_error = (index, record.exception)
        with self._lock:
            self.stats.errors += sum(
                1 for outcome in outcomes if outcome is not None and not outcome.ok
            )
        if first_error is not None:
            raise first_error[1]
        return [outcome for outcome in outcomes if outcome is not None]

    def snapshot(self) -> dict[str, int]:
        """A consistent copy of the lifetime counters."""
        with self._lock:
            return self.stats.snapshot()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    @staticmethod
    def _active_cache():
        from repro.perf.cache import active_cache

        return active_cache()

    def _plan(self, jobs: list, keys: list[str | None], cache) -> _Plan:
        """Partition a submission; claims in-flight slots under the lock.

        The store probe runs outside the lock (it reads files); a probed
        miss is then planned under the lock, where in-flight claims are
        atomic. A claimed key is probed once more after the claim: a
        concurrent submission may have stored it between the first probe
        and the claim (computations store *before* releasing their
        claim, so a post-claim miss proves this submission is the
        genuine leader). That second probe is what makes "each unique
        key computes exactly once" exact rather than merely likely.
        """
        probed: dict[int, Any] = {}
        if cache is not None:
            for index, (job, key) in enumerate(zip(jobs, keys)):
                if key is not None:
                    hit = job.probe(cache)
                    if hit is not None:
                        probed[index] = hit
        plan = _Plan()
        seen: dict[str, int] = {}
        with self._lock:
            self.stats.submissions += 1
            self.stats.jobs += len(jobs)
            for index, (job, key) in enumerate(zip(jobs, keys)):
                full_key = None if key is None else f"{job.kind}:{key}"
                if index in probed:
                    plan.cached[index] = probed[index]
                    self.stats.cache_hits += 1
                    continue
                if full_key is None:
                    plan.compute.append(index)
                    continue
                if full_key in seen:
                    plan.followers[index] = seen[full_key]
                    self.stats.deduped += 1
                    continue
                record = self._inflight.get(full_key)
                if record is not None:
                    plan.waiters.append((index, record))
                    self.stats.inflight_waits += 1
                    continue
                self._inflight[full_key] = _InFlight()
                plan.claimed[index] = full_key
                seen[full_key] = index
                plan.compute.append(index)
            self.stats.computed += len(plan.compute)
        if cache is not None:
            for index, full_key in list(plan.claimed.items()):
                hit = jobs[index].probe(cache)
                if hit is None:
                    continue
                with self._lock:
                    record = self._inflight.pop(full_key, None)
                    self.stats.computed -= 1
                    self.stats.cache_hits += 1
                if record is not None:
                    record.resolve(JobOutcome(value=hit, source="cache"))
                del plan.claimed[index]
                plan.compute.remove(index)
                plan.cached[index] = hit
        return plan

    def _resolve_claims(
        self,
        claimed: dict[int, str],
        computed: dict[int, JobOutcome | None],
        fallback: JobOutcome | None = None,
        exception: BaseException | None = None,
    ) -> None:
        """Publish claimed keys' outcomes and release their slots."""
        with self._lock:
            for index, full_key in claimed.items():
                record = self._inflight.pop(full_key, None)
                if record is None or record.event.is_set():
                    continue
                outcome = computed.get(index) or fallback
                if outcome is None:
                    outcome = JobOutcome(ok=False, error="job was not executed")
                record.resolve(outcome, exception)

    # ------------------------------------------------------------------
    # Routing and engines
    # ------------------------------------------------------------------
    def _compute(
        self,
        jobs: list,
        indices: list[int],
        *,
        batch: bool,
        workers: int | None,
        use_cache: bool,
        skip_errors: bool,
    ) -> dict[int, JobOutcome]:
        """Run the planned jobs, grouped per batched engine.

        Batched lanes exist for every spec backend — fluid, packet,
        network and mean-field — plus packet scenarios and workloads;
        every other (kind, flags) combination falls back to the per-job
        lane, which preserves the pooled / serial semantics of the
        pre-executor drivers exactly. A spec job on a backend without a
        batch lane warns once, naming the backend, before falling back.
        """
        outcomes: dict[int, JobOutcome] = {}
        if not indices:
            return outcomes
        leftover: list[int] = []
        if batch:
            lanes: dict[str, list[int]] = {}
            for index in indices:
                job = jobs[index]
                if isinstance(job, SpecJob) and job.backend in _SPEC_LANES:
                    lanes.setdefault(f"spec-{job.backend}", []).append(index)
                elif isinstance(job, SpecJob):
                    if job.backend not in _warned_laneless:
                        _warned_laneless.add(job.backend)
                        warnings.warn(
                            f"backend {job.backend!r} has no batched engine; "
                            "its specs run per-job",
                            RuntimeWarning,
                            stacklevel=4,
                        )
                    leftover.append(index)
                elif isinstance(job, PacketScenarioJob):
                    lanes.setdefault("scenario", []).append(index)
                elif isinstance(job, WorkloadJob):
                    lanes.setdefault("workload", []).append(index)
                else:
                    leftover.append(index)
            for lane, members in sorted(lanes.items()):
                if lane == "scenario":
                    self._run_scenario_batch(
                        jobs, members, outcomes, use_cache, skip_errors
                    )
                elif lane == "workload":
                    self._run_workload_batch(
                        jobs, members, outcomes, use_cache, skip_errors
                    )
                else:
                    self._run_spec_batch(
                        lane.removeprefix("spec-"), jobs, members, outcomes,
                        workers, use_cache, skip_errors,
                    )
        else:
            leftover = list(indices)
        if leftover:
            self._run_per_job(
                jobs, leftover, outcomes, workers, use_cache, skip_errors
            )
        return outcomes

    def _run_spec_batch(
        self, backend, jobs, members, outcomes, workers, use_cache, skip_errors
    ) -> None:
        from repro.backends import batch as batch_module

        entry, chunkable = _SPEC_LANES[backend]
        traces = getattr(batch_module, entry)(
            [jobs[i].spec for i in members],
            use_cache=use_cache,
            skip_errors=skip_errors,
            **({"workers": workers} if chunkable else {}),
        )
        self._fill(members, traces, outcomes)

    def _run_scenario_batch(
        self, jobs, members, outcomes, use_cache, skip_errors
    ) -> None:
        from repro.packetsim.batch import run_scenarios_batched

        try:
            results = run_scenarios_batched(
                [jobs[i].scenario for i in members], use_cache=use_cache
            )
        except Exception as exc:
            if not skip_errors:
                raise
            failure = JobOutcome(ok=False, error=f"{type(exc).__name__}: {exc}")
            for index in members:
                outcomes[index] = failure
            return
        self._fill(members, results, outcomes)

    def _run_workload_batch(
        self, jobs, members, outcomes, use_cache, skip_errors
    ) -> None:
        from repro.packetsim.batch import run_workloads_batched

        groups: dict[tuple, list[int]] = {}
        for index in members:
            groups.setdefault(jobs[index].merge_key(), []).append(index)
        for group in groups.values():
            first = jobs[group[0]]
            try:
                results = run_workloads_batched(
                    first.link,
                    [(list(jobs[i].specs), list(jobs[i].background))
                     for i in group],
                    first.duration,
                    slow_start=first.slow_start,
                    initial_window=first.initial_window,
                    use_cache=use_cache,
                )
            except Exception as exc:
                if not skip_errors:
                    raise
                failure = JobOutcome(
                    ok=False, error=f"{type(exc).__name__}: {exc}"
                )
                for index in group:
                    outcomes[index] = failure
                continue
            self._fill(group, results, outcomes)

    def _run_per_job(
        self, jobs, members, outcomes, workers, use_cache, skip_errors
    ) -> None:
        """The per-job fallback lane: a Sweep pool, or a serial loop.

        Mirrors the pre-executor ``run_specs`` exactly — the same sweep
        machinery, the same submission-order collection, the same
        first-error-raises / ``None``-hole semantics.
        """
        import functools

        from repro.experiments.sweep import Sweep, workers_sweep_options

        sweep = Sweep(
            axes={"index": list(members)},
            measure=functools.partial(
                job_runner, jobs=list(jobs), use_cache=use_cache
            ),
            skip_errors=skip_errors,
        )
        rows = sweep.run(**workers_sweep_options(workers))
        failures = {
            cell["index"]: message for cell, message in sweep.errors
        }
        for index, row in zip(members, rows):
            if index in failures:
                outcomes[index] = JobOutcome(ok=False, error=failures[index])
            else:
                outcomes[index] = JobOutcome(value=row.value)

    @staticmethod
    def _fill(members, values, outcomes) -> None:
        """Map an engine's ordered results back onto submission indices."""
        for index, value in zip(members, values):
            if value is None:
                outcomes[index] = JobOutcome(ok=False, error="job failed")
            else:
                outcomes[index] = JobOutcome(value=value)


# ----------------------------------------------------------------------
# The process-wide default executor
# ----------------------------------------------------------------------
_default: Executor | None = None
_default_lock = threading.Lock()


def default_executor() -> Executor:
    """The process-wide executor ``run_specs`` and the serve layer share.

    One shared instance is what makes in-flight dedup global: any two
    code paths submitting the same keyed work in this process attach to
    one computation.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = Executor()
        return _default


def reset_default_executor() -> None:
    """Drop the shared executor (tests use this to isolate counters)."""
    global _default
    with _default_lock:
        _default = None


def map_calls(
    fn,
    cells: Sequence[dict],
    workers: int | None = None,
    skip_errors: bool = False,
) -> list[Any]:
    """Run ``fn(**cell)`` for every cell through the default executor.

    The grid-driver convenience: replaces a hand-rolled ``Sweep`` with an
    executor submission of :class:`~repro.exec.jobs.CallJob` rows —
    same pooled/serial fallbacks, same submission-order results, but one
    scheduler owns every execution decision.
    """
    jobs = [CallJob(fn=fn, kwargs=dict(cell)) for cell in cells]
    return default_executor().run(
        jobs, workers=workers, skip_errors=skip_errors
    )
