"""Batch planning and scheduling for the array spec backends.

This module is the bridge between :func:`repro.backends.jobs.run_specs`
and the stacked kernels — the fluid kernel in :mod:`repro.model.batch`,
the multi-link network kernel in :mod:`repro.netmodel.batch` and the
mean-field kernel in :mod:`repro.meanfield.batch`. One
:class:`BatchLane` record per backend (see :data:`LANES`) says how that
backend's specs reach its kernel: how to lower a spec, which lowered
specs may share a kernel call, how to stack their inputs, which kernel
to run, how to slice one spec's trace back out of the stacked result,
and — when the scheduler may chunk the kernel — its output shapes.
Everything else is one shared planner and one shared runner:

- the planners (:func:`plan_batches`, :func:`plan_network_batches`,
  :func:`plan_meanfield_batches`) sort a list of ScenarioSpecs into
  *batch groups* — specs sharing the lane's group key, whose dynamics
  the kernel can advance together — and a *fallback* list for
  everything else (stateful protocols, schedules, ECN, lowering
  failures, ...), which runs per-spec through the ordinary serial path;
- the runners (:func:`run_specs_batched`,
  :func:`run_network_specs_batched`, :func:`run_meanfield_specs_batched`)
  serve cached specs from the unified store without touching a kernel,
  run each group through one kernel call (or, for large groups with
  ``workers > 1``, through the shared-memory chunk scheduler), cache
  every extracted trace individually so warm reruns stay
  content-addressed, and run fallback specs serially.

The shared-memory scheduler replaces per-job pickling for batch results:
the parent allocates ``multiprocessing.shared_memory`` buffers for the
group's stacked output arrays, workers advance disjoint row chunks of the
batch and write directly into the buffers, and only tiny failure maps
travel back over the pool. Chunk size is autotuned from the kernel's
measured throughput in :data:`repro.perf.timing.REGISTRY`. Batched,
chunked and serial execution all produce bit-identical traces; a spec
that fails mid-batch is rerun serially so callers see the exact serial
exception (or ``None`` with ``skip_errors=True``), and never poisons the
other rows. The mean-field lane runs in-process — its kernel already
advances a whole sweep in one vectorized loop, so chunking buys nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.backends.base import run_spec
from repro.backends.spec import ScenarioSpec
from repro.model.batch import (
    BatchInputs,
    BatchResult,
    kernel_cells,
    run_batch_kernel,
    slice_rows,
)
from repro.model.random_loss import BernoulliLoss, NoLoss
from repro.perf import timing

__all__ = [
    "LANES",
    "BatchGroup",
    "BatchLane",
    "BatchPlan",
    "Chunking",
    "autotune_chunk_rows",
    "plan_batches",
    "plan_meanfield_batches",
    "plan_network_batches",
    "run_meanfield_specs_batched",
    "run_network_specs_batched",
    "run_packet_specs_batched",
    "run_specs_batched",
]

#: Chunk size used before any kernel throughput has been measured.
_DEFAULT_CHUNK_ROWS = 64
#: Autotuning target: chunks sized to roughly this much kernel time, so
#: scheduling overhead stays small without starving the pool of work.
_TARGET_CHUNK_SECONDS = 0.25


# ----------------------------------------------------------------------
# The lane record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Chunking:
    """What the shared-memory scheduler needs to chunk a lane's kernel."""

    #: Stacked inputs -> output array name -> full float64 shape; every
    #: shape is ``(steps, rows, ...)``, so chunks split the second axis.
    shapes: Callable[[Any], dict[str, tuple[int, ...]]]
    #: Rebuilds the kernel's result from the shared buffers: called
    #: with ``failed=`` plus one keyword array per :attr:`shapes` entry.
    result: Callable[..., Any]
    #: The ``timing.REGISTRY`` section the kernel reports its time to.
    section: str
    #: Scenario-steps the kernel has advanced so far in this process.
    cells: Callable[[], int]


@dataclass(frozen=True)
class BatchLane:
    """How one array backend's specs reach its stacked kernel.

    ``lower`` returns a spec's batch-eligible row, or ``None`` (or
    raises) to send the spec to the serial fallback; rows with equal
    ``group_key`` share one kernel call, stacked by ``build_inputs``.
    ``kernel(inputs)`` runs a stack (chunkable lanes also take ``out=``
    buffers) — a private shim that looks the public kernel up on its
    module at call time — and
    ``extract(group, result, pos, spec)`` slices row ``pos`` back into a
    :class:`~repro.backends.trace.UnifiedTrace`. ``chunking`` is ``None``
    for lanes that always run in-process.
    """

    backend: str
    lower: Callable[[ScenarioSpec], Any]
    group_key: Callable[[Any], tuple]
    build_inputs: Callable[[list], Any]
    kernel: Callable[..., Any]
    extract: Callable[..., Any]
    chunking: Chunking | None = None


@dataclass
class BatchGroup:
    """Specs a kernel advances together: original indices, stacked
    inputs, and each spec's lowered row (in the same order)."""

    indices: list[int]
    inputs: Any
    rows: list


@dataclass
class BatchPlan:
    """The outcome of planning: kernel groups plus per-spec fallbacks."""

    groups: list[BatchGroup]
    fallback: list[int]


# ----------------------------------------------------------------------
# Lowering shared by the protocol-cell lanes (fluid and network)
# ----------------------------------------------------------------------
@dataclass
class _CellRow:
    """The protocol side of one spec's batch-eligible lowered form."""

    protocols: list
    steps: int
    initial: list[float]
    random_rate: float
    min_window: float
    max_window: float
    enforce_loss_based: bool


@dataclass
class _FluidRow(_CellRow):
    link: Any


@dataclass
class _NetworkRow(_CellRow):
    links: list  # per-column Link objects, in link_names order
    link_names: list[str]
    paths: tuple[tuple[int, ...], ...]  # flow -> link columns
    base_rtts: list[float]
    timeout_caps: list[float]


def _cell_fields(
    protocols: Sequence,
    loss_process: object,
    initial_windows: Sequence[float] | None,
) -> dict[str, Any] | None:
    """The eligibility checks both protocol-cell kernels share.

    A constant non-congestion loss rate (no loss, or deterministic
    Bernoulli loss), every flow's protocol opting into
    :meth:`~repro.protocols.base.Protocol.batched_next` with its instance
    state fully captured by ``batch_param_names``, and finite
    non-negative initial windows (``1.0`` each when unset). Returns the
    ``random_rate`` and ``initial`` row fields, or ``None`` to fall back.
    """
    if isinstance(loss_process, NoLoss):
        random_rate = 0.0
    elif isinstance(loss_process, BernoulliLoss) and loss_process.deterministic:
        random_rate = loss_process.p
    else:
        return None
    for protocol in protocols:
        cls = type(protocol)
        if not getattr(cls, "supports_batched", False):
            return None
        try:
            if set(vars(protocol)) != set(cls.batch_param_names):
                return None
        except TypeError:
            return None
    initial = (
        list(initial_windows)
        if initial_windows is not None
        else [1.0] * len(protocols)
    )
    if len(initial) != len(protocols):
        return None
    if not all(math.isfinite(w) and w >= 0 for w in initial):
        return None
    return {
        "random_rate": float(random_rate),
        "initial": [float(w) for w in initial],
    }


def _class_cells(
    protocol_rows: list[list],
) -> tuple[tuple[type, ...], np.ndarray, dict[str, np.ndarray]]:
    """The cell-table protocol encoding shared by the batched kernels.

    The class table collects the distinct protocol classes in
    first-appearance order (scanning scenarios in submission order, flows
    left to right — deterministic, so identical grids always produce
    identical tables). The merged parameter table unions every class's
    ``batch_param_names``; a cell's entry for a name its class does not
    define stays NaN and is never gathered by the kernel's dispatch.
    """
    b, n = len(protocol_rows), len(protocol_rows[0])
    class_table: list[type] = []
    table_index: dict[type, int] = {}
    cell_classes = np.empty((b, n), dtype=np.int64)
    for i, protocols in enumerate(protocol_rows):
        for j, protocol in enumerate(protocols):
            cls = type(protocol)
            if cls not in table_index:
                table_index[cls] = len(class_table)
                class_table.append(cls)
            cell_classes[i, j] = table_index[cls]
    names = sorted({name for cls in class_table for name in cls.batch_param_names})
    cell_params = {name: np.full((b, n), np.nan) for name in names}
    for i, protocols in enumerate(protocol_rows):
        for j, protocol in enumerate(protocols):
            for name in type(protocol).batch_param_names:
                cell_params[name][i, j] = getattr(protocol, name)
    return tuple(class_table), cell_classes, cell_params


def _stack_cells(rows: list[_CellRow]) -> dict[str, Any]:
    """The kernel inputs both protocol-cell lanes stack the same way."""
    first = rows[0]
    class_table, cell_classes, cell_params = _class_cells(
        [row.protocols for row in rows]
    )
    return {
        "steps": first.steps,
        "class_table": class_table,
        "cell_classes": cell_classes,
        "cell_params": cell_params,
        "initial": np.array([row.initial for row in rows], dtype=float),
        "random_rate": np.array([row.random_rate for row in rows], dtype=float),
        "min_window": np.array([row.min_window for row in rows], dtype=float),
        "max_window": np.array([row.max_window for row in rows], dtype=float),
        "enforce_loss_based": first.enforce_loss_based,
    }


#: Per-scenario link parameters of the single-link kernels.
_LINK_FIELDS = ("capacity", "bandwidth", "base_rtt", "pipe_limit", "timeout_rtt")


def _link_arrays(links: list) -> dict[str, np.ndarray]:
    """One ``(B,)`` array per :data:`_LINK_FIELDS` entry."""
    return {
        name: np.array([getattr(link, name) for link in links], dtype=float)
        for name in _LINK_FIELDS
    }


# ----------------------------------------------------------------------
# The fluid lane
# ----------------------------------------------------------------------
def _lower_fluid(spec: ScenarioSpec) -> _FluidRow | None:
    """The fluid lane's eligibility: synchronized feedback (no
    unsynchronized loss, no ECN), real-valued windows, no scheduled
    events, plus the shared cell checks."""
    link, protocols, config, steps = spec.lower_fluid()
    if config.unsynchronized_loss or config.integer_windows:
        return None
    if config.schedule.sender_starts or config.schedule.link_changes:
        return None
    if link.marking_enabled:
        return None
    cells = _cell_fields(protocols, config.loss_process, config.initial_windows)
    if cells is None:
        return None
    return _FluidRow(
        protocols=list(protocols),
        steps=steps,
        min_window=config.min_window,
        max_window=config.max_window,
        enforce_loss_based=config.enforce_loss_based,
        link=link,
        **cells,
    )


def _fluid_inputs(rows: list[_FluidRow]) -> BatchInputs:
    return BatchInputs(
        **_stack_cells(rows), **_link_arrays([row.link for row in rows])
    )


def _fluid_kernel(inputs: BatchInputs, out: dict | None = None) -> BatchResult:
    return run_batch_kernel(inputs, out=out)


def _fluid_trace(group: BatchGroup, result: BatchResult, pos: int, spec):
    from repro.perf import store

    return store.extract_batch_trace(
        result,
        pos,
        capacity=float(group.inputs.capacity[pos]),
        pipe_limit=float(group.inputs.pipe_limit[pos]),
        base_rtt=float(group.inputs.base_rtt[pos]),
    )


def _fluid_shapes(inputs: BatchInputs) -> dict[str, tuple[int, ...]]:
    steps, b, n = inputs.steps, inputs.batch_size, inputs.n_senders
    return {
        "windows": (steps, b, n),
        "observed_loss": (steps, b),
        "congestion_loss": (steps, b),
        "rtts": (steps, b),
    }


# ----------------------------------------------------------------------
# The network lane
# ----------------------------------------------------------------------
def _lower_network(spec: ScenarioSpec) -> _NetworkRow | None:
    """A valid topology with one batchable protocol per flow, a sane
    clamp, plus the shared cell checks. A missing loss process lowers
    as the serial engine's ``NoLoss`` substitution. ``base_rtts`` and
    ``timeout_caps`` are precomputed with the serial engine's own Python
    float sums (column order, left to right), so the kernel never
    re-derives them."""
    topology, protocols, kwargs, steps = spec.lower_network()
    topology.validate()
    if len(protocols) != topology.n_flows:
        return None
    min_window = kwargs["min_window"]
    max_window = kwargs["max_window"]
    if min_window < 0 or max_window < min_window:
        return None
    loss_process = kwargs["loss_process"]
    cells = _cell_fields(
        protocols,
        NoLoss() if loss_process is None else loss_process,
        kwargs["initial_windows"],
    )
    if cells is None:
        return None
    link_names = list(topology.links)
    link_index = {name: i for i, name in enumerate(link_names)}
    links = [topology.links[name] for name in link_names]
    paths = tuple(
        tuple(link_index[name] for name in path) for path in topology.paths
    )
    return _NetworkRow(
        protocols=list(protocols),
        steps=steps,
        min_window=min_window,
        max_window=max_window,
        enforce_loss_based=kwargs["enforce_loss_based"],
        links=links,
        link_names=link_names,
        paths=paths,
        base_rtts=[float(topology.base_rtt_of(j)) for j in range(topology.n_flows)],
        timeout_caps=[
            float(2 * sum(links[col].full_buffer_rtt() for col in cols))
            for cols in paths
        ],
        **cells,
    )


def _network_inputs(rows: list[_NetworkRow]):
    from repro.netmodel.batch import NetBatchInputs

    per_link = {
        name: np.array(
            [[getattr(link, name) for link in row.links] for row in rows],
            dtype=float,
        )
        for name in ("capacity", "bandwidth", "buffer_size", "pipe_limit")
    }
    return NetBatchInputs(
        **_stack_cells(rows),
        **per_link,
        base_rtts=np.array([row.base_rtts for row in rows], dtype=float),
        timeout_caps=np.array([row.timeout_caps for row in rows], dtype=float),
        paths=rows[0].paths,
    )


def _network_kernel(inputs, out: dict | None = None):
    from repro.netmodel.batch import run_network_batch_kernel

    return run_network_batch_kernel(inputs, out=out)


def _network_trace(group: BatchGroup, result, pos: int, spec: ScenarioSpec):
    from repro.backends.trace import from_network_trace
    from repro.netmodel.trace import NetworkTrace

    net = NetworkTrace(
        windows=result.windows[:, pos].copy(),
        flow_loss=result.flow_loss[:, pos].copy(),
        flow_rtts=result.flow_rtts[:, pos].copy(),
        link_load=result.link_load[:, pos].copy(),
        link_loss=result.link_loss[:, pos].copy(),
        link_names=list(group.rows[pos].link_names),
        base_rtts=group.inputs.base_rtts[pos].copy(),
    )
    return from_network_trace(net, spec.link, backend="network")


def _network_shapes(inputs) -> dict[str, tuple[int, ...]]:
    steps, b = inputs.steps, inputs.batch_size
    flows = (steps, b, inputs.n_senders)
    links = (steps, b, inputs.n_links)
    return {
        "windows": flows,
        "flow_loss": flows,
        "flow_rtts": flows,
        "link_load": links,
        "link_loss": links,
    }


def _network_result(**fields):
    from repro.netmodel.batch import NetBatchResult

    return NetBatchResult(**fields)


# ----------------------------------------------------------------------
# The mean-field lane
# ----------------------------------------------------------------------
@dataclass
class _MeanFieldRow:
    scenario: Any  # MeanFieldScenario
    grid: Any  # WindowGrid
    state: Any  # _GroupState: plans, trigger, initial mass


def _lower_meanfield(spec: ScenarioSpec) -> _MeanFieldRow | None:
    """The stacked kernel advances one density per scenario, so only
    single-group scenarios qualify (multi-protocol mixes keep their
    per-group serial loop); AQM marking stays serial too — the batch
    step hard-codes the zero mark fraction of a droptail link. Building
    the group state here also front-loads every precondition error
    (trigger separation, non-finite branch images)."""
    from repro.meanfield.dynamics import _GroupState

    scenario = spec.lower_meanfield()
    if len(scenario.groups) != 1 or scenario.link.marking_enabled:
        return None
    grid = scenario.resolved_grid()
    state = _GroupState(
        scenario.groups[0], grid, scenario.min_window, scenario.max_window
    )
    return _MeanFieldRow(scenario=scenario, grid=grid, state=state)


def _meanfield_inputs(rows: list[_MeanFieldRow]):
    from repro.meanfield.batch import MeanFieldBatchInputs, mass_support, stack_plans

    first = rows[0]
    plans_lo, plans_hi = stack_plans(
        [row.state.growth_plan for row in rows],
        [row.state.decrease_plan for row in rows],
    )
    supports = [mass_support(row.state.mass) for row in rows]
    return MeanFieldBatchInputs(
        steps=first.scenario.steps,
        synchronized=first.scenario.synchronized,
        op=first.state.trigger_op,
        thresholds=np.array(
            [row.state.trigger_threshold for row in rows], dtype=float
        ),
        points=np.stack([row.grid.points() for row in rows]),
        plans_lo=plans_lo,
        plans_hi=plans_hi,
        mass=np.stack([row.state.mass for row in rows]),
        supp_start=np.array([s[0] for s in supports], dtype=np.int64),
        supp_len=np.array([s[1] for s in supports], dtype=np.int64),
        populations=np.array([row.state.population for row in rows], dtype=float),
        random_rate=np.array(
            [row.scenario.random_loss_rate for row in rows], dtype=float
        ),
        **_link_arrays([row.scenario.link for row in rows]),
    )


def _meanfield_kernel(inputs):
    from repro.meanfield.batch import run_meanfield_batch_kernel

    return run_meanfield_batch_kernel(inputs)


def _meanfield_trace(group: BatchGroup, result, pos: int, spec):
    from repro.backends.trace import from_meanfield_result
    from repro.meanfield.dynamics import MeanFieldResult

    row = group.rows[pos]
    mf = MeanFieldResult(
        grid=row.grid,
        link=row.scenario.link,
        populations=np.array([row.state.population], dtype=float),
        group_names=[row.state.protocol.name],
        mean_windows=result.mean_windows[:, pos : pos + 1].copy(),
        observed_loss=result.observed_loss[:, pos : pos + 1].copy(),
        congestion_loss=result.congestion_loss[:, pos].copy(),
        rtts=result.rtts[:, pos].copy(),
        masses=[result.masses[pos].copy()],
    )
    return from_meanfield_result(mf, backend="meanfield")


def _net_kernel_cells() -> int:
    from repro.netmodel.batch import net_kernel_cells

    return net_kernel_cells()


#: The array backends' lane records, by backend name.
LANES: dict[str, BatchLane] = {
    lane.backend: lane
    for lane in (
        BatchLane(
            backend="fluid",
            lower=_lower_fluid,
            group_key=lambda row: (len(row.protocols), row.steps, row.enforce_loss_based),
            build_inputs=_fluid_inputs,
            kernel=_fluid_kernel,
            extract=_fluid_trace,
            chunking=Chunking(
                shapes=_fluid_shapes,
                result=BatchResult,
                section="batch.kernel",
                cells=kernel_cells,
            ),
        ),
        BatchLane(
            backend="network",
            lower=_lower_network,
            group_key=lambda row: (
                len(row.protocols),
                len(row.link_names),
                row.paths,
                row.steps,
                row.enforce_loss_based,
            ),
            build_inputs=_network_inputs,
            kernel=_network_kernel,
            extract=_network_trace,
            chunking=Chunking(
                shapes=_network_shapes,
                result=_network_result,
                section="batch.net_kernel",
                cells=_net_kernel_cells,
            ),
        ),
        BatchLane(
            backend="meanfield",
            lower=_lower_meanfield,
            group_key=lambda row: (
                row.grid.cells,
                row.scenario.steps,
                row.scenario.synchronized,
                row.state.trigger_op,
            ),
            build_inputs=_meanfield_inputs,
            kernel=_meanfield_kernel,
            extract=_meanfield_trace,
        ),
    )
}


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
def _plan(
    lane: BatchLane, specs: Sequence[ScenarioSpec], indices: Sequence[int] | None
) -> BatchPlan:
    """Group ``specs`` (or the subset ``indices``) for ``lane``'s kernel.

    Grouping preserves submission order within each group, and a
    singleton group is simply a batch of one. A spec that fails to lower
    at all falls back too: the serial path then reproduces the exact
    serial behaviour (or the exact serial error).
    """
    if indices is None:
        indices = range(len(specs))
    grouped: dict[tuple, tuple[list[int], list]] = {}
    fallback: list[int] = []
    with timing.measure("batch.plan"):
        for index in indices:
            try:
                row = lane.lower(specs[index])
            except Exception:
                row = None
            if row is None:
                fallback.append(index)
                continue
            members, rows = grouped.setdefault(lane.group_key(row), ([], []))
            members.append(index)
            rows.append(row)
        groups = [
            BatchGroup(indices=members, inputs=lane.build_inputs(rows), rows=rows)
            for members, rows in grouped.values()
        ]
    return BatchPlan(groups=groups, fallback=fallback)


def plan_batches(
    specs: Sequence[ScenarioSpec],
    indices: Sequence[int] | None = None,
) -> BatchPlan:
    """Group ``specs`` (or the subset named by ``indices``) for the fluid
    kernel.

    Specs batch together when they share the flow count, the horizon,
    and loss-based enforcement; everything per-scenario beyond that —
    link parameters, protocol *classes* (via the kernel's per-cell
    dispatch table), protocol parameters, initial windows, clamps,
    random loss rate — varies along the batch axis.
    """
    return _plan(LANES["fluid"], specs, indices)


def plan_network_batches(
    specs: Sequence[ScenarioSpec],
    indices: Sequence[int] | None = None,
) -> BatchPlan:
    """Group ``specs`` (or the subset ``indices``) for the network kernel.

    Specs batch together when they share the topology *structure* — flow
    count, link count, the flow-to-column path map — plus the horizon
    and loss-based enforcement. Link names and parameters, protocol
    classes and constants, initial windows, clamps and random loss rates
    all vary along the batch axis; each group keeps every row's link
    names so the extracted trace matches the serial one field for field.
    """
    return _plan(LANES["network"], specs, indices)


def plan_meanfield_batches(
    specs: Sequence[ScenarioSpec],
    indices: Sequence[int] | None = None,
) -> BatchPlan:
    """Group ``specs`` (or the subset ``indices``) for the stacked kernel.

    Specs batch together when they share the cell count, the horizon,
    the feedback mode and the trigger comparator; each row keeps its own
    grid (resolution and span), branch plans, link parameters, trigger
    threshold, population and random loss rate.
    """
    return _plan(LANES["meanfield"], specs, indices)


# ----------------------------------------------------------------------
# Execution: in-process kernel or shared-memory chunk scheduler
# ----------------------------------------------------------------------
def autotune_chunk_rows(lane: BatchLane, steps: int) -> int:
    """Rows per chunk targeting ~``_TARGET_CHUNK_SECONDS`` of kernel time.

    Uses the measured throughput of ``lane``'s previous kernel calls (its
    ``timing.REGISTRY`` section over its advanced scenario-steps);
    before any measurement exists, a fixed default applies.
    """
    assert lane.chunking is not None
    cells = lane.chunking.cells()
    spent = timing.REGISTRY.total(lane.chunking.section)
    if cells <= 0 or spent <= 0.0:
        return _DEFAULT_CHUNK_ROWS
    seconds_per_cell = spent / cells
    rows = int(_TARGET_CHUNK_SECONDS / max(seconds_per_cell * steps, 1e-12))
    return max(1, min(rows, 4096))


def _kernel_chunk(
    backend: str,
    shm_names: dict[str, str],
    shapes: dict[str, tuple[int, ...]],
    chunk,
    lo: int,
    hi: int,
) -> dict[int, int]:
    """Worker: advance rows ``lo:hi`` of a lane's batch into the shared
    buffers.

    Only the (typically empty) failure map is returned through the pool;
    all array output lands in shared memory, which is the point.

    Write-safety contract (statically enforced by lint rules REP701/702):
    nothing synchronizes sibling workers, so every access to an array
    built over a shared segment must go through a ``[lo:hi]`` slice on
    the row axis whose bounds are the pristine ``lo``/``hi`` parameters
    the planner assigned — never the whole array, never arithmetic on
    the bounds, and never rows another worker owns.
    """
    from multiprocessing import shared_memory

    segments = []
    try:
        out: dict[str, np.ndarray] = {}
        for name, shm_name in shm_names.items():
            shm = shared_memory.SharedMemory(name=shm_name)
            segments.append(shm)
            full = np.ndarray(shapes[name], dtype=np.float64, buffer=shm.buf)
            out[name] = full[:, lo:hi]
        result = LANES[backend].kernel(chunk, out=out)
        failed = {lo + row: step for row, step in result.failed.items()}
        # Drop every view into the buffers before closing the segments.
        del result, out, full
        return failed
    finally:
        for shm in segments:
            try:
                shm.close()
            except BufferError:
                pass  # released at worker exit


def _run_group_shm(lane: BatchLane, inputs, workers: int, chunk_rows: int):
    """Chunk the batch across a process pool via shared-memory buffers.

    Returns ``None`` when shared memory or a pool is unavailable on this
    platform, in which case the caller runs the kernel in-process. The
    result is bit-identical either way: chunks are disjoint row ranges of
    the same elementwise recurrence. The parent may touch the buffers
    freely — the REP7xx chunk discipline binds only workers (functions
    that *attach* segments); this function *creates* them and only reads
    the arrays back after every future has resolved.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import shared_memory

    assert lane.chunking is not None
    b = inputs.batch_size
    shapes = lane.chunking.shapes(inputs)
    segments: dict[str, object] = {}
    try:
        try:
            for name, shape in shapes.items():
                nbytes = int(np.prod(shape)) * 8
                segments[name] = shared_memory.SharedMemory(
                    create=True, size=max(nbytes, 1)
                )
        except OSError:
            return None
        chunks = [(lo, min(lo + chunk_rows, b)) for lo in range(0, b, chunk_rows)]
        shm_names = {name: seg.name for name, seg in segments.items()}
        failed: dict[int, int] = {}
        try:
            pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
        except (OSError, ValueError, RuntimeError):
            return None
        with timing.measure("batch.scheduler"), pool:
            futures = [
                pool.submit(
                    _kernel_chunk,
                    lane.backend,
                    shm_names,
                    shapes,
                    slice_rows(inputs, lo, hi),
                    lo,
                    hi,
                )
                for lo, hi in chunks
            ]
            for future in futures:
                failed.update(future.result())
        arrays = {}
        for name, seg in segments.items():
            view = np.ndarray(shapes[name], dtype=np.float64, buffer=seg.buf)
            arrays[name] = view.copy()
            del view
        return lane.chunking.result(failed=failed, **arrays)
    finally:
        for seg in segments.values():
            try:
                seg.close()
                seg.unlink()
            except (BufferError, FileNotFoundError, OSError):
                pass


def _run_group(
    lane: BatchLane, inputs, workers: int | None, chunk_rows: int | None
):
    """Run one group: chunked over shared memory when it pays, else inline."""
    if (
        lane.chunking is not None
        and workers is not None
        and workers > 1
        and inputs.batch_size > 1
    ):
        rows = chunk_rows if chunk_rows is not None else autotune_chunk_rows(
            lane, inputs.steps
        )
        if inputs.batch_size > rows:
            result = _run_group_shm(lane, inputs, workers, rows)
            if result is not None:
                return result
    return lane.kernel(inputs)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _probe(backend: str, specs: list, use_cache: bool):
    """Serve cached specs from the unified store.

    Returns ``(results, cache, keys, pending)``: ``results`` holds the
    hits, ``pending`` the indices still to compute, ``keys`` their store
    keys (``None`` where uncacheable or with ``use_cache=False``).
    """
    from repro.perf import store
    from repro.perf.cache import active_cache

    results: list = [None] * len(specs)
    cache = active_cache() if use_cache else None
    keys: list[str | None] = [None] * len(specs)
    pending: list[int] = []
    for i, spec in enumerate(specs):
        if cache is not None:
            keys[i] = store.unified_key(backend, spec)
            if keys[i] is not None:
                hit = store.load_unified_trace(cache, keys[i])
                if hit is not None:
                    results[i] = hit
                    continue
        pending.append(i)
    return results, cache, keys, pending


def _run_lane(
    lane: BatchLane,
    plan: Callable[..., BatchPlan],
    specs: Sequence[ScenarioSpec],
    use_cache: bool,
    skip_errors: bool,
    workers: int | None = None,
    chunk_rows: int | None = None,
) -> list:
    """Run every spec on ``lane``'s backend, batching compatible ones.

    ``plan`` is the lane's public planner, passed in by the caller so
    the call resolves on this module at call time.
    """
    from repro.perf import store

    specs = list(specs)
    results, cache, keys, pending = _probe(lane.backend, specs, use_cache)
    batch_plan = plan(specs, pending)
    serial = list(batch_plan.fallback)
    for group in batch_plan.groups:
        result = _run_group(lane, group.inputs, workers, chunk_rows)
        for pos, index in enumerate(group.indices):
            if pos in result.failed:
                # Recompute serially to raise the exact serial error.
                serial.append(index)
                continue
            trace = lane.extract(group, result, pos, specs[index])
            results[index] = trace
            if cache is not None and keys[index] is not None:
                store.store_unified_trace(cache, keys[index], trace)

    for index in sorted(serial):
        try:
            results[index] = run_spec(specs[index], lane.backend, use_cache=use_cache)
        except Exception:
            if not skip_errors:
                raise
            results[index] = None
    return results


def run_specs_batched(
    specs: Sequence[ScenarioSpec],
    use_cache: bool = True,
    skip_errors: bool = False,
    workers: int | None = None,
    chunk_rows: int | None = None,
) -> list:
    """Run every spec on the fluid backend, batching compatible ones.

    Results are :class:`~repro.backends.trace.UnifiedTrace` objects in
    spec order, bit-identical to ``run_spec(spec, "fluid")`` for every
    spec regardless of which path — cache hit, batch kernel, chunked
    kernel, or serial fallback — produced it. With ``skip_errors`` a
    failing spec yields ``None`` instead of raising; other specs are
    unaffected either way.
    """
    return _run_lane(
        LANES["fluid"], plan_batches, specs, use_cache, skip_errors,
        workers, chunk_rows,
    )


def run_network_specs_batched(
    specs: Sequence[ScenarioSpec],
    use_cache: bool = True,
    skip_errors: bool = False,
    workers: int | None = None,
    chunk_rows: int | None = None,
) -> list:
    """Run every spec on the network backend, batching compatible ones.

    The multi-link analogue of :func:`run_specs_batched`: bit-identical
    to ``run_spec(spec, "network")`` on every path, warming the same
    unified-store entries serial runs read.
    """
    return _run_lane(
        LANES["network"], plan_network_batches, specs, use_cache, skip_errors,
        workers, chunk_rows,
    )


def run_meanfield_specs_batched(
    specs: Sequence[ScenarioSpec],
    use_cache: bool = True,
    skip_errors: bool = False,
) -> list:
    """Run every spec on the mean-field backend, batching compatible ones.

    The density analogue of :func:`run_specs_batched`: bit-identical to
    ``run_spec(spec, "meanfield")`` on every path, warming the same
    unified-store entries serial runs read. The stacked kernel runs
    in-process.
    """
    return _run_lane(
        LANES["meanfield"], plan_meanfield_batches, specs, use_cache, skip_errors
    )


def run_packet_specs_batched(
    specs: Sequence[ScenarioSpec],
    use_cache: bool = True,
    skip_errors: bool = False,
) -> list:
    """Run every spec on the packet backend, merging compatible ones.

    The packet analogue of :func:`run_specs_batched`: specs are lowered
    to :class:`~repro.packetsim.scenario.PacketScenario` objects and
    routed through :func:`repro.packetsim.batch.run_scenarios_batched`,
    which merges replications sharing a link and duration into one event
    loop. Results are :class:`~repro.backends.trace.UnifiedTrace`
    objects in spec order, bit-identical to ``run_spec(spec, "packet")``
    — and they read and write the same unified-store and native packet
    cache entries. A spec the packet backend cannot express raises its
    exact serial lowering error (or yields ``None`` with
    ``skip_errors=True``) without disturbing the rest of the batch.
    """
    from repro.backends.trace import from_packet_result
    from repro.packetsim.batch import run_scenarios_batched
    from repro.perf import store

    specs = list(specs)
    results, cache, keys, probed = _probe("packet", specs, use_cache)
    pending: list[int] = []
    scenarios: list = []
    for i in probed:
        try:
            scenarios.append(specs[i].lower_packet())
        except Exception:
            if not skip_errors:
                raise
            continue
        pending.append(i)

    for i, packet_result in zip(
        pending, run_scenarios_batched(scenarios, use_cache=use_cache)
    ):
        trace = from_packet_result(packet_result, backend="packet")
        results[i] = trace
        if cache is not None and keys[i] is not None:
            store.store_unified_trace(cache, keys[i], trace)
    return results
