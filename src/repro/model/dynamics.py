"""The fluid-model simulation engine.

Implements the dynamics of Section 2: at each RTT-sized step ``t``, every
active sender transmits its window ``x_i(t)``; the link computes the loss
rate ``L(t)`` (droptail) and the step RTT (Eq. (1)) from the aggregate
``X(t)``; each sender then consults its protocol with its own observation
to pick ``x_i(t+1)``. The induced dynamic is deterministic given the
protocols, initial windows and (seeded) loss process, exactly as the paper
requires.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import debug
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.random_loss import LossProcess, NoLoss, combine_loss
from repro.model.sender import Observation
from repro.model.trace import SimulationTrace
from repro.perf import timing
from repro.protocols.base import Protocol

DEFAULT_MAX_WINDOW = 1e9
"""Default ``M``: effectively unbounded, consistent with the paper's 1 << M."""


@dataclass
class SimulationConfig:
    """Knobs controlling a fluid simulation.

    Attributes
    ----------
    initial_windows:
        ``x_i(0)`` per sender; defaults to 1 MSS each. The paper reasons
        about late-joining flows via unequal initial windows — set them
        here, or use an :class:`EventSchedule` for genuinely delayed starts.
    min_window / max_window:
        Window clamp. The paper's windows live in ``{0, ..., M}``; a floor
        of 1 MSS (the default) keeps multiplicative-decrease protocols
        live, mirroring real stacks that never shrink below one segment.
    integer_windows:
        Round windows to whole MSS after each protocol decision, matching
        the paper's integral window space. Off by default: the fluid
        analyses in the paper treat windows as reals.
    loss_process:
        Non-congestion loss (Metric VI and robustness experiments).
    schedule:
        Staggered sender starts and mid-run link changes.
    enforce_loss_based:
        When true (default), protocols whose ``loss_based`` flag is set see
        a constant placeholder RTT, making it impossible for them to react
        to latency even by accident — the paper's definition of loss-based
        ("choice of window-sizes is invariant to the RTT values").
    unsynchronized_loss:
        The paper's model gives every sender the same ``L(t)`` each step
        ("senders experience synchronized feedback"); it names relaxing
        this as future work. With this flag, a lossy step notifies each
        sender only with probability ``1 - (1 - L)**x_i`` — the chance at
        least one of its packets was among the drops — so small flows
        often sail through a loss event unscathed, as they do in real
        droptail queues. Seeded and deterministic via ``seed``.
    """

    initial_windows: Sequence[float] | None = None
    min_window: float = 1.0
    max_window: float = DEFAULT_MAX_WINDOW
    integer_windows: bool = False
    loss_process: LossProcess = field(default_factory=NoLoss)
    schedule: EventSchedule = field(default_factory=EventSchedule)
    enforce_loss_based: bool = True
    unsynchronized_loss: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        check_window_clamp(self.min_window, self.max_window)


def check_window_clamp(min_window: float, max_window: float) -> None:
    """Raise ``ValueError`` unless ``0 <= min_window <= max_window``.

    Written so that NaN fails: a NaN bound would silently disable the
    clamp, since every comparison against it is false.
    """
    if not 0 <= min_window <= max_window:
        raise ValueError(
            "window clamp must satisfy 0 <= min_window <= max_window, "
            f"got min_window={min_window}, max_window={max_window}"
        )


_PLACEHOLDER_RTT = 1.0
"""RTT shown to loss-based protocols when enforcement is on (arbitrary constant)."""


def _validate_trace(trace: SimulationTrace) -> None:
    """Sanitizer pass over a finished trace (``REPRO_DEBUG_CHECKS=1``).

    Windows may legitimately be NaN (senders that have not started yet),
    but never Inf; loss rates live in [0, 1]; RTTs and link parameters
    are positive and finite. Runs only as an observer — it never mutates
    the trace — so checked and unchecked runs stay bit-identical.
    """
    if np.isinf(trace.windows).any():
        debug.fail("trace-finite", "windows contain Inf")
    loss = trace.congestion_loss
    if not np.isfinite(loss).all() or (loss < 0).any() or (loss > 1).any():
        debug.fail("trace-loss-range", "congestion loss outside [0, 1] or non-finite")
    observed = trace.observed_loss
    with np.errstate(invalid="ignore"):
        if np.isinf(observed).any() or (observed < 0).any() or (observed > 1).any():
            debug.fail("trace-loss-range", "observed loss outside [0, 1] or Inf")
    for name in ("rtts", "capacities", "pipe_limits", "base_rtts"):
        values = getattr(trace, name)
        if not np.isfinite(values).all() or (values <= 0).any():
            debug.fail("trace-finite", f"{name} must be positive and finite")


class FluidSimulator:
    """Runs the discrete-time dynamics of protocols sharing one link.

    Protocol instances are deep-copied at construction, so the same object
    may safely be passed for several senders::

        sim = FluidSimulator(link, [AIMD(1, 0.5)] * 4)
    """

    def __init__(
        self,
        link: Link,
        protocols: Sequence[Protocol],
        config: SimulationConfig | None = None,
    ) -> None:
        if not protocols:
            raise ValueError("at least one sender is required")
        self.link = link
        self.protocols: list[Protocol] = [copy.deepcopy(p) for p in protocols]
        self.config = config or SimulationConfig()
        n = len(self.protocols)
        initial = self.config.initial_windows
        if initial is None:
            initial = [1.0] * n
        if len(initial) != n:
            raise ValueError(
                f"got {len(initial)} initial windows for {n} senders"
            )
        for w in initial:
            if w < 0 or not math.isfinite(w):
                raise ValueError(f"initial windows must be finite and non-negative, got {w}")
        self._initial = [float(w) for w in initial]
        for event in self.config.schedule.sender_starts:
            if event.sender >= n:
                raise ValueError(
                    f"schedule references sender {event.sender} but only {n} exist"
                )

    # ------------------------------------------------------------------
    def run(self, steps: int) -> SimulationTrace:
        """Simulate ``steps`` RTT-sized time steps and return the trace.

        When a simulation cache is active (:mod:`repro.perf.cache`) and
        the run is cacheable, a previously archived trace is returned
        instead of re-simulating; the dynamics are deterministic, so the
        arrays are bit-identical either way.
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        from repro.perf import cache as sim_cache

        cache = sim_cache.active_cache()
        key = None
        if cache is not None:
            key = sim_cache.simulation_key(
                self.link, self.protocols, self.config, self._initial, steps
            )
            if key is not None:
                cached = cache.get(key)
                if cached is not None:
                    if debug.enabled():
                        _validate_trace(cached)
                    return cached

        cfg = self.config
        cfg.loss_process.reset()
        for protocol in self.protocols:
            protocol.reset()
        with timing.measure("sim.run.general"):
            trace = self._run_general(steps)
        if debug.enabled():
            _validate_trace(trace)
        if cache is not None and key is not None:
            cache.put(key, trace)
        return trace

    # ------------------------------------------------------------------
    def _run_general(self, steps: int) -> SimulationTrace:
        """The per-sender step loop (handles every configuration).

        Everything that cannot change within a step is read outside it:
        each sender's protocol and placeholder flag once per run, and the
        link's derived parameters once per link in force. Each sender's
        :class:`Observation` is built once per step.
        """
        cfg = self.config
        n = len(self.protocols)
        rng = np.random.default_rng(cfg.seed) if cfg.unsynchronized_loss else None
        clamp = self._clamp
        random_rate = cfg.loss_process.rate
        protocols = self.protocols
        placeholder = [cfg.enforce_loss_based and p.loss_based for p in protocols]

        schedule = cfg.schedule
        current = []
        start_steps = []
        for i in range(n):
            start = schedule.start_for(i)
            if start is None:
                current.append(clamp(self._initial[i]))
                start_steps.append(0)
            else:
                current.append(clamp(start.window))
                start_steps.append(start.step)
        min_rtts = [math.inf] * n

        windows = np.full((steps, n), np.nan)
        observed_loss = np.full((steps, n), np.nan)
        congestion_loss = np.zeros(steps)
        rtts = np.zeros(steps)
        capacities = np.zeros(steps)
        pipe_limits = np.zeros(steps)
        base_rtts = np.zeros(steps)

        has_link_changes = bool(schedule.link_changes)
        static_membership = not schedule.sender_starts
        link = self.link
        in_force = None
        active = range(n)

        for t in range(steps):
            if has_link_changes:
                link = schedule.link_at(t, self.link)
            if link is not in_force:
                in_force = link
                capacity = link.capacity
                pipe_limit = link.pipe_limit
                base_rtt = link.base_rtt
                marking = link.marking_enabled
            if not static_membership:
                active = [i for i in range(n) if t >= start_steps[i]]
            total = sum([current[i] for i in active])
            loss = link.loss_rate(total)
            rtt = link.rtt(total)
            # A mark fraction that is not positive (0, -0.0 or NaN) is
            # shown to protocols as the Observation default 0.0.
            ecn = link.mark_fraction(total) if marking else 0.0
            if not ecn > 0.0:
                ecn = 0.0

            congestion_loss[t] = loss
            rtts[t] = rtt
            capacities[t] = capacity
            pipe_limits[t] = pipe_limit
            base_rtts[t] = base_rtt

            for i in active:
                window = current[i]
                congestion_seen = loss
                if rng is not None and loss > 0.0:
                    notice_probability = 1.0 - (1.0 - loss) ** window
                    if rng.random() >= notice_probability:
                        congestion_seen = 0.0
                seen = combine_loss(congestion_seen, random_rate(t, i))
                windows[t, i] = window
                observed_loss[t, i] = seen
                if rtt < min_rtts[i]:
                    min_rtts[i] = rtt
                if placeholder[i]:
                    obs = Observation(
                        t, window, seen, _PLACEHOLDER_RTT, _PLACEHOLDER_RTT, ecn
                    )
                else:
                    obs = Observation(t, window, seen, rtt, min_rtts[i], ecn)
                current[i] = clamp(protocols[i].next_window(obs))

        return SimulationTrace(
            windows=windows,
            observed_loss=observed_loss,
            congestion_loss=congestion_loss,
            rtts=rtts,
            capacities=capacities,
            pipe_limits=pipe_limits,
            base_rtts=base_rtts,
        )

    # ------------------------------------------------------------------
    def _clamp(self, window: float) -> float:
        """Apply the window clamp (and optional integrality) of the config."""
        if not math.isfinite(window):
            raise ValueError(f"protocol produced a non-finite window: {window}")
        cfg = self.config
        value = min(max(window, cfg.min_window), cfg.max_window)
        if cfg.integer_windows:
            value = float(round(value))
            value = min(max(value, math.ceil(cfg.min_window)), math.floor(cfg.max_window))
        return value


def run_homogeneous(
    link: Link,
    protocol: Protocol,
    n_senders: int,
    steps: int,
    config: SimulationConfig | None = None,
) -> SimulationTrace:
    """Convenience wrapper: ``n_senders`` copies of one protocol on a link.

    This is the setting of Metrics I, III, IV, V and VIII ("when all
    senders employ P").
    """
    if n_senders <= 0:
        raise ValueError(f"n_senders must be positive, got {n_senders}")
    sim = FluidSimulator(link, [protocol] * n_senders, config)
    return sim.run(steps)
