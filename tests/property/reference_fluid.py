"""Frozen per-sender fluid loop, kept as a bit-identity oracle.

This module is a verbatim copy (modulo naming) of
``FluidSimulator._run_general`` and ``FluidSimulator._clamp`` as they
stood before the step loop was tightened: a :class:`SenderState` per
sender, ``state.observation(t)`` followed by ``dataclasses.replace`` for
ECN feedback and the loss-based placeholder RTT, and the link's derived
parameters re-read on every step. ``test_prop_reference_fluid.py`` runs
the same scenario through this reference and through
:meth:`repro.model.dynamics.FluidSimulator.run` and requires all seven
trace arrays to match as raw uint64 bit patterns.

Do not "improve" this file: its value is that it does NOT change when the
production loop is optimised.
"""

from __future__ import annotations

import copy
import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.model.dynamics import SimulationConfig
from repro.model.link import Link
from repro.model.random_loss import combine_loss
from repro.model.sender import SenderState
from repro.model.trace import SimulationTrace
from repro.protocols.base import Protocol

_PLACEHOLDER_RTT = 1.0


class ReferenceFluidSimulator:
    """The pre-refactor general loop behind the production constructor's
    validation (callers build a ``FluidSimulator`` first to validate)."""

    def __init__(
        self,
        link: Link,
        protocols: Sequence[Protocol],
        config: SimulationConfig,
        initial: Sequence[float],
    ) -> None:
        self.link = link
        self.protocols = [copy.deepcopy(p) for p in protocols]
        self.config = config
        self._initial = [float(w) for w in initial]

    def run(self, steps: int) -> SimulationTrace:
        self.config.loss_process.reset()
        for protocol in self.protocols:
            protocol.reset()
        return self._run_general(steps)

    def _run_general(self, steps: int) -> SimulationTrace:
        """The per-sender reference loop (handles every configuration)."""
        cfg = self.config
        n = len(self.protocols)
        rng = np.random.default_rng(cfg.seed) if cfg.unsynchronized_loss else None

        senders = []
        for i in range(n):
            start = cfg.schedule.start_for(i)
            if start is None:
                senders.append(SenderState(index=i, window=self._clamp(self._initial[i])))
            else:
                senders.append(
                    SenderState(
                        index=i,
                        window=self._clamp(start.window),
                        start_step=start.step,
                    )
                )

        windows = np.full((steps, n), np.nan)
        observed_loss = np.full((steps, n), np.nan)
        congestion_loss = np.zeros(steps)
        rtts = np.zeros(steps)
        capacities = np.zeros(steps)
        pipe_limits = np.zeros(steps)
        base_rtts = np.zeros(steps)

        # Loop invariants hoisted for the (overwhelmingly common) case of
        # an empty schedule: the link never changes and every sender is
        # active from step 0, so neither needs recomputing per step.
        schedule = cfg.schedule
        has_link_changes = bool(schedule.link_changes)
        static_membership = not schedule.sender_starts
        link = self.link
        active = senders

        for t in range(steps):
            if has_link_changes:
                link = schedule.link_at(t, self.link)
            if not static_membership:
                active = [s for s in senders if s.active(t)]
            total = sum(s.window for s in active)
            loss = link.loss_rate(total)
            rtt = link.rtt(total)
            ecn = link.mark_fraction(total)

            congestion_loss[t] = loss
            rtts[t] = rtt
            capacities[t] = link.capacity
            pipe_limits[t] = link.pipe_limit
            base_rtts[t] = link.base_rtt

            for state in active:
                i = state.index
                congestion_seen = loss
                if rng is not None and loss > 0.0:
                    notice_probability = 1.0 - (1.0 - loss) ** state.window
                    if rng.random() >= notice_probability:
                        congestion_seen = 0.0
                random_loss = cfg.loss_process.rate(t, i)
                seen = combine_loss(congestion_seen, random_loss)
                windows[t, i] = state.window
                observed_loss[t, i] = seen
                state.record(state.window, seen, rtt)

                protocol = self.protocols[i]
                obs = state.observation(t)
                if ecn > 0.0:
                    obs = replace(obs, ecn_fraction=ecn)
                if cfg.enforce_loss_based and protocol.loss_based:
                    obs = replace(
                        obs, rtt=_PLACEHOLDER_RTT, min_rtt=_PLACEHOLDER_RTT
                    )
                state.window = self._clamp(protocol.next_window(obs))

        return SimulationTrace(
            windows=windows,
            observed_loss=observed_loss,
            congestion_loss=congestion_loss,
            rtts=rtts,
            capacities=capacities,
            pipe_limits=pipe_limits,
            base_rtts=base_rtts,
        )

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
