"""Per-sender state threaded through the fluid simulation.

The paper defines a protocol as a deterministic map from a sender's own
history — of congestion windows, RTTs and loss rates — to its next window.
:class:`Observation` is the per-step slice of that history handed to the
protocol. :class:`SenderState` is a per-sender record that accumulates
the full history; the fluid simulator itself keeps only each sender's
current window and min-RTT, and builds the :class:`Observation` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Observation:
    """What a sender learns at the end of one RTT-sized time step.

    Attributes
    ----------
    step:
        The time-step index ``t``.
    window:
        The sender's own congestion window ``x_i(t)`` during the step, MSS.
    loss_rate:
        The loss rate ``L(t)`` the sender experienced (congestion loss
        combined with any non-congestion loss process), in ``[0, 1]``.
    rtt:
        The step's RTT in seconds, per the paper's Eq. (1). Loss-based
        protocols must ignore this field; the simulator can enforce that
        (see ``SimulationConfig.enforce_loss_based``).
    min_rtt:
        The smallest RTT this sender has seen so far — the conventional
        stand-in for the (unknown) propagation delay used by
        latency-sensitive protocols such as the Vegas-like comparator.
    ecn_fraction:
        Fraction of this step's packets carrying an ECN congestion mark
        (0 unless the link has marking enabled — an extension to the
        paper's model used by the DCTCP-style protocol).
    """

    step: int
    window: float
    loss_rate: float
    rtt: float
    min_rtt: float
    ecn_fraction: float = 0.0


@dataclass
class SenderState:
    """Mutable per-sender record of a sender's full history.

    The ``windows``, ``loss_rates`` and ``rtts`` lists grow by one entry per
    simulated step and constitute exactly the history the paper says a
    protocol may condition on.
    """

    index: int
    window: float
    start_step: int = 0
    windows: list[float] = field(default_factory=list)
    loss_rates: list[float] = field(default_factory=list)
    rtts: list[float] = field(default_factory=list)
    min_rtt: float = float("inf")

    def active(self, step: int) -> bool:
        """Whether this sender has started transmitting by ``step``."""
        return step >= self.start_step

    def record(self, window: float, loss_rate: float, rtt: float) -> None:
        """Append one step of history and refresh the min-RTT estimate."""
        self.windows.append(window)
        self.loss_rates.append(loss_rate)
        self.rtts.append(rtt)
        if rtt < self.min_rtt:
            self.min_rtt = rtt

    def observation(self, step: int) -> Observation:
        """The :class:`Observation` describing the step just recorded."""
        if not self.windows:
            raise ValueError("no history recorded yet")
        return Observation(
            step=step,
            window=self.windows[-1],
            loss_rate=self.loss_rates[-1],
            rtt=self.rtts[-1],
            min_rtt=self.min_rtt,
        )
