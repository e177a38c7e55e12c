"""Multiplicative-Increase / Multiplicative-Decrease — ``MIMD(a, b)``.

Multiply the window by ``a > 1`` while no loss is observed; multiply by
``b < 1`` on loss. ``MIMD(1.01, 0.875)`` is one rendering of TCP Scalable.

Table 1 characterizes ``MIMD(a, b)`` as infinity-fast-utilizing (its rate
grows superlinearly), ``min(1, b(1 + tau/C))``-efficient, 0-fair in the
worst case (MIMD does not equalize shares: ratios of windows are preserved
by both the increase and the decrease, so initial inequality persists),
and essentially TCP-unfriendly (worst case 0, with the nuanced value
``2 log_a(1/b) / (C + tau - 2 log_a(1/b))``).
"""

from __future__ import annotations

import numpy as np

from repro.model.sender import Observation
from repro.protocols.base import Protocol, format_params, validate_in_range


class MIMD(Protocol):
    """``MIMD(a, b)``: window *= a without loss; window *= b on loss."""

    loss_based = True
    supports_batched = True
    batch_param_names = ("a", "b")
    meanfield_trigger = ("gt", 0.0)

    def __init__(self, a: float = 1.01, b: float = 0.875) -> None:
        if a <= 1.0:
            raise ValueError(f"multiplicative increase a must exceed 1, got {a}")
        self.a = a
        self.b = validate_in_range("decrease factor b", b, 0.0, 1.0, low_open=True, high_open=True)

    def next_window(self, obs: Observation) -> float:
        if obs.loss_rate > 0.0:
            return obs.window * self.b
        return obs.window * self.a

    @staticmethod
    def batched_next(
        windows: np.ndarray,
        loss_rate: np.ndarray,
        rtt: np.ndarray,
        params: dict[str, np.ndarray],
    ) -> np.ndarray:
        return np.where(
            loss_rate > 0.0, windows * params["b"], windows * params["a"]
        )

    @property
    def name(self) -> str:
        return f"MIMD({format_params(self.a, self.b)})"


class MimdPccBound(MIMD):
    """``MIMD(1.01, 0.99)`` — the paper's lower bound on PCC's aggressiveness.

    Section 5.2 states that PCC's behaviour is "strictly more aggressive
    than MIMD(1.01, 0.99)"; Table 2 can therefore be reproduced against
    this stand-in. Because real PCC is *more* aggressive (less friendly to
    TCP), improvement ratios of Robust-AIMD measured against this stand-in
    are conservative.
    """

    def __init__(self) -> None:
        super().__init__(a=1.01, b=0.99)

    @property
    def name(self) -> str:
        return "PCC-bound[MIMD(1.01,0.99)]"


def scalable_mimd() -> MIMD:
    """TCP Scalable as ``MIMD(1.01, 0.875)`` (one of its kernel renderings)."""
    return MIMD(1.01, 0.875)
