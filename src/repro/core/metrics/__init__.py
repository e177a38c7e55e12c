"""Empirical estimators for the paper's eight axioms (Section 3).

Each submodule implements one metric:

========  ======================  ==============================================
Metric    Module                  Estimated quantity
========  ======================  ==============================================
I         ``efficiency``          min tail ``X(t)/C`` (larger better)
II        ``fast_utilization``    worst witnessed growth alpha (larger better)
III       ``loss_avoidance``      max tail loss rate (smaller better)
IV        ``fairness``            min/max tail-average windows (larger better)
V         ``convergence``         band alpha ``2 x_min/(x_min+x_max)`` (larger)
VI        ``robustness``          max tolerated random-loss rate (larger)
VII       ``friendliness``        min Reno-share / P-share (larger better)
VIII      ``latency``             max tail RTT inflation (smaller better)
========  ======================  ==============================================

:func:`estimate_all_metrics` bundles all eight into a
:class:`~repro.core.metrics.vector.MetricVector`, running each distinct
scenario once.
"""

from __future__ import annotations

from repro.core.metrics.base import EstimatorConfig, MetricResult, homogeneous_spec
from repro.core.metrics.convergence import convergence_from_trace, estimate_convergence
from repro.core.metrics.extensions import (
    estimate_churn_resilience,
    estimate_responsiveness,
)
from repro.core.metrics.efficiency import efficiency_from_trace, estimate_efficiency
from repro.core.metrics.fairness import estimate_fairness, fairness_from_trace
from repro.core.metrics.fast_utilization import (
    estimate_fast_utilization,
    estimate_unconstrained_growth,
    fast_utilization_from_trace,
    fast_utilization_spec,
)
from repro.core.metrics.friendliness import (
    estimate_friendliness,
    estimate_tcp_friendliness,
    friendliness_from_mix_traces,
    friendliness_from_trace,
    friendliness_mix_specs,
)
from repro.core.metrics.latency import (
    estimate_latency_avoidance,
    latency_from_trace,
    latency_spec,
)
from repro.core.metrics.loss_avoidance import (
    estimate_loss_avoidance,
    loss_avoidance_from_trace,
)
from repro.core.metrics.robustness import (
    divergence_from_trace,
    diverges_under_loss,
    estimate_robustness,
    robustness_profile,
)
from repro.core.metrics.vector import LOWER_IS_BETTER, METRIC_ORDER, MetricVector
from repro.model.link import Link
from repro.protocols.aimd import AIMD
from repro.protocols.base import Protocol

__all__ = [
    "EstimatorConfig",
    "LOWER_IS_BETTER",
    "METRIC_ORDER",
    "MetricResult",
    "MetricVector",
    "convergence_from_trace",
    "divergence_from_trace",
    "diverges_under_loss",
    "efficiency_from_trace",
    "estimate_all_metrics",
    "estimate_churn_resilience",
    "estimate_convergence",
    "estimate_efficiency",
    "estimate_fairness",
    "estimate_fast_utilization",
    "estimate_friendliness",
    "estimate_latency_avoidance",
    "estimate_responsiveness",
    "estimate_loss_avoidance",
    "estimate_robustness",
    "estimate_tcp_friendliness",
    "estimate_unconstrained_growth",
    "fairness_from_trace",
    "fast_utilization_from_trace",
    "friendliness_from_mix_traces",
    "friendliness_from_trace",
    "latency_from_trace",
    "loss_avoidance_from_trace",
    "robustness_profile",
]


def estimate_all_metrics(
    protocol: Protocol,
    link: Link,
    config: EstimatorConfig | None = None,
    include_robustness: bool = True,
) -> MetricVector:
    """Estimate every axiom for ``protocol`` on ``link``.

    Metrics I, III, IV and V are four reductions of one homogeneous run,
    so the link-bound scenarios are planned first — the homogeneous,
    fast-utilization, friendliness-mix and deep-buffer latency specs —
    run as one executor submission (which also collapses any two that
    coincide, e.g. Reno's mix with Reno's homogeneous run), and then
    reduced. Robustness runs its own infinite-link bisection, independent
    of ``link``; disable it with ``include_robustness=False`` when only
    the link-bound metrics matter.
    """
    from repro.backends import run_specs

    config = config or EstimatorConfig()
    if config.n_senders < 2:
        raise ValueError("fairness estimation requires n_senders >= 2")
    reno = AIMD(1.0, 0.5)
    mixes = friendliness_mix_specs(protocol, reno, link, config)
    specs = [
        homogeneous_spec(protocol, link, config),
        fast_utilization_spec(protocol, link, config),
        *(spec for _, spec in mixes),
        latency_spec(protocol, link, config),
    ]
    homogeneous, fast, *mixed, latency = run_specs(specs, "fluid")
    tail = config.tail_fraction
    scores = {
        "efficiency": efficiency_from_trace(homogeneous, tail).score,
        "fast_utilization": fast_utilization_from_trace(fast, sender=0).score,
        "loss_avoidance": loss_avoidance_from_trace(homogeneous, tail).score,
        "fairness": fairness_from_trace(homogeneous, tail).score,
        "convergence": convergence_from_trace(homogeneous, tail).score,
        "tcp_friendliness": friendliness_from_mix_traces(
            [(n_p, trace) for (n_p, _), trace in zip(mixes, mixed)], reno, tail
        ).score,
        "latency_avoidance": latency_from_trace(latency, tail).score,
    }
    if include_robustness:
        scores["robustness"] = estimate_robustness(protocol).score
    return MetricVector(**scores)
