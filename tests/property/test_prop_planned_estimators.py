"""The planned estimator paths equal the one-scenario-at-a-time paths.

:func:`estimate_all_metrics` builds every link-bound spec first, runs
them as one executor submission and reduces the traces; ``run_survey``
estimates robustness once per protocol instead of once per cell. Both
must reproduce the per-estimator results bit for bit (raw uint64, so
NaN and inf compare exactly), and the planned path must run each
distinct scenario exactly once.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.backends.base as backends_base
from repro.core.metrics import (
    EstimatorConfig,
    MetricVector,
    estimate_all_metrics,
    estimate_convergence,
    estimate_efficiency,
    estimate_fairness,
    estimate_fast_utilization,
    estimate_latency_avoidance,
    estimate_loss_avoidance,
    estimate_robustness,
    estimate_tcp_friendliness,
)
from repro.core.metrics.base import homogeneous_spec
from repro.core.metrics.extensions import (
    estimate_churn_resilience,
    estimate_responsiveness,
)
from repro.core.metrics.fast_utilization import fast_utilization_spec
from repro.core.metrics.friendliness import friendliness_mix_specs
from repro.core.metrics.latency import latency_spec
from repro.core.metrics.vector import METRIC_ORDER
from repro.experiments.survey import SurveyEntry, SurveyResult, run_survey
from repro.model.link import Link
from repro.perf import store
from repro.perf.cache import configure_cache, deactivate_cache
from repro.protocols import available_protocols, make_protocol, presets
from repro.protocols.aimd import AIMD

LINK = Link.from_mbps(20, 42, 100)
PRESETS = available_protocols()["presets"]
CONFIGS = {
    "n2": EstimatorConfig(steps=300, n_senders=2),
    "n3-cold": EstimatorConfig(steps=240, n_senders=3, spread_initial_windows=False),
}


def raw(vector: MetricVector) -> list[int]:
    """The vector's scores as raw float64 bit patterns."""
    values = np.array([getattr(vector, name) for name in METRIC_ORDER], dtype=float)
    return values.view(np.uint64).tolist()


def one_at_a_time(protocol, link, config, include_robustness) -> MetricVector:
    """The eight estimators called one by one on one protocol instance."""
    scores = {
        "efficiency": estimate_efficiency(protocol, link, config).score,
        "fast_utilization": estimate_fast_utilization(protocol, link, config).score,
        "loss_avoidance": estimate_loss_avoidance(protocol, link, config).score,
        "fairness": estimate_fairness(protocol, link, config).score,
        "convergence": estimate_convergence(protocol, link, config).score,
        "tcp_friendliness": estimate_tcp_friendliness(protocol, link, config).score,
        "latency_avoidance": estimate_latency_avoidance(protocol, link, config).score,
    }
    if include_robustness:
        scores["robustness"] = estimate_robustness(protocol).score
    return MetricVector(**scores)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("name", PRESETS)
def test_planned_vector_equals_individual_estimators(name, config_name):
    config = CONFIGS[config_name]
    include_robustness = config_name == "n2"
    planned = estimate_all_metrics(
        make_protocol(name), LINK, config, include_robustness=include_robustness
    )
    reference = one_at_a_time(make_protocol(name), LINK, config, include_robustness)
    assert raw(planned) == raw(reference)


def test_single_sender_is_rejected_before_running(monkeypatch):
    calls = []
    monkeypatch.setattr(backends_base, "run_spec", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=r"^fairness estimation requires n_senders >= 2$"):
        estimate_all_metrics(presets.reno(), LINK, EstimatorConfig(steps=50, n_senders=1))
    assert calls == []


def planned_keys(protocol, link, config) -> list[str | None]:
    """The unified keys of the specs one ``estimate_all_metrics`` call plans."""
    specs = [
        homogeneous_spec(protocol, link, config),
        fast_utilization_spec(protocol, link, config),
        *(spec for _, spec in friendliness_mix_specs(protocol, AIMD(1.0, 0.5), link, config)),
        latency_spec(protocol, link, config),
    ]
    return [store.unified_key("fluid", spec) for spec in specs]


@pytest.mark.parametrize("use_store", [False, True], ids=["store-off", "store-on"])
@pytest.mark.parametrize("name", ["reno", "cubic", "robust-aimd", "vegas"])
def test_one_run_spec_call_per_distinct_key(name, use_store, monkeypatch, tmp_path):
    config = EstimatorConfig(steps=120, n_senders=3)
    keys = planned_keys(make_protocol(name), LINK, config)
    assert None not in keys
    seen: list[str | None] = []
    original = backends_base.run_spec

    def counting(spec, backend="fluid", use_cache=True):
        seen.append(store.unified_key("fluid", spec))
        return original(spec, backend, use_cache=use_cache)

    monkeypatch.setattr(backends_base, "run_spec", counting)
    if use_store:
        configure_cache(tmp_path / "store")
    try:
        estimate_all_metrics(make_protocol(name), LINK, config, include_robustness=False)
    finally:
        if use_store:
            deactivate_cache()
    assert len(seen) == len(set(keys))
    assert sorted(seen) == sorted(set(keys))
    if name == "reno":
        # Every Reno/Reno friendliness mix is Reno's homogeneous run, so
        # only the homogeneous, fast-utilization and latency runs remain.
        assert len(keys) == 5 and len(set(keys)) == 3


def per_cell_survey(roster, regimes, config) -> SurveyResult:
    """The survey with robustness estimated inside every (regime, protocol) cell."""
    result = SurveyResult()
    for regime, link in regimes.items():
        for protocol, factory in roster.items():
            vector = estimate_all_metrics(factory(), link, config)
            result.entries.append(SurveyEntry(
                protocol=protocol,
                regime=regime,
                vector=vector,
                responsiveness=estimate_responsiveness(
                    factory(), link, warmup_steps=config.steps // 3,
                    measure_steps=config.steps,
                ).score,
                churn_resilience=estimate_churn_resilience(
                    factory(), link, warmup_steps=config.steps // 3,
                    measure_steps=config.steps,
                ).score,
            ))
    return result


def raw_jsonable(result: SurveyResult) -> list:
    """``to_jsonable()`` with every float replaced by its bit pattern."""
    def bits(value):
        return np.float64(value).view(np.uint64).item()

    return [
        {
            **entry,
            "metrics": {k: bits(v) for k, v in entry["metrics"].items()},
            "responsiveness": bits(entry["responsiveness"]),
            "churn_resilience": bits(entry["churn_resilience"]),
        }
        for entry in result.to_jsonable()["entries"]
    ]


SURVEY_ROSTER = {
    "reno": presets.reno,
    "robust-aimd": presets.robust_aimd_paper,
    "pcc-like": presets.pcc_like,
}
SURVEY_REGIMES = {
    "wan-20M": Link.from_mbps(20, 42, 100),
    "shallow-buffer": Link.from_mbps(20, 42, 10),
}
SURVEY_CONFIG = EstimatorConfig(steps=150, n_senders=2)


@pytest.fixture(scope="module")
def per_cell_reference() -> list:
    return raw_jsonable(per_cell_survey(SURVEY_ROSTER, SURVEY_REGIMES, SURVEY_CONFIG))


@pytest.mark.parametrize("workers", [None, 2], ids=["serial", "workers2"])
def test_survey_shares_robustness_bit_for_bit(workers, per_cell_reference):
    result = run_survey(
        roster=SURVEY_ROSTER, regimes=SURVEY_REGIMES, config=SURVEY_CONFIG,
        workers=workers,
    )
    assert raw_jsonable(result) == per_cell_reference
    scores = {e.protocol: e.vector.robustness for e in result.entries}
    assert scores["reno"] == 0.0 and scores["robust-aimd"] > 0.0


def test_survey_without_robustness_leaves_it_nan():
    result = run_survey(
        roster=SURVEY_ROSTER, regimes=SURVEY_REGIMES, config=SURVEY_CONFIG,
        include_extensions=False, include_robustness=False,
    )
    assert len(result.entries) == len(SURVEY_ROSTER) * len(SURVEY_REGIMES)
    assert all(math.isnan(e.vector.robustness) for e in result.entries)
