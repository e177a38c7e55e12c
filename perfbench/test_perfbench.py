"""Self-tests for the benchmark's own code.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import source  # noqa: E402

source.use_source_tree()

import definition  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
from checks import Tally, digest_arrays, digest_trace  # noqa: E402
from workloads import ServeWarmReplay  # noqa: E402


def _keys(grid: inputs.SpecGrid) -> dict[str, list[str | None]]:
    from repro.perf.store import unified_key

    return {b: [unified_key(b, spec) for spec in specs] for b, specs in grid.specs.items()}


def test_spec_grid_is_deterministic_per_seed():
    first, again, other = inputs.spec_grid(7), inputs.spec_grid(7), inputs.spec_grid(8)
    assert _keys(first) == _keys(again)
    assert first.mix == again.mix
    assert _keys(first) != _keys(other)
    # Shares are fixed, so every seed's grid has the same size and mix.
    assert first.mix == other.mix
    assert first.mix["repeats"] == sum(
        len(keys) - len(set(keys)) for keys in _keys(first).values()
    )


def test_replay_plan_is_deterministic_per_seed():
    first, again, other = inputs.replay_plan(7), inputs.replay_plan(7), inputs.replay_plan(8)
    assert (first.pool, first.requests, first.mix) == (again.pool, again.requests, again.mix)
    assert first.requests != other.requests
    assert all(6 <= len(indices) <= 10 for _backend, indices in first.requests)


def _small_trace():
    from repro.backends import ScenarioSpec, run_spec
    from repro.protocols import make_protocol

    spec = ScenarioSpec.from_mbps(20, 42, 100, [make_protocol("reno")] * 2, steps=50)
    return run_spec(spec, "fluid", use_cache=False)


def test_digest_check_trips_on_one_flipped_bit():
    from repro.perf.store import trace_to_arrays

    arrays = trace_to_arrays(_small_trace())
    expected = digest_arrays(arrays)
    flipped = dict(arrays)
    windows = arrays["windows"].copy()
    windows.view("uint8")[17] ^= 0x01
    flipped["windows"] = windows
    tally = Tally()
    tally.attempt(2)
    tally.check("unchanged", digest_arrays(dict(arrays)), expected)
    tally.check("one bit", digest_arrays(flipped), expected)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.errors[0].startswith("one bit")


def test_self_time_subtracts_nested_children_once():
    def span(index, start, end, parent=None, name="x"):
        return spans.Span(index=index, name=name, start=start, end=end, parent=parent)

    tree = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),  # grandchild: only its parent subtracts it
        span(3, 5.0, 6.0, parent=0),
        span(4, 5.5, 7.0, parent=0),  # overlaps its sibling (another thread)
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 2, 2, 1, 1, 1.5])


def test_serve_overhead_is_request_time_minus_submit_and_wire():
    recorder = spans.SpanRecorder()
    recorder.spans = [
        spans.Span(0, "exec.serve", 0.0, 10.0, request=0),
        spans.Span(1, "exec.plan", 1.0, 3.0, request=0),
        spans.Span(2, "perf.store.load", 1.5, 2.0, parent=1, request=0),
        spans.Span(3, "exec.wire.encode", 2.5, 5.0, request=0),
        spans.Span(4, "exec.wire.decode", 6.0, 7.0, parent=0, request=0),
        spans.Span(5, "exec.wire.encode", 20.0, 30.0, request=1),
    ]
    assert spans.serve_overhead(recorder) == pytest.approx(10 - 4 - 1)


class _Client:
    def __init__(self, outcome):
        self.outcome = outcome

    def run_specs(self, wires, backend, skip_errors):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def _replay(client) -> ServeWarmReplay:
    workload = ServeWarmReplay()
    workload.plan = inputs.ReplayPlan(pool={"fluid": [{}]}, requests=[("fluid", [0, 0])])
    workload.expected = {"fluid": [digest_trace(_small_trace())]}
    workload.client = client
    workload.requests = workload.specs_served = 0
    return workload


@pytest.mark.parametrize("outcome", ["refused", "missing trace"])
def test_error_rate_counts_a_failed_request(outcome):
    from repro.exec.client import ServeError

    client = _Client(ServeError("HTTP 400: bad") if outcome == "refused" else [None, None])
    tally = Tally()
    _replay(client).op(tally)
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 1, 1.0)


def test_error_rate_is_zero_for_a_correct_request():
    trace = _small_trace()
    tally = Tally()
    _replay(_Client([trace, trace])).op(tally)
    assert (tally.attempted, tally.failed, tally.error_rate) == (1, 0, 0.0)


def test_patcher_records_layers_and_restores_originals(tmp_path):
    from repro.backends import base, run_specs
    from repro.backends import batch as batch_module
    from repro.perf.cache import cache_enabled

    grid = inputs.spec_grid(3)
    specs = grid.specs["fluid"][:12]
    original = base.run_spec
    recorder = spans.SpanRecorder()
    patcher = spans.Patcher(recorder)
    before = spans.snapshot()
    patcher.install()
    try:
        with cache_enabled(tmp_path / "store"):
            run_specs(specs, "fluid", batch=True)
    finally:
        patcher.restore()
    after = spans.snapshot()
    assert base.run_spec is original
    assert batch_module.run_spec is original
    names = {span.name for span in recorder.spans}
    assert {"exec.plan", "backends.batch.lane", "backends.batch.plan", "model.batch",
            "perf.store.load", "perf.store.put"} <= names
    metrics = spans.layer_metrics(recorder, before, after, ops=1)
    assert set(metrics) == {
        name for name, _unit, _better in definition.PER_LAYER
        if not name.startswith(("setup.", "trace."))
    }
    assert metrics["exec.jobs"] == 12
    assert metrics["backends.batch.specs_in"] == metrics["exec.computed"]
    assert 0 < metrics["backends.batch.lane_ratio"] <= 1
    assert metrics["perf.store.bytes_written"] > 0


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_and_within_contract():
    committed = json.loads((source.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == definition.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    names = [w["name"] for w in committed["workloads"]]
    names += [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])
    assert 2 <= len(committed["workloads"]) <= 8 and 1 <= committed["run_seconds"] <= 60
