"""What the benchmark measures: workloads, metrics, and which layer moves what.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``) and a self-test
keeps the two in step. The layer-to-metric mapping cannot live in that
file, whose keys are fixed, so it lives here and the traced run prints it.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
#: Seconds of timed work per run; every run does whole units of work
#: (a pass or a request) until this much time has passed.
RUN_SECONDS = 20
#: Fresh processes that each repeat a workload's set-up, for ``setup_s``.
SETUP_PROBES = 5

# Each workload loads different layers; together they cover every layer
# in the chain driver -> estimator -> executor -> store -> lane/engine ->
# kernel, plus serving.
WORKLOADS = [
    {
        "name": "paper-artifacts",
        "why": "the paper's drivers (Table 1/2, Figure 1, survey, Emulab, "
               "characterize) at one tenth of their horizons: driver, "
               "estimator and scalar engines; store and batch lanes idle",
    },
    {
        "name": "spec-grid-batched",
        "why": "a seeded mixed-backend ScenarioSpec grid through run_specs "
               "batch=True into a fresh store: executor, batch planner, "
               "kernels and store writes; estimators idle",
    },
    {
        "name": "serve-warm-replay",
        "why": "closed-loop replay of seeded 8-spec requests against an "
               "in-process server over a pre-warmed store: store reads, "
               "wire encoding and HTTP; engines idle",
    },
]

#: ``cpu_s`` is the median CPU time of one unit of the workload's work:
#: a pass over every paper driver, a pass over the spec grid on every
#: backend, or one served request (client and in-process server). Wall
#: time on a shared host moves with other tenants' load, so it is printed
#: beside ``cpu_s`` but not bounded; ``setup_s`` is CPU time likewise.
#: ``peak_rss_mb`` is the run's ``ru_maxrss``, with malloc held to one
#: arena (``run.single_malloc_arena``).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]

#: (name, unit, better). Counts and times are per unit of work ("op").
PER_LAYER = [
    ("experiments.self_s", "s/op", "lower"),
    ("core.metrics.calls", "count/op", "lower"),
    ("core.metrics.self_s", "s/op", "lower"),
    ("core.metrics.specs", "count/op", "lower"),
    ("backends.run_spec.calls", "count/op", "lower"),
    ("backends.run_spec.self_s", "s/op", "lower"),
    ("exec.submissions", "count/op", "lower"),
    ("exec.jobs", "count/op", "lower"),
    ("exec.jobs_per_submission", "ratio", "higher"),
    ("exec.computed", "count/op", "lower"),
    ("exec.cache_hits", "count/op", "higher"),
    ("exec.deduped", "count/op", "higher"),
    ("exec.inflight_waits", "count/op", "higher"),
    ("exec.computed_ratio", "ratio", "lower"),
    ("exec.plan_s", "s/op", "lower"),
    ("perf.store.probes", "count/op", "lower"),
    ("perf.store.hits", "count/op", "higher"),
    ("perf.store.hit_ratio", "ratio", "higher"),
    ("perf.store.probes_per_job", "ratio", "lower"),
    ("perf.store.load_s", "s/op", "lower"),
    ("perf.store.puts", "count/op", "lower"),
    ("perf.store.put_s", "s/op", "lower"),
    ("perf.store.bytes_written", "B/op", "lower"),
    ("backends.batch.plan_s", "s/op", "lower"),
    ("backends.batch.specs_in", "count/op", "higher"),
    ("backends.batch.specs_lowered", "count/op", "higher"),
    ("backends.batch.lane_ratio", "ratio", "higher"),
    ("backends.batch.groups", "count/op", "lower"),
    ("backends.batch.fallback_runs", "count/op", "lower"),
    ("model.dynamics.general.runs", "count/op", "lower"),
    ("model.dynamics.general.self_s", "s/op", "lower"),
    ("model.dynamics.general.steps_per_s", "1/s", "higher"),
    ("model.dynamics.vectorized.runs", "count/op", "lower"),
    ("model.dynamics.vectorized.self_s", "s/op", "lower"),
    ("netmodel.dynamics.runs", "count/op", "lower"),
    ("netmodel.dynamics.self_s", "s/op", "lower"),
    ("meanfield.dynamics.runs", "count/op", "lower"),
    ("meanfield.dynamics.self_s", "s/op", "lower"),
    ("packetsim.runs", "count/op", "lower"),
    ("packetsim.self_s", "s/op", "lower"),
    *(
        (f"{kernel}.{metric}", unit, better)
        for kernel in ("model.batch", "netmodel.batch", "meanfield.batch")
        for metric, unit, better in (
            ("calls", "count/op", "lower"),
            ("self_s", "s/op", "lower"),
            ("cell_steps", "count/op", "higher"),
            ("cell_steps_per_s", "1/s", "higher"),
            ("bytes_computed", "B/op", "lower"),
        )
    ),
    ("exec.serve.requests", "count/op", "higher"),
    ("exec.serve.overhead_s", "s/op", "lower"),
    ("exec.wire.encode_s", "s/op", "lower"),
    ("exec.wire.decode_s", "s/op", "lower"),
    ("exec.wire.bytes_out", "B/op", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.store_warm_s", "s", "lower"),
    ("setup.server_bind_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_s", "s/op", "lower"),
]

#: Which per-layer metric should move which reported metric, on which
#: workload (per-driver times, request percentiles and throughputs are
#: printed by every run beside the end-to-end metrics).
LAYER_MAP = [
    ("experiments.self_s", "table1_s, survey_s", "paper-artifacts"),
    ("core.metrics.*", "table1_s, survey_s, characterize_s", "paper-artifacts;"
     " absent elsewhere"),
    ("backends.run_spec.*", "every artifact time (planned submission drives it "
     "to 0)", "paper-artifacts"),
    ("exec.jobs_per_submission", "survey_s, table1_s", "paper-artifacts"),
    ("exec.plan_s", "request_p50_ms, requests_per_s", "serve-warm-replay"),
    ("perf.store.load_s", "request_p50_ms", "serve-warm-replay"),
    ("perf.store.puts/put_s/bytes_written", "specs_per_s, cpu_s",
     "spec-grid-batched; no change on paper-artifacts"),
    ("backends.batch.*", "specs_per_s (lane_ratio unchanged by a lane merge)",
     "spec-grid-batched"),
    ("model.dynamics.general.*", "survey_s, table1_s", "paper-artifacts"),
    ("model.dynamics.vectorized.*", "characterize_s, figure1_s",
     "paper-artifacts"),
    ("netmodel/meanfield.dynamics.*", "specs_per_s (serial fallbacks)",
     "spec-grid-batched"),
    ("packetsim.*", "emulab_s", "paper-artifacts"),
    ("model/netmodel/meanfield.batch.*", "spec_steps_per_s",
     "spec-grid-batched; no change on serve-warm-replay"),
    ("exec.serve.*, exec.wire.*", "request_p50_ms, request_p90_ms",
     "serve-warm-replay"),
    ("setup.*", "setup_s", "all"),
]


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
