"""Benchmark: the two new batched lanes (network grids, mean-field sweeps).

``bench_batch.py`` times the heterogeneous *fluid* dispatch; this module
times the acceptance cases the batch-matrix completion exists for:

- a Table 2-style protocol grid on dumbbell topologies, run through the
  batched multi-link network kernel, must beat the serial engine sweep
  by >= 5x with bit-identical traces;
- a 60-scenario synchronized mean-field sweep, run through the stacked
  ``(batch, cells)`` density kernel, must beat the serial mean-field
  loop by >= 5x with bit-identical traces.

Both record their numbers through
``_support.record_summary`` so ``benchmarks/results/summary.json`` holds
the measured speedups the docs' batch matrix cites.
"""

from __future__ import annotations

import time

import numpy as np

from _support import record_summary
from repro.backends import ScenarioSpec, run_spec, run_specs
from repro.backends.batch import plan_meanfield_batches, plan_network_batches
from repro.model.link import Link
from repro.netmodel.topology import dumbbell
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD


def _bit_identical(a, b) -> bool:
    return np.array_equal(
        np.ascontiguousarray(a.windows).view(np.uint64),
        np.ascontiguousarray(b.windows).view(np.uint64),
    )


def _network_grid(steps: int = 2000) -> list[ScenarioSpec]:
    """60 three-flow dumbbell scenarios cycling the three kernel classes.

    Per bandwidth, a rotation of homogeneous AIMD / MIMD / Robust-AIMD
    cells plus mixed-class cells, with parameters varying per cell so
    nothing collapses to a cached duplicate — the multi-link analogue of
    the ``bench_batch.py`` Table 1 grid.
    """
    specs = []
    for bw_i, bw in enumerate((20.0, 40.0, 60.0)):
        for i in range(20):
            a = 0.5 + 0.15 * i
            b = 0.2 + 0.03 * i
            mimd_b = 0.5 + 0.015 * i
            n = 3
            access = Link.from_mbps(2 * bw, 21, 100)
            bottleneck = Link.from_mbps(bw, 42, 100)
            protocols = [
                [AIMD(a, b)] * n,
                [MIMD(1.0 + 0.005 * (i + 1), mimd_b)] * n,
                [RobustAIMD(a, b, 0.02 + 0.001 * i)] * n,
                [AIMD(a, b), MIMD(1.0 + 0.004 * (i + 1), mimd_b),
                 AIMD(a + 0.1, b)],
            ][(bw_i + i) % 4]
            specs.append(
                ScenarioSpec(
                    protocols=protocols, link=bottleneck, steps=steps,
                    topology=dumbbell(access, bottleneck, n),
                    initial_windows=[1.0] * n,
                )
            )
    return specs


def _meanfield_sweep(steps: int = 2000) -> list[ScenarioSpec]:
    """60 synchronized mean-field scenarios over three bandwidths.

    Population and buffering vary per cell; everything shares one grid
    and horizon, so the planner packs the whole sweep into one stacked
    ``(batch, cells)`` kernel call.
    """
    specs = []
    for bw_i, bw in enumerate((10.0, 20.0, 40.0)):
        for i in range(20):
            specs.append(
                ScenarioSpec.from_mbps(
                    bw, 42, 10 + i, [AIMD(1.0 + 0.02 * i, 0.5)], steps=steps,
                    flow_multiplicity=200 + 10 * i, seed=bw_i * 20 + i,
                )
            )
    return specs


def test_network_grid_batched_speedup(monkeypatch):
    """Batched network lane: one batch, >= 5x, bit-identical."""
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)  # time real runs
    specs = _network_grid()
    plan = plan_network_batches(specs)
    assert plan.fallback == []
    assert len(plan.groups) == 1, "mixed classes must share one batch"

    t0 = time.perf_counter()
    batched = run_specs(specs, "network", batch=True, use_cache=False)
    t_batched = time.perf_counter() - t0
    t0 = time.perf_counter()
    serial = [run_spec(spec, "network", use_cache=False) for spec in specs]
    t_serial = time.perf_counter() - t0

    assert all(_bit_identical(b, s) for b, s in zip(batched, serial))
    speedup = t_serial / t_batched
    record_summary(
        "table2_network_batched",
        grid_scenarios=len(specs),
        serial_s=round(t_serial, 4),
        batched_s=round(t_batched, 4),
        speedup=round(speedup, 2),
    )
    print(f"\nnetwork dumbbell grid: serial {t_serial:.2f}s, "
          f"batched {t_batched:.2f}s ({speedup:.1f}x)")
    assert speedup >= 5.0, f"network grid only {speedup:.1f}x faster"


def test_meanfield_sweep_batched_speedup(monkeypatch):
    """Batched mean-field lane: one batch, >= 5x, bit-identical."""
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
    specs = _meanfield_sweep()
    plan = plan_meanfield_batches(specs)
    assert plan.fallback == []
    assert len(plan.groups) == 1, "the sweep must share one stacked batch"

    t0 = time.perf_counter()
    batched = run_specs(specs, "meanfield", batch=True, use_cache=False)
    t_batched = time.perf_counter() - t0
    t0 = time.perf_counter()
    serial = [run_spec(spec, "meanfield", use_cache=False) for spec in specs]
    t_serial = time.perf_counter() - t0

    assert all(_bit_identical(b, s) for b, s in zip(batched, serial))
    speedup = t_serial / t_batched
    record_summary(
        "meanfield_sweep_batched",
        sweep_scenarios=len(specs),
        serial_s=round(t_serial, 4),
        batched_s=round(t_batched, 4),
        speedup=round(speedup, 2),
    )
    print(f"\nmean-field sweep: serial {t_serial:.2f}s, "
          f"batched {t_batched:.2f}s ({speedup:.1f}x)")
    assert speedup >= 5.0, f"mean-field sweep only {speedup:.1f}x faster"
