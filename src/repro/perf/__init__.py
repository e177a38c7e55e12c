"""Performance layer: parallel sweeps, the simulation cache, and timing.

The reproduction's headline artifacts are grids of independent fluid
simulations; this package supplies the machinery that makes regenerating
them fast without changing a single result:

- :mod:`repro.perf.cache` — a content-addressed on-disk cache of
  simulation traces, keyed by a stable hash of (link, protocols, config,
  steps), so repeated estimator calls reload ``.npz`` archives instead of
  re-simulating;
- :mod:`repro.perf.packet_cache` — the same idea for packet-level runs:
  ``PacketScenario``/workload inputs hash to archived
  ``FlowStats``/``QueueStats`` arrays, so warm Emulab/FCT/Table-2 packet
  checks skip the discrete-event simulation entirely;
- :mod:`repro.perf.timing` — a lightweight timing registry the simulator,
  sweep harness and cache all report into, so speedups are measured
  rather than asserted.

Parallel grid execution itself lives on
:class:`repro.experiments.sweep.Sweep` (``parallel``/``max_workers``);
the fluid step loop lives in
:class:`repro.model.dynamics.FluidSimulator`. Both report here.
"""

from repro.perf.cache import (
    TraceCache,
    active_cache,
    cache_enabled,
    configure_cache,
    deactivate_cache,
    default_cache_dir,
    simulation_key,
)
from repro.perf.packet_cache import scenario_key, workload_key
from repro.perf.timing import REGISTRY, TimingRegistry, TimingStat, measure

__all__ = [
    "REGISTRY",
    "TimingRegistry",
    "TimingStat",
    "TraceCache",
    "active_cache",
    "cache_enabled",
    "configure_cache",
    "deactivate_cache",
    "default_cache_dir",
    "measure",
    "scenario_key",
    "simulation_key",
    "workload_key",
]
