"""Seeded inputs for the ``spec-grid-batched`` and ``serve-warm-replay`` workloads.

Every generator takes the seed as its only source of variation and
returns plain data — ``ScenarioSpec`` lists and wire-spec dicts — plus a
``mix`` record of the properties the workload depends on (backend mix,
stateful share, repeat share), which the benchmark prints with its result.
The program under test receives only the generated specs.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Any

#: Protocol families the batch kernels advance (``batched_next``).
LANE_FAMILIES = ("AIMD", "MIMD", "Robust-AIMD")
#: Stateful presets with no batched form: they fall off the batch lanes.
STATEFUL_PRESETS = ("cubic", "vegas", "pcc")

STATEFUL_SHARE = 0.125
REPEAT_SHARE = 0.125
#: Share of mean-field specs with two protocol groups (no stacked form).
MULTI_GROUP_SHARE = 0.125

GRID_FLUID = 96
GRID_NETWORK = 24
GRID_MEANFIELD = 24

POOL_FLUID = 48
POOL_MEANFIELD = 16
REPLAY_REQUESTS = 1000
REQUEST_SPECS = (6, 10)
REQUEST_REPEAT_SHARE = 0.25
MEANFIELD_REQUEST_SHARE = 0.2


#: Link regimes (bandwidth Mbps, RTT ms, buffer MSS) the grids cycle through.
LINKS = (
    (10.0, 20.0, 20.0),
    (20.0, 42.0, 100.0),
    (40.0, 80.0, 50.0),
    (60.0, 42.0, 20.0),
    (20.0, 20.0, 50.0),
    (40.0, 42.0, 100.0),
)


def lane_protocol(rng: random.Random, family: str) -> str:
    """A protocol spec string from a batch-kernel family, seeded parameters."""
    if family == "AIMD":
        return f"AIMD({rng.uniform(0.5, 2.0):.3f},{rng.uniform(0.3, 0.8):.3f})"
    if family == "MIMD":
        return f"MIMD({rng.uniform(1.002, 1.02):.4f},{rng.uniform(0.5, 0.9):.3f})"
    return (f"Robust-AIMD({rng.uniform(0.5, 2.0):.3f},{rng.uniform(0.5, 0.9):.3f},"
            f"{rng.uniform(0.005, 0.03):.4f})")


def lane_protocols(rng: random.Random, shape: int, n: int) -> list[str]:
    return [lane_protocol(rng, LANE_FAMILIES[(shape + i) % len(LANE_FAMILIES)])
            for i in range(n)]


def _share(count: int, share: float) -> int:
    return int(round(count * share))


def compose(rng: random.Random, count: int, make, special_share: float = 0.0) -> list:
    """``count`` items: fixed shapes in seeded order, plus seeded repeats.

    ``make(shape, special)`` builds the item of shape number ``shape``;
    the shapes (and which ``special_share`` of them are special) are the
    same for every seed, which only orders them, draws their protocol
    parameters and picks the repeats — so every seed's workload has the
    same size and cost structure. Then ``REPEAT_SHARE`` of the final list
    are deep copies of an earlier item at seeded positions: equal in
    content but not the same object, so only the executor's content keys
    can find them.
    """
    unique = count - _share(count, REPEAT_SHARE)
    special = _share(unique, special_share)
    shapes = list(range(unique))
    rng.shuffle(shapes)
    items = [make(shape, shape < special) for shape in shapes]
    while len(items) < count:
        position = rng.randrange(1, len(items) + 1)
        items.insert(position, copy.deepcopy(rng.choice(items[:position])))
    return items


@dataclass
class SpecGrid:
    """One pass of ``spec-grid-batched``: specs per backend, in order."""

    specs: dict[str, list[Any]]
    mix: dict[str, Any] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(len(specs) for specs in self.specs.values())

    def spec_steps(self) -> int:
        """RTT steps simulated by one pass, summed over specs."""
        return sum(spec.steps for specs in self.specs.values() for spec in specs)


def spec_grid(seed: int) -> SpecGrid:
    """The seeded ``ScenarioSpec`` grid submitted once per backend.

    Fluid specs mix the three kernel families (with a stateful share
    that falls off the lane); network specs are multi-link dumbbells
    with the same stateful share; mean-field specs are synchronized
    with large ``flow_multiplicity`` and a share of two-group specs that
    run serially. Every backend list carries a share of repeated specs.
    """
    from repro.backends import ScenarioSpec
    from repro.model.link import Link
    from repro.netmodel.topology import dumbbell
    from repro.protocols import make_protocol

    rng = random.Random(seed)
    stateful: list[str] = []
    multi_group: list[int] = []

    def flows(shape: int, is_stateful: bool, n: int) -> list:
        if is_stateful:
            stateful.append(STATEFUL_PRESETS[shape % len(STATEFUL_PRESETS)])
            return [make_protocol(stateful[-1])] * n
        return [make_protocol(name) for name in lane_protocols(rng, shape, n)]

    def fluid_spec(shape: int, is_stateful: bool):
        bw, rtt, buf = LINKS[shape % len(LINKS)]
        n = 2 + shape % 2
        steps = (1000, 2000)[shape // 2 % 2]
        return ScenarioSpec.from_mbps(bw, rtt, buf, flows(shape, is_stateful, n), steps=steps)

    def network_spec(shape: int, is_stateful: bool):
        bw, rtt, buf = LINKS[shape % len(LINKS)]
        n = 2 + shape % 2
        bottleneck = Link.from_mbps(bw, rtt, buf)
        access = Link.from_mbps(2 * bw, rtt / 2, buf)
        return ScenarioSpec(
            protocols=flows(shape, is_stateful, n), link=bottleneck, steps=1500,
            topology=dumbbell(access, bottleneck, n), initial_windows=[1.0] * n,
        )

    def meanfield_spec(shape: int, two_groups: bool):
        bw, _rtt, buf = LINKS[shape % len(LINKS)]
        if two_groups:
            multi_group.append(shape)
        protocols = [
            make_protocol(f"AIMD({rng.uniform(0.8, 1.5):.3f},0.5)")
            for _ in range(2 if two_groups else 1)
        ]
        return ScenarioSpec.from_mbps(
            bw, 42.0, buf, protocols, steps=1500,
            flow_multiplicity=200 + 100 * (shape % 8), seed=rng.randrange(1 << 16),
        )

    grid = SpecGrid(specs={
        "fluid": compose(rng, GRID_FLUID, fluid_spec, STATEFUL_SHARE),
        "network": compose(rng, GRID_NETWORK, network_spec, STATEFUL_SHARE),
        "meanfield": compose(rng, GRID_MEANFIELD, meanfield_spec, MULTI_GROUP_SHARE),
    })
    total = grid.total
    repeats = sum(_share(len(specs), REPEAT_SHARE) for specs in grid.specs.values())
    grid.mix = {
        "backends": {name: len(specs) for name, specs in grid.specs.items()},
        "stateful_unique": len(stateful),
        "stateful_share": round(len(stateful) / total, 4),
        "repeats": repeats,
        "repeat_share": round(repeats / total, 4),
        "meanfield_multi_group": len(multi_group),
    }
    return grid


@dataclass
class ReplayPlan:
    """``serve-warm-replay`` inputs: the pre-stored pool and the requests.

    ``requests`` holds ``(backend, pool indices)`` pairs; a request's
    wire body is ``[pool[backend][i] for i in indices]``.
    """

    pool: dict[str, list[dict]]
    requests: list[tuple[str, list[int]]]
    mix: dict[str, Any] = field(default_factory=dict)


def replay_plan(seed: int) -> ReplayPlan:
    """The seeded wire-spec pool and the request sequence replayed against it.

    Requests carry about eight specs each, drawn from the pool, with a
    share of repeats inside a request (the executor's dedup path); a
    share of requests targets the mean-field backend.
    """
    from repro.exec.wire import spec_to_wire

    rng = random.Random(seed)
    stateful = _share(POOL_FLUID, STATEFUL_SHARE)

    def fluid_wire(shape: int) -> dict:
        bw, rtt, buf = LINKS[shape % len(LINKS)]
        n = 2 + shape % 2
        if shape < stateful:
            protocols = [STATEFUL_PRESETS[shape % len(STATEFUL_PRESETS)]] * n
        else:
            protocols = lane_protocols(rng, shape, n)
        return spec_to_wire(protocols, bw, rtt, buf, steps=2000)

    def meanfield_wire(shape: int) -> dict:
        bw, _rtt, buf = LINKS[shape % len(LINKS)]
        return spec_to_wire(
            [f"AIMD({rng.uniform(0.8, 1.5):.3f},0.5)"], bw, 42.0, buf,
            steps=1500, flow_multiplicity=200 + 100 * (shape % 8),
        )

    pool = {
        "fluid": [fluid_wire(i) for i in range(POOL_FLUID)],
        "meanfield": [meanfield_wire(i) for i in range(POOL_MEANFIELD)],
    }
    requests: list[tuple[str, list[int]]] = []
    repeats = specs = 0
    for _ in range(REPLAY_REQUESTS):
        backend = "meanfield" if rng.random() < MEANFIELD_REQUEST_SHARE else "fluid"
        indices: list[int] = []
        for _ in range(rng.randint(*REQUEST_SPECS)):
            if indices and rng.random() < REQUEST_REPEAT_SHARE:
                indices.append(rng.choice(indices))
                repeats += 1
            else:
                indices.append(rng.randrange(len(pool[backend])))
        specs += len(indices)
        requests.append((backend, indices))
    meanfield_requests = sum(1 for backend, _ in requests if backend == "meanfield")
    plan = ReplayPlan(pool=pool, requests=requests)
    plan.mix = {
        "pool": {name: len(wires) for name, wires in pool.items()},
        "stateful": stateful,
        "stateful_share": round(stateful / sum(len(w) for w in pool.values()), 4),
        "specs_per_request": round(specs / len(requests), 3),
        "repeat_share": round(repeats / specs, 4),
        "meanfield_request_share": round(meanfield_requests / len(requests), 4),
    }
    return plan
