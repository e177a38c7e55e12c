"""The three workloads: set-up, one timed unit of work, and output checks.

Each workload object runs in one process. ``setup`` does everything
``setup_s`` covers and returns its parts; ``op`` runs one unit of work
(a pass or a request), checks its outputs outside the timed region and
returns the timed wall and CPU seconds plus per-op samples; ``finish``
runs the checks that need the whole run; ``close`` releases what
``setup`` made.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from typing import Any

from checks import Tally, digest_jsonable, digest_trace
from inputs import replay_plan, spec_grid

#: One uniform factor on every paper driver's horizon (``steps`` and the
#: Emulab ``duration``), so a pass fits several times into one run.
HORIZON = 0.1
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def clocks() -> tuple[float, float]:
    """(wall, CPU) readings: CPU is the time every thread of this process,
    the in-process server included, spent on a processor."""
    return time.perf_counter(), time.process_time()


def _store_off() -> None:
    from repro.perf.cache import deactivate_cache

    deactivate_cache()


class PaperArtifacts:
    """Every paper driver at CLI-default flags, store off (the CLI default).

    Why: this is what users run. It loads the driver, estimator and
    scalar-engine layers; the store and the batch lanes sit idle. The
    seed does not enter: the paper fixes these inputs.
    """

    name = "paper-artifacts"
    min_ops = 1
    #: Per-op samples reported beside ``wall_s``.
    groups = ("table1_s", "table2_s", "figure1_s", "survey_s", "characterize_s",
              "emulab_s")

    def __init__(self) -> None:
        self.reference: dict[str, str] | None = None

    def setup(self, seed: int, workdir: Path) -> dict[str, float]:
        start = time.perf_counter()
        # Calls go through module attributes, looked up at call time, so
        # a traced run's wrappers see them.
        import repro.core.characterization as characterization
        import repro.core.metrics as metrics
        import repro.experiments as experiments
        import repro.experiments.survey as survey
        from repro.model.link import Link
        from repro.protocols import make_protocol, presets

        imported = time.perf_counter()
        _store_off()

        def steps(default: int) -> int:
            return int(round(default * HORIZON))

        def config(default: int) -> metrics.EstimatorConfig:
            return metrics.EstimatorConfig(steps=steps(default), n_senders=2)

        link = Link.from_mbps(20.0, 42.0, 100.0)

        def characterize_cli(name: str) -> dict:
            # `repro characterize --protocol NAME --extensions`
            protocol = make_protocol(name)
            result = characterization.characterize(protocol, link, config(4000))
            responsiveness = metrics.estimate_responsiveness(
                protocol, link, warmup_steps=steps(1500), measure_steps=steps(3000)
            )
            churn = metrics.estimate_churn_resilience(
                protocol, link, warmup_steps=steps(1500), measure_steps=steps(4000)
            )
            return {
                "empirical": result.empirical.as_dict(),
                "responsiveness": responsiveness.score,
                "churn_resilience": churn.score,
            }

        self.artifacts: list[tuple[str, str, Any]] = [
            ("table1", "table1_s",
             lambda: experiments.run_table1(link, config(4000)).to_jsonable()),
            ("table2", "table2_s",
             lambda: experiments.run_table2(
                 pcc=presets.pcc_like(), steps=steps(4000)).to_jsonable()),
            ("figure1", "figure1_s",
             lambda: experiments.run_figure1(config=config(4000)).to_jsonable()),
            ("survey", "survey_s",
             lambda: survey.run_survey(config=config(3000)).to_jsonable()),
            ("emulab", "emulab_s",
             lambda: experiments.run_emulab(duration=10.0 * HORIZON).to_jsonable()),
        ]
        # The five Table 1 families, by their CLI names.
        for name in ("reno", "scalable", "iiad", "cubic", "robust-aimd"):
            self.artifacts.append((
                f"characterize:{name}", "characterize_s",
                lambda name=name: characterize_cli(name),
            ))
        self.mix = {"horizon": HORIZON, "artifacts": [name for name, _, _ in self.artifacts]}
        return {"import_s": imported - start, "store_warm_s": 0.0, "server_bind_s": 0.0}

    def load_reference(self) -> dict[str, str]:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if reference.get("horizon") != HORIZON:
            raise SystemExit(f"perfbench: {REFERENCE.name} was made at horizon "
                             f"{reference.get('horizon')}, not {HORIZON}")
        return reference["digests"]

    def outputs(self) -> dict[str, str]:
        """One pass's artifact digests (for writing the reference)."""
        return {name: digest_jsonable(call()) for name, _group, call in self.artifacts}

    def op(self, tally: Tally) -> tuple[float, float, dict[str, float]]:
        if self.reference is None:
            self.reference = self.load_reference()
        samples = dict.fromkeys(self.groups, 0.0)
        wall = cpu = 0.0
        for name, group, call in self.artifacts:
            tally.attempt()
            start, start_cpu = clocks()
            try:
                result = call()
            except Exception as exc:
                tally.fail(f"{name}: {type(exc).__name__}: {exc}")
                result = None
            end, end_cpu = clocks()
            wall += end - start
            cpu += end_cpu - start_cpu
            samples[group] += end - start
            if result is not None:
                tally.check(name, digest_jsonable(result), self.reference.get(name, "?"))
        return wall, cpu, samples

    def finish(self, tally: Tally) -> None:
        pass

    def counters(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class SpecGridBatched:
    """A seeded ``ScenarioSpec`` grid, one ``run_specs(batch=True)`` per backend.

    Why: the estimator layer is idle; the executor, batch planners,
    kernels and the store's write path do the work. Each pass writes
    into a fresh empty store, so nothing is served from earlier passes;
    repeats inside a pass exercise the executor's dedup.
    """

    name = "spec-grid-batched"
    min_ops = 1
    groups = ("specs_per_s", "spec_steps_per_s")

    def setup(self, seed: int, workdir: Path) -> dict[str, float]:
        start = time.perf_counter()
        from repro.backends import run_spec, run_specs
        from repro.perf.cache import configure_cache

        imported = time.perf_counter()
        self._run_spec, self._run_specs = run_spec, run_specs
        self._configure = configure_cache
        self.grid = spec_grid(seed)
        self.mix = self.grid.mix
        self.stores = workdir / "stores"
        if self.stores.exists():
            shutil.rmtree(self.stores)
        self.stores.mkdir(parents=True)
        self.passes: list[dict[str, list[str | None]]] = []
        return {"import_s": imported - start,
                "store_warm_s": time.perf_counter() - imported, "server_bind_s": 0.0}

    def op(self, tally: Tally) -> tuple[float, float, dict[str, float]]:
        store = self.stores / f"pass-{len(self.passes)}"
        self._configure(store)
        traces: dict[str, list] = {}
        start, start_cpu = clocks()
        for backend, specs in self.grid.specs.items():
            try:
                traces[backend] = self._run_specs(specs, backend, batch=True)
            except Exception as exc:
                tally.fail(f"{backend} submission: {type(exc).__name__}: {exc}")
                traces[backend] = [None] * len(specs)
        end, end_cpu = clocks()
        wall = end - start
        _store_off()
        self.passes.append({
            backend: [None if t is None else digest_trace(t) for t in results]
            for backend, results in traces.items()
        })
        shutil.rmtree(store, ignore_errors=True)
        return wall, end_cpu - start_cpu, {"specs_per_s": self.grid.total / wall,
                      "spec_steps_per_s": self.grid.spec_steps() / wall}

    def finish(self, tally: Tally) -> None:
        """Compare every pass, bit for bit, with a serial uncached recompute."""
        for backend, specs in self.grid.specs.items():
            expected = [digest_trace(self._run_spec(s, backend, use_cache=False))
                        for s in specs]
            for number, digests in enumerate(self.passes):
                for index, got in enumerate(digests[backend]):
                    tally.attempt()
                    tally.check(f"pass {number} {backend}[{index}]", got, expected[index])

    def counters(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        _store_off()
        shutil.rmtree(self.stores, ignore_errors=True)


class ServeWarmReplay:
    """Closed-loop replay against an in-process server over a warm store.

    Why: with every spec pre-stored, the store's read path, dedup, wire
    encoding and HTTP do the work and the engines stay idle (asserted:
    nothing is computed in the timed phase). One client on one
    connection makes server-side spans attributable to their request.
    """

    name = "serve-warm-replay"
    #: Enough requests that ten lie beyond the 90th percentile.
    min_ops = 100
    groups = ()

    def __init__(self) -> None:
        self.server = None
        self.recorder = None
        self.expected: dict[str, list[str]] | None = None

    def setup(self, seed: int, workdir: Path) -> dict[str, float]:
        start = time.perf_counter()
        from repro.backends import run_spec, run_specs
        from repro.exec import default_executor
        from repro.exec.client import ServeClient
        from repro.exec.serve import ServerThread
        from repro.exec.wire import spec_from_wire
        from repro.perf.cache import configure_cache

        imported = time.perf_counter()
        self._run_spec = run_spec
        self._executor = default_executor()
        self.store = workdir / "store"
        if self.store.exists():
            shutil.rmtree(self.store)
        self.store.mkdir(parents=True)
        configure_cache(self.store)
        self.plan = replay_plan(seed)
        self.mix = self.plan.mix
        self.pool_specs = {
            backend: [spec_from_wire(wire) for wire in wires]
            for backend, wires in self.plan.pool.items()
        }
        self.warm = {
            backend: run_specs(specs, backend, batch=True)
            for backend, specs in self.pool_specs.items()
        }
        warmed = time.perf_counter()
        self.server = ServerThread(port=0)
        self.client = ServeClient(port=self.server.start())
        bound = time.perf_counter()
        self.requests = 0
        self.specs_served = 0
        self.computed_before = self._executor.snapshot()["computed"]
        return {"import_s": imported - start, "store_warm_s": warmed - imported,
                "server_bind_s": bound - warmed}

    def op(self, tally: Tally) -> tuple[float, float, dict[str, float]]:
        from repro.exec.client import ServeError

        if self.expected is None:
            self.expected = {
                backend: [digest_trace(trace) for trace in traces]
                for backend, traces in self.warm.items()
            }
            del self.warm
        number = self.requests
        self.requests += 1
        backend, indices = self.plan.requests[number % len(self.plan.requests)]
        wires = [self.plan.pool[backend][i] for i in indices]
        if self.recorder is not None:
            self.recorder.request = number
        tally.attempt()
        start, start_cpu = clocks()
        try:
            traces = self.client.run_specs(wires, backend=backend, skip_errors=True)
        except (ServeError, OSError) as exc:
            traces = None
            tally.fail(f"request {number}: {type(exc).__name__}: {exc}")
        end, end_cpu = clocks()
        if self.recorder is not None:
            self.recorder.request = None
        self.specs_served += len(wires)
        if traces is not None:
            got = [None if t is None else digest_trace(t) for t in traces]
            want = [self.expected[backend][i] for i in indices]
            if got != want:
                tally.fail(f"request {number}: traces differ from the warm store's")
        return end - start, end_cpu - start_cpu, {}

    def finish(self, tally: Tally) -> None:
        """Nothing computed while serving; the pool matches a serial recompute."""
        computed = self._executor.snapshot()["computed"] - self.computed_before
        tally.attempt()
        if computed:
            tally.fail(f"the replay computed {computed} specs; the store should serve all")
        for backend, specs in self.pool_specs.items():
            for index, spec in enumerate(specs):
                tally.attempt()
                tally.check(f"pool {backend}[{index}]",
                            digest_trace(self._run_spec(spec, backend, use_cache=False)),
                            self.expected[backend][index])

    def counters(self) -> dict[str, float]:
        if self.server is None:
            return {}
        return {"exec.serve.requests": float(self.server.server.stats()["server"]["requests"])}

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        _store_off()
        shutil.rmtree(self.store, ignore_errors=True)


WORKLOADS = {
    workload.name: workload
    for workload in (PaperArtifacts, SpecGridBatched, ServeWarmReplay)
}
