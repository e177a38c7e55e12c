"""The repository benchmark: one workload per run, end to end or per layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json
    python3 perfbench/run.py --write-reference

A run is one fresh process. It first times ``SETUP_PROBES`` set-ups,
each in a fresh child process from interpreter launch until the stores
are warm and the server is bound (``setup_s`` is the median of the CPU
time each child had used by then), then sets up itself and repeats
whole units of work until ``--seconds`` have passed, checking every
output. ``cpu_s`` is the median CPU time of one unit of work. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
spends the first half of the time untraced and the second half with
span wrappers installed, and reports the per-layer metrics and the
tracing overhead. A readable table comes first; the last line of
standard output is the JSON result. The exit code is 0 only when every
output checked out.

``setup_s`` and ``cpu_s`` are CPU time, not wall time, because the
benchmark runs on a few cores of a shared host: a run that other
processes keep off the cores reads up to twice as slow in wall time,
while its CPU time stays within a few percent. Wall times are printed
beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import definition
import source

HERE = Path(__file__).resolve()
#: glibc's ``mallopt`` parameter for the most malloc arenas a process uses.
M_ARENA_MAX = -8


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def single_malloc_arena() -> None:
    """Pin glibc's malloc to one arena, before any thread starts.

    The server runs each request's work on asyncio's default thread pool,
    which starts two to six threads depending on timing, and glibc may
    give each new thread an arena of its own: peak RSS of one seed read
    62 MB in one run and 72 MB in the next. With one arena ``peak_rss_mb``
    follows what the program allocates, not how many threads it started.
    """
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except (OSError, AttributeError):
        pass  # not glibc: there is no arena count to pin


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload: str, seed: int, workdir: Path) -> dict[str, float]:
    """One set-up in a fresh process: its CPU and wall seconds from launch,
    and its parts."""
    command = [sys.executable, str(HERE), "--setup-probe", "--workload", workload,
               "--seed", str(seed), "--workdir", str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        assert child.stdout is not None
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait(timeout=120)
    shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited with code {code}")
    parts = json.loads(line)
    return {"setup_s": parts.pop("cpu_s"), "setup_wall_s": ready - start, **parts}


def timed_phase(workload, tally, seconds: float, min_ops: int):
    """Whole units of work until ``seconds`` pass (and at least ``min_ops``)."""
    walls: list[float] = []
    cpus: list[float] = []
    samples: dict[str, list[float]] = {group: [] for group in workload.groups}
    start = time.perf_counter()
    while len(walls) < min_ops or time.perf_counter() - start < seconds:
        wall, cpu, extra = workload.op(tally)
        walls.append(wall)
        cpus.append(cpu)
        for group, value in extra.items():
            samples[group].append(value)
    return walls, cpus, samples


def report_rows(workload, walls, cpus, samples, probes) -> list[tuple]:
    """(name, unit, values) for every metric the run prints."""
    rows = [
        ("setup_s", "s", [p["setup_s"] for p in probes]),
        ("setup_wall_s", "s", [p["setup_wall_s"] for p in probes]),
        ("cpu_s", "s", cpus),
        ("wall_s", "s", walls),
        ("peak_rss_mb", "MB", [peak_rss_mb()]),
    ]
    for group, values in samples.items():
        unit = "1/s" if group.endswith("_per_s") else "s"
        rows.append((group, unit, values))
    if workload.name == "serve-warm-replay":
        total = sum(walls)
        rows += [
            ("requests_per_s", "1/s", [len(walls) / total]),
            ("specs_per_s", "1/s", [workload.specs_served / total]),
            ("request_p50_ms", "ms", [statistics.median(walls) * 1e3]),
            ("request_p90_ms", "ms", [statistics.quantiles(walls, n=10)[-1] * 1e3]),
        ]
    return rows


def print_table(title: str, rows: list[tuple]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<38}{'median':>14}{'q1':>14}{'q3':>14}{'n':>6}  unit")
    for name, unit, values in rows:
        q1, median, q3 = quartiles(values)
        print(f"  {name:<38}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(values):>6}  {unit}")


def run(args: argparse.Namespace) -> int:
    from checks import Tally
    from workloads import WORKLOADS

    workload_class = WORKLOADS[args.workload]
    work = source.WORK / f"{os.getpid()}"
    probes = [
        setup_probe(args.workload, args.seed, work / f"probe-{i}")
        for i in range(definition.SETUP_PROBES)
    ]
    workload = workload_class()
    tally = Tally()
    try:
        workload.setup(args.seed, work / "main")
        untraced_seconds = args.seconds / 2 if args.trace else args.seconds
        walls, cpus, samples = timed_phase(workload, tally, untraced_seconds,
                                           workload.min_ops)
        rows = report_rows(workload, walls, cpus, samples, probes)
        if args.trace:
            layers, traced_walls = traced_phase(workload, tally, args, walls, probes)
        workload.finish(tally)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            source.WORK.rmdir()
        except OSError:
            pass

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"inputs: {json.dumps(workload.mix, sort_keys=True)}")
    print_table("end to end (untraced)", rows)
    if workload.name == "serve-warm-replay":
        p90 = statistics.quantiles(walls, n=10)[-1]
        beyond = sum(1 for wall in walls if wall > p90)
        print(f"  request_p90_ms rests on {len(walls)} requests, {beyond} beyond it")
    print(f"  error_rate = {tally.failed}/{tally.attempted} = {tally.error_rate:.6g}")
    for error in tally.errors[:20]:
        print(f"  FAILED {error}")

    if args.trace:
        print(f"\nper layer (traced, {len(traced_walls)} ops; counts and times per op)")
        units = {name: unit for name, unit, _ in definition.PER_LAYER}
        for name, value in layers.items():
            print(f"  {name:<40}{value:>16.6g}  {units[name]}")
        print("\nlayer -> metric it should move (workload)")
        for layer, moves, where in definition.LAYER_MAP:
            print(f"  {layer:<38}-> {moves} ({where})")
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        values = {name: quartiles(v)[1] for name, _unit, v in rows}
        metrics = {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in definition.END_TO_END
        }
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_phase(workload, tally, args, untraced_walls, probes):
    """The second half of a traced run: spans on, counters read around it."""
    import spans

    recorder = spans.SpanRecorder()
    patcher = spans.Patcher(recorder)
    before = spans.snapshot(workload.counters())
    patcher.install()
    workload.recorder = recorder
    try:
        walls, _cpus, _samples = timed_phase(workload, tally, args.seconds / 2, 1)
    finally:
        patcher.restore()
        workload.recorder = None
    after = spans.snapshot(workload.counters())
    layers = spans.layer_metrics(recorder, before, after, len(walls))
    for part in ("import_s", "store_warm_s", "server_bind_s"):
        layers[f"setup.{part}"] = statistics.median(p[part] for p in probes)
    layers["trace.ops"] = float(len(walls))
    layers["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced_walls)
    source.OUT.mkdir(exist_ok=True)
    out = source.OUT / f"spans-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(recorder.as_jsonable()), encoding="utf-8")
    ordered = {name: layers[name] for name, _unit, _better in definition.PER_LAYER}
    return ordered, walls


def probe_main(args: argparse.Namespace) -> int:
    """A set-up probe: set up, report the parts, tear down."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    try:
        parts = workload.setup(args.seed, Path(args.workdir))
        parts["cpu_s"] = time.process_time()
        print(json.dumps(parts), flush=True)
    finally:
        workload.close()
    return 0


def write_reference() -> int:
    """Record the paper artifacts' digests at the benchmark's horizon."""
    from workloads import HORIZON, REFERENCE, PaperArtifacts

    workload = PaperArtifacts()
    workload.setup(0, source.WORK)
    digests = workload.outputs()
    REFERENCE.write_text(json.dumps({"horizon": HORIZON, "digests": digests},
                                    indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in definition.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=definition.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from perfbench/definition.py")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-record the paper artifacts' reference digests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    single_malloc_arena()
    if args.write_benchmark_json:
        path = source.ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(definition.benchmark_json(), indent=2) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
        return 0
    source.use_source_tree()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return probe_main(args)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
