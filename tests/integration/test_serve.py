"""End-to-end ``repro serve``: wire formats, dedup guarantees, concurrency."""

from __future__ import annotations

import json
import math
import threading

import numpy as np
import pytest

from repro.backends import ScenarioSpec, run_spec
from repro.exec import Executor
from repro.exec.client import ServeClient, ServeError
from repro.exec.serve import ServerThread
from repro.exec.wire import (
    decode_trace,
    encode_trace,
    spec_from_wire,
    spec_to_wire,
)
from repro.model.link import Link
from repro.perf.cache import cache_enabled
from repro.protocols.aimd import AIMD

_TRACE_FIELDS = ("windows", "observed_loss", "congestion_loss", "rtts",
                 "capacities", "pipe_limits", "base_rtts", "flow_rtts")


def _assert_bit_identical(a, b) -> None:
    for name in _TRACE_FIELDS:
        x = np.ascontiguousarray(getattr(a, name))
        y = np.ascontiguousarray(getattr(b, name))
        assert x.shape == y.shape, name
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


def _wire(alpha: float) -> dict:
    return spec_to_wire([f"AIMD({alpha},0.5)", f"AIMD({alpha},0.5)"],
                        20, 42, 100, steps=32)


def _local(alpha: float):
    spec = ScenarioSpec(
        protocols=[AIMD(alpha, 0.5)] * 2,
        link=Link.from_mbps(20, 42, 100),
        steps=32,
    )
    return run_spec(spec, "fluid", use_cache=False)


class TestWireFormats:
    def test_spec_round_trip(self):
        wire = _wire(1.0)
        spec = spec_from_wire(wire)
        from repro.protocols import make_protocol

        expected = make_protocol("AIMD(1.0,0.5)").name
        assert [p.name for p in spec.protocols] == [expected] * 2
        assert spec.steps == 32
        _assert_bit_identical(run_spec(spec, "fluid", use_cache=False),
                              _local(1.0))

    def test_trace_codec_is_bit_identical(self):
        trace = _local(1.5)
        again = decode_trace(encode_trace(trace))
        _assert_bit_identical(trace, again)
        assert again.backend == trace.backend

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown wire spec key"):
            spec_to_wire(["reno"], 20, 42, 100, stepz=32)
        for key in ("bogus", "allow_vectorized"):
            wire = _wire(1.0)
            wire[key] = 1
            with pytest.raises(ValueError, match="unknown wire spec key"):
                spec_from_wire(wire)

    def test_nan_window_clamp_is_rejected(self):
        # Python's json accepts NaN, so a client can send one; a NaN bound
        # would otherwise disable the clamp without any error.
        wire = json.loads(json.dumps({**_wire(1.0), "min_window": float("nan")}))
        assert math.isnan(wire["min_window"])
        with pytest.raises(ValueError, match="window clamp"):
            spec_from_wire(wire)

    def test_missing_required_key_names_it(self):
        wire = _wire(1.0)
        del wire["rtt_ms"]
        with pytest.raises(ValueError, match="rtt_ms"):
            spec_from_wire(wire)


class TestServeEndToEnd:
    def test_concurrent_clients_dedup_to_one_computation(self, tmp_path):
        """The acceptance property: two concurrent clients submitting
        overlapping batches get bit-identical results while each unique
        spec is computed exactly once (store + in-flight dedup)."""
        batches = {
            "a": [_wire(1.0), _wire(2.0), _wire(1.0)],
            "b": [_wire(2.0), _wire(1.0)],
        }
        results: dict[str, list] = {}
        errors: list[BaseException] = []
        with cache_enabled(tmp_path):
            with ServerThread(executor=Executor()) as server:
                client = ServeClient(port=server.port)

                def drive(name: str) -> None:
                    try:
                        results[name] = client.run_specs(batches[name])
                    except Exception as exc:  # surfaced after join
                        errors.append(exc)

                threads = [
                    threading.Thread(target=drive, args=(name,))
                    for name in batches
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                stats = client.stats()
        assert errors == []
        # Each unique spec computed exactly once, no matter how the two
        # requests interleaved (in-flight waiters or store hits absorb
        # every repeat).
        assert stats["executor"]["computed"] == 2
        assert stats["executor"]["jobs"] == 5
        assert stats["server"] == {"requests": 2, "specs_received": 5}
        reference = {1.0: _local(1.0), 2.0: _local(2.0)}
        for name, alphas in (("a", [1.0, 2.0, 1.0]), ("b", [2.0, 1.0])):
            assert len(results[name]) == len(alphas)
            for trace, alpha in zip(results[name], alphas):
                _assert_bit_identical(trace, reference[alpha])

    def test_failing_spec_streams_an_error_line(self):
        # integer_windows is wire-expressible but the network backend
        # refuses it at lowering time: a genuine runtime failure.
        bad = spec_to_wire(["AIMD(1,0.5)"], 20, 42, 100, steps=32,
                           integer_windows=True)
        good = _wire(1.0)
        with ServerThread(executor=Executor()) as server:
            client = ServeClient(port=server.port)
            holes = client.run_specs([good, bad, good], backend="network",
                                     skip_errors=True)
            assert holes[1] is None
            assert holes[0] is not None and holes[2] is not None
            with pytest.raises(ServeError, match="failed on the server"):
                client.run_specs([bad], backend="network")

    def test_http_error_paths(self):
        with ServerThread(executor=Executor()) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError, match="HTTP 400"):
                client.run_specs([{"protocols": ["reno"]}])  # missing keys
            response = client._request("GET", "/nope")
            assert response.status == 404
            response = client._request("PUT", "/run")
            assert response.status == 405
            stats = client.stats()
            assert stats["server"]["requests"] == 0  # no /run succeeded

    def test_batch_lane_matches_local_batched_run(self, tmp_path):
        wires = [_wire(1.0), _wire(1.5), _wire(2.0)]
        with cache_enabled(tmp_path):
            with ServerThread(executor=Executor()) as server:
                client = ServeClient(port=server.port)
                served = client.run_specs(wires, batch=True)
        for trace, alpha in zip(served, (1.0, 1.5, 2.0)):
            _assert_bit_identical(trace, _local(alpha))


@pytest.mark.slow
class TestServeStress:
    def test_many_clients_heavy_overlap(self, tmp_path):
        """Six clients hammer one server with overlapping batches; every
        result is bit-identical and each unique spec computes once."""
        alphas = [round(1.0 + 0.25 * i, 2) for i in range(8)]
        reference = {alpha: _local(alpha) for alpha in alphas}
        client_batches = [
            [alphas[(start + j) % len(alphas)] for j in range(5)]
            for start in range(6)
        ]
        results: dict[int, list] = {}
        errors: list[BaseException] = []
        with cache_enabled(tmp_path):
            with ServerThread(executor=Executor()) as server:

                def drive(slot: int) -> None:
                    try:
                        client = ServeClient(port=server.port)
                        results[slot] = client.run_specs(
                            [_wire(a) for a in client_batches[slot]]
                        )
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=drive, args=(slot,))
                    for slot in range(len(client_batches))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                stats = ServeClient(port=server.port).stats()
        assert errors == []
        assert stats["executor"]["computed"] == len(alphas)
        for slot, batch in enumerate(client_batches):
            for trace, alpha in zip(results[slot], batch):
                _assert_bit_identical(trace, reference[alpha])
