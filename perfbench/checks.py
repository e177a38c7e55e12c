"""Output checks: bit-exact digests and the tally behind ``error_rate``."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any


def digest_jsonable(value: Any) -> str:
    """SHA-256 of a result's canonical JSON (floats by exact repr)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digest_arrays(arrays: dict[str, Any]) -> str:
    """SHA-256 over every array's name, dtype, shape and raw bytes."""
    import numpy as np

    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}|{array.dtype.str}|{array.shape}|".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def digest_trace(trace: Any) -> str:
    """Digest of a UnifiedTrace in the store's own array layout."""
    from repro.perf.store import trace_to_arrays

    return digest_arrays(trace_to_arrays(trace))


@dataclass
class Tally:
    """Checked outputs: everything attempted, and what failed or was wrong."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors.append(reason)

    def check(self, what: str, got: str | None, expected: str) -> None:
        if got != expected:
            self.fail(f"{what}: digest {got} != expected {expected}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
