"""Property: the batched mean-field kernel is bit-identical to the serial engine.

Same contract as ``test_prop_batch.py``, one level up the abstraction
ladder: stacking compatible density scenarios into one ``(batch, cells)``
mass array and advancing them together must reproduce, scenario for
scenario, the exact float64 bits of the serial
``run_spec(spec, "meanfield")`` path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ScenarioSpec, run_spec
from repro.backends.batch import (
    plan_meanfield_batches,
    run_meanfield_specs_batched,
)
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD

_TRACE_ARRAYS = ("windows", "observed_loss", "congestion_loss", "rtts")


def _assert_bit_identical(batched, serial):
    for name in _TRACE_ARRAYS:
        a = np.ascontiguousarray(getattr(batched, name))
        b = np.ascontiguousarray(getattr(serial, name))
        assert a.shape == b.shape, name
        # view(uint64) compares exact bit patterns; NaN == NaN included.
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def _check_sweep(specs):
    batched = run_meanfield_specs_batched(specs, use_cache=False)
    for spec, trace in zip(specs, batched):
        _assert_bit_identical(
            trace, run_spec(spec, "meanfield", use_cache=False)
        )


def _protocol(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return AIMD(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.2, 0.9)))
    if kind == 1:
        return MIMD(float(rng.uniform(1.001, 1.1)), float(rng.uniform(0.5, 0.99)))
    return RobustAIMD(
        float(rng.uniform(0.1, 2.0)),
        float(rng.uniform(0.3, 0.95)),
        float(rng.uniform(0.001, 0.2)),
    )


def _sweep_specs(seed, grid=5, steps=150, unsynchronized=False, loss_rate=0.0):
    """One population per scenario (the batch-eligible shape), varied link."""
    rng = np.random.default_rng(seed)
    return [
        ScenarioSpec.from_mbps(
            float(rng.uniform(5, 150)), 42, float(rng.uniform(20, 300)),
            [_protocol(rng)],
            steps=steps,
            flow_multiplicity=int(rng.integers(2, 50)),
            unsynchronized_loss=unsynchronized,
            random_loss_rate=loss_rate,
        )
        for _ in range(grid)
    ]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    steps=st.integers(min_value=16, max_value=250),
)
def test_synchronized_sweep_bit_identical(seed, steps):
    specs = _sweep_specs(seed, steps=steps)
    _check_sweep(specs)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    loss_rate=st.floats(min_value=0.0, max_value=0.03),
)
def test_unsynchronized_sweep_with_random_loss_bit_identical(seed, loss_rate):
    specs = _sweep_specs(
        seed, grid=4, steps=120, unsynchronized=True, loss_rate=loss_rate
    )
    _check_sweep(specs)


def test_mixed_feedback_modes_split_into_groups():
    """Sync and unsync scenarios batch separately but all stay identical."""
    sync = _sweep_specs(3, grid=3, steps=100)
    unsync = _sweep_specs(4, grid=2, steps=100, unsynchronized=True)
    specs = sync + unsync
    plan = plan_meanfield_batches(specs)
    assert not plan.fallback
    assert len(plan.groups) >= 2
    _check_sweep(specs)
