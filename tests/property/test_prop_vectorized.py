"""Property: homogeneous sender groups run bit-identical to the per-sender loop.

A homogeneous group (one AIMD, MIMD or robust-AIMD instance shared by
every sender, no schedule, deterministic loss) is the shape a vectorized
step would be tempted to special-case. :meth:`FluidSimulator.run` has one
loop for every configuration, and for these groups it must produce
exactly the same float64 arrays as the frozen per-sender reference in
``reference_fluid.py``, not merely close ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.link import Link
from repro.model.random_loss import BernoulliLoss
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD

from reference_fluid import ReferenceFluidSimulator

_TRACE_ARRAYS = (
    "windows",
    "observed_loss",
    "congestion_loss",
    "rtts",
    "capacities",
    "pipe_limits",
    "base_rtts",
)


def _assert_traces_bit_identical(got, want):
    for name in _TRACE_ARRAYS:
        a = getattr(got, name)
        b = getattr(want, name)
        assert a.shape == b.shape, name
        # view(uint64) compares exact bit patterns; NaN == NaN included.
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name


def _run_both(link, protocol, n, initial, steps, loss_rate=0.0):
    loss = {"loss_process": BernoulliLoss(loss_rate)} if loss_rate else {}
    config = SimulationConfig(initial_windows=initial, **loss)
    sim = FluidSimulator(link, [protocol] * n, config)
    reference = ReferenceFluidSimulator(link, [protocol] * n, config, sim._initial)
    return sim.run(steps), reference.run(steps)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=5.0),
    b=st.floats(min_value=0.1, max_value=0.9),
    n=st.integers(min_value=1, max_value=5),
    bw=st.floats(min_value=5.0, max_value=200.0),
    buffer_mss=st.floats(min_value=1.0, max_value=500.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_aimd_fast_path_bit_identical(a, b, n, bw, buffer_mss, seed):
    link = Link.from_mbps(bw, 42, buffer_mss)
    rng = np.random.default_rng(seed)
    initial = [float(w) for w in rng.uniform(1.0, 50.0, size=n)]
    got, want = _run_both(link, AIMD(a, b), n, initial, steps=300)
    _assert_traces_bit_identical(got, want)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=1.001, max_value=1.2),
    b=st.floats(min_value=0.5, max_value=0.99),
    n=st.integers(min_value=1, max_value=5),
    bw=st.floats(min_value=5.0, max_value=200.0),
)
def test_mimd_fast_path_bit_identical(a, b, n, bw):
    link = Link.from_mbps(bw, 42, 100)
    initial = [1.0 + 3.0 * i for i in range(n)]
    got, want = _run_both(link, MIMD(a, b), n, initial, steps=300)
    _assert_traces_bit_identical(got, want)


@settings(max_examples=15, deadline=None)
@given(
    epsilon=st.floats(min_value=0.001, max_value=0.2),
    loss_rate=st.floats(min_value=0.0, max_value=0.1),
    n=st.integers(min_value=1, max_value=4),
)
def test_robust_aimd_fast_path_bit_identical_under_random_loss(
    epsilon, loss_rate, n
):
    link = Link.from_mbps(20, 42, 100)
    initial = [1.0] * n
    got, want = _run_both(
        link, RobustAIMD(1.0, 0.8, epsilon), n, initial, steps=300,
        loss_rate=loss_rate,
    )
    _assert_traces_bit_identical(got, want)
