"""Property-based tests for the multi-link network model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.link import Link
from repro.netmodel import NetworkFluidSimulator, parking_lot, single_link
from repro.protocols.aimd import AIMD
from repro.protocols.mimd import MIMD
from repro.protocols.robust_aimd import RobustAIMD

link_params = st.fixed_dictionaries(
    {
        "bw": st.floats(min_value=5.0, max_value=100.0),
        "buffer_mss": st.floats(min_value=1.0, max_value=200.0),
        "a": st.floats(min_value=0.25, max_value=3.0),
        "b": st.floats(min_value=0.2, max_value=0.9),
        "n": st.integers(min_value=1, max_value=3),
    }
)

#: One flow's protocol for the single-link reduction: AIMD, MIMD or
#: Robust-AIMD (the batchable families), each with its own constants.
protocol_strategy = st.one_of(
    st.builds(
        AIMD,
        st.floats(min_value=0.25, max_value=3.0),
        st.floats(min_value=0.2, max_value=0.9),
    ),
    st.builds(
        MIMD,
        st.floats(min_value=1.001, max_value=1.1),
        st.floats(min_value=0.5, max_value=0.99),
    ),
    st.builds(
        RobustAIMD,
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.3, max_value=0.95),
        st.floats(min_value=0.001, max_value=0.2),
    ),
)


def _bits(array):
    return np.ascontiguousarray(array).view(np.uint64)


@settings(max_examples=15, deadline=None)
@given(
    bw=st.floats(min_value=5.0, max_value=100.0),
    buffer_mss=st.floats(min_value=1.0, max_value=200.0),
    protocols=st.lists(protocol_strategy, min_size=1, max_size=4),
    steps=st.sampled_from([200, 1000]),
)
def test_single_link_reduction_is_exact(bw, buffer_mss, protocols, steps):
    """The network model on one link IS the paper's base model, bit for bit."""
    link = Link.from_mbps(bw, 42, buffer_mss)
    n = len(protocols)
    reference = FluidSimulator(
        link, protocols, SimulationConfig(initial_windows=[1.0] * n)
    ).run(steps)
    network = NetworkFluidSimulator(
        single_link(link, n), protocols, initial_windows=[1.0] * n,
    ).run(steps)
    assert np.array_equal(_bits(network.windows), _bits(reference.windows))
    assert np.array_equal(_bits(network.flow_loss), _bits(reference.observed_loss))


@settings(max_examples=15, deadline=None)
@given(
    params=link_params,
    hops=st.integers(min_value=2, max_value=4),
)
def test_parking_lot_invariants(params, hops):
    link = Link.from_mbps(params["bw"], 42, params["buffer_mss"])
    topo = parking_lot(link, hops)
    sim = NetworkFluidSimulator(
        topo, [AIMD(params["a"], params["b"])] * topo.n_flows
    )
    trace = sim.run(250)
    # Physicality: loss in [0, 1), RTT at least the propagation floor,
    # per-link load equals the sum of the windows crossing it.
    assert (trace.flow_loss >= 0).all() and (trace.flow_loss < 1).all()
    assert (trace.flow_rtts >= trace.base_rtts[None, :] - 1e-12).all()
    long_flow_load = trace.windows[:, 0]
    for hop in range(hops):
        short_flow = trace.windows[:, 1 + hop]
        np.testing.assert_allclose(
            trace.link_load[:, hop], long_flow_load + short_flow
        )
    # The long flow's loss is never below any of its hops' losses.
    per_hop_max = trace.link_loss.max(axis=1)
    assert (trace.flow_loss[:, 0] >= per_hop_max - 1e-12).all()


@settings(max_examples=10, deadline=None)
@given(params=link_params)
def test_network_model_deterministic(params):
    link = Link.from_mbps(params["bw"], 42, params["buffer_mss"])
    topo = parking_lot(link, 2)

    def run():
        sim = NetworkFluidSimulator(
            topo, [AIMD(params["a"], params["b"])] * topo.n_flows
        )
        return sim.run(100).windows

    np.testing.assert_array_equal(run(), run())
