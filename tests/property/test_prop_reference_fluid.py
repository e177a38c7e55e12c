"""Property: the fluid step loop is bit-identical to the frozen reference.

``reference_fluid.py`` keeps the per-sender loop as it stood before it
was tightened. For generated scenarios covering every registered
protocol family (stateful ones included), one to four senders, ECN-step
and RED links, staggered starts, link changes, unsynchronized loss,
integer windows, every loss process and both settings of
``enforce_loss_based``, :meth:`FluidSimulator.run` must reproduce all
seven trace arrays of the reference as raw uint64 bit patterns, or fail
with the same error.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.dynamics import DEFAULT_MAX_WINDOW, FluidSimulator, SimulationConfig
from repro.model.events import EventSchedule
from repro.model.link import Link
from repro.model.random_loss import (
    BernoulliLoss,
    GilbertElliottLoss,
    NoLoss,
    TraceLoss,
)
from repro.model.sender import Observation
from repro.protocols import make_protocol
from repro.protocols.base import Protocol
from repro.protocols.presets import reno
from repro.protocols.probe import ProbeAndHold
from repro.protocols.registry import available_protocols
from repro.protocols.slow_start import SlowStartWrapper

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


class _ObservationEcho(Protocol):
    """Folds every Observation field into its next window.

    The registered protocols each read only some fields (a loss-based one
    never reads the RTT), so a wrong RTT, min-RTT, step or ECN fraction
    could pass unseen; this one makes every field reach the trace.
    """

    def __init__(self, loss_based: bool) -> None:
        self.loss_based = loss_based

    def next_window(self, obs: Observation) -> float:
        return (
            obs.window * (1.0 - 0.5 * obs.loss_rate - 0.25 * obs.ecn_fraction)
            + 2.0 * obs.rtt - obs.min_rtt + (obs.step % 3)
        )


#: Every preset of the registry (one per family, with CUBIC, Vegas-like,
#: PCC-like, LEDBAT and DCTCP among the stateful ones), the one family
#: without a preset, the slow-start wrapper, and the observation echo in
#: its loss-based and delay-based forms.
_FACTORIES = {
    **{name: (lambda name=name: make_protocol(name))
       for name in available_protocols()["presets"]},
    "probe-and-hold": ProbeAndHold,
    "slow-start-reno": lambda: SlowStartWrapper(reno()),
    "echo-loss-based": lambda: _ObservationEcho(loss_based=True),
    "echo-delay-based": lambda: _ObservationEcho(loss_based=False),
}

_LOSS_PROCESSES = {
    "none": lambda seed: NoLoss(),
    "bernoulli": lambda seed: BernoulliLoss(0.005),
    "bernoulli-random": lambda seed: BernoulliLoss(
        0.02, deterministic=False, seed=seed
    ),
    "gilbert-elliott": lambda seed: GilbertElliottLoss(
        p_gb=0.05, p_bg=0.3, loss_bad=0.05, seed=seed
    ),
    "trace": lambda seed: TraceLoss([0.0, 0.0, 0.01, 0.0, 0.03]),
}


def _link(bandwidth: float, buffer_mss: float, marking: str) -> Link:
    base = Link.from_mbps(bandwidth, 42, buffer_mss)
    if marking == "ecn":
        return Link(base.bandwidth, base.theta, buffer_mss,
                    ecn_threshold=0.25 * buffer_mss)
    if marking == "red":
        return Link(base.bandwidth, base.theta, buffer_mss,
                    red_min_threshold=0.2 * buffer_mss,
                    red_max_threshold=0.6 * buffer_mss,
                    red_max_mark=0.5, red_gentle=True)
    return base


def _outcome(run):
    try:
        return run()
    except ValueError as exc:
        return exc


@st.composite
def _scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    names = draw(st.lists(st.sampled_from(sorted(_FACTORIES)),
                          min_size=n, max_size=n))
    link = _link(
        draw(st.sampled_from([5.0, 20.0, 60.0])),
        draw(st.sampled_from([5.0, 40.0, 100.0])),
        draw(st.sampled_from(["none", "ecn", "red"])),
    )
    steps = draw(st.integers(min_value=1, max_value=250))
    seed = draw(st.integers(min_value=0, max_value=2**16))

    schedule = EventSchedule()
    for sender in range(n):
        if draw(st.booleans()):
            schedule.add_sender_start(
                sender,
                draw(st.integers(min_value=0, max_value=steps)),
                draw(st.sampled_from([0.0, 1.0, 7.5])),
            )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        schedule.add_link_change(
            draw(st.integers(min_value=0, max_value=steps)),
            link.with_bandwidth(link.bandwidth * draw(st.sampled_from([0.5, 2.0]))),
        )

    config = SimulationConfig(
        initial_windows=draw(st.lists(
            st.sampled_from([0.0, 1.0, 2.5, 30.0, 200.0]), min_size=n, max_size=n
        )),
        min_window=draw(st.sampled_from([0.0, 1.0, 1.5])),
        max_window=draw(st.sampled_from([DEFAULT_MAX_WINDOW, 80.0])),
        integer_windows=draw(st.booleans()),
        loss_process=_LOSS_PROCESSES[draw(st.sampled_from(sorted(_LOSS_PROCESSES)))](seed),
        schedule=schedule,
        enforce_loss_based=draw(st.booleans()),
        unsynchronized_loss=draw(st.booleans()),
        seed=seed,
    )
    return link, [_FACTORIES[name]() for name in names], config, steps


@settings(max_examples=150, deadline=None)
@given(scenario=_scenarios())
def test_fluid_run_matches_frozen_reference(scenario):
    link, protocols, config, steps = scenario
    sim = FluidSimulator(link, protocols, config)
    reference = ReferenceFluidSimulator(link, protocols, config, sim._initial)

    got = _outcome(lambda: sim.run(steps))
    want = _outcome(lambda: reference.run(steps))
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
        return
    for name in _TRACE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        # view(uint64) compares exact bit patterns; NaN == NaN included.
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
