"""Property-based tests for statistics and Pareto machinery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.dominance import dominates, pareto_front
from repro.analysis.stats import convergence_alpha, jain_index, min_over_max

# Zero is a legitimate throughput, but subnormal values are excluded:
# scaling a denormal (e.g. 5e-324 * 0.5) underflows to zero and genuinely
# changes the Jain index, which is float artifact, not unfairness.
positive_series = arrays(
    dtype=float,
    shape=st.integers(min_value=1, max_value=40),
    elements=st.one_of(
        st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)
    ),
)


@given(values=positive_series)
def test_jain_index_bounds(values):
    n = values.size
    assert 1.0 / n - 1e-12 <= jain_index(values) <= 1.0 + 1e-12


@given(values=positive_series, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_jain_scale_invariance(values, scale):
    assert jain_index(values * scale) == pytest.approx(jain_index(values), abs=1e-9)


@given(values=positive_series)
def test_min_over_max_bounds(values):
    assert 0.0 <= min_over_max(values) <= 1.0


@given(values=positive_series)
def test_convergence_alpha_bounds(values):
    alpha = convergence_alpha(values)
    assert 0.0 <= alpha <= 1.0


@given(values=positive_series)
def test_convergence_alpha_band_is_valid_witness(values):
    # The witness x* = (min+max)/2 satisfies the Metric V band inequality.
    alpha = convergence_alpha(values)
    x_star = (values.min() + values.max()) / 2.0
    if x_star > 0:
        assert values.min() >= alpha * x_star - 1e-9
        assert values.max() <= (2.0 - alpha) * x_star + 1e-9


points_strategy = st.lists(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
    min_size=1,
    max_size=25,
)


@given(points=points_strategy)
def test_front_members_are_mutually_non_dominated(points):
    front = pareto_front(points)
    for i in front:
        for j in front:
            if i != j:
                assert not dominates(points[i], points[j])


@given(points=points_strategy)
def test_non_members_are_dominated_by_someone(points):
    front = set(pareto_front(points))
    for index, point in enumerate(points):
        if index not in front:
            assert any(dominates(points[j], point) for j in range(len(points)))


@given(points=points_strategy)
def test_front_is_never_empty(points):
    assert pareto_front(points)


@given(
    p=st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=6),
)
def test_dominance_irreflexive(p):
    assert not dominates(p, p)


@given(
    pair=st.lists(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4),
        min_size=2, max_size=2,
    )
)
def test_dominance_asymmetric(pair):
    p, q = pair
    if dominates(p, q):
        assert not dominates(q, p)


def _pairwise_front(points, tol):
    """The definition: ``i`` survives unless some ``j != i`` dominates it."""
    return [
        i for i in range(len(points))
        if not any(
            dominates(points[j], points[i], tol) for j in range(len(points)) if j != i
        )
    ]


#: Coarse coordinates make ties and duplicate points common; NaN and
#: infinities exercise the comparisons' unordered cases.
coarse_coordinate = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.5, 1e-4]),
)


@given(
    n_dims=st.integers(min_value=1, max_value=4),
    data=st.data(),
    tol=st.one_of(st.just(0.0), st.sampled_from([1e-4, 0.5, 1.0, 2.5])),
)
def test_pareto_front_matches_pairwise_definition(n_dims, data, tol):
    points = data.draw(
        st.lists(
            st.lists(coarse_coordinate, min_size=n_dims, max_size=n_dims),
            min_size=1,
            max_size=20,
        )
    )
    if data.draw(st.booleans()):
        points = points + points[: data.draw(st.integers(0, len(points)))]
    assert pareto_front(points, tol) == _pairwise_front(points, tol)
