"""Pareto dominance machinery (repro.analysis.dominance)."""

import numpy as np
import pytest

from repro.analysis.dominance import dominates, is_on_front, pareto_front


class TestDominates:
    def test_strict_dominance(self):
        assert dominates([2, 2], [1, 1])

    def test_partial_improvement_dominates(self):
        assert dominates([2, 1], [1, 1])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_tradeoff_points_incomparable(self):
        assert not dominates([2, 0], [0, 2])
        assert not dominates([0, 2], [2, 0])

    def test_antisymmetric(self):
        assert dominates([3, 3], [1, 2])
        assert not dominates([1, 2], [3, 3])

    def test_tolerance_absorbs_noise(self):
        # A 1e-6 deficit in one coordinate is ignored at tol=1e-3.
        assert dominates([1.0, 2.0 - 1e-6], [0.5, 2.0], tol=1e-3)

    def test_tolerance_requires_meaningful_gain(self):
        assert not dominates([1.0005, 1.0], [1.0, 1.0], tol=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates([1, 2], [1, 2, 3])

    def test_negative_tolerance(self):
        with pytest.raises(ValueError):
            dominates([1], [0], tol=-1)


class TestParetoFront:
    def test_single_point(self):
        assert pareto_front([[1, 1]]) == [0]

    def test_chain_keeps_maximum(self):
        points = [[1, 1], [2, 2], [3, 3]]
        assert pareto_front(points) == [2]

    def test_tradeoff_keeps_all(self):
        points = [[3, 0], [2, 1], [1, 2], [0, 3]]
        assert pareto_front(points) == [0, 1, 2, 3]

    def test_mixed(self):
        points = [[3, 0], [1, 1], [2, 2], [0, 3]]
        assert pareto_front(points) == [0, 2, 3]

    def test_duplicates_all_kept(self):
        points = [[1, 1], [1, 1]]
        assert pareto_front(points) == [0, 1]

    def test_input_must_be_2d(self):
        with pytest.raises(ValueError):
            pareto_front([1, 2, 3])

    @pytest.mark.parametrize("points", [np.empty((0, 2)), [[1.0, 2.0]], [[1.0], [2.0]]])
    def test_negative_tolerance_any_size(self, points):
        with pytest.raises(ValueError, match="tol must be non-negative"):
            pareto_front(points, tol=-1e-9)

    def test_nan_coordinates_never_dominate_or_lose(self):
        points = [[float("nan"), 0.0], [1.0, 1.0], [0.0, 0.0]]
        assert pareto_front(points) == [0, 1]

    def test_chunked_rows_match_one_block(self, monkeypatch):
        import repro.analysis.dominance as dominance

        rng = np.random.default_rng(7)
        points = rng.integers(0, 4, size=(61, 3)).astype(float)
        whole = pareto_front(points)
        monkeypatch.setattr(dominance, "_FRONT_CHUNK_BYTES", 8 * 61 * 3 * 5)
        assert pareto_front(points) == whole


class TestIsOnFront:
    def test_undominated(self):
        assert is_on_front([2, 2], [[1, 1], [3, 0]])

    def test_dominated(self):
        assert not is_on_front([1, 1], [[2, 2]])

    def test_empty_others(self):
        assert is_on_front([0, 0], [])
