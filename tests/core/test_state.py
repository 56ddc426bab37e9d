"""MDP state tests: layout, normalization, masks.

These pin the frozen per-object state in ``_reference.py``;
``test_frontier_reference.py`` pins the frontier's stacked encoding to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import frontier

from ._reference import TIME_CLIP_BUDGETS, MDPState


class TestInitialState:
    def test_matches_paper_layout(self):
        state = MDPState.initial(np.array([10.0, 20.0, 30.0]))
        assert state.elapsed_ms == 0.0
        assert np.array_equal(state.estimated_times_ms, np.zeros(3))
        assert not state.explored.any()
        assert state.n_options == 3

    def test_remaining_and_explored(self):
        state = MDPState.initial(np.array([1.0, 2.0]))
        assert list(state.remaining()) == [0, 1]
        state.explored[0] = True
        assert list(state.remaining()) == [1]
        assert list(state.explored_indices()) == [0]


class TestVector:
    def test_layout_and_normalization(self):
        state = MDPState(
            elapsed_ms=100.0,
            estimation_costs_ms=np.array([50.0, 250.0]),
            estimated_times_ms=np.array([0.0, 1_000.0]),
        )
        vector = state.vector(tau_ms=500.0)
        assert vector.shape == (5,)
        assert vector[0] == pytest.approx(0.2)
        assert vector[1] == pytest.approx(0.1)
        assert vector[2] == pytest.approx(0.5)
        assert vector[3] == pytest.approx(0.0)
        assert vector[4] == pytest.approx(2.0)

    def test_clipping(self):
        state = MDPState(
            elapsed_ms=1e9,
            estimation_costs_ms=np.array([1e9]),
            estimated_times_ms=np.array([1e9]),
        )
        vector = state.vector(tau_ms=500.0)
        assert np.all(vector <= TIME_CLIP_BUDGETS)

    def test_vector_size_helper(self):
        assert MDPState.vector_size(8) == 17
        assert MDPState.vector_size(21) == 43
        # The production encoding has the same width and clip bound.
        assert frontier.state_size(21) == MDPState.vector_size(21)
        assert frontier.TIME_CLIP_BUDGETS == TIME_CLIP_BUDGETS

    def test_invalid_tau_raises(self):
        state = MDPState.initial(np.array([1.0]))
        with pytest.raises(ValueError):
            state.vector(0.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            MDPState(0.0, np.zeros(2), np.zeros(3))

    @given(
        st.integers(1, 12),
        st.floats(0.0, 1e5),
        st.floats(1.0, 1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_vector_bounds(self, n, elapsed, tau):
        rng = np.random.default_rng(0)
        state = MDPState(
            elapsed_ms=elapsed,
            estimation_costs_ms=rng.uniform(0, 1e5, n),
            estimated_times_ms=rng.uniform(0, 1e6, n),
        )
        vector = state.vector(tau)
        assert vector.shape == (1 + 2 * n,)
        assert np.all(vector >= 0.0)
        assert np.all(vector <= TIME_CLIP_BUDGETS)


class TestCopy:
    def test_copy_is_independent(self):
        state = MDPState.initial(np.array([1.0, 2.0]))
        twin = state.copy()
        twin.elapsed_ms = 99.0
        twin.explored[0] = True
        twin.estimated_times_ms[1] = 5.0
        assert state.elapsed_ms == 0.0
        assert not state.explored.any()
        assert state.estimated_times_ms[1] == 0.0
