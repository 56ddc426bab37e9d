"""The frontier is the MDP: a one-query frontier steps exactly as the frozen
per-object episode in ``_reference.py`` does.

Seeded property tests drive both with the same actions and compare, after
every step, the elapsed time E, the estimation costs C, the estimated times
T, the explored mask and the termination decision — across queries,
budgets, sibling re-pricing on and off, and non-empty start states (stage
two of the two-stage rewriter).  A second property runs the greedy
Algorithm 2 loop both ways under random q-networks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MalivaAgent, MDPQueryRewriter, QNetwork, RewriteOptionSpace
from repro.core.frontier import LockstepFrontier, state_size
from repro.qte import AccurateQTE, SelectivityCache

from ..conftest import TWITTER_ATTRS
from ._reference import ReferenceAgent, RewriteEpisode, reference_plan

TAUS = [1e-6, 8.0, 20.0, 60.0, 200.0, 1e9]


@pytest.fixture(scope="module")
def parts(request):
    database = request.getfixturevalue("twitter_db")
    queries = request.getfixturevalue("twitter_queries")
    space = RewriteOptionSpace.hint_subsets(TWITTER_ATTRS)
    qte = AccurateQTE(database, unit_cost_ms=5.0, overhead_ms=1.0)
    return database, qte, space, queries


def start_cache(query, n_collected: int, seed: int) -> SelectivityCache:
    """A cache holding selectivities for the query's first columns."""
    rng = np.random.default_rng(seed)
    cache = SelectivityCache()
    columns = list(dict.fromkeys(p.column for p in query.predicates))
    for column in columns[:n_collected]:
        cache.put(column, float(rng.random()))
    return cache


def copied(cache: SelectivityCache) -> SelectivityCache:
    twin = SelectivityCache()
    for attribute, selectivity in cache.collected.items():
        twin.put(attribute, selectivity)
    return twin


@given(
    query_index=st.integers(0, 29),
    tau=st.sampled_from(TAUS),
    reprice=st.booleans(),
    start_elapsed=st.sampled_from([0.0, 3.5, 17.0]),
    n_collected=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_one_query_frontier_steps_like_reference_episode(
    parts, query_index, tau, reprice, start_elapsed, n_collected, seed
):
    database, qte, space, queries = parts
    query = queries[query_index]
    cache = start_cache(query, n_collected, seed)
    episode = RewriteEpisode(
        database, qte, space, query, tau,
        start_elapsed_ms=start_elapsed, cache=copied(cache),
        update_sibling_costs=reprice,
    )
    frontier = LockstepFrontier(
        space=space,
        qte=qte,
        queries=[query],
        taus=[tau],
        database=database,
        tau_norm=60.0,
        starts=[(start_elapsed, cache)],
        update_sibling_costs=reprice,
    )
    active = np.arange(1)

    def assert_same_state():
        state = episode.state
        assert frontier.elapsed[0] == state.elapsed_ms
        assert np.array_equal(frontier.costs[0], state.estimation_costs_ms)
        assert np.array_equal(frontier.times[0], state.estimated_times_ms)
        assert np.array_equal(frontier.explored[0], state.explored)
        np.testing.assert_array_equal(
            frontier.state_matrix(active)[0], state.vector(60.0)
        )

    assert_same_state()
    for action in np.random.default_rng(seed).permutation(len(space)):
        actions = np.array([action])
        step = episode.step(int(action))
        frontier.transition(active, actions)
        assert_same_state()
        viable, timeout, exhausted, fallback = frontier.termination(active, actions)
        if step.decision is None:
            assert not (viable[0] or timeout[0] or exhausted[0])
            continue
        if viable[0]:
            decided = (int(action), "viable")
        elif timeout[0]:
            decided = (int(fallback[0]), "timeout")
        else:
            assert exhausted[0]
            decided = (int(fallback[0]), "exhausted")
        assert decided == (step.decision.option_index, step.decision.reason)
        break
    # The start cache is copied, never mutated.
    assert len(cache) == min(n_collected, len({p.column for p in query.predicates}))


@given(
    query_index=st.integers(0, 29),
    tau=st.sampled_from(TAUS),
    start_elapsed=st.sampled_from([0.0, 9.0]),
    n_collected=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_plan_matches_reference_greedy_loop(
    parts, query_index, tau, start_elapsed, n_collected, seed
):
    database, qte, space, queries = parts
    query = queries[query_index]
    cache = start_cache(query, n_collected, seed)
    network = QNetwork(state_size(len(space)), len(space), seed=seed)
    rewriter = MDPQueryRewriter(MalivaAgent(network, space, 60.0), database, qte)
    decision, frontier = rewriter.plan(
        query, tau_ms=tau, start=(start_elapsed, cache)
    )
    expected, episode = reference_plan(
        ReferenceAgent(network, space, 60.0), database, qte, query,
        tau_ms=tau, start_elapsed_ms=start_elapsed, cache=copied(cache),
    )
    assert decision == expected
    assert frontier.elapsed[0] == episode.state.elapsed_ms
    assert frontier.caches[0].collected == episode.cache.collected
