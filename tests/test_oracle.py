from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from johnson_embed import (
    Embedding,
    Graph,
    build_embedding,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    johnson_graph,
    oracle_decide,
    path_graph,
    petersen_graph,
    verify_embedding,
)
from johnson_embed import oracle
from johnson_embed.oracle import MAX_GROUND, brute_force_embed

from helpers import all_rows, reference_brute_force_embed


def test_brute_force_finds_cycle5():
    g = cycle_graph(5)
    res = brute_force_embed(g, 2, 5)
    assert res.found
    assert res.m == 2 and res.n == 5
    assert verify_embedding(g.distances(), res.labels) is True


def test_brute_force_respects_bounds():
    g = cycle_graph(5)
    with pytest.raises(ValueError):
        brute_force_embed(g, 0, 5)
    with pytest.raises(ValueError):
        brute_force_embed(g, 3, 5)


def test_brute_force_too_few_subsets():
    # One-element subsets of a 2-set cannot label a triangle.
    g = complete_graph(3)
    res = brute_force_embed(g, 1, 2)
    assert not res.found


def test_brute_force_rejects_cycle5_in_hypercube_sizes():
    g = cycle_graph(5)
    res = brute_force_embed(g, 1, 2)
    assert not res.found
    res = brute_force_embed(g, 2, 4)
    assert not res.found


def test_oracle_decide_small_cases():
    cases = [
        (path_graph(1), True, 0, 0),
        (path_graph(2), True, 1, 2),
        (complete_graph(3), True, 1, 3),
        (cycle_graph(4), True, 2, 4),
        (cycle_graph(5), True, 2, 5),
        (cycle_graph(6), True, 3, 6),
    ]
    for g, found, m, n in cases:
        res = oracle_decide(g)
        assert res.found == found, g
        if found:
            assert (res.m, res.n) == (m, n), g
            if g.n > 1:
                assert verify_embedding(g.distances(), res.labels) is True


def test_oracle_decide_minimizes_m_first():
    # Complete graphs embed as singleton labels; the scan must report m=1
    # rather than some larger subset size that also works.
    res = oracle_decide(complete_graph(4))
    assert (res.m, res.n) == (1, 4)
    # Half the ground set caps the diameter, so no accepted m can be
    # smaller than the graph diameter.
    for g in (cycle_graph(4), cycle_graph(6), path_graph(4)):
        d = g.distances()
        res = oracle_decide(g)
        assert res.found
        assert res.m >= max(max(row) for row in all_rows(d))


def test_oracle_decide_rejections():
    g = complete_bipartite_graph(2, 3)
    res = oracle_decide(g)
    assert not res.found
    assert res.nodes_explored > 0


def test_oracle_agrees_with_pipeline_on_corpus(corpus_decisions):
    for name, g, result in corpus_decisions:
        if g.n > 8:
            continue
        accepted = isinstance(result, Embedding)
        if accepted and result.ground_set_size > 8:
            # The witness needs a larger ground set than the oracle scans.
            continue
        res = oracle_decide(g)
        assert res.found == accepted, name


@st.composite
def small_connected_graph(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(combinations(range(n), 2))
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, sorted(set(tree) | extra))


@settings(max_examples=100, deadline=None)
@given(small_connected_graph())
def test_brute_force_matches_the_full_mask_search(g):
    for n in range(2, 11):
        for m in range(1, n // 2 + 1):
            assert brute_force_embed(g, m, n) == reference_brute_force_embed(g, m, n)


@settings(max_examples=200, deadline=None)
@given(small_connected_graph(max_n=7))
def test_oracle_with_tree_bound_decides_like_the_pipeline(g):
    # A graph on h vertices that embeds does so over at most 2(h - 1)
    # elements (see the oracle's module docstring), so at that bound the
    # oracle's "no" is a full rejection and both directions must agree.
    accepted = isinstance(build_embedding(g), Embedding)
    assert oracle_decide(g, 2 * (g.n - 1)).found == accepted


def test_oracle_finds_johnson_fixed_points():
    g = johnson_graph(2, 4)
    res = oracle_decide(g)
    assert res.found
    assert (res.m, res.n) == (2, 4)


def test_oracle_petersen():
    g = petersen_graph()
    res = oracle_decide(g, n_max=6)
    assert res.found
    assert (res.m, res.n) == (3, 6)


def test_oracle_decide_bounds_the_ground_set(monkeypatch):
    g = cycle_graph(5)
    res = oracle_decide(g, n_max=MAX_GROUND)
    assert (res.found, res.m, res.n) == (True, 2, 5)

    def no_search(*args):
        raise AssertionError("searched past the ground set limit")

    monkeypatch.setattr(oracle, "brute_force_embed", no_search)
    with pytest.raises(ValueError, match="limit of 20"):
        oracle_decide(g, n_max=MAX_GROUND + 1)


def test_oracle_decide_refuses_a_negative_bound(monkeypatch):
    g = cycle_graph(5)
    assert oracle_decide(g, n_max=0).found is False
    assert oracle_decide(g, n_max=1).found is False
    single = path_graph(1)
    assert oracle_decide(single, n_max=0).found is True
    assert oracle_decide(single, n_max=1).found is True

    def no_search(*args):
        raise AssertionError("searched under a negative bound")

    monkeypatch.setattr(oracle, "brute_force_embed", no_search)
    for bad in (g, single):
        with pytest.raises(ValueError, match="ground set size bound -1 is negative"):
            oracle_decide(bad, n_max=-1)


def test_brute_force_bounds_the_ground_set(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched past the ground set limit")

    monkeypatch.setattr(oracle, "_bfs", no_search)
    with pytest.raises(ValueError, match="limit of 20"):
        brute_force_embed(cycle_graph(5), 1, MAX_GROUND + 1)
