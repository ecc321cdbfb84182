"""The paper's invariances as property tests: relabelling, Cartesian products,
hypercubes, and agreement with the brute-force oracle."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from johnson_embed import (
    Embedding,
    Graph,
    build_embedding,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    johnson_graph,
    oracle_decide,
    path_graph,
    petersen_graph,
    random_connected_graph,
)
from johnson_embed.embedder import HypercubeEmbedding, embed_hypercube
from johnson_embed.graphs import induced_subgraph

from conftest import named_corpus
from helpers import cartesian_product

SMALL_FAMILIES = [g for _, g in named_corpus() if g.n <= 10]

# Small family members that embed.
FACTORS = [cycle_graph(5), cycle_graph(6), path_graph(3), complete_graph(3),
           complete_graph(4), hypercube_graph(2), johnson_graph(2, 4),
           johnson_graph(2, 5), petersen_graph()]
FACTOR_EMBEDDINGS = [build_embedding(g) for g in FACTORS]


@st.composite
def graph_and_relabelling(draw):
    if draw(st.booleans()):
        n, p = draw(st.integers(1, 9)), draw(st.sampled_from([0.3, 0.5, 0.7]))
        g = random_connected_graph(n, p, seed=draw(st.integers(0, 2**32 - 1)))
    else:
        g = draw(st.sampled_from(SMALL_FAMILIES))
    perm = draw(st.permutations(range(g.n)))
    return g, Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@settings(max_examples=200, deadline=None)
@given(graph_and_relabelling())
def test_relabelling_keeps_the_verdict_and_the_rejection_stage(case):
    g, h = case
    before, after = build_embedding(g), build_embedding(h)
    assert isinstance(after, Embedding) == isinstance(before, Embedding)
    if not isinstance(before, Embedding):
        assert after.stage == before.stage


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(FACTORS) - 1), st.integers(0, len(FACTORS) - 1))
def test_product_of_embedded_graphs_embeds_with_summed_parameters(i, j):
    result = build_embedding(cartesian_product(FACTORS[i], FACTORS[j]))
    assert isinstance(result, Embedding)
    a, b = FACTOR_EMBEDDINGS[i], FACTOR_EMBEDDINGS[j]
    assert result.m == a.m + b.m
    assert result.ground_set_size == a.ground_set_size + b.ground_set_size


@pytest.mark.parametrize("d", range(1, 8))
def test_hypercube_embeds_into_the_johnson_graph_of_twice_its_dimension(d):
    result = build_embedding(hypercube_graph(d))
    assert isinstance(result, Embedding)
    assert (result.m, result.ground_set_size) == (d, 2 * d)


@st.composite
def hypercube_induced_subgraph(draw):
    """A connected induced subgraph of Q2 to Q5, grown from vertex 0 one
    neighbour of the vertices taken so far at a time."""
    q = hypercube_graph(draw(st.integers(2, 5)))
    taken = [0]
    for pick in draw(st.lists(st.integers(0, q.n), max_size=q.n - 1)):
        frontier = sorted({w for v in taken for w in q.neighbors[v]}.difference(taken))
        taken.append(frontier[pick % len(frontier)])
    return induced_subgraph(q, taken)[0]


@settings(max_examples=300, deadline=None)
@given(hypercube_induced_subgraph())
def test_partial_cube_of_dimension_k_embeds_with_m_k_and_ground_2k(g):
    cube = embed_hypercube(g)
    assume(isinstance(cube, HypercubeEmbedding))
    result = build_embedding(g)
    assert isinstance(result, Embedding)
    assert (result.m, result.ground_set_size) == (cube.dimension, 2 * cube.dimension)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 2**32 - 1))
def test_oracle_agrees_with_the_pipeline_on_small_graphs(n, p, seed):
    g = random_connected_graph(n, p, seed)
    result = build_embedding(g)
    accepted = isinstance(result, Embedding)
    # The oracle's default search covers ground sets of at most 8 elements.
    assume(not accepted or result.ground_set_size <= 8)
    assert oracle_decide(g).found == accepted
