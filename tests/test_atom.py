from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from johnson_embed import (
    Embedding,
    WcCertificate,
    atom_graph,
    check_wc,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    theta1_classes,
)
from johnson_embed.atom import ThetaClasses, scalar, vertical_edges
from johnson_embed.graphs import ConsistencyError

from conftest import named_corpus
from helpers import reference_theta1_classes, reference_vertical_edges, wc_graph

SMALL_FAMILIES = [g for _, g in named_corpus() if g.n <= 10]


def classes_of(g, b=0):
    d = g.distances()
    return theta1_classes(check_wc(g), d, b)


def sigma_of(g, b=0):
    return atom_graph(g.distances(), classes_of(g, b))


def test_scalar_small_cases():
    g = cycle_graph(6)
    d = g.distances()
    assert scalar(d, (0, 1), (0, 1)) == 2
    assert scalar(d, (0, 1), (1, 0)) == -2
    # Opposite edges of a hexagon traversed against each other pair up.
    assert scalar(d, (0, 1), (4, 3)) == 2
    assert scalar(d, (0, 1), (3, 4)) == -2
    assert scalar(d, (0, 1), (2, 3)) == 0


def test_scalar_antisymmetry(corpus):
    for name, g in corpus:
        d = g.distances()
        for e in g.edges:
            for f in g.edges:
                s = scalar(d, e, f)
                assert -2 <= s <= 2, name
                assert scalar(d, e, (f[1], f[0])) == -s, name
                assert scalar(d, (e[1], e[0]), f) == -s, name


def test_vertical_edges_orientation():
    g = cycle_graph(5)
    d = g.distances()
    ve = vertical_edges(g, 0)
    assert ve == ((0, 1), (0, 4), (1, 2), (4, 3))
    for tail, head in ve:
        assert d[0][head] == d[0][tail] + 1
    # The edge between the two deepest vertices of an odd cycle is horizontal.
    assert (2, 3) not in ve and (3, 2) not in ve


def test_vertical_edges_even_cycle_all_vertical():
    g = cycle_graph(6)
    assert len(vertical_edges(g, 0)) == len(g.edges)


def test_theta1_classes_cycle5():
    g = cycle_graph(5)
    classes = classes_of(g)
    assert classes.basepoint == 0
    assert classes.classes == (((0, 1),), ((0, 4),), ((1, 2),), ((4, 3),))


def test_theta1_classes_cycle6():
    g = cycle_graph(6)
    classes = classes_of(g)
    # Antipodal edges of the hexagon fall into one class.
    assert classes.classes == (
        ((0, 1), (4, 3)),
        ((0, 5), (2, 3)),
        ((1, 2), (5, 4)),
    )
    members = sorted(e for cls in classes.classes for e in cls)
    assert len(members) == len(set(members)) == len(g.edges)


def test_theta1_partitions_vertical_edges(corpus_decisions):
    for name, g, result in corpus_decisions:
        if not isinstance(result, Embedding):
            continue
        classes = classes_of(g)
        flat = [e for cls in classes.classes for e in cls]
        assert sorted(flat) == list(vertical_edges(g, 0)), name


def test_same_class_iff_scalar_two(corpus_decisions):
    for name, g, result in corpus_decisions:
        if not isinstance(result, Embedding):
            continue
        d = g.distances()
        classes = classes_of(g)
        index = {}
        for i, cls in enumerate(classes.classes):
            for e in cls:
                index[e] = i
        edges = list(index)
        for e in edges:
            for f in edges:
                s = scalar(d, e, f)
                assert s >= 0, (name, e, f)
                assert (s == 2) == (index[e] == index[f]), (name, e, f)


@st.composite
def wc_graph_and_basepoint(draw):
    """A connected graph of at most 10 vertices that passes the wallspace
    condition, its WallSystem and a basepoint."""
    if draw(st.booleans()):
        n, p = draw(st.integers(1, 10)), draw(st.sampled_from([0.2, 0.3, 0.5, 0.7]))
        g = random_connected_graph(n, p, seed=draw(st.integers(0, 2**32 - 1)))
    else:
        g = draw(st.sampled_from(SMALL_FAMILIES))
    ws = check_wc(g)
    assume(not isinstance(ws, WcCertificate))
    return g, ws, draw(st.integers(0, g.n - 1))


@settings(max_examples=300, deadline=None)
@given(wc_graph_and_basepoint())
def test_theta_class_is_the_scalar_two_set_of_its_representative(case):
    # theta1_classes groups by packed keys and computes no scalar, so this
    # is the check that its classes are the scalar-2 classes.
    g, ws, b = case
    d = g.distances()
    vertical = vertical_edges(g, b)
    for members in theta1_classes(ws, d, b).classes:
        rep = members[0]
        assert members == tuple(e for e in vertical if scalar(d, rep, e) == 2)


@settings(max_examples=200, deadline=None)
@given(wc_graph())
def test_classes_and_vertical_edges_match_the_references(case):
    g, ws = case
    d = g.distances()
    for b in range(g.n):
        assert vertical_edges(g, b) == reference_vertical_edges(g, b)
        assert theta1_classes(ws, d, b) == reference_theta1_classes(g, b)


def test_atom_graph_cycle5_is_path():
    g = cycle_graph(5)
    sigma = sigma_of(g)
    assert sigma.n == 4
    assert sigma.edges == ((0, 3), (1, 2), (2, 3))
    assert sorted(sigma.degree(v) for v in range(4)) == [1, 1, 2, 2]


def test_atom_graph_complete4_is_triangle():
    g = complete_graph(4)
    sigma = sigma_of(g)
    assert sigma.n == 3
    assert sigma.edges == ((0, 1), (0, 2), (1, 2))


def test_atom_graph_even_cycle_edgeless():
    for k in (4, 6, 8):
        g = cycle_graph(k)
        sigma = sigma_of(g)
        assert sigma.n == k // 2
        assert sigma.edges == ()


def test_atom_graph_path_edgeless():
    g = path_graph(5)
    sigma = sigma_of(g)
    assert sigma.n == 4
    assert sigma.edges == ()


def test_atom_graph_petersen():
    g = petersen_graph()
    sigma = sigma_of(g)
    assert sigma.n == 9
    assert len(sigma.edges) == 18
    assert all(sigma.degree(v) == 4 for v in range(9))


@settings(max_examples=200, deadline=None)
@given(wc_graph(max_n=10))
def test_every_cross_class_pair_has_the_atom_graph_scalar(case):
    # atom_graph reads one representative per class; the class keys make
    # every member give the same scalar (atom_graph's docstring).
    g, ws = case
    d = g.distances()
    for b in range(g.n):
        classes = theta1_classes(ws, d, b)
        sigma = atom_graph(d, classes)
        for i, j in permutations(range(len(classes.classes)), 2):
            want = int(sigma.has_edge(i, j))
            for e in classes.classes[i]:
                for f in classes.classes[j]:
                    assert scalar(d, e, f) == want, (b, e, f)


def test_atom_graph_refuses_hand_made_classes_it_cannot_join():
    # Classes made by hand, not from a wall system.  In C6, (0, 1) has
    # scalar 2 with (4, 3), -2 with (3, 4) and 0 with (1, 2).
    d = cycle_graph(6).distances()
    for f, value in [((4, 3), 2), ((3, 4), -2)]:
        with pytest.raises(ConsistencyError,
                           match=f"^classes 0 and 1 have representative scalar {value}$"):
            atom_graph(d, ThetaClasses(0, (((0, 1),), (f,))))
    # The representatives agree on 0, but (3, 4) in the second class does
    # not; only representatives are read, so that goes unseen.
    classes = ThetaClasses(0, (((0, 1),), ((1, 2), (3, 4))))
    assert atom_graph(d, classes).edges == ()


def test_atom_graph_gated_on_wc(corpus):
    # The class machinery is only invoked after the wall check passes.
    for name, g in corpus:
        d = g.distances()
        ws = check_wc(g)
        if isinstance(ws, WcCertificate):
            continue
        classes = theta1_classes(ws, d, 0)
        assert atom_graph(d, classes).n == len(classes.classes), name
