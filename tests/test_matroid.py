from johnson_embed import (
    Embedding,
    WcCertificate,
    check_wc,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    is_basis_graph,
    johnson_graph,
    path_graph,
    petersen_graph,
)
from johnson_embed.matroid import check_ic, check_lc, check_pc, squares


def test_squares_cycle4():
    assert list(squares(cycle_graph(4))) == [(0, 1, 2, 3)]


def test_squares_hypercube():
    g = hypercube_graph(3)
    sq = list(squares(g))
    assert len(sq) == 6
    for u1, u2, u3, u4 in sq:
        assert g.has_edge(u1, u2) and g.has_edge(u2, u3)
        assert g.has_edge(u3, u4) and g.has_edge(u4, u1)
        assert not g.has_edge(u1, u3) and not g.has_edge(u2, u4)
        assert u1 == min(u1, u2, u3, u4)
        assert u2 < u4


def test_squares_induced_flag():
    g = complete_graph(4)
    assert list(squares(g)) == []
    with_chords = list(squares(g, induced_only=False))
    assert len(with_chords) == 3


def test_check_ic_passes_on_johnson():
    for m, n in [(1, 4), (2, 4), (2, 5), (3, 6)]:
        g = johnson_graph(m, n)
        assert check_ic(g).passed, (m, n)


def test_check_ic_fails_on_cycle6():
    g = cycle_graph(6)
    rep = check_ic(g)
    assert not rep.passed
    assert rep.condition == "IC"
    w = rep.witness
    assert (w.u, w.v) == (0, 2)
    assert w.interval == (0, 1, 2)


def test_check_ic_fails_on_petersen():
    # Girth five: distance-2 pairs have a single midpoint, so their
    # intervals have three vertices and match no allowed pattern.  Embedding
    # into a Johnson graph does not make a graph a basis graph.
    g = petersen_graph()
    rep = check_ic(g)
    assert not rep.passed
    assert rep.witness.u == 0 and rep.witness.v == 1
    assert len(rep.witness.interval) == 3


def test_check_pc_fails_on_complete_bipartite_2_3():
    g = complete_bipartite_graph(2, 3)
    rep = check_pc(g)
    assert not rep.passed
    w = rep.witness
    assert w.basepoint == 4
    assert w.square == (0, 2, 1, 3)
    # The witness means the two square diagonals have unequal distance sums.
    d = g.distances()
    u1, u2, u3, u4 = w.square
    assert d[w.basepoint][u1] + d[w.basepoint][u3] != \
        d[w.basepoint][u2] + d[w.basepoint][u4]


def test_check_pc_passes_on_hypercubes_and_johnson():
    for g in (hypercube_graph(3), johnson_graph(2, 4), johnson_graph(2, 5),
              petersen_graph()):
        assert check_pc(g).passed


def test_check_lc():
    assert check_lc(petersen_graph()).passed
    assert check_lc(cycle_graph(6)).passed
    # A wheel has cycle neighborhoods at the hub, which are not line graphs
    # of bipartite graphs once the rim is a 5-cycle.
    from johnson_embed import Graph
    hub_edges = [(0, i) for i in range(1, 6)]
    rim_edges = [(i, i % 5 + 1) for i in range(1, 6)]
    wheel = Graph(6, hub_edges + rim_edges)
    rep = check_lc(wheel)
    assert not rep.passed
    assert rep.witness.vertex == 0
    assert rep.witness.certificate.kind == "ODD_CYCLE_IN_ROOT"


def test_wc_implies_pc(corpus_decisions):
    for name, g, _ in corpus_decisions:
        if isinstance(check_wc(g), WcCertificate):
            continue
        assert check_pc(g).passed, name


def test_accepted_implies_lc(corpus_decisions):
    for name, g, result in corpus_decisions:
        if isinstance(result, Embedding):
            assert check_lc(g).passed, name


def test_is_basis_graph_on_johnson_graphs():
    for m, n in [(1, 4), (2, 4), (2, 5), (3, 6)]:
        g = johnson_graph(m, n)
        rep = is_basis_graph(g)
        assert rep.passed, (m, n)
        assert rep.ic.passed
        assert not isinstance(rep.wc, WcCertificate)


def test_is_basis_graph_rejects_cycle6_via_ic():
    g = cycle_graph(6)
    rep = is_basis_graph(g)
    assert not rep.passed
    assert not isinstance(rep.wc, WcCertificate)
    assert not rep.ic.passed
    assert (rep.ic.witness.u, rep.ic.witness.v) == (0, 2)


def test_is_basis_graph_rejects_complete_bipartite_2_3_via_wc():
    g = complete_bipartite_graph(2, 3)
    rep = is_basis_graph(g)
    assert not rep.passed
    assert isinstance(rep.wc, WcCertificate)
    assert rep.wc.edge == (0, 2)


def test_path_is_not_a_basis_graph():
    g = path_graph(3)
    rep = is_basis_graph(g)
    assert not rep.passed
    assert not rep.ic.passed
