"""Isometric embedding of finite connected graphs into Johnson graphs.

The decision procedure either produces vertex labels realizing the metric
(each edge flips one element of an m-subset, distances scale by two under
symmetric difference) or a certificate naming the structural obstruction.

The package root exports the entry points the README documents; every other
name is imported from the module that defines it, for example
``from johnson_embed.walls import splits``.
"""

from .atom import atom_graph, theta1_classes
from .embedder import (
    Embedding,
    RejectionCertificate,
    build_embedding,
    embed_hypercube,
    run_pipeline,
    verify_embedding,
)
from .families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    gen_family,
    hypercube_graph,
    johnson_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
)
from .graphs import ConsistencyError, Graph, GraphError, ParseError, parse_graph
from .matroid import is_basis_graph
from .oracle import oracle_decide
from .rootgraph import bipartite_root
from .walls import WcCertificate, check_wc

__all__ = [
    "ConsistencyError",
    "Embedding",
    "Graph",
    "GraphError",
    "ParseError",
    "RejectionCertificate",
    "WcCertificate",
    "atom_graph",
    "bipartite_root",
    "build_embedding",
    "check_wc",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "embed_hypercube",
    "gen_family",
    "hypercube_graph",
    "is_basis_graph",
    "johnson_graph",
    "oracle_decide",
    "parse_graph",
    "path_graph",
    "petersen_graph",
    "random_connected_graph",
    "run_pipeline",
    "theta1_classes",
    "verify_embedding",
]

__version__ = "0.1.0"
