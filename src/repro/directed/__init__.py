"""Directed taxonomy-superimposed graph mining.

The paper notes (§4.1) that "Taxogram can handle both directed and
undirected graphs, but since the current implementation is built upon
gSpan's implementation and gSpan does not support directed graphs, all
the experimental data sets consist of undirected graphs."  Here the one
gSpan and DFS-code canonical form of :mod:`repro.mining` carry a
direction component per DFS edge, so :class:`repro.core.taxogram.Taxogram`
mines a :class:`DiGraphDatabase` directly.  This package holds the data
type with its ``a``-record text I/O, and the reference the miner is
tested against: directed (generalized) subgraph isomorphism and a
brute-force directed oracle.
"""

from repro.directed.digraph import DiGraph, DiGraphDatabase
from repro.directed.isomorphism import (
    directed_iter_embeddings,
    is_directed_generalized_subgraph_isomorphic,
)
from repro.directed.io import (
    parse_digraph_database,
    read_digraph_database,
    serialize_digraph_database,
    write_digraph_database,
)
from repro.directed.taxogram import mine_directed, mine_directed_with_oracle

__all__ = [
    "DiGraph",
    "DiGraphDatabase",
    "directed_iter_embeddings",
    "is_directed_generalized_subgraph_isomorphic",
    "mine_directed",
    "mine_directed_with_oracle",
    "parse_digraph_database",
    "read_digraph_database",
    "serialize_digraph_database",
    "write_digraph_database",
]
