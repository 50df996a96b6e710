"""Directed Taxogram: the main pipeline on digraphs, and its oracle.

:func:`mine_directed` is :class:`repro.core.taxogram.Taxogram` with its
default enhancements on a :class:`DiGraphDatabase`; the one gSpan and
canonical form in :mod:`repro.mining` carry a direction component per
DFS edge.

A brute-force directed oracle (:func:`mine_directed_with_oracle`),
built on the directed VF2 of :mod:`repro.directed.isomorphism`, provides
the same correctness backstop the undirected pipeline has.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

from repro.core.relabel import repair_taxonomy
from repro.core.results import MiningCounters, TaxogramResult, TaxonomyPattern
from repro.core.taxogram import Taxogram, TaxogramOptions
from repro.directed.digraph import DiGraph, DiGraphDatabase
from repro.directed.isomorphism import is_directed_generalized_isomorphic
from repro.mining.dfs_code import DFSCode, min_dfs_code
from repro.mining.gspan import min_support_count
from repro.taxonomy.taxonomy import ARTIFICIAL_ROOT_NAME, Taxonomy

__all__ = ["mine_directed", "mine_directed_with_oracle"]


def mine_directed(
    database: DiGraphDatabase,
    taxonomy: Taxonomy,
    min_support: float = 0.2,
    max_edges: int | None = None,
    artificial_root_name: str = ARTIFICIAL_ROOT_NAME,
) -> TaxogramResult:
    """Taxogram over a directed graph database, default enhancements."""
    options = TaxogramOptions(
        min_support=min_support,
        max_edges=max_edges,
        artificial_root_name=artificial_root_name,
    )
    return Taxogram(options).mine(database, taxonomy)


def mine_directed_with_oracle(
    database: DiGraphDatabase,
    taxonomy: Taxonomy,
    min_support: float,
    max_edges: int,
    artificial_root_name: str = ARTIFICIAL_ROOT_NAME,
) -> TaxogramResult:
    """Brute-force reference for directed taxonomy-superimposed mining."""
    working, _mg = repair_taxonomy(taxonomy, artificial_root_name)
    min_count = min_support_count(min_support, len(database))

    supports: dict[DFSCode, set[int]] = {}
    graphs_by_code: dict[DFSCode, DiGraph] = {}
    for graph in database:
        seen_here: set[DFSCode] = set()
        for subgraph in _weakly_connected_arc_subgraphs(graph, max_edges):
            for generalized in _generalizations(subgraph, working):
                code = min_dfs_code(generalized)
                if code in seen_here:
                    continue
                seen_here.add(code)
                supports.setdefault(code, set()).add(graph.graph_id)
                graphs_by_code.setdefault(code, generalized)

    frequent = {
        code: frozenset(gids)
        for code, gids in supports.items()
        if len(gids) >= min_count
    }

    overgeneralized: set[DFSCode] = set()
    by_support: dict[frozenset[int], list[DFSCode]] = {}
    for code, gids in frequent.items():
        by_support.setdefault(gids, []).append(code)
    for group in by_support.values():
        for general_code in group:
            general = graphs_by_code[general_code]
            for specific_code in group:
                if specific_code == general_code:
                    continue
                if is_directed_generalized_isomorphic(
                    general, graphs_by_code[specific_code], working
                ):
                    overgeneralized.add(general_code)
                    break

    patterns = [
        TaxonomyPattern(
            code=code,
            graph=graphs_by_code[code],
            support_count=len(gids),
            support=len(gids) / len(database),
            support_set=gids,
            class_id=-1,
        )
        for code, gids in frequent.items()
        if code not in overgeneralized
    ]
    return TaxogramResult(
        patterns=patterns,
        database_size=len(database),
        min_support=min_support,
        algorithm="oracle-directed",
        counters=MiningCounters(),
        stage_seconds={},
    )


def _weakly_connected_arc_subgraphs(
    graph: DiGraph, max_arcs: int
) -> Iterator[DiGraph]:
    """Every weakly connected arc-subset of size 1..max_arcs, once each."""
    arcs = sorted(graph.arcs())
    arc_index = {(u, v): i for i, (u, v, _l) in enumerate(arcs)}

    def incident(node_set: frozenset[int]) -> set[int]:
        out: set[int] = set()
        for u in node_set:
            for v, _l in graph.out_items(u):
                out.add(arc_index[(u, v)])
            for v, _l in graph.in_items(u):
                out.add(arc_index[(v, u)])
        return out

    for start in range(len(arcs)):
        u0, v0, _label = arcs[start]
        stack = [
            (
                frozenset((start,)),
                frozenset((u0, v0)),
                frozenset(range(start + 1)),
            )
        ]
        while stack:
            arc_set, node_set, forbidden = stack.pop()
            yield _materialize(graph, arcs, arc_set, node_set)
            if len(arc_set) == max_arcs:
                continue
            blocked = forbidden
            for arc_id in sorted(
                aid
                for aid in incident(node_set)
                if aid not in arc_set and aid not in forbidden
            ):
                au, av, _l = arcs[arc_id]
                stack.append(
                    (
                        arc_set | frozenset((arc_id,)),
                        node_set | frozenset((au, av)),
                        blocked,
                    )
                )
                blocked = blocked | frozenset((arc_id,))


def _materialize(
    graph: DiGraph,
    arcs: list[tuple[int, int, int]],
    arc_set: frozenset[int],
    node_set: frozenset[int],
) -> DiGraph:
    ordered = sorted(node_set)
    remap = {old: new for new, old in enumerate(ordered)}
    out = DiGraph(graph.graph_id)
    for old in ordered:
        out.add_node(graph.node_label(old))
    for arc_id in sorted(arc_set):
        u, v, label = arcs[arc_id]
        out.add_arc(remap[u], remap[v], label)
    return out


def _generalizations(subgraph: DiGraph, taxonomy: Taxonomy):
    choices = [
        sorted(taxonomy.ancestors_or_self(subgraph.node_label(v)))
        for v in subgraph.nodes()
    ]
    for assignment in product(*choices):
        generalized = subgraph.copy()
        for v, label in enumerate(assignment):
            generalized.relabel_node(v, label)
        yield generalized
