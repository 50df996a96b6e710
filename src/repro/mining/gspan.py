"""gSpan: frequent connected-subgraph mining over a graph database.

This is a from-scratch implementation of Yan & Han's gSpan (ICDM 2002):
depth-first pattern growth along minimum DFS codes, with projection
(embedding) lists carried down the search tree so that support counting
never rescans the database.

The miner is deliberately callback-friendly: Taxogram's Step 2 subscribes
to each reported pattern *with its full embedding list* to build the
taxonomy-projected occurrence index, then discards the embeddings —
memory stays proportional to one pattern at a time, exactly as the paper
argues for the DFS strategy.

Support is the number of distinct database graphs containing at least one
embedding; patterns have at least one edge.

The same miner mines a :class:`~repro.directed.digraph.DiGraphDatabase`:
it grows on each graph's ``host_adjacency``, whose label tails carry a
direction component on digraphs (see :mod:`repro.mining.dfs_code`), so
patterns there are weakly connected digraphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.graph import Graph
from repro.mining.dfs_code import (
    DFSCode,
    DFSEdge,
    dfs_edge_lt,
    is_min_code,
    seed_edges,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import MiningCounters

__all__ = ["Embedding", "MinedPattern", "GSpanMiner", "min_support_count"]


def min_support_count(min_support: float, database_size: int) -> int:
    """Smallest absolute graph count satisfying a fractional threshold.

    ``sup(P) >= sigma`` with ``sup(P) = count / |D|`` means
    ``count >= ceil(sigma * |D|)`` up to floating-point noise.
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must be in (0, 1], got {min_support}")
    return max(1, math.ceil(min_support * database_size - 1e-9))


@dataclass(frozen=True)
class Embedding:
    """One occurrence of a pattern: a mapping into a database graph.

    ``nodes[i]`` is the graph node that DFS-code vertex ``i`` maps to;
    ``used`` holds the keys of the graph edges (or arcs) consumed so far
    (gSpan never reuses an edge within one embedding).
    """

    graph_id: int
    nodes: tuple[int, ...]
    used: frozenset[tuple[int, int]]


@dataclass
class MinedPattern:
    """A frequent pattern as reported by the miner."""

    code: DFSCode
    graph: Graph
    support_count: int
    support_set: frozenset[int]
    embeddings: list[Embedding] = field(repr=False, default_factory=list)

    def support(self, database_size: int) -> float:
        return self.support_count / database_size

    @property
    def num_edges(self) -> int:
        return len(self.code)

    @property
    def num_nodes(self) -> int:
        return self.code.num_vertices


ReportCallback = Callable[[MinedPattern], None]


class GSpanMiner:
    """Mines frequent connected subgraphs from a :class:`GraphDatabase`.

    Parameters
    ----------
    database:
        The graph database to mine, or a
        :class:`~repro.directed.digraph.DiGraphDatabase`.
    min_support:
        Fractional support threshold in ``(0, 1]``.
    max_edges:
        Optional cap on pattern size in edges (``None`` = unbounded).
    keep_embeddings:
        Whether reported patterns retain their embedding lists.  The
        Taxogram class miner needs them; plain mining usually does not.
    min_count:
        Optional absolute support threshold (distinct graphs) that
        overrides ``min_support``.  The parallel runtime mines shards at
        a relaxed absolute threshold derived from the global one, which a
        fraction cannot always express exactly.  May exceed the database
        size, in which case nothing is frequent.
    counters:
        Optional :class:`repro.core.results.MiningCounters` receiving the
        candidate stream statistics (``gspan_candidates_generated`` /
        ``..._pruned_infrequent`` / ``..._pruned_nonminimal``).  ``None``
        (the default) skips all counting.
    prune_report:
        Optional callback ``(code_edges, support_set)`` invoked for every
        *minimal* candidate pruned as infrequent — the search's negative
        border.  :mod:`repro.incremental` persists this fringe so a later
        database delta can re-seed growth from exactly the codes a fresh
        run would prune.  Only minimal codes are reported (non-minimal
        duplicates re-appear under their canonical parent), and only
        candidates with at least one embedding exist to be generated.
    """

    def __init__(
        self,
        database: GraphDatabase,
        min_support: float = 0.1,
        max_edges: int | None = None,
        keep_embeddings: bool = False,
        min_count: int | None = None,
        counters: "MiningCounters | None" = None,
        prune_report: "Callable[[tuple[DFSEdge, ...], frozenset[int]], None] | None" = None,
    ) -> None:
        if len(database) == 0:
            raise MiningError("cannot mine an empty database")
        if max_edges is not None and max_edges < 1:
            raise MiningError("max_edges must be at least 1")
        self.database = database
        self._hosts = [graph.host_adjacency() for graph in database]
        self.min_support = min_support
        if min_count is not None:
            if min_count < 1:
                raise MiningError(f"min_count must be at least 1, got {min_count}")
            self.min_count = min_count
        else:
            self.min_count = min_support_count(min_support, len(database))
        self.max_edges = max_edges
        self.keep_embeddings = keep_embeddings
        self.counters = counters
        self.prune_report = prune_report

    # -- public API -------------------------------------------------------------

    def mine(self, report: ReportCallback | None = None) -> list[MinedPattern]:
        """Run the miner; returns all frequent patterns.

        If ``report`` is given it is invoked once per pattern, always with
        the embedding list attached; the returned copies honor
        ``keep_embeddings``.
        """
        results: list[MinedPattern] = []

        def deliver(pattern: MinedPattern) -> None:
            if report is not None:
                report(pattern)
            if not self.keep_embeddings:
                pattern = MinedPattern(
                    code=pattern.code,
                    graph=pattern.graph,
                    support_count=pattern.support_count,
                    support_set=pattern.support_set,
                    embeddings=[],
                )
            results.append(pattern)

        for edge, embeddings in self._initial_projections():
            self._grow(DFSCode((edge,)), embeddings, deliver)
        return results

    # -- internals ----------------------------------------------------------------

    def _initial_projections(
        self,
    ) -> Iterable[tuple[DFSEdge, list[Embedding]]]:
        """Frequent one-edge seeds in ascending DFS order.

        Only minimal one-edge codes are seeded (see
        :func:`~repro.mining.dfs_code.seed_edges`); an undirected edge
        with equal endpoint labels embeds in both orientations.
        """
        projections: dict[DFSEdge, list[Embedding]] = {}
        for graph, (incidence, links) in zip(self.database, self._hosts):
            gid = graph.graph_id
            for edge, a, b, key in seed_edges(graph, incidence, links):
                projections.setdefault(edge, []).append(
                    Embedding(gid, (a, b), frozenset((key,)))
                )
        frequent = [
            (edge, embeddings)
            for edge, embeddings in projections.items()
            if self._support_count(embeddings) >= self.min_count
        ]
        if self.prune_report is not None:
            for edge, embeddings in projections.items():
                if self._support_count(embeddings) < self.min_count:
                    self.prune_report(
                        (edge,), frozenset(e.graph_id for e in embeddings)
                    )
        counters = self.counters
        if counters is not None:
            counters.gspan_candidates_generated += len(projections)
            counters.gspan_candidates_pruned_infrequent += (
                len(projections) - len(frequent)
            )
        frequent.sort(key=lambda item: item[0][2:])
        return frequent

    def _grow(
        self,
        code: DFSCode,
        embeddings: list[Embedding],
        deliver: Callable[[MinedPattern], None],
    ) -> None:
        support_set = frozenset(e.graph_id for e in embeddings)
        deliver(
            MinedPattern(
                code=code,
                graph=code.to_graph(),
                support_count=len(support_set),
                support_set=support_set,
                embeddings=embeddings,
            )
        )
        if self.max_edges is not None and len(code) >= self.max_edges:
            return

        extensions = self._extensions(code, embeddings)
        counters = self.counters
        for edge in sorted(extensions, key=_DfsEdgeKey):
            child_embeddings = extensions[edge]
            if counters is not None:
                counters.gspan_candidates_generated += 1
            if self._support_count(child_embeddings) < self.min_count:
                if counters is not None:
                    counters.gspan_candidates_pruned_infrequent += 1
                if self.prune_report is not None:
                    fringe = code.extended(edge)
                    if is_min_code(fringe):
                        self.prune_report(
                            fringe.edges,
                            frozenset(e.graph_id for e in child_embeddings),
                        )
                continue
            child = code.extended(edge)
            if not is_min_code(child):
                if counters is not None:
                    counters.gspan_candidates_pruned_nonminimal += 1
                continue
            self._grow(child, child_embeddings, deliver)

    def _extensions(
        self, code: DFSCode, embeddings: list[Embedding]
    ) -> dict[DFSEdge, list[Embedding]]:
        """All rightmost-path one-edge extensions, grouped by DFS edge."""
        rmpath = code.rightmost_path
        rm = rmpath[-1]
        vlabels = code.vertex_labels
        label_rm = vlabels[rm]
        new_id = len(vlabels)
        hosts = self._hosts
        out: dict[DFSEdge, list[Embedding]] = {}
        for emb in embeddings:
            incidence, links = hosts[emb.graph_id]
            nodes = emb.nodes
            used = emb.used
            mapped = set(nodes)
            # Backward extensions: rightmost vertex to rightmost path.
            between = links[nodes[rm]]
            for j in rmpath[:-1]:
                for _w, tail, key in between.get(nodes[j], ()):
                    if key in used:
                        continue
                    edge: DFSEdge = (rm, j, label_rm) + tail
                    out.setdefault(edge, []).append(
                        Embedding(emb.graph_id, nodes, used | {key})
                    )
            # Forward extensions from every rightmost-path vertex.
            for i in rmpath:
                prefix = (i, new_id, vlabels[i])
                for w, tail, key in incidence[nodes[i]]:
                    if w in mapped:
                        continue
                    out.setdefault(prefix + tail, []).append(
                        Embedding(emb.graph_id, nodes + (w,), used | {key})
                    )
        return out

    @staticmethod
    def _support_count(embeddings: list[Embedding]) -> int:
        return len({e.graph_id for e in embeddings})


class _DfsEdgeKey:
    """Sort key adapter exposing :func:`dfs_edge_lt` to ``sorted``."""

    __slots__ = ("edge",)

    def __init__(self, edge: DFSEdge) -> None:
        self.edge = edge

    def __lt__(self, other: "_DfsEdgeKey") -> bool:
        return dfs_edge_lt(self.edge, other.edge)
