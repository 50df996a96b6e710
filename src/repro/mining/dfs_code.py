"""DFS codes: gSpan's canonical representation of connected labeled graphs.

A DFS code is a sequence of edge 5-tuples ``(i, j, li, le, lj)`` where
``i``/``j`` are discovery indices of the edge endpoints, ``li``/``lj``
their node labels and ``le`` the edge label.  ``i < j`` marks a *forward*
edge (discovering vertex ``j``), ``i > j`` a *backward* edge.

Codes of directed graphs (:class:`~repro.directed.digraph.DiGraph`) add
a direction component: ``(i, j, li, le, lj, d)`` with ``d = 1`` when the
arc runs along the traversal (``i -> j``) and ``d = 0`` when it runs
against it.  Traversal crosses arcs either way, so the pattern universe
is the weakly connected subgraphs.  Everything below serves both kinds
of graph through their shared ``host_adjacency`` protocol.

Among all DFS codes of a graph, the lexicographically smallest under the
DFS lexicographic order (Yan & Han 2002) is the *minimum DFS code* — a
canonical form.  Two connected labeled graphs are isomorphic iff their
minimum DFS codes are equal, which is how the whole library deduplicates
patterns.

This module provides:

* :func:`dfs_edge_lt` — the DFS lexicographic edge order;
* :class:`DFSCode` — an immutable code with rightmost-path bookkeeping;
* :func:`is_min_code` — gSpan's minimality check;
* :func:`min_dfs_code` — canonical form of an arbitrary connected graph.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.exceptions import MiningError
from repro.graphs.graph import Graph

__all__ = [
    "DFSEdge",
    "canonical_cache_info",
    "clear_canonical_caches",
    "dfs_edge_lt",
    "DFSCode",
    "graph_from_code",
    "is_min_code",
    "min_code_with_embeddings",
    "min_dfs_code",
    "seed_edges",
]

# (i, j, from_label, edge_label, to_label), plus a direction component
# on directed graphs.
DFSEdge = tuple[int, ...]


def dfs_edge_lt(e1: DFSEdge, e2: DFSEdge) -> bool:
    """True iff ``e1`` precedes ``e2`` in the DFS lexicographic order.

    Rules (Yan & Han, gSpan TR):

    * backward vs forward: backward ``(i1, j1)`` precedes forward
      ``(i2, j2)`` iff ``i1 < j2``; forward precedes backward iff
      ``j1 <= i2``.
    * two backward edges: smaller ``i`` first, then smaller ``j``, then
      label tuple.
    * two forward edges: smaller ``j`` first, then *larger* ``i``, then
      label tuple (direction last on directed codes).
    """
    i1, j1 = e1[0], e1[1]
    i2, j2 = e2[0], e2[1]
    fwd1, fwd2 = i1 < j1, i2 < j2
    if fwd1 != fwd2:
        if not fwd1:  # e1 backward, e2 forward
            return i1 < j2
        return j1 <= i2  # e1 forward, e2 backward
    if not fwd1:  # both backward
        if i1 != i2:
            return i1 < i2
        if j1 != j2:
            return j1 < j2
        return e1[2:] < e2[2:]
    # both forward
    if j1 != j2:
        return j1 < j2
    if i1 != i2:
        return i1 > i2
    return e1[2:] < e2[2:]


def code_lt(code1: Sequence[DFSEdge], code2: Sequence[DFSEdge]) -> bool:
    """Lexicographic order on whole codes (prefix is smaller)."""
    for e1, e2 in zip(code1, code2):
        if e1 == e2:
            continue
        return dfs_edge_lt(e1, e2)
    return len(code1) < len(code2)


class DFSCode:
    """An immutable DFS code with derived vertex labels and rightmost path."""

    __slots__ = ("edges", "vertex_labels", "rightmost_path")

    def __init__(self, edges: Iterable[DFSEdge]) -> None:
        self.edges: tuple[DFSEdge, ...] = tuple(edges)
        self.vertex_labels: tuple[int, ...] = self._derive_vertex_labels()
        self.rightmost_path: tuple[int, ...] = self._derive_rightmost_path()

    def _derive_vertex_labels(self) -> tuple[int, ...]:
        labels: dict[int, int] = {}
        for edge in self.edges:
            i, j, li, lj = edge[0], edge[1], edge[2], edge[4]
            labels.setdefault(i, li)
            labels.setdefault(j, lj)
            if labels[i] != li or labels[j] != lj:
                raise MiningError("inconsistent vertex labels in DFS code")
        if not labels:
            return ()
        n = max(labels) + 1
        if sorted(labels) != list(range(n)):
            raise MiningError("DFS code vertex ids must be dense")
        return tuple(labels[v] for v in range(n))

    def _derive_rightmost_path(self) -> tuple[int, ...]:
        """Vertex ids from the root (0) to the rightmost vertex, following
        forward edges."""
        if not self.edges:
            return ()
        parent: dict[int, int] = {}
        rightmost = 0
        for i, j, *_ in self.edges:
            if i < j:  # forward
                parent[j] = i
                rightmost = max(rightmost, j)
        path = [rightmost]
        while path[-1] != 0:
            path.append(parent[path[-1]])
        path.reverse()
        return tuple(path)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def rightmost_vertex(self) -> int:
        if not self.edges:
            raise MiningError("empty DFS code has no rightmost vertex")
        return self.rightmost_path[-1]

    def extended(self, edge: DFSEdge) -> "DFSCode":
        return DFSCode(self.edges + (edge,))

    def to_graph(self, graph_id: int = -1):
        return graph_from_code(self.edges, graph_id)

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DFSCode):
            return self.edges == other.edges
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.edges)

    def __lt__(self, other: "DFSCode") -> bool:
        return code_lt(self.edges, other.edges)

    def __repr__(self) -> str:
        return f"DFSCode({list(self.edges)})"


def graph_from_code(edges: Sequence[DFSEdge], graph_id: int = -1):
    """Materialize the labeled graph a DFS code describes: a
    :class:`Graph`, or a :class:`~repro.directed.digraph.DiGraph` for a
    code with direction components."""
    code = edges if isinstance(edges, DFSCode) else DFSCode(edges)
    if code.edges and len(code.edges[0]) == 6:
        from repro.directed.digraph import DiGraph

        graph = DiGraph(graph_id)
    else:
        graph = Graph(graph_id)
    for label in code.vertex_labels:
        graph.add_node(label)
    for edge in code.edges:
        i, j, le = edge[0], edge[1], edge[3]
        if len(edge) == 5:
            graph.add_edge(i, j, le)
        elif edge[5]:
            graph.add_arc(i, j, le)
        else:
            graph.add_arc(j, i, le)
    return graph


def seed_edges(
    graph, incidence: list, links: list
) -> Iterator[tuple[DFSEdge, int, int, tuple[int, int]]]:
    """Every minimal one-edge code of ``graph`` with its embedding.

    ``incidence``/``links`` are ``graph.host_adjacency()``.  Yields
    ``(edge, a, b, key)``: code vertex 0 maps to ``a``, vertex 1 to
    ``b``.  Each edge is visited once, from the endpoint its key names
    first, in that orientation and then the mirrored one, keeping
    whichever is the smaller one-edge code (both when they tie).
    """
    labels = graph.node_labels()
    for a, entries in enumerate(incidence):
        for b, tail, key in entries:
            if key[0] != a:
                continue
            for _a, mirror, mirror_key in links[b][a]:
                if mirror_key == key:
                    break
            forward = (labels[a],) + tail
            backward = (labels[b],) + mirror
            if forward <= backward:
                yield (0, 1) + forward, a, b, key
            if backward <= forward:
                yield (0, 1) + backward, b, a, key


def _not_connected(graph) -> MiningError:
    if graph.directed:
        return MiningError("digraph is not weakly connected")
    return MiningError("graph is not connected")


# ---------------------------------------------------------------------------
# Minimum DFS code construction
# ---------------------------------------------------------------------------
#
# Both the minimality check (is_min_code) and canonicalization
# (min_dfs_code) run the same incremental construction: grow the minimum
# code one edge at a time on the target graph, keeping every partial
# embedding that realizes the minimum prefix.  At each step the candidate
# extensions follow gSpan's rightmost-path rule; the DFS lexicographic
# order picks the unique minimum next edge.


class _State:
    """A partial embedding of the code being built into the host graph."""

    __slots__ = ("nodes", "used")

    def __init__(self, nodes: tuple[int, ...], used: frozenset[tuple[int, int]]):
        self.nodes = nodes  # code vertex id -> graph node
        self.used = used  # edge keys already consumed


class _MinCodeBuilder:
    """Incrementally constructs the minimum DFS code of ``graph``."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.incidence, self.links = graph.host_adjacency()
        self.code: list[DFSEdge] = []
        self.vertex_labels: list[int] = []
        self.states: list[_State] = []
        self._start()

    def _start(self) -> None:
        best: DFSEdge | None = None
        states: list[_State] = []
        for cand, a, b, key in seed_edges(self.graph, self.incidence, self.links):
            if best is None or cand[2:] < best[2:]:
                best = cand
                states = []
            if cand == best:
                states.append(_State((a, b), frozenset((key,))))
        if best is None:
            return  # edgeless graph: empty code
        self.code.append(best)
        self.vertex_labels = [best[2], best[4]]
        self.states = states

    def step(self) -> DFSEdge | None:
        """Append the next minimum edge; None when the code is complete."""
        if len(self.code) == self.graph.num_edges:
            return None
        rmpath = DFSCode(self.code).rightmost_path
        best = self._min_backward(rmpath)
        if best is None:
            best = self._min_forward(rmpath)
        if best is None:
            raise _not_connected(self.graph)
        edge, new_states = best
        self.code.append(edge)
        if edge[0] < edge[1]:  # forward discovers a vertex
            self.vertex_labels.append(edge[4])
        self.states = new_states
        return edge

    def _min_backward(
        self, rmpath: tuple[int, ...]
    ) -> tuple[DFSEdge, list[_State]] | None:
        links = self.links
        rm = rmpath[-1]
        label_rm = self.vertex_labels[rm]
        best: DFSEdge | None = None
        best_states: list[_State] = []
        for state in self.states:
            between = links[state.nodes[rm]]
            for j in rmpath[:-1]:
                for _w, tail, key in between.get(state.nodes[j], ()):
                    if key in state.used:
                        continue
                    cand: DFSEdge = (rm, j, label_rm) + tail
                    if best is None or dfs_edge_lt(cand, best):
                        best = cand
                        best_states = []
                    if cand == best:
                        best_states.append(
                            _State(state.nodes, state.used | {key})
                        )
        if best is None:
            return None
        return best, best_states

    def _min_forward(
        self, rmpath: tuple[int, ...]
    ) -> tuple[DFSEdge, list[_State]] | None:
        incidence = self.incidence
        new_id = len(self.vertex_labels)
        best: DFSEdge | None = None
        best_states: list[_State] = []
        # Larger anchor i = smaller edge, so scan the rightmost path from
        # the rightmost vertex toward the root and stop at the first depth
        # with any candidate.
        for i in reversed(rmpath):
            prefix = (i, new_id, self.vertex_labels[i])
            for state in self.states:
                mapped = set(state.nodes)
                for w, tail, key in incidence[state.nodes[i]]:
                    if w in mapped:
                        continue
                    cand: DFSEdge = prefix + tail
                    if best is None or dfs_edge_lt(cand, best):
                        best = cand
                        best_states = []
                    if cand == best:
                        best_states.append(
                            _State(state.nodes + (w,), state.used | {key})
                        )
            if best is not None:
                break
        if best is None:
            return None
        return best, best_states


@lru_cache(maxsize=1 << 16)
def _is_min_code_cached(edges: tuple[DFSEdge, ...]) -> bool:
    graph = graph_from_code(edges)
    builder = _MinCodeBuilder(graph)
    if builder.code[0] != edges[0]:
        return False
    for position in range(1, len(edges)):
        min_edge = builder.step()
        if min_edge != edges[position]:
            return False
    return True


def is_min_code(code: DFSCode | Sequence[DFSEdge]) -> bool:
    """gSpan's minimality test: is ``code`` the minimum DFS code of the
    graph it describes?

    Memoized on the edge tuple: the specializer and the streaming
    updater re-test the same candidate codes across taxonomy levels and
    deltas, and minimality is a pure function of the code.  Parallel
    workers are separate processes, so each keeps a private cache and
    the counter/differential invariants are unaffected.
    """
    edges = code.edges if isinstance(code, DFSCode) else tuple(code)
    if not edges:
        return True
    return _is_min_code_cached(edges)


# (directed, structure_key) -> canonical code.  The flag keeps graphs
# and digraphs apart: their structure keys coincide whenever every arc
# runs from a lower to a higher node id.  Bounded by wholesale clearing,
# which beats lru_cache bookkeeping here because hits vastly outnumber
# evictions during a mining run.
_MIN_CODE_CACHE: dict[tuple, DFSCode] = {}
_MIN_CODE_CACHE_MAX = 1 << 15
_min_code_hits = 0
_min_code_misses = 0


def min_dfs_code(graph) -> DFSCode:
    """The canonical (minimum) DFS code of a connected labeled graph or
    a weakly connected digraph.

    Raises :class:`MiningError` for disconnected graphs.  An edgeless
    single-vertex graph yields the empty code; since frequent patterns
    always contain an edge this is only relevant to callers using codes
    as general-purpose canonical keys.

    Memoized on the graph kind and :meth:`Graph.structure_key` — equal
    keys mean identical labeled graphs, hence identical canonical codes.
    gSpan enumerates the same candidate graph through many extension
    orders, so the canonicalization in the specializer's ``finalize``
    step hits the cache heavily.
    """
    global _min_code_hits, _min_code_misses
    if graph.num_edges == 0:
        if graph.num_nodes > 1:
            raise _not_connected(graph)
        return DFSCode(())
    key = (graph.directed, graph.structure_key())
    cached = _MIN_CODE_CACHE.get(key)
    if cached is not None:
        _min_code_hits += 1
        return cached
    if not graph.is_connected():
        raise _not_connected(graph)
    builder = _MinCodeBuilder(graph)
    while builder.step() is not None:
        pass
    code = DFSCode(builder.code)
    _min_code_misses += 1
    if len(_MIN_CODE_CACHE) >= _MIN_CODE_CACHE_MAX:
        _MIN_CODE_CACHE.clear()
    _MIN_CODE_CACHE[key] = code
    return code


def canonical_cache_info() -> dict[str, int]:
    """Hit/miss/size statistics for both canonicality caches."""
    info = _is_min_code_cached.cache_info()
    return {
        "is_min_code_hits": info.hits,
        "is_min_code_misses": info.misses,
        "is_min_code_size": info.currsize,
        "min_dfs_code_hits": _min_code_hits,
        "min_dfs_code_misses": _min_code_misses,
        "min_dfs_code_size": len(_MIN_CODE_CACHE),
    }


def clear_canonical_caches() -> None:
    global _min_code_hits, _min_code_misses
    _is_min_code_cached.cache_clear()
    _MIN_CODE_CACHE.clear()
    _min_code_hits = 0
    _min_code_misses = 0


def min_code_with_embeddings(
    graph: Graph,
) -> tuple[DFSCode, list[tuple[int, ...]]]:
    """The minimum DFS code of ``graph`` plus every embedding realizing it.

    Each embedding maps code vertex id -> graph node; for a pattern
    graph these are exactly the isomorphisms from the code's position
    space onto the graph — one per automorphism.  The serving layer uses
    them to translate query-node labels into occurrence-index positions
    without any isomorphism search: the builder already tracked every
    minimal embedding while canonicalizing.
    """
    if graph.num_edges == 0:
        if graph.num_nodes > 1:
            raise _not_connected(graph)
        embeddings = [(0,)] if graph.num_nodes == 1 else []
        return DFSCode(()), embeddings
    if not graph.is_connected():
        raise _not_connected(graph)
    builder = _MinCodeBuilder(graph)
    while builder.step() is not None:
        pass
    seen: set[tuple[int, ...]] = set()
    embeddings = []
    for state in builder.states:
        if state.nodes not in seen:
            seen.add(state.nodes)
            embeddings.append(state.nodes)
    return DFSCode(builder.code), embeddings
