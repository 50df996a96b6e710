"""Directed labeled graphs and databases.

Arcs are ordered pairs ``u -> v`` with an integer label.  Both ``u -> v``
and ``v -> u`` may exist (with independent labels); self-loops and
parallel arcs in the same direction are rejected, matching the
undirected substrate's conventions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import GraphError
from repro.util.interner import LabelInterner
from repro.util.stats import DatabaseStats, describe_database

__all__ = ["DiGraph", "DiGraphDatabase"]


class DiGraph:
    """A directed graph with labeled nodes and labeled arcs."""

    __slots__ = ("graph_id", "_labels", "_out", "_in")

    directed = True

    def __init__(self, graph_id: int = -1) -> None:
        self.graph_id = graph_id
        self._labels: list[int] = []
        self._out: list[dict[int, int]] = []  # u -> {v: arc label}
        self._in: list[dict[int, int]] = []  # v -> {u: arc label}

    # -- construction ----------------------------------------------------------

    def add_node(self, label: int) -> int:
        if label < 0:
            raise GraphError(f"node label must be non-negative, got {label}")
        self._labels.append(label)
        self._out.append({})
        self._in.append({})
        return len(self._labels) - 1

    def add_arc(self, source: int, target: int, label: int = 0) -> None:
        self._check_node(source)
        self._check_node(target)
        if source == target:
            raise GraphError(f"self-loops are not supported (node {source})")
        if target in self._out[source]:
            raise GraphError(f"duplicate arc ({source} -> {target})")
        if label < 0:
            raise GraphError(f"arc label must be non-negative, got {label}")
        self._out[source][target] = label
        self._in[target][source] = label

    def relabel_node(self, v: int, label: int) -> None:
        self._check_node(v)
        if label < 0:
            raise GraphError(f"node label must be non-negative, got {label}")
        self._labels[v] = label

    @classmethod
    def from_arcs(
        cls,
        node_labels: Iterable[int],
        arcs: Iterable[tuple[int, int] | tuple[int, int, int]],
        graph_id: int = -1,
    ) -> "DiGraph":
        graph = cls(graph_id)
        for label in node_labels:
            graph.add_node(label)
        for arc in arcs:
            if len(arc) == 2:
                u, v = arc  # type: ignore[misc]
                graph.add_arc(u, v)
            else:
                u, v, label = arc  # type: ignore[misc]
                graph.add_arc(u, v, label)
        return graph

    # -- inspection ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Arc count (named ``num_edges`` for stats interoperability)."""
        return sum(len(targets) for targets in self._out)

    def node_label(self, v: int) -> int:
        self._check_node(v)
        return self._labels[v]

    def node_labels(self) -> list[int]:
        return list(self._labels)

    def nodes(self) -> range:
        return range(len(self._labels))

    def out_items(self, v: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(target, arc label)`` for arcs leaving ``v``."""
        self._check_node(v)
        return iter(self._out[v].items())

    def in_items(self, v: int) -> Iterator[tuple[int, int]]:
        """Iterate ``(source, arc label)`` for arcs entering ``v``."""
        self._check_node(v)
        return iter(self._in[v].items())

    def undirected_degree(self, v: int) -> int:
        """Incident arc count, both directions."""
        self._check_node(v)
        return len(self._out[v]) + len(self._in[v])

    def has_arc(self, source: int, target: int) -> bool:
        return 0 <= source < len(self._out) and target in self._out[source]

    def arc_label(self, source: int, target: int) -> int:
        self._check_node(source)
        try:
            return self._out[source][target]
        except KeyError:
            raise GraphError(f"no arc ({source} -> {target})") from None

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Iterate arcs as ``(source, target, label)``."""
        for source, targets in enumerate(self._out):
            for target, label in targets.items():
                yield (source, target, label)

    def host_adjacency(self) -> tuple[list[list], list[dict]]:
        """:meth:`repro.graphs.graph.Graph.host_adjacency` for arcs.

        Each arc appears once from each endpoint.  Its tail is ``(arc
        label, label of w, d)`` with ``d = 1`` when the arc leaves ``v``
        and ``d = 0`` when it enters ``v``; its key is ``(source,
        target)``.  Out-arcs precede in-arcs, so ``links[v][w]`` lists
        ``v -> w`` before ``w -> v``.
        """
        labels = self._labels
        shared: dict[tuple, tuple] = {}
        incidence: list[list] = []
        links: list[dict] = []
        for v in range(len(labels)):
            entries = []
            pairs: dict[int, tuple] = {}
            for arcs, d in ((self._out[v], 1), (self._in[v], 0)):
                for w, label in arcs.items():
                    tail = (label, labels[w], d)
                    key = (v, w) if d else (w, v)
                    entry = (
                        w,
                        shared.setdefault(tail, tail),
                        shared.setdefault(key, key),
                    )
                    entries.append(entry)
                    pairs[w] = pairs.get(w, ()) + (entry,)
            incidence.append(entries)
            links.append(pairs)
        return incidence, links

    def is_weakly_connected(self) -> bool:
        """Connectivity of the underlying undirected skeleton."""
        n = len(self._labels)
        if n == 0:
            return True
        seen = [False] * n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            u = stack.pop()
            for v in list(self._out[u]) + list(self._in[u]):
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n

    # Connectivity in the sense min_dfs_code and gSpan need.
    is_connected = is_weakly_connected

    def copy(self, graph_id: int | None = None) -> "DiGraph":
        out = DiGraph(self.graph_id if graph_id is None else graph_id)
        out._labels = list(self._labels)
        out._out = [dict(d) for d in self._out]
        out._in = [dict(d) for d in self._in]
        return out

    def structure_key(self) -> tuple:
        return (tuple(self._labels), tuple(sorted(self.arcs())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DiGraph):
            return self.structure_key() == other.structure_key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.structure_key())

    def __repr__(self) -> str:
        return (
            f"DiGraph(id={self.graph_id}, nodes={self.num_nodes}, "
            f"arcs={self.num_edges})"
        )

    def _check_node(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise GraphError(f"unknown node {v} (graph has {len(self._labels)} nodes)")


class DiGraphDatabase:
    """An indexed list of :class:`DiGraph` with shared label interners."""

    __slots__ = ("node_labels", "edge_labels", "_graphs")

    directed = True

    def __init__(
        self,
        node_labels: LabelInterner | None = None,
        edge_labels: LabelInterner | None = None,
    ) -> None:
        self.node_labels = node_labels if node_labels is not None else LabelInterner()
        self.edge_labels = edge_labels if edge_labels is not None else LabelInterner()
        self._graphs: list[DiGraph] = []

    def add_graph(self, graph: DiGraph) -> int:
        for label in graph.node_labels():
            if label >= len(self.node_labels):
                raise GraphError(
                    f"graph uses node label id {label} not present in the "
                    f"database interner ({len(self.node_labels)} labels)"
                )
        graph.graph_id = len(self._graphs)
        self._graphs.append(graph)
        return graph.graph_id

    def new_graph(
        self,
        node_labels: Sequence[str],
        arcs: Iterable[tuple[int, int] | tuple[int, int, str]] = (),
    ) -> DiGraph:
        graph = DiGraph()
        for name in node_labels:
            graph.add_node(self.node_labels.intern(name))
        for arc in arcs:
            if len(arc) == 2:
                u, v = arc  # type: ignore[misc]
                graph.add_arc(u, v, self.edge_labels.intern("-"))
            else:
                u, v, name = arc  # type: ignore[misc]
                graph.add_arc(u, v, self.edge_labels.intern(name))
        self.add_graph(graph)
        return graph

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[DiGraph]:
        return iter(self._graphs)

    def __getitem__(self, graph_id: int) -> DiGraph:
        return self._graphs[graph_id]

    def distinct_node_labels(self) -> set[int]:
        used: set[int] = set()
        for graph in self._graphs:
            used.update(graph.node_labels())
        return used

    def stats(self) -> DatabaseStats:
        return describe_database(self._graphs)

    def copy(self) -> "DiGraphDatabase":
        out = DiGraphDatabase(self.node_labels.copy(), self.edge_labels.copy())
        for graph in self._graphs:
            out._graphs.append(graph.copy())
        return out

    def __repr__(self) -> str:
        return (
            f"DiGraphDatabase(graphs={len(self._graphs)}, "
            f"node_labels={len(self.node_labels)})"
        )
