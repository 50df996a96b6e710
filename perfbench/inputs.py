"""Seeded inputs and an independent support checker.

The base dataset is the program's own Fig 4.2 analog (``taxogram
generate D5000`` at graph scale 0.1, taxonomy scale 0.01); the graphs
the generator draws after those 500 are the pool ``ingest`` adds from.
The run's seed then draws an isomorphic re-encoding of the database: graph order, vertex
numbering, edge order and direction, and taxonomy line order all
change, so every seed hands the program different input files that
take the same mining work.  (Replacing the dataset's own generator
seed instead moves the mining time by about 30% between seeds, more
than any bound a regression gate can use; see README.md.)

:class:`Checker` answers generalized-subgraph-isomorphism supports by
its own backtracking search, without the program's matchers, so the
benchmark can check answers it did not get from the program.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from common import DATASET, POOL_SCALE, TAXONOMY_SCALE, run_cli


class Graph:
    __slots__ = ("labels", "edges", "adj")

    def __init__(self, labels: list[str], edges: list[tuple[int, int, str]]):
        self.labels = labels
        self.edges = edges
        self.adj: list[dict[int, str]] = [{} for _ in labels]
        for u, v, label in edges:
            self.adj[u][v] = label
            self.adj[v][u] = label

    def text(self, header: int = 0) -> str:
        lines = [f"t # {header}"]
        lines += [f"v {i} {label}" for i, label in enumerate(self.labels)]
        lines += [f"e {u} {v} {label}" for u, v, label in self.edges]
        return "\n".join(lines) + "\n"


def parse_graphs(text: str) -> list[Graph]:
    graphs: list[Graph] = []
    labels: list[str] | None = None
    edges: list[tuple[int, int, str]] = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "t":
            if labels is not None:
                graphs.append(Graph(labels, edges))
            labels, edges = [], []
        elif parts[0] == "v":
            labels.append(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2]), parts[3]))
    if labels is not None:
        graphs.append(Graph(labels, edges))
    return graphs


def parse_taxonomy(text: str) -> dict[str, list[str]]:
    """concept -> parents."""
    parents: dict[str, list[str]] = {}
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "n":
            parents.setdefault(parts[1], [])
        elif parts[0] == "i":
            parents.setdefault(parts[2], [])
            parents.setdefault(parts[1], []).append(parts[2])
    return parents


def generate_base(workdir: Path, env: dict) -> tuple[str, str]:
    """The generator's graphs at ``POOL_SCALE`` and its taxonomy.  The
    generator draws graphs one after another from one stream, so the
    first 500 are those it makes at graph scale 0.1."""
    graphs, taxonomy = workdir / "base.graphs", workdir / "base.tax"
    run_cli(
        ["generate", DATASET, "--graphs-out", str(graphs),
         "--taxonomy-out", str(taxonomy), "--graph-scale", str(POOL_SCALE),
         "--taxonomy-scale", str(TAXONOMY_SCALE)],
        env, workdir,
    )
    return graphs.read_text(), taxonomy.read_text()


def reencode(graphs: list[Graph], taxonomy_text: str, rng: random.Random):
    """An isomorphic re-encoding of (graphs, taxonomy) drawn from ``rng``."""
    order = list(range(len(graphs)))
    rng.shuffle(order)
    out: list[Graph] = []
    for gid in order:
        graph = graphs[gid]
        perm = list(range(len(graph.labels)))
        rng.shuffle(perm)  # perm[new] = old
        new_of = {old: new for new, old in enumerate(perm)}
        edges = []
        for u, v, label in graph.edges:
            a, b = new_of[u], new_of[v]
            if rng.random() < 0.5:
                a, b = b, a
            edges.append((a, b, label))
        rng.shuffle(edges)
        out.append(Graph([graph.labels[old] for old in perm], edges))
    lines = [ln for ln in taxonomy_text.splitlines() if ln.strip()]
    declared = [ln for ln in lines if ln.startswith("n ")]
    isa = [ln for ln in lines if not ln.startswith("n ")]
    rng.shuffle(declared)
    rng.shuffle(isa)
    return out, "\n".join(declared + isa) + "\n"


def random_subgraph(rng: random.Random, graph: Graph, edges: int) -> Graph:
    """A random connected subgraph of ``graph`` with at most ``edges``
    edges (fewer when its component runs out)."""
    start = rng.choice(graph.edges)
    chosen = [start]
    nodes = [start[0], start[1]]
    while len(chosen) < edges:
        frontier = [e for e in graph.edges if e not in chosen
                    and (e[0] in nodes or e[1] in nodes)]
        if not frontier:
            break
        edge = rng.choice(frontier)
        chosen.append(edge)
        nodes += [v for v in edge[:2] if v not in nodes]
    index = {v: i for i, v in enumerate(nodes)}
    return Graph([graph.labels[v] for v in nodes],
                 [(index[u], index[v], label) for u, v, label in chosen])


def random_path(rng: random.Random, graph: Graph, edges: int) -> Graph | None:
    """A random simple path with ``edges`` edges, or None at a dead end."""
    path = [rng.randrange(len(graph.labels))]
    while len(path) <= edges:
        options = [v for v in graph.adj[path[-1]] if v not in path]
        if not options:
            return None
        path.append(rng.choice(options))
    return Graph([graph.labels[v] for v in path],
                 [(i, i + 1, graph.adj[path[i]][path[i + 1]])
                  for i in range(edges)])


def write_graphs(graphs: list[Graph], path: Path) -> None:
    path.write_text("".join(g.text(i) for i, g in enumerate(graphs)))


def canonical(graph: Graph) -> tuple:
    """Exact-label canonical form of a small graph (brute force)."""
    n = len(graph.labels)
    best = None
    for perm in itertools.permutations(range(n)):
        labels = tuple(graph.labels[perm[i]] for i in range(n))
        pos = {old: new for new, old in enumerate(perm)}
        edges = tuple(sorted(
            (min(pos[u], pos[v]), max(pos[u], pos[v]), label)
            for u, v, label in graph.edges
        ))
        key = (labels, edges)
        if best is None or key < best:
            best = key
    return best


class Checker:
    """Supports under generalized subgraph isomorphism: an injective
    node map preserving every pattern edge and its label, where each
    pattern label is the graph label or one of its ancestors."""

    def __init__(self, taxonomy: dict[str, list[str]], graphs: list[Graph]):
        self.taxonomy = taxonomy
        self.ancestors: dict[str, frozenset[str]] = {}
        for concept in taxonomy:
            self._ancestors(concept)
        self.graphs: list[Graph] = []
        # Bit masks of the graphs holding a node label (or a descendant
        # of it) and of those holding an edge label.
        self.by_label: dict[str, int] = {}
        self.by_edge_label: dict[str, int] = {}
        for graph in graphs:
            self.add(graph)

    def _ancestors(self, concept: str) -> frozenset[str]:
        known = self.ancestors.get(concept)
        if known is None:
            found = {concept}
            for parent in self.taxonomy.get(concept, ()):
                found |= self._ancestors(parent)
            known = self.ancestors[concept] = frozenset(found)
        return known

    def add(self, graph: Graph) -> None:
        bit = 1 << len(self.graphs)
        self.graphs.append(graph)
        for label in set(graph.labels):
            for ancestor in self._ancestors(label):
                self.by_label[ancestor] = self.by_label.get(ancestor, 0) | bit
        for label in {label for _u, _v, label in graph.edges}:
            self.by_edge_label[label] = self.by_edge_label.get(label, 0) | bit

    def remove(self, gid: int) -> None:
        """Drop graph ``gid``; later graphs shift down one id."""
        graphs = self.graphs[:gid] + self.graphs[gid + 1:]
        self.graphs, self.by_label, self.by_edge_label = [], {}, {}
        for graph in graphs:
            self.add(graph)

    def graph_ids(self, pattern: Graph) -> list[int]:
        candidates = -1
        for label in pattern.labels:
            candidates &= self.by_label.get(label, 0)
        for _u, _v, label in pattern.edges:
            candidates &= self.by_edge_label.get(label, 0)
        order = self._order(pattern)
        found = []
        gid = 0
        while candidates > 0:
            if candidates & 1 and self._embeds(pattern, order, self.graphs[gid]):
                found.append(gid)
            candidates >>= 1
            gid += 1
        return found

    def support(self, pattern: Graph) -> int:
        return len(self.graph_ids(pattern))

    def embeds(self, pattern: Graph, graph: Graph) -> bool:
        """Whether ``pattern`` occurs in ``graph`` (not necessarily one
        of :attr:`graphs`)."""
        return self._embeds(pattern, self._order(pattern), graph)

    @staticmethod
    def _order(pattern: Graph) -> list[int]:
        """Connected matching order: each node after its first neighbour."""
        order = [max(range(len(pattern.labels)), key=lambda v: len(pattern.adj[v]))]
        while len(order) < len(pattern.labels):
            for v in range(len(pattern.labels)):
                if v not in order and any(u in order for u in pattern.adj[v]):
                    order.append(v)
                    break
        return order

    def _embeds(self, pattern: Graph, order: list[int], graph: Graph) -> bool:
        anc = self.ancestors
        mapping: dict[int, int] = {}
        used: set[int] = set()

        def fits(p: int, g: int) -> bool:
            if g in used or pattern.labels[p] not in anc[graph.labels[g]]:
                return False
            for q, label in pattern.adj[p].items():
                h = mapping.get(q)
                if h is not None and graph.adj[g].get(h) != label:
                    return False
            return True

        def extend(depth: int) -> bool:
            if depth == len(order):
                return True
            p = order[depth]
            anchor = next((q for q in pattern.adj[p] if q in mapping), None)
            pool = graph.adj[mapping[anchor]] if anchor is not None else range(len(graph.labels))
            for g in pool:
                if fits(p, g):
                    mapping[p] = g
                    used.add(g)
                    if extend(depth + 1):
                        return True
                    del mapping[p]
                    used.discard(g)
            return False

        return extend(0)
