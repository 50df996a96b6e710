"""Incremental maintenance of a :class:`PatternStore` under deltas.

:meth:`IncrementalTaxogram.apply` brings a persisted mining result up to
date with a :class:`~repro.incremental.delta.DatabaseDelta` while
guaranteeing output *always* equivalent to fresh mining of the updated
database:

1. **Relabel the delta only** — added graphs pass through Step 1
   individually; survivors keep their relabeled occurrence state.
2. **Maintain existing classes** — removals clear occurrence columns (and
   AND-NOT the persisted OIEs); additions replay each class's DFS code
   over the relabeled adds via :func:`repro.mining.projection.project_code`
   and append columns.  Supports are then recomputed by bit-set
   operations; classes falling below sigma are demoted into the border.
3. **Re-seed growth from the negative border** — each stored border
   code's exact support set is maintained the same way; codes reaching
   the new threshold are re-expanded with gSpan (the only subgraph
   search of the whole update).
4. **Specialize** every surviving and discovered class.

Completeness rests on two invariants.  First, the border always holds
*every* minimal infrequent code with at least one embedding whose
canonical parent is explored — additions can mint such codes with
embeddings only inside added graphs, so the updater also scans the
one-edge codes of the adds and the add-embedding extensions of every
surviving class.  Second, a pattern with no border entry has no
pre-delta embeddings, so its new support is at most the number of added
graphs; whenever ``n_added >= min_count_new`` (or the delta exceeds
``full_remine_fraction`` of the database) the updater transparently
falls back to a full remine into a fresh store.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from functools import cmp_to_key
from pathlib import Path

from repro.core.occurrence_index import build_occurrence_index
from repro.core.relabel import repair_taxonomy
from repro.core.results import (
    MiningCounters,
    TaxogramResult,
    TaxonomyPattern,
)
from repro.core.specializer import SpecializerOptions, specialize_class
from repro.exceptions import MiningError, TaxonomyError
from repro.graphs.database import GraphDatabase
from repro.incremental.delta import DatabaseDelta
from repro.incremental.store import PatternStore, StoredClass
from repro.mining.dfs_code import (
    DFSCode,
    DFSEdge,
    code_lt,
    graph_from_code,
    is_min_code,
)
from repro.mining.gspan import GSpanMiner, MinedPattern, min_support_count
from repro.mining.projection import project_code
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import NOOP_TRACER, Tracer
from repro.util.bitset import BitSet
from repro.util.timing import Stopwatch

__all__ = ["IncrementalOptions", "IncrementalTaxogram"]

_Code = tuple[DFSEdge, ...]


def _code_cmp(a: _Code, b: _Code) -> int:
    if code_lt(a, b):
        return -1
    if code_lt(b, a):
        return 1
    return 0


# gSpan's DFS-lexicographic order on whole codes; sorting final classes
# by it reproduces the class ids a fresh sequential run assigns.
_CODE_KEY = cmp_to_key(_code_cmp)


@dataclass(frozen=True)
class IncrementalOptions:
    """Tuning knobs for :class:`IncrementalTaxogram`.

    ``full_remine_fraction``: deltas touching more than this fraction of
    the pre-delta database trigger a transparent full remine (the
    completeness guard ``n_added >= min_count`` does so independently).
    ``compact_dead_fraction``: once this fraction of a class's occurrence
    columns are tombstones, the columns and the persisted OIE bit-sets
    are rewritten densely.
    """

    full_remine_fraction: float = 0.5
    compact_dead_fraction: float = 0.3
    disk_max_resident_entries: int = 4096


class IncrementalTaxogram:
    """Applies database deltas to a persisted :class:`PatternStore`."""

    def __init__(
        self,
        store: "PatternStore | str | Path",
        options: IncrementalOptions | None = None,
    ) -> None:
        if not isinstance(store, PatternStore):
            store = PatternStore.open(store)
        self.store = store
        self.options = options if options is not None else IncrementalOptions()

    def apply(
        self, delta: DatabaseDelta, tracer: Tracer | None = None
    ) -> TaxogramResult:
        """Update the store under ``delta``; returns the post-delta result.

        The returned result is equivalent to fresh mining of the updated
        database — identical patterns, supports and class ids.  The
        store on disk is rewritten only after the update completes.
        """
        if tracer is None:
            tracer = NOOP_TRACER
        store = self.store
        opts = self.options
        old_size = len(store.database)
        for gid in delta.remove_ids:
            if gid >= old_size:
                raise MiningError(
                    f"remove id {gid} is out of range for a database of "
                    f"{old_size} graphs"
                )
        adds_db = delta.added_database(
            store.database.node_labels, store.database.edge_labels
        )
        for label in adds_db.distinct_node_labels():
            if label not in store.taxonomy:
                raise TaxonomyError(
                    f"database node label {adds_db.node_label_name(label)!r} "
                    "is not a taxonomy concept"
                )
        n_added = len(adds_db)
        n_removed = len(delta.remove_ids)
        new_size = old_size - n_removed + n_added
        if new_size <= 0:
            raise MiningError("delta removes every graph in the database")
        min_count_new = min_support_count(store.min_support, new_size)
        if (
            n_added + n_removed > opts.full_remine_fraction * old_size
            or n_added >= min_count_new
        ):
            return self._full_remine(delta, adds_db, tracer)

        counters = MiningCounters()
        metrics = MetricsRegistry()
        stage_seconds: dict[str, float] = {}
        removed_set = frozenset(delta.remove_ids)

        watch = Stopwatch()
        with watch, tracer.span("incremental.relabel"):
            working, most_general = repair_taxonomy(
                store.taxonomy, store.artificial_root_name
            )
            id_map: dict[int, int] = {}
            for old_gid in range(old_size):
                if old_gid not in removed_set:
                    id_map[old_gid] = len(id_map)
            base = old_size - n_removed  # first id of the added graphs
            updated_db = GraphDatabase(
                store.database.node_labels, store.database.edge_labels
            )
            for graph in store.database:
                if graph.graph_id in removed_set:
                    continue
                updated_db.add_graph(graph.copy())
            for graph in adds_db:
                updated_db.add_graph(graph.copy())
            adds_dmg = adds_db.copy()
            adds_originals: list[list[int]] = []
            for graph in adds_dmg:
                adds_originals.append(graph.node_labels())
                for v in graph.nodes():
                    graph.relabel_node(v, most_general[graph.node_label(v)])
        stage_seconds["relabel"] = watch.elapsed

        ancestor_cache: dict[int, tuple[int, ...]] = {}

        def ancestors_of(original: int) -> tuple[int, ...]:
            ancestors = ancestor_cache.get(original)
            if ancestors is None:
                ancestors = tuple(working.ancestors_or_self(original))
                ancestor_cache[original] = ancestors
            return ancestors

        survivors: list[StoredClass] = []
        demoted: list[tuple[_Code, BitSet]] = []
        adds_border: dict[_Code, BitSet] = {}
        class_codes = {stored.code for stored in store.classes}
        scan_miner = (
            GSpanMiner(adds_dmg, min_count=min_count_new, max_edges=store.max_edges)
            if n_added
            else None
        )

        # From here on the persisted OIEs are mutated in place; the
        # marker tells concurrent StoreReaders to treat on-disk state as
        # unstable until save() commits the new version.
        store.mark_update_in_progress()

        watch = Stopwatch()
        with watch, tracer.span("incremental.maintain"):
            for stored in list(store.classes):
                index = store.load_index(stored, opts.disk_max_resident_entries)
                try:
                    if removed_set:
                        cleared = stored.columns.clear_graphs(removed_set)
                        if cleared:
                            metrics.add(
                                "incremental.columns_cleared",
                                cleared.bit_count(),
                            )
                            index.clear_bits(cleared)
                        stored.columns.remap_graphs(id_map)
                    if n_added:
                        embeddings = project_code(adds_dmg, stored.code)
                        metrics.add(
                            "incremental.embeddings_replayed", len(embeddings)
                        )
                        counters.embedding_extensions += len(embeddings)
                        for emb in embeddings:
                            occ_bit = 1 << stored.columns.append(
                                base + emb.graph_id, emb.nodes
                            )
                            graph_originals = adds_originals[emb.graph_id]
                            for position, node in enumerate(emb.nodes):
                                for label in ancestors_of(graph_originals[node]):
                                    index.insert(position, label, occ_bit)
                                    counters.occurrence_index_updates += 1
                        if embeddings and not (
                            store.max_edges is not None
                            and len(stored.code) >= store.max_edges
                        ):
                            self._scan_new_children(
                                scan_miner,
                                stored.code,
                                embeddings,
                                base,
                                class_codes,
                                store.border,
                                adds_border,
                            )
                    if stored.columns.dead_fraction > opts.compact_dead_fraction:
                        remap = stored.columns.compaction_map()
                        index.remap_bits(remap)
                        stored.columns.compact(remap)
                        metrics.add("incremental.compactions", 1)
                    index.finish()
                finally:
                    index.close()
                support = stored.columns.support_count(stored.columns.all_bits)
                if support >= min_count_new:
                    survivors.append(stored)
                else:
                    metrics.add("incremental.demotions", 1)
                    gids = stored.columns.support_set(stored.columns.all_bits)
                    demoted.append((stored.code, BitSet(gids)))
                    store.drop_class(stored)
        stage_seconds["maintain_classes"] = watch.elapsed

        promotions: list[tuple[_Code, BitSet]] = []
        new_border: dict[_Code, BitSet] = {}
        discovered: dict[_Code, MinedPattern] = {}
        surviving_codes = {stored.code for stored in survivors}
        new_originals: list[list[int]] = []

        watch = Stopwatch()
        with watch, tracer.span("incremental.border"):
            for code, gids in store.border.items():
                g = gids.compact(id_map) if removed_set else gids.copy()
                if n_added:
                    embeddings = project_code(adds_dmg, code)
                    metrics.add(
                        "incremental.embeddings_replayed", len(embeddings)
                    )
                    for emb in embeddings:
                        g.add(base + emb.graph_id)
                if len(g) >= min_count_new:
                    promotions.append((code, g))
                elif g:
                    new_border[code] = g
            for code, gids in demoted:
                if gids:
                    new_border[code] = gids
            if n_added:
                self._scan_new_initial_edges(
                    adds_dmg, base, class_codes, store.border, adds_border
                )
            for code, gids in adds_border.items():
                new_border.setdefault(code, gids)

            if promotions:
                new_dmg = updated_db.copy()
                for graph in new_dmg:
                    new_originals.append(graph.node_labels())
                    for v in graph.nodes():
                        graph.relabel_node(v, most_general[graph.node_label(v)])

                def capture(code: _Code, gids: frozenset[int]) -> None:
                    if gids and code not in new_border:
                        new_border[code] = BitSet(gids)

                def deliver(pattern: MinedPattern) -> None:
                    code = pattern.code.edges
                    if code in surviving_codes or code in discovered:
                        return
                    counters.embedding_extensions += len(pattern.embeddings)
                    discovered[code] = pattern

                miner = GSpanMiner(
                    new_dmg,
                    max_edges=store.max_edges,
                    keep_embeddings=True,
                    min_count=min_count_new,
                    counters=counters,
                    prune_report=capture,
                )
                # Prefix seeds sort first, so a seed that is a descendant
                # of an earlier one is already discovered and skipped.
                for code, _gids in sorted(
                    promotions, key=lambda item: _CODE_KEY(item[0])
                ):
                    if code in discovered:
                        continue
                    metrics.add("incremental.border_reexpansions", 1)
                    miner._grow(
                        DFSCode(code), project_code(new_dmg, code), deliver
                    )
        stage_seconds["border"] = watch.elapsed

        patterns: list[TaxonomyPattern] = []
        final_classes: list[StoredClass] = []
        specializer_options = SpecializerOptions()
        watch = Stopwatch()
        with watch, tracer.span("incremental.specialize"):
            entries: list[tuple[_Code, StoredClass | MinedPattern]] = [
                (stored.code, stored) for stored in survivors
            ]
            entries.extend(discovered.items())
            entries.sort(key=lambda item: _CODE_KEY(item[0]))
            for class_id, (code, payload) in enumerate(entries):
                if isinstance(payload, StoredClass):
                    stored = payload
                    index = store.load_index(
                        stored, opts.disk_max_resident_entries
                    )
                    try:
                        patterns.extend(
                            specialize_class(
                                class_id=class_id,
                                structure=graph_from_code(stored.code),
                                store=stored.columns,
                                index=index,
                                taxonomy=working,
                                min_count=min_count_new,
                                database_size=new_size,
                                options=specializer_options,
                                counters=counters,
                            )
                        )
                    finally:
                        index.close()
                    final_classes.append(stored)
                else:
                    columns, mem_index = build_occurrence_index(
                        payload.code.num_vertices,
                        payload.embeddings,
                        new_originals,
                        working,
                        None,
                        counters,
                    )
                    patterns.extend(
                        specialize_class(
                            class_id=class_id,
                            structure=payload.graph,
                            store=columns,
                            index=mem_index,
                            taxonomy=working,
                            min_count=min_count_new,
                            database_size=new_size,
                            options=specializer_options,
                            counters=counters,
                        )
                    )
                    stored = store.add_class(code, columns)
                    disk = store.create_index(
                        stored, opts.disk_max_resident_entries
                    )
                    try:
                        for position in range(disk.num_positions):
                            for label, bits in mem_index.covered(position).items():
                                disk.insert(position, label, bits)
                        disk.finish()
                    finally:
                        disk.close()
                    final_classes.append(stored)
            counters.pattern_classes = len(entries)
        stage_seconds["specialize"] = watch.elapsed

        store.database = updated_db
        store.classes = final_classes
        store.border = new_border
        store.save()

        metrics.set_gauge("incremental.classes", len(final_classes))
        metrics.set_gauge("incremental.border_size", len(new_border))
        metrics.set_gauge("incremental.database_size", new_size)

        from repro.core.taxogram import _build_report

        return TaxogramResult(
            patterns=patterns,
            database_size=new_size,
            min_support=store.min_support,
            algorithm="taxogram",
            counters=counters,
            stage_seconds=stage_seconds,
            report=_build_report(
                "taxogram",
                counters,
                stage_seconds,
                tracer,
                updated_db,
                metrics=metrics,
            ),
        )

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _scan_new_children(
        scan_miner: GSpanMiner,
        code: _Code,
        add_embeddings,
        base: int,
        class_codes: set[_Code],
        old_border: dict[_Code, BitSet],
        adds_border: dict[_Code, BitSet],
    ) -> None:
        """Border entries whose first embeddings live in added graphs.

        A minimal child of a surviving class with at least one pre-delta
        embedding is already a class or a border entry; any other child
        generated from the add-embeddings has *all* its embeddings inside
        added graphs (an embedding never spans graphs), so its exact
        support set is the added graphs below — and the
        ``n_added < min_count`` guard keeps it infrequent.
        """
        parent = DFSCode(code)
        for edge, child_embeddings in scan_miner._extensions(
            parent, add_embeddings
        ).items():
            child = parent.extended(edge)
            if child.edges in class_codes or child.edges in old_border:
                continue
            if not is_min_code(child):
                continue
            adds_border[child.edges] = BitSet(
                base + emb.graph_id for emb in child_embeddings
            )

    @staticmethod
    def _scan_new_initial_edges(
        adds_dmg: GraphDatabase,
        base: int,
        class_codes: set[_Code],
        old_border: dict[_Code, BitSet],
        adds_border: dict[_Code, BitSet],
    ) -> None:
        """Minimal one-edge codes introduced by the added graphs.

        Every one-edge code with a pre-delta embedding is a class or a
        border entry (initial candidates are always generated), so only
        codes absent from both can appear here.
        """
        initial: dict[DFSEdge, set[int]] = {}
        for graph in adds_dmg:
            for u, v, elabel in graph.edges():
                lu, lv = graph.node_label(u), graph.node_label(v)
                la, lb = (lu, lv) if lu <= lv else (lv, lu)
                initial.setdefault((0, 1, la, elabel, lb), set()).add(
                    base + graph.graph_id
                )
        for edge, gids in initial.items():
            code: _Code = (edge,)
            if code in class_codes or code in old_border:
                continue
            adds_border.setdefault(code, BitSet(gids))

    def _full_remine(
        self, delta: DatabaseDelta, adds_db: GraphDatabase, tracer: Tracer
    ) -> TaxogramResult:
        """Remine the updated database into a fresh store and swap it in.

        The rebuild lands in a sibling directory and replaces the old
        store only after it is complete, so a crash mid-remine leaves the
        previous store intact.
        """
        from repro.core.taxogram import TaxogramOptions
        from repro.incremental.pipeline import mine_to_store

        store = self.store
        removed_set = frozenset(delta.remove_ids)
        updated_db = GraphDatabase(
            store.database.node_labels, store.database.edge_labels
        )
        for graph in store.database:
            if graph.graph_id in removed_set:
                continue
            updated_db.add_graph(graph.copy())
        for graph in adds_db:
            updated_db.add_graph(graph.copy())

        base = store.directory.resolve()
        tmp = base.with_name(base.name + ".rebuild")
        if tmp.exists():
            shutil.rmtree(tmp)
        options = TaxogramOptions(
            min_support=store.min_support,
            max_edges=store.max_edges,
            artificial_root_name=store.artificial_root_name,
            store_out=str(tmp),
        )
        result, new_store = mine_to_store(
            updated_db, store.taxonomy, options, tracer
        )
        # Readers fence on a monotonic store_version; re-save the fresh
        # store so its version strictly advances past the old one.  The
        # app state (e.g. the streaming applier's WAL offset) must ride
        # along, or a crash after the swap would replay applied deltas.
        new_store.store_version = store.store_version
        new_store.app_state = dict(store.app_state)
        new_store.save()
        store.mark_update_in_progress()
        shutil.rmtree(base)
        tmp.rename(base)
        self.store = PatternStore.open(base)
        if result.report is not None:
            result.report.counters["incremental.fallbacks"] = 1
        return result
