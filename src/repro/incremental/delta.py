"""Database deltas.

A :class:`DatabaseDelta` batches graph additions (as graph-database text,
parsed against the store's interners at apply time so label ids stay
consistent) with graph removals (pre-delta graph ids).  The occurrence-id
space a delta acts on is
:class:`repro.core.occurrence_index.OccurrenceColumns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import MiningError
from repro.graphs.database import GraphDatabase
from repro.graphs.io import parse_graph_database, serialize_graph_database
from repro.util.interner import LabelInterner

__all__ = ["DatabaseDelta"]


@dataclass(frozen=True)
class DatabaseDelta:
    """A batched database change: graphs to add and graph ids to remove.

    ``add_text`` is graph-database text (see :mod:`repro.graphs.io`);
    keeping additions textual makes deltas picklable and defers label
    interning to apply time, against the owning store's interners.
    ``remove_ids`` are ids in the *pre-delta* database; removals are
    applied before additions, and surviving graphs keep their relative
    order (added graphs take the ids after them).
    """

    add_text: str = ""
    remove_ids: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for gid in self.remove_ids:
            if gid < 0:
                raise MiningError(f"remove ids must be non-negative, got {gid}")
            if gid in seen:
                raise MiningError(f"duplicate remove id {gid}")
            seen.add(gid)

    @classmethod
    def adding(cls, database: GraphDatabase) -> "DatabaseDelta":
        """A pure-addition delta from an in-memory database."""
        return cls(add_text=serialize_graph_database(database))

    @classmethod
    def removing(cls, ids: Iterable[int]) -> "DatabaseDelta":
        """A pure-removal delta."""
        return cls(remove_ids=tuple(ids))

    @property
    def is_empty(self) -> bool:
        return not self.remove_ids and self.added_count == 0

    @property
    def added_count(self) -> int:
        """Number of graphs in ``add_text`` (one per ``t`` header)."""
        return sum(
            1
            for line in self.add_text.splitlines()
            if line.strip().startswith("t")
        )

    def size(self) -> int:
        """Total number of graphs touched (added + removed)."""
        return self.added_count + len(self.remove_ids)

    def added_database(
        self,
        node_labels: LabelInterner | None = None,
        edge_labels: LabelInterner | None = None,
    ) -> GraphDatabase:
        """Parse the additions; pass the store's interners for stable ids."""
        return parse_graph_database(self.add_text, node_labels, edge_labels)
