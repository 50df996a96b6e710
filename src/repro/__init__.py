"""Taxogram: taxonomy-superimposed graph mining (EDBT 2008 reproduction).

Quickstart::

    from repro import GraphDatabase, taxonomy_from_parent_names, mine

    tax = taxonomy_from_parent_names({
        "transporter": "molecular_function",
        "carrier": "transporter",
        "helicase": "catalytic_activity",
        "catalytic_activity": "molecular_function",
        "molecular_function": [],
    })
    db = GraphDatabase(node_labels=tax.interner)
    db.new_graph(["carrier", "helicase"], [(0, 1)])
    db.new_graph(["transporter", "helicase"], [(0, 1)])

    result = mine(db, tax, min_support=1.0)
    for pattern in result:
        print(pattern.support, pattern.graph)

See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
reproduction results.
"""

import importlib

# Public name -> defining module.  Subpackages load on first attribute
# access (module ``__getattr__`` below), so ``import repro`` or
# ``import repro.streaming`` pays only for the modules actually used.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.core.analysis": (
            "closed_patterns",
            "filter_patterns",
            "group_by_class",
            "label_depth_profile",
            "specialization_edges",
            "top_patterns",
        ),
        "repro.core.oracle": ("mine_with_oracle",),
        "repro.core.relabel": ("relabel_database",),
        "repro.core.results": (
            "MiningCounters",
            "TaxogramResult",
            "TaxonomyPattern",
            "format_pattern",
        ),
        "repro.core.tacgm": ("TAcGM", "TAcGMOptions"),
        "repro.core.taxogram": (
            "Taxogram",
            "TaxogramOptions",
            "mine",
            "mine_baseline",
        ),
        "repro.observability": ("MetricsRegistry", "RunReport", "Tracer"),
        "repro.parallel.runtime": ("ParallelTaxogram",),
        "repro.exceptions": (
            "FormatError",
            "GraphError",
            "MemoryBudgetExceeded",
            "MiningError",
            "ReproError",
            "StoreError",
            "TaxonomyError",
        ),
        "repro.graphs.database": ("GraphDatabase",),
        "repro.graphs.graph": ("Graph",),
        "repro.incremental": (
            "DatabaseDelta",
            "IncrementalOptions",
            "IncrementalTaxogram",
            "PatternStore",
        ),
        "repro.serving": (
            "BatchExecutor",
            "Query",
            "ServingAnswer",
            "StoreReader",
        ),
        "repro.graphs.io": ("read_graph_database", "write_graph_database"),
        "repro.mining.gspan": ("GSpanMiner",),
        "repro.taxonomy.atoms": ("pte_atom_taxonomy",),
        "repro.taxonomy.builders": ("taxonomy_from_parent_names",),
        "repro.taxonomy.generators": (
            "TaxonomyGeneratorConfig",
            "generate_taxonomy",
        ),
        "repro.taxonomy.go": ("go_like_taxonomy",),
        "repro.taxonomy.io": ("read_taxonomy", "write_taxonomy"),
        "repro.taxonomy.taxonomy": ("Taxonomy",),
        "repro.util.interner": ("LabelInterner",),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "1.0.0"

__all__ = ["__version__", *_EXPORTS]
