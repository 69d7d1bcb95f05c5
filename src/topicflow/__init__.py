"""Temporal flow networks of author mobility across research topics.

Names are imported from their modules on first use (PEP 562): every
subcommand runs in a fresh interpreter, so ``import topicflow.cli`` loads
only the modules the stages need (``synth`` is not one of them)."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    name: module
    for module, names in {
        "bundleviz": ("VizConfig", "layout", "render_svg"),
        "classification": ("ClassificationTable", "load_classification"),
        "flows": (
            "FlowNetwork", "build_flow_networks", "count_transitions", "dominant_topics",
            "flow_networks_from_profiles", "load_flow_network", "write_flow_network",
        ),
        "ingest": (
            "ActivityProfile", "IngestStats", "SnapshotGrid", "compute_yearly_paper_quantile",
            "ingest_records",
        ),
        "metrics": (
            "MigrationIndices", "ZeroBaselinePolicy", "attractiveness_table",
            "median_sink_source", "migration_index_series", "migration_indices",
            "most_attractive_topics", "multidisciplinarity",
        ),
        "synth": ("SyntheticSpec", "generate_corpus"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
