"""Temporal flow networks of author mobility across research topics."""

from .classification import ClassificationTable, load_classification
from .flows import (
    FlowNetwork,
    build_flow_networks,
    count_transitions,
    decompose_area_flows,
    dominant_topics,
    flow_networks_from_profiles,
    load_flow_network,
    write_flow_network,
)
from .ingest import (
    ActivityProfile,
    IngestStats,
    SnapshotGrid,
    compute_yearly_paper_quantile,
    ingest_records,
)
from .metrics import (
    MigrationIndices,
    ZeroBaselinePolicy,
    attractiveness_table,
    median_sink_source,
    migration_index_series,
    migration_indices,
    most_attractive_topics,
    multidisciplinarity,
)
from .bundleviz import VizConfig, layout, render_svg, route_cross_edge, route_intra_edge
from .synth import SyntheticSpec, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "ActivityProfile",
    "ClassificationTable",
    "FlowNetwork",
    "IngestStats",
    "MigrationIndices",
    "SnapshotGrid",
    "SyntheticSpec",
    "VizConfig",
    "ZeroBaselinePolicy",
    "attractiveness_table",
    "build_flow_networks",
    "compute_yearly_paper_quantile",
    "count_transitions",
    "decompose_area_flows",
    "dominant_topics",
    "flow_networks_from_profiles",
    "generate_corpus",
    "ingest_records",
    "layout",
    "load_classification",
    "load_flow_network",
    "median_sink_source",
    "migration_index_series",
    "migration_indices",
    "most_attractive_topics",
    "multidisciplinarity",
    "render_svg",
    "route_cross_edge",
    "route_intra_edge",
    "write_flow_network",
]
