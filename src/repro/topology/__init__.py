"""AS-level Internet topology substrate.

Provides the annotated AS graph (customer-provider and peer-peer
relationships), Internet-like synthetic generators, Gao's relationship
inference algorithm, RouteViews-style table synthesis, valley-free path
utilities, and (de)serialization.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "repro.topology.graph": ("ASGraph",),
        "repro.topology.generators": (
            "InternetTopologyConfig",
            "generate_internet_topology",
            "chain_topology",
            "clique_topology",
            "example_paper_topology",
        ),
        "repro.topology.paths": (
            "is_valley_free",
            "split_uphill_downhill",
            "downhill_nodes",
            "downhill_node_disjoint",
            "path_is_loop_free",
        ),
        "repro.topology.inference": ("InferenceResult", "infer_relationships"),
        "repro.topology.routeviews": (
            "RouteViewsTable",
            "synthesize_routeviews_tables",
            "dump_tables",
            "parse_tables",
        ),
        "repro.topology.serialization": (
            "load_graph",
            "save_graph",
            "graph_to_lines",
        ),
        "repro.topology.validation": ("ValidationReport", "validate_graph"),
        "repro.topology.caida": (
            "CAIDAFormatError",
            "CAIDALoadReport",
            "load_caida",
        ),
        "repro.topology.shm": (
            "AttachedGraph",
            "SharedGraph",
            "attach_graph",
            "share_graph",
            "shared_memory_available",
        ),
    },
)

__all__ = [
    "ASGraph",
    "InternetTopologyConfig",
    "generate_internet_topology",
    "chain_topology",
    "clique_topology",
    "example_paper_topology",
    "is_valley_free",
    "split_uphill_downhill",
    "downhill_nodes",
    "downhill_node_disjoint",
    "path_is_loop_free",
    "InferenceResult",
    "infer_relationships",
    "RouteViewsTable",
    "synthesize_routeviews_tables",
    "dump_tables",
    "parse_tables",
    "load_graph",
    "save_graph",
    "graph_to_lines",
    "ValidationReport",
    "validate_graph",
    "CAIDAFormatError",
    "CAIDALoadReport",
    "load_caida",
    "AttachedGraph",
    "SharedGraph",
    "attach_graph",
    "share_graph",
    "shared_memory_available",
]
