"""Internet topology substrate: AS graph, routing, routers, prefixes."""

from repro.topology.autsys import (
    ASGraph,
    ASType,
    AutonomousSystem,
    RelKind,
    Tier,
)
from repro.topology.classification import ASClassification, TYPE_LABELS
from repro.topology.generator import (
    GeneratedTopology,
    TopologyParams,
    generate_topology,
)
from repro.topology.hitlist import Destination, Hitlist, build_hitlist
from repro.topology.metrics import (
    TopologyMetrics,
    compute_metrics,
    path_length_histogram,
)
from repro.topology.prefixes import (
    AdvertisedPrefix,
    PrefixTable,
    as_block,
    build_prefix_table,
    infra_prefix,
)
from repro.topology.routers import Hop, RouterFabric, RouterNode
from repro.topology.routing import (
    RouteInfo,
    RouteKind,
    RoutingSystem,
    RoutingTree,
)

__all__ = [
    "ASGraph",
    "ASType",
    "AutonomousSystem",
    "RelKind",
    "Tier",
    "ASClassification",
    "TYPE_LABELS",
    "GeneratedTopology",
    "TopologyParams",
    "generate_topology",
    "Destination",
    "Hitlist",
    "build_hitlist",
    "TopologyMetrics",
    "compute_metrics",
    "path_length_histogram",
    "AdvertisedPrefix",
    "PrefixTable",
    "as_block",
    "build_prefix_table",
    "infra_prefix",
    "Hop",
    "RouterFabric",
    "RouterNode",
    "RouteInfo",
    "RouteKind",
    "RoutingSystem",
    "RoutingTree",
]
