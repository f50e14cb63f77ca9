"""Internet-in-a-box: everything a study needs, built from one seed.

A :class:`Scenario` bundles the generated topology, routing, router
fabric, prefix table, hitlist, AS classification, the dataplane, a
prober, and the vantage points — i.e. the complete experimental
apparatus of §3.1. Scenario *presets* (``repro.scenarios.presets``)
instantiate the 2016 study, the 2011 study, and small variants for
tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.probing.prober import Prober
from repro.probing.vantage import (
    SITE_CITIES,
    Platform,
    VantagePoint,
    vp_addr,
)
from repro.rng import stable_uniform
from repro.sim.network import Network
from repro.sim.policies import SimParams
from repro.topology.classification import ASClassification
from repro.topology.generator import (
    GeneratedTopology,
    TopologyParams,
    generate_topology,
)
from repro.topology.hitlist import Hitlist, build_hitlist
from repro.topology.prefixes import PrefixTable, build_prefix_table
from repro.topology.routers import RouterFabric
from repro.topology.routing import RoutingSystem

__all__ = ["ScenarioParams", "Scenario", "build_scenario", "CLOUD_NAMES"]

#: Names for the synthetic cloud analogs, richest peering first
#: (stand-ins for the paper's GCE / EC2 / Softlayer).
CLOUD_NAMES = ["gce", "ec2", "softlayer"]


@dataclass(frozen=True)
class ScenarioParams:
    """Everything needed to regenerate a scenario bit-for-bit."""

    name: str
    seed: int
    topology: TopologyParams
    sim: SimParams
    prefix_scale: float = 0.5
    num_mlab: int = 40
    num_planetlab: int = 26
    #: Probability a VP's site drops options packets locally.
    mlab_filtered_prob: float = 0.18
    planetlab_filtered_prob: float = 0.35
    #: How many distinct host ASes each platform's sites spread over.
    #: M-Lab sites cluster inside a handful of transit/colo providers
    #: (Level3, Cogent, Tata, ...), so many sites share an AS.
    mlab_as_pool: int = 10
    planetlab_as_pool: int = 40
    #: Offset into the shared site-name list; both study years draw
    #: from the same list, so overlapping ranges yield "common VPs".
    mlab_site_offset: int = 0
    planetlab_site_offset: int = 0


@dataclass
class Scenario:
    """A fully assembled simulated Internet plus measurement apparatus."""

    params: ScenarioParams
    topo: GeneratedTopology
    routing: RoutingSystem
    fabric: RouterFabric
    table: PrefixTable
    hitlist: Hitlist
    classification: ASClassification
    network: Network
    prober: Prober
    mlab_vps: List[VantagePoint] = field(default_factory=list)
    planetlab_vps: List[VantagePoint] = field(default_factory=list)
    cloud_vps: List[VantagePoint] = field(default_factory=list)
    origin: Optional[VantagePoint] = None  # the USC-style ping source

    @property
    def name(self) -> str:
        return self.params.name

    @property
    def seed(self) -> int:
        return self.params.seed

    @property
    def graph(self):
        return self.topo.graph

    @property
    def vps(self) -> List[VantagePoint]:
        """The paper's VP set: every M-Lab and PlanetLab machine."""
        return self.mlab_vps + self.planetlab_vps

    @property
    def working_vps(self) -> List[VantagePoint]:
        """VPs that are not locally filtered (can emit options packets)."""
        return [vp for vp in self.vps if not vp.local_filtered]

    @property
    def all_vps(self) -> List[VantagePoint]:
        """Every VP :meth:`vp_by_name` resolves: the paper's VPs, the
        cloud VPs and the origin."""
        return self.vps + self.cloud_vps + (
            [self.origin] if self.origin else []
        )

    def vp_by_name(self, name: str) -> VantagePoint:
        for vp in self.all_vps:
            if vp.name == name:
                return vp
        raise KeyError(f"unknown vantage point {name!r}")

    def describe(self) -> str:
        return (
            f"scenario {self.name!r}: {len(self.graph)} ASes, "
            f"{len(self.table)} prefixes, {len(self.hitlist)} destinations, "
            f"{len(self.mlab_vps)} M-Lab + {len(self.planetlab_vps)} "
            f"PlanetLab VPs ({len(self.working_vps)} unfiltered)"
        )


def _site_name(index: int) -> str:
    base = SITE_CITIES[index % len(SITE_CITIES)]
    round_number = index // len(SITE_CITIES)
    return base if round_number == 0 else f"{base}{round_number + 1}"


def _place_vps(
    scenario: Scenario,
    platform: Platform,
    host_asns: List[int],
    count: int,
    filtered_prob: float,
    site_offset: int,
) -> List[VantagePoint]:
    """Attach ``count`` VPs to ASes drawn round-robin from ``host_asns``."""
    if not host_asns:
        raise ValueError(f"no candidate ASes for {platform.value} VPs")
    seed = scenario.seed
    vps = []
    for index in range(count):
        site = _site_name(site_offset + index)
        asn = host_asns[index % len(host_asns)]
        name = f"{platform.value}-{site}"
        vps.append(
            VantagePoint(
                name=name,
                site=site,
                platform=platform,
                asn=asn,
                addr=vp_addr(asn, index),
                local_filtered=(
                    stable_uniform(seed, "vp-filter", name) < filtered_prob
                ),
            )
        )
    return vps


def build_scenario(params: ScenarioParams) -> Scenario:
    """Assemble the full apparatus for ``params``."""
    topo = generate_topology(params.topology)
    routing = RoutingSystem(topo.graph)
    fabric = RouterFabric(topo.graph, seed=params.seed)
    table = build_prefix_table(
        topo.graph, seed=params.seed, prefix_scale=params.prefix_scale
    )
    hitlist = build_hitlist(table, seed=params.seed)
    network = Network(topo, routing, fabric, hitlist, params.sim)
    scenario = Scenario(
        params=params,
        topo=topo,
        routing=routing,
        fabric=fabric,
        table=table,
        hitlist=hitlist,
        classification=ASClassification.from_graph(topo.graph),
        network=network,
        prober=Prober(network),
    )

    scenario.mlab_vps = _place_vps(
        scenario,
        Platform.MLAB,
        topo.colo_asns[: max(1, params.mlab_as_pool)],
        params.num_mlab,
        params.mlab_filtered_prob,
        params.mlab_site_offset,
    )
    university_pool = topo.university_asns or topo.edges
    scenario.planetlab_vps = _place_vps(
        scenario,
        Platform.PLANETLAB,
        university_pool[: max(1, params.planetlab_as_pool)],
        params.num_planetlab,
        params.planetlab_filtered_prob,
        params.planetlab_site_offset,
    )
    scenario.cloud_vps = [
        VantagePoint(
            name=f"cloud-{CLOUD_NAMES[rank]}",
            site=CLOUD_NAMES[rank],
            platform=Platform.CLOUD,
            asn=asn,
            addr=vp_addr(asn, 0),
        )
        for rank, asn in enumerate(topo.clouds)
    ]
    # The USC-style origin: a well-connected university machine used
    # for the plain-ping study. Never locally filtered for plain pings
    # (local filters only affect options packets anyway).
    origin_asn = (university_pool or topo.edges)[0]
    scenario.origin = VantagePoint(
        name="origin-usc",
        site="usc",
        platform=Platform.LOCAL,
        asn=origin_asn,
        addr=vp_addr(origin_asn, 99),
    )
    return scenario
