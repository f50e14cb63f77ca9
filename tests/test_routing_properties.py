"""Property-based tests for valley-free routing over random graphs.

Hypothesis generates arbitrary small AS graphs (random transit DAG
plus random peerings, over sparse ASNs added in shuffled order) and
the tests assert the Gao–Rexford invariants hold for every computed
path — the strongest guarantee the routing substrate offers the rest
of the system. A differential test checks the array-backed trees
against ``reference_tree``, the straightforward dict implementation.
"""

import gc
from itertools import accumulate
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import REGISTRY
from repro.scenarios.presets import small
from repro.topology.autsys import ASGraph, ASType, AutonomousSystem, Tier
from repro.topology.routing import (
    KIND_CUSTOMER,
    KIND_PEER,
    KIND_PROVIDER,
    RouteInfo,
    RouteKind,
    RoutingSystem,
)


@st.composite
def as_graphs(draw):
    """A random consistent AS graph.

    ASNs are a sparse sample of the 16-bit space, added to the graph in
    shuffled order, so neither a dense index that equals ASN - 1 nor an
    insertion-order dependence can pass unseen. Transit edges always
    point from a higher-numbered customer to a lower-numbered provider,
    which guarantees an acyclic customer-provider hierarchy; peerings
    fill in afterwards where no transit relationship exists.
    """
    count = draw(st.integers(min_value=2, max_value=14))
    # Ascending ASNs from positive gaps: unique without rejection, and
    # within 16 bits (14 gaps of at most 4096).
    gaps = draw(
        st.lists(
            st.integers(min_value=1, max_value=4096),
            min_size=count,
            max_size=count,
        )
    )
    asns = list(accumulate(gaps))
    graph = ASGraph()
    for asn in draw(st.permutations(asns)):
        graph.add_as(
            AutonomousSystem(asn, ASType.TRANSIT_ACCESS, Tier.TIER2)
        )
    transit_candidates = [
        (customer, provider)
        for position, customer in enumerate(asns)
        for provider in asns[:position]
    ]
    transit = draw(
        st.lists(
            st.sampled_from(transit_candidates),
            unique=True,
            max_size=2 * count,
        )
    ) if transit_candidates else []
    for customer, provider in transit:
        graph.add_customer_provider(customer, provider)
    peer_candidates = [
        (left, right)
        for position, left in enumerate(asns)
        for right in asns[position + 1:]
        if graph.relationship(left, right) is None
    ]
    peers = draw(
        st.lists(
            st.sampled_from(peer_candidates),
            unique=True,
            max_size=count,
        )
    ) if peer_candidates else []
    for left, right in peers:
        if graph.relationship(left, right) is None:
            graph.add_peering(left, right)
    graph.validate()
    return graph


def classify_steps(graph, path):
    """Each step as 'up' (to provider), 'peer', or 'down' (to customer)."""
    steps = []
    for left, right in zip(path, path[1:]):
        rel = graph.relationship(left, right)
        assert rel is not None, f"path uses a non-edge {left}->{right}"
        steps.append(
            {"provider": "up", "peer": "peer", "customer": "down"}[rel.value]
        )
    return steps


def reference_tree(graph: ASGraph, dest: int) -> Dict[int, RouteInfo]:
    """Every AS's route toward ``dest``: the dict-of-``RouteInfo`` oracle.

    This is the three-phase sweep as the routing system ran it before
    trees became flat arrays, kept here verbatim as a test-only
    reference.
    """
    adj = {
        asn: (
            tuple(graph.providers_of(asn)),
            tuple(graph.peers_of(asn)),
            tuple(sorted(graph.customers_of(asn))),
        )
        for asn in graph.asns()
    }
    if dest not in graph:
        raise KeyError(f"unknown destination ASN {dest}")
    mk = tuple.__new__
    routes: Dict[int, RouteInfo] = {
        dest: mk(RouteInfo, (KIND_CUSTOMER, 0, None))
    }

    # Phase 1 — customer routes.
    frontier = [dest]
    length = 0
    while frontier:
        length += 1
        candidates: Dict[int, int] = {}
        for asn in frontier:
            for provider in adj[asn][0]:
                if provider in routes:
                    continue
                best = candidates.get(provider)
                if best is None or asn < best:
                    candidates[provider] = asn
        for provider, via in candidates.items():
            routes[provider] = mk(
                RouteInfo, (KIND_CUSTOMER, length, via)
            )
        frontier = sorted(candidates)

    # Phase 2 — peer routes.
    peer_routes: Dict[int, RouteInfo] = {}
    for asn, info in routes.items():
        length = info[1] + 1
        for peer in adj[asn][1]:
            if peer in routes:
                continue
            best = peer_routes.get(peer)
            if best is None or length < best[1] or (
                length == best[1] and asn < best[2]
            ):
                peer_routes[peer] = mk(
                    RouteInfo, (KIND_PEER, length, asn)
                )
    routes.update(peer_routes)

    # Phase 3 — provider routes (bucket-queue Dijkstra).
    buckets: Dict[int, List[int]] = {}
    for asn, info in routes.items():
        buckets.setdefault(info[1], []).append(asn)
    settled: Dict[int, int] = {}
    routes_get = routes.get
    settled_get = settled.get
    length = 0
    while buckets:
        group = buckets.pop(length, None)
        nxt = length + 1
        if group is not None:
            group.sort()
            for asn in group:
                if settled_get(asn, 1 << 30) <= length:
                    continue
                settled[asn] = length
                for customer in adj[asn][2]:
                    best = routes_get(customer)
                    if best is not None and (
                        best[0] > KIND_PROVIDER
                        or best[1] < nxt
                        or (best[1] == nxt and best[2] <= asn)
                    ):
                        continue
                    routes[customer] = mk(
                        RouteInfo, (KIND_PROVIDER, nxt, asn)
                    )
                    buckets.setdefault(nxt, []).append(customer)
        length = nxt
    return routes


def reference_path(tree: Dict[int, RouteInfo], src: int, dest: int):
    """``as_path`` read off a reference tree."""
    if src == dest:
        return [src]
    if src not in tree:
        return None
    path = [src]
    while path[-1] != dest:
        path.append(tree[path[-1]].next_hop)
    return path


def assert_matches_reference(routing: RoutingSystem, dest: int, sources):
    """Tree entries and AS paths toward ``dest`` equal the oracle's."""
    expected = reference_tree(routing.graph, dest)
    tree = routing.routing_tree(dest)
    assert dict(tree) == expected
    assert len(tree) == len(expected)
    for src in sources:
        assert tree.get(src) == expected.get(src), (src, dest)
        assert (src in tree) == (src in expected), (src, dest)
        path = reference_path(expected, src, dest)
        assert routing.as_path(src, dest) == path, (src, dest)
        assert routing.path_length(src, dest) == (
            None if path is None else len(path) - 1
        ), (src, dest)


class TestValleyFreeProperties:
    @settings(max_examples=60, deadline=None)
    @given(as_graphs())
    def test_every_path_is_valley_free(self, graph):
        routing = RoutingSystem(graph)
        asns = graph.asns()
        for dest in asns:
            for src in asns:
                path = routing.as_path(src, dest)
                if path is None or len(path) < 2:
                    continue
                steps = classify_steps(graph, path)
                # Valley-free regex: up* peer? down*
                descended = False
                peers = 0
                for step in steps:
                    if step == "up":
                        assert not descended, (path, steps)
                    elif step == "peer":
                        peers += 1
                        assert not descended, (path, steps)
                        descended = True
                    else:
                        descended = True
                assert peers <= 1, (path, steps)

    @settings(max_examples=60, deadline=None)
    @given(as_graphs())
    def test_paths_are_simple_and_terminate(self, graph):
        routing = RoutingSystem(graph)
        asns = graph.asns()
        for dest in asns[:6]:
            for src in asns:
                path = routing.as_path(src, dest)
                if path is None:
                    continue
                assert path[0] == src and path[-1] == dest
                assert len(path) == len(set(path)), "loop in path"

    @settings(max_examples=60, deadline=None)
    @given(as_graphs())
    def test_customer_cone_always_reachable(self, graph):
        # A provider can always reach every AS in its customer cone.
        routing = RoutingSystem(graph)

        def cone(asn):
            found = set()
            frontier = [asn]
            while frontier:
                current = frontier.pop()
                for customer in graph.customers_of(current):
                    if customer not in found:
                        found.add(customer)
                        frontier.append(customer)
            return found

        for asn in graph.asns()[:6]:
            for customer in cone(asn):
                assert routing.reachable_from(asn, customer)
                tree = routing.routing_tree(customer)
                assert tree[asn].kind == RouteKind.CUSTOMER

    @settings(max_examples=40, deadline=None)
    @given(as_graphs())
    def test_path_length_matches_route_info(self, graph):
        routing = RoutingSystem(graph)
        asns = graph.asns()
        for dest in asns[:5]:
            tree = routing.routing_tree(dest)
            for src in asns:
                path = routing.as_path(src, dest)
                if src == dest:
                    assert path == [src]
                    continue
                info = tree.get(src)
                if info is None:
                    assert path is None
                else:
                    assert path is not None
                    assert len(path) - 1 == info.length


class TestReferenceOracle:
    # No example budget here: it comes from the active hypothesis
    # profile (``HYPOTHESIS_PROFILE=ci`` runs 1000 examples).
    @settings(deadline=None)
    @given(as_graphs())
    def test_every_tree_matches_reference(self, graph):
        routing = RoutingSystem(graph)
        asns = graph.asns()
        for dest in asns:
            assert_matches_reference(routing, dest, asns)

    def test_small_preset_vp_paths_match_reference(self, small_scenario):
        graph = small_scenario.graph
        routing = RoutingSystem(graph)
        vp_asns = sorted({vp.asn for vp in small_scenario.vps})
        for dest in graph.asns():
            assert_matches_reference(routing, dest, vp_asns)

    def test_unknown_asns(self):
        graph = ASGraph()
        for asn in (40, 7, 900):
            graph.add_as(
                AutonomousSystem(asn, ASType.TRANSIT_ACCESS, Tier.TIER2)
            )
        graph.add_customer_provider(900, 7)
        routing = RoutingSystem(graph)
        tree = routing.routing_tree(7)
        assert list(tree) == [7, 900]
        assert tree[900] == RouteInfo(RouteKind.PROVIDER, 1, 7)
        assert 40 not in tree and 41 not in tree and "7" not in tree
        assert tree.get(41) is None
        assert routing.as_path(41, 7) is None
        assert routing.path_length(40, 7) is None
        with pytest.raises(KeyError):
            tree[40]
        with pytest.raises(KeyError):
            routing.routing_tree(41)


@pytest.fixture(scope="module")
def small_scenario():
    return small()


def _tree_lookups() -> Dict[str, int]:
    snap = REGISTRY.snapshot()
    counts = {
        series["labels"]["result"]: series["value"]
        for series in snap["routing_tree_cache_lookups_total"]["series"]
    }
    counts["eviction"] = sum(
        series["value"]
        for series in snap["routing_tree_cache_evictions_total"]["series"]
    )
    return counts


class TestTreeFootprint:
    def test_trees_add_constant_tracked_objects(self, small_scenario):
        # A cached tree is three arrays and their view, not one
        # RouteInfo per AS: with the collector off, K trees add a few
        # tracked objects each (the dict version added ~len(graph) =
        # 489 per tree here).
        routing = RoutingSystem(small_scenario.graph)
        asns = small_scenario.graph.asns()
        routing.routing_tree(asns[0])  # builds the dense index
        trees = 40
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for dest in asns[1:trees + 1]:
                routing.routing_tree(dest)
            added = len(gc.get_objects()) - before
        finally:
            if was_enabled:
                gc.enable()
        assert routing.cache_len == trees + 1
        assert added <= 5 * trees, added

    def test_lookup_counters_repeat(self, small_scenario):
        # Pinned from the dict-of-RouteInfo implementation: every
        # as_path / reachable_from / path_length call with src != dest
        # is one LRU lookup, whatever the tree's layout.
        before = _tree_lookups()
        routing = RoutingSystem(small_scenario.graph, cache_size=8)
        asns = small_scenario.graph.asns()
        dests = asns[::40]
        sources = asns[::25]
        for dest in dests:
            for src in sources:
                routing.as_path(src, dest)
        for dest in reversed(dests):
            routing.reachable_from(sources[1], dest)
        for dest in dests[:6]:
            routing.path_length(dests[2], dest)
        after = _tree_lookups()
        delta = {key: after[key] - before.get(key, 0) for key in after}
        assert delta == {"hit": 257, "miss": 18, "eviction": 10}
        assert routing.cache_len == 8
