"""Valley-free (Gao–Rexford) interdomain route computation.

BGP routes are modelled with the standard policy abstraction:

* an AS prefers routes learned from customers over routes learned from
  peers over routes learned from providers (money flows downhill);
* it breaks ties by shortest AS path, then lowest next-hop ASN (a
  deterministic stand-in for BGP's arbitrary final tie-breakers);
* it exports customer routes to everyone, but peer/provider routes only
  to customers — which is exactly what makes every usable path
  *valley-free*: zero or more customer→provider hops, at most one peer
  hop, then zero or more provider→customer hops.

Routes to a destination AS are computed for every source at once with
the classic three-phase sweep (customer BFS up, one peer step sideways,
provider Dijkstra down), and the resulting routing tree is cached, so
asking for many sources' paths to the same destination is cheap.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from collections.abc import Mapping
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.obs.metrics import REGISTRY
from repro.topology.autsys import ASGraph

__all__ = ["RouteKind", "RouteInfo", "RoutingSystem", "RoutingTree"]

# Route preference, higher is better (Gao–Rexford).
KIND_CUSTOMER = 3
KIND_PEER = 2
KIND_PROVIDER = 1


class RouteKind:
    """Symbolic names for route-learning relationships."""

    CUSTOMER = KIND_CUSTOMER
    PEER = KIND_PEER
    PROVIDER = KIND_PROVIDER


class RouteInfo(NamedTuple):
    """One AS's selected route toward a destination."""

    kind: int  # KIND_* preference class
    length: int  # AS-path length in AS hops (dest itself: 0)
    next_hop: Optional[int]  # neighbour toward dest; None at dest


class RoutingTree(Mapping[int, RouteInfo]):
    """Every AS's selected route toward one destination (read-only).

    The tree is three flat arrays over the routing system's dense AS
    index: route kind (0 = no route), AS-hop length, and next-hop index
    (-1 at the destination). The arrays hold raw machine integers, no
    Python objects, so a cached tree costs the collector four objects
    instead of one ``RouteInfo`` per AS, and forked workers read it
    without touching per-AS refcounts (its pages stay shared
    copy-on-write). As a ``Mapping[int, RouteInfo]`` it builds each
    ``RouteInfo`` on demand; the path helpers read the arrays directly.
    """

    __slots__ = ("_index", "_asns", "_kind", "_length", "_next", "_size")

    def __init__(
        self,
        index: Dict[int, int],
        asns: Tuple[int, ...],
        kind: List[int],
        length: List[int],
        next_hop: List[int],
    ) -> None:
        self._index = index
        self._asns = asns
        self._kind = array("b", kind)
        self._length = array("i", length)
        self._next = array("i", next_hop)
        self._size = len(kind) - kind.count(0)

    def _slot(self, asn: object) -> int:
        """Dense index of ``asn`` if it has a route, else -1."""
        i = self._index.get(asn)  # type: ignore[call-overload]
        if i is None or not self._kind[i]:
            return -1
        return i

    def __getitem__(self, asn: int) -> RouteInfo:
        i = self._slot(asn)
        if i < 0:
            raise KeyError(asn)
        via = self._next[i]
        return RouteInfo(
            self._kind[i], self._length[i], None if via < 0 else self._asns[via]
        )

    def __contains__(self, asn: object) -> bool:
        return self._slot(asn) >= 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        asns = self._asns
        return (asns[i] for i, kind in enumerate(self._kind) if kind)

    def path(self, src: int) -> Optional[List[int]]:
        """AS path from ``src`` to the destination, or None if unrouted."""
        i = self._slot(src)
        if i < 0:
            return None
        asns = self._asns
        next_hop = self._next
        path = [src]
        # Every next hop has a strictly shorter route, so this ends.
        i = next_hop[i]
        while i >= 0:
            path.append(asns[i])
            i = next_hop[i]
        return path

    def path_length(self, src: int) -> Optional[int]:
        """AS-hop count from ``src`` to the destination, or None."""
        i = self._slot(src)
        return None if i < 0 else self._length[i]


class RoutingSystem:
    """Computes and caches valley-free routing trees over an ASGraph."""

    def __init__(self, graph: ASGraph, cache_size: int = 4096) -> None:
        self._graph = graph
        self._cache_size = cache_size
        #: True LRU: most-recently-used trees live at the right end.
        self._trees: "OrderedDict[int, RoutingTree]" = OrderedDict()
        lookups = REGISTRY.counter(
            "routing_tree_cache_lookups_total",
            "Routing-tree LRU cache lookups, by result.",
            ("result",),
        )
        self._cache_hits = lookups.labels("hit")
        self._cache_misses = lookups.labels("miss")
        self._cache_evictions = REGISTRY.counter(
            "routing_tree_cache_evictions_total",
            "Routing trees evicted from the LRU cache.",
        ).labels()
        #: Lazily-built dense index, once per graph generation (dropped
        #: by ``clear_cache``): (asn -> index, index -> asn, providers,
        #: peers, customers), the last three as sorted index tuples per
        #: AS. ASNs are numbered in ascending order, so comparing
        #: indexes breaks ties exactly as comparing ASNs would.
        self._dense: Optional[tuple] = None

    @property
    def graph(self) -> ASGraph:
        return self._graph

    @property
    def cache_len(self) -> int:
        """Number of routing trees currently cached."""
        return len(self._trees)

    @property
    def cache_size(self) -> int:
        """Capacity of the routing-tree LRU."""
        return self._cache_size

    # -- routing trees -----------------------------------------------------

    def routing_tree(self, dest: int) -> RoutingTree:
        """Every AS's selected route toward ``dest`` (absent = no route)."""
        cached = self._trees.get(dest)
        if cached is not None:
            self._cache_hits.inc()
            self._trees.move_to_end(dest)
            return cached
        self._cache_misses.inc()
        tree = self._compute_tree(dest)
        self._trees[dest] = tree
        if len(self._trees) > self._cache_size:
            self._trees.popitem(last=False)
            self._cache_evictions.inc()
        return tree

    def _dense_index(self) -> tuple:
        dense = self._dense
        if dense is None:
            graph = self._graph
            asns = tuple(graph.asns())  # ascending
            index = {asn: i for i, asn in enumerate(asns)}

            def indexes(neighbours: FrozenSet[int]) -> Tuple[int, ...]:
                return tuple(sorted(index[asn] for asn in neighbours))

            dense = self._dense = (
                index,
                asns,
                tuple(indexes(graph.providers_of(asn)) for asn in asns),
                tuple(indexes(graph.peers_of(asn)) for asn in asns),
                tuple(indexes(graph.customers_of(asn)) for asn in asns),
            )
        return dense

    def _compute_tree(self, dest: int) -> RoutingTree:
        index, asns, providers, peers, customers = self._dense_index()
        target = index.get(dest)
        if target is None:
            raise KeyError(f"unknown destination ASN {dest}")
        count = len(asns)
        kind = [0] * count
        length = [0] * count
        next_hop = [-1] * count
        kind[target] = KIND_CUSTOMER

        # Phase 1 — customer routes: the destination's reachability climbs
        # provider links, so every AS on an all-uphill path learns a
        # customer route. Level-synchronous BFS keeps lengths minimal;
        # each level is walked in ascending index order, so the first
        # AS to reach a provider is its lowest next hop.
        routed = [target]
        frontier = [target]
        hops = 0
        while frontier:
            hops += 1
            level = []
            for i in frontier:
                for provider in providers[i]:
                    if not kind[provider]:
                        kind[provider] = KIND_CUSTOMER
                        length[provider] = hops
                        next_hop[provider] = i
                        level.append(provider)
            level.sort()
            routed.extend(level)
            frontier = level

        # Phase 2 — peer routes: one sideways hop from any AS holding a
        # customer route (or the destination itself). Customer routes
        # always win, so only routeless ASes adopt, keeping the least
        # (length, next hop). Peer routes join ``routed`` as they are
        # found, so the loop walks a copy of the customer routes.
        for i in routed[:]:
            hops = length[i] + 1
            for peer in peers[i]:
                held = kind[peer]
                if not held:
                    kind[peer] = KIND_PEER
                    length[peer] = hops
                    next_hop[peer] = i
                    routed.append(peer)
                elif held == KIND_PEER and (
                    hops < length[peer]
                    or (hops == length[peer] and i < next_hop[peer])
                ):
                    length[peer] = hops
                    next_hop[peer] = i

        # Phase 3 — provider routes: every routed AS exports its selected
        # route to customers, recursively. Seed lengths differ, so this
        # is a unit-weight Dijkstra down customer links, run as a bucket
        # queue: buckets by length ascending, each sorted, so routes are
        # exported in ``(length, index)`` order and the first offer a
        # routeless customer gets is its best provider route.
        buckets: List[List[int]] = [[] for _ in range(max(length) + 2)]
        for i in routed:
            buckets[length[i]].append(i)
        hops = 0
        while hops < len(buckets):
            group = buckets[hops]
            hops += 1
            if not group:
                continue
            group.sort()
            if hops == len(buckets):
                buckets.append([])
            reached = buckets[hops]
            for i in group:
                for customer in customers[i]:
                    if not kind[customer]:
                        kind[customer] = KIND_PROVIDER
                        length[customer] = hops
                        next_hop[customer] = i
                        reached.append(customer)
        return RoutingTree(index, asns, kind, length, next_hop)

    # -- paths ---------------------------------------------------------

    def as_path(self, src: int, dest: int) -> Optional[List[int]]:
        """The AS-level path from ``src`` to ``dest``, or None.

        The returned list starts with ``src`` and ends with ``dest``;
        a path from an AS to itself is ``[src]``.
        """
        if src == dest:
            return [src]
        return self.routing_tree(dest).path(src)

    def reachable_from(self, src: int, dest: int) -> bool:
        if src == dest:
            return True
        return src in self.routing_tree(dest)

    def path_length(self, src: int, dest: int) -> Optional[int]:
        """AS-hop count from ``src`` to ``dest`` (0 when equal)."""
        if src == dest:
            return 0
        return self.routing_tree(dest).path_length(src)

    def clear_cache(self) -> None:
        """Drop every cached routing tree (call after graph mutation)."""
        self._trees.clear()
        self._dense = None
