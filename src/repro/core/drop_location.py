"""Where do options packets die? (the paper's motivating statistic)

The 2005 "IP options are not an option" report found that "for 91% of
the paths that dropped them, the drops occurred at the source or
destination AS" [8] — the fact §2 reinterprets to argue RR is viable
for *measurement*: a host that isn't filtered locally can reach most
destinations that support the option.

This module reproduces that measurement. For a destination that
answers plain pings but not ping-RR, it localises the options drop:

1. a plain traceroute (options-free, so unfiltered) maps the path;
2. a TTL-limited ping-RR scan finds the deepest hop the options packet
   provably survived to (each surviving TTL elicits a Time Exceeded
   quoting the live RR header);
3. the first hop past that evidence is blamed, and its AS classified
   as source / transit / destination relative to the probing pair.

All measurement-side: the simulator's ground truth (which AS actually
filters, which host drops options) appears only in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.ip2as import Ip2As, build_ip2as
from repro.core.survey import PingSurvey, RRSurvey
from repro.probing.vantage import VantagePoint
from repro.rng import stable_rng
from repro.scenarios.internet import Scenario

__all__ = [
    "DropSite",
    "DropLocalization",
    "DropStudy",
    "localize_drop",
    "run_drop_study",
]


class DropSite(enum.Enum):
    """Where along the path the options packet was lost."""

    SOURCE = "source"  # the probing side (incl. filtered locally)
    TRANSIT = "transit"  # an intermediate AS
    DESTINATION = "destination"  # the destination AS or host
    DELIVERED = "delivered"  # not actually dropped (transient earlier)
    UNKNOWN = "unknown"  # not enough path evidence to say


@dataclass
class DropLocalization:
    """One localisation outcome."""

    vp_name: str
    dst: int
    site: DropSite
    deepest_surviving_ttl: int = 0
    blamed_asn: Optional[int] = None


@dataclass
class DropStudy:
    """Aggregate drop locations across probed pairs."""

    results: List[DropLocalization] = field(default_factory=list)

    def counts(self) -> Dict[DropSite, int]:
        tally = {site: 0 for site in DropSite}
        for result in self.results:
            tally[result.site] += 1
        return tally

    @property
    def edge_fraction(self) -> float:
        """Fraction of localised drops at the source or destination AS
        — the statistic the 2005 report put at 91%."""
        counts = self.counts()
        located = (
            counts[DropSite.SOURCE]
            + counts[DropSite.TRANSIT]
            + counts[DropSite.DESTINATION]
        )
        if located == 0:
            return 0.0
        edge = counts[DropSite.SOURCE] + counts[DropSite.DESTINATION]
        return edge / located

    def render(self) -> str:
        counts = self.counts()
        return (
            f"Options-drop localisation over {len(self.results)} "
            f"ping-responsive but RR-unresponsive pairs: "
            f"{counts[DropSite.SOURCE]} at the source AS, "
            f"{counts[DropSite.TRANSIT]} in transit, "
            f"{counts[DropSite.DESTINATION]} at the destination "
            f"AS/host, {counts[DropSite.DELIVERED]} delivered on "
            f"retry, {counts[DropSite.UNKNOWN]} unlocalised — "
            f"{self.edge_fraction:.0%} of located drops at the edge "
            f"(the 2005 report found 91%)"
        )


def _first_asn_at_or_after(
    trace_hops: List[Optional[int]], index: int, ip2as: Ip2As
) -> Optional[int]:
    """The AS of the first responsive traceroute hop at or after
    ``index`` (0-based)."""
    for addr in trace_hops[index:]:
        if addr is None:
            continue
        asn = ip2as.asn_of(addr)
        if asn is not None:
            return asn
    return None


def localize_drop(
    scenario: Scenario,
    vp: VantagePoint,
    dst: int,
    ip2as: Optional[Ip2As] = None,
    max_ttl: int = 20,
) -> DropLocalization:
    """Localise why ``(vp, dst)`` gets no ping-RR response."""
    mapping = build_ip2as(scenario.table) if ip2as is None else ip2as
    prober = scenario.prober
    src_asn = mapping.asn_of(vp.addr)
    dst_asn = mapping.asn_of(dst)

    deepest = 0
    for ttl in range(1, max_ttl + 1):
        result = prober.ping_rr(vp, dst, ttl=ttl)
        if result.responded:
            # The destination answered after all: the earlier failure
            # was transient (loss / rate limiting), not a filter.
            return DropLocalization(
                vp_name=vp.name,
                dst=dst,
                site=DropSite.DELIVERED,
                deepest_surviving_ttl=ttl,
            )
        if result.ttl_exceeded:
            deepest = ttl

    if deepest == 0:
        # The options packet never got far enough for any router to
        # report it: dropped at (or immediately after) the source.
        return DropLocalization(
            vp_name=vp.name, dst=dst, site=DropSite.SOURCE,
            deepest_surviving_ttl=0,
        )

    trace = prober.traceroute(vp, dst, max_ttl=max_ttl)
    blamed_asn = _first_asn_at_or_after(trace.hops, deepest, mapping)
    if blamed_asn is None:
        return DropLocalization(
            vp_name=vp.name,
            dst=dst,
            site=DropSite.UNKNOWN,
            deepest_surviving_ttl=deepest,
        )
    if blamed_asn == dst_asn:
        site = DropSite.DESTINATION
    elif blamed_asn == src_asn:
        site = DropSite.SOURCE
    else:
        site = DropSite.TRANSIT
    return DropLocalization(
        vp_name=vp.name,
        dst=dst,
        site=site,
        deepest_surviving_ttl=deepest,
        blamed_asn=blamed_asn,
    )


def run_drop_study(
    scenario: Scenario,
    ping_survey: PingSurvey,
    rr_survey: RRSurvey,
    sample: int = 60,
    vp: Optional[VantagePoint] = None,
    ip2as: Optional[Ip2As] = None,
) -> DropStudy:
    """Localise drops for a sample of pingable-but-RR-dark pairs.

    Candidates are destinations that answered the origin's plain pings
    but never answered the probing VP's ping-RR (per the survey).
    """
    mapping = build_ip2as(scenario.table) if ip2as is None else ip2as
    study = DropStudy()
    probe_vp = vp or next(
        vp for vp in rr_survey.vps if not vp.local_filtered
    )
    vp_index = rr_survey.vp_indices(names=[probe_vp.name])[0]

    candidates = []
    for index, dest in enumerate(rr_survey.dests):
        if not ping_survey.is_responsive(dest.addr):
            continue
        if vp_index in rr_survey.responses[index]:
            continue  # this VP heard it: no drop on this pair
        candidates.append(dest)
    rng = stable_rng(scenario.seed, "drop-study")
    if len(candidates) > sample:
        candidates = rng.sample(candidates, sample)

    # Each localisation runs in its own probe session, so it reads no
    # limiter, clock or loss state that earlier in-process probing left
    # behind: the study repeats at any survey ``jobs``.
    network = scenario.network
    for dest in candidates:
        network.begin_vp_session(f"{probe_vp.name}/drop-{dest.addr}")
        try:
            study.results.append(
                localize_drop(scenario, probe_vp, dest.addr, ip2as=mapping)
            )
        finally:
            network.end_vp_session()
    return study
