"""Measurement tooling: vantage points, the prober, schedules, storage."""

from repro.probing.prober import DEFAULT_PPS, Prober
from repro.probing.results import (
    PingResult,
    RRPingResult,
    RRUdpResult,
    TracerouteResult,
    TsPingResult,
)
from repro.probing.scheduler import (
    ProbeOrder,
    order_destinations,
    split_round_robin,
)
from repro.probing.vantage import SITE_CITIES, Platform, VantagePoint, vp_addr

__all__ = [
    "DEFAULT_PPS",
    "Prober",
    "PingResult",
    "RRPingResult",
    "RRUdpResult",
    "TracerouteResult",
    "TsPingResult",
    "ProbeOrder",
    "order_destinations",
    "split_round_robin",
    "SITE_CITIES",
    "Platform",
    "VantagePoint",
    "vp_addr",
]
