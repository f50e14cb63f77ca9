"""Typed probe results and the RR-header decoding they carry.

These are the measurement-side records (what scamper would record):
everything in them was parsed from reply packet bytes, and nothing
leaks in from simulator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.net.addr import int_to_addr

__all__ = [
    "PingResult",
    "RRPingResult",
    "RRUdpResult",
    "ResultType",
    "TracerouteResult",
    "TsPingResult",
]


@dataclass(frozen=True)
class PingResult:
    """Outcome of a plain-ping round (no options)."""

    vp_name: str
    dst: int
    sent: int
    replies: int
    reply_ident: Optional[int] = None  # last reply's IP-ID (alias fodder)
    reply_time: Optional[float] = None

    @property
    def responded(self) -> bool:
        return self.replies > 0


@dataclass(frozen=True)
class RRPingResult:
    """Outcome of one ``ping-RR``.

    ``rr_hops`` holds the addresses found in the *reply's* RR option:
    forward-path stamps, then (possibly) the destination's own stamp,
    then reverse-path stamps in whatever slots remained.

    ``quoted_rr_hops`` is filled instead when the probe expired en
    route and a Time Exceeded error quoted the offending header — the
    §4.2 mechanism for recovering RR data from TTL-limited probes.
    """

    vp_name: str
    dst: int
    responded: bool  # an Echo Reply came back
    rr_hops: List[int] = field(default_factory=list)
    rr_slots: int = 9
    ttl_exceeded: bool = False
    error_source: Optional[int] = None
    quoted_rr_hops: List[int] = field(default_factory=list)
    reply_has_rr: bool = False

    @property
    def rr_responsive(self) -> bool:
        """Paper §3.1: replied with the RR option copied into the reply."""
        return self.responded and self.reply_has_rr

    def dest_slot(self, dst_addr: Optional[int] = None) -> Optional[int]:
        """1-based RR slot holding the destination address, if present.

        This is the paper's RR-reachability test ("we test if a
        destination is RR-reachable by observing if the destination IP
        address appears in the RR response header") and its "number of
        RR hops" distance metric. Honest false negatives included: a
        destination that stamped an alias, or did not stamp, yields
        None here, exactly as in §3.3.
        """
        target = self.dst if dst_addr is None else dst_addr
        for index, addr in enumerate(self.rr_hops):
            if addr == target:
                return index + 1
        return None

    @property
    def reachable(self) -> bool:
        return self.dest_slot() is not None

    def forward_hops(self) -> List[int]:
        """RR stamps before the destination's own (empty if unreachable)."""
        slot = self.dest_slot()
        return [] if slot is None else self.rr_hops[: slot - 1]

    def reverse_hops(self) -> List[int]:
        """RR stamps after the destination's own: the reverse path [11]."""
        slot = self.dest_slot()
        return [] if slot is None else self.rr_hops[slot:]

    def __str__(self) -> str:
        hops = ", ".join(int_to_addr(a) for a in self.rr_hops)
        return (
            f"RRPing({self.vp_name} -> {int_to_addr(self.dst)} "
            f"responded={self.responded} rr=[{hops}])"
        )


@dataclass(frozen=True)
class RRUdpResult:
    """Outcome of one ``ping-RRudp`` (UDP high port, RR enabled).

    A port-unreachable error quotes the offending packet, so
    ``quoted_rr_hops``/``quoted_slots`` reveal whether the probe
    reached the destination with slots to spare — the §3.3 test for
    destinations that do not honor RR.
    """

    vp_name: str
    dst: int
    got_unreachable: bool
    quoted_rr_hops: List[int] = field(default_factory=list)
    quoted_slots: Optional[int] = None
    error_source: Optional[int] = None

    @property
    def slots_remaining(self) -> Optional[int]:
        if not self.got_unreachable or self.quoted_slots is None:
            return None
        return self.quoted_slots - len(self.quoted_rr_hops)

    @property
    def arrived_with_room(self) -> bool:
        """True if the probe hit the destination with ≥1 free RR slot."""
        remaining = self.slots_remaining
        return (
            remaining is not None
            and remaining >= 1
            and self.error_source == self.dst
        )


@dataclass(frozen=True)
class TsPingResult:
    """Outcome of one ``ping-TS`` (ICMP echo with a Timestamp option).

    ``entries`` mirrors the reply option: ``(address-or-None,
    timestamp-ms-or-None)`` pairs, in slot order. For a prespecified
    probe, a slot with a non-None timestamp confirms that the named
    device processed the packet — the on-path test reverse traceroute
    uses [11].
    """

    vp_name: str
    dst: int
    responded: bool
    flag: int = 0
    entries: List[List[Optional[int]]] = field(default_factory=list)
    overflow: int = 0
    reply_has_ts: bool = False

    @property
    def stamped_count(self) -> int:
        return sum(1 for _addr, ts in self.entries if ts is not None)

    def stamped_addr(self, addr: int) -> bool:
        """True if ``addr`` appears with a filled timestamp."""
        return any(
            slot_addr == addr and ts is not None
            for slot_addr, ts in self.entries
        )

    def timestamps(self) -> List[int]:
        return [ts for _addr, ts in self.entries if ts is not None]


@dataclass(frozen=True)
class TracerouteResult:
    """Outcome of an ICMP traceroute (one probe per TTL)."""

    vp_name: str
    dst: int
    hops: List[Optional[int]] = field(default_factory=list)
    reached: bool = False

    @property
    def hop_count(self) -> Optional[int]:
        """Hops to the destination (inclusive), when it was reached."""
        return len(self.hops) if self.reached else None

    def responsive_hops(self) -> List[int]:
        return [addr for addr in self.hops if addr is not None]

    def __str__(self) -> str:
        rendered = " ".join(
            "*" if addr is None else int_to_addr(addr) for addr in self.hops
        )
        return (
            f"Traceroute({self.vp_name} -> {int_to_addr(self.dst)} "
            f"reached={self.reached}: {rendered})"
        )


#: Any one typed probe result.
ResultType = Union[
    PingResult, RRPingResult, RRUdpResult, TracerouteResult, TsPingResult
]
