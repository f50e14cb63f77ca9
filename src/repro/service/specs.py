"""Measurement specs: what a tenant asks the service to run.

A spec names a probe kind (``rr`` ping-record-route or plain
``ping``), a slice of the scenario hitlist, a VP-selection policy, a
rate cap, and a priority — the same request shape RIPE Atlas tenants
submit ("Day in the Life of RIPE Atlas", PAPERS.md). Parsing is
strict and every rejection carries a *machine-readable* reason code
(``SpecError.reason``): the control socket's clients are programs,
and "invalid spec" is not an actionable answer.

The **unit** of scheduling and execution is one VP probing the spec's
full target slice — for rr specs, exactly the RR unit the survey and
the campaign run (``vp_attempt_body``), so a unit's result bytes
are a function of (scenario, seed, spec, unit index) alone, never of
worker count or scheduling order. That is the keystone of the
service's byte-identical streams invariant (see DESIGN.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields as dataclass_fields
from typing import List, Optional, Tuple

from repro.probing.prober import DEFAULT_PPS
from repro.probing.vantage import Platform, VantagePoint
from repro.scenarios.internet import Scenario
from repro.topology.hitlist import Destination

__all__ = [
    "MeasurementSpec",
    "SPEC_KINDS",
    "SpecError",
    "VP_POLICIES",
    "parse_spec",
    "resolve_targets",
    "resolve_vps",
]

SPEC_KINDS = ("rr", "ping")
VP_POLICIES = ("all", "working", "mlab", "planetlab", "named")

#: Probes sent per target by a ``ping`` unit (the paper's ping study
#: sends 3 per destination).
PING_COUNT = 3

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SpecError(ValueError):
    """A spec was rejected; ``reason`` is a stable machine-readable code.

    Reason codes in use: ``bad_record``, ``missing_field``,
    ``unknown_field``, ``bad_name``, ``unknown_kind``,
    ``unknown_vp_policy``, ``bad_field``, ``unknown_vp``, ``no_vps``,
    ``empty_targets``, ``duplicate_spec``, ``insufficient_credits``,
    ``spec_budget_exceeds_quota``, ``too_many_active_specs``.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(reason, detail)
        self.reason = reason
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.reason}: {self.detail}"

    def to_response(self) -> dict:
        return {"ok": False, "reason": self.reason, "detail": self.detail}


@dataclass(frozen=True)
class MeasurementSpec:
    """One tenant's measurement request (immutable once admitted)."""

    tenant: str
    name: str
    kind: str = "rr"
    target_count: int = 50
    target_offset: int = 0
    vp_policy: str = "working"
    vp_names: Tuple[str, ...] = ()
    vp_limit: Optional[int] = None
    slots: int = 9
    pps: float = DEFAULT_PPS
    priority: int = 1
    units_per_round: int = 1

    @property
    def key(self) -> Tuple[str, str]:
        return (self.tenant, self.name)

    @property
    def label(self) -> str:
        return f"{self.tenant}/{self.name}"

    def to_record(self) -> dict:
        """The JSON shape ``parse_spec`` round-trips (checkpoints,
        control-socket echoes)."""
        return {
            "tenant": self.tenant,
            "name": self.name,
            "kind": self.kind,
            "target_count": self.target_count,
            "target_offset": self.target_offset,
            "vp_policy": self.vp_policy,
            "vp_names": list(self.vp_names),
            "vp_limit": self.vp_limit,
            "slots": self.slots,
            "pps": self.pps,
            "priority": self.priority,
            "units_per_round": self.units_per_round,
        }


_SPEC_FIELDS = {f.name for f in dataclass_fields(MeasurementSpec)}


def _require_name(record: dict, field: str) -> str:
    value = record.get(field)
    if value is None:
        raise SpecError("missing_field", f"spec is missing {field!r}")
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise SpecError(
            "bad_name",
            f"{field} must match {_NAME_RE.pattern}: {value!r}",
        )
    return value


def _positive_int(record: dict, field: str, default: int) -> int:
    value = record.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecError(
            "bad_field", f"{field} must be a positive integer: {value!r}"
        )
    return value


def parse_spec(record: object) -> MeasurementSpec:
    """Validate a submission record into a :class:`MeasurementSpec`.

    Raises :class:`SpecError` with a stable reason code on anything a
    client could get wrong; never raises anything else on bad input.
    """
    if not isinstance(record, dict):
        raise SpecError(
            "bad_record", f"spec must be a JSON object, got {type(record).__name__}"
        )
    unknown = sorted(set(record) - _SPEC_FIELDS)
    if unknown:
        raise SpecError("unknown_field", f"unknown spec fields: {unknown}")
    tenant = _require_name(record, "tenant")
    name = _require_name(record, "name")
    kind = record.get("kind", "rr")
    if kind not in SPEC_KINDS:
        raise SpecError(
            "unknown_kind", f"kind must be one of {SPEC_KINDS}: {kind!r}"
        )
    vp_policy = record.get("vp_policy", "working")
    if vp_policy not in VP_POLICIES:
        raise SpecError(
            "unknown_vp_policy",
            f"vp_policy must be one of {VP_POLICIES}: {vp_policy!r}",
        )
    raw_names = record.get("vp_names", ())
    if isinstance(raw_names, str):
        raw_names = (raw_names,)
    if not isinstance(raw_names, (list, tuple)) or not all(
        isinstance(item, str) for item in raw_names
    ):
        raise SpecError(
            "bad_field", f"vp_names must be a list of strings: {raw_names!r}"
        )
    if vp_policy == "named" and not raw_names:
        raise SpecError(
            "bad_field", "vp_policy 'named' requires non-empty vp_names"
        )
    target_count = _positive_int(record, "target_count", 50)
    target_offset = record.get("target_offset", 0)
    if (
        isinstance(target_offset, bool)
        or not isinstance(target_offset, int)
        or target_offset < 0
    ):
        raise SpecError(
            "bad_field",
            f"target_offset must be a non-negative integer: {target_offset!r}",
        )
    vp_limit = record.get("vp_limit")
    if vp_limit is not None:
        vp_limit = _positive_int(record, "vp_limit", 1)
    slots = _positive_int(record, "slots", 9)
    if slots > 38:
        raise SpecError(
            "bad_field", f"slots exceeds the RR option's 38-byte room: {slots}"
        )
    pps = record.get("pps", DEFAULT_PPS)
    if isinstance(pps, bool) or not isinstance(pps, (int, float)) or pps <= 0:
        raise SpecError("bad_field", f"pps must be a positive number: {pps!r}")
    priority = record.get("priority", 1)
    if isinstance(priority, bool) or not isinstance(priority, int) or priority < 0:
        raise SpecError(
            "bad_field", f"priority must be a non-negative integer: {priority!r}"
        )
    units_per_round = _positive_int(record, "units_per_round", 1)
    return MeasurementSpec(
        tenant=tenant,
        name=name,
        kind=kind,
        target_count=target_count,
        target_offset=target_offset,
        vp_policy=vp_policy,
        vp_names=tuple(raw_names),
        vp_limit=vp_limit,
        slots=slots,
        pps=float(pps),
        priority=priority,
        units_per_round=units_per_round,
    )


def resolve_vps(
    spec: MeasurementSpec, scenario: Scenario
) -> List[VantagePoint]:
    """The spec's VP list, in deterministic scenario order.

    One VP == one schedulable unit; the order here fixes the unit
    index → VP mapping for the spec's whole lifetime (it is written
    into stream records), so it must be a pure function of the spec
    and the scenario.
    """
    if spec.vp_policy == "named":
        vps = []
        for vp_name in spec.vp_names:
            try:
                vps.append(scenario.vp_by_name(vp_name))
            except KeyError:
                raise SpecError(
                    "unknown_vp", f"no vantage point named {vp_name!r}"
                ) from None
    elif spec.vp_policy == "all":
        vps = list(scenario.vps)
    elif spec.vp_policy == "working":
        vps = list(scenario.working_vps)
    else:
        platform = Platform.MLAB if spec.vp_policy == "mlab" else Platform.PLANETLAB
        vps = [vp for vp in scenario.vps if vp.platform is platform]
    if spec.vp_limit is not None:
        vps = vps[: spec.vp_limit]
    if not vps:
        raise SpecError(
            "no_vps", f"vp_policy {spec.vp_policy!r} selected no VPs"
        )
    return vps


def resolve_targets(
    spec: MeasurementSpec, scenario: Scenario
) -> List[Destination]:
    """The spec's hitlist slice (``target_offset`` .. ``+target_count``)."""
    targets = list(scenario.hitlist)[
        spec.target_offset : spec.target_offset + spec.target_count
    ]
    if not targets:
        raise SpecError(
            "empty_targets",
            f"target slice [{spec.target_offset}, "
            f"{spec.target_offset + spec.target_count}) is beyond the "
            f"{len(list(scenario.hitlist))}-destination hitlist",
        )
    return targets


def probes_per_unit(spec: MeasurementSpec, targets: int) -> int:
    """Probe cost of one unit: destinations × probes-per-destination."""
    return targets * (PING_COUNT if spec.kind == "ping" else 1)


def spec_costs(
    spec: MeasurementSpec,
    vps: List[VantagePoint],
    targets: List[Destination],
    cost_per_probe: float,
) -> Tuple[float, float]:
    """``(unit_cost, total_cost)`` in credits."""
    unit_probes = probes_per_unit(spec, len(targets))
    unit_cost = unit_probes * cost_per_probe
    return unit_cost, unit_cost * len(vps)
