"""A compact binary result format — this repository's warts.

scamper archives measurements in *warts*, a framed binary format that
tools stream-process without loading whole files. This module provides
the equivalent for our result types: a magic-tagged header followed by
length-prefixed records, each a type byte plus a compact field
encoding (fixed-width integers, varint-prefixed lists, nullable
addresses), for bulk archives of measurement results.

Layout::

    file   := magic(4) version(u8) record*
    record := length(u32 BE, excluding itself) type(u8) body
    varint := LEB128, unsigned
    maybe_addr := u8 flag (0=None) + u32 BE when present
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.probing.artifacts import atomic_write_bytes
from repro.probing.results import (
    PingResult,
    RRPingResult,
    RRUdpResult,
    ResultType,
    TracerouteResult,
    TsPingResult,
)

__all__ = ["WartsError", "WartsWriter", "WartsReader", "WartsStore"]

MAGIC = b"RRWa"
VERSION = 1

_TYPE_PING = 1
_TYPE_RR_PING = 2
_TYPE_RR_UDP = 3
_TYPE_TRACEROUTE = 4
_TYPE_TS_PING = 5


class WartsError(ValueError):
    """Raised on malformed archives."""


# -- primitive encoders -------------------------------------------------


def _write_varint(out: io.BytesIO, value: int) -> None:
    if value < 0:
        raise WartsError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes([byte | 0x80]))
        else:
            out.write(bytes([byte]))
            return


def _read_varint(data: bytes, offset: int) -> "tuple[int, int]":
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WartsError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise WartsError("varint too long")


def _write_u32(out: io.BytesIO, value: int) -> None:
    out.write(value.to_bytes(4, "big"))


def _read_u32(data: bytes, offset: int) -> "tuple[int, int]":
    if offset + 4 > len(data):
        raise WartsError("truncated u32")
    return int.from_bytes(data[offset : offset + 4], "big"), offset + 4


def _write_maybe_u32(out: io.BytesIO, value: Optional[int]) -> None:
    if value is None:
        out.write(b"\x00")
    else:
        out.write(b"\x01")
        _write_u32(out, value)


def _read_maybe_u32(data: bytes, offset: int):
    if offset >= len(data):
        raise WartsError("truncated optional field")
    flag = data[offset]
    offset += 1
    if flag == 0:
        return None, offset
    if flag != 1:
        raise WartsError(f"bad optional flag {flag}")
    return _read_u32(data, offset)


def _write_string(out: io.BytesIO, text: str) -> None:
    raw = text.encode("utf-8")
    _write_varint(out, len(raw))
    out.write(raw)


def _read_string(data: bytes, offset: int):
    length, offset = _read_varint(data, offset)
    if offset + length > len(data):
        raise WartsError("truncated string")
    return data[offset : offset + length].decode("utf-8"), offset + length


def _write_addr_list(out: io.BytesIO, addrs: List[int]) -> None:
    _write_varint(out, len(addrs))
    for addr in addrs:
        _write_u32(out, addr)


def _read_addr_list(data: bytes, offset: int):
    count, offset = _read_varint(data, offset)
    addrs = []
    for _ in range(count):
        addr, offset = _read_u32(data, offset)
        addrs.append(addr)
    return addrs, offset


def _write_maybe_float_ms(out: io.BytesIO, value: Optional[float]) -> None:
    # Times stored as integral microseconds; None flagged out.
    if value is None:
        out.write(b"\x00")
    else:
        out.write(b"\x01")
        _write_varint(out, int(round(value * 1_000_000)))


def _read_maybe_float_ms(data: bytes, offset: int):
    flag = data[offset]
    offset += 1
    if flag == 0:
        return None, offset
    micros, offset = _read_varint(data, offset)
    return micros / 1_000_000, offset


# -- per-type codecs -------------------------------------------------


def _encode_body(result: ResultType) -> "tuple[int, bytes]":
    out = io.BytesIO()
    if isinstance(result, PingResult):
        _write_string(out, result.vp_name)
        _write_u32(out, result.dst)
        _write_varint(out, result.sent)
        _write_varint(out, result.replies)
        _write_maybe_u32(out, result.reply_ident)
        _write_maybe_float_ms(out, result.reply_time)
        return _TYPE_PING, out.getvalue()
    if isinstance(result, RRPingResult):
        _write_string(out, result.vp_name)
        _write_u32(out, result.dst)
        flags = (
            (result.responded << 0)
            | (result.ttl_exceeded << 1)
            | (result.reply_has_rr << 2)
        )
        out.write(bytes([flags]))
        _write_varint(out, result.rr_slots)
        _write_addr_list(out, result.rr_hops)
        _write_maybe_u32(out, result.error_source)
        _write_addr_list(out, result.quoted_rr_hops)
        return _TYPE_RR_PING, out.getvalue()
    if isinstance(result, RRUdpResult):
        _write_string(out, result.vp_name)
        _write_u32(out, result.dst)
        out.write(bytes([int(result.got_unreachable)]))
        _write_addr_list(out, result.quoted_rr_hops)
        _write_maybe_u32(
            out,
            result.quoted_slots,
        )
        _write_maybe_u32(out, result.error_source)
        return _TYPE_RR_UDP, out.getvalue()
    if isinstance(result, TracerouteResult):
        _write_string(out, result.vp_name)
        _write_u32(out, result.dst)
        out.write(bytes([int(result.reached)]))
        _write_varint(out, len(result.hops))
        for hop in result.hops:
            _write_maybe_u32(out, hop)
        return _TYPE_TRACEROUTE, out.getvalue()
    if isinstance(result, TsPingResult):
        _write_string(out, result.vp_name)
        _write_u32(out, result.dst)
        flags = (result.responded << 0) | (result.reply_has_ts << 1)
        out.write(bytes([flags]))
        _write_varint(out, result.flag)
        _write_varint(out, result.overflow)
        _write_varint(out, len(result.entries))
        for addr, ts in result.entries:
            _write_maybe_u32(out, addr)
            _write_maybe_u32(out, ts)
        return _TYPE_TS_PING, out.getvalue()
    raise WartsError(f"unsupported result type {type(result).__name__}")


def _decode_body(kind: int, data: bytes) -> ResultType:
    offset = 0
    if kind == _TYPE_PING:
        vp_name, offset = _read_string(data, offset)
        dst, offset = _read_u32(data, offset)
        sent, offset = _read_varint(data, offset)
        replies, offset = _read_varint(data, offset)
        reply_ident, offset = _read_maybe_u32(data, offset)
        reply_time, offset = _read_maybe_float_ms(data, offset)
        return PingResult(vp_name, dst, sent, replies, reply_ident,
                          reply_time)
    if kind == _TYPE_RR_PING:
        vp_name, offset = _read_string(data, offset)
        dst, offset = _read_u32(data, offset)
        flags = data[offset]
        offset += 1
        rr_slots, offset = _read_varint(data, offset)
        rr_hops, offset = _read_addr_list(data, offset)
        error_source, offset = _read_maybe_u32(data, offset)
        quoted, offset = _read_addr_list(data, offset)
        return RRPingResult(
            vp_name=vp_name,
            dst=dst,
            responded=bool(flags & 1),
            rr_hops=rr_hops,
            rr_slots=rr_slots,
            ttl_exceeded=bool(flags & 2),
            error_source=error_source,
            quoted_rr_hops=quoted,
            reply_has_rr=bool(flags & 4),
        )
    if kind == _TYPE_RR_UDP:
        vp_name, offset = _read_string(data, offset)
        dst, offset = _read_u32(data, offset)
        got = bool(data[offset])
        offset += 1
        quoted, offset = _read_addr_list(data, offset)
        quoted_slots, offset = _read_maybe_u32(data, offset)
        error_source, offset = _read_maybe_u32(data, offset)
        return RRUdpResult(
            vp_name=vp_name,
            dst=dst,
            got_unreachable=got,
            quoted_rr_hops=quoted,
            quoted_slots=quoted_slots,
            error_source=error_source,
        )
    if kind == _TYPE_TRACEROUTE:
        vp_name, offset = _read_string(data, offset)
        dst, offset = _read_u32(data, offset)
        reached = bool(data[offset])
        offset += 1
        count, offset = _read_varint(data, offset)
        hops: List[Optional[int]] = []
        for _ in range(count):
            hop, offset = _read_maybe_u32(data, offset)
            hops.append(hop)
        return TracerouteResult(vp_name, dst, hops, reached)
    if kind == _TYPE_TS_PING:
        vp_name, offset = _read_string(data, offset)
        dst, offset = _read_u32(data, offset)
        flags = data[offset]
        offset += 1
        ts_flag, offset = _read_varint(data, offset)
        overflow, offset = _read_varint(data, offset)
        count, offset = _read_varint(data, offset)
        entries = []
        for _ in range(count):
            addr, offset = _read_maybe_u32(data, offset)
            ts, offset = _read_maybe_u32(data, offset)
            entries.append([addr, ts])
        return TsPingResult(
            vp_name=vp_name,
            dst=dst,
            responded=bool(flags & 1),
            flag=ts_flag,
            entries=entries,
            overflow=overflow,
            reply_has_ts=bool(flags & 2),
        )
    raise WartsError(f"unknown record type {kind}")


# -- framing ---------------------------------------------------------


class WartsWriter:
    """Streams results into a binary archive."""

    def __init__(self, fh: IO[bytes]) -> None:
        self._fh = fh
        self._fh.write(MAGIC)
        self._fh.write(bytes([VERSION]))
        self.records_written = 0

    def write(self, result: ResultType) -> None:
        kind, body = _encode_body(result)
        frame = bytes([kind]) + body
        self._fh.write(len(frame).to_bytes(4, "big"))
        self._fh.write(frame)
        self.records_written += 1

    def write_all(self, results: Iterable[ResultType]) -> int:
        count = 0
        for result in results:
            self.write(result)
            count += 1
        return count


class WartsReader:
    """Streams results back out of a binary archive."""

    def __init__(self, fh: IO[bytes]) -> None:
        self._fh = fh
        header = fh.read(5)
        if len(header) < 5 or header[:4] != MAGIC:
            raise WartsError("not a warts-like archive (bad magic)")
        if header[4] != VERSION:
            raise WartsError(f"unsupported version {header[4]}")

    def __iter__(self) -> Iterator[ResultType]:
        while True:
            length_bytes = self._fh.read(4)
            if not length_bytes:
                return
            if len(length_bytes) < 4:
                raise WartsError("truncated record length")
            length = int.from_bytes(length_bytes, "big")
            frame = self._fh.read(length)
            if len(frame) < length or length < 1:
                raise WartsError("truncated record")
            yield _decode_body(frame[0], frame[1:])


class WartsStore:
    """Path-bound convenience wrapper around the reader and writer."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def write(self, results: Iterable[ResultType]) -> int:
        """Replace the archive atomically: a failing ``results``
        iterator leaves the previous archive intact."""
        buffer = io.BytesIO()
        count = WartsWriter(buffer).write_all(results)
        atomic_write_bytes(self.path, buffer.getvalue())
        return count

    def read(self) -> List[ResultType]:
        if not self.path.exists():
            return []
        with self.path.open("rb") as fh:
            return list(WartsReader(fh))

    def __iter__(self) -> Iterator[ResultType]:
        return iter(self.read())
