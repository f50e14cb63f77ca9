"""Per-spec result streams: append-only sealed JSONL.

Each admitted spec owns one stream file
(``<stream_dir>/<tenant>/<spec>.jsonl``) in the sealed-JSONL framing
of :mod:`repro.probing.artifacts`. Every completed unit appends
exactly one line — the unit record in canonical JSON with an embedded
per-line sha256 (:func:`~repro.probing.artifacts.encode_jsonl_line`)
— durably (flush + fsync). When the spec finishes, a trailer line
seals the stream: record count plus a ``body_sha256`` over all record
lines, itself checksummed (:class:`~repro.probing.artifacts.JsonlSeal`).

Byte-identity argument: a unit record's content is a deterministic
function of (scenario, seed, spec, unit index); units are flushed in
strictly increasing unit-index order within a spec regardless of
global scheduling interleave or worker count; the trailer is computed
from the records alone (no timestamps). Hence the full stream file is
byte-identical across worker counts, pauses, and kill→resume.

Crash recovery (:meth:`TenantStream.open`): re-verify every line,
drop a torn/invalid tail, drop any trailer (the daemon re-finalizes
finished specs — the trailer is deterministic so re-sealing rewrites
identical bytes), and truncate to the checkpoint's flushed-unit count
— a crash after flush but before checkpoint leaves one extra valid
record, which resume rewinds and replays identically.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.probing.artifacts import (
    ArtifactError,
    JsonlSeal,
    append_text_line,
    atomic_write_text,
    encode_jsonl_line,
    read_sealed_jsonl,
    verify_jsonl_line,
)

__all__ = [
    "STREAM_VERSION",
    "TRAILER_RECORD",
    "UNIT_RECORD",
    "StreamFormatError",
    "TenantStream",
    "load_stream",
]

STREAM_VERSION = 1
UNIT_RECORD = "unit"
TRAILER_RECORD = "tenant_stream_trailer"

#: A stream failed verification (the one artifact framing error).
StreamFormatError = ArtifactError


class TenantStream:
    """One spec's append-only result stream."""

    def __init__(self, path: Union[str, Path], tenant: str, spec: str) -> None:
        self.path = Path(path)
        self.tenant = tenant
        self.spec = spec
        self.finalized = False
        self._seal = JsonlSeal()

    @property
    def records(self) -> int:
        """Unit records in the stream so far."""
        return self._seal.records

    # -- creation / recovery ----------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        tenant: str,
        spec: str,
        expect_records: Optional[int] = None,
    ) -> "TenantStream":
        """Open (creating or recovering) a stream for appending.

        ``expect_records`` is the checkpoint's flushed-unit count: the
        stream is truncated to exactly that many valid record lines
        (extra valid records mean the crash hit between flush and
        checkpoint; invalid tails mean it hit mid-write). A trailer, if
        present, is stripped — callers re-finalize finished specs.
        Raises :class:`StreamFormatError` if fewer valid records
        survive than the checkpoint requires (that means lost data,
        not a clean crash).
        """
        stream = cls(path, tenant, spec)
        stream.path.parent.mkdir(parents=True, exist_ok=True)
        if not stream.path.exists():
            if expect_records:
                raise StreamFormatError(
                    path,
                    f"stream missing but checkpoint recorded "
                    f"{expect_records} flushed units",
                )
            stream.path.write_text("", encoding="utf-8")
            return stream
        kept: List[str] = []
        dirty = False
        # Undecodable bytes become U+FFFD, which no valid line holds.
        text = stream.path.read_bytes().decode("utf-8", "replace")
        for line in text.splitlines():
            body = verify_jsonl_line(line)
            if body is None or body.get("record") == TRAILER_RECORD:
                # Torn tail or trailer: everything from here on is
                # rewritten by the resumed run.
                dirty = True
                break
            if expect_records is not None and len(kept) >= expect_records:
                dirty = True
                break
            kept.append(line)
        if expect_records is not None and len(kept) < expect_records:
            raise StreamFormatError(
                path,
                f"only {len(kept)} valid records recovered; checkpoint "
                f"recorded {expect_records} flushed units",
            )
        if dirty:
            atomic_write_text(
                stream.path,
                "".join(line + "\n" for line in kept),
            )
        for line in kept:
            stream._seal.add(line)
        return stream

    # -- appending ---------------------------------------------------------

    def append(self, record: dict) -> None:
        """Durably append one unit record (checksummed canonical JSON)."""
        if self.finalized:
            raise StreamFormatError(self.path, "stream already finalized")
        line = encode_jsonl_line(record)
        append_text_line(self.path, line)
        self._seal.add(line)

    def finalize(self) -> None:
        """Seal the stream with a deterministic trailer line."""
        if self.finalized:
            return
        append_text_line(
            self.path,
            self._seal.trailer(
                TRAILER_RECORD,
                version=STREAM_VERSION,
                tenant=self.tenant,
                spec=self.spec,
            ),
        )
        self.finalized = True


def load_stream(
    path: Union[str, Path], require_trailer: bool = True
) -> Tuple[List[dict], Optional[dict]]:
    """Strictly load a stream: ``(unit_records, trailer_or_None)``.

    Every line must verify; the trailer (mandatory unless
    ``require_trailer=False``) must match the record count and body
    hash. Raises :class:`StreamFormatError` on any mismatch.
    """
    return read_sealed_jsonl(path, TRAILER_RECORD, require_trailer)
