"""Artifact framing: how every checksummed artifact is written and read.

Every artifact this repository persists — survey JSON (plain or
gzipped), campaign and service checkpoints, the quarantine sidecar,
service result streams, packet-trace JSONL — represents hours of
(simulated) probing. A half-written or bit-rotted file must therefore
never load as different data. This module is the only code that knows
the on-disk formats; it offers two framings, each with one writer and
one verifying reader:

* **Checksummed JSON document** — :func:`write_json_artifact` /
  :func:`read_json_artifact`. One canonical JSON object (sorted keys,
  compact separators) carrying an embedded sha256 under
  :data:`CHECKSUM_KEY`, computed over the canonical bytes of the
  record without that key. A ``.gz`` path is gzipped with ``mtime=0``
  so the bytes stay deterministic.
* **Sealed JSONL** — one canonical line per record, each with its own
  embedded sha256 (:func:`encode_jsonl_line` /
  :func:`verify_jsonl_line`), closed by a trailer line carrying the
  record count and a ``body_sha256`` over the record lines, itself
  checksummed (:class:`JsonlSeal`). :func:`read_sealed_jsonl` is the
  strict reader.

The checksum is mandatory: a record without one is rejected like a
tampered one. Every read failure — truncated, non-UTF-8, not a JSON
object, missing or mismatched checksum, bad trailer — raises
:class:`ArtifactError` naming the path. A missing file stays a
``FileNotFoundError``: absence and corruption are different failures.

Writes land through :func:`atomic_write_bytes` (temp file, fsync,
``os.replace``), so readers and crashed writers only ever see a
complete old file or a complete new one; streams append durably
through :func:`append_text_line`. Document verification outcomes are
counted in the process-wide metrics registry
(``artifact_checksum_verified_total`` /
``artifact_checksum_failures_total`` by artifact kind) and surface in
``repro stats --health``.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import CounterFamily, MetricsRegistry, REGISTRY

__all__ = [
    "CHECKSUM_KEY",
    "ArtifactError",
    "JsonlSeal",
    "append_text_line",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical_json_bytes",
    "checksum_of",
    "embed_checksum",
    "encode_jsonl_line",
    "read_json_artifact",
    "read_sealed_jsonl",
    "split_checksum",
    "verify_embedded_checksum",
    "verify_jsonl_line",
    "write_json_artifact",
    "checksum_verified_counter",
    "checksum_failure_counter",
]

#: The reserved top-level key carrying the embedded content digest.
CHECKSUM_KEY = "sha256"


class ArtifactError(ValueError):
    """An artifact on disk failed to read or verify.

    Carries the offending path and a human-readable reason instead of
    leaking ``json.JSONDecodeError`` / ``EOFError`` / gzip internals —
    load-bearing once ``--resume`` reads checkpoints written by
    possibly-killed runs.
    """

    def __init__(self, path: Union[str, Path], reason: str) -> None:
        super().__init__(str(path), reason)
        self.path = str(path)
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"


def checksum_verified_counter(registry: MetricsRegistry) -> CounterFamily:
    """``artifact_checksum_verified_total{kind}`` — loads that checked out."""
    return registry.counter(
        "artifact_checksum_verified_total",
        "Artifact loads whose embedded content checksum verified.",
        ("kind",),
    )


def checksum_failure_counter(registry: MetricsRegistry) -> CounterFamily:
    """``artifact_checksum_failures_total{kind}`` — corruption caught."""
    return registry.counter(
        "artifact_checksum_failures_total",
        "Artifact loads rejected for a missing or mismatched "
        "embedded checksum.",
        ("kind",),
    )


# ---------------------------------------------------------------------------
# The one atomic write-rename helper.
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final
    rename never crosses a filesystem boundary. The file descriptor is
    fsynced before the rename; a crash at any point leaves either the
    previous complete file or the new complete file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        # A crash between write and replace leaves the temp file; a
        # success leaves nothing. Either way, don't litter.
        if tmp.exists():  # pragma: no cover - crash-path hygiene
            try:
                tmp.unlink()
            except OSError:
                pass


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomic text write (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))


def append_text_line(
    path: Union[str, Path], line: str, encoding: str = "utf-8"
) -> None:
    """Durably append one line to a streaming artifact.

    The record-at-a-time sibling of :func:`atomic_write_text`: flush +
    fsync after each line, so a crash can truncate the file mid-line
    at worst — never reorder or interleave records. Readers pair this
    with a recovery pass that drops a torn final line
    (:func:`verify_jsonl_line`).
    """
    with open(path, "a", encoding=encoding, newline="") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())


# ---------------------------------------------------------------------------
# Embedded content checksums over canonical JSON bytes.
# ---------------------------------------------------------------------------


def canonical_json_bytes(record: Dict) -> bytes:
    """The canonical serialisation checksums are computed over.

    Sorted keys + compact separators: any dict that parses back to the
    same data canonicalises to the same bytes, so a load can recompute
    the digest of what it parsed and compare against the embedded one.
    """
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def checksum_of(record: Dict) -> str:
    """sha256 hex digest of ``record``'s canonical bytes (checksum
    field excluded, if present)."""
    body = {k: v for k, v in record.items() if k != CHECKSUM_KEY}
    return hashlib.sha256(canonical_json_bytes(body)).hexdigest()


def embed_checksum(record: Dict) -> Dict:
    """A copy of ``record`` carrying its own content digest."""
    body = {k: v for k, v in record.items() if k != CHECKSUM_KEY}
    out = dict(body)
    out[CHECKSUM_KEY] = checksum_of(body)
    return out


def split_checksum(record: Dict) -> Tuple[Dict, Optional[str]]:
    """``(body, stored_digest)`` — the digest is ``None`` when the
    record carries none (which every reader rejects)."""
    if CHECKSUM_KEY not in record:
        return record, None
    body = {k: v for k, v in record.items() if k != CHECKSUM_KEY}
    return body, record[CHECKSUM_KEY]


def _checksum_error(record: Dict) -> Tuple[Dict, Optional[str]]:
    """``(body, reason)``: ``reason`` is ``None`` when the embedded
    digest is present and matches."""
    body, stored = split_checksum(record)
    if stored is None:
        return body, "no embedded content checksum"
    actual = checksum_of(body)
    if actual != stored:
        return body, (
            "content checksum mismatch: artifact is corrupt "
            f"(embedded {str(stored)[:12]}…, computed {actual[:12]}…)"
        )
    return body, None


def verify_embedded_checksum(
    record: Dict, kind: str = "artifact",
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Dict, Optional[str]]:
    """Verify ``record``'s embedded digest.

    Returns ``(body, error_reason)``: ``error_reason`` is ``None``
    when the digest is present and matches, else a human-readable
    description (a missing digest is an error). Outcomes are counted
    in the metrics registry by ``kind``.
    """
    registry = REGISTRY if registry is None else registry
    body, reason = _checksum_error(record)
    if reason is None:
        checksum_verified_counter(registry).labels(kind).inc()
    else:
        checksum_failure_counter(registry).labels(kind).inc()
    return body, reason


# ---------------------------------------------------------------------------
# Framing 1: the checksummed JSON document.
# ---------------------------------------------------------------------------


def _is_gzip_path(path: Union[str, Path]) -> bool:
    return str(path).endswith(".gz")


def write_json_artifact(path: Union[str, Path], record: Dict) -> None:
    """Write ``record`` as canonical JSON with its embedded sha256,
    atomically; gzipped (``mtime=0``, so deterministic) for ``*.gz``."""
    data = canonical_json_bytes(embed_checksum(record))
    if _is_gzip_path(path):
        atomic_write_bytes(path, gzip.compress(data, mtime=0))
    else:
        atomic_write_text(path, data.decode("utf-8"))


def read_json_artifact(
    path: Union[str, Path], kind: str = "artifact"
) -> Dict:
    """Read and verify a :func:`write_json_artifact` document.

    Returns the record without its checksum field. Raises
    :class:`ArtifactError` for a truncated or corrupt gzip stream,
    non-UTF-8 bytes, invalid JSON, a non-object, or a missing or
    mismatched checksum; the checksum outcome is counted in
    ``artifact_checksum_{verified,failures}_total{kind}``.
    """
    raw = Path(path).read_bytes()
    if _is_gzip_path(path):
        try:
            raw = gzip.decompress(raw)
        except EOFError:
            raise ArtifactError(
                path, "truncated gzip stream (file cut short?)"
            ) from None
        except (gzip.BadGzipFile, zlib.error, OSError) as exc:
            raise ArtifactError(path, f"corrupt gzip data: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactError(path, f"not UTF-8: {exc}") from None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        reason = "truncated JSON" if not text.strip() else f"invalid JSON: {exc}"
        raise ArtifactError(path, reason) from None
    if not isinstance(record, dict):
        raise ArtifactError(
            path, f"expected a JSON object, got {type(record).__name__}"
        )
    body, reason = verify_embedded_checksum(record, kind=kind)
    if reason is not None:
        raise ArtifactError(path, reason)
    return body


# ---------------------------------------------------------------------------
# Framing 2: sealed JSONL.
# ---------------------------------------------------------------------------


def encode_jsonl_line(record: Dict) -> str:
    """One sealed-JSONL line: ``record``'s canonical JSON carrying its
    own digest (no newline)."""
    return canonical_json_bytes(embed_checksum(record)).decode("utf-8")


def verify_jsonl_line(line: str) -> Optional[Dict]:
    """The record on ``line`` without its digest, or ``None`` for a
    torn, tampered or checksum-less line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    body, reason = _checksum_error(record)
    return body if reason is None else None


class JsonlSeal:
    """Running record count and body digest of a sealed JSONL file.

    Feed it every record line as written (:meth:`add`); :meth:`trailer`
    then builds the closing line. The trailer is the record
    ``{"record": tag, **fields, "records": n, "body_sha256": h}``
    where ``h`` hashes each record line plus its newline, so it is a
    function of the records alone.
    """

    def __init__(self) -> None:
        self.records = 0
        self._digest = hashlib.sha256()

    def add(self, line: str) -> None:
        self._digest.update((line + "\n").encode("utf-8"))
        self.records += 1

    @property
    def body_sha256(self) -> str:
        return self._digest.hexdigest()

    def trailer(self, tag: str, **fields) -> str:
        """The checksummed trailer line (no newline)."""
        return encode_jsonl_line({
            **fields,
            "record": tag,
            "records": self.records,
            "body_sha256": self.body_sha256,
        })


def read_sealed_jsonl(
    path: Union[str, Path], tag: str, require_trailer: bool = True
) -> Tuple[List[Dict], Optional[Dict]]:
    """Strictly read a sealed JSONL file: ``(records, trailer)``.

    Every line must verify; the trailer is the line whose ``record``
    field is ``tag`` and must be the last line. It is mandatory unless
    ``require_trailer=False`` (then ``None`` when absent) and must
    match the record count and body digest. Raises
    :class:`ArtifactError` on any failure.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactError(path, f"not UTF-8: {exc}") from None
    records: List[Dict] = []
    seal = JsonlSeal()
    trailer: Optional[Dict] = None
    for number, line in enumerate(text.splitlines(), 1):
        if trailer is not None:
            raise ArtifactError(path, f"line {number}: data after trailer")
        body = verify_jsonl_line(line)
        if body is None:
            raise ArtifactError(
                path, f"line {number}: invalid or tampered record"
            )
        if body.get("record") == tag:
            trailer = body
            continue
        records.append(body)
        seal.add(line)
    if trailer is None:
        if require_trailer:
            raise ArtifactError(path, f"missing {tag} line")
        return records, None
    if trailer.get("records") != seal.records:
        raise ArtifactError(
            path,
            f"trailer records {trailer.get('records')!r} != "
            f"{seal.records} records present",
        )
    if trailer.get("body_sha256") != seal.body_sha256:
        raise ArtifactError(path, "body hash mismatch")
    return records, trailer
