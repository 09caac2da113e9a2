"""Durable records: how bytes reach disk and how they are trusted on
the way back — decided here, once, for every artifact the library
persists (cache entries, checkpoint and shard journals, batch specs,
manifests, leases, telemetry snapshots, trace archives).

* :func:`atomic_write` replaces a file whole, so readers see the old
  file or the new one and a failed write leaves nothing behind.
* :func:`append_line` appends one fsynced line and never extends a
  dead writer's fragment (the newline guard).
* :func:`seal_line` / :func:`seal_json_payload` add CRC32 seals;
  :func:`unseal_line` / :func:`verify_sealed_payload` check them.
* :func:`scan_sealed_jsonl` is the one line reader: every line is
  :data:`OK`, a :data:`TORN` tail, or :data:`CORRUPT`.

Standard library only, so ``repro.exp`` / ``repro.obs`` /
``repro.eval`` use it without importing ``repro.dist``.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "atomic_write",
    "append_line",
    "seal_line",
    "unseal_line",
    "seal_json_payload",
    "verify_sealed_payload",
    "scan_sealed_jsonl",
    "ScannedLine",
    "OK",
    "TORN",
    "CORRUPT",
    "CHECKSUM_KEY",
]


def atomic_write(
    path: str | os.PathLike,
    write: Callable,
    *,
    binary: bool = False,
    fsync: bool = False,
) -> None:
    """Replace ``path`` with whatever ``write(handle)`` produces.

    The content goes to a uniquely named ``.<random>.tmp`` beside the
    target (same filesystem, so ``os.replace`` is atomic; unique, so
    concurrent writers never share a temp) and is unlinked on any
    failure. ``fsync`` makes it durable before it becomes visible.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if binary else "w") as handle:
            write(handle)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def append_line(path: str | os.PathLike, line: str) -> None:
    """Durably append ``line`` plus a newline to ``path``.

    The fsync makes a torn tail a last resort (power loss mid-write)
    rather than the common case (process death with a full OS buffer);
    the directory is fsynced on first create so the file's existence is
    durable too.
    """
    path = Path(path)
    payload = (line + "\n").encode("utf-8")
    existed = path.exists()
    with open(path, "ab+") as handle:
        size = handle.seek(0, os.SEEK_END)
        if size:
            handle.seek(size - 1)
            if handle.read(1) != b"\n":
                # A prior writer stranded a partial line; terminate it
                # so this record never extends a fragment into garbage
                # that swallows a good record.
                payload = b"\n" + payload
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    if not existed:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


# -- line / payload checksums ------------------------------------------------

#: seal suffix marker on journal lines: ``<json> @crc32=deadbeef``
SEAL_MARK = " @crc32="

#: embedded checksum key on sealed JSON documents (the run manifest)
CHECKSUM_KEY = "_crc32"


def _crc(text: str) -> str:
    return f"{zlib.crc32(text.encode('utf-8')) & 0xFFFFFFFF:08x}"


def seal_line(text: str) -> str:
    """Append the CRC32 seal: ``<text> @crc32=<8 hex digits>``."""
    return f"{text}{SEAL_MARK}{_crc(text)}"


def unseal_line(line: str) -> tuple[str, bool | None]:
    """Split a (possibly) sealed line into ``(text, verdict)``.

    ``verdict`` is True (seal present and valid), False (seal present
    but the checksum does not match — the line is corrupt), or None
    (no seal: a pre-checksum legacy line or a torn fragment; the caller
    falls back to JSON-parse validation).
    """
    idx = line.rfind(SEAL_MARK)
    if idx < 0:
        return line, None
    text, digest = line[:idx], line[idx + len(SEAL_MARK):]
    if len(digest) != 8:
        return text, False
    return text, _crc(text) == digest


def seal_json_payload(payload: dict) -> dict:
    """A copy of ``payload`` with an embedded ``_crc32`` checksum.

    The checksum covers the canonical (sorted-key) JSON rendering of
    the payload *without* the checksum field, so readers that ignore
    unknown keys keep working and :func:`verify_sealed_payload` can
    re-derive it exactly.
    """
    body = {k: v for k, v in payload.items() if k != CHECKSUM_KEY}
    sealed = dict(body)
    sealed[CHECKSUM_KEY] = _crc(json.dumps(body, sort_keys=True))
    return sealed


def verify_sealed_payload(payload: dict) -> tuple[dict, bool | None]:
    """``(payload without checksum, verdict)`` for a sealed document.

    Verdict semantics match :func:`unseal_line`: None means the
    document predates checksumming (accepted as-is).
    """
    if CHECKSUM_KEY not in payload:
        return payload, None
    body = {k: v for k, v in payload.items() if k != CHECKSUM_KEY}
    return body, _crc(json.dumps(body, sort_keys=True)) == payload[CHECKSUM_KEY]


# -- the sealed-JSONL reader -------------------------------------------------

OK = "ok"
TORN = "torn"
CORRUPT = "corrupt"


class ScannedLine(NamedTuple):
    """One non-empty line of a (sealed) JSONL file, judged."""

    line_no: int  # 1-based, counting blank lines
    verdict: str  # OK | TORN | CORRUPT
    raw: str  # the stripped line, seal included (quarantine provenance)
    value: object  # the decoded record when OK, else None
    reason: str  # why a CORRUPT line was rejected, else ""


def scan_sealed_jsonl(
    text: str, decode: Callable | None = None
) -> Iterator[ScannedLine]:
    """Judge every non-empty line of ``text``.

    A line *parses* when its body is valid JSON and ``decode`` (if
    given) returns a record for the document rather than None — so a
    well-formed document of the wrong shape is rejected exactly like a
    syntax error. Verdicts:

    * :data:`OK` — the seal verifies (or the line is an unsealed legacy
      line) and it parses; ``value`` is the decoded record.
    * :data:`TORN` — only ever the last content line: unsealed and
      unparseable, or its seal cut short. The writer died mid-append;
      skip it.
    * :data:`CORRUPT` — a bad seal, a sealed line that does not parse
      (writer bug), or an unparseable interior line: a record that was
      once written whole is no longer intact. The caller quarantines or
      skips it, but never mistakes it for a torn tail.
    """
    lines = text.split("\n")
    last_content = max(
        (i for i, line in enumerate(lines) if line.strip()), default=-1
    )
    for index, line in enumerate(lines):
        raw = line.strip()
        if not raw:
            continue
        body, sealed = unseal_line(raw)
        value = None
        if sealed is not False:
            try:
                value = json.loads(body)
            except json.JSONDecodeError:
                pass
            else:
                if decode is not None:
                    value = decode(value)
        # a seal whose 8-digit checksum never fully landed
        cut_short = sealed is False and (
            len(raw) - raw.rfind(SEAL_MARK) - len(SEAL_MARK) < 8
        )
        if value is not None:
            verdict, reason = OK, ""
        elif index == last_content and (sealed is None or cut_short):
            verdict, reason = TORN, ""
        elif sealed is None:
            verdict, reason = CORRUPT, "unsealed interior line failed to parse"
        elif sealed:
            verdict, reason = CORRUPT, "sealed but failed to parse"
        else:
            verdict, reason = CORRUPT, "checksum mismatch"
        yield ScannedLine(index + 1, verdict, raw, value, reason)
