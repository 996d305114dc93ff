"""Length-prefixed asyncio wire protocol of the cluster serving tier.

The coordinator (:class:`repro.runtime.cluster.RemoteShardBackend`) and
the workers (:mod:`repro.runtime.worker`) exchange *frames*: a fixed
binary header followed by a pickled payload.  The header is
deliberately boring — the whole protocol fits in one ``struct`` —

::

    !4sBBQII  =  magic    4 bytes   b"ESC1"
                 version  1 byte    PROTOCOL_VERSION
                 type     1 byte    MessageType
                 request  8 bytes   correlation id (echoed in the reply)
                 length   4 bytes   payload byte count
                 crc32    4 bytes   zlib.crc32 of the payload

so a reader can always resynchronize its expectations: a bad magic or
version is a :class:`ProtocolError` (you connected the wrong thing), a
checksum mismatch is a :class:`ChecksumError` (the bytes got mangled),
and a short read mid-frame is a :class:`ProtocolError` (the peer died
mid-sentence).  A clean EOF *between* frames raises
:class:`ConnectionClosed` — the one shutdown that is not an error.

Request/response framing is symmetric: every request frame
(``PREPARE`` / ``EXECUTE_BATCH`` / ``REFRESH`` / ``HEALTH`` /
``SPEC_SYNC``) is answered by exactly one ``OK`` or ``ERROR`` frame
carrying the same ``request_id``, so a client may pipeline requests
over one connection and correlate replies out of order.  ``ERROR``
payloads carry the worker-side exception class name and message
(:func:`raise_if_error` re-raises them as :class:`RemoteWorkerError`),
never a pickled exception object — unpickling arbitrary classes from a
failure path is how error handling grows its own failure modes.

Payloads are pickled with :data:`pickle.HIGHEST_PROTOCOL` (numpy
arrays cross zero-copy on pickle 5 buffers within a process, and
compactly over the wire).  :func:`payload_cap` bounds what a reader
will allocate from a length field before trusting the stream, per
message type: :data:`MAX_PAYLOAD_BYTES` for the frames that carry
tensors, specs or replies, :data:`MAX_CONTROL_PAYLOAD_BYTES` for the
control frames (``HEALTH`` / ``REFRESH`` requests, ``ERROR`` replies),
so one forged control header cannot force a gigabyte read.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Optional, Tuple

PROTOCOL_VERSION = 1
MAGIC = b"ESC1"

_HEADER = struct.Struct("!4sBBQII")
HEADER_BYTES = _HEADER.size

#: Refuse to allocate more than this from a frame's length field (a
#: corrupted or hostile header must not become a 4 GiB allocation).
MAX_PAYLOAD_BYTES = 1 << 30
#: The cap of control frames, whose payloads are a few short fields.
MAX_CONTROL_PAYLOAD_BYTES = 64 << 10

_MAX_REQUEST_ID = (1 << 64) - 1


class MessageType(IntEnum):
    """Frame types of the cluster protocol, version 1."""

    #: Warm one plan: ``{"spec": digest, "coords", "shape"}``.
    PREPARE = 1
    #: Run one digest group: ``{"spec": digest, "coords", "shape",
    #: "features": [(N, C)] * B, "digest"}`` ->
    #: ``{"features": [(N, Cout)] * B}``.
    EXECUTE_BATCH = 2
    #: Retire spec sessions: ``{"keep": digest | None}``.
    REFRESH = 3
    #: Liveness + warmth probe: ``{}`` -> counters and known digests.
    HEALTH = 4
    #: Ship a spec blob: ``{"digest", "blob"}`` (zero-downtime swaps).
    SPEC_SYNC = 5
    #: Successful reply; payload is the handler's result object.
    OK = 6
    #: Failed reply; payload names the worker-side exception.
    ERROR = 7


#: Request types a worker accepts (everything except the reply types).
REQUEST_TYPES = (
    MessageType.PREPARE,
    MessageType.EXECUTE_BATCH,
    MessageType.REFRESH,
    MessageType.HEALTH,
    MessageType.SPEC_SYNC,
)


_CONTROL_TYPES = frozenset(
    (MessageType.HEALTH, MessageType.REFRESH, MessageType.ERROR)
)

#: ``ERROR`` messages are cut to this many characters, so the reply
#: stays under the control cap even at four UTF-8 bytes a character.
_ERROR_MESSAGE_CHARS = 8192


def payload_cap(msg_type: MessageType) -> Tuple[str, int]:
    """``(name, bytes)`` of the payload cap that applies to ``msg_type``."""
    if msg_type in _CONTROL_TYPES:
        return "MAX_CONTROL_PAYLOAD_BYTES", MAX_CONTROL_PAYLOAD_BYTES
    return "MAX_PAYLOAD_BYTES", MAX_PAYLOAD_BYTES


class WireError(RuntimeError):
    """Base class of every protocol-level failure."""


class ProtocolError(WireError):
    """Malformed stream: bad magic/version/type, or a truncated frame."""


class ChecksumError(WireError):
    """Payload bytes do not match the header's CRC-32."""


class ConnectionClosed(WireError):
    """The peer closed the connection cleanly between frames."""


class RemoteWorkerError(RuntimeError):
    """A worker answered with an ``ERROR`` frame.

    ``kind`` is the worker-side exception class name (string, never an
    unpickled class), so the coordinator can tell an application error
    (bad request — do *not* fail the worker over) from transport death.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame: ``(type, request_id, payload bytes)``."""

    type: MessageType
    request_id: int
    payload: bytes

    def load(self) -> Any:
        """Unpickle the payload (``None`` for an empty payload)."""
        if not self.payload:
            return None
        return pickle.loads(self.payload)


def encode_frame(
    msg_type: MessageType,
    request_id: int,
    obj: Any = None,
    payload: Optional[bytes] = None,
) -> bytes:
    """Serialize one frame: header + pickled ``obj`` (or raw ``payload``)."""
    if not 0 <= request_id <= _MAX_REQUEST_ID:
        raise ValueError(f"request_id must fit in 64 bits, got {request_id}")
    if payload is None:
        payload = b"" if obj is None else pickle.dumps(
            obj, protocol=pickle.HIGHEST_PROTOCOL
        )
    cap_name, cap = payload_cap(msg_type)
    if len(payload) > cap:
        raise ValueError(
            f"{MessageType(msg_type).name} payload of {len(payload)} bytes "
            f"exceeds {cap_name} ({cap})"
        )
    header = _HEADER.pack(
        MAGIC,
        PROTOCOL_VERSION,
        int(msg_type),
        request_id,
        len(payload),
        zlib.crc32(payload),
    )
    return header + payload


def decode_header(header: bytes) -> Tuple[MessageType, int, int, int]:
    """Validate a header buffer -> ``(type, request_id, length, crc)``."""
    if len(header) != HEADER_BYTES:
        raise ProtocolError(
            f"header must be {HEADER_BYTES} bytes, got {len(header)}"
        )
    magic, version, raw_type, request_id, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad magic {magic!r}: peer is not speaking the cluster protocol"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this build speaks {PROTOCOL_VERSION})"
        )
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {raw_type}") from None
    cap_name, cap = payload_cap(msg_type)
    if length > cap:
        raise ProtocolError(
            f"declared {msg_type.name} payload of {length} bytes exceeds "
            f"{cap_name} ({cap})"
        )
    return msg_type, request_id, length, crc


def decode_frame(buffer: bytes) -> Frame:
    """Decode one complete frame from ``buffer`` (exact length required)."""
    msg_type, request_id, length, crc = decode_header(buffer[:HEADER_BYTES])
    payload = buffer[HEADER_BYTES:]
    if len(payload) != length:
        raise ProtocolError(
            f"frame declares {length} payload bytes but carries {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise ChecksumError(
            f"payload checksum mismatch on {msg_type.name} frame "
            f"(request {request_id})"
        )
    return Frame(msg_type, request_id, payload)


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """Read and validate one frame from ``reader``.

    Raises :class:`ConnectionClosed` on a clean EOF between frames and
    :class:`ProtocolError` on a mid-frame EOF — the distinction is what
    lets a worker treat client disconnect as routine while the
    coordinator treats a half-written reply as a lost worker.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("peer closed between frames") from None
        raise ProtocolError(
            f"stream ended {len(exc.partial)} bytes into a frame header"
        ) from None
    msg_type, request_id, length, crc = decode_header(header)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"stream ended {len(exc.partial)}/{length} bytes into a "
            f"{msg_type.name} payload"
        ) from None
    if zlib.crc32(payload) != crc:
        raise ChecksumError(
            f"payload checksum mismatch on {msg_type.name} frame "
            f"(request {request_id})"
        )
    return Frame(msg_type, request_id, payload)


async def write_frame(
    writer: asyncio.StreamWriter,
    msg_type: MessageType,
    request_id: int,
    obj: Any = None,
) -> None:
    """Encode and send one frame, draining the transport buffer."""
    writer.write(encode_frame(msg_type, request_id, obj))
    await writer.drain()


def error_payload(exc: BaseException) -> dict:
    """The ``ERROR`` frame body describing a worker-side exception."""
    return {
        "kind": type(exc).__name__,
        "message": str(exc)[:_ERROR_MESSAGE_CHARS],
    }


def raise_if_error(frame: Frame) -> Frame:
    """Pass ``OK`` frames through; re-raise ``ERROR`` frames.

    Anything other than ``OK``/``ERROR`` in reply position is a
    :class:`ProtocolError` — the peer is confused, not just failing.
    """
    if frame.type == MessageType.OK:
        return frame
    if frame.type == MessageType.ERROR:
        body = frame.load() or {}
        raise RemoteWorkerError(
            str(body.get("kind", "RuntimeError")),
            str(body.get("message", "worker reported an error")),
        )
    raise ProtocolError(
        f"expected an OK/ERROR reply, got a {frame.type.name} frame"
    )
