"""Tests for the cluster wire protocol (repro.runtime.wire)."""

import asyncio
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.runtime.wire import (
    HEADER_BYTES,
    MAGIC,
    MAX_CONTROL_PAYLOAD_BYTES,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    ChecksumError,
    ConnectionClosed,
    Frame,
    MessageType,
    ProtocolError,
    RemoteWorkerError,
    decode_frame,
    decode_header,
    encode_frame,
    error_payload,
    raise_if_error,
    read_frame,
)

_HEADER = struct.Struct("!4sBBQII")


def _reader_with(data: bytes) -> asyncio.StreamReader:
    # StreamReader needs a running loop: call only inside a coroutine.
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def read_one(data: bytes) -> Frame:
    async def scenario():
        return await read_frame(_reader_with(data))

    return asyncio.run(scenario())


def test_frame_round_trip_preserves_payload_object():
    obj = {"coords": np.arange(12).reshape(4, 3), "shape": (16, 16, 16)}
    raw = encode_frame(MessageType.EXECUTE_BATCH, 7, obj)
    frame = decode_frame(raw)
    assert frame.type == MessageType.EXECUTE_BATCH
    assert frame.request_id == 7
    loaded = frame.load()
    assert loaded["shape"] == (16, 16, 16)
    assert np.array_equal(loaded["coords"], obj["coords"])


def test_empty_payload_loads_as_none():
    raw = encode_frame(MessageType.HEALTH, 1)
    frame = decode_frame(raw)
    assert frame.payload == b""
    assert frame.load() is None


def test_async_read_frame_round_trip():
    raw = encode_frame(MessageType.OK, 99, {"ok": True})
    frame = read_one(raw)
    assert frame.type == MessageType.OK
    assert frame.request_id == 99
    assert frame.load() == {"ok": True}


def test_read_frame_pipelined_frames_in_one_stream():
    raw = encode_frame(MessageType.HEALTH, 1) + encode_frame(
        MessageType.OK, 2, "second"
    )

    async def scenario():
        reader = _reader_with(raw)
        first = await read_frame(reader)
        second = await read_frame(reader)
        return first, second

    first, second = asyncio.run(scenario())
    assert first.request_id == 1
    assert second.load() == "second"


def test_clean_eof_between_frames_is_connection_closed():
    with pytest.raises(ConnectionClosed):
        read_one(b"")


def test_eof_mid_header_is_protocol_error():
    raw = encode_frame(MessageType.HEALTH, 1)
    with pytest.raises(ProtocolError, match="header"):
        read_one(raw[: HEADER_BYTES - 3])


def test_eof_mid_payload_is_protocol_error():
    raw = encode_frame(MessageType.OK, 5, {"k": "v"})
    with pytest.raises(ProtocolError, match="payload"):
        read_one(raw[:-2])


def test_bad_magic_rejected():
    raw = bytearray(encode_frame(MessageType.HEALTH, 1))
    raw[:4] = b"NOPE"
    with pytest.raises(ProtocolError, match="magic"):
        decode_header(bytes(raw[:HEADER_BYTES]))


def test_unsupported_version_rejected():
    payload = b""
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION + 1, int(MessageType.HEALTH), 1, 0,
        zlib.crc32(payload),
    )
    with pytest.raises(ProtocolError, match="version"):
        decode_header(header)


def test_unknown_message_type_rejected():
    header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, 200, 1, 0, 0)
    with pytest.raises(ProtocolError, match="message type"):
        decode_header(header)


def test_header_length_guard():
    with pytest.raises(ProtocolError, match="bytes"):
        decode_header(b"short")


def test_corrupted_payload_is_checksum_error():
    raw = bytearray(encode_frame(MessageType.OK, 3, {"value": 42}))
    raw[-1] ^= 0xFF
    with pytest.raises(ChecksumError):
        read_one(bytes(raw))
    with pytest.raises(ChecksumError):
        decode_frame(bytes(raw))


def test_declared_length_beyond_cap_rejected_before_allocation():
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(MessageType.OK), 1,
        MAX_PAYLOAD_BYTES + 1, 0,
    )
    with pytest.raises(ProtocolError, match="MAX_PAYLOAD_BYTES"):
        decode_header(header)


def test_health_header_beyond_control_cap_rejected_before_payload_read():
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(MessageType.HEALTH), 1, 1 << 20, 0
    )
    with pytest.raises(ProtocolError, match="MAX_CONTROL_PAYLOAD_BYTES"):
        decode_header(header)

    async def scenario():
        # Header only, no EOF: a payload read would block, not fail.
        reader = asyncio.StreamReader()
        reader.feed_data(header)
        return await asyncio.wait_for(read_frame(reader), timeout=5.0)

    with pytest.raises(ProtocolError, match="MAX_CONTROL_PAYLOAD_BYTES"):
        asyncio.run(scenario())


@pytest.mark.parametrize("msg_type", list(MessageType))
def test_payload_cap_per_message_type(msg_type):
    control = msg_type in (
        MessageType.HEALTH, MessageType.REFRESH, MessageType.ERROR
    )
    length = MAX_CONTROL_PAYLOAD_BYTES + 1
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(msg_type), 1, length, 0
    )
    payload = bytes(length)
    if control:
        with pytest.raises(ProtocolError, match="MAX_CONTROL_PAYLOAD_BYTES"):
            decode_header(header)
        with pytest.raises(ValueError, match="MAX_CONTROL_PAYLOAD_BYTES"):
            encode_frame(msg_type, 1, payload=payload)
    else:
        assert decode_header(header)[2] == length
        assert decode_frame(encode_frame(msg_type, 1, payload=payload))


def test_error_payload_fits_control_cap_for_huge_messages():
    # A worker exception with a 2 MiB message still yields a sendable
    # ERROR reply: the message is cut, not the reply refused.
    body = error_payload(ValueError("\u00e9" * (1 << 20)))
    frame = decode_frame(encode_frame(MessageType.ERROR, 4, body))
    with pytest.raises(RemoteWorkerError, match="ValueError"):
        raise_if_error(frame)


def test_encode_rejects_oversized_request_id():
    with pytest.raises(ValueError, match="64 bits"):
        encode_frame(MessageType.HEALTH, 1 << 64)
    with pytest.raises(ValueError, match="64 bits"):
        encode_frame(MessageType.HEALTH, -1)


def test_decode_frame_requires_exact_length():
    raw = encode_frame(MessageType.OK, 1, "x")
    with pytest.raises(ProtocolError, match="carries"):
        decode_frame(raw + b"extra")


def test_error_frame_round_trip_raises_remote_worker_error():
    payload = error_payload(KeyError("missing spec"))
    raw = encode_frame(MessageType.ERROR, 4, payload)
    frame = decode_frame(raw)
    with pytest.raises(RemoteWorkerError, match="missing spec") as excinfo:
        raise_if_error(frame)
    assert excinfo.value.kind == "KeyError"


def test_error_payload_is_names_not_pickled_exceptions():
    body = error_payload(ValueError("boom"))
    assert body == {"kind": "ValueError", "message": "boom"}
    # The wire carries plain strings — unpickling must not produce an
    # exception instance.
    loaded = pickle.loads(
        pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert isinstance(loaded["kind"], str)


def test_raise_if_error_passes_ok_and_rejects_request_frames():
    ok = decode_frame(encode_frame(MessageType.OK, 1, "fine"))
    assert raise_if_error(ok) is ok
    request = decode_frame(encode_frame(MessageType.HEALTH, 2))
    with pytest.raises(ProtocolError, match="reply"):
        raise_if_error(request)
