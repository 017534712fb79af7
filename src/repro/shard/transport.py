"""The shard wire protocol: length-prefixed, CRC-checked socket frames.

Every message between the coordinator and a shard worker is one frame::

    +-------+------+-------+----------+-------------+------------+
    | magic | type | flags | reserved | payload_len | crc32      |
    | 4B    | 1B   | 1B    | 2B       | u32         | u32        |
    +-------+------+-------+----------+-------------+------------+
    | payload (payload_len bytes)                                |
    +------------------------------------------------------------+

The CRC covers the payload; a mismatch (or a short read / EOF) raises
:class:`TransportError` and the coordinator treats the channel as dead --
the supervision ladder respawns the worker and re-dispatches.

Control payloads are JSON.  Anything JSON cannot carry falls back to
pickle -- the PR-6 pickled-dispatch degradation rung, flagged per frame
(:data:`FLAG_PICKLED`) and counted in :func:`transport_counters` so the
fallback's share of the traffic stays auditable.

Relation-bearing frames (``LOAD`` out, ``RESULT`` back) carry one
contiguous blob of column bytes plus a descriptor of ``(offset, length)``
spans -- one span per column, CRC-checked as part of the frame.  Interval endpoints pack as
big-endian 64-bit integers; key/payload columns are JSON spans with the
same per-span pickle rung.

Open channels register in a process-local set; chaos tests assert
:func:`active_channel_count` returns to zero.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading
import zlib
from typing import Dict, List, Optional, Tuple

from repro.model.errors import ServiceError

MAGIC = b"RSH1"

#: Frame types.
HELLO = 1
LOAD = 2
EXECUTE = 3
RESULT = 4
OK = 5
PING = 6
PONG = 7
CHAOS = 8
SHUTDOWN = 9
ERROR = 10

FRAME_NAMES = {
    HELLO: "HELLO",
    LOAD: "LOAD",
    EXECUTE: "EXECUTE",
    RESULT: "RESULT",
    OK: "OK",
    PING: "PING",
    PONG: "PONG",
    CHAOS: "CHAOS",
    SHUTDOWN: "SHUTDOWN",
    ERROR: "ERROR",
}

#: Payload is pickled (the degradation rung), not JSON.
FLAG_PICKLED = 0x01

_HEADER = struct.Struct("!4sBBHII")

#: Hard sanity cap on one frame's payload (simulated relations are small;
#: a corrupt length field must not trigger a gigabyte allocation).
MAX_PAYLOAD_BYTES = 1 << 30


class TransportError(ServiceError):
    """A shard channel failed: EOF, timeout, bad magic, or CRC mismatch.

    Attributes:
        kind: ``"eof"``, ``"timeout"``, ``"crc"``, ``"protocol"``.
    """

    def __init__(self, message: str, *, kind: str = "protocol") -> None:
        super().__init__(message)
        self.kind = kind


# -- counters ----------------------------------------------------------------

_COUNTER_LOCK = threading.Lock()
_COUNTERS = {
    "frames_sent": 0,
    "frames_received": 0,
    "bytes_sent": 0,
    "bytes_received": 0,
    "bytes_pickled": 0,
    "pickle_fallbacks": 0,
    "crc_failures": 0,
}


def _count(name: str, amount: int = 1) -> None:
    with _COUNTER_LOCK:
        _COUNTERS[name] += amount


def transport_counters() -> Dict[str, int]:
    """Snapshot of the process-local transport counters."""
    with _COUNTER_LOCK:
        return dict(_COUNTERS)


def reset_transport_counters() -> None:
    """Zero the counters (test isolation)."""
    with _COUNTER_LOCK:
        for key in _COUNTERS:
            _COUNTERS[key] = 0


# -- open-channel registry ---------------------------------------------------

_CHANNEL_LOCK = threading.Lock()
_OPEN_CHANNELS: set = set()


def active_channel_count() -> int:
    """Channels currently open in this process (the leak check)."""
    with _CHANNEL_LOCK:
        return len(_OPEN_CHANNELS)


# -- payload codecs ----------------------------------------------------------

def encode_payload(obj) -> Tuple[bytes, int]:
    """Encode a control payload: JSON, or pickle as the degradation rung."""
    try:
        return json.dumps(obj, separators=(",", ":")).encode("utf-8"), 0
    except (TypeError, ValueError):
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        _count("pickle_fallbacks")
        _count("bytes_pickled", len(data))
        return data, FLAG_PICKLED


def decode_payload(data: bytes, flags: int):
    if flags & FLAG_PICKLED:
        return pickle.loads(data)
    return json.loads(data.decode("utf-8"))


# -- span-descriptor column codec ---------------------------------------------

_COLUMN_ORDER = ("keys", "payloads", "starts", "ends")


def pack_columns(
    columns: Tuple[List[Tuple], List[Tuple], List[int], List[int]],
) -> Tuple[List[Dict], bytes]:
    """Pack ``(keys, payloads, starts, ends)`` into spans + one blob.

    The descriptor is a list of
    ``{"column", "offset", "length", "codec"}`` spans into the returned
    blob.  Endpoint columns pack as ``!{n}q``; key/payload columns are
    JSON (lists of lists), falling back to pickle per span.
    """
    keys, payloads, starts, ends = columns
    spans: List[Dict] = []
    parts: List[bytes] = []
    offset = 0
    for name, column in zip(_COLUMN_ORDER, (keys, payloads, starts, ends)):
        if name in ("starts", "ends"):
            data = struct.pack(f"!{len(column)}q", *column)
            codec = "i64"
        else:
            try:
                data = json.dumps(
                    [list(item) for item in column], separators=(",", ":")
                ).encode("utf-8")
                codec = "json"
            except (TypeError, ValueError):
                data = pickle.dumps(list(column), protocol=pickle.HIGHEST_PROTOCOL)
                codec = "pickle"
                _count("pickle_fallbacks")
                _count("bytes_pickled", len(data))
        spans.append(
            {"column": name, "offset": offset, "length": len(data), "codec": codec}
        )
        parts.append(data)
        offset += len(data)
    return spans, b"".join(parts)


def unpack_columns(
    spans: List[Dict], blob: bytes
) -> Tuple[List[Tuple], List[Tuple], List[int], List[int]]:
    """Inverse of :func:`pack_columns` (tuples re-tupled for the model layer)."""
    decoded = {}
    for span in spans:
        data = blob[span["offset"] : span["offset"] + span["length"]]
        codec = span["codec"]
        if codec == "i64":
            decoded[span["column"]] = list(struct.unpack(f"!{len(data) // 8}q", data))
        elif codec == "json":
            decoded[span["column"]] = [tuple(item) for item in json.loads(data)]
        elif codec == "pickle":
            decoded[span["column"]] = [tuple(item) for item in pickle.loads(data)]
        else:
            raise TransportError(f"unknown column codec {codec!r}")
    try:
        return (
            decoded["keys"],
            decoded["payloads"],
            decoded["starts"],
            decoded["ends"],
        )
    except KeyError as missing:
        raise TransportError(f"result descriptor missing column {missing}") from None


def pack_result(meta: Dict, columns=None) -> bytes:
    """A relation-bearing payload: meta JSON + column descriptor + blob."""
    if columns is not None:
        spans, blob = pack_columns(columns)
    else:
        spans, blob = [], b""
    meta_bytes, meta_flags = encode_payload(meta)
    desc_bytes = json.dumps(
        {"spans": spans, "meta_pickled": bool(meta_flags)}, separators=(",", ":")
    ).encode("utf-8")
    return b"".join(
        (
            struct.pack("!II", len(desc_bytes), len(meta_bytes)),
            desc_bytes,
            meta_bytes,
            blob,
        )
    )


def unpack_result(payload: bytes) -> Tuple[Dict, Optional[Tuple]]:
    """Inverse of :func:`pack_result`: ``(meta, columns-or-None)``."""
    if len(payload) < 8:
        raise TransportError("truncated result payload")
    desc_len, meta_len = struct.unpack_from("!II", payload)
    desc_end = 8 + desc_len
    meta_end = desc_end + meta_len
    if meta_end > len(payload):
        raise TransportError("result payload shorter than its descriptor claims")
    descriptor = json.loads(payload[8:desc_end].decode("utf-8"))
    meta = decode_payload(
        payload[desc_end:meta_end],
        FLAG_PICKLED if descriptor.get("meta_pickled") else 0,
    )
    spans = descriptor.get("spans", [])
    if not spans:
        return meta, None
    return meta, unpack_columns(spans, payload[meta_end:])


# -- the channel -------------------------------------------------------------

class Channel:
    """One framed, CRC-checked socket connection to a peer.

    Thread-compatible, not thread-safe: the coordinator serializes access
    per worker with its own lock.  Closing is idempotent and deregisters
    the channel from the leak registry.
    """

    def __init__(self, sock: socket.socket, *, name: str = "shard") -> None:
        self._sock = sock
        self.name = name
        self._closed = False
        with _CHANNEL_LOCK:
            _OPEN_CHANNELS.add(id(self))

    @property
    def closed(self) -> bool:
        return self._closed

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with _CHANNEL_LOCK:
            _OPEN_CHANNELS.discard(id(self))
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- raw frames ----------------------------------------------------------

    def send(self, ftype: int, payload: bytes, *, flags: int = 0) -> None:
        if self._closed:
            raise TransportError(f"channel {self.name} is closed", kind="eof")
        header = _HEADER.pack(
            MAGIC, ftype, flags, 0, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        )
        try:
            self._sock.sendall(header + payload)
        except (OSError, ValueError) as error:
            raise TransportError(
                f"send to {self.name} failed: {error}", kind="eof"
            ) from error
        _count("frames_sent")
        _count("bytes_sent", len(header) + len(payload))

    def recv(self, *, timeout: Optional[float] = None) -> Tuple[int, int, bytes]:
        """Receive one frame: ``(type, flags, payload)``.

        Raises:
            TransportError: EOF (``kind="eof"``), no frame within *timeout*
                (``kind="timeout"``), bad magic (``kind="protocol"``), or a
                CRC mismatch (``kind="crc"``).
        """
        header = self._recv_exact(_HEADER.size, timeout)
        magic, ftype, flags, _reserved, length, crc = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TransportError(
                f"bad frame magic {magic!r} from {self.name}", kind="protocol"
            )
        if length > MAX_PAYLOAD_BYTES:
            raise TransportError(
                f"frame from {self.name} claims {length} payload bytes",
                kind="protocol",
            )
        payload = self._recv_exact(length, timeout) if length else b""
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            _count("crc_failures")
            raise TransportError(
                f"CRC mismatch on {FRAME_NAMES.get(ftype, ftype)} frame "
                f"from {self.name}",
                kind="crc",
            )
        _count("frames_received")
        _count("bytes_received", _HEADER.size + length)
        return ftype, flags, payload

    def _recv_exact(self, n: int, timeout: Optional[float]) -> bytes:
        if self._closed:
            raise TransportError(f"channel {self.name} is closed", kind="eof")
        chunks = []
        remaining = n
        try:
            self._sock.settimeout(timeout)
            while remaining:
                chunk = self._sock.recv(min(remaining, 1 << 20))
                if not chunk:
                    raise TransportError(
                        f"EOF from {self.name} ({n - remaining}/{n} bytes)",
                        kind="eof",
                    )
                chunks.append(chunk)
                remaining -= len(chunk)
        except socket.timeout:
            raise TransportError(
                f"no frame from {self.name} within {timeout}s", kind="timeout"
            ) from None
        except (OSError, ValueError) as error:
            raise TransportError(
                f"recv from {self.name} failed: {error}", kind="eof"
            ) from error
        return b"".join(chunks)

    # -- object frames -------------------------------------------------------

    def send_obj(self, ftype: int, obj) -> None:
        payload, flags = encode_payload(obj)
        self.send(ftype, payload, flags=flags)

    def recv_obj(self, *, timeout: Optional[float] = None) -> Tuple[int, object]:
        ftype, flags, payload = self.recv(timeout=timeout)
        return ftype, decode_payload(payload, flags)
