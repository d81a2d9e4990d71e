"""Wire protocol of the guarantee service: framed JSON over sockets.

Every conversation in the service fabric — worker registration, shard
leases, streamed results, chaos directives, the ``executor="remote"``
client — is one request message answered by one reply message over a
fresh TCP connection.  Messages are JSON objects framed by an 8-byte
header (4-byte big-endian length + 4-byte CRC32 of the payload);
connection-per-request keeps the protocol stateless, so a SIGKILLed
worker leaves nothing half-open on the coordinator side (its silence
is what the lease reaper detects).

The framing is hardened against a byte-flipping or hostile peer: a
length prefix above :data:`MAX_FRAME` raises the typed
:class:`FrameTooLarge` *before* any allocation, and a payload whose
CRC32 does not match its header raises :class:`FrameCorrupted` — a
typed, retryable transport error — instead of handing
``json.loads`` garbage or hanging on a frame that never completes.

Values that cross the wire use *the store's own codec*
(:func:`repro.store.encode_value`): a check result computed on a
remote worker is byte-for-byte the payload a local sweep would bank in
a :class:`~repro.store.ResultStore`, so remote results are
cache-compatible with warm hits — same tagged-JSON encoding, same
versioned salt in the handshake, and a sweep's parameter-dict points
travel as the same tagged JSON.  Objects the store codec refuses
(sweep callables, tuples, containers JSON would mangle) fall back to
base64-pickle, which is fine inside a trusted worker fleet — the
coordinator itself never unpickles anything, it only forwards blobs.

The protocol is versioned (:data:`PROTOCOL_VERSION`) and the handshake
carries the store salt: a worker built from different code, or against
a store with a different cache-key salt, is rejected at registration
instead of silently contributing cache-incompatible results.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
import zlib
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from ..engine.sweep import SweepResult
from ..resilience.validate import ValidationWarning
from ..store import StoreError, decode_value, encode_value

__all__ = [
    "PROTOCOL_VERSION",
    "WireError",
    "FrameTooLarge",
    "FrameCorrupted",
    "RemoteError",
    "ServiceUnavailable",
    "parse_address",
    "frame",
    "send_message",
    "recv_message",
    "request",
    "encode",
    "decode",
    "encode_result",
    "decode_result",
]

#: Bumped on any framing or message-shape change; checked at worker
#: registration so mixed-version fleets fail loudly.  v2 added the
#: per-frame CRC32 checksum and epoch-fenced leases.
PROTOCOL_VERSION = 2

#: 4-byte big-endian payload length + 4-byte CRC32 of the payload.
_HEADER = struct.Struct(">II")

#: Hard cap on one frame (64 MiB) — a corrupt length prefix must not
#: convince the receiver to allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024


class WireError(ConnectionError):
    """A malformed frame, a closed peer, or a protocol violation."""


class FrameTooLarge(WireError):
    """A frame (or a claimed frame length) exceeds :data:`MAX_FRAME`.

    Raised *before* any allocation on the receive side, so a corrupt
    or hostile 4-byte prefix cannot trigger a multi-gigabyte buffer.
    """


class FrameCorrupted(WireError):
    """A frame's payload does not match its CRC32 header.

    A typed, retryable transport error: the connection-per-request
    protocol means the caller can simply reconnect and resend.
    """


class RemoteError(WireError):
    """The peer answered ``{"type": "error"}`` — an application-level
    rejection (unknown job, salt mismatch, ...), *not* a transport
    fault.  Never retried by the client's :class:`RetryPolicy` loop."""


class ServiceUnavailable(ConnectionError):
    """The coordinator stayed unreachable through a whole retry budget.

    The clean, typed surface of repeated ``ConnectionRefusedError`` /
    timeout / corrupt-frame failures — what ``executor="remote"``
    callers and workers see once reconnect attempts are exhausted.
    """


def parse_address(text: "str | Tuple[str, int]") -> Tuple[str, int]:
    """``"HOST:PORT"`` (or an already-split tuple) -> ``(host, port)``."""
    if isinstance(text, tuple):
        host, port = text
        return str(host), int(port)
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise WireError(
            f"expected a coordinator address like HOST:PORT, got {text!r}"
        )
    return host or "127.0.0.1", int(port)


# ----------------------------------------------------------------------
# Framing: (length, CRC32) header + UTF-8 JSON payload.
# ----------------------------------------------------------------------


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise WireError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def frame(message: Dict[str, Any]) -> bytes:
    """One message as raw frame bytes (header + payload).

    Exposed so the fault injector can perturb a *valid* frame —
    flipping payload bytes, truncating it — and prove the receive side
    turns each perturbation into the right typed error.
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise FrameTooLarge(
            f"message of {len(payload)} bytes exceeds MAX_FRAME"
            f" ({MAX_FRAME} bytes)"
        )
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(len(payload), checksum) + payload


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one framed, checksummed JSON message."""
    sock.sendall(frame(message))


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Read one framed JSON message (raises :class:`WireError` on EOF).

    The length cap is checked before any allocation
    (:class:`FrameTooLarge`) and the payload is verified against its
    CRC32 (:class:`FrameCorrupted`), so a byte-flipped or hostile
    frame surfaces as a typed, retryable error — never a giant
    allocation, a JSON parse error, or a hang.
    """
    size, checksum = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if size > MAX_FRAME:
        raise FrameTooLarge(
            f"frame of {size} bytes exceeds MAX_FRAME ({MAX_FRAME} bytes)"
        )
    payload = _recv_exact(sock, size)
    if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
        raise FrameCorrupted(
            f"frame of {size} bytes failed its CRC32 check"
            " (corrupted in transit)"
        )
    return json.loads(payload.decode("utf-8"))


def request(
    address: "str | Tuple[str, int]",
    message: Dict[str, Any],
    *,
    timeout: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """One round trip: connect, send ``message``, return the reply.

    Replies of ``{"type": "error"}`` are raised as :class:`RemoteError`
    — the coordinator's way of rejecting a malformed or stale request.
    Transport failures (refused, reset, corrupt frame) raise their own
    :class:`WireError` / ``OSError`` types, which *are* retryable.
    """
    host, port = parse_address(address)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        send_message(sock, message)
        reply = recv_message(sock)
    if reply.get("type") == "error":
        raise RemoteError(
            reply.get("error", "coordinator rejected the request")
        )
    return reply


# ----------------------------------------------------------------------
# Value encoding: the store codec, with a pickle fallback for callables.
# ----------------------------------------------------------------------


def _json_pure(obj: Any) -> bool:
    """Does ``obj`` survive a JSON round trip *unchanged*?

    JSON would silently coerce tuples to lists and non-string dict keys
    to strings — fatal for the bit-identical merge contract — so raw
    containers only take the store codec when they are purely JSON.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return True
    if isinstance(obj, list):
        return all(_json_pure(item) for item in obj)
    if isinstance(obj, dict):
        return all(
            isinstance(key, str) and _json_pure(value)
            for key, value in obj.items()
        )
    return False


def encode(obj: Any) -> Dict[str, Any]:
    """JSON-able envelope of any python object.

    Store-codec first (tagged JSON, bit-exact floats, cache-compatible
    result dataclasses), base64-pickle for everything else — sweep
    callables, tuples, containers JSON would mangle.
    """
    if not isinstance(obj, (dict, list)) or _json_pure(obj):
        try:
            return {"enc": "store", "data": encode_value(obj)}
        except StoreError:
            pass
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return {"enc": "pickle", "data": base64.b64encode(blob).decode("ascii")}


def decode(envelope: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode`."""
    kind = envelope.get("enc")
    if kind == "store":
        return decode_value(envelope["data"])
    if kind == "pickle":
        return pickle.loads(base64.b64decode(envelope["data"]))
    raise WireError(f"unknown wire encoding {kind!r}")


def encode_result(result: SweepResult) -> Dict[str, Any]:
    """One :class:`~repro.engine.SweepResult`, field by field.

    ``value`` and ``point`` go through :func:`encode` (store codec when
    possible); validation warnings flatten to dicts and are rebuilt on
    decode, so a result streamed back from a worker compares equal to
    one computed in-process.
    """
    return {
        "point": encode(result.point),
        "value": encode(result.value),
        "seconds": result.seconds,
        "error": result.error,
        "cached": result.cached,
        "label": result.label,
        "attempts": result.attempts,
        "traceback": result.traceback,
        "warnings": [asdict(w) for w in result.warnings],
    }


def decode_result(payload: Dict[str, Any]) -> SweepResult:
    """Inverse of :func:`encode_result`."""
    return SweepResult(
        point=decode(payload["point"]),
        value=decode(payload["value"]),
        seconds=payload["seconds"],
        error=payload["error"],
        cached=payload["cached"],
        label=payload["label"],
        attempts=payload["attempts"],
        traceback=payload["traceback"],
        warnings=tuple(
            ValidationWarning(**w) for w in payload.get("warnings", ())
        ),
    )
