"""The wire protocol: length-prefixed JSON frames over a byte stream.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object with a ``type`` field.
The format is deliberately boring -- any language with sockets and JSON
can speak it -- and bounded: a peer announcing a frame larger than
``max_frame_bytes`` is cut off before a single payload byte is read, so
a malicious or broken client cannot balloon server memory.  Results
stream back in bounded row batches (``batch`` frames) for the same
reason: a billion-row result never materializes as one frame.

Request types (client -> server)::

    hello      {version, client?}               -- must be first
    query      {qid, sql, params?, timeout_ms?, explain?, trace?,
                collect_stats?, partial?, query_id?, approx?}
    prepare    {sql}
    execute    {qid, stmt, params?, timeout_ms?, trace?,
                collect_stats?, partial?, query_id?, approx?}
    cancel     {qid, reason?}
    close_stmt {stmt}
    close      {}
    debug      {what, n?, outcome?}
    register_partition {table, seq, last, columns,
                        schema?, dtypes?}       -- schema/dtypes on seq 0

Response types (server -> client)::

    hello         {version, server, session, batch_rows, feedback}
    result_header {qid, names, dtypes}
    batch         {qid, rows}                   -- row-major, <= batch_rows
    done          {qid, rows, elapsed_ms, query_id?, approx?, stats?, trace?}
    explain       {qid, text}
    prepared      {stmt, params}
    closed        {stmt}
    debug         {what, data}
    registered    {table, seq, complete, rows?}
    error         {qid?, error: {code, message, query_id?, ...}}
    bye           {}

Every response to an in-flight statement carries its ``qid`` so a
client can multiplex several queries over one connection; errors embed
the :mod:`repro.errors` wire form (see :func:`repro.errors.error_to_wire`)
and the reference client rebuilds the typed exception.

``trace`` on a query/execute request is an optional dict ``{trace_id,
client_send_ts?}``: the server adopts the client's trace context, runs
the query traced, and the ``done`` frame carries back the serialized
span tree (:func:`repro.obs.span_to_wire`) plus the server-minted
``query_id``, so the client can stitch one client->wire->server span
tree.  Both fields are backward-compatible: old clients omit ``trace``
(nothing is traced), old servers ignore it (the client still gets its
result, just without the server tree).  ``debug`` requests one of the
engine's live-introspection snapshots (``queries`` / ``flight`` /
``plans`` / ``governor`` / ``metrics`` -- the same payloads the HTTP
sidecar serves under ``/debug/*``).

The shard-coordinator extensions stay within the same frame grammar:
``collect_stats`` asks the server to attach the execution counters
(:meth:`repro.xcution.stats.ExecutionStats.as_dict`) to the ``done``
frame, ``partial`` runs the query in shard-worker mode (decoded group
keys + raw partial aggregates, no finalization -- see
:mod:`repro.xcution.finalize`), and ``query_id`` overrides the
server-minted correlation id so one id spans the coordinator and every
shard's flight entry.  ``register_partition`` uploads one table slice
as a chunk sequence (bounded by the frame limit like everything else);
``schema`` is the persisted-catalog attribute form
(:func:`repro.storage.persist.attribute_to_dict`) and ``dtypes`` maps
column names to ``np.dtype.str`` tags so the receiver rebuilds
byte-identical columns.

``approx`` on a query/execute request selects the approximate-query
policy for that statement (``"never"`` / ``"allow"`` / ``"force"``, or
booleans -- see :mod:`repro.approx`); when the server ran the query on
samples the ``done`` frame carries the ``approx`` metadata block
(fraction, samples, mode, per-column error bars at 95% confidence) and
the reference client re-attaches it as ``result.approx``.  Both sides
stay backward-compatible: old clients never send ``approx``, old
servers ignore it.
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO, Dict, Optional

from .. import errors as _errors
from ..errors import ReproError, error_to_wire

#: protocol version spoken by this module (bumped on breaking changes).
PROTOCOL_VERSION = 1

#: hard ceiling on a single frame, requests and responses alike.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: default rows per ``batch`` frame (servers may lower, never raise,
#: what the client asks for).
DEFAULT_BATCH_ROWS = 1024

_LENGTH = struct.Struct("!I")


class ProtocolError(ReproError):
    """The byte stream violated the framing or message contract."""


# register the wire code here rather than in repro.errors: the error
# taxonomy stays dependency-free while protocol violations still cross
# the wire as a typed code instead of "internal"
_errors._CODE_BY_CLASS[ProtocolError] = "protocol"
_errors._CLASS_BY_CODE["protocol"] = ProtocolError


def write_frame(stream: BinaryIO, message: Dict, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
    """Serialize ``message`` as one frame onto ``stream`` and flush."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame_bytes:
        raise ProtocolError(
            f"outgoing frame of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame limit"
        )
    stream.write(_LENGTH.pack(len(payload)) + payload)
    stream.flush()


def _read_exact(stream: BinaryIO, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if remaining == n:
                return None  # clean EOF between frames
            raise ProtocolError(
                f"truncated frame: peer closed after {n - remaining} of {n} bytes"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO, max_frame_bytes: int = MAX_FRAME_BYTES) -> Optional[Dict]:
    """Read one frame; returns the decoded dict, or None on clean EOF.

    Raises :class:`ProtocolError` on a truncated prefix or payload, an
    announced length beyond ``max_frame_bytes``, payload bytes that are
    not a JSON object, or an object without a string ``type`` field.
    """
    prefix = _read_exact(stream, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > max_frame_bytes:
        raise ProtocolError(
            f"incoming frame announces {length} bytes, over the "
            f"{max_frame_bytes}-byte frame limit"
        )
    payload = _read_exact(stream, length) if length else b""
    if payload is None:  # pragma: no cover -- only reachable for length 0 EOF
        payload = b""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame payload: {exc}") from exc
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("frame payload must be an object with a string 'type'")
    return message


def error_frame(exc: BaseException, qid: Optional[int] = None) -> Dict:
    """The ``error`` response frame for ``exc`` (optionally query-tagged)."""
    frame: Dict = {"type": "error", "error": error_to_wire(exc)}
    if qid is not None:
        frame["qid"] = qid
    return frame
