"""The RPC wire format: the one codec both engines and both ends share.

Every byte the client and server exchange is written and read here; the
connection and server modules only move frames and charge the engine's
own framing costs.  The same format runs over the sockets engine and
the verbs engine (the paper's transparency argument, Section III-D):

* **request** — ``[call id][Invocation]``;
* **response** — ``[call id][status]`` then the returned
  ``ObjectWritable`` on success, or ``[error class][message]`` UTFs;
* **batch** — ``[BATCH_CALL_ID][count]`` then ``count`` entries of
  ``[length][request or response]``, each entry byte-identical to the
  frame that call would have carried alone (the Ibdxnet-style
  aggregation of PAPERS.md).  A single call is the one-entry case of
  the same decode: :func:`read_head` plus :func:`entries` walk both.

On a socket stream every frame additionally carries a 4-byte length
prefix (:func:`stream_frame`, :func:`stream_batch`); verbs messages are
self-delimiting.  :func:`batch_frame_chunks` and :func:`call_frame_bytes`
are independent byte-level reference encoders for the property tests —
deliberately not built on the codec they check.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Sequence, Tuple

from repro.io.buffered import BufferedOutputStream, VectorSink
from repro.io.data_output import DataOutputStream
from repro.io.writable import ObjectWritable
from repro.rpc.call import Invocation, RpcStatus

#: Reserved call id for connection-keepalive ping frames (Hadoop's
#: ``Client.PING_CALL_ID``); never allocated to a real call.
PING_CALL_ID = -1

#: Reserved call id prefacing a *batched* frame from a multiplexed
#: client (:mod:`repro.rpc.mux`).  A server that has decoded one marks
#: the connection batch-aware and may merge its responses the same way.
BATCH_CALL_ID = -2

#: ``[BATCH_CALL_ID][count]``, ahead of the entries.
BATCH_HEADER_BYTES = 8

_INT = struct.Struct(">i")
_BATCH_HEADER = struct.Struct(">ii")
_STREAM_BATCH_HEADER = struct.Struct(">iii")


# -- writing -----------------------------------------------------------------
def write_call(out, call_id: int, method: str, params) -> None:
    """A request frame body: ``[call id][Invocation]``."""
    out.write_int(call_id)
    Invocation(method, params).write(out)


def write_response(out, call_id: int, status, result, error) -> None:
    """A response frame body; ``error`` is ``(class name, message)``."""
    out.write_int(call_id)
    out.write_byte(int(status))
    if status == RpcStatus.SUCCESS:
        ObjectWritable(result).write(out)
    else:
        out.write_utf(error[0])
        out.write_utf(error[1])


def write_batch(out, entries: Sequence[Tuple[object, int]], put) -> None:
    """``[BATCH_CALL_ID][count]`` then ``[length][payload]`` per entry.

    ``put`` writes one payload's bytes — the engines charge that copy
    differently (a buffered-stream write vs an aggregation-buffer copy).
    """
    out.write_int(BATCH_CALL_ID)
    out.write_int(len(entries))
    for payload, length in entries:
        out.write_int(length)
        put(payload)


def _buffered_stream(ledger):
    sink = VectorSink()
    buffered = BufferedOutputStream(sink, ledger)
    return sink, buffered, DataOutputStream(buffered, ledger)


def stream_frame(ledger, payload, length: int) -> list:
    """Length-prefix one frame through the buffered stream path
    (Listing 1 lines 10-13), charging its copies.

    Returns the frame as a chunk list (gather write): the payload
    travels as a zero-copy view and the transport materializes the
    wire image exactly once.
    """
    sink, buffered, out = _buffered_stream(ledger)
    out.write_int(length)
    buffered.write_bytes(payload)
    out.flush()
    return sink.chunks


def stream_batch(ledger, entries: Sequence[Tuple[object, int]]) -> list:
    """One length-prefixed batch frame of encoded calls, in one flush."""
    sink, buffered, out = _buffered_stream(ledger)
    out.write_int(BATCH_HEADER_BYTES + sum(4 + length for _, length in entries))
    write_batch(out, entries, buffered.write_bytes)
    out.flush()
    return sink.chunks


def stream_batch_header(count: int, body_bytes: int) -> bytes:
    """Length prefix plus batch header for ``count`` already-framed
    stream entries totalling ``body_bytes`` (merged responses: no
    re-encoding, the header rides in the same gather write)."""
    return _STREAM_BATCH_HEADER.pack(
        BATCH_HEADER_BYTES + body_bytes, BATCH_CALL_ID, count
    )


def join_batch(bodies: Sequence[bytes]) -> bytes:
    """A self-delimiting (verbs) batch message of encoded bodies."""
    parts = [_BATCH_HEADER.pack(BATCH_CALL_ID, len(bodies))]
    for body in bodies:
        parts.append(_INT.pack(len(body)))
        parts.append(body)
    return b"".join(parts)


# -- reading -----------------------------------------------------------------
def read_head(inp) -> Tuple[int, int]:
    """A frame's leading word(s): ``(call id, batch count)``.

    The count is 0 for a single-call (or ping) frame; a batch frame
    returns ``BATCH_CALL_ID`` and its entry count.
    """
    call_id = inp.read_int()
    if call_id != BATCH_CALL_ID:
        return call_id, 0
    return call_id, inp.read_int()


def entries(inp, call_id: int, count: int, nbytes: int) -> Iterator[Tuple[int, int]]:
    """Walk a frame's entries lazily: ``(call id, entry bytes)`` each.

    The stream is left at the entry's body, so the consumer decodes it
    before advancing — decode costs stay interleaved with whatever the
    consumer charges per entry.  A single frame is the one-entry case
    (``nbytes`` is then its whole length).
    """
    if not count:
        yield call_id, nbytes
        return
    for _ in range(count):
        nbytes = inp.read_int()
        yield inp.read_int(), nbytes


def read_invocation(inp) -> Invocation:
    invocation = Invocation()
    invocation.read_fields(inp)
    return invocation


def read_responses(inp) -> List[tuple]:
    """Every response of a frame, in order:
    ``(call id, status, value, error class, error message)``."""
    call_id, count = read_head(inp)
    responses = []
    for call_id, _ in entries(inp, call_id, count, 0):
        status = inp.read_byte()
        if status == RpcStatus.SUCCESS:
            responses.append((call_id, status, ObjectWritable.read(inp), "", ""))
        else:
            responses.append((call_id, status, None, inp.read_utf(), inp.read_utf()))
    return responses


# -- reference encoders (tests) ------------------------------------------------
def batch_frame_chunks(payloads) -> List[object]:
    """The batch wire image as a chunk list (pure helper, no costs).

    ``[4-byte total][BATCH_CALL_ID][count]`` then, per call, the exact
    per-call frame (``[4-byte length][payload]``) the call-at-a-time
    path would have sent: the batch body after the 8-byte batch header
    is the *concatenation of the per-call frames* — the property the
    hypothesis suite pins down.
    """
    total = 8 + sum(4 + len(payload) for payload in payloads)
    chunks: List[object] = [
        total.to_bytes(4, "big", signed=True)
        + BATCH_CALL_ID.to_bytes(4, "big", signed=True)
        + len(payloads).to_bytes(4, "big", signed=True)
    ]
    for payload in payloads:
        chunks.append(len(payload).to_bytes(4, "big", signed=True))
        chunks.append(payload)
    return chunks


def call_frame_bytes(payload) -> bytes:
    """The call-at-a-time wire frame for one encoded call payload."""
    return len(payload).to_bytes(4, "big", signed=True) + bytes(payload)
