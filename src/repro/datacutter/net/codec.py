"""Wire codec: length-prefixed frames with zero-copy numpy payloads.

Every message crossing a distributed stream is one *frame*::

    !4sBII            magic  flags  nbufs  header_len
    nbufs * !Q        raw-buffer lengths
    header_len bytes  pickled message header (protocol 5)
    raw buffers       ndarray memory, sent as-is

The header is pickled with protocol 5 and a ``buffer_callback``: numpy
arrays anywhere inside the message are reduced to out-of-band
:class:`pickle.PickleBuffer` views of their own memory, so the pickle
stream carries only a few bytes of metadata per array and the array
bytes go straight from the array to the socket (``sendall`` on a
``memoryview`` — no intermediate serialization copy).  On receive, each
raw buffer lands in its own preallocated ``bytearray`` and the arrays
are rebuilt with ``np.frombuffer`` over it — again no copy, and the
backing store is writable.

Copies are observable: an array that *cannot* travel zero-copy (it is
non-contiguous, an ndarray subclass, or has object dtype) triggers the
module's array-copy hook.  Tests install a raising hook via
:func:`forbid_array_copies` to assert the no-pickle-of-ndarray
guarantee over a whole pipeline run.

The codec is transport-agnostic: :func:`send_message` /
:func:`recv_message` frame over a socket; :func:`dumps` / :func:`loads`
pack one frame into a single contiguous buffer for byte channels that
cannot scatter/gather (the multiprocessing runtime's pipes).

Trust note: frames embed pickle.  Only connect agents and heads that
already trust each other (the runtime's handshake token gates accidental
cross-talk, not adversaries) — the same trust model as DataCutter's
cluster-internal streams.
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CodecError",
    "ConnectionClosed",
    "Frame",
    "PROTOCOL_VERSION",
    "Hello",
    "make_hello",
    "parse_hello",
    "encode",
    "decode",
    "dumps",
    "loads",
    "pack_frame",
    "send_message",
    "recv_message",
    "set_array_copy_hook",
    "forbid_array_copies",
]

_MAGIC = b"DCW1"
_PREFIX = struct.Struct("!4sBII")  # magic, flags, nbufs, header_len
_BUFLEN = struct.Struct("!Q")

#: Refuse frames whose declared sizes are absurd (corrupt/foreign peer).
MAX_HEADER_BYTES = 64 * 1024 * 1024
MAX_BUFFER_BYTES = 16 * 1024 * 1024 * 1024
MAX_BUFFERS = 4096


#: Version of the head/agent control protocol spoken over this codec.
#: Version 3 is a fixed frame set: head to agent ``setup``, ``buf``,
#: ``scredit``, ``close`` and ``stop``; agent to head ``hello``, ``hb``,
#: ``send``, ``ack``, ``nack``, ``done``, ``copy_failed`` and
#: ``deposit``.  Version 2 also had the ``drain`` and ``detach`` frames
#: of a live-leave handshake, which a version-3 agent would not know.
#: The head refuses agents announcing a different version, so a stale
#: build fails the handshake instead of dying on an unknown frame.
PROTOCOL_VERSION = 3


class CodecError(RuntimeError):
    """Malformed frame, or a forbidden in-band array serialization."""


class ConnectionClosed(ConnectionError):
    """Peer closed the connection.

    ``clean`` is True when the close fell on a frame boundary (orderly
    shutdown) and False when it cut a frame short (peer died mid-send).
    """

    def __init__(self, message: str, clean: bool):
        super().__init__(message)
        self.clean = clean


# ---------------------------------------------------------------------------
# Handshake frames

@dataclass(frozen=True)
class Hello:
    """A parsed agent handshake frame.

    ``index`` is the agent's slot in the head's connection table, which
    is fixed when the run starts: one slot per host.
    """

    index: int
    token: str
    pid: int
    version: int


def make_hello(index: int, token: str, pid: int) -> Tuple:
    """The handshake frame an agent sends immediately after connecting."""
    return ("hello", index, token, pid, PROTOCOL_VERSION)


def parse_hello(msg: Any) -> Optional[Hello]:
    """Parse a handshake frame; ``None`` if the frame is no hello at all.

    Version-1 agents sent a 4-tuple without the version field; they
    parse as ``version=1`` so the head can reject them with an accurate
    reason instead of treating them as strangers.
    """
    if not (isinstance(msg, tuple) and len(msg) in (4, 5) and msg[0] == "hello"):
        return None
    if not (isinstance(msg[1], int) and isinstance(msg[2], str)):
        return None
    version = msg[4] if len(msg) == 5 else 1
    if not isinstance(version, int):
        return None
    return Hello(index=msg[1], token=msg[2], pid=msg[3], version=version)


# ---------------------------------------------------------------------------
# Array-copy observability

_array_copy_hook: Optional[Callable[[Any, str], None]] = None
_hook_lock = threading.Lock()


def set_array_copy_hook(hook: Optional[Callable[[Any, str], None]]) -> None:
    """Install a callback fired whenever an array cannot go zero-copy.

    The hook receives ``(array, reason)``.  Pass ``None`` to uninstall.
    """
    global _array_copy_hook
    with _hook_lock:
        _array_copy_hook = hook


class forbid_array_copies:
    """Context manager: any in-band / copied array serialization raises.

    The test hook behind the zero-copy guarantee: run a whole pipeline
    under it and every ndarray that would be pickled in-band (or copied
    to become contiguous) turns into a hard :class:`CodecError`.
    Installed module-globally, so forked agent processes inherit it.
    """

    def __enter__(self) -> "forbid_array_copies":
        def _raise(arr: Any, reason: str) -> None:
            raise CodecError(
                f"array serialization copy forbidden: {reason} "
                f"(shape={getattr(arr, 'shape', None)}, "
                f"dtype={getattr(arr, 'dtype', None)})"
            )

        self._prev = _array_copy_hook
        set_array_copy_hook(_raise)
        return self

    def __exit__(self, *exc: Any) -> None:
        set_array_copy_hook(self._prev)


def _fire_copy_hook(arr: Any, reason: str) -> None:
    hook = _array_copy_hook
    if hook is not None:
        hook(arr, reason)


# ---------------------------------------------------------------------------
# Pickling with out-of-band ndarrays


def _rebuild_ndarray(
    buf: Any, dtype: np.dtype, shape: Tuple[int, ...], order: str
) -> np.ndarray:
    arr = np.frombuffer(buf, dtype=dtype)
    return arr.reshape(shape, order=order)


class _Pickler(pickle.Pickler):
    """Protocol-5 pickler that forces ndarrays out-of-band.

    Exact ``np.ndarray`` instances with a non-object dtype reduce to a
    :class:`pickle.PickleBuffer` over their own memory (no copy) plus a
    tiny ``(dtype, shape, order)`` header.  Everything else falls back
    to the default machinery; ndarray subclasses and object arrays fire
    the array-copy hook because their bytes end up inside the pickle
    stream.
    """

    def reducer_override(self, obj: Any):  # noqa: ANN001 - pickle API
        if isinstance(obj, np.ndarray):
            if type(obj) is not np.ndarray:
                _fire_copy_hook(obj, f"ndarray subclass {type(obj).__name__}")
                return NotImplemented
            if obj.dtype.hasobject:
                _fire_copy_hook(obj, "object dtype")
                return NotImplemented
            if obj.flags.c_contiguous:
                a, order = obj, "C"
            elif obj.flags.f_contiguous:
                a, order = obj, "F"
            else:
                _fire_copy_hook(obj, "non-contiguous array")
                a, order = np.ascontiguousarray(obj), "C"
            return (
                _rebuild_ndarray,
                (pickle.PickleBuffer(a), a.dtype, a.shape, order),
            )
        return NotImplemented


class Frame:
    """One encoded message: pickled header + raw out-of-band buffers."""

    __slots__ = ("header", "buffers")

    def __init__(self, header: bytes, buffers: List[memoryview]):
        self.header = header
        self.buffers = buffers

    @property
    def header_bytes(self) -> int:
        return len(self.header)

    @property
    def payload_bytes(self) -> int:
        """Raw (out-of-band) bytes — the zero-copy part of the frame."""
        return sum(b.nbytes for b in self.buffers)

    @property
    def wire_bytes(self) -> int:
        """Total bytes this frame occupies on the wire."""
        return (
            _PREFIX.size
            + _BUFLEN.size * len(self.buffers)
            + len(self.header)
            + self.payload_bytes
        )


def encode(obj: Any) -> Frame:
    """Encode one message; array memory is referenced, not copied."""
    out = io.BytesIO()
    raws: List[memoryview] = []

    def _collect(pb: pickle.PickleBuffer) -> None:
        # raw() flattens to 1-d bytes without copying; it accepts both
        # C- and Fortran-contiguous sources.
        raws.append(pb.raw())

    _Pickler(out, protocol=5, buffer_callback=_collect).dump(obj)
    if len(raws) > MAX_BUFFERS:
        raise CodecError(f"message has {len(raws)} buffers (max {MAX_BUFFERS})")
    return Frame(out.getvalue(), raws)


def decode(header: bytes, buffers: Sequence[Any]) -> Any:
    """Inverse of :func:`encode`; buffers may be any buffer objects."""
    return pickle.loads(header, buffers=list(buffers))


# ---------------------------------------------------------------------------
# Socket framing


def send_message(sock: socket.socket, obj: Any) -> int:
    """Frame and send one message; returns the bytes put on the wire.

    Not locked: the runtimes funnel all writes of one connection through
    a single writer thread, which also keeps frames from interleaving.
    """
    frame = encode(obj)
    head = bytearray(_PREFIX.size + _BUFLEN.size * len(frame.buffers))
    _PREFIX.pack_into(head, 0, _MAGIC, 0, len(frame.buffers), len(frame.header))
    off = _PREFIX.size
    for b in frame.buffers:
        _BUFLEN.pack_into(head, off, b.nbytes)
        off += _BUFLEN.size
    sock.sendall(head)
    sock.sendall(frame.header)
    for b in frame.buffers:
        # memoryview straight from the array's memory: the only copy is
        # the kernel's, into the socket buffer.
        sock.sendall(b)
    return len(head) + len(frame.header) + frame.payload_bytes


def _recv_exact(sock: socket.socket, n: int, at_boundary: bool) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:], n - got)
        if k == 0:
            raise ConnectionClosed(
                "connection closed"
                + ("" if at_boundary and got == 0 else " mid-frame"),
                clean=at_boundary and got == 0,
            )
        got += k
    return buf


def recv_message(sock: socket.socket) -> Any:
    """Receive and decode one frame; raises :class:`ConnectionClosed`."""
    head = _recv_exact(sock, _PREFIX.size, at_boundary=True)
    magic, _flags, nbufs, header_len = _PREFIX.unpack(bytes(head))
    if magic != _MAGIC:
        raise CodecError(f"bad frame magic {bytes(magic)!r}")
    if nbufs > MAX_BUFFERS or header_len > MAX_HEADER_BYTES:
        raise CodecError(f"frame too large: nbufs={nbufs} header={header_len}")
    lens = []
    if nbufs:
        raw = _recv_exact(sock, _BUFLEN.size * nbufs, at_boundary=False)
        for i in range(nbufs):
            (n,) = _BUFLEN.unpack_from(raw, i * _BUFLEN.size)
            if n > MAX_BUFFER_BYTES:
                raise CodecError(f"buffer {i} too large: {n} bytes")
            lens.append(n)
    header = _recv_exact(sock, header_len, at_boundary=False)
    # Each buffer lands in its own writable bytearray: np.frombuffer over
    # it rebuilds the array in place, zero-copy and mutable.
    buffers = [_recv_exact(sock, n, at_boundary=False) for n in lens]
    return decode(bytes(header), buffers)


# ---------------------------------------------------------------------------
# Single-buffer framing (pipes, files, in-memory tests)


def dumps(obj: Any) -> bytes:
    """Pack one frame into a single contiguous buffer.

    For byte channels that cannot scatter/gather (multiprocessing
    pipes).  Array memory is copied exactly once, straight into the
    output frame — never into an intermediate pickle stream.
    """
    return pack_frame(encode(obj))


def pack_frame(frame: Frame) -> bytes:
    """Pack an already-encoded :class:`Frame` (see :func:`dumps`).

    Split out so the shared-memory transport can reuse the in-band
    layout for its sub-threshold / fallback path without re-encoding.
    """
    nbufs = len(frame.buffers)
    total = frame.wire_bytes
    out = bytearray(total)
    _PREFIX.pack_into(out, 0, _MAGIC, 0, nbufs, len(frame.header))
    off = _PREFIX.size
    for b in frame.buffers:
        _BUFLEN.pack_into(out, off, b.nbytes)
        off += _BUFLEN.size
    out[off : off + len(frame.header)] = frame.header
    off += len(frame.header)
    view = memoryview(out)
    for b in frame.buffers:
        view[off : off + b.nbytes] = b
        off += b.nbytes
    return bytes(out)


def loads(data: Any) -> Any:
    """Decode a frame produced by :func:`dumps`.

    Rebuilt arrays are zero-copy views into ``data``; pass a writable
    buffer (``bytearray``) if consumers mutate payload arrays in place.
    """
    view = memoryview(data)
    if len(view) < _PREFIX.size:
        raise CodecError("truncated frame (no prefix)")
    magic, flags, nbufs, header_len = _PREFIX.unpack_from(view, 0)
    if magic != _MAGIC:
        raise CodecError(f"bad frame magic {bytes(magic)!r}")
    if flags:
        # Out-of-band transports (the shm pool) set flag bits; their
        # frames carry descriptors, not buffer bytes, and must be
        # decoded by the transport that knows where the bytes live.
        raise CodecError(
            f"frame flags 0x{flags:02x} need a transport-aware decoder "
            "(repro.datacutter.net.shm.loads)"
        )
    if nbufs > MAX_BUFFERS or header_len > MAX_HEADER_BYTES:
        raise CodecError(f"frame too large: nbufs={nbufs} header={header_len}")
    off = _PREFIX.size
    lens = []
    for i in range(nbufs):
        (n,) = _BUFLEN.unpack_from(view, off)
        lens.append(n)
        off += _BUFLEN.size
    header = bytes(view[off : off + header_len])
    if len(header) != header_len:
        raise CodecError("truncated frame (header)")
    off += header_len
    buffers = []
    for n in lens:
        b = view[off : off + n]
        if b.nbytes != n:
            raise CodecError("truncated frame (buffer)")
        buffers.append(b)
        off += n
    return decode(header, buffers)
