"""Zero-copy shared-memory transport for same-host runtimes.

The multiprocessing runtime frames every buffer with the wire codec and
pushes the whole frame — payload included — through an OS pipe, so a
chunk crossing an edge is copied three times (into the frame, into the
pipe, out of the pipe) even though producer and consumer share the
machine.  This module turns that into a pointer handoff: ndarray
payloads are written once into a pooled ``multiprocessing.shared_memory``
segment and the pipe carries only a few hundred bytes of header plus a
*shm descriptor* (slot index + buffer lengths); the consumer maps the
segment and rebuilds the arrays in place with ``np.frombuffer`` — zero
copies on the consume side.

Pool design (a slab allocator with a free list):

* The parent creates ``segments`` fixed-size shared-memory slabs before
  forking; children inherit the mappings, so no per-child attach (and no
  resource-tracker double registration) ever happens.  tmpfs commits
  pages lazily, so unused slabs cost address space, not RAM.
* Allocation pops a free slab; payloads smaller than ``threshold`` (or
  larger than a slab, or arriving while the pool is exhausted) fall back
  to the in-band codec path and are counted, so the transport degrades
  gracefully instead of ever blocking or failing.
* Each slab carries a cross-process *refcount*.  The producer's acquire
  holds one reference for the in-flight delivery; on receive the
  reference is taken over by the rebuilt arrays — every carrier array
  registers a ``weakref.finalize`` that releases the slab when the last
  consumer-side view (including filter-held slices, whose ``base`` chain
  keeps the carrier alive) is garbage collected.  A slab returns to the
  free list only at refcount zero, so recycling can never corrupt a
  payload a filter still holds.
* Crash cleanup is parent-side: segments are registered with the
  ``multiprocessing`` resource tracker exactly once (at creation), and
  :meth:`ShmPool.destroy` — run unconditionally when the run ends,
  including the abort path the exitcode watcher triggers for silently
  dead children — closes and unlinks every slab.  If the parent itself
  is killed, the resource tracker unlinks the registered segments at
  exit, so ``/dev/shm`` is clean after crashes either way.

Frame format: the codec's prefix ``flags`` byte gains :data:`FLAG_SHM`.
A shm frame keeps the pickled header and per-buffer lengths in-band but
replaces the raw buffer bytes with a single ``!I`` slot index trailer;
buffers are packed back-to-back in the slab, so offsets follow from the
lengths.  :func:`dumps` / :func:`loads` transparently handle both forms,
which keeps re-delivery and drain-mode rerouting working unchanged.
"""

from __future__ import annotations

import secrets
import struct
import weakref
from multiprocessing import shared_memory
from typing import Any, List, Optional, Tuple

import numpy as np

from . import codec

__all__ = ["ShmPool", "FLAG_SHM", "dumps", "loads"]

#: Prefix ``flags`` bit: the frame's out-of-band buffers live in a pool
#: slab instead of in the frame itself.
FLAG_SHM = 0x01

_SLOT = struct.Struct("!I")

#: Shared-memory segment name prefix; the leak gate (``tests/conftest.py``)
#: globs ``/dev/shm`` for it when a test session ends.
NAME_PREFIX = "reproshm"


class ShmPool:
    """Reference-counted pool of fixed-size shared-memory slabs.

    Created by the parent *before* it forks filter-copy processes; all
    bookkeeping (free stack, refcounts, counters) lives in inherited
    shared state, so producers allocate and consumers release without
    any extra IPC.

    Parameters
    ----------
    ctx:
        A ``fork`` multiprocessing context (supplies the shared state).
    segments:
        Number of slabs on the free list.
    segment_bytes:
        Size of each slab; payloads larger than this fall back in-band.
    threshold:
        Payloads strictly smaller than this stay on the in-band codec
        path — tiny buffers are cheaper to copy than to lease a slab.
    """

    def __init__(
        self,
        ctx,
        segments: int = 32,
        segment_bytes: int = 32 << 20,
        threshold: int = 64 << 10,
    ):
        if segments < 1:
            raise ValueError("need at least one segment")
        if segment_bytes < max(threshold, 1):
            raise ValueError(
                f"segment_bytes ({segment_bytes}) must be >= threshold "
                f"({threshold})"
            )
        self.segment_bytes = int(segment_bytes)
        self.threshold = int(threshold)
        self.uid = f"{NAME_PREFIX}_{secrets.token_hex(4)}"
        self._segments: List[shared_memory.SharedMemory] = [
            shared_memory.SharedMemory(
                create=True, name=f"{self.uid}_{i}", size=self.segment_bytes
            )
            for i in range(segments)
        ]
        # Reentrant: a weakref.finalize release can fire from a GC pass
        # triggered while this process already holds the pool lock.
        self._lock = ctx.RLock()
        self._refs = ctx.Array("l", [0] * segments, lock=False)
        free = list(range(segments))
        self._free = ctx.Array("l", free, lock=False)
        self._free_top = ctx.Value("l", segments, lock=False)
        self._hits = ctx.Value("l", 0, lock=False)
        self._fallbacks = ctx.Value("l", 0, lock=False)
        self._fallback_bytes = ctx.Value("l", 0, lock=False)
        self._peak_in_use = ctx.Value("l", 0, lock=False)
        self._destroyed = False

    # -- allocation --------------------------------------------------------

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def acquire(self, nbytes: int) -> Optional[int]:
        """Lease a slab for ``nbytes`` of payload (refcount := 1).

        Returns ``None`` — caller must use the in-band path — when the
        payload is under the threshold, over the slab size, or the free
        list is empty (never blocks: backpressure belongs to the stream
        queues, not the pool).  Only the latter two count as fallbacks;
        sub-threshold payloads are the intended inline path.
        """
        if nbytes < self.threshold:
            return None
        if nbytes > self.segment_bytes:
            with self._lock:
                self._fallbacks.value += 1
                self._fallback_bytes.value += nbytes
            return None
        with self._lock:
            if self._free_top.value == 0:
                self._fallbacks.value += 1
                self._fallback_bytes.value += nbytes
                return None
            self._free_top.value -= 1
            slot = self._free[self._free_top.value]
            self._refs[slot] = 1
            self._hits.value += 1
            in_use = self.num_segments - self._free_top.value
            if in_use > self._peak_in_use.value:
                self._peak_in_use.value = in_use
        return slot

    def add_refs(self, slot: int, n: int) -> None:
        if n <= 0:
            return
        with self._lock:
            self._refs[slot] += n

    def release(self, slot: int) -> None:
        """Drop one reference; at zero the slab rejoins the free list."""
        with self._lock:
            self._refs[slot] -= 1
            if self._refs[slot] == 0:
                self._free[self._free_top.value] = slot
                self._free_top.value += 1

    def view(self, slot: int, offset: int, nbytes: int) -> memoryview:
        """Writable window into a slab (valid while the pool is alive)."""
        return self._segments[slot].buf[offset : offset + nbytes]

    def carrier(self, slot: int, offset: int, nbytes: int) -> np.ndarray:
        """A uint8 array over slab memory whose death releases one ref.

        Arrays rebuilt over the carrier (and any views derived from
        them) keep it alive through their ``base`` chain, so the slab is
        recycled exactly when the consumer's last reference is gone.
        """
        arr = np.frombuffer(
            self._segments[slot].buf, dtype=np.uint8, count=nbytes, offset=offset
        )
        weakref.finalize(arr, self.release, slot)
        return arr

    # -- lifecycle ---------------------------------------------------------

    def stats(self) -> dict:
        """Occupancy / hit-rate snapshot for the observability layer."""
        with self._lock:
            in_use = self.num_segments - self._free_top.value
            hits = self._hits.value
            fallbacks = self._fallbacks.value
            return {
                "segments": self.num_segments,
                "segment_bytes": self.segment_bytes,
                "threshold": self.threshold,
                "in_use": in_use,
                "peak_in_use": self._peak_in_use.value,
                "hits": hits,
                "fallbacks": fallbacks,
                "fallback_bytes": self._fallback_bytes.value,
                "hit_rate": hits / (hits + fallbacks) if hits + fallbacks else 0.0,
            }

    def destroy(self) -> None:
        """Close and unlink every slab (parent-side, idempotent).

        The MP runtime calls this in a ``finally`` once children are
        reaped — normal completion, ``PipelineError`` aborts, and the
        exitcode-watcher path for silently dead children all funnel
        through it, so no segment outlives its run.
        """
        if self._destroyed:
            return
        self._destroyed = True
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:
                # A live numpy view pins the mapping; unlink still works
                # and the map goes away with the process.
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass


# ---------------------------------------------------------------------------
# Framing


def dumps(obj: Any, pool: Optional[ShmPool]) -> Tuple[bytes, int, int]:
    """Frame one message, placing large payloads into the pool.

    Returns ``(frame, wire_bytes, shm_bytes)``: ``wire_bytes`` is what
    actually crosses the pipe (``len(frame)``), ``shm_bytes`` the
    payload bytes handed over through shared memory (0 on the in-band
    path).  With ``pool=None`` this is exactly :func:`codec.dumps`.
    """
    if pool is None:
        data = codec.dumps(obj)
        return data, len(data), 0
    frame = codec.encode(obj)
    payload = frame.payload_bytes
    slot = pool.acquire(payload) if frame.buffers else None
    if slot is None:
        data = codec.pack_frame(frame)
        return data, len(data), 0
    off = 0
    for b in frame.buffers:
        # The transport's single copy: array memory -> slab.  The
        # consumer side maps the slab and copies nothing.
        pool.view(slot, off, b.nbytes)[:] = b
        off += b.nbytes
    nbufs = len(frame.buffers)
    head = bytearray(
        codec._PREFIX.size + codec._BUFLEN.size * nbufs + len(frame.header)
        + _SLOT.size
    )
    codec._PREFIX.pack_into(
        head, 0, codec._MAGIC, FLAG_SHM, nbufs, len(frame.header)
    )
    pos = codec._PREFIX.size
    for b in frame.buffers:
        codec._BUFLEN.pack_into(head, pos, b.nbytes)
        pos += codec._BUFLEN.size
    head[pos : pos + len(frame.header)] = frame.header
    pos += len(frame.header)
    _SLOT.pack_into(head, pos, slot)
    data = bytes(head)
    return data, len(data), payload


def loads(data: Any, pool: Optional[ShmPool]) -> Any:
    """Decode a frame from :func:`dumps` — either form.

    Shm frames rebuild their arrays zero-copy over the slab through
    refcount-carrying carrier arrays (see :meth:`ShmPool.carrier`); the
    slab is released when the consumer drops its last view.
    """
    view = memoryview(data)
    if len(view) < codec._PREFIX.size:
        raise codec.CodecError("truncated frame (no prefix)")
    magic, flags, nbufs, header_len = codec._PREFIX.unpack_from(view, 0)
    if magic != codec._MAGIC:
        raise codec.CodecError(f"bad frame magic {bytes(magic)!r}")
    if not flags & FLAG_SHM:
        return codec.loads(data)
    if pool is None:
        raise codec.CodecError("shm frame received without a pool")
    if nbufs > codec.MAX_BUFFERS or header_len > codec.MAX_HEADER_BYTES:
        raise codec.CodecError(
            f"frame too large: nbufs={nbufs} header={header_len}"
        )
    off = codec._PREFIX.size
    lens = []
    for _ in range(nbufs):
        (n,) = codec._BUFLEN.unpack_from(view, off)
        lens.append(n)
        off += codec._BUFLEN.size
    header = bytes(view[off : off + header_len])
    if len(header) != header_len:
        raise codec.CodecError("truncated frame (header)")
    off += header_len
    (slot,) = _SLOT.unpack_from(view, off)
    # The delivery's reference is taken over by the first carrier; the
    # remaining carriers each add one, so the slab frees exactly when
    # the last rebuilt array (or derived view) dies.
    pool.add_refs(slot, nbufs - 1)
    buffers = []
    seg_off = 0
    for n in lens:
        buffers.append(pool.carrier(slot, seg_off, n))
        seg_off += n
    return codec.decode(header, buffers)
