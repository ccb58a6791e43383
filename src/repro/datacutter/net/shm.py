"""The processes runtime's data plane: a pool of shared-memory slabs.

Filter copies of one run are forks of one parent on one machine, so a
payload need not travel anywhere: the producer writes its ndarray
buffers once into a pooled slab and the pipe carries only a few hundred
bytes of pickled header plus a *descriptor* (slot index + buffer
lengths); the consumer rebuilds the arrays in place over the slab with
``np.frombuffer`` — zero copies on the consume side.  This is the
intra-node pointer hand-off of DataCutter's co-located filters (paper
Sections 4.1 and 5), between processes.

Pool design (a slab allocator with a free list):

* The parent creates ``segments`` fixed-size slabs before forking, each
  an anonymous shared mapping (``mmap.mmap(-1, n)``, i.e.
  ``MAP_SHARED | MAP_ANONYMOUS``); children only ever use the mappings
  they inherit.  A slab therefore has no name, no ``/dev/shm`` entry and
  no size limit set by that mount, and nothing registers it anywhere.
  Pages are committed on first touch, so unused slabs cost address
  space, not RAM.
* Allocation pops a free slab; payloads smaller than ``threshold`` (or
  larger than a slab, or arriving while the pool is exhausted) stay on
  the in-band codec path and are counted, so the pool never blocks and
  never fails a delivery.
* Each slab carries a cross-process *refcount*.  The producer's acquire
  holds one reference for the in-flight delivery; on receive the
  reference is taken over by the rebuilt arrays — every carrier array
  registers a ``weakref.finalize`` that releases the slab when the last
  consumer-side view (including filter-held slices, whose ``base`` chain
  keeps the carrier alive) is garbage collected.  A slab returns to the
  free list only at refcount zero, so recycling can never corrupt a
  payload a filter still holds.
* Cleanup after a crash is the kernel's job: an anonymous mapping lives
  exactly as long as some process maps it.  :meth:`ShmPool.destroy` —
  run unconditionally when the run ends — closes the parent's mappings,
  every child's go with the child however it died, and if the parent is
  killed there is nothing left behind to unlink.

Frame format: the codec's prefix ``flags`` byte gains :data:`FLAG_SHM`.
A shm frame keeps the pickled header and per-buffer lengths in-band but
replaces the raw buffer bytes with a single ``!I`` slot index trailer;
buffers are packed back-to-back in the slab, so offsets follow from the
lengths.  :func:`dumps` / :func:`loads` transparently handle both forms,
which keeps re-delivery and drain-mode rerouting working unchanged.
"""

from __future__ import annotations

import mmap
import struct
import weakref
from typing import Any, List, Optional, Tuple

import numpy as np

from . import codec

__all__ = ["ShmPool", "FLAG_SHM", "dumps", "loads"]

#: Prefix ``flags`` bit: the frame's out-of-band buffers live in a pool
#: slab instead of in the frame itself.
FLAG_SHM = 0x01

_SLOT = struct.Struct("!I")


class ShmPool:
    """Reference-counted pool of fixed-size shared-memory slabs.

    Created by the parent *before* it forks filter-copy processes; all
    bookkeeping (free stack, refcounts, counters) lives in inherited
    shared state, so producers allocate and consumers release without
    any extra IPC.  Its one caller is the processes runtime
    (``runtime_mp``), which maps a pool per run.

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
        # MAP_SHARED | MAP_ANONYMOUS: forked children write the same pages.
        self._segments: List[mmap.mmap] = [
            mmap.mmap(-1, self.segment_bytes) for _ in range(segments)
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
            if self._refs[slot] <= 0:
                # Letting it through would list the slab as free twice
                # and hand it to two producers at once.
                raise ValueError(f"slab {slot} is not leased")
            self._refs[slot] -= 1
            if self._refs[slot] == 0:
                self._free[self._free_top.value] = slot
                self._free_top.value += 1

    def view(self, slot: int, offset: int, nbytes: int) -> memoryview:
        """Writable window into a slab (valid while the pool is alive)."""
        return memoryview(self._segments[slot])[offset : offset + nbytes]

    def carrier(self, slot: int, offset: int, nbytes: int) -> np.ndarray:
        """A uint8 array over slab memory whose death releases one ref.

        Arrays rebuilt over the carrier (and any views derived from
        them) keep it alive through their ``base`` chain, so the slab is
        recycled exactly when the consumer's last reference is gone.
        """
        arr = np.frombuffer(
            self._segments[slot], dtype=np.uint8, count=nbytes, offset=offset
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
        """Close this process's slab mappings (idempotent).

        The MP runtime calls this in a ``finally`` once children are
        reaped — normal completion, ``PipelineError`` aborts, and the
        exitcode-watcher path for silently dead children all funnel
        through it.  There is nothing to unlink: the kernel frees a
        slab's pages when its last mapping goes.
        """
        for seg in self._segments:
            try:
                seg.close()
            except BufferError:
                # A live numpy view pins the mapping; it goes with the
                # view (or the process).
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
    # A shm frame is exactly: prefix, buffer lengths, header, slot.
    lens_end = codec._PREFIX.size + codec._BUFLEN.size * nbufs
    slot_off = lens_end + header_len
    if len(view) != slot_off + _SLOT.size:
        raise codec.CodecError("truncated frame (shm descriptor)")
    (slot,) = _SLOT.unpack_from(view, slot_off)
    if slot >= pool.num_segments:
        raise codec.CodecError(
            f"shm frame names slab {slot} of a {pool.num_segments}-slab pool"
        )
    lens = [
        n for (n,) in codec._BUFLEN.iter_unpack(view[codec._PREFIX.size : lens_end])
    ]
    if not lens or sum(lens) > pool.segment_bytes:
        # The delivery's slab reference dies with the frame that carried it.
        pool.release(slot)
        raise codec.CodecError(
            f"shm frame describes {len(lens)} buffers of {sum(lens)} bytes "
            f"in a {pool.segment_bytes}-byte slab"
        )
    # The delivery's reference is taken over by the first carrier; the
    # remaining carriers each add one, so the slab frees exactly when
    # the last rebuilt array (or derived view) dies.
    pool.add_refs(slot, nbufs - 1)
    buffers = []
    seg_off = 0
    for n in lens:
        buffers.append(pool.carrier(slot, seg_off, n))
        seg_off += n
    return codec.decode(bytes(view[lens_end:slot_off]), buffers)
