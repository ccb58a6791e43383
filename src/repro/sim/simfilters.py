"""Simulated filter-copy processes and the stream router.

Each filter copy is a DES generator process following the same loop as
the real runtime — receive, compute (holding the node's CPU), send
(holding network resources) — with service times from the
:class:`~repro.sim.costmodel.CostModel` instead of real kernels.  The
router's per-copy counters, live set, round-robin pick and fatal
verdicts are the routing core the real runtimes use
(:class:`~repro.datacutter.routing.EdgeRouter`).  Its flow control is
its own, in simulated time: demand-driven is a consumer-pull credit
FIFO (a copy re-requests after each buffer it consumes), not the real
runtimes' fewest-unconsumed rule, and ``prefer_local`` and the sender
window have no real counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..datacutter.routing import EdgeRouter
from .costmodel import CostModel
from .events import Environment, Store
from .network import NetworkModel
from .nodes import SimNode
from .workload import SimWorkload

__all__ = ["SimBuffer", "SimRouter", "SimCopy", "FILTER_PROCS"]

_EOS = "__eos__"


@dataclass
class SimBuffer:
    """A simulated message: kind, wire size, and routing metadata."""

    kind: str
    nbytes: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SimCopy:
    """One running copy of a filter in the simulation."""

    filter_name: str
    copy_index: int
    node: SimNode
    store: Store
    busy: float = 0.0  # service time: compute/IO incl. CPU-share waits (Fig. 9 metric)
    events: Optional[List] = None  # (t0, t1, kind) spans when tracing

    @property
    def key(self):
        return (self.filter_name, self.copy_index)

    def record(self, t0: float, t1: float, kind: str) -> None:
        """Account one service span (and trace it when enabled)."""
        self.busy += t1 - t0
        if self.events is not None:
            self.events.append((t0, t1, kind))


class SimRouter:
    """Routes buffers of one stream to the consumer filter's copies."""

    def __init__(
        self,
        env: Environment,
        network: NetworkModel,
        stream: str,
        policy_name: str,
        consumers: List[SimCopy],
        num_producer_copies: int,
        queue_cap: int = 2,
        sender_window: int = 8 * 1024 * 1024,
        prefer_local: bool = False,
    ):
        self.env = env
        self.network = network
        self.stream = stream
        self.policy_name = policy_name
        self.consumers = consumers
        self.router = EdgeRouter(
            policy_name, len(consumers), num_producer_copies, stream,
            consumers[0].filter_name,
        )
        self.num_producer_copies = num_producer_copies
        self.queue_cap = queue_cap
        self.sender_window = sender_window
        self.prefer_local = prefer_local
        self.bytes_sent = 0
        self.rerouted = 0  # buffers re-delivered after a node failure
        self._inflight: Dict[str, int] = {}
        self._demand_waiters: List = []
        # Demand-driven is consumer-pull: a FIFO of requests, one credit
        # per free queue slot.  A fast consumer re-requests often and so
        # receives buffers in proportion to its consumption rate — the
        # DataCutter scheduler's "buffer consumption rate" criterion.
        self._demand_fifo: List[int] = [
            i for _ in range(queue_cap) for i in range(len(consumers))
        ]

    @property
    def buffers_sent(self) -> int:
        return self.router.sent()

    def _wait_for_demand(self) -> Generator:
        event = self.env.event()
        self._demand_waiters.append(event)
        yield event

    def _notify_demand(self) -> None:
        waiters, self._demand_waiters = self._demand_waiters, []
        for w in waiters:
            w.succeed()

    def send(
        self, src: SimNode, buffer: SimBuffer, dest_copy: Optional[int] = None
    ) -> Generator:
        """Generator: schedule one buffer for delivery.

        Flow control, as in DataCutter:

        * transparent streams apply *consumer* backpressure — a producer
          holds the buffer until the target copy has queue room; the
          demand-driven scheduler hands buffers to consumers in the order
          they request them (consumption rate), round-robin commits to
          its turn and waits for that copy;
        * a *sender window* bounds the bytes one producer node may have
          in flight on this stream (its TCP socket buffers): a sender
          whose path is congested blocks, which is exactly what lets the
          demand-driven scheduler route around slow paths (Fig. 11);
        * on streams configured with ``prefer_local`` (HCC -> HPC), a
          consumer copy co-located with the producer is preferred
          unconditionally — co-location exists to turn this stream into
          pointer copies (Fig. 8 "Overlap", Section 5.2).

        Delivery itself is asynchronous: the filter keeps computing while
        transfers contend on network resources in FIFO order.
        """
        if self.router.rule is None:
            if dest_copy is None:
                raise RuntimeError(f"stream {self.stream!r} requires dest_copy")
            # A failed destination is fatal (the core's verdict).
            idx = self.router.pick(dest_copy)
        elif dest_copy is not None:
            raise RuntimeError(f"stream {self.stream!r} is not explicit")
        else:
            idx = self._local_consumer(src) if self.prefer_local else None
            if self.policy_name == "demand_driven":
                if idx is None:
                    idx = yield from self._pop_demand()
                else:
                    while idx not in self._demand_fifo:
                        yield from self._wait_for_demand()
                    self._demand_fifo.remove(idx)
            else:
                if idx is None:
                    idx = self.router.pick()
                while self.router.queued[idx] >= self.queue_cap:
                    yield from self._wait_for_demand()
        consumer = self.consumers[idx]
        # Sender window: wait until this node's in-flight bytes drop.
        if consumer.node.name != src.name:
            while self._inflight.get(src.name, 0) >= self.sender_window:
                yield from self._wait_for_demand()
            self._inflight[src.name] = self._inflight.get(src.name, 0) + buffer.nbytes
        self.router.claim(idx)
        self.bytes_sent += buffer.nbytes
        self.env.process(self._deliver(src, consumer, buffer))

    def _pop_demand(self) -> Generator:
        """Next demand credit from a surviving copy (failed credits die)."""
        while True:
            while not self._demand_fifo:
                self.router.survivors()  # none left is fatal
                yield from self._wait_for_demand()
            idx = self._demand_fifo.pop(0)
            if not self.router.dead[idx]:
                return idx

    def _local_consumer(self, src: SimNode) -> Optional[int]:
        """Index of a consumer copy co-located with the producer, if any."""
        for i, c in enumerate(self.consumers):
            if c.node.name == src.name and not self.router.dead[i]:
                return i
        return None

    def _deliver(self, src: SimNode, consumer: SimCopy, buffer: SimBuffer) -> Generator:
        yield from self.network.transfer(
            src, consumer.node, buffer.nbytes, tag=self.stream
        )
        if buffer.kind != _EOS and consumer.node.name != src.name:
            self._inflight[src.name] -= buffer.nbytes
            self._notify_demand()
        if buffer.kind != _EOS and self.router.dead[consumer.copy_index]:
            # Arrived after the node failed: re-deliver to a survivor.
            # (EOS markers still land so the EOS protocol is untouched.)
            self._unsend(consumer.copy_index, buffer)
            self.rerouted += 1
            yield from self.send(consumer.node, buffer)
            return
        consumer.store.put(buffer)

    def _unsend(self, idx: int, buffer: SimBuffer) -> None:
        """Undo the send-side accounting of an undelivered buffer."""
        self.router.unclaim(idx)
        self.bytes_sent -= buffer.nbytes

    def on_node_failed(self, node: SimNode) -> None:
        """A node failed: reroute everything queued for its copies.

        Already-queued data buffers are pulled out of the failed copies'
        stores and re-sent to surviving copies (the failed node pays the
        re-transfer, approximating the surviving producer's resend); EOS
        markers stay so the failed copy's process still terminates
        cleanly.  Future demand credits from failed copies are discarded
        in :meth:`_pop_demand`.
        """
        for copy in self.consumers:
            if copy.node.name != node.name:
                continue
            self.router.mark_dead(copy.copy_index)
            stranded = [b for b in copy.store.items if b.kind != _EOS]
            if not stranded:
                continue
            copy.store.items = [b for b in copy.store.items if b.kind == _EOS]
            for buffer in stranded:
                self._unsend(copy.copy_index, buffer)
                self.rerouted += 1
                self.env.process(self.send(copy.node, buffer))

    def recv(self, copy: SimCopy) -> Generator:
        """Generator: pop the next buffer for a consumer copy."""
        buffer = yield copy.store.get()
        if buffer.kind != _EOS:
            self.router.consume(copy.copy_index)
            if self.policy_name == "demand_driven":
                self._demand_fifo.append(copy.copy_index)
            self._notify_demand()
        return buffer

    def broadcast_eos(self, src: SimNode) -> None:
        """One producer copy finished: notify every consumer copy.

        The marker travels the same network path as data (zero bytes), so
        FIFO port ordering guarantees it arrives after every buffer this
        producer already handed to the runtime.
        """
        for consumer in self.consumers:
            self.env.process(self._deliver(src, consumer, SimBuffer(kind=_EOS)))


def rfr_proc(
    env: Environment,
    copy: SimCopy,
    workload: SimWorkload,
    costs: CostModel,
    out_router: SimRouter,
) -> Generator:
    """RFR: read local slices, send each to the IIC copies needing it."""
    dests_by_slice = workload.rfr_slice_destinations(len(out_router.consumers))
    for key in workload.slices_on_node(copy.copy_index):
        dests = dests_by_slice.get(key, ())
        if not dests:
            continue
        # Whole-slice sequential read from local disk (no seeks).
        t0 = env.now
        yield env.timeout(costs.read_slice_time(workload.slice_bytes))
        copy.record(t0, env.now, "read")
        buf_bytes = workload.slice_bytes
        for dest in dests:
            buffer = SimBuffer(kind="slice", nbytes=buf_bytes, meta={"slice": key})
            yield from out_router.send(copy.node, buffer, dest_copy=dest)
    out_router.broadcast_eos(copy.node)


def iic_proc(
    env: Environment,
    copy: SimCopy,
    workload: SimWorkload,
    costs: CostModel,
    in_router: SimRouter,
    out_router: SimRouter,
) -> Generator:
    """IIC: collect slice portions, emit complete texture chunks."""
    my_chunks = workload.iic_chunks_of_copy(copy.copy_index, len(in_router.consumers))
    needs = {li: workload.chunk_iic_needs[li] for li in my_chunks}
    # Which chunks each slice contributes to, restricted to this copy.
    contributes: Dict[tuple, List[int]] = {}
    for li in my_chunks:
        for key in workload.chunk_planes(workload.chunks[li]):
            contributes.setdefault(key, []).append(li)
    remaining_eos = in_router.num_producer_copies
    while remaining_eos:
        buffer = yield from in_router.recv(copy)
        if buffer.kind == _EOS:
            remaining_eos -= 1
            continue
        key = buffer.meta["slice"]
        for li in contributes.get(key, ()):
            chunk = workload.chunks[li]
            # Copy/reorganize the chunk's in-plane region of this slice.
            plane_bytes = chunk.shape[0] * chunk.shape[1] * workload.bytes_per_pixel
            t0 = env.now
            yield from copy.node.cpu.use(
                copy.node.compute_time(costs.stitch_time(plane_bytes, planes=1))
            )
            copy.record(t0, env.now, "stitch")
            needs[li] -= 1
            if needs[li] == 0:
                out = SimBuffer(
                    kind="chunk",
                    nbytes=workload.chunk_bytes(chunk),
                    meta={"chunk": li},
                )
                yield from out_router.send(copy.node, out)
    if any(v != 0 for v in needs.values()):
        raise RuntimeError(f"IIC copy {copy.copy_index}: incomplete chunks {needs}")
    out_router.broadcast_eos(copy.node)


def _texture_proc(
    env: Environment,
    copy: SimCopy,
    workload: SimWorkload,
    costs: CostModel,
    in_router: SimRouter,
    out_router: SimRouter,
    per_roi_cost: float,
    out_kind: str,
    out_bytes_fn,
) -> Generator:
    """Shared HMP/HCC loop: per chunk, compute + flush packets."""
    remaining_eos = in_router.num_producer_copies
    while remaining_eos:
        buffer = yield from in_router.recv(copy)
        if buffer.kind == _EOS:
            remaining_eos -= 1
            continue
        li = buffer.meta["chunk"]
        chunk = workload.chunks[li]
        for rois in workload.packets_per_chunk(chunk):
            t0 = env.now
            yield from copy.node.cpu.use(
                copy.node.compute_time(per_roi_cost * rois)
            )
            copy.record(t0, env.now, "compute")
            out = SimBuffer(
                kind=out_kind,
                nbytes=out_bytes_fn(rois),
                meta={"chunk": li, "rois": rois},
            )
            yield from out_router.send(copy.node, out)
    out_router.broadcast_eos(copy.node)


def hmp_proc(env, copy, workload, costs, in_router, out_router, sparse):
    return _texture_proc(
        env,
        copy,
        workload,
        costs,
        in_router,
        out_router,
        per_roi_cost=costs.hmp_per_roi(sparse),
        out_kind="features",
        out_bytes_fn=lambda rois: costs.feature_wire_bytes(
            rois, workload.num_features
        ),
    )


def hcc_proc(env, copy, workload, costs, in_router, out_router, sparse):
    return _texture_proc(
        env,
        copy,
        workload,
        costs,
        in_router,
        out_router,
        per_roi_cost=costs.hcc_per_roi(sparse),
        out_kind="matrices",
        out_bytes_fn=lambda rois: costs.matrix_wire_bytes(
            rois, workload.levels, sparse
        ),
    )


def hpc_proc(
    env: Environment,
    copy: SimCopy,
    workload: SimWorkload,
    costs: CostModel,
    in_router: SimRouter,
    out_router: SimRouter,
    sparse: bool,
) -> Generator:
    """HPC: parameters from each arriving matrix packet."""
    per_roi = costs.hpc_per_roi(sparse)
    remaining_eos = in_router.num_producer_copies
    while remaining_eos:
        buffer = yield from in_router.recv(copy)
        if buffer.kind == _EOS:
            remaining_eos -= 1
            continue
        rois = buffer.meta["rois"]
        t0 = env.now
        yield from copy.node.cpu.use(copy.node.compute_time(per_roi * rois))
        copy.record(t0, env.now, "compute")
        out = SimBuffer(
            kind="features",
            nbytes=costs.feature_wire_bytes(rois, workload.num_features),
            meta=dict(buffer.meta),
        )
        yield from out_router.send(copy.node, out)
    out_router.broadcast_eos(copy.node)


def uso_proc(
    env: Environment,
    copy: SimCopy,
    workload: SimWorkload,
    costs: CostModel,
    in_router: SimRouter,
) -> Generator:
    """USO: write each feature portion to local disk."""
    remaining_eos = in_router.num_producer_copies
    while remaining_eos:
        buffer = yield from in_router.recv(copy)
        if buffer.kind == _EOS:
            remaining_eos -= 1
            continue
        t0 = env.now
        yield env.timeout(costs.write_time(buffer.nbytes))
        copy.record(t0, env.now, "write")


FILTER_PROCS = {
    "RFR": rfr_proc,
    "IIC": iic_proc,
    "HMP": hmp_proc,
    "HCC": hcc_proc,
    "HPC": hpc_proc,
    "USO": uso_proc,
}


def tex_source_proc(
    env: Environment,
    copy: SimCopy,
    workload: SimWorkload,
    costs: CostModel,
    out_router: SimRouter,
    per_roi_cost: float,
    out_kind: str,
    out_bytes_fn,
    num_tex_copies: int,
) -> Generator:
    """Texture filter over a *replicated* dataset (paper footnote 1).

    When the dataset is small enough to be "replicated on all of the
    nodes and read into memory as a whole in order to eliminate the need
    for the IIC filter", each texture copy reads its share of the chunks
    straight from local disk — no RFR, no IIC, no input network traffic.
    Chunks are assigned round-robin by linear index.
    """
    for li, chunk in enumerate(workload.chunks):
        if li % num_tex_copies != copy.copy_index:
            continue
        t0 = env.now
        yield env.timeout(costs.read_slice_time(workload.chunk_bytes(chunk)))
        copy.record(t0, env.now, "read")
        for rois in workload.packets_per_chunk(chunk):
            t0 = env.now
            yield from copy.node.cpu.use(
                copy.node.compute_time(per_roi_cost * rois)
            )
            copy.record(t0, env.now, "compute")
            out = SimBuffer(
                kind=out_kind,
                nbytes=out_bytes_fn(rois),
                meta={"chunk": li, "rois": rois},
            )
            yield from out_router.send(copy.node, out)
    out_router.broadcast_eos(copy.node)


def hmp_source_proc(env, copy, workload, costs, out_router, sparse, num_tex):
    return tex_source_proc(
        env, copy, workload, costs, out_router,
        per_roi_cost=costs.hmp_per_roi(sparse),
        out_kind="features",
        out_bytes_fn=lambda rois: costs.feature_wire_bytes(rois, workload.num_features),
        num_tex_copies=num_tex,
    )


def hcc_source_proc(env, copy, workload, costs, out_router, sparse, num_tex):
    return tex_source_proc(
        env, copy, workload, costs, out_router,
        per_roi_cost=costs.hcc_per_roi(sparse),
        out_kind="matrices",
        out_bytes_fn=lambda rois: costs.matrix_wire_bytes(rois, workload.levels, sparse),
        num_tex_copies=num_tex,
    )
