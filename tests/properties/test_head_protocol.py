"""Stateful check of the distributed head's router, without sockets.

The head (:class:`~repro.datacutter.net.DistRuntime`) routes every
buffer of a run: a pending deque per edge, a credit window per consumer
copy and a sequence-numbered in-flight table around the routing core.
Hypothesis drives the real head's handlers — ``_route``, ``_on_ack``,
``_on_nack``, ``_on_done``, ``_on_copy_failed``, ``_on_agent_gone`` —
the way agents would, under random copy and agent failures, and reads
what the head queues for each agent (``_AgentConn.out_q``).  It checks:

* every routed buffer ends acked, rerouted, or in a fatal run, and a
  run the faults leave recoverable always completes;
* no ``buf`` follows a ``close`` on the same edge, and a ``close`` is
  only sent once nothing is pending or in flight on its edge;
* credits are conserved: ``_outstanding`` equals the in-flight entries
  per copy and never exceeds ``max_queue``, a buffer stays pending only
  while its copy has no credit, and each buffer returns its producer
  exactly one send-window slot (``scredit``).
"""

from collections import Counter, defaultdict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.datacutter.buffers import DataBuffer
from repro.datacutter.faults import CopyFailure
from repro.datacutter.filter import Filter
from repro.datacutter.graph import FilterGraph
from repro.datacutter.net import DistRuntime

COPIES = {"P": 2, "D": 3, "C": 1}
#: (consumer filter, stream) -> edge label.  C has two input edges, so
#: an ack on one must pump the other: the credit is per consumer copy.
LABEL = {("D", "out"): "P:out", ("C", "out"): "D:out", ("C", "side"): "P:side"}
MAX_QUEUE = 1
pick = st.integers(0, 1 << 16)


def head(policy):
    g = FilterGraph()
    for name, n in COPIES.items():
        g.add_filter(name, Filter, copies=n)
    g.connect("P", "out", "D", policy=policy)
    g.connect("P", "side", "C")
    g.connect("D", "out", "C")
    # Default placement on three agents: P and C on agent 0 (a loss
    # there is fatal), D[0] and D[2] on agent 1, D[1] on agent 2.
    rt = DistRuntime(g, hosts=["127.0.0.1"] * 3, max_queue=MAX_QUEUE)
    rt._reset()
    return rt


class HeadProtocol(RuleBasedStateMachine):
    @initialize(policy=st.sampled_from(["round_robin", "demand_driven", "explicit"]))
    def build(self, policy):
        self.policy = policy
        self.rt = head(policy)
        self.next_id = 0
        self.routed = defaultdict(set)  # edge label -> buffer ids
        self.acked = defaultdict(set)
        self.delivered = {}  # seq -> (dst, copy, label, id) awaiting ack
        self.stale = []  # seqs of deliveries the head moved elsewhere
        self.closed = set()  # edge labels whose close was seen
        self.closes = Counter()  # (dst, copy, label)
        self.scredits = Counter()  # producer copy -> grants seen
        self.dispatched = defaultdict(set)  # producer copy -> ids sent on

    # -- helpers ---------------------------------------------------------

    def over(self):
        return self.rt._done_event.is_set()

    def running(self, f, c):
        return self.rt._status[(f, c)] == "running"

    def survivable(self):
        """Faults start once buffers flow, and spare one D copy: losing
        every one is the core's verdict (``test_edge_protocol``), and a
        run that dies at once would leave the rest of the walk idle."""
        return self.next_id >= 2 and sum(
            self.running("D", c) for c in range(COPIES["D"])
        ) >= 2

    def drain(self):
        """Read everything the head queued for the agents."""
        rt = self.rt
        for conn in rt._conns:
            while not conn.out_q.empty():
                msg, _ = conn.out_q.get_nowait()
                kind = msg[0]
                if kind == "buf":
                    _, dst, copy, stream, seq, buf = msg
                    label = LABEL[(dst, stream)]
                    src, src_copy, ident = buf.payload
                    assert not conn.dead, "buf queued for a dead agent"
                    assert self.running(dst, copy), "buf for a finished copy"
                    assert rt._agent_of[(dst, copy)] == conn.index
                    assert label not in self.closed, f"buf after close on {label}"
                    self.delivered[seq] = (dst, copy, label, ident)
                    self.dispatched[(src, src_copy)].add(ident)
                elif kind == "scredit":
                    _, src, src_copy, _stream = msg
                    assert rt._agent_of[(src, src_copy)] == conn.index
                    self.scredits[(src, src_copy)] += 1
                else:
                    assert kind == "close", msg
                    _, dst, copy, stream = msg
                    label = LABEL[(dst, stream)]
                    es = rt._edges[tuple(label.split(":"))]
                    assert not es.pending, f"close on {label} with buffers pending"
                    assert all(e is not es for e, _ in rt._inflight.values()), (
                        f"close on {label} with buffers in flight"
                    )
                    self.closed.add(label)
                    self.closes[(dst, copy, label)] += 1
                    assert self.closes[(dst, copy, label)] == 1, "second close"

    def send(self, src, src_copy, stream="out", dest=None):
        ident = self.next_id
        self.next_id += 1
        self.routed[f"{src}:{stream}"].add(ident)
        buf = DataBuffer(payload=(src, src_copy, ident), size_bytes=8)
        self.rt._route(src, src_copy, stream, dest, buf)

    def live_deliveries(self):
        return sorted(
            seq for seq, (dst, copy, _, _) in self.delivered.items()
            if self.running(dst, copy)
        )

    def process(self, seq):
        """The consumer copy processes one delivery: D forwards, then acks."""
        dst, copy, label, ident = self.delivered.pop(seq)
        if dst == "D":
            self.send("D", copy)
        self.rt._on_ack(seq)
        self.acked[label].add(ident)

    def finished_consumers(self):
        """Running consumer copies closed on every input, nothing left."""
        busy = {(dst, copy) for dst, copy, _, _ in self.delivered.values()}
        return [
            (f, c)
            for f in ("D", "C")
            for c in range(COPIES[f])
            if self.running(f, c)
            and (f, c) not in busy
            and all(
                self.closes[(f, c, label)]
                for (dst, _), label in LABEL.items() if dst == f
            )
        ]

    def failed_over(self, victims):
        """Deliveries to failed copies become stale: the head reroutes
        them, and an ack that still comes in for one must be ignored."""
        for seq, (dst, copy, _, _) in list(self.delivered.items()):
            if (dst, copy) in victims:
                del self.delivered[seq]
                self.stale.append(seq)

    # -- agents' frames --------------------------------------------------

    @rule(
        p=st.integers(0, 1),
        dests=st.lists(st.integers(0, 2), min_size=1, max_size=3),
        side=st.booleans(),
    )
    def producer_sends(self, p, dests, side):
        for dest in dests:
            if self.over() or not self.running("P", p):
                break
            if side:
                self.send("P", p, "side")
            else:
                self.send("P", p, dest=dest if self.policy == "explicit" else None)
            self.drain()

    @rule(picks=st.lists(pick, min_size=1, max_size=3))
    def consumer_acks(self, picks):
        for i in picks:
            seqs = self.live_deliveries()
            if not seqs or self.over():
                break
            self.process(seqs[i % len(seqs)])
            self.drain()

    @rule(i=pick)
    def connection_drops(self, i):
        seqs = self.live_deliveries()
        if seqs and not self.over():
            seq = seqs[i % len(seqs)]
            del self.delivered[seq]
            self.rt._on_nack(seq)
        self.drain()

    @rule(i=pick)
    def late_ack(self, i):
        if self.stale and not self.over():
            inflight = dict(self.rt._inflight)
            outstanding = dict(self.rt._outstanding)
            self.rt._on_ack(self.stale[i % len(self.stale)])
            assert self.rt._inflight == inflight
            assert self.rt._outstanding == outstanding
        self.drain()

    @precondition(lambda self: self.next_id >= 2)
    @rule(p=st.integers(0, 1))
    def producer_done(self, p):
        if not self.over() and self.running("P", p):
            self.rt._on_done("P", p, 0.0, 0)
        self.drain()

    @rule(i=pick)
    def consumer_done(self, i):
        ready = self.finished_consumers()
        if ready and not self.over():
            self.rt._on_done(*ready[i % len(ready)], 0.0, 0)
        self.drain()

    @precondition(lambda self: self.survivable())
    @rule(victim=st.sampled_from([("D", 0), ("D", 1), ("D", 2), ("C", 0)]))
    def copy_fails(self, victim):
        # Mostly a D copy; losing the single C copy is fatal at once.
        if not self.over() and self.running(*victim):
            self.failed_over({victim})
            self.rt._on_copy_failed(
                CopyFailure(*victim, "injected", kind="exception"), 0.0, 0
            )
        self.drain()

    @precondition(lambda self: self.survivable())
    @rule(a=st.integers(1, 2))
    def agent_dies(self, a):
        conn = self.rt._conns[a]
        spared = any(
            self.running("D", c) and self.rt._agent_of[("D", c)] != a
            for c in range(COPIES["D"])
        )
        if not self.over() and not conn.dead and spared:
            self.failed_over(
                {key for key, agent in self.rt._agent_of.items() if agent == a}
            )
            self.rt._on_agent_gone(conn, "injected")
        self.drain()

    def teardown(self):
        """Play the run out with no more faults: it must complete."""
        if not hasattr(self, "rt"):
            return
        for _ in range(500):
            if self.over():
                break
            for p in range(COPIES["P"]):
                if self.running("P", p):
                    self.rt._on_done("P", p, 0.0, 0)
                    self.drain()
            seqs = self.live_deliveries()
            for seq in seqs:
                if not self.over():
                    self.process(seq)
                    self.drain()
            ready = self.finished_consumers()
            for f, c in ready:
                if not self.over():
                    self.rt._on_done(f, c, 0.0, 0)
                    self.drain()
            if not seqs and not ready:
                break
        assert self.over(), "a recoverable run did not complete"

    # -- what must hold after every step ---------------------------------

    @invariant()
    def credits_conserved(self):
        if not hasattr(self, "rt"):
            return
        rt = self.rt
        inflight = Counter((es.edge.dst, p.target) for es, p in rt._inflight.values())
        for key, n in rt._outstanding.items():
            assert n == inflight[key], f"{key}: {n} credits out, {inflight[key]} in flight"
            assert 0 <= n <= MAX_QUEUE
        for producer, ids in self.dispatched.items():
            grants = self.scredits[producer]
            if rt._conn_of(*producer).dead:
                assert grants <= len(ids)
            else:
                assert grants == len(ids), f"{producer}: {grants} grants, {len(ids)} sent"

    @invariant()
    def every_buffer_accounted(self):
        if not hasattr(self, "rt") or self.rt._fatal:
            return
        rt = self.rt
        # The head's in-flight table is exactly the deliveries agents
        # hold; the core's claims are exactly the pending plus in-flight.
        assert set(rt._inflight) == set(self.delivered)
        for es in rt._edges.values():
            held = len(es.pending) + sum(e is es for e, _ in rt._inflight.values())
            assert sum(es.router.queued) == held
            # Dispatch is work-conserving: a buffer waits only for credit.
            for p in es.pending:
                assert rt._outstanding[(es.edge.dst, p.target)] == MAX_QUEUE
            # A run that is not fatal keeps a live copy on every edge
            # that can still carry a buffer.
            assert es.router.drained() or es.router.live(), es.key
        if self.over():
            for label in LABEL.values():
                assert self.acked[label] == self.routed[label], label
            assert not rt._inflight


TestHeadProtocol = HeadProtocol.TestCase
TestHeadProtocol.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
