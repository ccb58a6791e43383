"""Fault tolerance and fault injection for the filter-stream runtimes.

The paper's DataCutter deployment runs filter copies as independent
executables on cluster nodes, where crashed copies, stragglers and
degraded links are routine.  This module provides the shared vocabulary
both real runtimes (:class:`~repro.datacutter.runtime_local.LocalRuntime`,
:class:`~repro.datacutter.runtime_mp.MPRuntime`) use to survive them:

* :class:`RetryPolicy` — how many times a failed ``process()`` call is
  retried on the same copy (with exponential backoff) and whether, once
  a copy is given up on, its buffers are *rerouted* to a surviving
  transparent copy (at-least-once delivery; the stitching filters
  deduplicate re-delivered chunks by position).
* :class:`CopyFailure` / :class:`PipelineError` — structured per-copy
  failure records; a run that cannot be recovered raises
  :class:`PipelineError` carrying every record instead of deadlocking.
* :class:`FaultPlan` — a declarative, seeded fault-injection harness:
  crash copy *k* after *n* buffers, fail ``process()`` with probability
  *p*, delay or drop buffers.  Installable on all real runtimes (the
  simulator has its own plan in :mod:`repro.sim.faults`).
* Connection-level faults (:class:`CrashAgent`, :class:`DelayConnection`,
  :class:`DropDeliveries`) target a whole worker agent of the
  distributed runtime (:mod:`repro.datacutter.net`): kill the agent
  process outright, delay its inbound deliveries, or drop them (the
  head re-delivers — at-least-once at the transport).  They are
  rejected by the single-host runtimes, which have no connections.

Example::

    plan = (FaultPlan(seed=7)
            .crash_copy("HCC", copy_index=1, after_buffers=3)
            .fail_process("HMP", probability=0.05))
    result = LocalRuntime(graph, faults=plan, retry=RetryPolicy()).run()
    result.failed_copies   # -> [CopyFailure(HCC[1], ...)]
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

__all__ = [
    "RetryPolicy",
    "NO_RETRY",
    "CopyFailure",
    "PipelineError",
    "InjectedFault",
    "InjectedDrop",
    "InjectedCrash",
    "CrashCopy",
    "FailProcess",
    "DelayBuffers",
    "DropBuffers",
    "CrashAgent",
    "DelayConnection",
    "DropDeliveries",
    "FaultPlan",
    "CopyInjector",
    "ConnectionInjector",
    "NULL_INJECTOR",
    "NULL_CONNECTION_INJECTOR",
]


# ---------------------------------------------------------------------------
# Retry semantics


@dataclass(frozen=True)
class RetryPolicy:
    """How the runtimes respond to a failing ``process()`` call.

    A buffer whose ``process()`` raises is retried on the same copy up to
    ``max_attempts`` times total, sleeping ``backoff * backoff_factor**k``
    between attempts.  If the copy still fails it is declared dead; with
    ``reroute`` enabled (and the stream transparent, with at least one
    surviving copy) the in-hand buffer and everything still queued for
    the dead copy are re-delivered to survivors — at-least-once delivery,
    made idempotent by position-keyed dedup in the stitching filters.
    """

    max_attempts: int = 3
    backoff: float = 0.01
    backoff_factor: float = 2.0
    reroute: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def delay(self, attempt: int) -> float:
        """Sleep before retry number ``attempt + 1`` (attempts are 1-based)."""
        return self.backoff * self.backoff_factor ** (attempt - 1)


#: Fail fast: one attempt, no rerouting — any copy failure aborts the run.
NO_RETRY = RetryPolicy(max_attempts=1, reroute=False)


# ---------------------------------------------------------------------------
# Failure records


@dataclass
class CopyFailure:
    """One filter copy's failure, as reported by a runtime.

    ``kind`` is ``"exception"`` (process/generate/finalize raised),
    ``"crash"`` (copy declared dead, e.g. injected crash),
    ``"exitcode"`` (MP child died without a control message), or
    ``"timeout"``.  ``recovered`` is True when the copy's pending work
    was successfully rerouted to surviving copies.
    """

    filter_name: str
    copy_index: int
    error: str
    kind: str = "exception"
    exitcode: Optional[int] = None
    injected: bool = False
    recovered: bool = False

    def describe(self) -> str:
        extra = f", exitcode={self.exitcode}" if self.exitcode is not None else ""
        return (
            f"{self.filter_name}[{self.copy_index}] ({self.kind}{extra}): "
            f"{self.error}"
        )


class PipelineError(RuntimeError):
    """A pipeline run failed; carries every copy's failure record."""

    def __init__(self, failures: List[CopyFailure], message: Optional[str] = None):
        self.failures = list(failures)
        if message is None:
            message = f"{len(self.failures)} filter copies failed"
            if self.failures:
                message += "; first: " + self.failures[0].describe()
        super().__init__(message)

    def failed_filters(self) -> List[str]:
        return sorted({f.filter_name for f in self.failures})


# ---------------------------------------------------------------------------
# Injected exceptions


class InjectedFault(RuntimeError):
    """A transient injected ``process()`` failure (retryable)."""


class InjectedDrop(InjectedFault):
    """An injected lost delivery; the retry layer re-delivers the buffer."""


class InjectedCrash(RuntimeError):
    """A fatal injected copy crash (the copy never recovers)."""

    def __init__(self, message: str, hard: bool = False):
        super().__init__(message)
        #: MP runtime only: kill the child process outright (no control
        #: message, no EOS) so the parent's exitcode watcher must detect it.
        self.hard = hard


# ---------------------------------------------------------------------------
# The retry loop (shared by the threads, processes and distributed runtimes)


class _Aborted(BaseException):
    """Internal unwind signal raised inside copy workers when the run aborts."""


class _CopyDied(Exception):
    """A copy exhausted its retries (or was crashed by injection)."""

    def __init__(self, cause: BaseException, injected: bool):
        super().__init__(str(cause))
        self.cause = cause
        self.injected = injected


def _process_with_retry(
    filt,
    stream: str,
    buffer,
    ctx,
    injector,
    retry: RetryPolicy,
    abort_wait: Callable[[float], bool],
    count_retry: Callable[[], None],
    hard_exit: Optional[int] = None,
) -> float:
    """Run ``process()`` with injection + retry; returns busy seconds.

    ``abort_wait(timeout)`` is the runtime's shared abort wait (true when
    the run aborted): the backoff sleeps the whole delay in one wait the
    abort interrupts immediately.  ``count_retry`` bumps the runtime's
    retry counter.  ``hard_exit`` is the status a hard injected crash
    kills the whole process with (no cleanup, no goodbye — the parent's
    death detection must catch it); ``None`` where a copy is a thread and
    cannot die alone.  Raises :class:`_CopyDied` when the copy must be
    given up on.
    """
    attempt = 1
    while True:
        try:
            injector.before_process(buffer, attempt)
            t0 = time.perf_counter()
            filt.process(stream, buffer, ctx)
            dt = time.perf_counter() - t0
            injector.after_process(buffer)
            return dt
        except InjectedCrash as exc:
            if exc.hard and hard_exit is not None:
                os._exit(hard_exit)
            raise _CopyDied(exc, injected=True) from exc
        except _Aborted:
            raise
        except BaseException as exc:  # noqa: BLE001 - retried or reported
            if attempt >= retry.max_attempts:
                raise _CopyDied(exc, injected=isinstance(exc, InjectedFault))
            count_retry()
            ctx.event("fault.retry", attempt=attempt, error=repr(exc))
            if abort_wait(retry.delay(attempt)):
                raise _Aborted()
            attempt += 1


# ---------------------------------------------------------------------------
# Declarative fault specs


@dataclass(frozen=True)
class CrashCopy:
    """Kill one copy after it has successfully processed ``after_buffers``
    buffers.  ``when="before"`` crashes before the next buffer's side
    effects (clean re-delivery); ``when="after"`` crashes after them, so
    the re-delivered buffer produces duplicates downstream and exercises
    the stitch filters' dedup.  ``hard`` (MP runtime) kills the OS
    process without any cleanup."""

    filter_name: str
    copy_index: int
    after_buffers: int = 0
    when: str = "before"
    hard: bool = False

    def __post_init__(self) -> None:
        if self.when not in ("before", "after"):
            raise ValueError(f"when must be 'before' or 'after', got {self.when!r}")
        if self.after_buffers < 0:
            raise ValueError("after_buffers must be >= 0")


@dataclass(frozen=True)
class FailProcess:
    """Fail ``process()`` with probability ``probability`` per attempt
    (seeded; retries re-roll, so transient failures eventually clear)."""

    filter_name: str
    probability: float
    copy_index: Optional[int] = None  # None: every copy
    max_failures: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")


@dataclass(frozen=True)
class DelayBuffers:
    """Sleep ``delay`` seconds before processing a buffer (straggler)."""

    filter_name: str
    delay: float
    probability: float = 1.0
    copy_index: Optional[int] = None
    max_delays: Optional[int] = None

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")


@dataclass(frozen=True)
class DropBuffers:
    """Lose a delivery with probability ``probability``; the retry layer
    re-delivers it (at-least-once), so with retries enabled no data is
    lost — with retries disabled the copy dies on the first drop."""

    filter_name: str
    probability: float
    copy_index: Optional[int] = None
    max_drops: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")


# ---------------------------------------------------------------------------
# Connection-level fault specs (distributed runtime only)


@dataclass(frozen=True)
class CrashAgent:
    """Kill one worker agent process outright (``os._exit``) after it
    has received ``after_buffers`` data deliveries.  Every filter copy
    the agent hosts dies with it; the head must detect the dead
    connection and reroute the agent's unacknowledged chunks."""

    agent: Union[int, str]
    after_buffers: int = 0

    def __post_init__(self) -> None:
        if self.after_buffers < 0:
            raise ValueError("after_buffers must be >= 0")


@dataclass(frozen=True)
class DelayConnection:
    """Sleep ``delay`` seconds before dispatching an inbound delivery on
    one agent's connection (a congested or distant link)."""

    agent: Union[int, str]
    delay: float
    probability: float = 1.0
    max_delays: Optional[int] = None

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")


@dataclass(frozen=True)
class DropDeliveries:
    """Lose an inbound delivery on one agent's connection with
    probability ``probability``.  The agent reports the loss and the
    head re-delivers — at-least-once at the transport level, so with
    surviving credit the run still completes."""

    agent: Union[int, str]
    probability: float
    max_drops: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")


ConnectionFault = (CrashAgent, DelayConnection, DropDeliveries)

FaultSpec = Union[
    CrashCopy,
    FailProcess,
    DelayBuffers,
    DropBuffers,
    CrashAgent,
    DelayConnection,
    DropDeliveries,
]


class FaultPlan:
    """A seeded, declarative set of faults to inject into one run.

    Builder methods chain::

        plan = (FaultPlan(seed=0)
                .crash_copy("HCC", 1, after_buffers=5)
                .delay_buffers("HMP", delay=0.01, probability=0.2))

    The plan is installed on a runtime (``LocalRuntime(g, faults=plan)``)
    which derives one deterministic :class:`CopyInjector` per filter
    copy; the same plan therefore injects the same faults on both real
    runtimes (modulo scheduling nondeterminism in what each copy sees).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.faults: List[FaultSpec] = []

    # -- builders ----------------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.faults.append(spec)
        return self

    def crash_copy(
        self,
        filter_name: str,
        copy_index: int,
        after_buffers: int = 0,
        when: str = "before",
        hard: bool = False,
    ) -> "FaultPlan":
        return self.add(CrashCopy(filter_name, copy_index, after_buffers, when, hard))

    def fail_process(
        self,
        filter_name: str,
        probability: float,
        copy_index: Optional[int] = None,
        max_failures: Optional[int] = None,
    ) -> "FaultPlan":
        return self.add(FailProcess(filter_name, probability, copy_index, max_failures))

    def delay_buffers(
        self,
        filter_name: str,
        delay: float,
        probability: float = 1.0,
        copy_index: Optional[int] = None,
        max_delays: Optional[int] = None,
    ) -> "FaultPlan":
        return self.add(
            DelayBuffers(filter_name, delay, probability, copy_index, max_delays)
        )

    def drop_buffers(
        self,
        filter_name: str,
        probability: float,
        copy_index: Optional[int] = None,
        max_drops: Optional[int] = None,
    ) -> "FaultPlan":
        return self.add(DropBuffers(filter_name, probability, copy_index, max_drops))

    def crash_agent(
        self, agent: Union[int, str], after_buffers: int = 0
    ) -> "FaultPlan":
        return self.add(CrashAgent(agent, after_buffers))

    def delay_connection(
        self,
        agent: Union[int, str],
        delay: float,
        probability: float = 1.0,
        max_delays: Optional[int] = None,
    ) -> "FaultPlan":
        return self.add(DelayConnection(agent, delay, probability, max_delays))

    def drop_deliveries(
        self,
        agent: Union[int, str],
        probability: float,
        max_drops: Optional[int] = None,
    ) -> "FaultPlan":
        return self.add(DropDeliveries(agent, probability, max_drops))

    # -- queries -----------------------------------------------------------

    def affects(self, filter_name: str) -> bool:
        return any(
            getattr(f, "filter_name", None) == filter_name for f in self.faults
        )

    def connection_faults(self) -> List[FaultSpec]:
        return [f for f in self.faults if isinstance(f, ConnectionFault)]

    def validate(
        self,
        copies_by_filter: Dict[str, int],
        agents: Optional[List[str]] = None,
    ) -> None:
        """Reject faults that target nothing.

        A typo'd filter name or an out-of-range copy index would
        otherwise inject nothing — and a resilience run that quietly
        tested nothing looks exactly like a clean recovery.
        ``agents`` names the distributed runtime's worker agents;
        ``None`` (the single-host runtimes) rejects connection-level
        faults outright, since there is no connection to break.
        """
        for f in self.faults:
            if isinstance(f, ConnectionFault):
                if agents is None:
                    raise ValueError(
                        f"{type(f).__name__} targets a worker agent; "
                        "connection-level faults require the distributed "
                        "runtime"
                    )
                if isinstance(f.agent, int):
                    if not 0 <= f.agent < len(agents):
                        raise ValueError(
                            f"fault targets agent {f.agent} but the runtime "
                            f"has {len(agents)} agents"
                        )
                elif f.agent not in agents:
                    raise ValueError(
                        f"fault targets unknown agent {f.agent!r}; "
                        f"runtime has {agents}"
                    )
                continue
            if f.filter_name not in copies_by_filter:
                raise ValueError(
                    f"fault targets unknown filter {f.filter_name!r}; "
                    f"graph has {sorted(copies_by_filter)}"
                )
            idx = getattr(f, "copy_index", None)
            if idx is not None and not (0 <= idx < copies_by_filter[f.filter_name]):
                raise ValueError(
                    f"fault targets {f.filter_name}[{idx}] but the filter "
                    f"has {copies_by_filter[f.filter_name]} copies"
                )

    def injector_for(self, filter_name: str, copy_index: int) -> "CopyInjector":
        """The (deterministic) injector for one filter copy."""
        mine = [
            f
            for f in self.faults
            if getattr(f, "filter_name", None) == filter_name
            and (getattr(f, "copy_index", None) is None
                 or f.copy_index == copy_index)
        ]
        if not mine:
            return NULL_INJECTOR
        return CopyInjector(mine, self.seed, filter_name, copy_index)

    def connection_injector_for(
        self, agent_index: int, agent_name: str
    ) -> "ConnectionInjector":
        """The (deterministic) connection injector for one agent."""
        mine = [
            f
            for f in self.connection_faults()
            if f.agent == agent_index or f.agent == agent_name
        ]
        if not mine:
            return NULL_CONNECTION_INJECTOR
        return ConnectionInjector(mine, self.seed, agent_index, agent_name)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, faults={self.faults!r})"


class CopyInjector:
    """Per-copy fault state: consulted around every ``process()`` call.

    ``before_process`` may sleep (delay), raise :class:`InjectedFault` /
    :class:`InjectedDrop` (retryable) or :class:`InjectedCrash` (fatal);
    ``after_process`` raises crashes configured with ``when="after"``.
    The RNG is seeded from ``(plan seed, filter, copy)`` so runs are
    reproducible.
    """

    active = True

    def __init__(
        self, specs: List[FaultSpec], seed: int, filter_name: str, copy_index: int
    ):
        self._crashes = [s for s in specs if isinstance(s, CrashCopy)]
        self._fails = [s for s in specs if isinstance(s, FailProcess)]
        self._delays = [s for s in specs if isinstance(s, DelayBuffers)]
        self._drops = [s for s in specs if isinstance(s, DropBuffers)]
        self._rng = random.Random(f"{seed}|{filter_name}|{copy_index}")
        self.filter_name = filter_name
        self.copy_index = copy_index
        self.received = 0
        self._fired = {}  # id(spec) -> count

    def _under_cap(self, spec, cap: Optional[int]) -> bool:
        return cap is None or self._fired.get(id(spec), 0) < cap

    def _fire(self, spec) -> None:
        self._fired[id(spec)] = self._fired.get(id(spec), 0) + 1

    def before_process(self, buffer, attempt: int = 1) -> None:
        if attempt == 1:
            self.received += 1
        for spec in self._crashes:
            if spec.when == "before" and self.received > spec.after_buffers:
                raise InjectedCrash(
                    f"injected crash: {self.filter_name}[{self.copy_index}] "
                    f"after {spec.after_buffers} buffers",
                    hard=spec.hard,
                )
        for spec in self._delays:
            if self._under_cap(spec, spec.max_delays) and (
                spec.probability >= 1.0 or self._rng.random() < spec.probability
            ):
                self._fire(spec)
                time.sleep(spec.delay)
        for spec in self._drops:
            if self._under_cap(spec, spec.max_drops) and (
                self._rng.random() < spec.probability
            ):
                self._fire(spec)
                raise InjectedDrop(
                    f"injected drop: buffer lost before "
                    f"{self.filter_name}[{self.copy_index}]"
                )
        for spec in self._fails:
            if self._under_cap(spec, spec.max_failures) and (
                self._rng.random() < spec.probability
            ):
                self._fire(spec)
                raise InjectedFault(
                    f"injected process() failure in "
                    f"{self.filter_name}[{self.copy_index}]"
                )

    def after_process(self, buffer) -> None:
        for spec in self._crashes:
            if spec.when == "after" and self.received > spec.after_buffers:
                raise InjectedCrash(
                    f"injected crash (post-process): "
                    f"{self.filter_name}[{self.copy_index}] after "
                    f"{spec.after_buffers} buffers",
                    hard=spec.hard,
                )


class _NullInjector:
    """Inert injector: the no-fault fast path (no per-buffer branching)."""

    active = False
    received = 0

    def before_process(self, buffer, attempt: int = 1) -> None:
        pass

    def after_process(self, buffer) -> None:
        pass


NULL_INJECTOR = _NullInjector()


class ConnectionInjector:
    """Per-agent connection fault state, consulted once per inbound
    data delivery on the agent's head connection.

    :meth:`on_deliver` may sleep (delayed link) and returns one of
    ``"ok"`` (dispatch normally), ``"drop"`` (lose the delivery; the
    agent nacks it so the head re-delivers) or ``"crash"`` (the agent
    must kill its own process — no goodbye, the head's death detection
    has to catch it).  Seeded from ``(plan seed, agent)`` so runs are
    reproducible.
    """

    active = True

    def __init__(
        self,
        specs: List[FaultSpec],
        seed: int,
        agent_index: int,
        agent_name: str,
    ):
        self._crashes = [s for s in specs if isinstance(s, CrashAgent)]
        self._delays = [s for s in specs if isinstance(s, DelayConnection)]
        self._drops = [s for s in specs if isinstance(s, DropDeliveries)]
        self._rng = random.Random(f"{seed}|agent|{agent_index}|{agent_name}")
        self.agent_index = agent_index
        self.agent_name = agent_name
        self.received = 0
        self._fired: Dict[int, int] = {}

    def _under_cap(self, spec, cap: Optional[int]) -> bool:
        return cap is None or self._fired.get(id(spec), 0) < cap

    def _fire(self, spec) -> None:
        self._fired[id(spec)] = self._fired.get(id(spec), 0) + 1

    def on_deliver(self) -> str:
        self.received += 1
        for spec in self._crashes:
            if self.received > spec.after_buffers:
                return "crash"
        for spec in self._delays:
            if self._under_cap(spec, spec.max_delays) and (
                spec.probability >= 1.0 or self._rng.random() < spec.probability
            ):
                self._fire(spec)
                time.sleep(spec.delay)
        for spec in self._drops:
            if self._under_cap(spec, spec.max_drops) and (
                self._rng.random() < spec.probability
            ):
                self._fire(spec)
                return "drop"
        return "ok"


class _NullConnectionInjector:
    """Inert connection injector (no per-delivery branching)."""

    active = False
    received = 0

    def on_deliver(self) -> str:
        return "ok"


NULL_CONNECTION_INJECTOR = _NullConnectionInjector()
