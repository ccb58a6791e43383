"""Buffer scheduling rules for transparent filter copies.

When a stream fans out to several transparent copies of a consumer
filter, the DataCutter scheduler decides which copy receives each buffer
(paper Section 4.1):

* **round robin** — copies take turns, so each receives roughly the same
  number of buffers;
* **demand driven** — buffers go "to the transparent filter copies that
  can process them the fastest", tracked through buffer consumption: the
  copy with the fewest unconsumed (queued, in-flight) buffers wins.

Each transparent rule is a pure function ``(alive, queued, assigned,
counter) -> copy index`` over the live copy indices, the per-copy depth
and assignment counts (indexable by copy index) and the number of picks
made on the edge so far.  :data:`RULES` maps each policy name a
:class:`~repro.datacutter.graph.StreamEdge` accepts to its rule, with
``None`` for ``explicit`` (the producer names the destination copy).
The rules are applied by the one routing core,
:class:`~repro.datacutter.routing.EdgeRouter`, which the peer runtimes
and the distributed head use for every pick.  The simulator's
``SimRouter`` takes its round-robin picks from that core too, but its
demand-driven policy is a consumer-pull credit FIFO in simulated time
(``docs/simulator.md``), not :func:`demand_driven`.
"""

from __future__ import annotations

__all__ = ["round_robin", "demand_driven", "RULES", "rule_for"]


def round_robin(alive, queued, assigned, counter) -> int:
    """Copies take turns: the ``counter``-th pick goes to the
    ``counter``-th live copy, cyclically."""
    return alive[counter % len(alive)]


def demand_driven(alive, queued, assigned, counter) -> int:
    """Fewest unconsumed buffers wins; ties break by fewest buffers ever
    assigned, then lowest copy index (deterministic)."""
    return min(alive, key=lambda i: (queued[i], assigned[i], i))


#: Policy name -> transparent rule (``None``: explicit addressing).
RULES = {
    "round_robin": round_robin,
    "demand_driven": demand_driven,
    "explicit": None,
}


def rule_for(policy: str):
    """The rule of ``policy``; an unknown name raises ``ValueError``."""
    try:
        return RULES[policy]
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; valid: {sorted(RULES)}"
        ) from None
