"""Per-filter timing reports (the measurement behind paper Fig. 9)."""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..datacutter.obs import parse_metric_key
from ..datacutter.runtime_local import RunResult

__all__ = [
    "filter_breakdown",
    "format_breakdown",
    "format_metrics",
    "failure_summary",
]


def filter_breakdown(run: RunResult) -> Dict[str, Dict[str, float]]:
    """Summarize busy time per filter across its copies.

    Returns ``{filter: {copies, total, mean, max}}`` where ``total`` sums
    all copies' busy seconds, ``mean``/``max`` are per-copy statistics
    (the paper's Fig. 9 plots the per-filter processing time; ``max``
    approximates the critical-path contribution of a replicated filter).

    Built from the run's :mod:`repro.datacutter.obs` metrics snapshot
    (the ``busy_seconds{filter=...}`` histograms observe one value per
    copy), falling back to raw ``run.busy_time`` for results that carry
    no metrics.
    """
    hists = (run.metrics or {}).get("histograms", {})
    out: Dict[str, Dict[str, float]] = {}
    for key, h in hists.items():
        name, labels = parse_metric_key(key)
        if name != "busy_seconds" or "filter" not in labels:
            continue
        out[labels["filter"]] = {
            "copies": float(h["count"]),
            "total": h["sum"],
            "mean": h["mean"],
            "max": h["max"],
        }
    if out:
        return out
    per_filter: Dict[str, List[float]] = {}
    for (name, _copy), busy in run.busy_time.items():
        per_filter.setdefault(name, []).append(busy)
    for name, times in per_filter.items():
        out[name] = {
            "copies": float(len(times)),
            "total": sum(times),
            "mean": sum(times) / len(times),
            "max": max(times),
        }
    return out


def failure_summary(run: RunResult) -> Dict[str, object]:
    """Fault-tolerance accounting for one run.

    Returns ``{retries, reroutes, failed_copies, recovered_copies,
    failures}`` where ``failures`` is a list of human-readable per-copy
    failure descriptions.
    """
    return {
        "retries": run.retries,
        "reroutes": run.reroutes,
        "failed_copies": len(run.failed_copies),
        "recovered_copies": sum(1 for f in run.failed_copies if f.recovered),
        "failures": [f.describe() for f in run.failed_copies],
    }


def format_breakdown(run: RunResult, order: Tuple[str, ...] = ()) -> str:
    """Human-readable per-filter timing table (plus failure accounting)."""
    stats = filter_breakdown(run)
    names = [n for n in order if n in stats] + sorted(
        n for n in stats if n not in order
    )
    lines = [
        f"{'filter':<8} {'copies':>6} {'total(s)':>10} {'mean(s)':>10} {'max(s)':>10}"
    ]
    for name in names:
        s = stats[name]
        lines.append(
            f"{name:<8} {int(s['copies']):>6} {s['total']:>10.4f} "
            f"{s['mean']:>10.4f} {s['max']:>10.4f}"
        )
    lines.append(f"elapsed wall-clock: {run.elapsed:.4f}s")
    if run.retries or run.reroutes or run.failed_copies:
        lines.append(
            f"fault tolerance: {run.retries} retries, {run.reroutes} "
            f"rerouted buffers, {len(run.failed_copies)} failed copies"
        )
        for f in run.failed_copies:
            status = "recovered" if f.recovered else "fatal"
            lines.append(f"  [{status}] {f.describe()}")
    return "\n".join(lines)


def format_metrics(run: RunResult) -> str:
    """Sorted dump of the run's metrics snapshot.

    First what each link moved — ``wire_bytes`` (through pipes or
    sockets) and ``shm_bytes`` (through shared-memory slabs) side by
    side, since either alone under-reports a link of the processes
    runtime — and how the slab pool fared; then one ``name{labels} =
    value`` line per remaining instrument: counters as plain numbers,
    gauges as ``value (max ...)``, histograms as ``count/sum/mean/max``.
    """
    m = run.metrics or {}
    counters = dict(m.get("counters", {}))
    gauges = dict(m.get("gauges", {}))
    lines: List[str] = []
    links: Dict[str, Dict[str, float]] = {}
    for key in sorted(counters):
        name, labels = parse_metric_key(key)
        if name in ("wire_bytes", "shm_bytes") and "link" in labels:
            links.setdefault(labels["link"], {})[name] = counters.pop(key)
    for link, moved in sorted(links.items()):
        lines.append(
            f"link {link}: wire_bytes = {moved.get('wire_bytes', 0):.0f}, "
            f"shm_bytes = {moved.get('shm_bytes', 0):.0f}"
        )
    if "shm_pool_hits" in counters:
        lines.append(
            f"shm_pool: hits = {counters.pop('shm_pool_hits'):.0f}, "
            f"fallbacks = {counters.pop('shm_pool_fallbacks'):.0f}, "
            f"peak_in_use = {gauges.pop('shm_pool_peak_in_use')['value']:.0f}"
            f"/{gauges.pop('shm_pool_segments')['value']:.0f}"
        )
    for key in sorted(counters):
        lines.append(f"{key} = {counters[key]:g}")
    for key in sorted(gauges):
        g = gauges[key]
        lines.append(f"{key} = {g['value']:g} (max {g['max']:g})")
    for key in sorted(m.get("histograms", {})):
        h = m["histograms"][key]
        lines.append(
            f"{key} = count {h['count']} / sum {h['sum']:.6g} / "
            f"mean {h['mean']:.6g} / max {h['max']:.6g}"
        )
    return "\n".join(lines)
