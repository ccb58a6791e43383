"""Shared helpers for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` module reproduces one table or figure of the
paper's evaluation (Section 5): it runs the corresponding experiment
(full paper-scale workload on the simulated testbeds, or real kernels
for the compute-level claims), prints the series the paper plots, and
records the numbers in ``benchmarks/results/`` for EXPERIMENTS.md.

Absolute times are *simulated seconds* on the modeled 2004 hardware —
the claim under test is the shape (who wins, by what factor, where
curves cross), not the absolute scale.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable, Dict, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def record(name: str, rows: List[Dict]) -> None:
    """Persist a result series for the experiment log."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as fh:
        json.dump(rows, fh, indent=1)


def record_repo_json(filename: str, payload: Dict) -> str:
    """Write a machine-readable result file at the repository root.

    Used for headline numbers that gate CI or document the repo's
    current performance (e.g. ``BENCH_kernels.json``), as opposed to
    the per-figure series under ``benchmarks/results/``.
    """
    path = os.path.join(REPO_ROOT, filename)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def measure(
    sides: Dict[str, Callable[[], object]], pairs: int
) -> Dict[str, object]:
    """Time two alternatives as alternating pairs, the pipeline ledger's way.

    ``sides`` maps two names to zero-argument callables.  Each pair runs
    both once, back to back, and the side that goes first alternates
    from pair to pair (this box drifts by tens of percent over minutes,
    so only neighbours compare).  Returns, per side, the median and the
    quartiles of its wall seconds with every sample, how many pairs each
    side won (a tie counts for neither) and the ledger's machine
    fingerprint.  A difference means something only when one side wins
    nearly every pair *and* the medians differ by more than the other
    side's quartile distance.
    """
    from ledger.run import fingerprint  # benchmarks/ is on the path

    (name_a, run_a), (name_b, run_b) = sides.items()
    samples: Dict[str, List[float]] = {name_a: [], name_b: []}
    for pair in range(pairs):
        order = [(name_a, run_a), (name_b, run_b)]
        for name, run in order if pair % 2 == 0 else reversed(order):
            t0 = time.perf_counter()
            run()
            samples[name].append(time.perf_counter() - t0)
    out: Dict[str, object] = {"pairs": pairs}
    for name, walls in samples.items():
        q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
        out[name] = {
            "median_s": round(median, 4),
            "q1_s": round(q1, 4),
            "q3_s": round(q3, 4),
            "samples_s": [round(w, 4) for w in walls],
        }
    out["pairs_won"] = {
        name_a: sum(a < b for a, b in zip(samples[name_a], samples[name_b])),
        name_b: sum(b < a for a, b in zip(samples[name_a], samples[name_b])),
    }
    fp = fingerprint()
    # The ledger pins BLAS to one thread before it imports numpy; a
    # bench run under pytest cannot, so record what was actually set.
    fp["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    out["fingerprint"] = fp
    return out


def print_table(title: str, headers: Sequence[str], rows: List[Sequence]) -> None:
    """Print a small aligned table (the figure's data series)."""
    widths = [
        max(len(str(h)), max((len(f"{r[i]:.1f}" if isinstance(r[i], float) else str(r[i]))
                              for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for r in rows:
        cells = [
            (f"{v:.1f}" if isinstance(v, float) else str(v)).rjust(w)
            for v, w in zip(r, widths)
        ]
        print("  ".join(cells))
