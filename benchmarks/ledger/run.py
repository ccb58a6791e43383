"""Pipeline ledger: end-to-end and per-layer numbers for five workloads.

One run of one workload, the form the benchmark driver uses::

    python3 benchmarks/ledger/run.py --workload hmp_threads --seed 0 \
        --seconds 14 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` makes the traced pass and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero if any operation failed, anything leaked, or the replay left
more than 5% of its wall unattributed.

Without ``--trace`` it writes the ledger: both passes of every selected
workload, each in a fresh child process, printed as a table and saved
with a machine fingerprint under ``--out``.  ``--compare A.json B.json``
checks two ledgers against the bounds; ``--spec`` prints
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spec  # noqa: E402  (needs HERE on the path)

#: Metrics whose run-to-run noise the recorded min-max of the wall
#: describes; ``--compare`` may call these unresolved.
_TIMED = ("rois_per_s", "wall_s", "cpu_s_per_kroi")


def pin_blas_threads() -> None:
    """One BLAS thread per process, for this process and its children.

    The unit of parallelism here is the filter copy, and the workloads
    already run as many copies as the box has cores.  OpenBLAS's default
    of one thread per core made the sequential workload burn two cores
    for a slower result and was the largest source of run-to-run noise
    (quartile spread of wall_s 17% with it, 3% without).  Must run
    before numpy is imported.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def run_one(w: spec.Workload, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One pass of one workload in this process."""
    pin_blas_threads()
    import measure  # imports repro, which a bare checkout does not have

    os.makedirs(OUT_DIR, exist_ok=True)
    # Studies live under the benchmark's own directory: nothing is read
    # or written outside the checkout.
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as workdir:
        if trace:
            return measure.traced(
                w, seed, seconds, workdir,
                os.path.join(OUT_DIR, f"trace-{w.name}.jsonl"),
            )
        return measure.end_to_end(w, seed, seconds, workdir)


def print_metrics(name: str, result: Dict[str, object]) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:>16.6g} {entry['unit']}")


def fingerprint() -> Dict[str, object]:
    """The machine and code the numbers were taken on; never gated."""
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for fn in files:
            if fn.endswith(".py"):
                with open(os.path.join(dirpath, fn), "rb") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "logical_cores": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,  # see pin_blas_threads
        # None outside a git checkout, as in the benchmark driver's copy.
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "src_lines": lines,
    }


def _child(w: spec.Workload, args, trace: int) -> Dict[str, object]:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", w.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{w.name} --trace {trace}: no result "
                         f"(exit code {proc.returncode})")
    return json.loads(lines[-1])


def write_ledger(workloads: List[spec.Workload], args) -> bool:
    """Both passes of every workload, each in a fresh child process."""
    ledger = {
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "storage_nodes": spec.NUM_NODES,
        "workloads": {},
    }
    ok = True
    for w in workloads:
        untraced, traced = _child(w, args, 0), _child(w, args, 1)
        entry = {
            **dataclasses.asdict(w.smoke() if args.smoke else w),
            "copies": w.copies,
            "seed": args.seed,
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        ledger["workloads"][w.name] = entry
        ok = ok and entry["correct"]
        print_metrics(w.name, {**entry, "metrics": {**entry["end_to_end"],
                                                    **entry["per_layer"]}})
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    print(f"ledger written to {args.out}")
    return ok


def compare(path_a: str, path_b: str) -> bool:
    """Check ledger B against ledger A; True unless a metric regressed."""
    with open(path_a) as fh:
        a = json.load(fh)["workloads"]
    with open(path_b) as fh:
        b = json.load(fh)["workloads"]
    regressed = False
    print(f"{'workload':24s}{'metric':16s}{'A':>12s}{'B':>12s}"
          f"{'worse by':>10s}{'bound':>8s}  verdict")
    for name in a:
        if name not in b:
            continue
        spread = max(_wall_spread(a[name]), _wall_spread(b[name]))
        for metric, _, better, bound in spec.END_TO_END:
            va = a[name]["end_to_end"][metric]["value"]
            vb = b[name]["end_to_end"][metric]["value"]
            worse = (vb - va) / va if better == "lower" else (va - vb) / va
            if worse <= bound:
                verdict = "ok"
            elif metric in _TIMED and worse <= spread:
                verdict = "unresolved"
            else:
                verdict, regressed = "regressed", True
            print(f"{name:24s}{metric:16s}{va:12.5g}{vb:12.5g}"
                  f"{worse:+10.1%}{bound:8.0%}  {verdict}")
    return not regressed


def _wall_spread(entry: Dict[str, object]) -> float:
    """Recorded min-max of the repeats' wall, as a share of its median."""
    layer = entry["per_layer"]
    return (
        layer["pipeline.wall_max_s"]["value"] - layer["pipeline.wall_min_s"]["value"]
    ) / entry["end_to_end"]["wall_s"]["value"]


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the generated phantom; the program sees "
                         "only the dataset")
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                    help="seconds of timed repeats per pass")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="run one pass of one workload in this process: "
                         "0 end-to-end metrics, 1 per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="two-chunk studies and a single repeat")
    ap.add_argument("--out", default=os.path.join(OUT_DIR, "ledger.json"),
                    help="where the ledger is written")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two ledgers against the bounds")
    ap.add_argument("--spec", action="store_true",
                    help="print BENCHMARK.json and exit")
    args = ap.parse_args(argv)

    if args.spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.compare:
        return 0 if compare(*args.compare) else 1

    workloads = [spec.workload(n) for n in args.workload or
                 [w.name for w in spec.WORKLOADS]]
    if args.smoke:
        args.seconds = 0.0
    if args.trace is None:
        return 0 if write_ledger(workloads, args) else 1
    if len(workloads) != 1:
        ap.error("--trace runs one pass in this process: give one --workload")
    w = workloads[0].smoke() if args.smoke else workloads[0]
    result = run_one(w, args.seed, args.seconds, bool(args.trace))
    print_metrics(w.name, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
