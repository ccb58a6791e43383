"""Command-line interface.

Subcommands::

    repro phantom  --out DIR [--shape X Y Z T] [--nodes N] [--format raw|dicom]
    repro info     DATASET_DIR
    repro analyze  DATASET_DIR [--variant hmp|split] [--copies N] ...
    repro kernels
    repro simulate [--figure 7a|7b|8|9|10|11] [--scale S]
    repro serve    [--port P] [--workers N] [--weights tenant=W ...] ...
    repro submit   DATASET_DIR [--connect HOST:PORT] [--features ...] ...

``phantom`` generates a synthetic DCE-MRI study and writes it as a
disk-resident dataset; ``analyze`` runs the parallel pipeline over a
dataset on this machine; ``simulate`` regenerates a paper figure's
series on the simulated 2004 testbeds; ``serve`` hosts the
always-on analysis service (:mod:`repro.service`) and ``submit`` sends
it jobs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _scale(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"{text} is not in (0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel 4D Haralick texture analysis (SC 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic study on disk")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--shape", nargs=4, type=int, default=[64, 64, 16, 8],
                   metavar=("X", "Y", "Z", "T"))
    p.add_argument("--lesions", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", type=int, default=4, help="storage nodes")
    p.add_argument("--format", choices=("raw", "dicom"), default="raw")

    p = sub.add_parser("info", help="describe a disk-resident dataset")
    p.add_argument("dataset", help="dataset directory")

    p = sub.add_parser("analyze", help="run the parallel pipeline")
    p.add_argument("dataset", help="dataset directory")
    p.add_argument("--variant", choices=("hmp", "split"), default="hmp")
    p.add_argument("--copies", type=int, default=2, help="texture filter copies")
    p.add_argument("--iic-copies", type=int, default=1)
    p.add_argument("--levels", type=int, default=32)
    p.add_argument("--roi", nargs=4, type=int, default=[5, 5, 5, 3],
                   metavar=("RX", "RY", "RZ", "RT"))
    p.add_argument("--features", nargs="+",
                   default=["asm", "correlation", "sum_of_squares", "idm"])
    p.add_argument("--scheduling", choices=("demand_driven", "round_robin"),
                   default="demand_driven")
    p.add_argument("--intensity-max", type=float, default=4095.0)
    p.add_argument("--images-out", help="also write PGM image series here")
    p.add_argument("--runtime", choices=("threads", "processes", "distributed"),
                   default="threads",
                   help="execution backend: threads (LocalRuntime), "
                        "processes (MPRuntime), or distributed "
                        "(DistRuntime over TCP worker agents)")
    p.add_argument("--hosts", nargs="+", metavar="HOST",
                   help="distributed runtime: one worker agent per host "
                        "(loopback hosts are spawned locally)")
    p.add_argument("--agents", type=int, metavar="N",
                   help="distributed runtime shorthand: N loopback agents "
                        "(equivalent to --hosts 127.0.0.1 x N)")
    p.add_argument("--heartbeat-timeout", type=float, metavar="SECONDS",
                   help="distributed runtime: seconds of agent silence "
                        "before it is declared dead (default: the "
                        "REPRO_DIST_HEARTBEAT_TIMEOUT environment "
                        "variable, else 5)")
    p.add_argument("--trace", choices=("chrome", "jsonl", "live"),
                   help="collect per-chunk trace events: chrome "
                        "(Perfetto/chrome://tracing JSON), jsonl (flat "
                        "JSON lines), or live (terminal summary)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="output file for --trace chrome/jsonl "
                        "(default trace.json / trace.jsonl)")
    p.add_argument("--metrics", action="store_true",
                   help="print the run's metrics snapshot "
                        "(counters/gauges/histograms)")
    p.add_argument("--poll-interval", type=float, metavar="SECONDS",
                   help="watchdog granularity for blocking waits; "
                        "wakeups are event-driven, so this only bounds "
                        "a missed-wakeup stall")

    sub.add_parser(
        "kernels",
        help="list scan kernels and say whether the compiled pass loaded",
    )

    p = sub.add_parser("simulate", help="regenerate a paper figure series")
    p.add_argument("--figure", choices=("7a", "7b", "8", "9", "10", "11"),
                   default="8")
    p.add_argument("--scale", type=_scale, default=1.0,
                   help="workload scale in (0, 1] (1.0 = paper's dataset)")

    p = sub.add_parser("serve", help="host the always-on analysis service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7461)
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent pipeline passes")
    p.add_argument("--max-queued", type=int, default=64,
                   help="admission bound: queued jobs beyond this are "
                        "rejected with a reason")
    p.add_argument("--weights", nargs="+", metavar="TENANT=W", default=[],
                   help="per-tenant fair-share weights, e.g. clinical=3 "
                        "batch=1 (unlisted tenants get 1)")
    p.add_argument("--cache-mb", type=int, default=256,
                   help="result cache budget in MB (0 disables)")
    p.add_argument("--no-batching", action="store_true",
                   help="disable packing co-batchable jobs into one pass")

    p = sub.add_parser("submit", help="submit a job to a running service")
    p.add_argument("dataset", help="dataset directory (as seen by the server)")
    p.add_argument("--connect", default="127.0.0.1:7461", metavar="HOST:PORT")
    p.add_argument("--tenant", default="default")
    p.add_argument("--features", nargs="+",
                   default=["asm", "correlation", "sum_of_squares", "idm"])
    p.add_argument("--levels", type=int, default=32)
    p.add_argument("--roi", nargs=4, type=int, default=[5, 5, 5, 3],
                   metavar=("RX", "RY", "RZ", "RT"))
    p.add_argument("--intensity-max", type=float, default=4095.0)
    p.add_argument("--runtime", choices=("threads", "processes", "distributed"),
                   default="threads")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed result cache")
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and return instead of waiting")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="seconds to wait for the result")

    return parser


def _cmd_phantom(args) -> int:
    from .data.synthetic import paper_dataset_config, generate_phantom, PhantomConfig
    from .storage.dataset import write_dataset

    base = paper_dataset_config(scale=1.0, seed=args.seed, num_lesions=args.lesions)
    config = PhantomConfig(
        shape=tuple(args.shape), lesions=base.lesions, seed=args.seed
    )
    volume = generate_phantom(config)
    dataset = write_dataset(
        volume, args.out, num_nodes=args.nodes, file_format=args.format
    )
    print(f"wrote {dataset.shape} study ({volume.nbytes / 1e6:.1f} MB) to "
          f"{args.out}: {args.nodes} nodes, format={args.format}")
    return 0


def _cmd_info(args) -> int:
    from .storage.dataset import DiskDataset4D

    ds = DiskDataset4D.open(args.dataset)
    slices = ds.num_slices * ds.num_timesteps
    print(f"dataset:          {args.dataset}")
    print(f"shape (x,y,z,t):  {ds.shape}")
    print(f"bytes per pixel:  {ds.bytes_per_pixel}")
    print(f"file format:      {ds.file_format}")
    print(f"storage nodes:    {ds.num_nodes}")
    print(f"slice files:      {slices}")
    total = slices * ds.shape[0] * ds.shape[1] * ds.bytes_per_pixel
    print(f"total size:       {total / 1e6:.1f} MB")
    for n in range(ds.num_nodes):
        print(f"  node {n}: {len(ds.slices_on_node(n))} slices")
    return 0


def _cmd_analyze(args) -> int:
    from .filters.messages import TextureParams
    from .pipeline.config import AnalysisConfig
    from .pipeline.report import format_breakdown, format_metrics
    from .pipeline.run import run_pipeline

    params = TextureParams(
        roi_shape=tuple(args.roi),
        levels=args.levels,
        features=tuple(args.features),
        intensity_range=(0.0, args.intensity_max),
    )
    kwargs = dict(
        texture=params,
        variant=args.variant,
        num_iic_copies=args.iic_copies,
        scheduling=args.scheduling,
    )
    if args.variant == "hmp":
        kwargs["num_texture_copies"] = args.copies
    else:
        hcc = max(1, args.copies - max(1, args.copies // 5))
        kwargs["num_hcc_copies"] = hcc
        kwargs["num_hpc_copies"] = max(1, args.copies - hcc)
    config = AnalysisConfig(**kwargs)
    if (args.hosts or args.agents) and args.runtime != "distributed":
        print("--hosts/--agents require --runtime distributed", file=sys.stderr)
        return 2
    if args.heartbeat_timeout is not None and args.runtime != "distributed":
        print("--heartbeat-timeout requires --runtime distributed",
              file=sys.stderr)
        return 2
    if args.hosts and args.agents:
        print("--hosts and --agents are mutually exclusive", file=sys.stderr)
        return 2
    hosts = None
    if args.hosts:
        hosts = list(args.hosts)
    elif args.agents:
        hosts = ["127.0.0.1"] * args.agents
    if args.trace_out and args.trace not in ("chrome", "jsonl"):
        print("--trace-out requires --trace chrome or jsonl", file=sys.stderr)
        return 2
    result = run_pipeline(
        args.dataset, config, runtime=args.runtime, hosts=hosts,
        trace=args.trace, trace_out=args.trace_out,
        heartbeat_timeout=args.heartbeat_timeout,
        poll_interval=args.poll_interval,
    )
    print(format_breakdown(result.run, order=("RFR", "IIC", "HMP", "HCC", "HPC")))
    if args.metrics:
        print(format_metrics(result.run))
    if args.trace in ("chrome", "jsonl"):
        default = "trace.json" if args.trace == "chrome" else "trace.jsonl"
        print(f"trace written to {args.trace_out or default}")
    for name, vol in result.volumes.items():
        print(f"{name:<16} shape={vol.shape} min={vol.min():.4f} "
              f"max={vol.max():.4f}")
    if args.images_out:
        from .viz import write_feature_images

        count = write_feature_images(result.volumes, args.images_out)
        print(f"wrote {count} PGM images under {args.images_out}")
    return 0


def _cmd_kernels(args) -> int:
    from .core import native
    from .core.backends import DEFAULT_KERNEL, KERNEL_INFO, KERNELS

    width = max(len(k) for k in KERNELS)
    for k in KERNELS:
        mark = "*" if k == DEFAULT_KERNEL else " "
        print(f" {mark} {k:<{width}}  {KERNEL_INFO[k]}")
    print(f"   (* = default kernel)")
    st = native.status()
    if st.lib is not None:
        print(f"native: loaded {st.path}")
    else:
        print(f"native: unavailable — {st.reason}")
        print("        incremental runs its numpy passes (same counts, slower)")
    return 0


def _cmd_simulate(args) -> int:
    from .sim import SimRuntime, paper_workload
    from .sim import layouts

    wl = paper_workload(scale=args.scale)
    print(f"workload: {wl.dataset_shape} ({wl.total_rois / 1e6:.1f}M ROIs)")

    def run(layout):
        return SimRuntime(wl, *layout).run()

    fig = args.figure
    if fig in ("7a", "7b", "8", "9"):
        for n in (1, 2, 4, 8, 16):
            if fig == "7a":
                f = run(layouts.homogeneous_hmp(n, sparse=False)).makespan
                s = run(layouts.homogeneous_hmp(n, sparse=True)).makespan
                print(f"n={n:2d}: HMP full={f:9.1f}s sparse={s:9.1f}s")
            elif fig == "7b":
                f = run(layouts.homogeneous_split(n, sparse=False)).makespan
                s = run(layouts.homogeneous_split(n, sparse=True)).makespan
                print(f"n={n:2d}: split full={f:9.1f}s sparse={s:9.1f}s")
            elif fig == "8":
                a = run(layouts.homogeneous_split(n, sparse=True, overlap=False)).makespan
                b = run(layouts.homogeneous_split(n, sparse=True, overlap=True)).makespan
                c = run(layouts.homogeneous_hmp(n, sparse=False)).makespan
                print(f"n={n:2d}: no-overlap={a:8.1f}s overlap={b:8.1f}s HMP={c:8.1f}s")
            else:
                rep = run(layouts.homogeneous_split(n, sparse=True))
                print(f"n={n:2d}: RFR={rep.filter_busy_mean('RFR'):6.1f} "
                      f"IIC={rep.filter_busy_mean('IIC'):6.1f} "
                      f"HCC={rep.filter_busy_mean('HCC'):8.1f} "
                      f"HPC={rep.filter_busy_mean('HPC'):6.1f} "
                      f"USO={rep.filter_busy_mean('USO'):6.1f}")
    elif fig == "10":
        print(f"HMP (23 copies):         {run(layouts.fig10_hmp()).makespan:9.1f}s")
        print(f"split (18 HCC + 18 HPC): "
              f"{run(layouts.fig10_split(sparse=True)).makespan:9.1f}s")
    else:
        for policy in ("round_robin", "demand_driven"):
            print(f"{policy:>14}: {run(layouts.fig11_layout(policy)).makespan:9.1f}s")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .service import AnalysisService, ServiceConfig, ServiceServer

    weights = {}
    for spec in args.weights:
        tenant, _, w = spec.partition("=")
        if not tenant or not w:
            print(f"bad --weights entry {spec!r} (want TENANT=WEIGHT)",
                  file=sys.stderr)
            return 2
        weights[tenant] = float(w)
    config = ServiceConfig(
        workers=args.workers,
        max_queued=args.max_queued,
        tenant_weights=weights,
        batching=not args.no_batching,
        cache_bytes=args.cache_mb << 20,
    )
    stop = threading.Event()
    with AnalysisService(config) as service:
        with ServiceServer(service, host=args.host, port=args.port) as server:
            print(f"repro service listening on {server.host}:{server.port} "
                  f"({args.workers} workers, cache {args.cache_mb} MB)")
            try:
                # SIGTERM (and SIGINT where the KeyboardInterrupt path
                # is masked) wake the wait immediately instead of the
                # old time.sleep(3600) tick.
                signal.signal(signal.SIGTERM, lambda *_: stop.set())
            except ValueError:
                pass  # not the main thread (embedding callers)
            try:
                stop.wait()
            except KeyboardInterrupt:
                pass
            print("shutting down")
    return 0


def _cmd_submit(args) -> int:
    from .service import ServiceClient, ServiceClientError

    host, _, port = args.connect.rpartition(":")
    try:
        with ServiceClient(host or "127.0.0.1", int(port)) as client:
            try:
                job_id = client.submit(
                    dataset=args.dataset,
                    tenant=args.tenant,
                    features=list(args.features),
                    levels=args.levels,
                    roi=list(args.roi),
                    intensity_range=[0.0, args.intensity_max],
                    runtime=args.runtime,
                    use_cache=not args.no_cache,
                )
            except ServiceClientError as exc:
                print(f"rejected ({exc.kind}): {exc}", file=sys.stderr)
                return 1
            if args.no_wait:
                print(job_id)
                return 0
            resp = client.result(job_id, timeout=args.timeout)
            src = (f"cache+run" if resp["cached"] and resp["computed"]
                   else "cache" if resp["cached"] else "run")
            print(f"{job_id}: done in {resp['elapsed']:.2f}s "
                  f"(waited {resp['queue_wait']:.2f}s, source={src}, "
                  f"batch={resp['batch_size']})")
            for name, vol in resp["volumes"].items():
                print(f"{name:<16} shape={tuple(vol['shape'])} "
                      f"min={vol['min']:.4f} max={vol['max']:.4f}")
            return 0
    except ConnectionError as exc:
        print(f"cannot reach service at {args.connect}: {exc}",
              file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "phantom": _cmd_phantom,
        "info": _cmd_info,
        "analyze": _cmd_analyze,
        "kernels": _cmd_kernels,
        "simulate": _cmd_simulate,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
