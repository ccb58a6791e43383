"""The data layer's decision record: what staged reads save, and what not.

Not a paper figure.  ``repro.regions`` is kept for one thing, sparing
the sequential driver its re-reads of the Eq. 1-2 overlap, and this
module is the measurement behind that decision (docs/data-layer.md):

* **reads** — disk reads, bytes and read amplification of one sweep
  over the pipeline ledger's sequential study (``all14_sequential``),
  plain, staged, and staged with the RAM tier capped below one chunk so
  that every region spills.  These are counts; they repeat exactly.
* **wall** — ``transform_disk_dataset`` plain against staged as
  alternating pairs (``harness.measure``): on the ledger's study with
  all 14 features and with the paper's four, with ``posix_fadvise
  (DONTNEED)`` on every slice file before every run (the nearest this
  box gets to a cold disk), and on a larger 64x64x8x6 study.
* **tiers** — stage/fetch MB/s of the two tiers that are left.

``pytest benchmarks/bench_regions.py -k smoke`` is the CI smoke (the
counts, two pairs, no file written); ``python benchmarks/bench_regions.py``
takes the full record and rewrites ``BENCH_regions.json``.  Run it as
the ledger runs, with ``OPENBLAS_NUM_THREADS=1``.
"""

import dataclasses
import glob
import os
import shutil
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import measure, record_repo_json  # noqa: E402
from ledger import run as _paths  # noqa: E402,F401  puts the ledger's directory and src/ on the path
from ledger import measure as ledger  # noqa: E402  the study, its config and spec are the ledger's

from repro.core.features import PAPER_FEATURES  # noqa: E402
from repro.pipeline.builder import plan_chunks  # noqa: E402
from repro.pipeline.sequential import transform_disk_dataset  # noqa: E402
from repro.regions import (  # noqa: E402
    DiskTier,
    RamTier,
    RegionStore,
    StagingPolicy,
    read_chunk_staged,
)
from repro.storage.dataset import DiskDataset4D  # noqa: E402

#: The study every number here is taken on, unless a row says otherwise.
WORKLOAD = ledger.spec.workload("all14_sequential")
SEED = 0
#: Per-tier throughput probe: payload size and round count.
PAYLOAD_BYTES = 2 << 20
ROUNDS = 6


def _sweep(root, cfg, policy=None):
    """Read every chunk once, as the sequential driver does; the counts."""
    dataset = DiskDataset4D.open(root)
    chunks = plan_chunks(dataset.shape, cfg)
    row = {}
    if policy is None:
        for chunk in chunks:
            dataset.read_chunk(*zip(chunk.lo, chunk.hi))
    else:
        with RegionStore.from_policy(policy) as store:
            for chunk in chunks:
                read_chunk_staged(dataset, chunk, store)
            row = {
                "stages": store.stats.stages,
                "hits_by_tier": dict(store.stats.hits_by_tier),
                "evictions": store.stats.evictions,
                "drops": store.stats.drops,
            }
    stats = dataset.stats
    total = int(np.prod(dataset.shape)) * dataset.bytes_per_pixel
    return {
        "read_calls": stats.reads,
        "read_bytes": stats.bytes_read,
        "read_amplification": round(stats.bytes_read / total, 3),
        **row,
    }


def _reads(root, cfg, spill_dir):
    chunk_bytes = int(np.prod(WORKLOAD.chunk)) * 2
    return {
        "plain": _sweep(root, cfg),
        "staged": _sweep(root, cfg, StagingPolicy(spill_dir=spill_dir)),
        "staged_ram_below_one_chunk": _sweep(
            root, cfg,
            StagingPolicy(ram_bytes=chunk_bytes // 2, spill_dir=spill_dir),
        ),
    }


def _drop_page_cache(root):
    for path in glob.glob(os.path.join(root, "node*", "*")):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        finally:
            os.close(fd)


def _wall(root, cfg, spill_dir, pairs, fadvise=False):
    """Plain against staged ``transform_disk_dataset``, alternating pairs."""

    def run(staged):
        if fadvise:
            _drop_page_cache(root)
        if not staged:
            return transform_disk_dataset(root, cfg)
        with RegionStore.from_policy(StagingPolicy(spill_dir=spill_dir)) as store:
            return transform_disk_dataset(root, cfg, region_store=store)

    want, got = run(False), run(True)  # warm-up, and the contract
    for name in want:
        np.testing.assert_array_equal(got[name], want[name])
    return measure(
        {"plain": lambda: run(False), "staged": lambda: run(True)}, pairs
    )


def _tier_throughput(make_tier):
    """Best-of-N stage/fetch bandwidth for one tier, MB/s."""
    payload = np.random.default_rng(1).integers(
        0, 256, size=PAYLOAD_BYTES, dtype=np.uint8
    )
    tier = make_tier()
    try:
        best_put = best_get = float("inf")
        for r in range(ROUNDS):
            key = f"bench-{r}"
            t0 = time.perf_counter()
            assert tier.put(key, payload)
            best_put = min(best_put, time.perf_counter() - t0)
            t0 = time.perf_counter()
            out = tier.get(key)
            best_get = min(best_get, time.perf_counter() - t0)
            assert out is not None and out.nbytes == payload.nbytes
            tier.remove(key)
        mb = PAYLOAD_BYTES / (1 << 20)
        return {
            "payload_mb": mb,
            "stage_mb_per_sec": round(mb / best_put, 1),
            "fetch_mb_per_sec": round(mb / best_get, 1),
        }
    finally:
        tier.close()


def decision_record(pairs, larger_pairs):
    """Everything ``BENCH_regions.json`` holds; ``larger_pairs=0`` skips
    the 64x64x8x6 row (the smoke)."""
    all14 = ledger.config_for(WORKLOAD)
    paper4 = dataclasses.replace(
        all14, texture=dataclasses.replace(all14.texture, features=PAPER_FEATURES)
    )
    work = tempfile.mkdtemp(prefix="bench-regions-")
    try:
        root, spill = os.path.join(work, "study"), os.path.join(work, "spill")
        ledger.make_study(WORKLOAD, SEED, root)
        reads = _reads(root, all14, spill)
        wall = {
            "all14": _wall(root, all14, spill, pairs),
            "paper4": _wall(root, paper4, spill, pairs),
            "paper4_fadvise_dontneed": _wall(root, paper4, spill, pairs, fadvise=True),
        }
        if larger_pairs:
            larger = dataclasses.replace(WORKLOAD, shape=(64, 64, 8, 6))
            big_root = os.path.join(work, "larger")
            ledger.make_study(larger, SEED, big_root)
            wall["all14_64x64x8x6"] = _wall(big_root, all14, spill, larger_pairs)
        tiers = {
            "ram": _tier_throughput(RamTier),
            "disk": _tier_throughput(lambda: DiskTier(root=spill)),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fingerprint = [row.pop("fingerprint") for row in wall.values()][0]
    return {
        "study": {
            "workload": WORKLOAD.name,
            "shape": list(WORKLOAD.shape),
            "chunk": list(WORKLOAD.chunk),
            "roi": list(ledger.spec.ROI_SHAPE),
            "nodes": ledger.spec.NUM_NODES,
            "seed": SEED,
        },
        "reads": reads,
        "wall": wall,
        "tiers": tiers,
        "fingerprint": fingerprint,
    }


def _print(record):
    for name, row in record["reads"].items():
        print(f"{name:>28}: {row['read_calls']:5d} reads {row['read_bytes']:7d} B "
              f"amplification {row['read_amplification']:.2f}")
    for name, row in record["wall"].items():
        won = row["pairs_won"]
        print(f"{name:>28}: plain {row['plain']['median_s']:.3f} s "
              f"[{row['plain']['q1_s']:.3f}, {row['plain']['q3_s']:.3f}]  "
              f"staged {row['staged']['median_s']:.3f} s "
              f"[{row['staged']['q1_s']:.3f}, {row['staged']['q3_s']:.3f}]  "
              f"staged ahead {won['staged']}/{row['pairs']}")
    for name, row in record["tiers"].items():
        print(f"{name:>28}: stage {row['stage_mb_per_sec']:.0f} MB/s, "
              f"fetch {row['fetch_mb_per_sec']:.0f} MB/s")


def test_staged_reads_smoke():
    """The counts the decision rests on, and that both tiers carry traffic.

    Staging reads every byte of the study once (amplification 1.0 against
    2.1 plain), also with the RAM tier below one chunk, where every region
    spills, none is lost and each spill file is written once.  Wall-clock
    is recorded, never gated: no gain is claimed for it.
    """
    record = decision_record(pairs=2, larger_pairs=0)
    _print(record)
    reads = record["reads"]
    assert reads["plain"]["read_amplification"] > 2.0
    for name in ("staged", "staged_ram_below_one_chunk"):
        assert reads[name]["read_amplification"] <= 1.05
        assert reads[name]["drops"] == 0
    capped = reads["staged_ram_below_one_chunk"]
    assert capped["hits_by_tier"] == {"disk": sum(capped["hits_by_tier"].values())}
    assert capped["evictions"] == 0  # straight to disk, no RAM round trip
    for row in record["tiers"].values():
        assert row["stage_mb_per_sec"] > 0 and row["fetch_mb_per_sec"] > 0


if __name__ == "__main__":
    full = decision_record(pairs=10, larger_pairs=6)
    _print(full)
    print("wrote", record_repo_json("BENCH_regions.json", full))
