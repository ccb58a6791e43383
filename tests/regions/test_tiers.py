"""Per-tier round-trip, capacity and crash-safe-cleanup tests."""

import os
import subprocess

import numpy as np
import pytest

from repro.regions import DiskTier, RamTier

from ..conftest import _spill_sessions


def _payload(shape=(4, 4, 2, 2), dtype=np.uint16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 12, size=shape).astype(dtype)


def _roundtrip(tier, copies_out=True):
    data = _payload()
    assert tier.put("k", data)
    out = tier.get("k")
    assert out is not None
    if copies_out:
        # Tiers that materialize a fresh array hand it back read-only;
        # RamTier returns the stored array (the store freezes payloads
        # before they ever reach a tier).
        assert not out.flags.writeable
    np.testing.assert_array_equal(out, data)
    assert tier.bytes_used == data.nbytes
    tier.remove("k")
    assert tier.get("k") is None
    assert tier.bytes_used == 0
    tier.remove("k")  # missing keys are a no-op


class TestRamTier:
    def test_roundtrip(self):
        _roundtrip(RamTier(), copies_out=False)

    def test_capacity_refusal(self):
        data = _payload()
        tier = RamTier(capacity_bytes=data.nbytes)
        assert tier.put("a", data)
        assert not tier.put("b", data)  # full: refuse, never evict
        assert tier.get("a") is not None and tier.get("b") is None

    def test_overwrite_replaces(self):
        tier = RamTier(capacity_bytes=_payload().nbytes)
        assert tier.put("a", _payload(seed=1))
        assert tier.put("a", _payload(seed=2))  # same key: replace in place
        np.testing.assert_array_equal(tier.get("a"), _payload(seed=2))


class TestDiskTier:
    def test_roundtrip(self, tmp_path):
        tier = DiskTier(root=str(tmp_path))
        try:
            _roundtrip(tier)
        finally:
            tier.close()

    def test_capacity_refusal(self, tmp_path):
        data = _payload()
        tier = DiskTier(capacity_bytes=data.nbytes, root=str(tmp_path))
        try:
            assert tier.put("a", data)
            assert not tier.put("b", data)
        finally:
            tier.close()

    def test_close_removes_session_dir(self, tmp_path):
        tier = DiskTier(root=str(tmp_path))
        tier.put("a", _payload())
        session = tier.session_dir
        assert os.path.isdir(session) and os.listdir(session)
        tier.close()
        assert not os.path.exists(session)
        tier.close()  # idempotent

    def test_leak_gate_sees_an_open_session(self, tmp_path):
        # What tests/conftest.py checks after every test of this suite.
        tier = DiskTier(root=str(tmp_path / "nested"))
        assert _spill_sessions([str(tmp_path)]) == {tier.session_dir}
        tier.close()
        assert _spill_sessions([str(tmp_path)]) == set()

    def test_stale_session_sweep(self, tmp_path):
        # A session directory left by a dead pid (kill -9 never runs our
        # cleanup) is swept by the next tier construction in the same
        # root; a directory owned by a live pid is left alone.
        proc = subprocess.Popen(["sleep", "0"])
        proc.wait()
        dead = tmp_path / f"spill-{proc.pid}-deadbeef"
        dead.mkdir()
        (dead / "orphan.npy").write_bytes(b"x")
        alive = tmp_path / f"spill-{os.getpid()}-cafebabe"
        alive.mkdir()
        unrelated = tmp_path / "not-a-session"
        unrelated.mkdir()

        tier = DiskTier(root=str(tmp_path))
        try:
            assert not dead.exists()
            assert alive.exists()
            assert unrelated.exists()
        finally:
            tier.close()
            alive.rmdir()  # ours by name: the leak gate would count it
