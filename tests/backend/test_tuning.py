"""MeasurementCache: the shared measure-and-persist seam.

The conv autotuner and the JIT kernel index both sit on this class, so
its contracts are pinned once here: host partitioning, setdefault
persistence, restart survival, read-merge-write saves and the
invalidation hook.
"""

import json

import pytest

from repro.backend.tuning import MeasurementCache, host_fingerprint


@pytest.fixture
def cache(tmp_path):
    return MeasurementCache(tmp_path / "table.json")


class TestHostFingerprint:
    def test_stable_and_short(self):
        assert host_fingerprint() == host_fingerprint()
        assert len(host_fingerprint()) == 12


class TestMeasurementCache:
    def test_setdefault_inserts_and_persists(self, cache, tmp_path):
        rec = cache.setdefault("k", {"winner": "im2col"})
        assert rec == {"winner": "im2col"}
        data = json.loads((tmp_path / "table.json").read_text())
        assert data["hosts"][host_fingerprint()]["k"] == {"winner": "im2col"}

    def test_setdefault_keeps_existing(self, cache):
        cache.setdefault("k", {"winner": "a"})
        assert cache.setdefault("k", {"winner": "b"}) == {"winner": "a"}

    def test_stale_records_read_as_misses(self, tmp_path):
        c = MeasurementCache(tmp_path / "t.json",
                             is_current=lambda rec: rec["winner"] != "old")
        c.setdefault("k", {"winner": "old"})
        assert c.get("k") is None
        assert c.setdefault("k", {"winner": "new"}) == {"winner": "new"}
        c.clear(memory_only=True)
        assert c.get("k") == {"winner": "new"}

    def test_survives_restart(self, cache):
        cache.setdefault("k", {"winner": "a"})
        cache.clear(memory_only=True)          # simulated process restart
        assert cache.get("k") == {"winner": "a"}

    def test_clear_removes_file(self, cache, tmp_path):
        cache.setdefault("k", {"winner": "a"})
        cache.clear()
        assert not (tmp_path / "table.json").exists()
        assert cache.get("k") is None

    def test_save_merges_foreign_hosts(self, cache, tmp_path):
        # Another machine's records must survive this host's save.
        (tmp_path / "table.json").write_text(json.dumps(
            {"version": 1, "hosts": {"deadbeef0000": {"x": {"w": 1}}}}))
        cache.setdefault("k", {"winner": "a"})
        data = json.loads((tmp_path / "table.json").read_text())
        assert data["hosts"]["deadbeef0000"] == {"x": {"w": 1}}
        assert data["hosts"][host_fingerprint()]["k"] == {"winner": "a"}

    def test_corrupt_file_treated_as_empty(self, cache, tmp_path):
        (tmp_path / "table.json").write_text("{oops")
        assert cache.get("k") is None
        cache.setdefault("k", {"winner": "a"})
        assert cache.get("k") == {"winner": "a"}

    def test_set_path_switches_tables(self, cache, tmp_path):
        cache.setdefault("k", {"winner": "a"})
        cache.set_path(tmp_path / "other.json")
        assert cache.get("k") is None
        cache.setdefault("k", {"winner": "b"})
        cache.set_path(tmp_path / "table.json")
        assert cache.get("k") == {"winner": "a"}

    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_TUNING", str(tmp_path / "env.json"))
        c = MeasurementCache(tmp_path / "default.json",
                             env_var="REPRO_TEST_TUNING")
        c.setdefault("k", {"winner": "a"})
        assert (tmp_path / "env.json").exists()
        assert not (tmp_path / "default.json").exists()

    def test_on_invalidate_fires(self, tmp_path):
        calls = []
        c = MeasurementCache(tmp_path / "t.json",
                             on_invalidate=lambda: calls.append(1))
        c.set_path(tmp_path / "u.json")
        c.clear()
        assert len(calls) == 2

    def test_snapshot_is_a_copy(self, cache):
        cache.setdefault("k", {"winner": "a"})
        snap = cache.snapshot()
        snap["k"]["winner"] = "mutated"
        snap["extra"] = {}
        assert cache.get("k") is not None
        assert cache.get("extra") is None
