"""Tests for cache disk inspection and garbage collection.

Covers the ``repro cache`` CLI's substrate: ``peek`` (stats-neutral
reads for the fabric coordinator), ``iter_entries`` / ``disk_stats``
(inspection), and ``gc`` (age- and size-bounded eviction with lease
and temp-file cleanup, honest dry runs, and reader-safe atomicity).
"""

from __future__ import annotations

import os

from repro.experiments.cache import CacheDiskStats, CacheGcReport, ResultCache
from repro.fabric.lease import LeaseStore


def key(i: int) -> str:
    return f"{i:02x}" + "0" * 62


def fill(cache: ResultCache, n: int, payload_bytes: int = 0):
    keys = [key(i) for i in range(n)]
    for i, k in enumerate(keys):
        cache.put(k, {"cell": i, "pad": "x" * payload_bytes})
    return keys


class TestPeek:
    def test_peek_does_not_touch_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        (k,) = fill(cache, 1)
        stores = cache.stats.stores
        assert cache.peek(k)["cell"] == 0
        assert cache.peek(key(99)) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        assert cache.stats.stores == stores

    def test_peek_leaves_defective_entry_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        (k,) = fill(cache, 1)
        path = cache.path_for(k)
        path.write_bytes(b"corrupted beyond recognition")
        assert cache.peek(k) is None
        assert path.exists()
        # ...while a real get evicts it
        assert cache.get(k) is None
        assert not path.exists()


class TestIterEntries:
    def test_yields_every_entry_sorted(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 5)
        listed = [k for k, _p, _s, _m in cache.iter_entries()]
        assert listed == sorted(keys)

    def test_skips_leases_dir_and_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 2)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        assert leases.claim(key(0))
        (tmp_path / "00" / "README.txt").write_text("not an entry")
        (tmp_path / "not-a-shard").mkdir()
        (tmp_path / "not-a-shard" / f"{key(3)}.bin").write_bytes(b"x")
        listed = [k for k, _p, _s, _m in cache.iter_entries()]
        assert listed == [key(0), key(1)]


class TestDiskStats:
    def test_counts_entries_bytes_and_leases(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 3)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        for k in keys[:2]:
            assert leases.claim(k)
        stats = cache.disk_stats()
        assert isinstance(stats, CacheDiskStats)
        assert stats.entries == 3
        assert stats.total_bytes == sum(
            s for _k, _p, s, _m in cache.iter_entries()
        )
        assert stats.lease_files == 2
        assert "3 entries" in stats.as_line()

    def test_empty_cache(self, tmp_path):
        stats = ResultCache(tmp_path).disk_stats()
        assert stats.entries == 0
        assert stats.total_bytes == 0
        assert stats.oldest_age_seconds == 0.0

    def test_ages_use_injected_now(self, tmp_path):
        cache = ResultCache(tmp_path)
        (k,) = fill(cache, 1)
        os.utime(cache.path_for(k), (1000.0, 1000.0))
        stats = cache.disk_stats(now=1600.0)
        assert stats.oldest_age_seconds == 600.0
        assert stats.newest_age_seconds == 600.0


class TestGc:
    def test_age_bound_evicts_only_old_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 4)
        for k in keys[:2]:
            os.utime(cache.path_for(k), (1000.0, 1000.0))
        for k in keys[2:]:
            os.utime(cache.path_for(k), (2000.0, 2000.0))
        report = cache.gc(max_age_seconds=500.0, now=2100.0)
        assert isinstance(report, CacheGcReport)
        assert report.scanned == 4
        assert report.evicted == 2
        assert cache.peek(keys[0]) is None
        assert cache.peek(keys[2]) is not None
        assert cache.stats.evictions == 2

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 4, payload_bytes=1024)
        sizes = {k: s for k, _p, s, _m in cache.iter_entries()}
        for i, k in enumerate(keys):
            os.utime(cache.path_for(k), (1000.0 + i, 1000.0 + i))
        budget = sizes[keys[2]] + sizes[keys[3]]
        report = cache.gc(max_bytes=budget)
        assert report.evicted == 2
        assert cache.peek(keys[0]) is None
        assert cache.peek(keys[1]) is None
        assert cache.peek(keys[2]) is not None
        assert cache.peek(keys[3]) is not None
        assert report.bytes_remaining <= budget

    def test_dry_run_changes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 3)
        report = cache.gc(max_bytes=0, dry_run=True)
        assert report.dry_run
        assert report.evicted == 3
        assert all(cache.peek(k) is not None for k in keys)
        assert cache.stats.evictions == 0
        assert "would evict" in report.as_line()

    def test_age_gc_removes_stale_lease_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 2)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        for k in keys:
            assert leases.claim(k)
            leases.release_done(k)
        for k in keys:
            os.utime(leases.path_for(k), (1000.0, 1000.0))
            os.utime(cache.path_for(k), (1000.0, 1000.0))
        report = cache.gc(max_age_seconds=100.0, now=5000.0)
        assert report.evicted == 2
        assert report.lease_files_removed == 2
        assert leases.read(keys[0]) is None

    def test_size_gc_removes_leases_orphaned_by_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 2, payload_bytes=2048)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        for k in keys:
            assert leases.claim(k)
            leases.release_done(k)
        os.utime(cache.path_for(keys[0]), (1000.0, 1000.0))
        report = cache.gc(max_bytes=3000)
        assert report.evicted == 1
        assert report.lease_files_removed == 1
        assert leases.read(keys[0]) is None
        assert leases.read(keys[1]) is not None

    def test_gc_sweeps_orphaned_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 1)
        orphan = tmp_path / "00" / f"{key(0)}.bin.tmp.12345"
        orphan.write_bytes(b"half-written")
        cache.gc(max_age_seconds=10**9)
        assert not orphan.exists()

    def test_dry_run_keeps_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        fill(cache, 1)
        orphan = tmp_path / "00" / f"{key(0)}.bin.tmp.12345"
        orphan.write_bytes(b"half-written")
        cache.gc(max_bytes=0, dry_run=True)
        assert orphan.exists()

    def test_reader_racing_gc_sees_hit_or_clean_miss(self, tmp_path):
        # gc unlinks whole files; a concurrent get() on the same key
        # must decode a complete entry or take a clean miss — never
        # crash on a torn read.
        cache = ResultCache(tmp_path)
        reader = ResultCache(tmp_path)
        keys = fill(cache, 8)
        import threading

        results = []

        def read_all():
            for _ in range(50):
                for k in keys:
                    results.append(reader.get(k))

        t = threading.Thread(target=read_all)
        t.start()
        cache.gc(max_bytes=0)
        t.join()
        assert all(r is None or isinstance(r, dict) for r in results)

    def test_no_bounds_is_a_noop_for_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 2)
        report = cache.gc()
        assert report.evicted == 0
        assert all(cache.peek(k) is not None for k in keys)


class TestGcConcurrentWithFleet:
    """``cache gc`` racing an active fleet (satellite invariants).

    A gc pass over a cache that a live fleet is using must never evict
    an entry whose cell is under a *live* claimed lease (the worker
    would see its published result vanish mid-run) and never remove a
    heartbeating lease file (that would hand the cell to a second
    worker while the first still computes).  Liveness is judged by the
    lease file's mtime — heartbeats rewrite it — against
    ``lease_grace_seconds``.
    """

    def test_age_gc_spares_live_leased_entry(self, tmp_path):
        import time as time_module

        cache = ResultCache(tmp_path)
        keys = fill(cache, 2)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        assert leases.claim(keys[0])  # live: lease file mtime is now
        now = time_module.time()
        for k in keys:
            os.utime(cache.path_for(k), (now - 5000.0, now - 5000.0))
        report = cache.gc(max_age_seconds=100.0, now=now)
        assert report.evicted == 1
        assert report.leases_live == 1
        assert cache.peek(keys[0]) is not None  # protected
        assert cache.peek(keys[1]) is None
        assert "1 live lease(s) protected" in report.as_line()

    def test_size_gc_spares_live_leased_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = fill(cache, 2, payload_bytes=2048)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        assert leases.claim(keys[0])
        # keys[0] is the older entry — normally first out the door.
        os.utime(cache.path_for(keys[0]), (1000.0, 1000.0))
        report = cache.gc(max_bytes=3000)
        assert report.evicted == 1
        assert cache.peek(keys[0]) is not None
        assert cache.peek(keys[1]) is None

    def test_gc_never_removes_heartbeating_lease(self, tmp_path):
        import time as time_module

        cache = ResultCache(tmp_path)
        keys = fill(cache, 1)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        assert leases.claim(keys[0])
        assert leases.heartbeat(keys[0])  # fresh mtime
        now = time_module.time()
        os.utime(cache.path_for(keys[0]), (now - 5000.0, now - 5000.0))
        report = cache.gc(max_age_seconds=100.0, now=now)
        assert report.lease_files_removed == 0
        assert leases.read(keys[0]).worker_id == "w"
        assert report.leases_live == 1

    def test_stale_claim_past_grace_is_not_protected(self, tmp_path):
        import time as time_module

        cache = ResultCache(tmp_path)
        keys = fill(cache, 1)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        assert leases.claim(keys[0])
        now = time_module.time()
        # The holder stopped heartbeating well past the grace window:
        # the lease no longer pins the entry.
        os.utime(leases.path_for(keys[0]), (now - 500.0, now - 500.0))
        os.utime(cache.path_for(keys[0]), (now - 5000.0, now - 5000.0))
        report = cache.gc(
            max_age_seconds=100.0, now=now, lease_grace_seconds=120.0
        )
        assert report.evicted == 1
        assert report.leases_live == 0
        assert cache.peek(keys[0]) is None

    def test_done_markers_are_not_live(self, tmp_path):
        import time as time_module

        cache = ResultCache(tmp_path)
        keys = fill(cache, 1)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        assert leases.claim(keys[0])
        leases.release_done(keys[0])  # fresh mtime, but status=done
        now = time_module.time()
        os.utime(cache.path_for(keys[0]), (now - 5000.0, now - 5000.0))
        report = cache.gc(max_age_seconds=100.0, now=now)
        assert report.evicted == 1
        assert report.lease_files_removed == 1
        assert report.leases_live == 0

    def test_worker_racing_gc_keeps_computing(self, tmp_path):
        # End-to-end shape of the race: a worker claims, computes and
        # publishes while gc passes run concurrently with an age bound
        # that would evict everything unprotected.  The worker's cell
        # must survive to its release_done.
        import threading
        import time as time_module

        cache = ResultCache(tmp_path)
        keys = fill(cache, 4)
        leases = LeaseStore(tmp_path, run_id="r", worker_id="w")
        assert leases.claim(keys[0])
        now = time_module.time()
        for k in keys:
            os.utime(cache.path_for(k), (now - 5000.0, now - 5000.0))
        stop = threading.Event()

        def gc_loop():
            while not stop.is_set():
                cache.gc(max_age_seconds=100.0)
                time_module.sleep(0.005)

        thread = threading.Thread(target=gc_loop)
        thread.start()
        try:
            for _ in range(10):  # "compute", heartbeating throughout
                assert leases.heartbeat(keys[0])
                assert cache.peek(keys[0]) is not None
                time_module.sleep(0.01)
        finally:
            stop.set()
            thread.join()
        # Stop gc before releasing: a done marker no longer protects
        # the (artificially aged) entry, so a pass landing after
        # release_done may legitimately evict it.
        assert cache.peek(keys[0]) is not None
        leases.release_done(keys[0])
