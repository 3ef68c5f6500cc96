"""Atomic file writes: a reader (or a crash) never sees a torn file.

Every on-disk artifact the library produces — cache entries, telemetry
exports, lease files — goes through :mod:`repro.fsutil`, which
writes to a same-directory temp file and ``os.replace``s it into place.
These tests pin the contract: full content or nothing, no temp litter,
and graceful degradation when a crash *does* leave partial bytes (by
simulating a SIGKILL mid-write).
"""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.fsutil import atomic_write_bytes, atomic_write_text


class TestAtomicWrite:
    def test_bytes_round_trip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"\x00\x01payload")
        assert path.read_bytes() == b"\x00\x01payload"

    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "héllo\nwörld\n")
        assert path.read_text(encoding="utf-8") == "héllo\nwörld\n"

    def test_overwrites_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "x")
        atomic_write_bytes(tmp_path / "b.bin", b"y")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]

    def test_failed_write_leaves_target_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "survivor")

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            atomic_write_text(path, "clobber")
        monkeypatch.undo()
        # the original content survived and the temp file was cleaned up
        assert path.read_text() == "survivor"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestSigkillMidWrite:
    """Simulate a writer killed between ``write`` and ``os.replace``."""

    def _partial(self, path, data, fraction=0.5):
        path.write_bytes(data[: int(len(data) * fraction)])

    def test_cache_survives_torn_entry(self, tmp_path, smoke_scenario):
        import repro
        from repro.experiments.cache import ResultCache, cell_cache_key
        from repro.simulator.config import SimulationConfig

        cache = ResultCache(tmp_path / "cache")
        config = SimulationConfig(strict=False)
        key = cell_cache_key(smoke_scenario, repro.no_res(), None, config)
        cache.put(key, {"summary": "something"})
        entry = cache.path_for(key)

        # SIGKILL mid-write: the entry file holds half its bytes.
        self._partial(entry, entry.read_bytes())
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get(key) is None  # torn entry reads as a miss
        fresh.put(key, {"summary": "rewritten"})
        assert fresh.get(key) == {"summary": "rewritten"}


class TestTelemetryExportsAreAtomic:
    def test_jsonl_snapshot_is_complete_json_per_line(self, tmp_path):
        from repro.telemetry.exporters import write_jsonl_snapshot
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("demo_total", "demo")
        counter.inc(3)
        path = tmp_path / "metrics.jsonl"
        write_jsonl_snapshot(registry, path)
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)  # every line parses: never half-written

    def test_prometheus_export_written_atomically(self, tmp_path, monkeypatch):
        from repro.telemetry import exporters
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").inc()
        path = tmp_path / "metrics.prom"
        exporters.write_prometheus(registry, path)
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", exploding_replace)
        registry.counter("demo_total", "demo").inc()
        with pytest.raises(OSError):
            exporters.write_prometheus(registry, path)
        monkeypatch.undo()
        assert path.read_text() == before  # old export intact, not torn


class TestValidation:
    def test_rejects_directory_target(self, tmp_path):
        with pytest.raises((ConfigurationError, OSError, IsADirectoryError)):
            atomic_write_text(tmp_path, "nope")
