"""Content-addressed on-disk cache for experiment results.

Sweeping the paper's (scenario x policy x scheduler) grids recomputes
identical multi-second simulations on every invocation.  This module
memoizes those runs: a cell's output (its
:class:`~repro.metrics.summary.PerformanceSummary`, optionally the full
:class:`~repro.simulator.results.SimulationResult`) is stored under a
key derived purely from the cell's *content* —

* the scenario (name, seed, and a structural fingerprint of its cluster
  and every trace job — or, for a
  :class:`~repro.workload.scenarios.ScenarioRecipe`, its builder,
  arguments and the generator version),
* the policy (class, selector, wait threshold, name),
* the initial scheduler,
* the :class:`~repro.simulator.config.SimulationConfig` (every field
  except the observer; configs with an observer attached are never
  cached because observers have side effects),
* an engine-version salt (:func:`engine_salt`), so upgrading the
  simulator invalidates every stale entry at once.

Because the key is content-addressed, any change to any input — one
extra trace job, a different wait threshold, a new package version —
misses the cache and recomputes; identical reruns hit it and return in
milliseconds.

Entries are self-verifying: each file carries a magic header and a
SHA-256 digest of its payload.  A corrupt, truncated, or undeserializable
entry is detected on load, evicted from disk, and reported as a miss so
the caller transparently recomputes (see ``tests/test_cache.py`` for
the hygiene contract).

The same hashing machinery also provides :func:`derive_cell_seed`:
spawn-key-style child seeds derived from (base seed, cell identity), so
every grid cell gets an independent random stream no matter which
worker runs it, or in which order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import time
import weakref
from pathlib import Path
from typing import Any, Dict, Optional

from .._version import __version__
from ..errors import CacheError
from ..fsutil import atomic_write_bytes, tmp_writer_alive
from ..workload.scenarios import GENERATOR_VERSION, ScenarioRecipe

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheDiskStats",
    "CacheGcReport",
    "CacheStats",
    "LEASE_GRACE_SECONDS",
    "ResultCache",
    "cell_cache_key",
    "derive_cell_seed",
    "engine_salt",
    "open_cache",
    "resolve_cache_dir",
    "stable_hash",
]

#: Bump when the on-disk entry layout changes (entries with another
#: schema are evicted on load).  The version is part of
#: :func:`engine_salt`, so a bump also retires every cache key.
#: 2: ``JobRecord``/``StateSample`` became slotted; a schema-1 pickle
#: of either unpickles *without error* into a corrupt record (its dict
#: state zipped onto the slots), so those entries must never load.
#: 3: the records became named tuples; a schema-2 record pickle now
#: fails to load (``TypeError``) instead of loading corrupt.
#: 4: a recipe cell's key hashes its recipe, not its trace and cluster.
CACHE_SCHEMA_VERSION = 4

#: File magic identifying a repro cache entry.
_MAGIC = b"repro-cache\x00"

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def engine_salt() -> str:
    """Version salt mixed into every cache key.

    Keyed on the package version: releasing a new version (which is how
    engine-semantics changes ship) invalidates all previously cached
    results, so a cache can never serve summaries produced by an older
    simulator.
    """
    return f"repro/{__version__}/schema{CACHE_SCHEMA_VERSION}"


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Dataclasses become ``[qualified-class-name, {field: value}]`` so two
    different classes with identical fields never collide; floats use
    ``repr`` for bit-exactness; unknown objects fall back to their class
    name plus ``repr``.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
        return [f"{type(obj).__module__}.{type(obj).__qualname__}", fields]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda i: str(i[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, float):
        return f"f:{obj!r}"
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, type):
        return f"{obj.__module__}.{obj.__qualname__}"
    return [f"{type(obj).__module__}.{type(obj).__qualname__}", repr(obj)]


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical form.

    Stable across processes and Python versions (never uses the salted
    builtin ``hash``).
    """
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


#: Per-Trace fingerprint memo, keyed by object id (Trace is immutable
#: but defines value equality without hashability).  Hashing one
#: 10k-job trace once per process — instead of once per grid cell —
#: keeps cache-hit latency in the milliseconds; weakref callbacks drop
#: entries as soon as the trace itself is garbage.
_TRACE_FP_MEMO: Dict[int, tuple] = {}


def _trace_fingerprint(trace) -> str:
    """SHA-256 over every field of every job, memoized per trace object."""
    memo_key = id(trace)
    entry = _TRACE_FP_MEMO.get(memo_key)
    if entry is not None and entry[0]() is trace:
        return entry[1]
    hasher = hashlib.sha256()
    for j in trace.jobs:
        hasher.update(
            (
                f"{j.job_id}|{j.submit_minute!r}|{j.runtime_minutes!r}|{j.priority}"
                f"|{j.cores}|{j.memory_gb!r}|{j.os_family}|{j.candidate_pools}"
                f"|{j.task_id}|{j.user}\n"
            ).encode()
        )
    digest = hasher.hexdigest()
    try:
        ref = weakref.ref(trace, lambda _: _TRACE_FP_MEMO.pop(memo_key, None))
        _TRACE_FP_MEMO[memo_key] = (ref, digest)
    except TypeError:
        pass
    return digest


def _scenario_fingerprint(scenario) -> Dict[str, Any]:
    """Content fingerprint of a scenario: identity plus cluster + trace,
    or plus the recipe of a recipe or of a scenario that carries one.

    Trace-replay scenarios (:class:`~repro.workload.traces.TraceScenario`)
    carry a precomputed ``trace_digest`` — a SHA-256 of the *source trace
    bytes plus the replay spec* — which already uniquely identifies the
    materialised jobs.  Using it keeps cache-key construction O(1) in
    trace size instead of re-hashing every job of a real-log replay.
    """
    identity = {
        "name": scenario.name,
        "seed": scenario.seed,
        "wait_threshold": scenario.wait_threshold,
    }
    recipe = scenario if isinstance(scenario, ScenarioRecipe) else getattr(scenario, "recipe", None)
    if recipe is not None:
        # What a recipe builds is fixed by its builder, its arguments
        # and the generator version; hashing those builds nothing, and
        # a built scenario that carries its recipe shares the key.
        identity["recipe"] = [recipe.builder, _canonical(recipe.args), recipe.cores_halved]
        identity["generator"] = GENERATOR_VERSION
        return identity
    digest = getattr(scenario, "trace_digest", None)
    identity["cluster"] = stable_hash(tuple(scenario.cluster))
    identity["trace"] = digest if digest is not None else _trace_fingerprint(scenario.trace)
    return identity


def _policy_fingerprint(policy) -> Dict[str, Any]:
    """Fingerprint of a policy: class, name, selector, threshold."""
    fp: Dict[str, Any] = {
        "class": f"{type(policy).__module__}.{type(policy).__qualname__}",
        "name": policy.name,
    }
    selector = getattr(policy, "selector", None) or getattr(policy, "_selector", None)
    if selector is not None:
        fp["selector"] = _canonical(selector)
    threshold = getattr(policy, "wait_threshold", None)
    if threshold is not None:
        fp["wait_threshold"] = f"f:{threshold!r}"
    return fp


def _scheduler_fingerprint(scheduler) -> Dict[str, Any]:
    """Fingerprint of an initial scheduler (``None`` = engine default)."""
    if scheduler is None:
        return {"class": "default", "name": "RoundRobin"}
    return {
        "class": f"{type(scheduler).__module__}.{type(scheduler).__qualname__}",
        "name": scheduler.name,
    }


def _config_fingerprint(config) -> Optional[Dict[str, Any]]:
    """Fingerprint of a SimulationConfig; ``None`` = not cacheable."""
    instrumentation = getattr(config, "instrumentation", None)
    if instrumentation is not None and instrumentation.enabled:
        # Observers and metrics registries consume a live event stream;
        # a cache hit would silently swallow it.
        return None
    skip = {"observer", "instrumentation"}
    faults = getattr(config, "faults", None)
    if faults is not None and not faults.enabled:
        # A disabled fault model cannot influence the result; excluding
        # it keeps cache keys bit-identical to builds without the fault
        # subsystem (and to entries written by them).
        skip.add("faults")
    fields = {
        f.name: _canonical(getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name not in skip
    }
    return fields


def cell_cache_key(scenario, policy, scheduler, config) -> Optional[str]:
    """Content-addressed key for one (scenario, policy, scheduler) cell.

    Returns ``None`` when the cell must not be cached (currently: the
    config carries live instrumentation — observers or a metrics
    registry — whose event stream a cache hit would silently swallow).
    """
    config_fp = _config_fingerprint(config)
    if config_fp is None:
        return None
    return stable_hash(
        {
            "salt": engine_salt(),
            "scenario": _scenario_fingerprint(scenario),
            "policy": _policy_fingerprint(policy),
            "scheduler": _scheduler_fingerprint(scheduler),
            "config": config_fp,
        }
    )


def derive_cell_seed(base_seed: int, cell_id: str) -> int:
    """Spawn-key-style child seed for one grid cell.

    The seed depends only on (base seed, cell identity) — never on call
    order or worker scheduling — so a cell's random streams are the same
    whether the grid runs serially, in any parallel interleaving, or as
    a single re-run of that one cell.  Two cells sharing a scenario but
    differing in policy or scheduler get distinct, independent streams.
    """
    digest = hashlib.sha256(f"{base_seed}|cell|{cell_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_cache_dir(cache_dir: Optional[object] = None) -> Optional[Path]:
    """Resolve the cache directory: explicit argument, else ``REPRO_CACHE_DIR``."""
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else None


def open_cache(
    cache_dir: Optional[object] = None, use_cache: Optional[bool] = None
) -> Optional["ResultCache"]:
    """Open the result cache per the standard resolution rules.

    ``use_cache=False`` always returns ``None``; ``use_cache=True``
    requires a directory (argument or ``REPRO_CACHE_DIR``) and raises
    otherwise; ``use_cache=None`` enables caching exactly when a
    directory is configured and ``REPRO_NO_CACHE`` is not set.
    """
    from . import presets

    if use_cache is False:
        return None
    resolved = resolve_cache_dir(cache_dir)
    if use_cache is None:
        if resolved is None or presets.no_cache():
            return None
        return ResultCache(resolved)
    if resolved is None:
        raise CacheError(
            "use_cache=True needs a cache directory (cache_dir argument or "
            f"the {CACHE_DIR_ENV} environment variable)"
        )
    return ResultCache(resolved)


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache instance (observable speedup evidence)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_line(self) -> str:
        """One-line human-readable rendering for CLI/benchmark logs."""
        return (
            f"cache: {self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), {self.evictions} eviction(s)"
        )


@dataclasses.dataclass(frozen=True)
class CacheDiskStats:
    """What one cache directory holds on disk right now."""

    entries: int
    total_bytes: int
    oldest_age_seconds: float
    newest_age_seconds: float
    lease_files: int

    def as_line(self) -> str:
        """One-line human-readable rendering for the CLI."""
        mb = self.total_bytes / (1024.0 * 1024.0)
        return (
            f"{self.entries} entr{'y' if self.entries == 1 else 'ies'}, "
            f"{mb:.1f} MB, oldest {self.oldest_age_seconds / 3600.0:.1f}h, "
            f"{self.lease_files} lease file(s)"
        )


#: A ``claimed`` fabric lease whose file was rewritten (heartbeat)
#: within this many seconds is *live*: gc must not evict its entry or
#: steal its lease, no matter what the age/size bounds say.  Generous
#: relative to worker heartbeat cadence (TTL/3) on purpose — gc racing
#: an active fleet should err toward keeping a cell.
LEASE_GRACE_SECONDS = 120.0


@dataclasses.dataclass(frozen=True)
class CacheGcReport:
    """What one :meth:`ResultCache.gc` pass did (or would do)."""

    scanned: int
    evicted: int
    bytes_freed: int
    bytes_remaining: int
    lease_files_removed: int
    dry_run: bool = False
    #: Entries/leases protected because a worker holds a live claim.
    leases_live: int = 0

    def as_line(self) -> str:
        """One-line human-readable rendering for the CLI."""
        verb = "would evict" if self.dry_run else "evicted"
        freed = self.bytes_freed / (1024.0 * 1024.0)
        kept = self.bytes_remaining / (1024.0 * 1024.0)
        line = (
            f"{verb} {self.evicted}/{self.scanned} entr"
            f"{'y' if self.evicted == 1 else 'ies'} ({freed:.1f} MB), "
            f"{kept:.1f} MB remaining, "
            f"{self.lease_files_removed} lease file(s) removed"
        )
        if self.leases_live:
            line += f", {self.leases_live} live lease(s) protected"
        return line


class ResultCache:
    """A directory of self-verifying pickled experiment results.

    Layout: ``<root>/<key[:2]>/<key>.bin`` where ``key`` is the 64-char
    hex cell key.  Each file is ``MAGIC + sha256(payload) + payload``
    with the payload a pickle of ``{"schema": .., "salt": ..,
    "value": ..}``.  Writes are atomic (temp file + ``os.replace``) so a
    crashed or concurrent writer can never publish a torn entry.

    ``<root>/leases/`` (when present) belongs to the distributed fabric
    (:mod:`repro.fabric`): one small JSON file per in-flight or
    completed work claim.  :meth:`gc` cleans both populations.
    """

    #: Subdirectory the fabric's work-claiming protocol writes into.
    LEASES_DIRNAME = "leases"

    def __init__(self, root) -> None:
        if root is None:
            raise CacheError("ResultCache needs a directory; got None")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """On-disk path of the entry for ``key``."""
        return self.root / key[:2] / f"{key}.bin"

    @property
    def leases_dir(self) -> Path:
        """Directory the fabric's lease files live in (may not exist)."""
        return self.root / self.LEASES_DIRNAME

    def get(self, key: str) -> Optional[Any]:
        """Load the value for ``key``; ``None`` (and a miss) if absent.

        A present-but-invalid entry — bad magic, checksum mismatch,
        wrong schema, stale engine salt, or an unpicklable payload — is
        evicted from disk and reported as a miss, so callers always fall
        through to recomputation instead of crashing or returning
        garbage.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        value = self._decode(blob)
        if value is None:
            self._evict(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically."""
        payload = pickle.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "salt": engine_salt(), "value": value},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, blob)
        self.stats.stores += 1

    @staticmethod
    def _payload(blob: bytes) -> Optional[memoryview]:
        """An entry's pickled payload, if its header and digest verify."""
        header_len = len(_MAGIC) + 32
        if len(blob) <= header_len or not blob.startswith(_MAGIC):
            return None
        payload = memoryview(blob)[header_len:]
        if hashlib.sha256(payload).digest() != blob[len(_MAGIC) : header_len]:
            return None
        return payload

    def _decode(self, blob: bytes) -> Optional[Any]:
        """Verify and unpickle one entry; ``None`` on any defect."""
        payload = self._payload(blob)
        if payload is None:
            return None
        try:
            envelope = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if envelope.get("salt") != engine_salt():
            return None
        return envelope.get("value")

    def peek(self, key: str) -> Optional[Any]:
        """Load the value for ``key`` without touching :attr:`stats`.

        The fabric coordinator polls the cache while workers publish
        results; those polls must not distort the run's hit/miss
        economics.  Unlike :meth:`get`, a defective entry is left on
        disk untouched (the next real :meth:`get` evicts it).
        """
        try:
            blob = self.path_for(key).read_bytes()
        except OSError:
            return None
        return self._decode(blob)

    def contains(self, key: str) -> bool:
        """Whether ``key`` has an entry whose digest verifies.

        :meth:`peek` without the unpickling, which for a kept
        year-long result costs hundreds of megabytes: a fabric worker
        asks only whether a cell is published.
        """
        try:
            blob = self.path_for(key).read_bytes()
        except OSError:
            return False
        return self._payload(blob) is not None

    def iter_entries(self):
        """Yield ``(key, path, size_bytes, mtime)`` for every entry on disk.

        Deterministic order (sorted by key); skips files that vanish
        mid-scan (a concurrent gc or eviction), tmp droppings, and
        anything that is not shaped like ``<2-hex>/<key>.bin``.
        """
        shards = sorted(
            p
            for p in self.root.iterdir()
            if p.is_dir() and len(p.name) == 2 and p.name != self.LEASES_DIRNAME
        )
        for shard in shards:
            for path in sorted(shard.glob("*.bin")):
                key = path.stem
                if not key.startswith(shard.name):
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue
                yield key, path, st.st_size, st.st_mtime

    def _lease_files(self):
        """All fabric lease files under this cache root (sorted)."""
        if not self.leases_dir.is_dir():
            return []
        return sorted(p for p in self.leases_dir.iterdir() if p.is_file())

    def _live_lease_keys(self, now: float, grace: float) -> set:
        """Keys whose lease is a recently-heartbeaten ``claimed`` claim.

        A claimed lease is judged live by its *file mtime* (the holder
        rewrites the file on every heartbeat), not by the wall-clock
        timestamps inside it — mtime and ``now`` come from the same
        local clock, so a worker on a host with a stepped clock still
        keeps its claim protected.  ``done`` markers are never live:
        they journal finished work and are fair game for cleanup.
        """
        live = set()
        for lease_path in self._lease_files():
            if not lease_path.name.endswith(".lease"):
                continue
            try:
                age = now - lease_path.stat().st_mtime
                data = json.loads(lease_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            if data.get("status") == "claimed" and age <= grace:
                live.add(lease_path.name[: -len(".lease")])
        return live

    def disk_stats(self, now: Optional[float] = None) -> CacheDiskStats:
        """Scan the directory and report what it holds."""
        now = time.time() if now is None else now
        entries = 0
        total = 0
        oldest = None
        newest = None
        for _key, _path, size, mtime in self.iter_entries():
            entries += 1
            total += size
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        return CacheDiskStats(
            entries=entries,
            total_bytes=total,
            oldest_age_seconds=max(0.0, now - oldest) if oldest is not None else 0.0,
            newest_age_seconds=max(0.0, now - newest) if newest is not None else 0.0,
            lease_files=len(self._lease_files()),
        )

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
        lease_grace_seconds: float = LEASE_GRACE_SECONDS,
    ) -> CacheGcReport:
        """Evict entries until the cache satisfies the given bounds.

        Age-based eviction (``max_age_seconds``) runs first, then
        size-based eviction (``max_bytes``) removes the
        oldest-modified entries until the directory fits.  Each file is
        removed individually with :meth:`Path.unlink` — readers racing
        the gc either see the complete entry or a clean miss, never a
        torn file.  Orphaned atomic-write temp files and *settled*
        fabric lease files (older than ``max_age_seconds``, or all of
        them when only ``max_bytes`` is given and the entry they
        journal is gone) are cleaned up alongside.

        gc is safe to run concurrently with an active worker fleet: a
        cell whose lease is ``claimed`` and recently heartbeaten
        (within ``lease_grace_seconds`` of file mtime) is *live* — its
        entry is never evicted and its lease never removed, whatever
        the age/size bounds say.  At worst a protected cell makes a
        ``max_bytes`` pass overshoot its target until the claim
        settles.
        """
        now = time.time() if now is None else now
        live = self._live_lease_keys(now, lease_grace_seconds)
        entries = list(self.iter_entries())
        total = sum(size for _k, _p, size, _m in entries)
        doomed = []
        survivors = []
        for entry in entries:
            key, _path, _size, mtime = entry
            if (
                max_age_seconds is not None
                and now - mtime > max_age_seconds
                and key not in live
            ):
                doomed.append(entry)
            else:
                survivors.append(entry)
        if max_bytes is not None:
            kept_bytes = sum(size for _k, _p, size, _m in survivors)
            evictable = sorted(
                (e for e in survivors if e[0] not in live),
                key=lambda e: e[3],  # oldest mtime first
            )
            while evictable and kept_bytes > max_bytes:
                victim = evictable.pop(0)
                doomed.append(victim)
                kept_bytes -= victim[2]
        freed = 0
        evicted = 0
        doomed_keys = set()
        for key, path, size, _mtime in doomed:
            doomed_keys.add(key)
            if dry_run:
                evicted += 1
                freed += size
                continue
            try:
                path.unlink(missing_ok=True)
                evicted += 1
                freed += size
                self.stats.evictions += 1
            except OSError:
                continue
        lease_removed = 0
        for lease_path in self._lease_files():
            try:
                age = now - lease_path.stat().st_mtime
            except OSError:
                continue
            if lease_path.stem in live:
                # A heartbeating claim is never swept, even by an
                # aggressive --max-age: the holder is computing right
                # now and stealing its lease would duplicate the work.
                continue
            stale = max_age_seconds is not None and age > max_age_seconds
            orphaned = lease_path.stem in doomed_keys
            if not (stale or orphaned):
                continue
            if dry_run:
                lease_removed += 1
                continue
            try:
                lease_path.unlink(missing_ok=True)
                lease_removed += 1
            except OSError:
                continue
        if not dry_run:
            self._sweep_tmp_files()
        return CacheGcReport(
            scanned=len(entries),
            evicted=evicted,
            bytes_freed=freed,
            bytes_remaining=total - freed,
            lease_files_removed=lease_removed,
            dry_run=dry_run,
            leases_live=len(live),
        )

    def _sweep_tmp_files(self) -> None:
        """Remove orphaned atomic-write temp files (crashed writers).

        A tmp file whose writer still runs is an in-flight write (a
        lease heartbeat or a publish) and is left for it to rename.
        """
        for path in self.root.glob("*/*.tmp.*"):
            if tmp_writer_alive(path):
                continue
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass

    def _evict(self, path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
            self.stats.evictions += 1
        except OSError:
            pass
