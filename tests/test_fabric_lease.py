"""Tests for the fabric's work-claiming lease protocol.

The contract under test (see ``repro/fabric/lease.py``):

* exactly one of N racing claimants wins a fresh cell;
* a live holder's lease is not stealable, a stale one is;
* takeover is atomic and self-confirming (the loser of a takeover
  race discovers it);
* done markers journal who computed a cell and survive as provenance
  until ``cache gc`` removes them;
* torn/garbage lease files read as claimable, never crash;
* a dead holder's claim can be expired (taken over at once, takeover
  journalled) or quarantined (never claimed again by the same run).
"""

from __future__ import annotations

import json
import threading
import time

from repro.fabric.lease import CLAIMED, DONE, QUARANTINED, Lease, LeaseStore
from repro.fsutil import atomic_write_text


def make_store(tmp_path, worker="w0", run="run-a", ttl=60.0, clock=None):
    kwargs = {"ttl_seconds": ttl}
    if clock is not None:
        kwargs["clock"] = clock
    return LeaseStore(tmp_path, run_id=run, worker_id=worker, **kwargs)


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


KEY = "ab" + "0" * 62


class TestClaim:
    def test_first_claim_wins(self, tmp_path):
        a = make_store(tmp_path, "a")
        b = make_store(tmp_path, "b")
        assert a.claim(KEY)
        assert not b.claim(KEY)
        lease = b.read(KEY)
        assert lease.status == CLAIMED
        assert lease.worker_id == "a"

    def test_claim_is_exclusive_under_thread_race(self, tmp_path):
        stores = [make_store(tmp_path, f"w{i}") for i in range(8)]
        barrier = threading.Barrier(len(stores))
        wins = []

        def race(store):
            barrier.wait()
            if store.claim(KEY):
                wins.append(store.worker_id)

        threads = [threading.Thread(target=race, args=(s,)) for s in stores]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_done_lease_is_never_claimable(self, tmp_path):
        a = make_store(tmp_path, "a")
        b = make_store(tmp_path, "b")
        assert a.claim(KEY)
        a.release_done(KEY, wall_seconds=1.5)
        assert not b.claim(KEY)
        lease = b.read(KEY)
        assert lease.status == DONE
        assert lease.wall_seconds == 1.5

    def test_garbage_lease_file_reads_as_none(self, tmp_path):
        a = make_store(tmp_path, "a")
        a.path_for(KEY).write_text("{not json", encoding="utf-8")
        assert a.read(KEY) is None
        # and does not crash claim (retries next poll)
        assert not a.claim(KEY)


class TestStaleTakeover:
    def test_fresh_lease_not_stealable(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", ttl=60.0, clock=clock)
        b = make_store(tmp_path, "b", ttl=60.0, clock=clock)
        assert a.claim(KEY)
        clock.advance(30.0)
        assert not b.claim(KEY)

    def test_stale_lease_taken_over(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", ttl=60.0, clock=clock)
        b = make_store(tmp_path, "b", ttl=60.0, clock=clock)
        assert a.claim(KEY)
        clock.advance(61.0)
        assert b.claim(KEY)
        lease = b.read(KEY)
        assert lease.worker_id == "b"
        assert lease.takeovers == 1

    def test_heartbeat_keeps_lease_fresh(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", ttl=60.0, clock=clock)
        b = make_store(tmp_path, "b", ttl=60.0, clock=clock)
        assert a.claim(KEY)
        for _ in range(5):
            clock.advance(40.0)
            assert a.heartbeat(KEY)
            assert not b.claim(KEY)

    def test_original_holder_discovers_theft_via_heartbeat(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", ttl=60.0, clock=clock)
        b = make_store(tmp_path, "b", ttl=60.0, clock=clock)
        assert a.claim(KEY)
        clock.advance(61.0)
        assert b.claim(KEY)
        assert not a.heartbeat(KEY)

    def test_takeover_race_has_exactly_one_winner(self, tmp_path):
        clock = FakeClock()
        holder = make_store(tmp_path, "dead", ttl=10.0, clock=clock)
        assert holder.claim(KEY)
        clock.advance(11.0)
        stealers = [
            make_store(tmp_path, f"s{i}", ttl=10.0, clock=clock) for i in range(6)
        ]
        results = [s.claim(KEY) for s in stealers]
        # every successful claim() must agree with the file's final owner
        final = stealers[0].read(KEY)
        winners = [
            s.worker_id for s, ok in zip(stealers, results) if ok
        ]
        assert winners == [final.worker_id]


class TestRelease:
    def test_release_failed_clears_own_lease(self, tmp_path):
        a = make_store(tmp_path, "a")
        b = make_store(tmp_path, "b")
        assert a.claim(KEY)
        a.release_failed(KEY)
        assert a.read(KEY) is None
        assert b.claim(KEY)

    def test_release_failed_never_clears_others(self, tmp_path):
        a = make_store(tmp_path, "a")
        b = make_store(tmp_path, "b")
        assert a.claim(KEY)
        b.release_failed(KEY)
        assert a.read(KEY) is not None

    def test_done_marker_records_run_identity(self, tmp_path):
        a = make_store(tmp_path, "a", run="run-a")
        assert a.claim(KEY)
        a.release_done(KEY)
        other = make_store(tmp_path, "x", run="run-b")
        lease = other.read(KEY)
        assert lease.run_id == "run-a"
        assert lease.status == DONE


class TestSupervisorMoves:
    def test_expired_claim_is_taken_over_at_once(self, tmp_path):
        dead = make_store(tmp_path, worker="dead")
        assert dead.claim("k")
        peer = make_store(tmp_path, worker="peer")
        assert not peer.claim("k")  # fresh: the TTL would protect it
        supervisor = make_store(tmp_path, worker="supervisor")
        supervisor.expire("k", holder="someone-else")
        assert not peer.claim("k")  # not the named holder's claim
        supervisor.expire("k", holder="dead")
        assert peer.claim("k")
        lease = peer.read("k")
        assert lease.worker_id == "peer" and lease.takeovers == 1

    def test_expire_leaves_done_markers_alone(self, tmp_path):
        owner = make_store(tmp_path, worker="w0")
        assert owner.claim("k")
        owner.release_done("k")
        make_store(tmp_path, worker="supervisor").expire("k", holder="w0")
        assert owner.read("k").status == DONE

    def test_quarantined_cell_is_never_claimable(self, tmp_path):
        holder = make_store(tmp_path, worker="w0")
        assert holder.claim("k")
        make_store(tmp_path, worker="supervisor").quarantine("k")
        clock = FakeClock(start=time.time() + 10_000.0)  # far past any TTL
        assert not make_store(tmp_path, worker="w1", clock=clock).claim("k")
        assert holder.read("k").status == QUARANTINED
        assert not holder.heartbeat("k")


class TestLeaseSerialization:
    def test_round_trip(self):
        lease = Lease(
            key=KEY, status=CLAIMED, run_id="r", worker_id="w", pid=1,
            host="h", claimed_at=1.0, heartbeat_at=2.0, takeovers=3,
            wall_seconds=4.0,
        )
        assert Lease.from_dict(lease.to_dict()) == lease

    def test_from_dict_ignores_unknown_fields(self):
        data = {
            "key": KEY, "status": DONE, "run_id": "r", "worker_id": "w",
            "pid": 1, "host": "h", "claimed_at": 1.0, "heartbeat_at": 2.0,
            "future_field": "ignored",
        }
        lease = Lease.from_dict(data)
        assert lease.status == DONE

    def test_lease_file_is_sorted_json(self, tmp_path):
        a = make_store(tmp_path, "a")
        assert a.claim(KEY)
        data = json.loads(a.path_for(KEY).read_text(encoding="utf-8"))
        assert list(data) == sorted(data)


class TestClockSteps:
    """Staleness under wall-clock steps (NTP corrections, VM resume).

    Regression tests for the monotonic-observation layer: a backwards
    wall-clock step must neither grant spurious takeovers (negative
    ages clamp to fresh) nor pin a dead holder's lease fresh forever
    (a heartbeat that stays unchanged for a full TTL of *local
    monotonic* time is stale whatever the wall clock says).
    """

    def _stores(self, tmp_path, wall, mono, ttl=60.0):
        a = LeaseStore(
            tmp_path, run_id="run-a", worker_id="a", ttl_seconds=ttl,
            clock=wall, monotonic=mono,
        )
        b = LeaseStore(
            tmp_path, run_id="run-a", worker_id="b", ttl_seconds=ttl,
            clock=wall, monotonic=mono,
        )
        return a, b

    def test_negative_heartbeat_age_clamps_to_fresh(self, tmp_path):
        wall, mono = FakeClock(), FakeClock(start=0.0)
        a, b = self._stores(tmp_path, wall, mono)
        assert a.claim(KEY)
        wall.now -= 3600.0  # observer's clock steps back an hour
        lease = b.read(KEY)
        assert lease.age(wall()) == 0.0
        assert not lease.is_stale(wall(), 60.0)

    def test_backwards_step_does_not_grant_takeover(self, tmp_path):
        wall, mono = FakeClock(), FakeClock(start=0.0)
        a, b = self._stores(tmp_path, wall, mono)
        assert a.claim(KEY)
        wall.now -= 3600.0
        mono.advance(30.0)  # under a TTL of real time has passed
        assert not b.claim(KEY)
        assert b.read(KEY).worker_id == "a"

    def test_monotonic_observation_unpins_dead_holder(self, tmp_path):
        # The holder dies, then the observer's wall clock steps back
        # past the heartbeat: wall arithmetic reads the lease fresh
        # forever, but a full TTL of monotonic silence must still
        # declare it stale and allow the takeover.
        wall, mono = FakeClock(), FakeClock(start=0.0)
        a, b = self._stores(tmp_path, wall, mono)
        assert a.claim(KEY)
        wall.now -= 3600.0  # heartbeat_at is now an hour in our future
        assert not b.claim(KEY)  # first observation always reads fresh
        mono.advance(61.0)  # a full TTL of real time, no heartbeat
        assert b.claim(KEY)
        lease = b.read(KEY)
        assert lease.worker_id == "b"
        assert lease.takeovers == 1

    def test_fresh_heartbeat_resets_monotonic_observation(self, tmp_path):
        wall, mono = FakeClock(), FakeClock(start=0.0)
        a, b = self._stores(tmp_path, wall, mono)
        assert a.claim(KEY)
        wall.now -= 3600.0
        assert not b.claim(KEY)
        mono.advance(50.0)
        assert a.heartbeat(KEY)  # holder is alive after all
        mono.advance(50.0)  # 100s total, but only 50s since new beat
        assert not b.claim(KEY)
        mono.advance(61.0)
        assert b.claim(KEY)

    def test_garbage_lease_cleared_only_after_ttl(self, tmp_path):
        # A torn lease file (non-atomic external writer) reads as None
        # and can never be heartbeat; claim() clears it once it has
        # stayed garbage for a TTL, but never sooner — a brand-new
        # unreadable file may be a racing winner mid-write.
        import time as time_module

        clock = FakeClock(start=time_module.time())
        a = make_store(tmp_path, "a", ttl=60.0, clock=clock)
        path = a.path_for(KEY)
        path.write_text("{not json", encoding="utf-8")
        assert not a.claim(KEY)
        assert path.exists()  # too fresh to judge
        clock.advance(61.0)
        assert not a.claim(KEY)  # this attempt clears the garbage...
        assert not path.exists()
        assert a.claim(KEY)  # ...and the next one claims cleanly
        assert a.read(KEY).worker_id == "a"


class TestAtomicLeaseWrites:
    def test_two_threads_on_one_path_never_tear(self, tmp_path):
        # Regression: a worker's heartbeat thread and its compute
        # thread both atomic-write the same lease file.  With a tmp
        # name keyed by pid alone they shared one tmp file, and the
        # interleaved bytes were renamed into place — the chaos audit
        # caught a lease ending in "}}".  Tmp names are per-thread
        # now, so every observed state must be one complete body.
        path = tmp_path / f"{KEY}.lease"
        bodies = [
            '{"status": "claimed", "padding": "xxxxxxxxxxxxxxxx"}',
            '{"status": "done"}',
        ]
        stop = threading.Event()

        def hammer(body):
            while not stop.is_set():
                atomic_write_text(path, body)

        threads = [
            threading.Thread(target=hammer, args=(b,)) for b in bodies
        ]
        for t in threads:
            t.start()
        torn = []
        deadline = time.monotonic() + 1.0
        try:
            while time.monotonic() < deadline:
                try:
                    text = path.read_text(encoding="utf-8")
                except OSError:
                    continue
                if text not in bodies:
                    torn.append(text)
                    break
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
        assert not torn, f"torn lease body observed: {torn[0]!r}"


class TestDoneMarkerTakeovers:
    def test_done_marker_inherits_takeover_count(self, tmp_path):
        clock = FakeClock()
        a = make_store(tmp_path, "a", ttl=60.0, clock=clock)
        b = make_store(tmp_path, "b", ttl=60.0, clock=clock)
        assert a.claim(KEY)
        clock.advance(61.0)
        assert b.claim(KEY)
        b.release_done(KEY, wall_seconds=2.0)
        marker = b.read(KEY)
        assert marker.status == DONE
        assert marker.takeovers == 1

    def test_resumed_original_holder_preserves_journal(self, tmp_path):
        # The original holder resumes after its lease was stolen and
        # the thief already published: the holder's own release_done
        # must not reset the journal's takeover count to zero.
        clock = FakeClock()
        a = make_store(tmp_path, "a", ttl=60.0, clock=clock)
        b = make_store(tmp_path, "b", ttl=60.0, clock=clock)
        assert a.claim(KEY)
        clock.advance(61.0)
        assert b.claim(KEY)
        b.release_done(KEY, wall_seconds=2.0)
        a.release_done(KEY, wall_seconds=9.0)  # resumed original
        marker = a.read(KEY)
        assert marker.status == DONE
        assert marker.takeovers == 1


class TestHeartbeatDrop:
    def test_refresh_in_flight_never_lands_over_done_marker(self, tmp_path):
        """A refresh that read the claim just before ``release_done``
        must finish before ``drop`` returns, not after the marker."""
        from repro.fabric.worker import WorkerStats, _Heartbeat

        entered = threading.Event()
        resume = threading.Event()

        class StallingStore(LeaseStore):
            stall_next_read = False

            def read(self, key):
                lease = super().read(key)
                if self.stall_next_read:
                    # The heartbeat thread, between reading the claim
                    # and rewriting it.
                    self.stall_next_read = False
                    entered.set()
                    resume.wait(5.0)
                return lease

            def heartbeat(self, key):
                self.stall_next_read = True
                return super().heartbeat(key)

        store = StallingStore(tmp_path, run_id="run-a", worker_id="w0", ttl_seconds=0.15)
        assert store.claim("k")
        beat = _Heartbeat(store, WorkerStats(worker_id="w0"))
        with beat:
            beat.hold("k")
            assert entered.wait(5.0), "the heartbeat thread never refreshed"

            def publish():
                beat.drop("k")
                store.release_done("k")

            publisher = threading.Thread(target=publish)
            publisher.start()
            publisher.join(0.5)
            # drop() is waiting for the stalled refresh to finish.
            assert publisher.is_alive()
            resume.set()
            publisher.join(5.0)
            assert not publisher.is_alive()
            time.sleep(0.2)  # a few more heartbeat intervals
        assert store.read("k").status == DONE
