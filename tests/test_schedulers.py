"""Unit tests for repro.schedulers (initial schedulers, eligibility)."""

import pytest

from repro.core.context import PoolSnapshot, StaticSystemView
from repro.schedulers.eligibility import machine_eligible
from repro.schedulers.initial import (
    INITIAL_SCHEDULER_NAMES,
    LeastWaitingScheduler,
    RandomInitialScheduler,
    RoundRobinScheduler,
    UtilizationBasedScheduler,
    initial_scheduler_from_name,
)

from conftest import make_job, make_machine


def snap(pool_id, busy, total=10, waiting=0):
    return PoolSnapshot(pool_id, total, busy, waiting, 0)


def view(*snapshots, seed=0):
    return StaticSystemView(now=0.0, snapshots=list(snapshots), seed=seed)


class TestEligibility:
    def test_os_must_match(self):
        machine = make_machine(os_family="linux")
        assert machine_eligible(machine, make_job(1, os_family="linux"))
        assert not machine_eligible(machine, make_job(1, os_family="windows"))

    def test_total_cores_and_memory(self):
        machine = make_machine(cores=4, memory_gb=8.0)
        assert machine_eligible(machine, make_job(1, cores=4, memory_gb=8.0))
        assert not machine_eligible(machine, make_job(1, cores=5))
        assert not machine_eligible(machine, make_job(1, memory_gb=9.0))


class TestRoundRobin:
    def test_cycles_through_candidates(self):
        scheduler = RoundRobinScheduler()
        v = view(snap("a", 0), snap("b", 0), snap("c", 0))
        candidates = ("a", "b", "c")
        assert scheduler.order(candidates, v)[0] == "a"
        assert scheduler.order(candidates, v)[0] == "b"
        assert scheduler.order(candidates, v)[0] == "c"
        assert scheduler.order(candidates, v)[0] == "a"

    def test_order_is_rotation(self):
        scheduler = RoundRobinScheduler()
        v = view(snap("a", 0), snap("b", 0), snap("c", 0))
        scheduler.order(("a", "b", "c"), v)
        assert scheduler.order(("a", "b", "c"), v) == ["b", "c", "a"]

    def test_separate_cursor_per_candidate_set(self):
        scheduler = RoundRobinScheduler()
        v = view(snap("a", 0), snap("b", 0), snap("c", 0))
        assert scheduler.order(("a", "b"), v)[0] == "a"
        assert scheduler.order(("a", "c"), v)[0] == "a"  # own cursor
        assert scheduler.order(("a", "b"), v)[0] == "b"

    def test_empty_candidates(self):
        assert RoundRobinScheduler().order((), view(snap("a", 0))) == []


class TestUtilizationBased:
    def test_orders_by_increasing_utilization(self):
        scheduler = UtilizationBasedScheduler()
        v = view(snap("a", 8), snap("b", 2), snap("c", 5))
        assert scheduler.order(("a", "b", "c"), v) == ["b", "c", "a"]

    def test_tie_broken_by_id(self):
        scheduler = UtilizationBasedScheduler()
        v = view(snap("b", 2), snap("a", 2))
        assert scheduler.order(("b", "a"), v) == ["a", "b"]


class TestRandomInitial:
    def test_is_permutation(self):
        scheduler = RandomInitialScheduler()
        v = view(snap("a", 0), snap("b", 0), snap("c", 0), seed=3)
        order = scheduler.order(("a", "b", "c"), v)
        assert sorted(order) == ["a", "b", "c"]


class TestLeastWaiting:
    def test_orders_by_queue_length(self):
        scheduler = LeastWaitingScheduler()
        v = view(snap("a", 0, waiting=7), snap("b", 0, waiting=1))
        assert scheduler.order(("a", "b"), v) == ["b", "a"]


class TestRegistry:
    def test_all_names_constructible(self):
        for name in INITIAL_SCHEDULER_NAMES:
            scheduler = initial_scheduler_from_name(name)
            assert scheduler.order(("a",), view(snap("a", 0))) == ["a"]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            initial_scheduler_from_name("nope")
