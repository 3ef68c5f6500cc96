"""Unit tests for repro.core: decisions, selectors, policies, overheads."""

import pytest

from repro.core.context import PoolSnapshot, StaticSystemView
from repro.core.decisions import STAY, Action, Decision, duplicate, restart
from repro.core.overheads import NO_OVERHEAD, RestartOverhead
from repro.core.policies import (
    DEFAULT_WAIT_THRESHOLD,
    PAPER_POLICY_NAMES,
    DuplicateSuspended,
    NoRescheduling,
    RescheduleSuspended,
    RescheduleWaitingOnly,
    no_res,
    res_sus_rand,
    res_sus_util,
    res_sus_wait_rand,
    res_sus_wait_util,
)
from repro.core.selectors import (
    LowestUtilizationSelector,
    PredictedWaitSelector,
    RandomSelector,
    ShortestQueueSelector,
    WeightedSelector,
)
from repro.errors import ConfigurationError, UnknownPolicyError
from repro.policies import policy_from_spec

from conftest import make_job


class FakeJob:
    """Minimal JobView-shaped stand-in."""

    def __init__(self, spec, pool_id):
        self.spec = spec
        self.pool_id = pool_id


def view(*snapshots, now=0.0, seed=1):
    return StaticSystemView(now=now, snapshots=list(snapshots), seed=seed)


def snap(pool_id, busy, total=10, waiting=0, suspended=0):
    return PoolSnapshot(
        pool_id=pool_id,
        total_cores=total,
        busy_cores=busy,
        waiting_jobs=waiting,
        suspended_jobs=suspended,
    )


class TestDecisions:
    def test_stay_has_no_target(self):
        assert STAY.action is Action.STAY
        assert not STAY.moves

    def test_restart_and_duplicate(self):
        assert restart("p1").action is Action.RESTART
        assert restart("p1").moves
        assert duplicate("p2").target_pool == "p2"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Decision(Action.STAY, "p1")
        with pytest.raises(ConfigurationError):
            Decision(Action.RESTART, None)


class TestPoolSnapshot:
    def test_utilization(self):
        assert snap("a", busy=5).utilization == 0.5
        assert snap("a", busy=0, total=0).utilization == 0.0

    def test_free_cores(self):
        assert snap("a", busy=3).free_cores == 7


class TestStaticSystemView:
    def test_pool_lookup(self):
        v = view(snap("a", 1), snap("b", 2))
        assert v.pool("a").busy_cores == 1
        assert v.pool_ids == ("a", "b")

    def test_unknown_pool(self):
        from repro.errors import UnknownPoolError

        with pytest.raises(UnknownPoolError):
            view(snap("a", 1)).pool("zzz")

    def test_candidate_pools_respects_whitelist(self):
        v = view(snap("a", 1), snap("b", 1), snap("c", 1))
        job = FakeJob(make_job(1, candidate_pools=("c", "a")), pool_id="a")
        assert v.candidate_pools(job) == ("a", "c")  # canonical order

    def test_candidate_pools_unrestricted(self):
        v = view(snap("a", 1), snap("b", 1))
        job = FakeJob(make_job(1), pool_id="a")
        assert v.candidate_pools(job) == ("a", "b")


class TestLowestUtilizationSelector:
    def test_picks_least_utilized_other(self):
        v = view(snap("a", 9), snap("b", 5), snap("c", 2))
        selector = LowestUtilizationSelector()
        assert selector.select(("a", "b", "c"), "a", v) == "c"

    def test_guard_blocks_worse_moves(self):
        v = view(snap("a", 2), snap("b", 5), snap("c", 9))
        selector = LowestUtilizationSelector()
        assert selector.select(("a", "b", "c"), "a", v) is None

    def test_unguarded_always_moves(self):
        v = view(snap("a", 2), snap("b", 5))
        selector = LowestUtilizationSelector(guard=False)
        assert selector.select(("a", "b"), "a", v) == "b"

    def test_no_alternatives(self):
        v = view(snap("a", 2))
        assert LowestUtilizationSelector().select(("a",), "a", v) is None

    def test_tie_broken_by_pool_id(self):
        v = view(snap("b", 1), snap("c", 1), snap("a", 9))
        assert LowestUtilizationSelector().select(("a", "b", "c"), "a", v) == "b"


class TestRandomSelector:
    def test_never_returns_current(self):
        v = view(snap("a", 1), snap("b", 1), snap("c", 1), seed=0)
        selector = RandomSelector()
        for _ in range(50):
            assert selector.select(("a", "b", "c"), "a", v) in {"b", "c"}

    def test_none_when_no_alternatives(self):
        v = view(snap("a", 1))
        assert RandomSelector().select(("a",), "a", v) is None

    def test_uses_view_rng(self):
        picks_a = [
            RandomSelector().select(("a", "b", "c"), "a", view(snap("a", 1), snap("b", 1), snap("c", 1), seed=5))
            for _ in range(1)
        ]
        picks_b = [
            RandomSelector().select(("a", "b", "c"), "a", view(snap("a", 1), snap("b", 1), snap("c", 1), seed=5))
            for _ in range(1)
        ]
        assert picks_a == picks_b


class TestShortestQueueSelector:
    def test_picks_shortest_queue(self):
        v = view(snap("a", 0, waiting=9), snap("b", 0, waiting=4), snap("c", 0, waiting=1))
        assert ShortestQueueSelector().select(("a", "b", "c"), "a", v) == "c"

    def test_guard(self):
        v = view(snap("a", 0, waiting=1), snap("b", 0, waiting=4))
        assert ShortestQueueSelector().select(("a", "b"), "a", v) is None


class TestWeightedSelector:
    def test_score_composition(self):
        selector = WeightedSelector(
            utilization_weight=1.0, queue_weight=1.0, suspension_weight=1.0
        )
        s = snap("a", busy=5, total=10, waiting=10, suspended=5)
        assert selector.score(s) == pytest.approx(0.5 + 1.0 + 0.5)

    def test_selects_lowest_score(self):
        v = view(snap("a", 9, waiting=10), snap("b", 1, waiting=0))
        assert WeightedSelector().select(("a", "b"), "a", v) == "b"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WeightedSelector(utilization_weight=-1.0)
        with pytest.raises(ConfigurationError):
            WeightedSelector(
                utilization_weight=0.0, queue_weight=0.0, suspension_weight=0.0
            )


class TestPredictedWaitSelector:
    def test_free_pool_predicts_zero(self):
        selector = PredictedWaitSelector(mean_runtime=100.0)
        assert selector.predicted_wait(snap("a", busy=5, total=10, waiting=3)) == 0.0

    def test_full_pool_predicts_backlog(self):
        selector = PredictedWaitSelector(mean_runtime=100.0)
        assert selector.predicted_wait(
            snap("a", busy=10, total=10, waiting=5)
        ) == pytest.approx(50.0)

    def test_selects_lowest_predicted(self):
        v = view(snap("a", 10, waiting=5), snap("b", 10, total=10, waiting=1), snap("c", 10, waiting=9))
        assert PredictedWaitSelector().select(("a", "b", "c"), "a", v) == "b"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PredictedWaitSelector(mean_runtime=0.0)


class TestPolicies:
    def test_no_res_stays(self):
        policy = NoRescheduling()
        job = FakeJob(make_job(1), "a")
        v = view(snap("a", 9), snap("b", 0))
        assert policy.on_suspend(job, v) is STAY
        assert policy.on_wait_timeout(job, v) is STAY
        assert policy.wait_threshold is None

    def test_res_sus_util_moves_to_cold_pool(self):
        policy = res_sus_util()
        job = FakeJob(make_job(1), "a")
        v = view(snap("a", 9), snap("b", 1))
        decision = policy.on_suspend(job, v)
        assert decision.action is Action.RESTART
        assert decision.target_pool == "b"
        # no waiting hook
        assert policy.wait_threshold is None
        assert policy.on_wait_timeout(job, v) is STAY

    def test_res_sus_util_guard_stays(self):
        policy = res_sus_util()
        job = FakeJob(make_job(1), "a")
        v = view(snap("a", 1), snap("b", 9))
        assert policy.on_suspend(job, v) is STAY

    def test_res_sus_rand_always_moves(self):
        policy = res_sus_rand()
        job = FakeJob(make_job(1), "a")
        v = view(snap("a", 1), snap("b", 9))
        decision = policy.on_suspend(job, v)
        assert decision.action is Action.RESTART
        assert decision.target_pool == "b"

    def test_wait_policy_has_threshold_and_hook(self):
        policy = res_sus_wait_util(45.0)
        assert policy.wait_threshold == 45.0
        job = FakeJob(make_job(1), "a")
        v = view(snap("a", 9), snap("b", 1))
        assert policy.on_wait_timeout(job, v).target_pool == "b"

    def test_wait_policy_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            res_sus_wait_rand(0.0)
        with pytest.raises(ConfigurationError):
            RescheduleWaitingOnly(LowestUtilizationSelector(), wait_threshold=-1.0)

    def test_waiting_only_ignores_suspension(self):
        policy = RescheduleWaitingOnly(LowestUtilizationSelector())
        job = FakeJob(make_job(1), "a")
        v = view(snap("a", 9), snap("b", 1))
        assert policy.on_suspend(job, v) is STAY
        assert policy.on_wait_timeout(job, v).moves

    def test_duplicate_policy_returns_duplicate_action(self):
        policy = DuplicateSuspended(LowestUtilizationSelector())
        job = FakeJob(make_job(1), "a")
        v = view(snap("a", 9), snap("b", 1))
        assert policy.on_suspend(job, v).action is Action.DUPLICATE

    def test_policy_respects_candidate_whitelist(self):
        policy = res_sus_util()
        job = FakeJob(make_job(1, candidate_pools=("a", "c")), "a")
        v = view(snap("a", 9), snap("b", 0), snap("c", 5))
        # "b" is colder but not allowed
        assert policy.on_suspend(job, v).target_pool == "c"

    def test_selector_property(self):
        selector = LowestUtilizationSelector()
        assert RescheduleSuspended(selector).selector is selector


class TestPolicyRegistry:
    def test_all_paper_names_constructible(self):
        for name in PAPER_POLICY_NAMES:
            policy = policy_from_spec(name)
            assert policy.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownPolicyError):
            policy_from_spec("NotAPolicy")

    def test_threshold_passed_to_wait_policies(self):
        threshold = {"wait_threshold": 99.0}
        assert policy_from_spec("ResSusWaitUtil", defaults=threshold).wait_threshold == 99.0
        assert policy_from_spec("NoRes", defaults=threshold).wait_threshold is None

    def test_default_threshold_constant(self):
        assert DEFAULT_WAIT_THRESHOLD == 30.0
        assert res_sus_wait_util().wait_threshold == 30.0

    def test_factory_names_match_paper(self):
        assert no_res().name == "NoRes"
        assert res_sus_util().name == "ResSusUtil"
        assert res_sus_rand().name == "ResSusRand"
        assert res_sus_wait_util().name == "ResSusWaitUtil"
        assert res_sus_wait_rand().name == "ResSusWaitRand"


class TestRestartOverhead:
    def test_no_overhead_is_free(self):
        assert NO_OVERHEAD.is_free
        assert NO_OVERHEAD.delay_for(make_job(1)) == 0.0

    def test_affine_model(self):
        overhead = RestartOverhead(fixed_minutes=5.0, per_gb_minutes=2.0)
        assert overhead.delay_for(make_job(1, memory_gb=4.0)) == 13.0
        assert not overhead.is_free

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RestartOverhead(fixed_minutes=-1.0)
