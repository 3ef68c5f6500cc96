"""The benchmark's workloads: set-up, one timed repetition, layer metrics.

Every workload derives its inputs from the benchmark seed and builds
several of them in :meth:`setup` (each build is one set-up sample).  A
repetition simulates one input (or runs one whole grid) inside a timed
call and checks its output; :func:`measure` cycles through the inputs
until the time budget is spent.  With a :class:`~perfbench.spans.SpanRecorder`
the same repetition runs under the timing probes of :mod:`perfbench.probes`.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import high_suspension, run_simulation
from repro.benchtrack import result_digest
from repro.experiments.cache import ResultCache, stable_hash
from repro.experiments.parallel import run_grid_parallel
from repro.fabric import SubprocessWorkerBackend, run_grid_fabric
from repro.fabric.presets import smoke_grid
from repro.policies import policy_from_spec
from repro.schedulers.initial import RoundRobinScheduler
from repro.simulator.config import SimulationConfig
from repro.simulator.simulation import run_streaming
from repro.workload.cluster import ClusterTemplate
from repro.workload.distributions import RandomStreams
from repro.workload.trace import Trace
from repro.workload.traces import default_replay_spec, generate_swf_fixture

from . import checks
from .probes import TracedSubprocessBackend, coordinator_probes, engine_probes
from .spans import SpanRecorder, merge_totals


@dataclass
class Rep:
    """One timed repetition."""

    input: int
    wall: float
    jobs: int
    #: Simulations run (one, or every cell of a grid); each is one attempt.
    cells: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: The output digest (a list of per-cell digests for a grid).
    digest: object = None


class Workload:
    """Common shape: inputs built in ``setup``, one rep per ``run`` call."""

    name = ""
    #: Distinct inputs per benchmark run, cycled by :func:`measure`.
    inputs = 1
    #: Which per-layer set-up metric the set-up samples feed.
    setup_metric = "workload.scenario_build_s"
    #: Timed builds per run (set-up samples); input ``i % inputs`` is built
    #: on the ``i``-th, so every input is built at least once.
    builds = 1
    #: Whether the reported rates scale each rep's wall to the reference
    #: host (:meth:`Measurement.walls`); set-up walls always are.
    scale_reps = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.references = checks.load_references()
        self.reference_hits = 0
        self._first_digest: Dict[int, object] = {}
        self._inputs: Dict[int, object] = {}

    def params(self) -> dict:
        raise NotImplementedError

    def input_seed(self, index: int) -> int:
        """Seed of the ``index``-th input; distinct across benchmark seeds."""
        return 1000 + self.inputs * self.seed + index

    def build(self, index: int):
        """Build the ``index``-th input."""
        raise NotImplementedError

    def setup(self) -> Measurement:
        """Build every input, each build timed like a rep (see :func:`measure`)."""
        builds = []
        scores = [host_score()]
        for i in range(max(self.builds, self.inputs)):
            index = i % self.inputs
            start = time.perf_counter()
            self._inputs[index] = self.build(index)
            builds.append(Rep(index, time.perf_counter() - start, 0, 0, 0))
            scores.append(host_score())
        return Measurement(builds, scores)

    def run(self, index: int, recorder: Optional[SpanRecorder] = None) -> Rep:
        raise NotImplementedError

    def _digest_problems(self, index: int, digest: str, reference_key: int) -> List[str]:
        reference = checks.reference_for(
            self.references, self.name, self.params(), reference_key
        )
        if reference is not None:
            self.reference_hits += 1
        first = self._first_digest.setdefault(index, digest)
        return checks.digest_problems(digest, first, reference)

    def layer_metrics(self, totals: Dict[str, dict], reps: List[Rep]) -> Dict[str, float]:
        """Per-layer numbers, per traced rep, from the traced reps' span totals."""
        return engine_layer_metrics(totals, len(reps))


# -- engine workloads ----------------------------------------------------------------


def _calls(totals, name):
    return totals.get(name, {}).get("calls", 0)


def _busy(totals, *names):
    return sum(totals.get(name, {}).get("total_s", 0.0) for name in names)


def _count(totals, name):
    return totals.get(name, {}).get("count", 0)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def engine_layer_metrics(totals: Dict[str, dict], n_reps: int) -> Dict[str, float]:
    """Per-rep engine layer metrics from merged span totals."""
    per = 1.0 / max(1, n_reps)
    events = ("events.push", "events.pop", "events.push_many", "events.peek",
              "events.advance")
    waitq = ("waitq.push", "waitq.pop", "waitq.remove", "waitq.best_schedulable")
    policy_calls = _calls(totals, "policy.on_suspend") + _calls(totals, "policy.on_wait_timeout")
    policy_moves = _count(totals, "policy.on_suspend") + _count(totals, "policy.on_wait_timeout")
    out = {
        "workload.replay.jobs": _count(totals, "workload.replay") * per,
        "workload.replay.busy_s": _busy(totals, "workload.replay") * per,
        "engine.build_s": _busy(totals, "engine.build") * per,
        "engine.run_s": _busy(totals, "engine.run") * per,
        "engine.self_s": totals.get("engine.run", {}).get("self_s", 0.0) * per,
        "events.push.calls": _calls(totals, "events.push") * per,
        "events.pop.calls": _calls(totals, "events.pop") * per,
        "events.busy_s": _busy(totals, *events) * per,
        "vpm.submit.calls": _calls(totals, "vpm.submit") * per,
        "vpm.submit.busy_s": _busy(totals, "vpm.submit") * per,
        "scheduler.order.calls": _calls(totals, "scheduler.order") * per,
        "scheduler.order.busy_s": _busy(totals, "scheduler.order") * per,
        "pool.submit.calls": _calls(totals, "pool.submit") * per,
        "pool.submit.busy_s": _busy(totals, "pool.submit") * per,
        "pool.submit.started_ratio": _ratio(
            _count(totals, "pool.submit"), _calls(totals, "pool.submit")
        ),
        "pool.fill_machine.calls": _calls(totals, "pool.fill_machine") * per,
        "pool.fill_machine.busy_s": _busy(totals, "pool.fill_machine") * per,
        "pool.fill_machine.started_per_call": _ratio(
            _count(totals, "pool.fill_machine"), _calls(totals, "pool.fill_machine")
        ),
        "pool.detach.calls": _calls(totals, "pool.detach") * per,
        "pool.detach.busy_s": _busy(totals, "pool.detach") * per,
        "machine.preemption_victims.calls":
            _calls(totals, "machine.preemption_victims") * per,
        "machine.preemption_victims.busy_s":
            _busy(totals, "machine.preemption_victims") * per,
        "waitq.push.calls": _calls(totals, "waitq.push") * per,
        "waitq.pop.calls": _calls(totals, "waitq.pop") * per,
        "waitq.remove.calls": _calls(totals, "waitq.remove") * per,
        "waitq.busy_s": _busy(totals, *waitq) * per,
        "waitq.best_schedulable.calls": _calls(totals, "waitq.best_schedulable") * per,
        "waitq.best_schedulable.hit_ratio": _ratio(
            _count(totals, "waitq.best_schedulable"),
            _calls(totals, "waitq.best_schedulable"),
        ),
        "policy.on_suspend.calls": _calls(totals, "policy.on_suspend") * per,
        "policy.on_wait_timeout.calls": _calls(totals, "policy.on_wait_timeout") * per,
        "policy.busy_s": _busy(totals, "policy.on_suspend", "policy.on_wait_timeout") * per,
        "policy.moves_ratio": _ratio(policy_moves, policy_calls),
        "selector.select.calls": _calls(totals, "selector.select") * per,
        "selector.select.busy_s": _busy(totals, "selector.select") * per,
        "sink.add_record.calls": _calls(totals, "sink.add_record") * per,
        "sink.add_record.busy_s": _busy(totals, "sink.add_record") * per,
    }
    return out


class SuspensionHeavy(Workload):
    """``high_suspension`` under ResSusUtil through ``run_simulation``."""

    name = "suspension_heavy"
    inputs = 4
    builds = 8
    scale = 0.25
    #: Each input keeps the first this-many jobs of its scenario's week,
    #: so inputs are equally large whatever the seed and a rep is short.
    jobs = 16_000
    policy_spec = "ResSusUtil"

    def params(self) -> dict:
        return {"scale": self.scale, "jobs": self.jobs, "policy": self.policy_spec,
                "inputs": self.inputs}

    def build(self, index: int) -> tuple:
        seed = self.input_seed(index)
        scenario = high_suspension(scale=self.scale, seed=seed)
        trace = Trace(scenario.trace.jobs[: self.jobs])
        policy = policy_from_spec(
            self.policy_spec, defaults={"wait_threshold": scenario.wait_threshold}
        )
        config = SimulationConfig(strict=False, seed=seed)
        job_ids = [job.job_id for job in trace]
        return seed, trace, scenario.cluster, policy, config, job_ids

    def run(self, index: int, recorder: Optional[SpanRecorder] = None) -> Rep:
        seed, trace, cluster, policy, config, job_ids = self._inputs[index]
        scheduler = RoundRobinScheduler()
        probes = engine_probes(recorder, policy, scheduler) if recorder else None
        try:
            start = time.perf_counter()
            result = run_simulation(
                trace, cluster, policy=policy,
                initial_scheduler=scheduler, config=config,
            )
            wall = time.perf_counter() - start
        finally:
            if probes is not None:
                probes.close()
        digest = result_digest(result)
        problems = checks.record_problems(job_ids, result.records)
        problems += self._digest_problems(index, digest, seed)
        return Rep(index, wall, len(result.records), 1, 1 if problems else 0,
                   problems, digest)


class TraceReplay(Workload):
    """A synthetic SWF fixture streamed through ``run_streaming`` under NoRes."""

    name = "trace_replay"
    inputs = 3
    builds = 6
    setup_metric = "workload.fixture_write_s"
    jobs = 15_000
    scale = 0.25
    policy_spec = "NoRes"

    def params(self) -> dict:
        return {"jobs": self.jobs, "scale": self.scale, "policy": self.policy_spec,
                "inputs": self.inputs}

    def build(self, index: int) -> tuple:
        seed = self.input_seed(index)
        path = self.workdir / f"trace-{seed}.swf"
        template = ClusterTemplate(scale=self.scale)
        cluster = template.build(RandomStreams(2010))
        generate_swf_fixture(path, self.jobs, seed=seed, target_cores=cluster.total_cores)
        spec = default_replay_spec(template)
        policy = policy_from_spec(self.policy_spec)
        return seed, path, cluster, spec, policy

    def run(self, index: int, recorder: Optional[SpanRecorder] = None) -> Rep:
        seed, path, cluster, spec, policy = self._inputs[index]
        scheduler = RoundRobinScheduler()
        feed = spec.replay(path, "swf")
        probes = None
        if recorder is not None:
            feed = recorder.iterate("workload.replay", feed)
            probes = engine_probes(recorder, policy, scheduler)
        fed = [0]
        feed = _counted(feed, fed)
        try:
            start = time.perf_counter()
            sink = run_streaming(
                feed, cluster, policy=policy, initial_scheduler=scheduler,
                config=SimulationConfig(strict=False),
            )
            wall = time.perf_counter() - start
        finally:
            if probes is not None:
                probes.close()
        problems = checks.sink_problems(fed[0], sink.job_count)
        digest = stable_hash([sink.summary(), sink.job_count, sink.suspended_count])
        problems += self._digest_problems(index, digest, seed)
        return Rep(index, wall, sink.job_count, 1, 1 if problems else 0,
                   problems, digest)


def _counted(feed, box):
    for job in feed:
        box[0] += 1
        yield job


# -- grid workload ----------------------------------------------------------------------


class GridSweep(Workload):
    """Cold ``smoke_grid`` replications on two subprocess fabric workers."""

    name = "grid_sweep"
    #: Grid builds per run (set-up samples); every build is the same grid.
    builds = 10
    #: A grid's two workers run on both CPUs, and part of its wall is
    #: polling sleep, so the one-process host-speed sample tracks it less
    #: well than the raw wall does (NOTES.md, *Steadiness*).
    scale_reps = False
    n_seeds = 12
    workers = 2

    def params(self) -> dict:
        return {"n_seeds": self.n_seeds, "workers": self.workers}

    def grid_seed(self) -> int:
        return 1000 + 100 * self.seed

    def build(self, index: int):
        return smoke_grid(seed=self.grid_seed(), n_seeds=self.n_seeds)

    def setup(self) -> Measurement:
        builds = super().setup()
        self._tasks = self._inputs[0]
        self._cells = len(self._tasks)
        self._rep = 0
        self.layers: List[dict] = []
        return builds

    def run(self, index: int, recorder: Optional[SpanRecorder] = None) -> Rep:
        """One cold grid, with the backend and coordinator defaults of ``repro run-grid``."""
        self._rep += 1
        cache_dir = self.workdir / f"grid-cache-{self._rep}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        cache = ResultCache(cache_dir)
        if recorder is not None:
            backend = TracedSubprocessBackend(self.workers)
            probes = coordinator_probes(recorder)
        else:
            backend = SubprocessWorkerBackend(self.workers)
            probes = None
        try:
            start = time.perf_counter()
            report = run_grid_fabric(self._tasks, backend, cache, keep_going=True)
            end = time.perf_counter()
        finally:
            if probes is not None:
                probes.close()
        try:
            if recorder is not None:
                self.layers.append(self._grid_layers(backend, cache_dir, start, end))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        hashes = [
            None if outcome is None else stable_hash(outcome.summary)
            for outcome in report.outcomes
        ]
        jobs = sum(o.summary.job_count for o in report.outcomes if o is not None)
        reference = checks.reference_for(
            self.references, self.name, self.params(), self.grid_seed()
        )
        if reference is not None:
            self.reference_hits += 1
        first = self._first_digest.setdefault(0, hashes)
        problems = checks.grid_problems(hashes, first, reference)
        failed = len(problems)
        problems += [
            f"cell {f.index} raised {f.error_type}: {f.message}" for f in report.failures
        ]
        return Rep(0, end - start, jobs, self._cells, failed, problems, hashes)

    def serial_digest(self) -> List[str]:
        """Per-cell digests of the grid computed serially, with no fabric."""
        report = run_grid_parallel(self._tasks, n_workers=1)
        return [stable_hash(outcome.summary) for outcome in report.outcomes]

    def _grid_layers(self, backend, cache_dir: Path, start: float, end: float) -> dict:
        """Worker spans and stats of one traced grid, merged per grid."""
        import json

        manifests = cache_dir / "manifests"
        worker_totals, boots, idle, unattributed = [], [], 0.0, 0.0
        for path in sorted(manifests.glob("*.spans.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            meta = doc["meta"]
            worker_totals.append(doc["totals"])
            spawned = backend.spawned_at.get(meta["worker_id"])
            if spawned is not None and meta["first_claim_at"] is not None:
                boots.append(meta["first_claim_at"] - spawned)
            idle += meta["idle_s"]
            unattributed += meta["wall_s"] - meta["main_top_s"] - meta["idle_s"]
        stats = {"computed": 0, "stolen": 0, "claimed": 0, "skipped": 0}
        for path in sorted(manifests.glob("*.stats.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            for key in stats:
                stats[key] += doc.get(key, 0)
        run_start, run_end = backend.run_window or (start, start)
        return {
            "workers": merge_totals(worker_totals),
            "boot_s": statistics.fmean(boots) if boots else 0.0,
            "idle_s": idle,
            "unattributed_s": unattributed,
            "stats": stats,
            "prescan_s": run_start - start,
            "backend_run_s": run_end - run_start,
            "collect_s": end - run_end,
        }

    def layer_metrics(self, totals, reps):
        n = max(1, len(self.layers))
        per = 1.0 / n
        workers = merge_totals([layer["workers"] for layer in self.layers])
        merged = merge_totals([workers, totals])

        def mean(key):
            return sum(layer[key] for layer in self.layers) * per

        def stat(key):
            return sum(layer["stats"][key] for layer in self.layers) * per

        out = engine_layer_metrics(workers, n)
        out.update({
            "cache.put.calls": _calls(merged, "cache.put") * per,
            "cache.put.busy_s": _busy(merged, "cache.put") * per,
            "cache.put.bytes": _count(merged, "cache.put") * per,
            "cache.peek.calls": _calls(merged, "cache.peek") * per,
            "cache.peek.busy_s": _busy(merged, "cache.peek") * per,
            "lease.claim.calls": _calls(merged, "lease.claim") * per,
            "lease.claim.won_ratio": _ratio(
                _count(merged, "lease.claim"), _calls(merged, "lease.claim")
            ),
            "lease.claim.busy_s": _busy(merged, "lease.claim") * per,
            "lease.heartbeat.calls": _calls(merged, "lease.heartbeat") * per,
            "lease.heartbeat.busy_s": _busy(merged, "lease.heartbeat") * per,
            "lease.release_done.busy_s": _busy(merged, "lease.release_done") * per,
            "lease.read.calls": _calls(merged, "lease.read") * per,
            "worker.boot_s": mean("boot_s"),
            "worker.compute_s": _busy(workers, "engine.run") * per,
            "worker.idle_s": mean("idle_s"),
            "worker.unattributed_s": mean("unattributed_s"),
            "worker.computed": stat("computed"),
            "worker.stolen": stat("stolen"),
            "worker.duplicate_ratio": _ratio(stat("computed"), self._cells),
            "coordinator.prescan_s": mean("prescan_s"),
            "coordinator.backend_run_s": mean("backend_run_s"),
            "coordinator.collect_s": mean("collect_s"),
        })
        return out


WORKLOADS = {cls.name: cls for cls in (SuspensionHeavy, TraceReplay, GridSweep)}


# -- measurement ----------------------------------------------------------------------------

#: Host-speed score (iterations/s of :func:`host_score`'s spin) of the
#: reference host that reported times and rates are scaled to; about that
#: of the 2-core host this was tuned on.
REFERENCE_SCORE = 1.0e7

#: Iterations of each host-speed sample taken between reps (~50 ms).
CALIBRATION_ITERATIONS = 500_000


def host_score(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Iterations per second of a fixed pure-Python spin: the host's speed now.

    The spin is the benchmark's own (the same operation mix as
    ``repro.benchtrack.calibrate``), so no change to the program can move
    the yardstick the benchmark's times are scaled by.
    """
    start = time.perf_counter()
    acc = 0
    sink: List[int] = []
    append = sink.append
    for i in range(iterations):
        acc += i & 7
        if not i & 1023:
            append(acc)
    return iterations / (time.perf_counter() - start)


@dataclass
class Measurement:
    """Timed reps (or set-up builds) and the host speed around them."""

    reps: List[Rep]
    #: :func:`host_score` samples taken before the first rep and after each.
    scores: List[float]

    def speed(self) -> float:
        """Mean host speed during the phase, relative to the reference host."""
        return statistics.fmean(self.scores) / REFERENCE_SCORE

    def walls(self, scaled: bool = True) -> List[float]:
        """Each rep's wall time, scaled to the reference host unless ``scaled`` is off.

        The host is shared and its speed moves by a third within
        seconds.  The host-speed samples just before and after a rep
        move with it, so a wall scaled by their mean is steady where the
        raw wall is not.
        """
        scores = self.scores
        return [
            rep.wall * ((scores[i] + scores[i + 1]) / (2.0 * REFERENCE_SCORE) if scaled else 1.0)
            for i, rep in enumerate(self.reps)
        ]

    def rates(self, scaled: bool = True):
        """``(jobs/s, cells/s)`` from each input's median wall time.

        Every input contributes its size and its median wall, so a rep
        that noise slowed moves nothing and no input weighs more for
        having been run more often.
        """
        walls = self.walls(scaled)
        jobs = cells = wall = 0.0
        for index in sorted({rep.input for rep in self.reps}):
            mine = [i for i, rep in enumerate(self.reps) if rep.input == index]
            wall += statistics.median(walls[i] for i in mine)
            jobs += self.reps[mine[0]].jobs
            cells += self.reps[mine[0]].cells
        return jobs / wall, cells / wall


def measure(workload: Workload, seconds: float, recorder=None) -> Measurement:
    """Cycle through the inputs until ``seconds`` pass (each input at least once).

    A short host-speed sample follows every rep, so host speed is
    sampled as often as the workload is.
    """
    n_inputs = workload.inputs
    reps: List[Rep] = []
    scores = [host_score()]
    start = time.perf_counter()
    i = 0
    while i < n_inputs or time.perf_counter() - start < seconds:
        if recorder is not None:
            recorder.run += 1
        reps.append(workload.run(i % n_inputs, recorder))
        scores.append(host_score())
        i += 1
    return Measurement(reps, scores)
