"""Inter-site rescheduling experiments (the paper's future work).

The conclusion proposes "more sophisticated rescheduling strategies
that combine job duplication techniques and inter-site rescheduling"
and notes the simulator should "incorporate network delays and other
rescheduling associated overheads".  :func:`inter_site_ablation` runs
exactly that study: a burst pins down one site while the others idle,
and we compare

* **NoRes** — the baseline;
* **local-only** rescheduling (strictly intra-site, the deployed
  NetBatch capability);
* **local-first** rescheduling (go remote only when no local pool is
  acceptable);
* **transfer-aware** inter-site rescheduling (remote pools compete on
  predicted start time including the WAN latency),

all under an :class:`~repro.sites.overheads.InterSiteOverhead` that
charges real minutes for crossing sites.  :data:`INTER_SITE` is the
study's :class:`~repro.experiments.experiment.Experiment`; its default
scenario keeps its own defaults (scale 0.2, seed 2010), not the table
presets.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Optional, Tuple

from ..core.policies import NoRescheduling, RescheduleSuspendedAndWaiting
from ..experiments.experiment import Experiment, strategy_comparison
from ..metrics.summary import PerformanceSummary
from .overheads import InterSiteOverhead
from .scenario import MultiSiteScenario, multi_site_scenario
from .selectors import LocalFirstSelector, TransferAwareSelector

__all__ = ["INTER_SITE", "inter_site_ablation"]


def _two_sites(scale: Optional[float] = None, seed: Optional[int] = None) -> MultiSiteScenario:
    """The two-site scenario; ``None`` takes the study's defaults."""
    return multi_site_scenario(scale=0.2 if scale is None else scale, seed=2010 if seed is None else seed)


def _site_strategies(scenario: MultiSiteScenario, policies, wait_threshold: float = 30.0):
    """NoRes and the three combined reschedulers, on the scenario's topology.

    The strategies need the topology, so they come from the scenario,
    not from ``policies``; every move is priced by an
    :class:`InterSiteOverhead`.
    """
    topology = scenario.topology
    selectors = {
        "LocalOnly": LocalFirstSelector(topology, allow_remote=False),
        "LocalFirst": LocalFirstSelector(topology, allow_remote=True),
        "TransferAware": TransferAwareSelector(topology),
    }
    overhead = {"restart_overhead": InterSiteOverhead(topology=topology, per_gb_minutes=1.0)}
    rescheduling = [
        partial(RescheduleSuspendedAndWaiting, selector, wait_threshold, name=name)
        for name, selector in selectors.items()
    ]
    return [(policy, "", overhead) for policy in [NoRescheduling, *rescheduling]]


INTER_SITE = Experiment(
    "Inter-site rescheduling (2 sites, 45-min WAN transfers)",
    _two_sites, (), strategy_comparison, strategies=_site_strategies,
)


def inter_site_ablation(
    scale: float = 0.2,
    seed: int = 2010,
    transfer_minutes: float = 45.0,
    wait_threshold: float = 30.0,
    scenario: Optional[MultiSiteScenario] = None,
) -> Tuple[MultiSiteScenario, Tuple[PerformanceSummary, ...]]:
    """Run the inter-site strategy comparison; returns (scenario, rows)."""
    if scenario is None:
        scenario = multi_site_scenario(
            scale=scale, seed=seed, transfer_minutes=transfer_minutes
        )
    experiment = replace(
        INTER_SITE,
        scenario=lambda scale, seed: scenario,
        strategies=partial(_site_strategies, wait_threshold=wait_threshold),
    )
    return scenario, experiment.run().summaries
