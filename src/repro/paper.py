"""The paper's published numbers, as structured reference data.

Machine-readable copies of every value the paper reports in its tables
and prose, so comparisons (EXPERIMENTS.md, the validation module, user
notebooks) can cite the original without transcribing it again.  All
times are minutes; rates are fractions.

Source: Zhang et al., "On the Feasibility of Dynamic Rescheduling on
the Intel Distributed Computing Platform", Middleware 2010 industrial
track, Tables 1-5 and Sections 2.2/3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

__all__ = [
    "PaperRow",
    "PAPER_TABLES",
    "PAPER_FIGURE2",
    "PAPER_EVALUATION_SETUP",
    "PAPER_HIGH_SUSPENSION",
    "paper_row",
]


@dataclass(frozen=True)
class PaperRow:
    """One strategy row from one of the paper's tables.

    Attributes mirror the table columns: suspend rate (fraction),
    average completion time over suspended jobs and over all jobs,
    average suspend time, average wasted completion time.
    """

    suspend_rate: float
    avg_ct_suspended: float
    avg_ct_all: float
    avg_st: float
    avg_wct: float


#: table number -> strategy name -> the paper's row.
PAPER_TABLES: Dict[int, Mapping[str, PaperRow]] = {
    1: {
        "NoRes": PaperRow(0.0114, 2498.7, 569.8, 1189.1, 31.0),
        "ResSusUtil": PaperRow(0.0156, 1265.4, 560.0, 82.2, 20.8),
        "ResSusRand": PaperRow(0.0152, 7580.7, 638.7, 80.7, 91.9),
    },
    2: {
        "NoRes": PaperRow(0.0126, 5846.1, 988.7, 4402.4, 450.1),
        "ResSusUtil": PaperRow(0.0183, 1475.1, 962.2, 86.2, 423.9),
        "ResSusRand": PaperRow(0.0160, 6485.0, 1180.0, 73.2, 636.3),
    },
    3: {
        "NoRes": PaperRow(0.0150, 5936.0, 994.2, 4916.0, 456.6),
        "ResSusUtil": PaperRow(0.0172, 1466.9, 946.2, 84.5, 407.6),
        "ResSusRand": PaperRow(0.0162, 7979.9, 1229.9, 72.3, 686.8),
    },
    4: {
        "NoRes": PaperRow(0.0126, 5846.1, 988.7, 4402.4, 450.1),
        "ResSusWaitUtil": PaperRow(0.0146, 1224.3, 951.4, 72.7, 414.2),
        "ResSusWaitRand": PaperRow(0.0150, 1417.0, 954.7, 62.3, 417.6),
    },
    5: {
        "NoRes": PaperRow(0.0150, 5936.0, 994.2, 4916.0, 456.6),
        "ResSusWaitUtil": PaperRow(0.0174, 1467.2, 937.9, 84.5, 402.0),
        "ResSusWaitRand": PaperRow(0.0171, 1603.1, 935.7, 100.6, 399.7),
    },
}

#: Figure 2's quoted statistics of the suspension-time distribution.
PAPER_FIGURE2: Dict[str, float] = {
    "median_minutes": 437.0,
    "mean_minutes": 905.0,
    # "20% of all jobs are suspended for more than 1100 minutes"
    "p80_minutes": 1100.0,
}

#: Evaluation setup constants from Section 3.
PAPER_EVALUATION_SETUP: Dict[str, float] = {
    "pools": 20,
    "busy_week_jobs": 248_000,
    "busy_week_start_minute": 76_000,
    "busy_week_end_minute": 86_080,
    "wait_threshold_minutes": 30.0,
    "trace_span_minutes": 500_000,
    "mean_utilization_fraction": 0.40,
    "high_suspension_rate": 0.14,
}

#: The in-text high-suspension experiment's ResSusUtil reductions
#: (Section 3.2.1: "a more significant reduction of 7% in AvgCT for all
#: jobs, and an equally high reduction of 44% in AvgCT of suspended jobs").
PAPER_HIGH_SUSPENSION: Dict[str, float] = {
    "avg_ct_all_reduction": 0.07,
    "avg_ct_suspended_reduction": 0.44,
}


def paper_row(table: int, strategy: str) -> Optional[PaperRow]:
    """The paper's row for (table, strategy), or ``None`` if absent."""
    return PAPER_TABLES.get(table, {}).get(strategy)
