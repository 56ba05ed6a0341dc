"""IPM-style performance monitoring for the simulated MPI runtime.

IPM (Integrated Performance Monitoring) is the low-overhead MPI profiling
layer the paper uses for all its analysis: per-region communication
percentages (Table II), computation/communication ratios and load
imbalance (Table III), and per-process time-breakdown profiles (Fig 7).

This work-alike records, for every rank:

* per *region* (user-defined code section, e.g. ``ATM_STEP`` or ``KSp``)
  and per *(MPI call, message size)* bucket: call count and total time —
  the same hashing scheme real IPM uses, which is how the paper can state
  that KSp communication "consists entirely of 4-byte all-reduce
  operations";
* compute time (from the workload's compute bursts) and I/O time;
* wall-clock per region.

Reports are derived, never accumulated twice: :mod:`repro.ipm.report`
renders Table-II/III-style summaries and Fig-7-style per-process
breakdowns from the raw profiles.
"""

from repro.ipm.monitor import (
    GLOBAL_REGION,
    CallKey,
    CallStats,
    IpmMonitor,
    RankProfile,
    RegionStats,
)
from repro.ipm.loadbalance import (
    imbalance_irregularity,
    imbalance_percent,
    imbalance_profile,
)
from repro.ipm.report import (
    IpmReport,
    comm_percent,
    fig7_breakdown,
    render_breakdown_ascii,
    render_fig7_ascii,
    summarize,
)

__all__ = [
    "GLOBAL_REGION",
    "CallKey",
    "CallStats",
    "IpmMonitor",
    "IpmReport",
    "RankProfile",
    "RegionStats",
    "comm_percent",
    "fig7_breakdown",
    "imbalance_irregularity",
    "imbalance_percent",
    "imbalance_profile",
    "render_breakdown_ascii",
    "render_fig7_ascii",
    "summarize",
]
