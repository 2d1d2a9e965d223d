"""Cluster-level power capping: split a fleet watt budget across nodes.

The paper tunes one node's DVFS frequency per I/O phase; exascale
operation adds a constraint above that — a fleet-wide power budget
shared by N compute nodes and the NFS server. This package closes the
measure -> allocate -> actuate loop at that layer:

* :mod:`repro.powercap.allocation` — the budget-splitting policies
  (uniform, proportional-to-demand, makespan-minimizing water-filling)
  over discrete per-node frequency/power models;
* :mod:`repro.powercap.controller` — :class:`ClusterCapController`,
  which subscribes to the telemetry bus, inverts each node's fitted
  ``P(f)`` curve into a ``cap_ghz``, re-allocates on phase-change and
  node join/leave epochs, and seals a sha256-receipted decision trace;
* :mod:`repro.powercap.runtime` — the observational per-worker cap
  state that distributed ``powercap`` wire frames update.

Consumers: ``iosim.cluster.Cluster`` (``power_budget_w``: capped cluster dumps),
``workflow.campaign`` (``power_budget_w`` on campaign points), the
distributed coordinator (cap broadcast + dead-node redistribution),
``service.http`` (``POST /v1/powercap``) and the ``repro powercap``
CLI. See ``docs/POWERCAP.md``.
"""

from repro.powercap.allocation import (
    ALLOCATION_POLICIES,
    DEFAULT_CAP_HYSTERESIS,
    NodePowerModel,
    allocate_budget,
    allocation_makespan,
    apply_hysteresis,
    check_budget_w,
    check_policy,
    proportional_allocation,
    uniform_allocation,
    waterfill_allocation,
)
from repro.powercap.controller import (
    DEFAULT_NFS_RESERVE_W,
    POWERCAP_PHASES,
    ClusterCapController,
    NodeCap,
    PowercapReport,
    cap_ghz_for_watts,
    node_power_model,
    phase_caps_for_budget,
)

__all__ = [
    "ALLOCATION_POLICIES",
    "DEFAULT_CAP_HYSTERESIS",
    "DEFAULT_NFS_RESERVE_W",
    "POWERCAP_PHASES",
    "ClusterCapController",
    "NodeCap",
    "NodePowerModel",
    "PowercapReport",
    "allocate_budget",
    "allocation_makespan",
    "apply_hysteresis",
    "cap_ghz_for_watts",
    "check_budget_w",
    "check_policy",
    "node_power_model",
    "phase_caps_for_budget",
    "proportional_allocation",
    "uniform_allocation",
    "waterfill_allocation",
]
