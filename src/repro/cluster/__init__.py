"""Cluster substrate: schedulable-resource model and allocation pool.

Resources are *unit-based*, matching the paper's state encoding (§III-A):
a system administrator defines the unit (a compute node for CPU, a TB
slice for the burst buffer, a kW slice for power), and every resource is
a set of interchangeable units with per-unit estimated-available-time
tracking.

``system``
    :class:`ResourceSpec`, :class:`SystemConfig` and the canonical
    resource names; no NumPy.
``resources``
    :class:`ResourcePool`, the allocation state a replay mutates.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cluster.system": [
        "ResourceSpec", "SystemConfig", "NODE", "BURST_BUFFER", "POWER",
    ],
    "repro.cluster.resources": ["ResourcePool"],
})
