"""Subgraph quality indicators of the paper's §III-A / Table III:
data sufficiency (target ratio, |C'|, |R'|) and graph topology
(target-disconnected %, average distance to targets, Eq. 2 entropy)."""

from repro.metrics.sufficiency import sufficiency_stats  # noqa: F401
from repro.metrics.topology import (  # noqa: F401
    avg_distance_to_targets,
    neighbour_type_entropy,
    target_disconnected_pct,
)
