"""Subgraph quality indicators of the paper's §III-A / Table III:
data sufficiency (target ratio, |C'|, |R'|) and graph topology
(target-disconnected %, average distance to targets, Eq. 2 entropy)."""
