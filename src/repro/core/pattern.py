"""The TOSG generic graph pattern (paper §III-B, Fig. 3).

Two parameters: predicate direction ``d`` (1 = outgoing only, 2 = outgoing
and incoming) and hop count ``h``. ``KG-TOSA_d1h1`` is the paper's default
for NC tasks; ``d2h1`` for LP tasks. ``sparql_extract`` evaluates the
pattern as a BGP against the partitioned triple indices instead of a SPARQL
endpoint.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TOSGPattern:
    """Pattern parameters ``(d, h)`` with validation."""

    d: int = 1
    h: int = 1

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.h < 1:
            raise ValueError(f"h must be >= 1, got {self.h}")

    @property
    def variant(self) -> str:
        """Paper naming, e.g. ``d1h1`` in KG-TOSA_d1h1."""
        return f"d{self.d}h{self.h}"

