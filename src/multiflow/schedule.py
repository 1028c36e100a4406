"""Fractional schedules, their delivered per-link rates, the per-link check, the settle cutoff."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import Network


def check_per_link(values, link_count: int, name: str = "demand") -> np.ndarray:
    """A per-link vector as a new float array: right length, finite, nonnegative."""
    v = np.array(values, dtype=float)
    if v.shape != (link_count,):
        raise ValidationError(f"{name} has shape {v.shape}, expected ({link_count},)")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValidationError(f"{name} must be finite and nonnegative")
    return v


def settle_cutoff(demand: np.ndarray) -> float:
    """The one zero rule: a returned value at or under 1e-12 times min(1, largest demand) is 0."""
    return 1e-12 * min(1.0, float(demand.max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class FractionalSchedule:
    """Weighted sequence of conflict-free hyperarc sets.

    Entries are (hyperarc index set, positive weight). The total weight is
    the schedule length; lengths above one are legal and simply mean the
    schedule does not fit one unit time frame.
    """

    entries: tuple[tuple[frozenset[int], float], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for vertices, lam in self.entries:
            lam = float(lam)
            if not math.isfinite(lam) or lam <= 0:
                raise ValidationError(f"schedule weight must be positive, got {lam}")
            cleaned.append((frozenset(vertices), lam))
        object.__setattr__(self, "entries", tuple(cleaned))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def length(self) -> float:
        return float(sum(lam for _, lam in self.entries))

    def capacity(self, network: Network) -> np.ndarray:
        """The delivered per-link rates: each entry serves the union of its hyperarcs' sub-links."""
        table, n = network.sublink_index, network.link_count
        rates = np.zeros(n)
        for vertices, lam in self.entries:
            idx = sorted(vertices)
            outside = [v for v in idx if not 1 <= v <= len(table)]
            if outside:
                raise ValidationError(f"hyperarc index {outside[0]} outside 1..{len(table)}")
            links = np.unique(table[np.array(idx, dtype=np.intp) - 1])
            rates[links[links < n]] += lam
        return rates
