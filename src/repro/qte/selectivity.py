"""Per-request selectivity cache shared across QTE calls.

Within one visualization request, all candidate rewritten queries share the
same filter predicates.  Once a selectivity has been collected (by running a
count on a sample table, or — for the oracle QTE — looked up exactly), every
later estimate that needs it gets it for free.  The MDP transition function
reads this cache to update the estimation costs of unexplored options.
"""

from __future__ import annotations


class SelectivityCache:
    """Attribute -> collected selectivity for the current request."""

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def has(self, attribute: str) -> bool:
        return attribute in self._values

    def get(self, attribute: str) -> float:
        return self._values[attribute]

    def put(self, attribute: str, selectivity: float) -> None:
        if not 0.0 <= selectivity <= 1.0:
            raise ValueError(f"selectivity out of range: {selectivity}")
        self._values[attribute] = selectivity

    def missing(self, attributes: frozenset[str]) -> frozenset[str]:
        """Subset of ``attributes`` not collected yet."""
        return frozenset(a for a in attributes if a not in self._values)

    @property
    def collected(self) -> dict[str, float]:
        return dict(self._values)

    @property
    def collected_keys(self):
        """Live, read-only view of the collected attribute names.

        Estimators probe membership here once per MDP step; the view avoids
        re-copying the dict on that hot path.
        """
        return self._values.keys()

    def clear(self) -> None:
        self._values.clear()

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SelectivityCache({self._values})"
