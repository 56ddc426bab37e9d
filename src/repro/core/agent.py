"""The trained MDP agent: a policy over rewrite options.

The agent is the q-network plus the option space and budget it was trained
for.  Acting on it happens on the frontier
(:class:`~repro.core.frontier.LockstepFrontier`): its stacked state matrix
goes through :meth:`QNetwork.predict_rows`, whose per-row results are
independent of the batch size, and a masked argmax picks each request's
highest-q unexplored option — so a request's actions do not depend on how
many others share its frontier.
"""

from __future__ import annotations

from ..errors import TrainingError
from .frontier import state_size
from .options import RewriteOptionSpace
from .qnetwork import QNetwork


class MalivaAgent:
    """Wraps a q-network with the option space and budget it was trained for."""

    def __init__(
        self, network: QNetwork, space: RewriteOptionSpace, tau_ms: float
    ) -> None:
        expected = state_size(len(space))
        if network.input_dim != expected:
            raise TrainingError(
                f"network input dim {network.input_dim} does not match "
                f"option space of size {len(space)} (expected {expected})"
            )
        if network.n_actions != len(space):
            raise TrainingError(
                f"network has {network.n_actions} actions for a space of "
                f"{len(space)} options"
            )
        self.network = network
        self.space = space
        self.tau_ms = tau_ms

    def save(self, path: str) -> None:
        self.network.save(path)
