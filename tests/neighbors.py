"""Beacon facts from neighbors a test places by hand, and from a simulator run.

Protocol tests name a receiver's fresh neighbors as ``{vehicle: (x, y)}``,
where each was when its last beacon arrived. ``heard_from`` turns that dict
into the ``Heard`` the simulator would pass with one warning. ``last_heard``
reads a runner's beacon rounds back as times.
"""

from typing import Optional

import numpy as np

from irsim.protocol import Heard, Warning, _distance


def heard_from(neighbors: dict, warning: Warning, receiver=(0.0, 0.0)) -> Optional[Heard]:
    """The facts ``neighbors`` give ``warning`` at ``receiver``; None when its sender is not among them.

    ``extremes()`` finds the nearest and farthest neighbor to the event when called, as the
    simulator's does; a tie goes to the lowest id.
    """
    if warning.sender not in neighbors:
        return None

    def extremes():
        ids = sorted(neighbors)
        nearest = min(ids, key=lambda v: _distance(neighbors[v], warning.event_position))
        farthest = max(ids, key=lambda v: _distance(neighbors[v], warning.event_position))
        return neighbors[nearest], neighbors[farthest]

    return Heard(receiver, neighbors[warning.sender], extremes)


def last_heard(runner) -> np.ndarray:
    """The time of each pair's last beacon round in ``runner``, ``index * beacon_interval[0]``; -inf for never."""
    return np.where(runner.heard_round >= 0, runner.heard_round * runner.cfg.beacon_interval[0], -np.inf)
