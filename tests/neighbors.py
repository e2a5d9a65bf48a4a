"""Beacon facts from neighbors a test places by hand.

Protocol tests name a receiver's fresh neighbors as ``{vehicle: (x, y)}``,
where each was when its last beacon arrived. ``heard_from`` turns that dict
into the ``Heard`` the simulator would pass with one warning.
"""

from typing import Optional

from irsim.protocol import Heard, Warning, _distance


def heard_from(neighbors: dict, warning: Warning, receiver=(0.0, 0.0)) -> Optional[Heard]:
    """The facts ``neighbors`` give ``warning`` at ``receiver``; None when its sender is not among them.

    A tie for the nearest or farthest neighbor to the event goes to the lowest id.
    """
    if warning.sender not in neighbors:
        return None
    ids = sorted(neighbors)
    nearest = min(ids, key=lambda v: _distance(neighbors[v], warning.event_position))
    farthest = max(ids, key=lambda v: _distance(neighbors[v], warning.event_position))
    return Heard(receiver, neighbors[warning.sender], neighbors[nearest], neighbors[farthest])
