"""Beacon facts from neighbors a test places by hand, and from a simulator run.

Protocol tests name a receiver's fresh neighbors as ``{vehicle: (x, y)}``,
where each was when its last beacon arrived. ``heard_from`` turns that dict
into the ``Heard`` the simulator would pass with one warning. ``last_heard``
works out who heard whom in the rounds a runner holds, as times.
"""

from typing import Optional

import numpy as np

from irsim.protocol import Heard, Warning, _distance


def heard_from(
    neighbors: dict, warning: Warning, errors=(0.0, 0.0), receiver_id: Optional[int] = None
) -> Optional[Heard]:
    """The facts ``neighbors`` give ``warning`` with ranging ``errors``; None when its sender is not among them.

    ``extremes(receiver_id)`` finds the nearest and farthest neighbor to the event when called, as
    the simulator's does; a tie goes to the lowest id. Given ``receiver_id``, it also checks that
    the decision passed that id.
    """
    if warning.sender not in neighbors:
        return None

    def extremes(caller):
        assert receiver_id is None or caller == receiver_id, (caller, receiver_id)
        ids = sorted(neighbors)
        nearest = min(ids, key=lambda v: _distance(neighbors[v], warning.event_position))
        farthest = max(ids, key=lambda v: _distance(neighbors[v], warning.event_position))
        return neighbors[nearest], neighbors[farthest]

    return Heard(neighbors[warning.sender], errors, extremes)


def last_heard(runner) -> np.ndarray:
    """The time of each pair's last beacon round that ``runner`` still holds, ``index * beacon_interval[0]``.

    Row receiver, column sender; -inf where the receiver heard no beacon of the sender in the rounds
    the runner's ring holds (every round of a run whose ring is longer than the run).
    """
    n = runner.world.n
    receivers, senders = np.divmod(np.arange(n * n), n)
    oldest = max(0, runner.last_round - runner.ring + 1)
    rounds = runner.last_heard_round(receivers, senders, oldest).reshape(n, n)
    return np.where(rounds >= 0, rounds * runner.cfg.beacon_interval[0], -np.inf)
