"""The eager form of the beacon radio, as a reference for the simulator's lazy one.

``EagerRunner`` is a ``sim._Runner`` that works out, in every beacon round,
who heard whom for all n x n pairs, and keeps each pair's last heard round
in ``heard_round[receiver, sender]`` (-1 for never). It answers ``heard``
and ``extremes`` from that matrix, with positions from the mobility formula,
the way the simulator did before it worked beacons out lazily. Its rounds use
the same keyed loss draws (``Channel.beacon_kept``), and it draws each
warning's ranging errors as the simulator does, so a run through it must
give the same bytes as ``sim.run``.
"""

from functools import partial

import numpy as np

from irsim import sim
from irsim.protocol import Heard


class EagerRunner(sim._Runner):
    def __init__(self, world):
        super().__init__(world)
        n = world.n
        self.heard_round = np.full((n, n), -1, dtype=np.int32)
        self.eager_next_tx = np.zeros(n)

    def handle_round(self, t, index):
        world, n = self.world, self.world.n
        due = self.eager_next_tx <= t + 1e-9
        self.eager_next_tx[due] += self.beacon_iv[due]
        positions = world.positions_at(t)
        dx = positions[:, 0][:, None] - positions[:, 0][None, :]
        dy = world.lane_y[:, None] - world.lane_y[None, :]
        vehicles = np.arange(n)
        ok = world.channel.in_range_sq(dx, dy * dy) & due[None, :] & ~np.eye(n, dtype=bool)
        ok &= world.channel.beacon_kept(index, vehicles[None, :], vehicles[:, None])
        self.heard_round[ok] = index
        super().handle_round(t, index)

    def x_heard(self, vehicle, index):
        """Where ``vehicle`` was in round ``index``, from the mobility formula."""
        return float(self.world.x_at(index * self.cfg.beacon_interval[0])[vehicle])

    def heard(self, receivers, warning, now, positions):
        world, sender = self.world, warning.sender
        kmin = self.first_fresh_round(now)
        extremes = partial(self.extremes, event=warning.event_position, kmin=kmin, last_round=self.last_round)
        facts, readers, ranges = [None] * len(receivers), [], []
        for i, r in enumerate(receivers.tolist()):
            index = int(self.heard_round[r, sender])
            if index < kmin or warning.event_id in world.nodes[r].pending:
                continue
            sender_at = (self.x_heard(sender, index), float(world.lane_y[sender]))
            readers.append((i, sender_at))
            ranges.append(np.hypot(positions[r][0] - sender_at[0], positions[r][1] - sender_at[1]))
        # One draw per warning, a row per fact in arrival order, as the simulator makes it.
        cfg = self.cfg
        errors = world.channel.ranging_errors(np.array(ranges), cfg.ranging_noise_sigma, cfg.ranging_noise_per_meter)
        for (i, sender_at), pair in zip(readers, errors.tolist()):
            facts[i] = Heard(sender_at, pair, extremes)
        return facts

    def extremes(self, receiver, event, kmin, last_round):
        if self.last_round != last_round:
            raise RuntimeError(f"beacon facts of round {last_round} read after round {self.last_round}")
        lane_y = self.world.lane_y
        rounds = self.heard_round[receiver].tolist()
        x = np.array([self.x_heard(v, k) if k >= 0 else 0.0 for v, k in enumerate(rounds)])
        spread = np.hypot(x - event[0], lane_y - event[1])
        fresh = np.array(rounds) >= kmin
        nearest = int(np.where(fresh, spread, np.inf).argmin())
        farthest = int(np.where(fresh, spread, -np.inf).argmax())
        return (float(x[nearest]), float(lane_y[nearest])), (float(x[farthest]), float(lane_y[farthest]))
