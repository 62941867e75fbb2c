"""CbmaSystem: the full network life cycle in one object.

Everything below this module is a mechanism; this is the policy loop a
deployed CBMA network actually runs, epoch after epoch:

1. **Group selection** -- more tags may exist than concurrent-decode
   capacity; a rotating, starvation-free scheduler
   (:class:`~repro.mac.fairness.RotatingGroupScheduler`) picks this
   epoch's active group.
2. **Power control** -- Algorithm 1 balances the group (run on the
   first epoch a group composition is seen, then cached per group).
3. **Data transfer** -- the group exchanges traffic for the epoch
   (saturated rounds, or ARQ-managed queues when a traffic model is
   supplied).
4. **Mobility** -- optional tag motion between epochs invalidates
   cached power states when positions drift.

The object exposes per-epoch reports and cumulative metrics, which is
what the long-running deployment example and the system benchmark
drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


from repro.channel.geometry import Deployment
from repro.mac.fairness import RotatingGroupScheduler, ServiceLog
from repro.mac.power_control import PowerController
from repro.obs.taxonomy import C, S
from repro.obs.tracer import as_tracer
from repro.sim.metrics import MetricsAccumulator
from repro.sim.network import CbmaConfig, CbmaNetwork
from repro.utils.rng import make_rng

__all__ = ["CbmaSystem", "EpochReport"]


@dataclass(frozen=True)
class EpochReport:
    """Outcome of one system epoch."""

    epoch: int
    group: Tuple[int, ...]
    fer: float
    frames_sent: int
    power_control_ran: bool


class CbmaSystem:
    """A deployed CBMA network with more tags than concurrent capacity.

    Parameters
    ----------
    config:
        PHY/MAC configuration; ``config.n_tags`` is the *group size*
        (concurrent-decode capacity), not the population.
    deployment:
        All tag positions; the population size is ``len(deployment.tags)``.
    controller:
        Algorithm 1 settings (used whenever a new group composition
        needs balancing).
    mobility:
        Optional mobility model with an ``update(deployment, dt_s, rng)``
        method, advanced once per epoch.
    mobility_dt_s:
        Simulated time per epoch handed to the mobility model.
    reposition_tolerance_m:
        Cached power-control results are invalidated when any group
        member moved farther than this since balancing.
    faults:
        Optional :class:`~repro.faults.FaultPlan` threaded into every
        epoch's network.  The plan's round timeline is global across
        epochs (epoch 2 continues where epoch 1 stopped), so windowed
        faults like a mid-run jammer behave as one deployment-time
        event.  Fault targets are *group-relative* tag slots.
        Injections accumulate in :attr:`fault_log`.
    """

    def __init__(
        self,
        config: CbmaConfig,
        deployment: Deployment,
        controller: Optional[PowerController] = None,
        mobility=None,
        mobility_dt_s: float = 1.0,
        reposition_tolerance_m: float = 0.10,
        seed=None,
        tracer=None,
        faults=None,
    ):
        population = len(deployment.tags)
        if population < config.n_tags:
            raise ValueError(
                f"population {population} smaller than group size {config.n_tags}"
            )
        self.config = config
        self.deployment = deployment
        self.controller = controller or PowerController(packets_per_epoch=8)
        self.mobility = mobility
        self.mobility_dt_s = mobility_dt_s
        self.reposition_tolerance_m = reposition_tolerance_m
        self.rng = make_rng(seed if seed is not None else config.seed)
        self.tracer = as_tracer(tracer)
        self.scheduler = RotatingGroupScheduler(deployment, group_size=config.n_tags)
        self.service_log = ServiceLog(n_tags=population)
        self.metrics = MetricsAccumulator()
        self._epoch = 0
        self.faults = faults
        #: Rounds simulated so far -- the fault plan's global timeline.
        self._rounds_simulated = 0
        #: Cumulative ``fault.*`` injection counts across epochs.
        self.fault_log: Dict[str, int] = {}
        #: group composition -> (impedance states, positions at balance time)
        self._balanced: Dict[Tuple[int, ...], tuple] = {}

    # ------------------------------------------------------------------

    def _positions_of(self, group: Sequence[int]) -> List[tuple]:
        return [(self.deployment.tags[i].x, self.deployment.tags[i].y) for i in group]

    def _needs_rebalance(self, key: Tuple[int, ...]) -> bool:
        cached = self._balanced.get(key)
        if cached is None:
            return True
        _, positions = cached
        for (x0, y0), (x1, y1) in zip(positions, self._positions_of(key)):
            if ((x0 - x1) ** 2 + (y0 - y1) ** 2) ** 0.5 > self.reposition_tolerance_m:
                return True
        return False

    def _build_network(self, group: Sequence[int]) -> CbmaNetwork:
        sub = Deployment(
            excitation=self.deployment.excitation,
            receiver=self.deployment.receiver,
            tags=[self.deployment.tags[i] for i in group],
            room=self.deployment.room,
        )
        net = CbmaNetwork(
            self.config,
            sub,
            tracer=self.tracer if self.tracer.enabled else None,
            faults=self.faults,
            round_offset=self._rounds_simulated,
        )
        net.rng = make_rng(int(self.rng.integers(0, 2**31)))
        return net

    def run_epoch(self, rounds: int = 20) -> EpochReport:
        """One full epoch: select, balance (if needed), transfer, move."""
        tracer = self.tracer
        with tracer.span(S.EPOCH, epoch=self._epoch):
            tracer.count(C.EPOCH_EPOCHS)
            # Sorted so the same composition hits the same balance cache
            # regardless of the order the scheduler emitted it.
            group = tuple(sorted(self.scheduler.next_group(self.rng)))
            net = self._build_network(group)

            ran_pc = False
            if self._needs_rebalance(group):
                self.controller.run(net.tags, net.epoch_runner)
                self._balanced[group] = (
                    [t.impedance_index for t in net.tags],
                    self._positions_of(group),
                )
                ran_pc = True
                tracer.count(C.EPOCH_POWER_CONTROL_RUNS)
            else:
                states, _ = self._balanced[group]
                for tag, z in zip(net.tags, states):
                    tag.set_impedance(z)

            epoch_metrics = net.run_rounds(rounds)
        # Advance the global fault timeline past everything this
        # epoch's network simulated (power-control probing included)
        # and fold its injection log into the system's.
        self._rounds_simulated = net._round_index
        for reason, count in net.fault_log.items():
            self.fault_log[reason] = self.fault_log.get(reason, 0) + count
        delivered = {
            group[i]: epoch_metrics.per_tag_correct.get(i, 0) for i in range(len(group))
        }
        self.service_log.record_epoch(group, delivered)

        # Fold into the cumulative metrics (remapping tag ids to the
        # population index space).
        self.metrics.frames_sent += epoch_metrics.frames_sent
        self.metrics.frames_detected += epoch_metrics.frames_detected
        self.metrics.frames_decoded += epoch_metrics.frames_decoded
        self.metrics.frames_correct += epoch_metrics.frames_correct
        self.metrics.payload_bits_delivered += epoch_metrics.payload_bits_delivered
        self.metrics.elapsed_s += epoch_metrics.elapsed_s
        for i, pop_idx in enumerate(group):
            self.metrics.per_tag_sent[pop_idx] = (
                self.metrics.per_tag_sent.get(pop_idx, 0)
                + epoch_metrics.per_tag_sent.get(i, 0)
            )
            self.metrics.per_tag_correct[pop_idx] = (
                self.metrics.per_tag_correct.get(pop_idx, 0)
                + epoch_metrics.per_tag_correct.get(i, 0)
            )

        if self.mobility is not None:
            self.mobility.update(self.deployment, dt_s=self.mobility_dt_s, rng=self.rng)

        report = EpochReport(
            epoch=self._epoch,
            group=group,
            fer=epoch_metrics.fer,
            frames_sent=epoch_metrics.frames_sent,
            power_control_ran=ran_pc,
        )
        self._epoch += 1
        return report

    def run(self, n_epochs: int, rounds_per_epoch: int = 20) -> List[EpochReport]:
        """Run several epochs; returns their reports."""
        if n_epochs < 0:
            raise ValueError("n_epochs must be non-negative")
        return [self.run_epoch(rounds_per_epoch) for _ in range(n_epochs)]

    # ------------------------------------------------------------------

    @property
    def population(self) -> int:
        return len(self.deployment.tags)

    def fairness(self) -> float:
        """Jain index of scheduling shares across the population."""
        return self.service_log.fairness()

    def per_tag_delivery(self) -> Dict[int, float]:
        """Population-indexed delivery ratios (1.0 when never scheduled)."""
        return {
            i: self.metrics.per_tag_ack_ratio(i) for i in range(self.population)
        }
