"""AriesNCL-style per-job counter collection (paper §III-C).

AriesNCL (via PAPI) can only read counters of routers *directly attached*
to the job's nodes — the paper calls this limitation out explicitly, and
it is why the ``io``/``sys`` feature groups need LDMS instead.  This layer
reproduces exactly that view: per time step, it integrates the per-router
counter rates over the step duration and sums over the job's routers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.network.counters import APP_COUNTERS, counters_to_matrix
from repro.topology.dragonfly import DragonflyTopology


@dataclass
class StepCounters:
    """Counter deltas recorded for one time step of one run."""

    step: int
    duration: float
    values: dict[str, float] = field(default_factory=dict)

    def vector(self, names: list[str] | None = None) -> np.ndarray:
        names = names or APP_COUNTERS
        return np.array([self.values[n] for n in names], dtype=np.float64)


class AriesNCL:
    """Per-job counter collector bound to one placement."""

    def __init__(
        self,
        topology: DragonflyTopology,
        job_routers: np.ndarray,
        rng: np.random.Generator | None = None,
        noise: float = 0.02,
    ) -> None:
        self.topology = topology
        self.job_routers = np.asarray(job_routers)
        self.rng = rng
        self.noise = noise
        self._steps: list[StepCounters] = []

    def record_steps(
        self,
        steps: list[int],
        durations: list[float],
        router_rates: dict[str, np.ndarray],
    ) -> list[StepCounters]:
        """Read counters for a block of steps.

        ``router_rates`` maps counter names to ``(steps, routers)`` rate
        matrices; ``durations`` holds one step length per step.  Each
        step/counter value sums the rates over the job routers and
        integrates over the step.  With an ``rng`` and ``noise > 0``,
        each value gets a multiplicative lognormal measurement jitter
        (counter reads on Aries are not perfectly aligned with step
        boundaries).

        Bit-identical to recording step by step: each value is a per-row
        1-D sum over the job routers, and the jitter is drawn from
        ``self.rng`` as one step-major batch — numpy's sized
        ``lognormal`` consumes the stream exactly like per-step scalar
        draws, in the same (step, counter) order.
        """
        names = list(router_rates)
        matrix = counters_to_matrix(router_rates, names)  # (13, B, R)
        # One gather of the job-router columns for the whole block; each
        # (counter, step) row of `sub` holds the same values in the same
        # order as the per-step gather, so the 1-D sums are bit-equal
        # (C order forced so row reductions use the contiguous kernel).
        sub = np.ascontiguousarray(matrix[:, :, self.job_routers])
        n = len(steps)
        if self.rng is not None and self.noise > 0:
            jitter = self.rng.lognormal(
                mean=0.0, sigma=self.noise, size=n * len(names)
            ).reshape(n, len(names))
        else:
            jitter = None
        out: list[StepCounters] = []
        for i, step in enumerate(steps):
            duration = durations[i]
            values: dict[str, float] = {}
            for j, name in enumerate(names):
                value = float(sub[j, i].sum()) * duration
                if jitter is not None:
                    value *= float(jitter[i, j])
                values[name] = value
            sc = StepCounters(step=step, duration=duration, values=values)
            self._steps.append(sc)
            out.append(sc)
        return out

    @property
    def steps(self) -> list[StepCounters]:
        return list(self._steps)

    def matrix(self, names: list[str] | None = None) -> np.ndarray:
        """(T, H) matrix of counter deltas over the recorded steps."""
        names = names or APP_COUNTERS
        return np.stack([s.vector(names) for s in self._steps], axis=0)
