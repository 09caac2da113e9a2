"""The *Optimization* baseline: multi-objective GA over the window.

The paper's optimization comparator (§IV-D) formulates multi-resource
scheduling as a multi-objective optimization solved with a genetic
algorithm (Fan et al., HPDC'19), applied over the same selection window
as MRSch for fairness. We implement an NSGA-II style optimizer:

* **genome** — a permutation of the window jobs (the start order),
* **objectives** — per-resource utilization over the estimated
  placement horizon, each maximized; evaluation list-schedules the
  permutation against the pool's *estimated* unit free times,
* **machinery** — fast non-dominated sorting, crowding distance,
  binary tournament selection, order crossover (OX1) and swap mutation.

The returned ordering is the knee of the first Pareto front (the
individual with the best sum of normalized objectives), making the
decision single-valued as the scheduler interface requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.resources import ResourcePool
from repro.sched.base import SchedulingContext, WindowPolicyScheduler
from repro.utils.rng import as_generator
from repro.workload.job import Job

__all__ = ["NSGA2Config", "GAScheduler"]


@dataclass(frozen=True)
class NSGA2Config:
    """GA hyper-parameters; defaults sized for windows of ~10 jobs."""

    population: int = 24
    generations: int = 15
    p_crossover: float = 0.9
    p_mutation: float = 0.2

    def __post_init__(self) -> None:
        if self.population < 2 or self.generations < 1:
            raise ValueError("population >= 2 and generations >= 1 required")
        if not (0 <= self.p_crossover <= 1 and 0 <= self.p_mutation <= 1):
            raise ValueError("probabilities must be in [0, 1]")


class GAScheduler(WindowPolicyScheduler):
    """NSGA-II multi-objective window ordering."""

    name = "optimization"

    def __init__(
        self,
        window_size: int = 10,
        backfill: bool = True,
        config: NSGA2Config | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(window_size=window_size, backfill=backfill)
        self.config = config or NSGA2Config()
        self.rng = as_generator(seed)
        # Snapshot the stream so reset() restores run-to-run determinism:
        # replaying the same trace twice yields identical schedules.
        self._rng_state = self.rng.bit_generator.state

    def reset(self) -> None:
        super().reset()
        self.rng.bit_generator.state = self._rng_state

    # -- ordering ------------------------------------------------------------

    def rank(self, window: list[Job], ctx: SchedulingContext) -> list[Job]:
        if len(window) <= 1:
            return list(window)
        best = self._optimize(window, ctx)
        return [window[i] for i in best]

    def _optimize(self, window: list[Job], ctx: SchedulingContext) -> np.ndarray:
        cfg = self.config
        n = len(window)
        pop = [self.rng.permutation(n) for _ in range(cfg.population)]
        # Seed FCFS order so the GA can never do worse than the heuristic
        # on its own objective.
        pop[0] = np.arange(n)
        objs = np.array([self._evaluate(p, window, ctx) for p in pop])
        for _ in range(cfg.generations):
            offspring = self._make_offspring(pop)
            off_objs = np.array([self._evaluate(p, window, ctx) for p in offspring])
            pop, objs = self._environmental_selection(
                pop + offspring, np.vstack([objs, off_objs]), cfg.population
            )
        return self._knee(pop, objs)

    # -- objective evaluation ---------------------------------------------

    def _evaluate(
        self, perm: np.ndarray, window: list[Job], ctx: SchedulingContext
    ) -> np.ndarray:
        """Estimated per-resource utilization of one start order (negated).

        List-schedules the permutation against per-unit estimated free
        times (walltime-based, never actual runtimes): each job starts at
        the latest k-th order statistic across its resources; utilization
        is used unit-time over capacity × horizon.
        """
        names = ctx.system.names
        free = {n: _estimated_free_times(ctx.pool, n, ctx.now) for n in names}
        used = {
            n: np.maximum(free[n] - ctx.now, 0.0).sum() for n in names
        }  # running jobs' remaining estimated occupancy
        horizon = ctx.now
        for idx in perm:
            job = window[idx]
            start = ctx.now
            for name in names:
                amount = job.request(name)
                if amount <= 0:
                    continue
                start = max(start, float(np.partition(free[name], amount - 1)[amount - 1]))
            end = start + job.walltime
            horizon = max(horizon, end)
            for name in names:
                amount = job.request(name)
                if amount <= 0:
                    continue
                sel = np.argpartition(free[name], amount - 1)[:amount]
                free[name][sel] = end
                used[name] += amount * job.walltime
        span = max(horizon - ctx.now, 1e-9)
        util = np.array([used[n] for n in names]) / (ctx.system.capacities * span)
        return -util  # NSGA-II minimizes

    # -- NSGA-II machinery -----------------------------------------------

    def _make_offspring(self, pop: list[np.ndarray]) -> list[np.ndarray]:
        cfg = self.config
        offspring = []
        for _ in range(len(pop)):
            a, b = self._tournament(pop), self._tournament(pop)
            child = (
                _order_crossover(a, b, self.rng)
                if self.rng.random() < cfg.p_crossover
                else a.copy()
            )
            if self.rng.random() < cfg.p_mutation:
                _swap_mutation(child, self.rng)
            offspring.append(child)
        return offspring

    def _tournament(self, pop: list[np.ndarray]) -> np.ndarray:
        i, j = self.rng.integers(0, len(pop), size=2)
        # Rank information is folded into the population ordering after
        # environmental selection; lower index = better.
        return pop[min(i, j)]

    @staticmethod
    def _environmental_selection(
        pop: list[np.ndarray], objs: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], np.ndarray]:
        fronts = _non_dominated_sort(objs)
        chosen: list[int] = []
        for front in fronts:
            if len(chosen) + len(front) <= k:
                # Keep whole front, best-crowded first.
                dist = _crowding_distance(objs[front])
                order = np.argsort(-dist)
                chosen.extend(front[i] for i in order)
            else:
                dist = _crowding_distance(objs[front])
                order = np.argsort(-dist)
                chosen.extend(front[i] for i in order[: k - len(chosen)])
                break
        return [pop[i] for i in chosen], objs[chosen]

    @staticmethod
    def _knee(pop: list[np.ndarray], objs: np.ndarray) -> np.ndarray:
        fronts = _non_dominated_sort(objs)
        front = fronts[0]
        front_objs = objs[front]
        lo = front_objs.min(axis=0)
        hi = front_objs.max(axis=0)
        scale = np.where(hi > lo, hi - lo, 1.0)
        score = ((front_objs - lo) / scale).sum(axis=1)
        return pop[front[int(np.argmin(score))]]


# -- permutation operators & Pareto helpers (module-level, reusable) -------


def _estimated_free_times(pool: ResourcePool, name: str, now: float) -> np.ndarray:
    avail, ttf = pool.unit_state(name, now)
    return np.where(avail > 0, now, now + ttf)


def _order_crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """OX1 order crossover preserving permutation validity."""
    n = a.size
    if n < 2:
        return a.copy()
    i, j = sorted(rng.integers(0, n, size=2))
    j += 1
    child = -np.ones(n, dtype=a.dtype)
    child[i:j] = a[i:j]
    fill = [g for g in b if g not in set(a[i:j].tolist())]
    positions = [p for p in range(n) if not (i <= p < j)]
    for pos, gene in zip(positions, fill):
        child[pos] = gene
    return child


def _swap_mutation(perm: np.ndarray, rng: np.random.Generator) -> None:
    if perm.size < 2:
        return
    i, j = rng.integers(0, perm.size, size=2)
    perm[i], perm[j] = perm[j], perm[i]


def _non_dominated_sort(objs: np.ndarray) -> list[np.ndarray]:
    """Fast non-dominated sorting (minimization); returns index fronts."""
    n = objs.shape[0]
    # Pairwise domination: i dominates j if <= on all and < on one.
    le = (objs[:, None, :] <= objs[None, :, :]).all(axis=2)
    lt = (objs[:, None, :] < objs[None, :, :]).any(axis=2)
    dominates = le & lt
    dominated_count = dominates.sum(axis=0)
    fronts: list[np.ndarray] = []
    remaining = np.ones(n, dtype=bool)
    counts = dominated_count.copy()
    while remaining.any():
        current = np.flatnonzero(remaining & (counts == 0))
        if current.size == 0:
            # Numerical ties: emit everything left as one front.
            current = np.flatnonzero(remaining)
        fronts.append(current)
        remaining[current] = False
        counts = counts - dominates[current].sum(axis=0)
    return fronts


def _crowding_distance(objs: np.ndarray) -> np.ndarray:
    n, m = objs.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for k in range(m):
        order = np.argsort(objs[:, k])
        lo, hi = objs[order[0], k], objs[order[-1], k]
        dist[order[0]] = dist[order[-1]] = np.inf
        if hi > lo:
            gaps = (objs[order[2:], k] - objs[order[:-2], k]) / (hi - lo)
            dist[order[1:-1]] += gaps
    return dist
