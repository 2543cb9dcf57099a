"""Seeded synthetic instances and the solver runtime comparison harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .model import GameDefinitionError, Instance
from .planner import get_solver

# Timeout convention: runs longer than the cap are recorded at the cap.
DEFAULT_TIMEOUT = 7200.0
DEFAULT_RUNS = 30


@dataclass(frozen=True)
class GenParams:
    """Shape and value ranges for one random instance family.

    Defaults mirror the synthetic evaluation setup: rewards uniform in
    [0, 10), penalties uniform in [-10, 0), and 0 < e_v < e_p < 1.
    """

    n: int
    r_p: float
    r_v: int
    seed: int
    reward_high: float = 10.0
    penalty_low: float = -10.0

    def __post_init__(self):
        if self.n < 1:
            raise GameDefinitionError("need at least one target")
        if self.r_p < 0 or self.r_v < 0:
            raise GameDefinitionError("budgets must be nonnegative")
        if not self.reward_high > 0:
            raise GameDefinitionError("reward range must be positive")
        if not self.penalty_low < 0:
            raise GameDefinitionError("penalty range must be negative")


def generate_instance(params: GenParams) -> Instance:
    """Deterministic instance for the given seed."""
    rng = np.random.default_rng(params.seed)
    reward_def = rng.uniform(0.0, params.reward_high, params.n)
    penalty_def = rng.uniform(params.penalty_low, 0.0, params.n)
    reward_att = rng.uniform(0.0, params.reward_high, params.n)
    penalty_att = rng.uniform(params.penalty_low, 0.0, params.n)
    while True:
        pair = rng.uniform(0.0, 1.0, 2)
        if pair.min() > 0.0 and pair[0] != pair[1]:
            break
    return Instance(
        ranger_budget=float(params.r_p),
        villager_budget=int(params.r_v),
        e_p=float(pair.max()),
        e_v=float(pair.min()),
        reward_def=reward_def,
        penalty_def=penalty_def,
        reward_att=reward_att,
        penalty_att=penalty_att,
    )


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    n: int
    r_p: float
    r_v: int
    runs: int
    mean_s: float
    std_s: float
    min_s: float
    p97_s: float
    timeouts: int


@dataclass(frozen=True)
class BenchReport:
    rows: Tuple[BenchRow, ...]

    CSV_HEADER = "algorithm,n,rp,rv,runs,mean_s,std_s,min_s,p97_s,timeouts"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                "%s,%d,%r,%d,%d,%r,%r,%r,%r,%d"
                % (
                    r.algorithm,
                    r.n,
                    r.r_p,
                    r.r_v,
                    r.runs,
                    r.mean_s,
                    r.std_s,
                    r.min_s,
                    r.p97_s,
                    r.timeouts,
                )
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())


def run_benchmark(
    grid: Sequence[GenParams],
    algorithms: Sequence[str],
    runs: int = DEFAULT_RUNS,
    timeout: float = DEFAULT_TIMEOUT,
) -> BenchReport:
    """Wall-clock solver comparison over fresh seeded instances per cell.

    Timing wraps the solve call only; the same ``runs`` instances (seeds
    seed, seed+1, ...) are shared by every algorithm in a cell, sequentially
    on one worker. Runs exceeding ``timeout`` seconds are recorded at the cap
    and counted, not dropped.
    """
    solvers = {name: get_solver(name) for name in algorithms}
    rows: List[BenchRow] = []
    for params in grid:
        instances = [
            generate_instance(replace(params, seed=params.seed + k)) for k in range(runs)
        ]
        for name in algorithms:
            solver = solvers[name]
            times = []
            timeouts = 0
            for inst in instances:
                start = time.perf_counter()
                solver(inst)
                elapsed = time.perf_counter() - start
                if elapsed > timeout:
                    elapsed = timeout
                    timeouts += 1
                times.append(elapsed)
            arr = np.asarray(times)
            rows.append(
                BenchRow(
                    algorithm=name,
                    n=params.n,
                    r_p=params.r_p,
                    r_v=params.r_v,
                    runs=runs,
                    mean_s=float(arr.mean()),
                    std_s=float(arr.std()),
                    min_s=float(arr.min()),
                    p97_s=float(np.percentile(arr, 97)),
                    timeouts=timeouts,
                )
            )
    return BenchReport(tuple(rows))
