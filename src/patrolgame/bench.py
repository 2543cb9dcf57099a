"""Seeded synthetic instances and the solver runtime comparison harness."""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .model import GameDefinitionError, Instance, _is_integer
from .planner import csv_text, get_solver

# Timeout convention: runs longer than the cap are recorded at the cap.
DEFAULT_TIMEOUT = 7200.0
DEFAULT_RUNS = 30

# Payoff ranges of the synthetic instances (see GenParams).
REWARD_HIGH = 10.0
PENALTY_LOW = -10.0


@dataclass(frozen=True)
class GenParams:
    """Shape and budgets of one random instance family.

    Instances follow the synthetic evaluation setup: rewards uniform in
    [0, REWARD_HIGH), penalties uniform in [PENALTY_LOW, 0), and
    0 < e_v < e_p < 1.
    """

    n: int
    r_p: float
    r_v: int
    seed: int

    def __post_init__(self):
        if not all(_is_integer(x) for x in (self.n, self.r_v, self.seed)):
            raise GameDefinitionError("n, r_v and seed must be integers")
        if self.n < 1:
            raise GameDefinitionError("need at least one target")
        if self.r_p < 0 or self.r_v < 0 or self.seed < 0:
            raise GameDefinitionError("budgets and seed must be nonnegative")


def generate_instance(params: GenParams) -> Instance:
    """Deterministic instance for the given seed."""
    rng = np.random.default_rng(params.seed)
    reward_def = rng.uniform(0.0, REWARD_HIGH, params.n)
    penalty_def = rng.uniform(PENALTY_LOW, 0.0, params.n)
    reward_att = rng.uniform(0.0, REWARD_HIGH, params.n)
    penalty_att = rng.uniform(PENALTY_LOW, 0.0, params.n)
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
        return csv_text(self.CSV_HEADER, (astuple(r) for r in self.rows))

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
    and counted, not dropped. GameDefinitionError unless ``runs`` is an
    integer of at least 1 (not a bool) and ``timeout`` is a nonnegative
    number.
    """
    if not _is_integer(runs) or runs < 1:
        raise GameDefinitionError("runs must be an integer of at least 1")
    if not timeout >= 0:  # also rejects NaN
        raise GameDefinitionError("timeout must be a nonnegative number of seconds")
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
