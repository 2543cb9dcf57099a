"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; the seeds make each criterion fully
deterministic.
"""

import copy
import dataclasses
import time

import numpy as np
import pytest

from patrolgame import waterfill
from patrolgame.bench import GenParams, generate_instance, run_benchmark
from patrolgame.model import (
    Instance,
    attacker_utilities,
    compute_coverage,
    validate_profile,
)
from patrolgame.oracle import (
    VillagerSpecificInstance,
    solve_oracle,
    solve_oracle_villager_specific,
)
from patrolgame.planner import (
    budget_sweep,
    case_study_scenario,
    effectiveness_grid,
    tally_csv,
    with_effectiveness,
)
from patrolgame.tdbs import TdbsConfig, solve_tdbs, utility_gap_bound
from patrolgame.waterfill import solve_hw

from conftest import (
    candidates,
    feasible_by_enumeration,
    greedy_villagers_ref,
    min_coverage_ref,
    placements,
    random_instance,
    witness_of,
)


def report(number, name, failures):
    print("ACCEPTANCE %d (%s): %s" % (number, name, "FAIL" if failures else "PASS"))
    assert not failures, failures[:5]


def family_200():
    """The shared 200-instance family: n in 2..5, budgets in 0..3."""
    out = []
    for k in range(200):
        params = GenParams(
            n=2 + k % 4,
            r_p=float((k // 4) % 4),
            r_v=(k // 16) % 4,
            seed=50_000 + k,
        )
        out.append(generate_instance(params))
    return out


@pytest.fixture(scope="module")
def exact_on_family():
    instances = family_200()
    return instances, [solve_oracle(inst).defender_utility for inst in instances]


def test_criterion_1_oracle_equivalence(exact_on_family):
    instances, exact = exact_on_family
    failures = []
    start = time.perf_counter()
    for idx, inst in enumerate(instances):
        hw = solve_hw(inst).defender_utility
        if abs(hw - exact[idx]) > 1e-6:
            failures.append("instance %d: hw %r vs oracle %r" % (idx, hw, exact[idx]))
    elapsed = time.perf_counter() - start
    print("criterion 1 solve time: %.1f s over 200 instances" % elapsed)
    report(1, "exact solver matches enumeration oracle", failures)


def test_criterion_2_tdbs_bound(exact_on_family):
    instances, exact = exact_on_family
    failures = []
    mean_gaps, max_gaps = [], []
    for epsilon in (1e-2, 1e-3, 1e-4):
        gaps = []
        for idx, inst in enumerate(instances):
            approx = solve_tdbs(inst, TdbsConfig(epsilon)).defender_utility
            gap = exact[idx] - approx
            bound = utility_gap_bound(inst, epsilon)
            if not gap < bound:
                failures.append(
                    "instance %d eps %g: gap %r !< bound %r" % (idx, epsilon, gap, bound)
                )
            gaps.append(gap)
        mean_gaps.append(float(np.mean(gaps)))
        max_gaps.append(float(np.max(gaps)))
    # finer resolution tightens the observed gap, not just the bound
    for coarse, fine in zip(mean_gaps, mean_gaps[1:]):
        if not fine <= coarse + 1e-9:
            failures.append("mean gap not monotone: %r" % (mean_gaps,))
    for coarse, fine in zip(max_gaps, max_gaps[1:]):
        if not fine <= coarse + 1e-9:
            failures.append("max gap not monotone: %r" % (max_gaps,))
    print("criterion 2 mean gaps by epsilon:", mean_gaps)
    report(2, "binary-search utility within guaranteed bound", failures)


def probe_family(count):
    rng = np.random.default_rng(60_000)
    for k in range(count):
        inst = random_instance(61_000 + k, n=int(rng.integers(2, 6)), r_p=3, r_v=3)
        i_star = int(rng.integers(0, inst.n))
        p = float(rng.uniform(0, inst.ranger_budget))
        v = int(rng.integers(0, inst.villager_budget + 1))
        p2 = float(rng.uniform(0, p))
        v2 = int(rng.integers(0, v + 1))
        yield inst, i_star, p, v, p2, v2, rng


def test_criterion_3_invariant_suite():
    failures = []

    # resource monotonicity and effort-to-villager substitution, 1000 probes
    witnesses = 0
    for inst, i_star, p, v, p2, v2, rng in probe_family(1000):
        witness = witness_of(inst, i_star, p, v)
        if witness is None:
            continue
        witnesses += 1
        if validate_profile(inst, witness):
            failures.append("witness invalid at %r" % ((i_star, p, v),))
        u_a = attacker_utilities(inst, compute_coverage(inst, witness))
        if u_a[i_star] < u_a.max() - 2e-8:
            failures.append("witness leaves %d dominated" % i_star)
        if witness_of(inst, i_star, p2, v2) is None:
            failures.append("monotonicity broken at %r" % ((i_star, p, v, p2, v2),))
        swap_cost = inst.e_v / inst.e_p
        k_swap = int(min(inst.villager_budget - v, p // swap_cost))
        if k_swap >= 1 and witness_of(inst, i_star, p - k_swap * swap_cost, v + k_swap) is None:
            failures.append("substitution broken at %r" % ((i_star, p, v, k_swap),))
    if witnesses < 200:
        failures.append("probe mix produced too few witnesses: %d" % witnesses)

    # completeness against exhaustive placement enumeration, n <= 3
    for seed in range(25):
        inst = random_instance(62_000 + seed, n=2 + seed % 2, r_p=2, r_v=2)
        for i_star in range(inst.n):
            for v_star in range(inst.villager_budget + 1):
                for frac in (0.0, 0.3, 0.6, 1.0):
                    p_star = frac * inst.ranger_budget
                    got = witness_of(inst, i_star, p_star, v_star) is not None
                    want = feasible_by_enumeration(inst, i_star, p_star, v_star)
                    if got != want:
                        failures.append(
                            "completeness: %r" % ((seed, i_star, p_star, v_star),)
                        )

    # waterfilling state invariants over 100 seeded runs
    enumeration_checked = 0
    for k in range(100):
        inst = random_instance(63_000 + k, n=2 + k % 5, r_p=1 + k % 3, r_v=k % 4)
        i_stars, v_stars, _ = candidates(inst, np.arange(inst.n))
        for i_star, v_star in zip(i_stars.tolist(), v_stars.tolist()):
            snaps = []
            waterfill._run_subproblem(
                inst, i_star, v_star, lambda s: snaps.append(copy.deepcopy(s))
            )
            spare = inst.villager_budget - v_star
            for s in snaps:
                if s.sea_level is None:
                    continue
                pinned = np.abs(s.u_att - inst.penalty_att) <= inst.tol
                wet = (s.effort > 0) & ~pinned
                if not np.all(np.abs(s.u_att[wet] - s.sea_level) <= 1e-8):
                    failures.append("sea level broken k=%d i*=%d" % (k, i_star))
                reachable = (np.arange(inst.n) != i_star) & ~pinned
                if reachable.any():
                    level = float(s.u_att[reachable].max())
                    for j in range(inst.n):
                        if j == i_star or s.villagers[j] < 1:
                            continue
                        if s.u_att[j] < level - inst.tol:
                            one_less = inst.reward_att[j] - inst.spread_att[
                                j
                            ] * inst.e_v * (s.villagers[j] - 1)
                            if one_less < level - 1e-8:
                                failures.append(
                                    "wasted-villager bound k=%d i*=%d" % (k, i_star)
                                )
                # local optimality: no single villager move reduces waste
                u = s.sea_level
                base = scw(inst, s.villagers, u, i_star)
                for i1 in range(inst.n):
                    for i2 in range(inst.n):
                        if i1 == i2 or i_star in (i1, i2) or s.villagers[i2] < 1:
                            continue
                        moved = s.villagers.copy()
                        moved[i1] += 1
                        moved[i2] -= 1
                        if scw(inst, moved, u, i_star) < base - 1e-9:
                            failures.append("single move improves k=%d" % k)
                # global optimality by full enumeration on small instances
                if inst.n <= 4 and inst.villager_budget <= 3:
                    enumeration_checked += 1
                    got = useful(inst, s.villagers, u, i_star)
                    best = max(
                        useful(inst, np.insert(np.asarray(alt), i_star, 0), u, i_star)
                        for alt in placements(inst.n - 1, spare)
                    )
                    if got < best - 1e-9:
                        failures.append("placement not waste-minimal k=%d" % k)
            if snaps and snaps[-1].swaps > inst.n**2:
                failures.append("swap budget exceeded k=%d" % k)
    if enumeration_checked < 50:
        failures.append("too few enumeration cross-checks: %d" % enumeration_checked)

    report(3, "feasibility and waterfilling invariants", failures)


def scw(inst, v, u, i_star):
    total = 0.0
    for j in range(inst.n):
        if j == i_star:
            continue
        c_min = min_coverage_ref(inst.reward_att[j], inst.penalty_att[j], u)
        total += max(v[j] * inst.e_v - c_min, 0.0)
    return total


def useful(inst, v, u, i_star):
    total = 0.0
    for j in range(inst.n):
        if j == i_star:
            continue
        c_min = min_coverage_ref(inst.reward_att[j], inst.penalty_att[j], u)
        total += min(v[j] * inst.e_v, c_min)
    return total


def test_criterion_4_variant_reduction():
    failures = []
    rng = np.random.default_rng(64_000)
    for k in range(1000):
        inst = random_instance(65_000 + k, n=int(rng.integers(2, 6)), r_p=2, r_v=3)
        ts = dataclasses.replace(inst, e_v=np.full(inst.n, inst.e_v))
        query = (
            int(rng.integers(0, inst.n)),
            float(rng.uniform(0, inst.ranger_budget)),
            int(rng.integers(0, inst.villager_budget + 1)),
        )
        per_target = witness_of(ts, *query) is not None
        if per_target != (witness_of(inst, *query) is not None):
            failures.append("query %d disagrees with the scalar check: %r" % (k, query))
        reference, _, _ = greedy_villagers_ref(ts, *query)
        if per_target != reference:
            failures.append("query %d disagrees with the reference greedy: %r" % (k, query))
    report(4, "uniform per-target effectiveness reduces to the base check", failures)


def test_criterion_5_partition_construction():
    effectiveness = [0.3, 0.3, 0.4, 0.2]
    base = Instance(
        ranger_budget=0.0,
        villager_budget=4,
        e_p=0.9,
        e_v=0.3,
        reward_def=[1.0, 1.0],
        penalty_def=[-1.0, -1.0],
        reward_att=[1.0, 1.0],
        penalty_att=[-1.0, -1.0],
    )
    result = solve_oracle_villager_specific(VillagerSpecificInstance(base, effectiveness))
    failures = []
    if abs(result.defender_utility - 0.2) > 1e-9:
        failures.append("utility %r != 0.2" % result.defender_utility)
    sums = [0.0, 0.0]
    for j, target in enumerate(result.assignment):
        sums[target] += effectiveness[j]
    if abs(sums[0] - sums[1]) > 1e-12:
        failures.append("assignment unbalanced: %r" % (sums,))
    report(5, "hard-variant oracle finds the balanced split", failures)


def test_criterion_6_scale_sanity():
    failures = []
    inst = generate_instance(GenParams(n=1000, r_p=500.0, r_v=500, seed=70_000))
    start = time.perf_counter()
    solve_tdbs(inst, TdbsConfig(1e-3))
    tdbs_time = time.perf_counter() - start
    if tdbs_time >= 60.0:
        failures.append("tdbs n=1000 took %.1f s" % tdbs_time)

    inst = generate_instance(GenParams(n=300, r_p=150.0, r_v=150, seed=70_001))
    start = time.perf_counter()
    solve_hw(inst)
    hw_time = time.perf_counter() - start
    if hw_time >= 600.0:
        failures.append("hw n=300 took %.1f s" % hw_time)

    cells = [
        GenParams(n=100, r_p=float(r), r_v=r, seed=70_100) for r in (10, 20, 30, 40, 50)
    ]
    means = [row.mean_s for row in run_benchmark(cells, ["tdbs"], runs=3, timeout=600.0).rows]
    spread = max(means) / min(means)
    if spread >= 5.0:
        failures.append("tdbs budget sensitivity %.2fx" % spread)
    print(
        "criterion 6 timings: tdbs n=1000 %.1f s, hw n=300 %.1f s, stability %.2fx"
        % (tdbs_time, hw_time, spread)
    )
    report(6, "runtime scaling shape", failures)


def test_criterion_7_case_study(tmp_path):
    failures = []
    scenario = case_study_scenario()
    grid = effectiveness_grid(scenario, solver="hw")
    if len(grid.settings) != 45:
        failures.append("expected 45 settings, got %d" % len(grid.settings))
    for setting in grid.settings:
        if setting.comparison.improvement < -1e-12:
            failures.append(
                "baseline beats optimum at e_p=%r e_v=%r" % (setting.e_p, setting.e_v)
            )
    tally = tally_csv(grid)
    out = tmp_path / "tally.csv"
    out.write_text(tally)
    if len(tally.strip().split("\n")) != 22:
        failures.append("tally export should list all 21 targets")

    for e_p, e_v in ((0.8, 0.2), (0.6, 0.4)):
        rows = budget_sweep(
            with_effectiveness(scenario, e_p, e_v),
            max_extra=30,
            solver="hw",
            cost_ranger=3.0,
            cost_villager=1.0,
        )
        utilities = [r.defender_utility for r in rows]
        for a, b in zip(utilities, utilities[1:]):
            if b < a - 1e-9:
                failures.append("sweep not monotone at e_p=%r e_v=%r" % (e_p, e_v))
                break
    report(7, "case-study scenario dominance and budget sweep", failures)
