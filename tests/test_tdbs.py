import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from patrolgame import feasibility, tdbs
from patrolgame.bench import GenParams, generate_instance
from patrolgame.feasibility import feasible_rows
from patrolgame.model import (
    GameDefinitionError,
    Instance,
    StrategyProfile,
    attacker_utilities,
    best_response,
    compute_coverage,
    evaluate_profile,
    validate_profile,
)
from patrolgame.oracle import solve_oracle
from patrolgame.planner import case_study_scenario, terrain_adjust, with_effectiveness
from patrolgame.tdbs import TdbsConfig, solve_tdbs, utility_gap_bound, value_bound

from conftest import (
    most_effort_blind,
    most_villagers_blind,
    random_instance,
    scaled,
    solve_tdbs_three_pass,
    symmetric_instance,
)


class TestConfig:
    def test_default_epsilon_matches_harness(self):
        assert TdbsConfig().epsilon == 1e-3

    def test_epsilon_must_be_positive(self):
        with pytest.raises(GameDefinitionError):
            TdbsConfig(epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [float("inf"), float("nan"), "0.1", 10**400])
    def test_epsilon_must_be_a_finite_real(self, epsilon):
        # an infinite epsilon used to end every effort bisection at once
        with pytest.raises(GameDefinitionError):
            TdbsConfig(epsilon=epsilon)

    def test_value_bound_floor(self):
        inst = Instance(0.5, 0, 0.3, 0.2, [0.1], [-0.1], [0.2], [-0.2])
        assert value_bound(inst) == 1.0

    def test_value_bound_covers_inputs(self):
        inst = random_instance(1, n=4, r_p=12, r_v=3)
        m = value_bound(inst)
        assert m >= inst.ranger_budget
        assert m >= np.abs(inst.reward_att).max()


class TestSolveTdbs:
    def test_symmetric_within_guarantee(self):
        inst = symmetric_instance()
        result = solve_tdbs(inst, TdbsConfig(1e-3))
        # symmetry puts the optimum at 0; the guarantee is e_p * 2M * eps
        assert utility_gap_bound(inst, 1e-3) == pytest.approx(1e-3)
        assert -1e-3 <= result.defender_utility <= 0.0
        assert result.attacked in (0, 1)

    def test_no_resources(self):
        inst = Instance(0.0, 0, 0.5, 0.5, [1.0, 2.0], [-1.0, -2.0], [3.0, 1.0], [-1.0, -1.0])
        result = solve_tdbs(inst)
        assert result.attacked == 0
        assert result.defender_utility == -1.0
        assert result.profile.p.tolist() == [0.0, 0.0]
        assert result.profile.v.tolist() == [0, 0]

    def test_within_bound_of_oracle(self):
        for k in range(30):
            inst = random_instance(20_000 + k, n=5, r_p=2, r_v=2)
            exact = solve_oracle(inst).defender_utility
            result = solve_tdbs(inst, TdbsConfig(1e-6))
            assert exact - result.defender_utility < utility_gap_bound(inst, 1e-6)

    def test_returned_profile_is_consistent(self):
        for k in range(20):
            inst = random_instance(21_000 + k, n=4, r_p=3, r_v=3)
            result = solve_tdbs(inst, TdbsConfig(1e-4))
            assert validate_profile(inst, result.profile) == []
            again = evaluate_profile(inst, result.profile)
            assert again.defender_utility == result.defender_utility
            assert again.attacked == result.attacked
            br = best_response(inst, compute_coverage(inst, result.profile))
            assert br.target == result.attacked

    def test_check_count_scaling(self):
        for k in range(10):
            inst = random_instance(22_000 + k, n=6, r_p=3, r_v=3)
            for epsilon in (1e-3, 1e-6):
                result = solve_tdbs(inst, TdbsConfig(epsilon))
                budget = 4 * inst.n * np.log2(value_bound(inst) / epsilon)
                assert result.diagnostics["feasibility_checks"] <= budget

    def test_target_specific_dispatch(self):
        inst = random_instance(23_000, n=4, r_p=2, r_v=2)
        ts = dataclasses.replace(inst, e_v=np.full(4, inst.e_v))
        plain = solve_tdbs(inst, TdbsConfig(1e-4))
        via_ts = solve_tdbs(ts, TdbsConfig(1e-4))
        assert via_ts.defender_utility == pytest.approx(
            plain.defender_utility, abs=1e-9
        )

    def test_target_specific_against_oracle(self):
        rng = np.random.default_rng(17)
        for k in range(15):
            inst = random_instance(24_000 + k, n=3, r_p=2, r_v=2)
            ts = dataclasses.replace(inst, e_v=rng.uniform(0.05, 0.9, 3).round(3))
            exact = solve_oracle(ts).defender_utility
            result = solve_tdbs(ts, TdbsConfig(1e-6))
            assert exact - result.defender_utility < utility_gap_bound(ts, 1e-6)


def test_infeasible_final_witness_is_a_bug(monkeypatch):
    # the whole ranger budget on either target, next to its villager, leaves
    # the other target uncovered and more attractive
    inst = symmetric_instance()
    bisect = feasibility._bisect

    def full_effort(lo, hi, passes, epsilon=None):
        # every effort search, the cheap one and its fallback, ends at the budget
        return (hi, hi) if epsilon is not None else bisect(lo, hi, passes)

    monkeypatch.setattr(feasibility, "_bisect", full_effort)
    assert not feasible_rows(inst, [0, 1], [1.0, 1.0], [1, 1]).any()
    with pytest.raises(RuntimeError, match="lost a candidate's witness"):
        solve_tdbs(inst)


@pytest.mark.parametrize("block_cells", [feasibility._BLOCK_CELLS, 16])
def test_builds_one_passing_witness_row_per_candidate(monkeypatch, block_cells):
    # 16 cells put one row of the n = 21 case study in each block
    monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
    fill = feasibility._fill
    witness_rows = []

    def counting_fill(instance, c_min, p_star, v_star, witness=False):
        answer = fill(instance, c_min, p_star, v_star, witness)
        if witness:
            witness_rows.append(int(answer[0].sum()))
        return answer

    monkeypatch.setattr(feasibility, "_fill", counting_fill)
    for inst in (symmetric_instance(), case_study_scenario().instance,
                 generate_instance(GenParams(n=40, r_p=20, r_v=20, seed=3))):
        witness_rows.clear()
        result = solve_tdbs(inst)
        assert sum(witness_rows) == result.diagnostics["candidates"] > 1


def _three_pass_family():
    """``(instance, epsilon, block cells)``: scalar and per-target e_v, payoffs
    x1, x1e-9 and x1e6, zero-spread targets, villager budgets up to 2**62,
    epsilon 1e-3 and 1e-7, blocks of the default size and of 16 cells (where
    most villager searches bisect on the cheap tests); then the case study's
    grid, scalar and terrain-adjusted."""
    rng = np.random.default_rng(30)
    for k in range(96):
        n = 2 + k % 10
        r_v = 2**62 if k % 8 in (4, 5) else int(rng.integers(0, 3 * n))
        inst = random_instance(30_000 + k, n=n, r_p=float(rng.uniform(0.2, n)), r_v=r_v)
        if k % 5 == 1:
            flat = rng.random(n) < 0.4
            inst = dataclasses.replace(
                inst,
                reward_att=np.where(flat, 0.0, inst.reward_att),
                penalty_att=np.where(flat, 0.0, inst.penalty_att),
            )
        if k % 2:
            inst = dataclasses.replace(inst, e_v=rng.uniform(0.05, 1.0, n).round(3) * inst.e_p)
        elif r_v == 2**62:
            inst = dataclasses.replace(inst, e_v=inst.e_v * 1e-18)
        yield scaled(inst, (1.0, 1e-9, 1e6)[k % 3]), (1e-3, 1e-7)[(k // 3) % 2], (feasibility._BLOCK_CELLS, 16)[(k // 6) % 2]
    scenario = case_study_scenario()
    values = [round(0.1 * k, 1) for k in range(1, 10)]
    for e_p in values:
        for e_v in values:
            if e_p >= e_v:
                yield with_effectiveness(scenario, e_p, e_v).instance, 1e-3, feasibility._BLOCK_CELLS
                yield terrain_adjust(scenario, e_p, e_v), 1e-3, feasibility._BLOCK_CELLS


def test_one_row_per_candidate_matches_three_passes(monkeypatch):
    # One witness row per candidate confirms both search ends; only the
    # candidates whose row fails take the full path, so the answer must be
    # the three-pass flow's: searches, then witnesses, then the winner.
    seen = Counter()
    fall_back = feasibility._fall_back_ends

    def spy(pool, i_stars, p_stars, v_stars, known, epsilon):
        ends = fall_back(pool, i_stars, p_stars.copy(), v_stars, known, epsilon)
        kept = np.isin(i_stars, ends[0])
        seen["count dropped"] += int(np.count_nonzero(~kept))
        seen["count stayed"] += int(np.count_nonzero(v_stars[kept] == ends[2]))
        seen["count moved"] += int(np.count_nonzero(v_stars[kept] != ends[2]))
        return ends

    monkeypatch.setattr(feasibility, "_fall_back_ends", spy)
    for k, (inst, epsilon, block_cells) in enumerate(_three_pass_family()):
        monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
        result = solve_tdbs(inst, TdbsConfig(epsilon))
        want, count = solve_tdbs_three_pass(inst, epsilon)
        assert result.attacked == want.attacked, k
        assert result.defender_utility.hex() == want.defender_utility.hex(), k
        assert result.profile.p.tobytes() == want.profile.p.tobytes(), k
        assert result.profile.v.tolist() == want.profile.v.tolist(), k
        assert result.diagnostics["candidates"] == count, k
        seen["candidates"] += count
        seen["per-target" if np.ndim(inst.e_v) else "scalar"] += 1
    assert seen["candidates"] > 2000 and min(seen.values()) >= 5, seen


@pytest.mark.parametrize("seed", [6, 7])
def test_every_candidate_costs_one_row(seed):
    # the cheap tests settle both searches of every candidate here, so the
    # witness row is the only row each one sends
    result = solve_tdbs(generate_instance(GenParams(n=240, r_p=120, r_v=120, seed=seed)))
    assert result.diagnostics["feasibility_checks"] == result.diagnostics["candidates"] > 100


def test_villager_counts_past_2_53_stay_in_the_budget():
    # The greedy counts villagers in floats, which round past 2**53: here 91
    # witness rows summed past the budget, and 12 of the 40 solves raised
    # "villager budget exceeded" when such a row won.
    rows = 0
    for s in range(40):
        inst = random_instance(40_000 + s, n=6, r_p=3.0, r_v=2**62)
        inst = dataclasses.replace(inst, e_v=inst.e_v * 1e-18)
        result = solve_tdbs(inst)
        assert validate_profile(inst, result.profile) == [], s
        i_stars, v_stars, _ = feasibility.candidates(inst, np.arange(inst.n))
        p_stars = feasibility.most_effort(inst, i_stars, v_stars, tdbs.DEFAULT_EPSILON)[0]
        for block, feasible, p, v in feasibility.witness_blocks(inst, i_stars, p_stars, v_stars):
            for i_star, effort, villagers in zip(i_stars[block][feasible].tolist(), p, v):
                profile = StrategyProfile(effort, villagers)
                assert validate_profile(inst, profile) == [], (s, i_star)
                u_att = attacker_utilities(inst, compute_coverage(inst, profile))
                assert u_att[i_star] >= u_att.max() - inst.tol, (s, i_star)
                rows += 1
    assert rows > 150, rows


def test_search_memory_stays_bounded():
    # The lockstep searches hold O(block x n) temporaries and no witnesses;
    # keeping every candidate's witness peaked at 15.8 MB here.
    inst = generate_instance(GenParams(n=1000, r_p=500, r_v=500, seed=7))
    tracemalloc.start()
    try:
        solve_tdbs(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_witness_trim_stays_in_a_tiny_budget():
    # The trim scaled the witness effort by budget / total = 2.7e-317, a
    # subnormal that kept too few digits: the trimmed sum landed 4e-8 over
    # the 1e-300 budget, and evaluate_profile raised "ranger budget exceeded".
    inst = Instance(
        ranger_budget=1e-300, villager_budget=2, e_p=8.900295434028806e-308, e_v=1.0,
        reward_def=[5.8862715301427725e299, 1.8727813821541652e300, 5.018986402798981e300,
                    2.452319954812039e300, 8.459211508506028e300],
        penalty_def=[-4.6986e-320, -5.345e-320, -3.481e-320, -5.24e-322, -5.382e-320],
        reward_att=[6.252987614873884e-300, 0.0, 6.27412628571791e-300, 4.591780345604479e-300, 0.0],
        penalty_att=[-6.563434911373349e-09, 0.0, -6.541254191938573e-09, -3.3635780419163277e-09, 0.0],
    )
    result = solve_tdbs(inst)
    assert validate_profile(inst, result.profile) == []
    oracle = solve_oracle(inst)
    assert (result.attacked, result.defender_utility) == (oracle.attacked, oracle.defender_utility)


@pytest.mark.parametrize(
    "seed, share",
    [
        # blind: 5,896 rows; floor first: 530; floor and pool first: 479
        (7, 1 / 2),
        # blind: 3,006 rows; floor first: 2,465, as the fill, not the floor
        # test, binds most efforts here; floor and pool first: 232
        (6, 1 / 5),
    ],
    ids=["seed7-half", "seed6-fifth"],
)
def test_floor_first_searches_send_at_most_a_share_of_the_blind_rows(seed, share):
    # One feasible_rows row per probe, as before the searches went floor
    # first, sends far more rows than the floor and pooled tests leave to
    # the fill. A slide back to blind probing, or to the floor test alone,
    # fails this without timing anything.
    inst = generate_instance(GenParams(n=240, r_p=120, r_v=120, seed=seed))
    result = solve_tdbs(inst)
    counts, villager_rows = most_villagers_blind(inst, np.arange(inst.n))
    kept = counts >= 0
    _, effort_rows = most_effort_blind(inst, np.flatnonzero(kept), counts[kept], tdbs.DEFAULT_EPSILON)
    assert result.diagnostics["feasibility_checks"] <= (villager_rows + effort_rows) * share
