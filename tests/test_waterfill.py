import copy
import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from patrolgame import feasibility, waterfill
from patrolgame.bench import GenParams, generate_instance
from patrolgame.feasibility import fixed_target_utilities
from patrolgame.model import (
    GameDefinitionError,
    Instance,
    attacker_utilities,
    compute_coverage,
    evaluate_profile,
    validate_profile,
)
from patrolgame.oracle import solve_oracle
from patrolgame.planner import case_study_scenario
from patrolgame.tdbs import TdbsConfig, solve_tdbs
from patrolgame.waterfill import WaterfillState, get_swap_line, solve_hw

from conftest import (
    candidates,
    greedy_villagers_loop,
    min_coverage_ref,
    minimax_level_ref,
    minimax_profile_33ary,
    minimax_seed_ref,
    placements,
    random_instance,
    rebind,
    run_subproblem_per_merge,
    scaled,
    solve_hw_unpruned,
    symmetric_instance,
)


def make_state(inst, i_star, p, v):
    """Assemble a consistent WaterfillState from explicit allocations."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=np.int64)
    cov = np.minimum(inst.e_p * p + inst.e_v * v, 1.0)
    u_att = inst.reward_att * (1 - cov) + inst.penalty_att * cov
    spread = inst.spread_att
    with np.errstate(divide="ignore"):
        width = np.where(spread > 0, 1.0 / spread, np.inf)
    unpinned = np.abs(u_att - inst.penalty_att) > inst.tol
    sea = float(u_att[unpinned].max())
    critical = unpinned & (u_att >= sea - inst.tol)
    return WaterfillState(
        instance=inst,
        i_star=i_star,
        u_att=u_att,
        effort=p,
        villagers=v,
        width=width,
        sea_level=sea,
        critical=critical,
        ranger_remaining=float(inst.ranger_budget - p.sum()),
    )


def kept_by_bound(inst):
    """Per target, whether ``solve_hw``'s bound leaves it to the villager search."""
    pool = feasibility._Pool(inst)
    return feasibility._upper_bounds(pool) >= feasibility._minimax_seed(pool)[0] - inst.tol


def scw_ref(inst, v, u, i_star):
    """Independent total wasted villager coverage at level u."""
    total = 0.0
    for j in range(inst.n):
        if j == i_star:
            continue
        c_min = min_coverage_ref(inst.reward_att[j], inst.penalty_att[j], u)
        assert c_min is not None
        total += max(v[j] * inst.e_v - c_min, 0.0)
    return total


def useful_ref(inst, v, u, i_star):
    """Villager coverage that actually counts toward the needed minimums."""
    total = 0.0
    for j in range(inst.n):
        if j == i_star:
            continue
        c_min = min_coverage_ref(inst.reward_att[j], inst.penalty_att[j], u)
        assert c_min is not None
        total += min(v[j] * inst.e_v, c_min)
    return total


class TestMinDropBeforeSwap:
    def test_worked_example_and_balance(self):
        # i = 0 sits at utility 2 with no rangers; j = 1 holds one villager
        inst = Instance(
            ranger_budget=2.0,
            villager_budget=1,
            e_p=0.5,
            e_v=0.25,
            reward_def=[1.0, 1.0, 1.0],
            penalty_def=[-1.0, -1.0, -1.0],
            reward_att=[2.0, 6.0, 1.0],
            penalty_att=[-2.0, -2.0, -1.0],
        )
        state = make_state(inst, 2, [0.0, 0.0, 0.0], [0, 1, 0])
        # target 0's attacker utility from its villagers alone
        cov_v = min(inst.e_v * state.villagers[0], 1.0)
        villagers_only = inst.reward_att[0] * (1 - cov_v) + inst.penalty_att[0] * cov_v
        assert state.u_att[0] == 2.0 and villagers_only == 2.0
        drop = waterfill._drop(state, 0, 1, 8.0 - 4.0)  # spread of j less that of i
        assert drop == pytest.approx(4.0)
        # the level balance at the critical point: ranger coverage on i
        # equals the above-level part of j's last villager
        level = state.u_att[0] - drop
        s_i, s_j = 4.0, 8.0
        lhs = (villagers_only - level) / s_i
        one_less = inst.reward_att[1] - s_j * inst.e_v * (state.villagers[1] - 1)
        rhs = (one_less - level) / s_j
        assert lhs == pytest.approx(rhs)

    def test_zero_drop_when_terms_vanish(self):
        # one villager fewer on j leaves exactly i's villagers-only utility
        inst = Instance(
            ranger_budget=1.0,
            villager_budget=1,
            e_p=0.5,
            e_v=0.25,
            reward_def=[1.0, 1.0, 1.0],
            penalty_def=[-1.0, -1.0, -1.0],
            reward_att=[6.0, 6.0, 1.0],
            penalty_att=[-2.0, -6.0, -1.0],
        )
        # i = 0, no rangers: u_att = u_av = 6; j = 1 with one villager,
        # one-less value = R_a[1] = 6 = u_av[0]
        state = make_state(inst, 2, [0.0, 0.0, 0.0], [0, 1, 0])
        assert waterfill._drop(state, 0, 1, 12.0 - 8.0) == pytest.approx(0.0)

    def test_ranger_dip_shifts_drop_linearly(self):
        inst = Instance(
            ranger_budget=2.0,
            villager_budget=1,
            e_p=0.5,
            e_v=0.25,
            reward_def=[1.0, 1.0, 1.0],
            penalty_def=[-1.0, -1.0, -1.0],
            reward_att=[2.0, 6.0, 1.0],
            penalty_att=[-2.0, -2.0, -1.0],
        )
        no_rangers = make_state(inst, 2, [0.0, 0.0, 0.0], [0, 1, 0])
        with_rangers = make_state(inst, 2, [0.5, 0.0, 0.0], [0, 1, 0])
        dip = no_rangers.u_att[0] - with_rangers.u_att[0]
        assert dip == pytest.approx(1.0)  # 0.5 effort * e_p 0.5 * spread 4
        assert waterfill._drop(with_rangers, 0, 1, 8.0 - 4.0) == pytest.approx(
            waterfill._drop(no_rangers, 0, 1, 8.0 - 4.0) - dip
        )


class TestGetSwapLine:
    def test_no_villagers_outside_critical_set(self):
        inst = random_instance(77, n=4, r_p=2, r_v=0)
        state = make_state(inst, 0, np.zeros(4), np.zeros(4, dtype=int))
        assert get_swap_line(state, waterfill._refresh_levels(state)) is None

    def test_every_target_pinned(self):
        # effort enough to cover both targets fully pins each at its floor
        inst = Instance(10.0, 0, 1.0, 0.5, [1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0])
        states = []
        waterfill._run_subproblem(inst, 0, 0, lambda s: states.append(copy.deepcopy(s)))
        assert states[-1].sea_level is None

    def test_three_target_reconstruction(self):
        # after greedy placement the critical set is {1} and target 2 holds
        # the last-placed villagers; the first critical point occurs after a
        # drop of 0.4, trading target 1's rangers for one of target 2's
        # villagers
        inst = Instance(
            ranger_budget=2.0,
            villager_budget=4,
            e_p=0.5,
            e_v=0.2,
            reward_def=[1.0, 1.0, 1.0],
            penalty_def=[-1.0, -1.0, -1.0],
            reward_att=[1.0, 4.0, 6.0],
            penalty_att=[-1.0, -4.0, -10.0],
        )
        snapshots = []
        waterfill._run_subproblem(inst, 0, 1, lambda s: snapshots.append(copy.deepcopy(s)))
        first = snapshots[0]
        assert first.villagers.tolist() == [1, 1, 2]
        assert first.u_att.tolist() == pytest.approx([0.6, 2.4, -0.4])
        assert list(np.flatnonzero(first.critical)) == [1]
        swap = get_swap_line(first, waterfill._refresh_levels(first))
        assert swap is not None
        assert (swap.i_outp, swap.i_outv) == (1, 2)
        assert swap.u_change == pytest.approx(0.4)
        # balance at the critical level 2.0
        level = first.sea_level - swap.u_change
        # target 1's attacker utility from its villagers alone
        cov_v = min(inst.e_v * first.villagers[1], 1.0)
        villagers_only = inst.reward_att[1] * (1 - cov_v) + inst.penalty_att[1] * cov_v
        lhs = (villagers_only - level) / 8.0
        one_less = 6.0 - 16.0 * 0.2 * (first.villagers[2] - 1)
        rhs = (one_less - level) / 16.0
        assert lhs == pytest.approx(rhs)
        # the swap then actually executes during the solve
        final = snapshots[-1]
        assert final.swaps >= 1

    def test_pairs_see_merges_on_the_descent(self):
        # the three-target example plus a wide target 3 on top of the sea:
        # target 1 is below the sea but merges at 2.4, before its (1, 2)
        # critical point at 2.0; the (3, 1) point at 0.0 does not count,
        # because donor 1 merges before the sea gets there
        inst = Instance(
            ranger_budget=2.0,
            villager_budget=4,
            e_p=0.5,
            e_v=0.2,
            reward_def=[1.0, 1.0, 1.0, 1.0],
            penalty_def=[-1.0, -1.0, -1.0, -1.0],
            reward_att=[1.0, 4.0, 6.0, 3.0],
            penalty_att=[-1.0, -4.0, -10.0, -3.0],
        )
        state = make_state(inst, 0, np.zeros(4), [1, 1, 2, 0])
        assert state.u_att.tolist() == pytest.approx([0.6, 2.4, -0.4, 3.0])
        assert list(np.flatnonzero(state.critical)) == [3]
        swap = get_swap_line(state, waterfill._refresh_levels(state))
        assert (swap.i_outp, swap.i_outv) == (1, 2)
        assert swap.u_change == pytest.approx(1.0)

    def test_pair_below_donor_floor_is_filtered(self):
        # the (1, 2) critical point sits at level -14.4, far below target 2's
        # penalty floor of -4.5, so no swap qualifies
        inst = Instance(
            ranger_budget=2.0,
            villager_budget=2,
            e_p=0.5,
            e_v=0.5,
            reward_def=[1.0, 1.0, 1.0],
            penalty_def=[-1.0, -1.0, -1.0],
            reward_att=[2.0, 6.4, 4.5],
            penalty_att=[-2.0, -1.6, -4.5],
        )
        state = make_state(inst, 0, [0.0, 0.0, 0.0], [0, 1, 1])
        assert state.u_att.tolist() == pytest.approx([2.0, 2.4, 0.0])
        assert list(np.flatnonzero(state.critical)) == [1]
        assert waterfill._drop(state, 1, 2, 9.0 - 8.0) == pytest.approx(16.8)
        assert get_swap_line(state, waterfill._refresh_levels(state)) is None


class TestHwSubproblem:
    def test_symmetric_hand_waterfill(self):
        inst = symmetric_instance()
        snaps = []
        profile, _ = waterfill._run_subproblem(inst, 0, 1, lambda s: snaps.append(copy.deepcopy(s)))
        assert profile.p.tolist() == [0.0, 1.0]
        assert profile.v.tolist() == [1, 0]
        final = snaps[-1]
        assert final.ranger_remaining == 0.0
        assert final.sea_level == pytest.approx(0.0)

    def test_no_rangers_gives_pure_greedy(self):
        inst = random_instance(55, n=4, r_p=0, r_v=3)
        # with no rangers only the max-reward target is a safe candidate
        profile, _ = waterfill._run_subproblem(inst, int(np.argmax(inst.reward_att)), 0)
        assert profile.p.tolist() == [0.0] * 4
        cov = compute_coverage(inst, profile)
        u_a = attacker_utilities(inst, cov)
        cov_v = np.minimum(inst.e_v * profile.v, 1.0)
        u_av = attacker_utilities(inst, cov_v)
        assert u_a.tolist() == pytest.approx(u_av.tolist())

    def test_early_stop_when_everything_pinned(self):
        inst = Instance(
            ranger_budget=10.0,
            villager_budget=0,
            e_p=1.0,
            e_v=0.5,
            reward_def=[1.0, 1.0],
            penalty_def=[-1.0, -1.0],
            reward_att=[1.0, 1.0],
            penalty_att=[-1.0, -1.0],
        )
        profile, _ = waterfill._run_subproblem(inst, 0, 0)
        assert profile.p.sum() < inst.ranger_budget
        cov = compute_coverage(inst, profile)
        assert cov.tolist() == pytest.approx([1.0, 1.0])



class TestSolveHw:
    def test_per_target_e_v_rejected(self):
        # waterfilling needs a scalar e_v, even when every entry is equal
        inst = symmetric_instance()
        with pytest.raises(GameDefinitionError, match="uniform villager effectiveness"):
            solve_hw(dataclasses.replace(inst, e_v=[0.5, 0.5]))

    def test_symmetric_optimum_is_zero(self):
        assert solve_hw(symmetric_instance()).defender_utility == 0.0

    def test_single_target_full_coverage(self):
        inst = Instance(1.0, 1, 0.5, 0.5, [5.0], [-5.0], [1.0], [-1.0])
        result = solve_hw(inst)
        assert result.defender_utility == pytest.approx(5.0)
        assert result.attacked == 0

    def test_matches_oracle_on_random_instances(self):
        for k in range(40):
            inst = random_instance(10_000 + k, n=2 + k % 4, r_p=(k // 2) % 4, r_v=k % 4)
            hw = solve_hw(inst)
            orc = solve_oracle(inst)
            assert hw.defender_utility == pytest.approx(
                orc.defender_utility, abs=1e-6
            ), k
            assert validate_profile(inst, hw.profile) == []

    def test_result_reevaluates_identically(self):
        inst = random_instance(321, n=5, r_p=2, r_v=2)
        result = solve_hw(inst)
        again = evaluate_profile(inst, result.profile)
        assert again.defender_utility == result.defender_utility
        assert again.attacked == result.attacked

    def test_diagnostics_count_every_check(self, monkeypatch):
        calls = []
        rows_of = feasibility._feasible_rows
        subproblems = []
        run_subproblem = waterfill._run_subproblem

        def recording_rows(instance, floor, i_star, p_star, v_star):
            calls.extend(zip(i_star, p_star, v_star))  # one check per row
            return rows_of(instance, floor, i_star, p_star, v_star)

        def recording_subproblem(instance, i_star, v_star, on_state=None):
            subproblems.append(i_star)
            return run_subproblem(instance, i_star, v_star, on_state)

        level_rows, effort_rows = feasibility._level_rows, feasibility._effort_rows

        def recording_levels(instance, levels):
            calls.extend(levels)  # one check per level row of the minimax search
            return level_rows(instance, levels)

        def recording_efforts(pool, i_stars, p_stars, v_stars):
            calls.extend(zip(i_stars, p_stars, v_stars))  # one check per tdbs fallback row
            return effort_rows(pool, i_stars, p_stars, v_stars)

        witnesses_of = feasibility._candidate_witnesses

        def recording_witnesses(pool, i_stars, p_stars, v_stars, lost):
            calls.extend(zip(i_stars, p_stars, v_stars))  # one check per tdbs candidate's witness row
            return witnesses_of(pool, i_stars, p_stars, v_stars, lost)

        rebind(monkeypatch, "_feasible_rows", recording_rows)
        monkeypatch.setattr(feasibility, "_level_rows", recording_levels)
        monkeypatch.setattr(feasibility, "_effort_rows", recording_efforts)
        monkeypatch.setattr(feasibility, "_candidate_witnesses", recording_witnesses)
        monkeypatch.setattr(waterfill, "_run_subproblem", recording_subproblem)
        unattackable = bounded = 0
        for k in range(12):
            inst = random_instance(12_000 + k, n=3 + k % 6, r_p=1 + k % 3, r_v=k % 4)
            n = inst.n
            attackable = feasibility.feasible_rows(inst, np.arange(n), np.zeros(n), np.zeros(n, dtype=np.int64))
            unattackable += inst.n - attackable.sum()
            calls.clear()
            subproblems.clear()
            hw = solve_hw(inst)
            assert len(calls) == hw.diagnostics["feasibility_checks"], k
            assert len(subproblems) == hw.diagnostics["candidates"] - hw.diagnostics["pruned"], k
            calls.clear()
            td = solve_tdbs(inst)
            assert len(calls) == td.diagnostics["feasibility_checks"], k
            assert td.diagnostics["candidates"] == attackable.sum()
            # hw searches only the targets its bound keeps
            kept = kept_by_bound(inst)
            assert hw.diagnostics["bounded"] == n - kept.sum(), k
            assert hw.diagnostics["candidates"] == (attackable & kept).sum(), k
            bounded += hw.diagnostics["bounded"]
        assert unattackable > 0  # some targets are not candidates
        assert bounded > 0  # some targets are not searched by hw

    def test_dominates_tdbs_within_bound(self):
        for k in range(20):
            inst = random_instance(11_000 + k, n=4, r_p=2, r_v=2)
            hw = solve_hw(inst)
            td = solve_tdbs(inst, TdbsConfig(1e-3))
            assert hw.defender_utility >= td.defender_utility - 1e-9

    def test_zero_spread_target_still_gets_coverage(self):
        # attacker utility on a zero-spread target is 0 at any coverage, so
        # effort spent there is free for best-response purposes and pure gain
        # for the defender
        inst = Instance(
            ranger_budget=0.5,
            villager_budget=3,
            e_p=0.7268732665330158,
            e_v=0.01162493823273908,
            reward_def=[8.725916226623081],
            penalty_def=[-7.450803943022893],
            reward_att=[0.0],
            penalty_att=[0.0],
        )
        hw = solve_hw(inst)
        assert hw.profile.p[0] == pytest.approx(0.5)
        assert hw.defender_utility == pytest.approx(
            solve_oracle(inst).defender_utility, abs=1e-6
        )

    def test_pours_stop_at_pinned_fixed_target_level(self):
        # with the fixed target pinned at 0, other targets must not be poured
        # below 0; the leftovers belong on the fixed target itself
        inst = Instance(
            ranger_budget=1.0,
            villager_budget=0,
            e_p=0.6501638137777723,
            e_v=0.2526100084615732,
            reward_def=[3.253684415330925, 3.8609360564867776, 0.4998327586447904],
            penalty_def=[-0.13186261474004923, -0.8424639096867581, -7.938277102012706],
            reward_att=[0.0, 0.0, 0.0],
            penalty_att=[0.0, -6.896593074381987, 0.0],
        )
        hw = solve_hw(inst)
        orc = solve_oracle(inst)
        assert hw.defender_utility == pytest.approx(orc.defender_utility, abs=1e-6)
        assert hw.profile.p.sum() == pytest.approx(1.0)


def mid_size_family():
    for k in range(30):
        n = 9 + (k * 7) % 52
        yield random_instance(13_400 + k, n=n, r_p=(1 + k % 4) * n / 5, r_v=(k * 5) % (n + 1))


class TestBracketPruning:
    SIZES = (2, 3, 4, 5, 6, 8, 12, 20, 35, 50, 100)

    def family(self):
        """One instance per size at the benchmark's budgets, then small ones at budgets from 0 up."""
        for k, n in enumerate(self.SIZES):
            yield random_instance(13_000 + k, n=n, r_p=n / 2, r_v=n // 2)
        for k in range(150):
            n = 2 + k % 7
            yield random_instance(13_200 + k, n=n, r_p=(k % 5) * n / 4, r_v=(k // 5) % (n + 1))

    def assert_matches_unpruned(self, inst, label):
        got = solve_hw(inst)
        ref = solve_hw_unpruned(inst)
        assert got.attacked == ref.attacked, label
        assert abs(got.defender_utility - ref.defender_utility) <= inst.tol, label
        # hw's candidates: the attackable targets among those its bound keeps
        kept = kept_by_bound(inst)
        i_stars = candidates(inst, np.arange(inst.n))[0]
        assert got.diagnostics["candidates"] == kept[i_stars].sum(), label
        assert got.diagnostics["bounded"] == inst.n - kept.sum(), label
        # the reference runs one subproblem per candidate
        subproblems = got.diagnostics["candidates"] - got.diagnostics["pruned"]
        assert 1 <= subproblems <= ref.diagnostics["candidates"], label

    @pytest.mark.parametrize("factor", [1.0, 1e-9, 1e6])
    def test_matches_unpruned_reference(self, factor):
        for k, base in enumerate(self.family()):
            self.assert_matches_unpruned(scaled(base, factor), k)

    def test_matches_unpruned_reference_mid_size(self):
        for k, inst in enumerate(mid_size_family()):
            self.assert_matches_unpruned(inst, k)

    def test_prunes_most_candidates(self):
        # a silently disabled bound and prune would run all 50 subproblems
        inst = random_instance(13_100, n=50, r_p=25, r_v=25)
        diagnostics = solve_hw(inst).diagnostics
        assert diagnostics["bounded"] + diagnostics["pruned"] >= 0.75 * inst.n


class TestBreakEvenCheck:
    """``solve_hw`` prunes with one batched check, and only candidates that cannot win."""

    def test_one_batched_check_after_candidates(self, monkeypatch):
        calls, searched = [], []
        rows_of, candidates_of = feasibility._feasible_rows, feasibility._candidates

        def recording_candidates(pool, targets):
            found = candidates_of(pool, targets)
            searched.append(True)
            return found

        def recording_rows(instance, floor, i_star, p_star, v_star):
            if searched:  # the villager search's own rows are not counted
                calls.append(len(i_star))
            return rows_of(instance, floor, i_star, p_star, v_star)

        monkeypatch.setattr(feasibility, "_candidates", recording_candidates)
        monkeypatch.setattr(feasibility, "_feasible_rows", recording_rows)
        checked = 0
        for k, inst in enumerate(TestBracketPruning().family()):
            calls.clear()
            searched.clear()
            solve_hw(inst)
            assert len(calls) <= 1, k
            checked += sum(calls)
        assert checked > 0  # some candidates were checked at all

    @pytest.mark.parametrize("factor", [1.0, 1e-9, 1e6])
    def test_pruned_candidates_fall_short_of_the_seed(self, monkeypatch, factor):
        run_subproblem = waterfill._run_subproblem
        waterfilled = []

        def recording_subproblem(instance, i_star, v_star, on_state=None):
            waterfilled.append(i_star)
            return run_subproblem(instance, i_star, v_star, on_state)

        monkeypatch.setattr(waterfill, "_run_subproblem", recording_subproblem)
        pruned = 0
        for k, base in enumerate(TestBracketPruning().family()):
            inst = scaled(base, factor)
            waterfilled.clear()
            solve_hw(inst)
            i_stars, v_stars, _ = candidates(inst, np.arange(inst.n))
            # at least the solver's seed: the larger of the minimax seed and
            # the best no-effort utility (of every candidate, bounded or not)
            no_effort = fixed_target_utilities(inst, i_stars, 0.0, v_stars)[0]
            seed = max(no_effort.max(), minimax_seed_ref(inst)[0])
            for i_star, v_star in zip(i_stars.tolist(), v_stars.tolist()):
                if i_star in waterfilled:
                    continue
                pruned += 1
                profile, _ = run_subproblem(inst, i_star, v_star)
                p, v = profile.p[i_star], profile.v[i_star]
                own = fixed_target_utilities(inst, i_star, p, v)[0]
                assert own < seed - inst.tol, (k, i_star)
        assert pruned > 100


class TestMinimaxSeed:
    """The minimax seed of the break-even check: a valid profile, a level no
    profile beats, a seed every solve reaches on its own target, scale-free."""

    def test_profile_level_and_seed_against_the_oracle(self):
        reached = 0
        for k in range(120):
            n = 2 + k % 5
            inst = random_instance(15_000 + k, n=n, r_p=(k % 4) * n / 3, r_v=(k // 4) % 4)
            profile, _ = feasibility._minimax_profile(feasibility._Pool(inst))
            assert validate_profile(inst, profile) == [], k
            oracle = solve_oracle(inst)
            # the search's level: no valid profile holds the attacker lower
            level = attacker_utilities(inst, compute_coverage(inst, profile)).max()
            assert level <= attacker_utilities(inst, compute_coverage(inst, oracle.profile)).max() + 2 * inst.tol, k
            seed, _ = feasibility._minimax_seed(feasibility._Pool(inst))
            assert seed <= oracle.defender_utility + inst.tol, k
            reached += seed >= oracle.defender_utility - inst.tol
        assert reached >= 60  # most often the seed is an optimum itself

    def test_seed_is_reached_on_an_attacked_target(self):
        # Target 0 ties the attacker's best within tol at the all-zero minimax
        # profile but cannot be attacked: targets 1 and 2 would need 2.5e-8
        # coverage each, more than the coverage slack. Its utility 0 is no
        # seed; the candidates' -100 is, and neither is pruned.
        inst = Instance(
            ranger_budget=0.0, villager_budget=0, e_p=1.0, e_v=0.5,
            reward_def=[0.0, 0.0, 0.0], penalty_def=[0.0, -100.0, -100.0],
            reward_att=[1.0 - 5e-8, 1.0, 1.0], penalty_att=[-1.0, -1.0, -1.0],
        )
        assert feasibility._minimax_seed(feasibility._Pool(inst))[0] == -100.0
        result = solve_hw(inst)
        assert result.diagnostics["pruned"] == 0
        oracle = solve_oracle(inst)
        assert (result.attacked, result.defender_utility) == (oracle.attacked, oracle.defender_utility)

    def test_seed_matches_reference(self):
        for k in range(60):
            n = 2 + k % 9
            inst = random_instance(15_500 + k, n=n, r_p=(k % 4) * n / 3, r_v=(k // 4) % 5)
            seed, rows = feasibility._minimax_seed(feasibility._Pool(inst))
            want, probed = minimax_seed_ref(inst)
            assert seed == want, k
            # the replay certifies the reference's rounds with no more level rows than they probe
            assert rows <= probed, k

    def test_zero_spread_target_against_the_oracle(self):
        # Target 0 pays the attacker nothing at any coverage: the minimax
        # seed must lower it to a finite coverage, or its NaN utility warns.
        for s in range(200):
            n = 3 + s % 5
            inst = generate_instance(GenParams(n=n, r_p=n / 2, r_v=n // 2, seed=s))
            inst = dataclasses.replace(
                inst,
                reward_att=np.r_[0.0, inst.reward_att[1:]],
                penalty_att=np.r_[0.0, inst.penalty_att[1:]],
            )
            result, oracle = solve_hw(inst), solve_oracle(inst)
            assert result.defender_utility == pytest.approx(oracle.defender_utility, rel=1e-6), s

    def test_zero_spread_target_is_attacked(self):
        inst = Instance(
            ranger_budget=1.0, villager_budget=1, e_p=0.7, e_v=0.3,
            reward_def=[5.0, 4.0, 1.0], penalty_def=[-2.0, -3.0, -1.0],
            reward_att=[6.0, 5.5, 0.0], penalty_att=[-4.0, -2.0, 0.0],
        )
        for result in (solve_hw(inst), solve_oracle(inst)):
            assert result.attacked == 0
            assert result.defender_utility == pytest.approx(1.2, rel=1e-9)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_large_instance_runs_one_subproblem(self, seed):
        # the no-effort seed left 12 and 55 of these candidates standing
        inst = generate_instance(GenParams(n=400, r_p=200, r_v=200, seed=seed))
        diagnostics = solve_hw(inst).diagnostics
        assert diagnostics["candidates"] - diagnostics["pruned"] == 1

    def test_pruned_count_is_scale_free(self):
        for k, base in enumerate(TestBracketPruning().family()):
            pruned = {
                factor: solve_hw(scaled(base, factor)).diagnostics["pruned"]
                for factor in (1.0, 1e-300, 1e-9, 1e6, 1e300)
            }
            assert len(set(pruned.values())) == 1, (k, pruned)


def _minimax_family():
    """216 seeded small instances for the minimax search: zero-spread targets
    on a third, ranger budget 0 on a quarter, villager budgets 0, 1, 3 and
    2**62, per-target e_v on a quarter, each at payoff scales 1, 1e-9 and 1e6."""
    rng = np.random.default_rng(28)
    for k in range(72):
        n = 2 + k % 5
        inst = random_instance(28_000 + k, n=n, r_p=(k % 4) * n / 3, r_v=(0, 1, 3, 2**62)[(k // 4) % 4])
        if k % 3 == 0:
            flat = rng.random(n) < 0.4
            inst = dataclasses.replace(
                inst,
                reward_att=np.where(flat, 0.0, inst.reward_att),
                penalty_att=np.where(flat, 0.0, inst.penalty_att),
            )
        if k % 4 == 3:
            inst = dataclasses.replace(inst, e_v=rng.uniform(0.05, 0.95, n).round(3))
        for factor in (1.0, 1e-9, 1e6):
            yield k, factor, scaled(inst, factor)


class TestCrossingStart:
    """The minimax search starts at the pooled crossing: one level row
    usually settles it, and the seed prunes as the 33-ary search's did."""

    def test_profile_is_valid_and_within_tol_of_the_fine_level(self):
        seen = Counter()
        for k, factor, inst in _minimax_family():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                profile, rows = feasibility._minimax_profile(feasibility._Pool(inst))
            assert validate_profile(inst, profile) == [], (k, factor)
            level = attacker_utilities(inst, compute_coverage(inst, profile)).max()
            assert level >= inst.penalty_att.max(), (k, factor)
            assert abs(level - minimax_level_ref(inst)) <= inst.tol, (k, factor)
            seen["one row"] += rows == 1
            seen["zero spread"] += bool((inst.spread_att == 0).any())
            seen["no rangers"] += inst.ranger_budget == 0
            seen["no villagers"] += inst.villager_budget == 0
            seen["2**62 villagers"] += inst.villager_budget == 2**62
        assert min(seen.values()) >= 40 and seen["one row"] >= 150, seen

    @pytest.mark.parametrize("n", [5, 50, 240])
    def test_one_level_row_on_the_benchmark_family(self, n):
        one_row = 0
        for s in range(40):
            inst = generate_instance(GenParams(n=n, r_p=n / 2, r_v=n // 2, seed=s))
            one_row += feasibility._minimax_profile(feasibility._Pool(inst))[1] == 1
        assert one_row >= 38, one_row

    def test_solves_match_the_33ary_seed(self, monkeypatch):
        # The zero-sum case study ties co-optimal candidates within tol, where a
        # seed change would most likely move a tied answer.
        family = [
            scaled(random_instance(28_500 + k, n=2 + k % 11, r_p=(k % 4) * (2 + k % 11) / 3, r_v=(k // 4) % 5), factor)
            for k in range(60)
            for factor in (1.0, 1e6)
        ] + list(case_study_grid())
        crossing = [solve_hw(inst) for inst in family]
        monkeypatch.setattr(feasibility, "_minimax_profile", minimax_profile_33ary)
        rows = Counter()
        for k, (inst, got) in enumerate(zip(family, crossing)):
            want = solve_hw(inst)
            assert got.attacked == want.attacked, k
            assert got.defender_utility.hex() == want.defender_utility.hex(), k
            assert got.profile.p.tobytes() == want.profile.p.tobytes(), k
            assert got.profile.v.tobytes() == want.profile.v.tobytes(), k
            counters = [dict(result.diagnostics) for result in (got, want)]
            rows.update(crossing=counters[0].pop("feasibility_checks"), ary=counters[1].pop("feasibility_checks"))
            assert counters[0] == counters[1], k
        # the patch took: the 33-ary rounds sent far more level rows
        assert rows["crossing"] * 3 < rows["ary"], rows


def case_study_grid():
    """The case study at every effectiveness setting of the planner's grid."""
    base = case_study_scenario().instance
    values = [round(0.1 * k, 1) for k in range(1, 10)]
    for e_p in values:
        for e_v in values:
            if e_p >= e_v:
                yield dataclasses.replace(base, e_p=e_p, e_v=e_v)


def subproblems(inst):
    """Every candidate (i_star, v_star) ``solve_hw`` would waterfill unpruned."""
    i_stars, v_stars, _ = candidates(inst, np.arange(inst.n))
    return zip(i_stars.tolist(), v_stars.tolist())


class TestEventDrivenPour:
    """The event-driven pour and the one-sort greedy against the loops they replaced."""

    def assert_greedy_matches_loop(self, inst, label):
        step = max(1, inst.villager_budget // 4)
        for i_star in range(inst.n):
            for v_star in range(0, inst.villager_budget + 1, step):
                got = waterfill._greedy_villagers(inst, i_star, v_star)
                want = greedy_villagers_loop(inst, i_star, v_star)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), label

    def assert_pour_matches_per_merge(self, inst, label):
        for i_star, v_star in subproblems(inst):
            profile, state = waterfill._run_subproblem(inst, i_star, v_star)
            ref_profile, ref_state = run_subproblem_per_merge(inst, i_star, v_star)
            got = evaluate_profile(inst, profile).defender_utility
            want = evaluate_profile(inst, ref_profile).defender_utility
            assert abs(got - want) <= inst.tol, (label, i_star)
            assert state.swaps == ref_state.swaps, (label, i_star)
            assert state.iterations <= ref_state.iterations, (label, i_star)

    @pytest.mark.parametrize("factor", [1.0, 1e-9, 1e6])
    def test_bracket_pruning_family(self, factor):
        for k, base in enumerate(TestBracketPruning().family()):
            inst = scaled(base, factor)
            self.assert_greedy_matches_loop(inst, k)
            self.assert_pour_matches_per_merge(inst, k)

    def test_mid_size_family(self):
        for k, inst in enumerate(mid_size_family()):
            self.assert_greedy_matches_loop(inst, k)
            self.assert_pour_matches_per_merge(inst, k)

    def test_case_study_grid(self):
        for k, inst in enumerate(case_study_grid()):
            self.assert_greedy_matches_loop(inst, k)
            self.assert_pour_matches_per_merge(inst, k)

    def test_greedy_window_widens(self):
        # one wide target takes over a hundred villagers
        inst = Instance(
            ranger_budget=1.0,
            villager_budget=300,
            e_p=0.5,
            e_v=0.004,
            reward_def=np.ones(40),
            penalty_def=-np.ones(40),
            reward_att=np.r_[100.0, np.linspace(1.0, 2.0, 39)],
            penalty_att=np.r_[-100.0, -np.ones(39)],
        )
        self.assert_greedy_matches_loop(inst, "wide")
        assert waterfill._greedy_villagers(inst, 1, 0)[0][0] > 100

    def test_greedy_memory_follows_villagers_placed(self):
        # one of 1,000 targets takes all 20,000 spare villagers; ranking that
        # many heads for every target would take 2e7 cells, 160 MB a copy
        n = 1000
        inst = Instance(
            ranger_budget=1.0,
            villager_budget=20_000,
            e_p=0.5,
            e_v=1e-5,
            reward_def=np.ones(n),
            penalty_def=-np.ones(n),
            reward_att=np.r_[1000.0, np.linspace(1.0, 2.0, n - 1)],
            penalty_att=np.r_[-1000.0, -np.ones(n - 1)],
        )
        tracemalloc.start()
        try:
            got = waterfill._greedy_villagers(inst, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0][0] == 20_000
        assert peak < 2 * 2**20
        for a, b in zip(got, greedy_villagers_loop(inst, 1, 0)):
            assert a.tobytes() == b.tobytes()

    def test_greedy_runs_out_of_targets_before_villagers(self):
        # every target reaches its floor long before the budget is spent; ten
        # villagers leave a target within tol of its floor, not at it
        inst = Instance(
            ranger_budget=1.0,
            villager_budget=2**62,
            e_p=0.5,
            e_v=0.1 - 1e-12,
            reward_def=np.ones(6),
            penalty_def=-np.ones(6),
            reward_att=np.array([3.0, 1.0, 2.5, 1.0, 0.5, 4.0]),
            penalty_att=np.array([-1.0, -2.0, -1.0, -3.0, -0.5, -2.0]),
        )
        self.assert_greedy_matches_loop(inst, "unbounded")
        u_att = waterfill._greedy_villagers(inst, 0, 0)[1]
        assert np.all(np.abs(u_att - inst.penalty_att)[1:] <= inst.tol)


def layout_instance(r_a, p_a, e_v, villager_budget):
    """Unit defender payoffs around the given attacker payoffs."""
    n = len(r_a)
    return Instance(1.0, villager_budget, 0.5, e_v, np.ones(n), -np.ones(n), r_a, p_a)


class TestSwapCertificate:
    """``_swap_free`` certifies a layout at its first event only where no event can swap."""

    def tally(self, inst, pairs, counts):
        """Run each subproblem; at every state the matrix search must agree with the certificate.

        Returns whether each subproblem's layout was certified.
        """
        certified = []
        for i_star, v_star in pairs:
            seen = []

            def check(state):
                if state.sea_level is None:
                    return
                probe = dataclasses.replace(state, swap_free=False)
                swap = get_swap_line(probe, waterfill._refresh_levels(probe))
                if state.swap_free:
                    assert swap is None, (i_star, v_star, state.iterations)
                if state.iterations not in seen:  # the call after the loop repeats the last event
                    seen.append(state.iterations)
                    counts["certified" if state.swap_free else "uncertified"] += 1

            _, final = waterfill._run_subproblem(inst, i_star, v_star, check)
            assert final.swaps == 0 or not final.swap_free
            certified.append(final.swap_free)
        return certified

    def tally_layout(self, monkeypatch, inst, villagers, counts):
        """``tally`` from a hand-set layout, fixed target 0, in place of the greedy's; whether it was certified."""
        villagers = np.asarray(villagers, dtype=np.int64)
        u_att = attacker_utilities(inst, np.minimum(inst.e_v * villagers, 1.0))
        monkeypatch.setattr(waterfill, "_greedy_villagers", lambda *_: (villagers.copy(), u_att.copy()))
        return self.tally(inst, [(0, int(villagers[0]))], counts)[0]

    def test_certified_layouts_never_swap(self, monkeypatch):
        counts = Counter()
        families = [scaled(base, f) for f in (1.0, 1e-9, 1e6) for base in TestBracketPruning().family()]
        for inst in [*families, *mid_size_family(), *case_study_grid()]:
            self.tally(inst, subproblems(inst), counts)

        # Counts past 2**53 at e_v = 0.9e-18; with target 4's 3e18 villagers,
        # ol_4 = R - e_v (v - 1) s lies 1.7 spreads below its floor, and it is pinned.
        inst = layout_instance([1.0, 2.0, 8.0, 20.0, 0.5, 0.5], [-1.0, -2.0, 0.0, -4.0, -1.0, -0.5], 0.9e-18, 2**62)
        held = [0, 3 * 10**17, 5 * 10**17, 7 * 10**17, 3 * 10**18, 0]
        assert not self.tally_layout(monkeypatch, inst, held, counts)
        held[4] = 0
        assert self.tally_layout(monkeypatch, inst, held, counts)
        # A zero-spread target never joins the pairs; a pinned donor stops the certificate.
        inst = layout_instance([4.0, 0.0, 3.0, 6.0, 2.0], [-4.0, 0.0, -3.0, -6.0, -2.0], 0.25, 6)
        assert self.tally_layout(monkeypatch, inst, [0, 0, 0, 1, 0], counts)
        assert not self.tally_layout(monkeypatch, inst, [0, 0, 0, 1, 4], counts)
        # Pinned donor 3 holds a spare villager and swaps it; its pairs alone would pass.
        inst = layout_instance([2.0, 2.0, 4.0, 5.0], [-5.0, -2.0, -6.0, -1.0], 0.25, 10)
        assert not self.tally_layout(monkeypatch, inst, [0, 3, 2, 5], counts)
        # Donor 2 is one float step wider than member 1: the pair's divisor is one ulp.
        inst = layout_instance([1.0, 3.0, np.nextafter(3.0, np.inf), 0.5], [-1.0, 0.0, 0.0, -0.5], 0.25, 3)
        assert self.tally_layout(monkeypatch, inst, [0, 2, 1, 0], counts)
        assert not self.tally_layout(monkeypatch, inst, [0, 0, 1, 0], counts)

        assert counts["certified"] >= 1000 and counts["uncertified"] >= 100, counts

    def assert_same_uncertified(self, monkeypatch, instances):
        """``solve_hw`` with the certificate never holding gives the same bits."""
        certify = waterfill._swap_free
        held = Counter()

        def counted(state, pinned):
            certified = certify(state, pinned)
            held[certified] += 1
            return certified

        results = []
        for inst in instances:
            monkeypatch.setattr(waterfill, "_swap_free", counted)
            got = solve_hw(inst)
            monkeypatch.setattr(waterfill, "_swap_free", lambda state, pinned: False)
            results.append((got, solve_hw(inst)))
        for k, (got, want) in enumerate(results):
            assert got.attacked == want.attacked, k
            assert float(got.defender_utility).hex() == float(want.defender_utility).hex(), k
            assert got.profile.p.tobytes() == want.profile.p.tobytes(), k
            assert got.profile.v.tobytes() == want.profile.v.tobytes(), k
            assert got.diagnostics == want.diagnostics, k
        assert held[True] > 0, held  # the patch took

    @pytest.mark.parametrize("factor", [1.0, 1e-9, 1e6])
    def test_seeded_outputs_match_without_the_certificate(self, monkeypatch, factor):
        instances = [
            scaled(random_instance(15_000 + k, n=3 + k % 30, r_p=(1 + k % 3) * (3 + k % 30) / 4, r_v=k % 9), factor)
            for k in range(100)
        ]
        self.assert_same_uncertified(monkeypatch, instances)

    def test_case_study_outputs_match_without_the_certificate(self, monkeypatch):
        self.assert_same_uncertified(monkeypatch, list(case_study_grid()))

    def spy_drop(self, monkeypatch):
        calls = []
        drop = waterfill._drop

        def spy(*args):
            calls.append(1)
            return drop(*args)

        monkeypatch.setattr(waterfill, "_drop", spy)
        return calls

    def test_case_study_grid_builds_no_swap_matrix(self, monkeypatch):
        # every layout of the grid is certified, so no matrix is built
        calls = self.spy_drop(monkeypatch)
        for inst in case_study_grid():
            solve_hw(inst)
        assert len(calls) == 0

    def test_mid_size_family_still_searches(self, monkeypatch):
        calls = self.spy_drop(monkeypatch)
        for inst in mid_size_family():
            solve_hw(inst)
        assert len(calls) > 0


class TestStateInvariants:
    def collect(self, inst):
        runs = []
        for i_star, v_star in subproblems(inst):
            snaps = []
            waterfill._run_subproblem(
                inst, i_star, v_star, lambda s: snaps.append(copy.deepcopy(s))
            )
            runs.append((i_star, v_star, snaps))
        return runs

    def test_sea_level_and_one_wasted_villager_bound(self):
        for k in range(25):
            inst = random_instance(12_000 + k, n=2 + k % 5, r_p=1 + k % 3, r_v=k % 4)
            for i_star, v_star, snaps in self.collect(inst):
                for s in snaps:
                    if s.sea_level is None:
                        continue
                    # every target carrying ranger effort and not pinned sits
                    # at the sea level
                    pinned = np.abs(s.u_att - inst.penalty_att) <= inst.tol
                    wet = (s.effort > 0) & ~pinned
                    assert np.all(np.abs(s.u_att[wet] - s.sea_level) <= 1e-8)
                    # at most one wasted villager per below-sea target; the
                    # reference level is the highest utility the greedy can
                    # still touch (the fixed target takes no greedy villagers)
                    others = np.arange(inst.n) != i_star
                    reachable = others & ~pinned
                    if not reachable.any():
                        continue
                    level = float(s.u_att[reachable].max())
                    for j in range(inst.n):
                        if j == i_star or s.villagers[j] < 1:
                            continue
                        if s.u_att[j] < level - inst.tol:
                            one_less = inst.reward_att[j] - inst.spread_att[
                                j
                            ] * inst.e_v * (s.villagers[j] - 1)
                            assert one_less >= level - 1e-8

    def test_swap_bookkeeping(self):
        for k in range(25):
            inst = random_instance(13_000 + k, n=3 + k % 4, r_p=2, r_v=3)
            for i_star, v_star, snaps in self.collect(inst):
                for before, after in zip(snaps, snaps[1:]):
                    if after.swaps == before.swaps:
                        continue
                    assert after.swaps == before.swaps + 1
                    moved = after.villagers - before.villagers
                    gained = np.flatnonzero(moved == 1)
                    lost = np.flatnonzero(moved == -1)
                    assert len(gained) == 1 and len(lost) == 1
                    i_outp, i_outv = int(gained[0]), int(lost[0])
                    # the villager moved to a strictly wider target
                    assert after.width[i_outp] > after.width[i_outv]
                    # donor ends on the sea level, receiver at villagers-only
                    if after.sea_level is not None:
                        assert abs(after.u_att[i_outv] - after.sea_level) <= 1e-8
                    assert after.effort[i_outp] == 0.0
                    cov_v = min(inst.e_v * after.villagers[i_outp], 1.0)
                    villagers_only = (
                        inst.reward_att[i_outp] * (1 - cov_v) + inst.penalty_att[i_outp] * cov_v
                    )
                    assert after.u_att[i_outp] == pytest.approx(villagers_only, abs=1e-12)
                    # targets outside the critical set both before and after
                    # the pour-plus-swap step keep their utility; those the
                    # pour merged into it end on the new sea
                    untouched = ~before.critical & ~after.critical
                    untouched[[i_outp, i_outv, i_star]] = False
                    assert np.all(
                        before.u_att[untouched] == after.u_att[untouched]
                    )
                    merged = ~before.critical & after.critical
                    merged[[i_outp, i_outv]] = False
                    if after.sea_level is not None:
                        assert np.all(np.abs(after.u_att[merged] - after.sea_level) <= 1e-8)
                # swap count stays within the quadratic budget
                assert snaps[-1].swaps <= inst.n**2

    def test_local_and_global_waste_minimality(self):
        # single-villager moves never reduce waste (local), and on small
        # instances the placement even beats every full enumeration (global)
        for k in range(20):
            inst = random_instance(14_000 + k, n=2 + k % 3, r_p=1 + k % 3, r_v=k % 4)
            for i_star, v_star, snaps in self.collect(inst):
                spare = inst.villager_budget - v_star
                for s in snaps:
                    if s.sea_level is None:
                        continue
                    u = s.sea_level
                    v = s.villagers
                    base_scw = scw_ref(inst, v, u, i_star)
                    base_useful = useful_ref(inst, v, u, i_star)
                    for i1 in range(inst.n):
                        for i2 in range(inst.n):
                            if i1 == i2 or i_star in (i1, i2) or v[i2] < 1:
                                continue
                            moved = v.copy()
                            moved[i1] += 1
                            moved[i2] -= 1
                            assert scw_ref(inst, moved, u, i_star) >= base_scw - 1e-9
                    best = max(
                        useful_ref(
                            inst,
                            np.insert(np.asarray(alt), i_star, 0),
                            u,
                            i_star,
                        )
                        for alt in placements(inst.n - 1, spare)
                    )
                    assert base_useful >= best - 1e-9
