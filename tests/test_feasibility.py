import dataclasses
from collections import Counter

import numpy as np
import pytest

from patrolgame import feasibility
from patrolgame.feasibility import (
    FeasibilityQuery,
    candidates,
    check_consistent,
    feasible_rows,
    greedy_profiles,
    min_valid_coverage,
    most_villagers,
    total_wasted_coverage,
    witness_utilities,
)
from patrolgame.planner import case_study_scenario, terrain_adjust, with_effectiveness
from patrolgame.tdbs import TdbsConfig, most_effort, solve_tdbs
from patrolgame.waterfill import solve_hw
from patrolgame.model import (
    GameDefinitionError,
    Instance,
    StrategyProfile,
    compute_coverage,
    attacker_utilities,
    evaluate_profile,
    validate_profile,
)

from conftest import (
    feasible_by_enumeration,
    greedy_villagers_ref,
    max_feasible_villagers_ref,
    needs_ref,
    random_instance,
    scaled,
    solve_hw_sequential,
    solve_tdbs_sequential,
    symmetric_instance,
)


def make(n=2, **kw):
    args = dict(
        ranger_budget=1.0,
        villager_budget=1,
        e_p=0.5,
        e_v=0.5,
        reward_def=[1.0] * n,
        penalty_def=[-1.0] * n,
        reward_att=[1.0] * n,
        penalty_att=[-1.0] * n,
    )
    args.update(kw)
    return Instance(**args)


def assert_witness_sound(inst, query, answer, tol=2e-8):
    """The witness validates and leaves i_star an attacker best response."""
    assert validate_profile(inst, answer.witness) == []
    assert answer.witness.p[query.i_star] == pytest.approx(query.p_star, abs=1e-12)
    assert answer.witness.v[query.i_star] == query.v_star
    u_a = attacker_utilities(inst, compute_coverage(inst, answer.witness))
    assert u_a[query.i_star] >= u_a.max() - tol


class TestMinValidCoverage:
    def test_symmetric_spread_midpoint(self):
        inst = make(reward_att=[10.0, 10.0], penalty_att=[-10.0, -10.0])
        assert min_valid_coverage(inst, 0, 0.0) == pytest.approx(0.5)

    def test_zero_coverage_suffices_at_reward(self):
        inst = make(reward_att=[3.0, 1.0])
        assert min_valid_coverage(inst, 0, 3.0) == 0.0
        assert min_valid_coverage(inst, 0, 5.0) == 0.0

    def test_below_penalty_floor_unachievable(self):
        inst = make(reward_att=[10.0, 10.0], penalty_att=[-10.0, -10.0])
        assert min_valid_coverage(inst, 0, -11.0) is None

    def test_zero_spread(self):
        inst = make(reward_att=[0.0, 1.0], penalty_att=[0.0, -1.0])
        assert min_valid_coverage(inst, 0, 0.5) == 0.0
        assert min_valid_coverage(inst, 0, -0.5) is None


class TestTotalWastedCoverage:
    def test_no_villagers_no_waste(self):
        inst = make()
        assert total_wasted_coverage(inst, np.zeros(2, dtype=int), 0.0, 0) == 0.0

    def test_exact_fit(self):
        # c_min on target 1 equals exactly one villager's coverage
        inst = make(reward_att=[1.0, 1.0], penalty_att=[-1.0, -1.0])
        assert total_wasted_coverage(inst, np.array([0, 1]), 0.0, 0) == 0.0

    def test_direct_formula(self):
        # e_v = 0.5, two villagers on target 1, c_min = 0.7 -> waste 0.3
        inst = make(reward_att=[1.0, 10.0], penalty_att=[-1.0, -10.0], villager_budget=2)
        u = 10.0 - 20.0 * 0.7
        assert total_wasted_coverage(inst, np.array([0, 2]), u, 0) == pytest.approx(0.3)

    def test_unachievable_raises(self):
        inst = make()
        with pytest.raises(GameDefinitionError):
            total_wasted_coverage(inst, np.zeros(2, dtype=int), -2.0, 0)


class TestCheckConsistent:
    def test_symmetric_feasible(self):
        inst = symmetric_instance()
        answer = check_consistent(inst, FeasibilityQuery(0, 0.0, 1))
        assert answer.feasible
        assert feasible_by_enumeration(inst, 0, 0.0, 1)
        assert_witness_sound(inst, FeasibilityQuery(0, 0.0, 1), answer)
        assert answer.witness.p.tolist() == [0.0, 1.0]
        assert answer.witness.v.tolist() == [1, 0]

    def test_symmetric_infeasible_when_overloaded(self):
        inst = symmetric_instance()
        answer = check_consistent(inst, FeasibilityQuery(0, 1.0, 1))
        assert not answer.feasible
        assert answer.witness is None
        assert not feasible_by_enumeration(inst, 0, 1.0, 1)

    def test_floor_short_circuit(self):
        # target 1's penalty floor (0) exceeds any utility reachable on a
        # fully covered target 0, so no budget makes 0 the best response
        inst = make(
            reward_att=[2.0, 0.0],
            penalty_att=[-2.0, 0.0],
            ranger_budget=10.0,
            villager_budget=5,
        )
        answer = check_consistent(inst, FeasibilityQuery(0, 4.0, 0))
        assert not answer.feasible

    def test_agrees_with_enumeration_on_grid(self):
        # small-instance completeness: exhaustive villager placements plus
        # exact continuous fill, over a grid of fixed efforts
        for seed in range(40):
            inst = random_instance(3000 + seed, n=3, r_p=2, r_v=2)
            for i_star in range(3):
                for v_star in range(inst.villager_budget + 1):
                    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                        p_star = frac * inst.ranger_budget
                        got = check_consistent(
                            inst, FeasibilityQuery(i_star, p_star, v_star)
                        ).feasible
                        want = feasible_by_enumeration(inst, i_star, p_star, v_star)
                        assert got == want, (seed, i_star, p_star, v_star)

    def test_witness_soundness_random(self):
        rng = np.random.default_rng(5)
        checked = 0
        for k in range(400):
            inst = random_instance(4000 + k, n=int(rng.integers(2, 6)), r_p=3, r_v=3)
            query = FeasibilityQuery(
                int(rng.integers(0, inst.n)),
                float(rng.uniform(0, inst.ranger_budget)),
                int(rng.integers(0, inst.villager_budget + 1)),
            )
            answer = check_consistent(inst, query)
            if answer.feasible:
                assert_witness_sound(inst, query, answer)
                checked += 1
        assert checked > 100  # the probe mix must actually exercise witnesses

    def test_monotone_in_fixed_resources(self):
        # shrinking the fixed allocation preserves feasibility
        rng = np.random.default_rng(6)
        for k in range(300):
            inst = random_instance(5000 + k, n=int(rng.integers(2, 6)), r_p=3, r_v=3)
            i_star = int(rng.integers(0, inst.n))
            p = float(rng.uniform(0, inst.ranger_budget))
            v = int(rng.integers(0, inst.villager_budget + 1))
            if not check_consistent(inst, FeasibilityQuery(i_star, p, v)).feasible:
                continue
            p2 = float(rng.uniform(0, p))
            v2 = int(rng.integers(0, v + 1))
            assert check_consistent(inst, FeasibilityQuery(i_star, p2, v2)).feasible

    def test_effort_to_villager_substitution(self):
        # replacing e_v/e_p effort with one villager preserves feasibility
        rng = np.random.default_rng(8)
        tried = 0
        for k in range(400):
            inst = random_instance(6000 + k, n=int(rng.integers(2, 6)), r_p=3, r_v=3)
            i_star = int(rng.integers(0, inst.n))
            v = int(rng.integers(0, inst.villager_budget))
            swap_cost = inst.e_v / inst.e_p
            max_k = min(
                inst.villager_budget - v,
                int(np.floor(inst.ranger_budget / swap_cost)),
            )
            if max_k < 1:
                continue
            k_swap = int(rng.integers(1, max_k + 1))
            p = float(rng.uniform(k_swap * swap_cost, inst.ranger_budget))
            if not check_consistent(inst, FeasibilityQuery(i_star, p, v)).feasible:
                continue
            tried += 1
            query = FeasibilityQuery(i_star, p - k_swap * swap_cost, v + k_swap)
            assert check_consistent(inst, query).feasible
        assert tried > 50

    def test_query_outside_budget_rejected(self):
        inst = make()
        with pytest.raises(GameDefinitionError):
            check_consistent(inst, FeasibilityQuery(0, 5.0, 0))
        with pytest.raises(GameDefinitionError):
            check_consistent(inst, FeasibilityQuery(0, 0.0, 7))


class TestCheckConsistentTs:
    """check_consistent on instances whose e_v is a per-target vector."""

    def test_uniform_reduction(self):
        rng = np.random.default_rng(9)
        for k in range(300):
            inst = random_instance(7000 + k, n=int(rng.integers(2, 6)), r_p=2, r_v=3)
            ts = dataclasses.replace(inst, e_v=np.full(inst.n, inst.e_v))
            query = FeasibilityQuery(
                int(rng.integers(0, inst.n)),
                float(rng.uniform(0, inst.ranger_budget)),
                int(rng.integers(0, inst.villager_budget + 1)),
            )
            assert (
                check_consistent(ts, query).feasible
                == check_consistent(inst, query).feasible
            )

    def test_spare_villager_goes_to_higher_effectiveness(self):
        # the candidate target's utility is pinned at 0 (zero spread), so the
        # other two targets both need coverage 0.5; the single spare villager
        # covers 0.5 on target 1 (e_v 0.9 capped at the need) versus 0.1 on
        # target 2, and with no rangers the rest is uncoverable either way
        def variant(spare):
            return Instance(
                ranger_budget=0.0,
                villager_budget=spare,
                e_p=0.5,
                e_v=[0.5, 0.9, 0.1],
                reward_def=[1.0, 1.0, 1.0],
                penalty_def=[-1.0, -1.0, -1.0],
                reward_att=[0.0, 1.0, 1.0],
                penalty_att=[0.0, -1.0, -1.0],
            )

        answer = check_consistent(variant(1), FeasibilityQuery(0, 0.0, 0))
        assert not answer.feasible
        # enumeration cross-check: villager on 1 leaves 0.4 on 2, villager on
        # 2 leaves 0.5 on 1 and 0.4 on 2; two villagers still leave >= 0.2
        assert not check_consistent(variant(2), FeasibilityQuery(0, 0.0, 0)).feasible
        # six villagers pile 0.1 steps onto target 2 until both needs are met
        assert check_consistent(variant(6), FeasibilityQuery(0, 0.0, 0)).feasible

    def test_zero_needs_feasible_with_zero_resources(self):
        ts = Instance(0.0, 0, 0.5, [0.5, 0.5], [1, 1], [-1, -1], [2.0, 1.0], [-1.0, -1.0])
        # attacking the max-reward target needs nothing elsewhere
        assert check_consistent(ts, FeasibilityQuery(0, 0.0, 0)).feasible

    def test_ts_witness_sound(self):
        rng = np.random.default_rng(10)
        checked = 0
        for k in range(200):
            inst = random_instance(8000 + k, n=int(rng.integers(2, 6)), r_p=2, r_v=3)
            ts = dataclasses.replace(inst, e_v=rng.uniform(0.05, 0.95, inst.n).round(3))
            query = FeasibilityQuery(
                int(rng.integers(0, inst.n)),
                float(rng.uniform(0, inst.ranger_budget)),
                int(rng.integers(0, inst.villager_budget + 1)),
            )
            answer = check_consistent(ts, query)
            if answer.feasible:
                assert_witness_sound(ts, query, answer)
                checked += 1
        assert checked > 50


def _flavoured_instance(rng, k, n, r_p, r_v):
    """A random instance with scalar, per-target, or tie-heavy effectiveness.

    The tie flavour draws e_v from dyadic values and copies one payoff pair to
    every target, so piece sizes and remainders are exactly equal across
    targets and the greedy's index tie-break decides.
    """
    inst = random_instance(11_000 + k, n=n, r_p=r_p, r_v=r_v)
    flavour = k % 3
    if flavour == 1:
        return dataclasses.replace(inst, e_v=rng.uniform(0.05, 0.95, n).round(3))
    if flavour == 2:
        return dataclasses.replace(
            inst,
            e_v=rng.choice([0.125, 0.25, 0.5], n),
            reward_att=np.full(n, inst.reward_att[0]),
            penalty_att=np.full(n, inst.penalty_att[0]),
        )
    return inst


class TestAgainstReferences:
    """The one check against the one-villager-at-a-time greedy and enumeration."""

    def test_matches_reference_greedy(self):
        rng = np.random.default_rng(13)
        spare_exceeds_pieces = exact_counts = 0
        for k in range(900):
            n = int(rng.integers(2, 8))
            # up to 20 villagers on few targets: often more than every piece
            inst = _flavoured_instance(rng, k, n, int(rng.integers(0, 4)), int(rng.integers(0, 21)))
            query = FeasibilityQuery(
                int(rng.integers(0, n)),
                float(rng.uniform(0, inst.ranger_budget)) if k % 4 else 0.0,
                int(rng.integers(0, inst.villager_budget + 1)),
            )
            answer = check_consistent(inst, query)
            feasible, counts, needs = greedy_villagers_ref(
                inst, query.i_star, query.p_star, query.v_star
            )
            assert answer.feasible == feasible, (k, query)
            if not feasible:
                continue
            others = np.arange(n) != query.i_star
            covered = answer.witness.p[others].sum() * inst.e_p
            assert covered == pytest.approx(sum(needs), abs=2e-9)
            # A need within rounding of a whole number of villagers counts as
            # that many whole pieces in the check; the reference may instead
            # see a piece a hair smaller, which moves a tie-break but not the
            # residual. Everywhere else the counts must match exactly.
            ratio = np.array(needs_ref(inst, *dataclasses.astuple(query))) / inst.e_v
            if np.all((ratio == 0) | (np.abs(ratio - np.round(ratio)) > 1e-8)):
                assert answer.witness.v[others].tolist() == np.array(counts)[others].tolist()
                exact_counts += 1
            if sum(counts) < inst.villager_budget - query.v_star:
                spare_exceeds_pieces += 1
        assert spare_exceeds_pieces > 50
        assert exact_counts > 200

    def test_equal_pieces_go_to_lowest_index(self):
        # Target 2 is pinned at utility 0, so targets 0 and 1 need coverage
        # 0.75 and 0.25 exactly: target 0 splits into a 0.5 piece and a 0.25
        # remainder, target 1 is one whole 0.25 piece. The second villager
        # faces a tie between target 0's remainder and target 1's whole piece.
        inst = Instance(
            ranger_budget=1.0,
            villager_budget=2,
            e_p=0.5,
            e_v=[0.5, 0.25, 0.5],
            reward_def=[1.0, 1.0, 1.0],
            penalty_def=[-1.0, -1.0, -1.0],
            reward_att=[3.0, 1.0, 0.0],
            penalty_att=[-1.0, -3.0, 0.0],
        )
        answer = check_consistent(inst, FeasibilityQuery(2, 0.0, 0))
        _, counts, _ = greedy_villagers_ref(inst, 2, 0.0, 0)
        assert answer.feasible
        assert answer.witness.v.tolist() == counts == [2, 0, 0]

    def test_matches_enumeration(self):
        rng = np.random.default_rng(14)
        for k in range(300):
            n = int(rng.integers(2, 5))
            inst = _flavoured_instance(rng, k, n, int(rng.integers(0, 3)), int(rng.integers(0, 5)))
            for i_star in range(n):
                query = FeasibilityQuery(
                    i_star,
                    float(rng.uniform(0, inst.ranger_budget)),
                    int(rng.integers(0, inst.villager_budget + 1)),
                )
                got = check_consistent(inst, query).feasible
                want = feasible_by_enumeration(inst, *dataclasses.astuple(query))
                assert got == want, (k, query)


class TestFeasibleRows:
    """The batched decision against the one-row check, row by row."""

    @pytest.mark.parametrize("block_cells", [feasibility._BLOCK_CELLS, 16])
    def test_matches_check_consistent(self, monkeypatch, block_cells):
        # 16 cells put at most a few rows in a block, so rows cross blocks
        monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(15)
        kinds = Counter()
        rows = 0
        for k in range(120):
            n = int(rng.integers(2, 9))
            # up to 24 villagers on few targets: often more than every piece
            inst = _flavoured_instance(rng, k, n, int(rng.integers(0, 4)), int(rng.integers(0, 25)))
            m = 20
            i_star = rng.integers(0, n, m)
            p_star = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0, inst.ranger_budget, m))
            v_star = rng.integers(0, inst.villager_budget + 1, m)
            v_star[:4] = inst.villager_budget  # spare = 0
            got = feasible_rows(inst, i_star, p_star, v_star)
            witnesses = list(greedy_profiles(inst, i_star, p_star, v_star))
            assert len(witnesses) == m
            for row in range(m):
                query = FeasibilityQuery(int(i_star[row]), float(p_star[row]), int(v_star[row]))
                answer = check_consistent(inst, query)
                assert got[row] == answer.feasible, (k, query)
                assert (witnesses[row] is None) == (not answer.feasible), (k, query)
                if answer.feasible:
                    assert witnesses[row][0].tolist() == answer.witness.p.tolist()
                    assert witnesses[row][1].tolist() == answer.witness.v.tolist()
                _, counts, needs = greedy_villagers_ref(inst, *dataclasses.astuple(query))
                if needs is None:
                    kinds["floor fails"] += 1
                elif max(needs) <= 0.0:
                    kinds["every piece fits"] += 1
                if query.v_star == inst.villager_budget:
                    kinds["spare = 0"] += 1
                kinds["feasible" if answer.feasible else "infeasible"] += 1
                rows += 1
        assert rows >= 2000
        assert min(kinds.values()) > 100 and len(kinds) == 5, kinds

    def test_rejects_rows_outside_the_instance(self):
        inst = make()
        for i_star, p_star, v_star in (([2], [0.0], [0]), ([0], [5.0], [0]), ([0], [0.0], [7]),
                                        ([0, 1], [0.0], [0]), ([0.0], [0.0], [0])):
            with pytest.raises(GameDefinitionError):
                feasible_rows(inst, np.array(i_star), np.array(p_star), np.array(v_star))


def test_descending_is_a_stable_sort_of_the_nonzero_sizes():
    # _descending returns flat positions; each row's, less its start, are columns
    rng = np.random.default_rng(19)
    ties = 0
    for k in range(300):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 60)))
        # dyadic sizes tie often, uniform ones almost never
        sizes = rng.choice([0.125, 0.25, 0.5, 1.0], shape) if k % 2 else rng.random(shape)
        sizes[rng.random(shape) < 0.3] = 0.0
        order = feasibility._descending(sizes) - np.arange(shape[0])[:, None] * shape[1]
        stable = np.argsort(-sizes, axis=1, kind="stable")
        for row in range(shape[0]):
            pieces = np.count_nonzero(sizes[row])
            assert order[row, :pieces].tolist() == stable[row, :pieces].tolist(), (k, row)
            assert sorted(order[row, pieces:]) == sorted(stable[row, pieces:])
            ties += pieces > np.unique(sizes[row][sizes[row] > 0]).size
    assert ties > 100


def _case_study_instances():
    """The 45 grid settings of the case study, each scalar and terrain-adjusted."""
    scenario = case_study_scenario()
    values = [round(0.1 * k, 1) for k in range(1, 10)]
    for e_p in values:
        for e_v in values:
            if e_p >= e_v:
                yield with_effectiveness(scenario, e_p, e_v).instance
                yield terrain_adjust(scenario, e_p, e_v)


class TestWitnessUtilities:
    """Block-wise scores of the greedy witnesses against one evaluation each."""

    @pytest.mark.parametrize("block_cells", [feasibility._BLOCK_CELLS, 16])
    def test_match_evaluate_profile(self, monkeypatch, block_cells):
        # 16 cells hold at most 8 rows at n = 2 and one at n = 21, so scores
        # cross blocks
        monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(18)
        random = [
            _flavoured_instance(rng, k, int(rng.integers(2, 9)), int(rng.integers(0, 4)),
                                int(rng.integers(0, 25)))
            for k in range(60)
        ]
        kinds = Counter()
        for inst in [*_case_study_instances(), *random]:
            # tdbs's final queries, then random ones (some infeasible)
            i_star = np.flatnonzero(feasible_rows(inst, np.arange(inst.n), np.zeros(inst.n),
                                                  np.zeros(inst.n, dtype=np.int64)))
            v_star = most_villagers(inst, i_star)[0]
            p_star = most_effort(inst, i_star, v_star, 1e-3)[0]
            m = 12
            i_star = np.concatenate([i_star, rng.integers(0, inst.n, m)])
            p_star = np.concatenate([p_star, rng.uniform(0, inst.ranger_budget, m)])
            v_star = np.concatenate([v_star, rng.integers(0, inst.villager_budget + 1, m)])
            got = witness_utilities(inst, i_star, p_star, v_star)
            witnesses = list(greedy_profiles(inst, i_star, p_star, v_star))
            assert got.shape == (len(witnesses),) == i_star.shape
            for row, witness in enumerate(witnesses):
                if witness is None:
                    assert np.isnan(got[row])
                    kinds["infeasible"] += 1
                    continue
                want = evaluate_profile(inst, StrategyProfile(*witness)).defender_utility
                assert got[row] == want == feasibility._defender_utility(inst, *witness)
                u_att = attacker_utilities(inst, compute_coverage(inst, StrategyProfile(*witness)))
                tied = np.count_nonzero(u_att >= u_att.max() - inst.tol)
                kinds["tied" if tied > 1 else "alone"] += 1
                kinds["per-target" if np.ndim(inst.e_v) else "scalar"] += 1
        assert min(kinds.values()) > 100 and len(kinds) == 5, kinds


class TestMaxFeasibleVillagers:
    """``most_villagers``: the largest feasible villager count per target."""

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(12)
        for k in range(100):
            inst = random_instance(9000 + k, n=int(rng.integers(2, 5)), r_p=2, r_v=4)
            attackable = [
                i for i in range(inst.n)
                if check_consistent(inst, FeasibilityQuery(i, 0.0, 0)).feasible
            ]
            counts, checks = most_villagers(inst, attackable)
            assert checks == sum(max_feasible_villagers_ref(inst, i)[2] for i in attackable)
            for i_star, best in zip(attackable, counts.tolist()):
                scan = max(
                    v
                    for v in range(inst.villager_budget + 1)
                    if check_consistent(inst, FeasibilityQuery(i_star, 0.0, v)).feasible
                )
                assert best == scan


class TestCandidates:
    def test_every_target_keeps_its_most_villagers(self):
        # each target alone with the one villager: both are candidates
        i_stars, v_stars, counters = candidates(symmetric_instance())
        assert i_stars.tolist() == [0, 1] and v_stars.tolist() == [1, 1]
        # per target: the v = 0 row and two search rows
        assert list(counters.items()) == [("feasibility_checks", 6), ("candidates", 2)]

    @pytest.mark.parametrize(
        "solve, diagnostics",
        [
            (solve_hw, {"feasibility_checks": 6, "candidates": 2, "iterations": 2, "swaps": 0, "pruned": 0}),
            (solve_tdbs, {"feasibility_checks": 26, "candidates": 2}),
        ],
        ids=["hw", "tdbs"],
    )
    def test_first_candidate_wins_ties_and_counters_add_up(self, solve, diagnostics):
        # both candidates reach utility 0; the first one's profile is kept
        result = solve(symmetric_instance())
        assert result.attacked == 0 and result.profile.v.tolist() == [1, 0]
        assert list(result.diagnostics.items()) == list(diagnostics.items())


def _family(j, k):
    """Seeded instance k of the lockstep family at payoff scale j: n from 2 to 100."""
    n = (40, 70, 100)[j] if k == 15 else 2 + k % 19
    return random_instance(14_000 + 16 * j + k, n=n, r_p=1 + (k * 7) % n, r_v=(k * 3) % (n + 2))


def _outputs(result):
    return (
        result.attacked,
        result.defender_utility,
        result.attacker_utility,
        result.profile.p.tolist(),
        result.profile.v.tolist(),
        list(result.diagnostics.items()),
    )


class TestLockstepAgainstSequential:
    """The lockstep searches give what one search per candidate gives, bit for bit."""

    @pytest.mark.parametrize("j, factor", [(0, 1.0), (1, 1e-9), (2, 1e6)])
    def test_solvers_match_sequential_loop(self, j, factor):
        rng = np.random.default_rng(16 + j)
        for k in range(16):
            inst = scaled(_family(j, k), factor)
            assert _outputs(solve_hw(inst)) == _outputs(solve_hw_sequential(inst)), k
            per_target = dataclasses.replace(
                inst, e_v=rng.uniform(0.05, 1.0, inst.n).round(3) * inst.e_p
            )
            epsilon = (1e-3, 1e-7, 1e-13)[(j + k) % 3]
            for case in (inst, per_target):
                lockstep = solve_tdbs(case, TdbsConfig(epsilon))
                assert _outputs(lockstep) == _outputs(solve_tdbs_sequential(case, epsilon)), k

    def test_bisection_ends_below_float_spacing(self):
        # an epsilon under the float step between efforts: each bisection
        # stops where its midpoint no longer moves
        for k in range(6):
            inst = random_instance(14_100 + k, n=2 + k, r_p=1 + k, r_v=k)
            lockstep = solve_tdbs(inst, TdbsConfig(1e-300))
            assert _outputs(lockstep) == _outputs(solve_tdbs_sequential(inst, 1e-300)), k
