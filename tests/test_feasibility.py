import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from patrolgame import feasibility, waterfill
from patrolgame.bench import GenParams, generate_instance
from patrolgame.feasibility import candidates, feasible_rows, most_effort, most_villagers, witness_blocks
from patrolgame.planner import case_study_scenario, terrain_adjust, with_effectiveness
from patrolgame.tdbs import TdbsConfig, solve_tdbs
from patrolgame.waterfill import solve_hw
from patrolgame.oracle import solve_oracle
from patrolgame.model import (
    REL_TOL,
    GameDefinitionError,
    Instance,
    StrategyProfile,
    best_response,
    compute_coverage,
    coverage_of,
    attacker_utilities,
    evaluate_profile,
    tied_defender_utilities,
    utilities_of,
    validate_profile,
)

from conftest import (
    counting_rows,
    feasible_by_enumeration,
    greedy_villagers_ref,
    most_effort_blind,
    most_villagers_blind,
    most_villagers_ref,
    needs_ref,
    random_instance,
    scaled,
    solve_hw_sequential,
    solve_tdbs_sequential,
    spying_passes,
    symmetric_instance,
    witness_of,
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


def assert_witness_sound(inst, query, witness, tol=2e-8):
    """The witness validates and leaves i_star an attacker best response."""
    i_star, p_star, v_star = query
    assert validate_profile(inst, witness) == []
    assert witness.p[i_star] == pytest.approx(p_star, abs=1e-12)
    assert witness.v[i_star] == v_star
    u_a = attacker_utilities(inst, compute_coverage(inst, witness))
    assert u_a[i_star] >= u_a.max() - tol


def block_witnesses(inst, i_star, p_star, v_star):
    """``witness_blocks`` flattened: each row's witness (p, v), or None where it is infeasible."""
    witnesses = []
    for _, feasible, p, v in witness_blocks(inst, i_star, p_star, v_star):
        rows = iter(zip(p, v))
        witnesses += [next(rows) if ok else None for ok in feasible.tolist()]
        assert next(rows, None) is None
    return witnesses


class TestMinValidCoverage:
    """The smallest coverage holding a target's attacker utility at or below u
    (``_min_coverage``), and the floor below which none does (``_attacker_floor``)."""

    def test_symmetric_spread_midpoint(self):
        inst = make(reward_att=[10.0, 10.0], penalty_att=[-10.0, -10.0])
        assert feasibility._min_coverage(inst, 0.0)[0] == pytest.approx(0.5)

    def test_zero_coverage_suffices_at_reward(self):
        inst = make(reward_att=[3.0, 1.0])
        assert feasibility._min_coverage(inst, 3.0)[0] == 0.0
        assert feasibility._min_coverage(inst, 5.0)[0] == 0.0

    def test_below_penalty_floor_unachievable(self):
        inst = make(reward_att=[10.0, 10.0], penalty_att=[-10.0, -10.0])
        assert -11.0 < feasibility._attacker_floor(inst)[0]
        assert feasibility._min_coverage(inst, -11.0)[0] == 1.0

    def test_zero_spread(self):
        inst = make(reward_att=[0.0, 1.0], penalty_att=[0.0, -1.0])
        assert feasibility._min_coverage(inst, 0.5)[0] == 0.0
        assert feasibility._min_coverage(inst, -0.5)[0] == 0.0
        assert 0.5 >= feasibility._attacker_floor(inst)[0] > -0.5


class TestTotalWastedCoverage:
    """Villager coverage past the needs of the other targets: the greedy's
    counts (``_place_villagers``) against the needs (``_min_coverage``), and
    the floor test on the other targets (``_floor_of_others``)."""

    @staticmethod
    def greedy(inst, u, i_star, spare):
        """(need, villager counts) of one row at level u with ``spare`` villagers."""
        need = feasibility._min_coverage(inst, np.array([[u]]))
        need[0, i_star] = 0.0
        _, alloc = feasibility._place_villagers(need, inst.e_v, np.array([spare]), counts=True)
        return need[0], alloc[0]

    def test_no_villagers_no_waste(self):
        need, alloc = self.greedy(make(), 0.0, 0, 0)
        assert alloc.tolist() == [0, 0] and need.tolist() == [0.0, 0.5]

    def test_exact_fit(self):
        # c_min on target 1 equals exactly one villager's coverage
        inst = make(reward_att=[1.0, 1.0], penalty_att=[-1.0, -1.0])
        need, alloc = self.greedy(inst, 0.0, 0, 1)
        assert alloc.tolist() == [0, 1] and alloc[1] * inst.e_v == need[1]

    def test_direct_formula(self):
        # e_v = 0.5, c_min = 0.7 on target 1: a whole piece and a remainder
        # take two villagers -> waste 0.3
        inst = make(reward_att=[1.0, 10.0], penalty_att=[-1.0, -10.0], villager_budget=2)
        need, alloc = self.greedy(inst, 10.0 - 20.0 * 0.7, 0, 2)
        assert alloc.tolist() == [0, 2]
        assert alloc[1] * inst.e_v - need[1] == pytest.approx(0.3)

    def test_unachievable_raises(self):
        # -2 lies below target 1's penalty floor of -1
        assert -2.0 < feasibility._floor_of_others(make())[0]

    def test_floor_is_tested_on_the_other_targets_only(self):
        # u is below target 1's floor only, so only i_star = 1 reaches it
        floor = feasibility._floor_of_others(make(penalty_att=[-1.0, -0.5]))
        assert floor[1] <= -0.75 < floor[0]


class TestCheckConsistent:
    """The check one query at a time (``witness_of`` over ``witness_blocks``)."""

    def test_symmetric_feasible(self):
        inst = symmetric_instance()
        witness = witness_of(inst, 0, 0.0, 1)
        assert witness is not None
        assert feasible_by_enumeration(inst, 0, 0.0, 1)
        assert_witness_sound(inst, (0, 0.0, 1), witness)
        assert witness.p.tolist() == [0.0, 1.0]
        assert witness.v.tolist() == [1, 0]

    def test_symmetric_infeasible_when_overloaded(self):
        inst = symmetric_instance()
        assert witness_of(inst, 0, 1.0, 1) is None
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
        assert witness_of(inst, 0, 4.0, 0) is None

    def test_agrees_with_enumeration_on_grid(self):
        # small-instance completeness: exhaustive villager placements plus
        # exact continuous fill, over a grid of fixed efforts
        for seed in range(40):
            inst = random_instance(3000 + seed, n=3, r_p=2, r_v=2)
            for i_star in range(3):
                for v_star in range(inst.villager_budget + 1):
                    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
                        p_star = frac * inst.ranger_budget
                        got = witness_of(inst, i_star, p_star, v_star) is not None
                        want = feasible_by_enumeration(inst, i_star, p_star, v_star)
                        assert got == want, (seed, i_star, p_star, v_star)

    def test_witness_soundness_random(self):
        rng = np.random.default_rng(5)
        checked = 0
        for k in range(400):
            inst = random_instance(4000 + k, n=int(rng.integers(2, 6)), r_p=3, r_v=3)
            query = (
                int(rng.integers(0, inst.n)),
                float(rng.uniform(0, inst.ranger_budget)),
                int(rng.integers(0, inst.villager_budget + 1)),
            )
            witness = witness_of(inst, *query)
            if witness is not None:
                assert_witness_sound(inst, query, witness)
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
            if witness_of(inst, i_star, p, v) is None:
                continue
            p2 = float(rng.uniform(0, p))
            v2 = int(rng.integers(0, v + 1))
            assert witness_of(inst, i_star, p2, v2) is not None

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
            if witness_of(inst, i_star, p, v) is None:
                continue
            tried += 1
            assert witness_of(inst, i_star, p - k_swap * swap_cost, v + k_swap) is not None
        assert tried > 50


class TestCheckConsistentTs:
    """The one-query check on instances whose e_v is a per-target vector."""

    def test_uniform_reduction(self):
        rng = np.random.default_rng(9)
        for k in range(300):
            inst = random_instance(7000 + k, n=int(rng.integers(2, 6)), r_p=2, r_v=3)
            ts = dataclasses.replace(inst, e_v=np.full(inst.n, inst.e_v))
            query = (
                int(rng.integers(0, inst.n)),
                float(rng.uniform(0, inst.ranger_budget)),
                int(rng.integers(0, inst.villager_budget + 1)),
            )
            assert (witness_of(ts, *query) is None) == (witness_of(inst, *query) is None)

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

        assert witness_of(variant(1), 0, 0.0, 0) is None
        # enumeration cross-check: villager on 1 leaves 0.4 on 2, villager on
        # 2 leaves 0.5 on 1 and 0.4 on 2; two villagers still leave >= 0.2
        assert witness_of(variant(2), 0, 0.0, 0) is None
        # six villagers pile 0.1 steps onto target 2 until both needs are met
        assert witness_of(variant(6), 0, 0.0, 0) is not None

    def test_zero_needs_feasible_with_zero_resources(self):
        ts = Instance(0.0, 0, 0.5, [0.5, 0.5], [1, 1], [-1, -1], [2.0, 1.0], [-1.0, -1.0])
        # attacking the max-reward target needs nothing elsewhere
        assert witness_of(ts, 0, 0.0, 0) is not None

    def test_ts_witness_sound(self):
        rng = np.random.default_rng(10)
        checked = 0
        for k in range(200):
            inst = random_instance(8000 + k, n=int(rng.integers(2, 6)), r_p=2, r_v=3)
            ts = dataclasses.replace(inst, e_v=rng.uniform(0.05, 0.95, inst.n).round(3))
            query = (
                int(rng.integers(0, inst.n)),
                float(rng.uniform(0, inst.ranger_budget)),
                int(rng.integers(0, inst.villager_budget + 1)),
            )
            witness = witness_of(ts, *query)
            if witness is not None:
                assert_witness_sound(ts, query, witness)
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
            query = (
                int(rng.integers(0, n)),
                float(rng.uniform(0, inst.ranger_budget)) if k % 4 else 0.0,
                int(rng.integers(0, inst.villager_budget + 1)),
            )
            witness = witness_of(inst, *query)
            feasible, counts, needs = greedy_villagers_ref(inst, *query)
            assert (witness is not None) == feasible, (k, query)
            if not feasible:
                continue
            others = np.arange(n) != query[0]
            covered = witness.p[others].sum() * inst.e_p
            assert covered == pytest.approx(sum(needs), abs=2e-9)
            # A need within rounding of a whole number of villagers counts as
            # that many whole pieces in the check; the reference may instead
            # see a piece a hair smaller, which moves a tie-break but not the
            # residual. Everywhere else the counts must match exactly.
            ratio = np.array(needs_ref(inst, *query)) / inst.e_v
            if np.all((ratio == 0) | (np.abs(ratio - np.round(ratio)) > 1e-8)):
                assert witness.v[others].tolist() == np.array(counts)[others].tolist()
                exact_counts += 1
            if sum(counts) < inst.villager_budget - query[2]:
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
        witness = witness_of(inst, 2, 0.0, 0)
        _, counts, _ = greedy_villagers_ref(inst, 2, 0.0, 0)
        assert witness is not None
        assert witness.v.tolist() == counts == [2, 0, 0]

    def test_matches_enumeration(self):
        rng = np.random.default_rng(14)
        for k in range(300):
            n = int(rng.integers(2, 5))
            inst = _flavoured_instance(rng, k, n, int(rng.integers(0, 3)), int(rng.integers(0, 5)))
            for i_star in range(n):
                query = (
                    i_star,
                    float(rng.uniform(0, inst.ranger_budget)),
                    int(rng.integers(0, inst.villager_budget + 1)),
                )
                got = witness_of(inst, *query) is not None
                want = feasible_by_enumeration(inst, *query)
                assert got == want, (k, query)


class TestFeasibleRows:
    """The batched decision against one query at a time, row by row."""

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
            witnesses = block_witnesses(inst, i_star, p_star, v_star)
            assert len(witnesses) == m
            for row in range(m):
                query = (int(i_star[row]), float(p_star[row]), int(v_star[row]))
                witness = witness_of(inst, *query)
                assert got[row] == (witness is not None), (k, query)
                assert (witnesses[row] is None) == (witness is None), (k, query)
                if witness is not None:
                    assert witnesses[row][0].tolist() == witness.p.tolist()
                    assert witnesses[row][1].tolist() == witness.v.tolist()
                _, counts, needs = greedy_villagers_ref(inst, *query)
                if needs is None:
                    kinds["floor fails"] += 1
                elif max(needs) <= 0.0:
                    kinds["every piece fits"] += 1
                if query[2] == inst.villager_budget:
                    kinds["spare = 0"] += 1
                kinds["feasible" if witness is not None else "infeasible"] += 1
                rows += 1
        assert rows >= 2000
        assert min(kinds.values()) > 100 and len(kinds) == 5, kinds

    def test_rejects_rows_outside_the_instance(self):
        inst = make()
        for i_star, p_star, v_star in (([2], [0.0], [0]), ([0], [5.0], [0]), ([0], [0.0], [7]),
                                        ([0, 1], [0.0], [0]), ([0.0], [0.0], [0])):
            for check in (feasible_rows, lambda *rows: next(witness_blocks(*rows))):
                with pytest.raises(GameDefinitionError):
                    check(inst, np.array(i_star), np.array(p_star), np.array(v_star))


class TestQueryRowsAreLevelRows:
    """Query rows and level rows are one check: a target's v = 0 query, once
    past the floor test, is the level row at its own attacker reward."""

    @pytest.mark.parametrize("block_cells", [feasibility._BLOCK_CELLS, 16])
    def test_v0_query_is_the_level_row_at_its_reward(self, monkeypatch, block_cells):
        monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(16)
        answers = Counter()
        for k in range(150):
            n = int(rng.integers(2, 9))
            inst = _flavoured_instance(rng, k, n, int(rng.integers(0, 4)), int(rng.integers(0, 25)))
            passing = np.flatnonzero(inst.reward_att >= feasibility._floor_of_others(inst))
            query = feasible_rows(inst, passing, np.zeros(passing.size), np.zeros(passing.size, dtype=int))
            level = feasibility._level_rows(inst, inst.reward_att[passing])[0]
            assert query.tolist() == level.tolist(), k
            answers.update(query.tolist())
        assert answers[True] > 300 and answers[False] > 20, answers

    @pytest.mark.parametrize("block_cells", [feasibility._BLOCK_CELLS, 16])
    def test_level_rows_are_monotone(self, monkeypatch, block_cells):
        monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(17)
        mixed = 0
        for k in range(150):
            n = int(rng.integers(2, 9))
            inst = _flavoured_instance(rng, k, n, int(rng.integers(0, 4)), int(rng.integers(0, 25)))
            grid = np.linspace(inst.penalty_att.max(), inst.reward_att.max(), 40)
            levels = np.sort(np.concatenate([grid, inst.reward_att, inst.penalty_att]))
            feasible = feasibility._level_rows(inst, levels)[0]
            assert np.all(feasible[1:] >= feasible[:-1]), k
            mixed += feasible.any() and not feasible.all()
        assert mixed > 50


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
    """Block-wise scores of the greedy witnesses, as ``solve_tdbs`` takes them,
    against one evaluation each."""

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
            rows = 0
            for block, feasible, p, v in witness_blocks(inst, i_star, p_star, v_star):
                assert block.start == rows
                rows += feasible.size
                kinds["infeasible"] += int(np.count_nonzero(~feasible))
                scores = tied_defender_utilities(inst, coverage_of(inst, p, v)).max(axis=1)
                assert scores.shape == (np.count_nonzero(feasible),)
                for score, witness in zip(scores.tolist(), zip(p, v)):
                    profile = StrategyProfile(*witness)
                    want = evaluate_profile(inst, profile).defender_utility
                    coverage = compute_coverage(inst, profile)
                    assert score == want == best_response(inst, coverage).defender_utility
                    u_att = attacker_utilities(inst, coverage)
                    tied = np.count_nonzero(u_att >= u_att.max() - inst.tol)
                    kinds["tied" if tied > 1 else "alone"] += 1
                    kinds["per-target" if np.ndim(inst.e_v) else "scalar"] += 1
            assert rows == i_star.size
        assert min(kinds.values()) > 100 and len(kinds) == 5, kinds


class TestMaxFeasibleVillagers:
    """``most_villagers``: the largest feasible villager count per target."""

    def test_matches_linear_scan(self, monkeypatch):
        # the full block takes every count in one call; at 4 and 16 cells
        # most budgets' counts overfill it, so those searches bisect caps
        rng = np.random.default_rng(12)
        unattackable = 0
        cells = (feasibility._BLOCK_CELLS, 4, 16)
        rows, spent, probed = counting_rows(monkeypatch), 0, 0
        passes, paths = spying_passes(monkeypatch), Counter()
        for k in range(150):
            monkeypatch.setattr(feasibility, "_BLOCK_CELLS", cells[k % 3])
            inst = random_instance(9000 + k, n=int(rng.integers(2, 5)), r_p=2, r_v=int(rng.integers(0, 9)))
            targets = np.arange(inst.n) if k % 4 == 0 else np.flatnonzero(rng.random(inst.n) < 0.6)
            rows.clear()
            passes.clear()
            counts, checks = most_villagers(inst, targets)
            want, _, calls = most_villagers_ref(inst, targets.tolist())
            # every row sent through feasible_rows counts; cheap-test answers do not
            assert checks == sum(rows), k
            if passes:
                paths["caps"] += 1
            elif targets.size:  # every count of every search in one call
                assert rows == [(inst.villager_budget + 1) * targets.size], k
                paths["one call"] += 1
            spent, probed = spent + checks, probed + calls
            for i_star, best in zip(targets.tolist(), counts.tolist()):
                consistent = [
                    v for v in range(inst.villager_budget + 1) if witness_of(inst, i_star, 0.0, v) is not None
                ]
                scan = max(consistent, default=-1)
                assert best == scan == want[i_star], (k, i_star)
                unattackable += best < 0
        assert unattackable > 0 and min(paths["caps"], paths["one call"]) >= 20, (unattackable, paths)
        # no more rows than the search without caps probes (a failed cap
        # costs one row more, so this holds over the family, not per instance)
        assert spent <= probed, (spent, probed)

    def test_cheap_tests_see_only_open_searches(self, monkeypatch):
        # at n = 240 and budget 120 every search bisects its cap; a settled
        # search must drop out, and no count below 0 may be probed
        inst = generate_instance(GenParams(n=240, r_p=120, r_v=120, seed=6))
        passes = spying_passes(monkeypatch)
        most_villagers(inst, np.arange(inst.n))
        lo, hi = np.full(inst.n, -1), np.full(inst.n, inst.villager_budget)
        for targets, counts, ok in passes:
            assert np.unique(targets).size == targets.size and (counts >= 0).all()
            assert ((lo[targets] < counts) & (counts <= hi[targets])).all()  # open, and inside the bracket
            lo[targets[ok]], hi[targets[~ok]] = counts[ok], counts[~ok] - 1
        assert (lo == hi).all() and len(passes) > 1

    def test_no_targets_at_a_budget_past_any_block(self):
        # no count is built before the size test: budget + 1 counts would not fit
        for budget in (2**62, 2**63 - 1):
            inst = dataclasses.replace(symmetric_instance(), villager_budget=budget)
            counts, checks = most_villagers(inst, np.array([], dtype=np.int64))
            assert counts.tolist() == [] and checks == 0

    def test_rejects_targets_outside_the_instance(self):
        # at n = 240 the budget's counts overfill a block, so the search
        # first bisects to its cap; at n = 5 one call probes every count
        for n, r_v in ((240, 120), (5, 2)):
            inst = generate_instance(GenParams(n=n, r_p=n / 2, r_v=r_v, seed=6))
            assert (inst.villager_budget >= feasibility._rows_per_block(inst)) == (n == 240)
            assert most_villagers(inst, np.array([0]))[0].shape == (1,)
            for i_stars in ([-1], [240], [0.5], [[0]]):
                with pytest.raises(GameDefinitionError):
                    most_villagers(inst, np.array(i_stars))


class TestCandidates:
    def test_one_pool_per_solve(self, monkeypatch):
        # the villager search, the effort search and hw's bound share one
        # pool; at n = 240 and budget 120 the villager searches bisect caps,
        # at n = 5 one call probes every count
        builds = []
        init = feasibility._Pool.__init__

        def counted_init(pool, instance):
            builds.append(instance)
            init(pool, instance)

        monkeypatch.setattr(feasibility._Pool, "__init__", counted_init)
        passes = spying_passes(monkeypatch)
        for n, r_v in ((240, 120), (5, 2)):
            inst = generate_instance(GenParams(n=n, r_p=n / 2, r_v=r_v, seed=6))
            capped = n == 240
            assert ((inst.villager_budget + 1) * n > feasibility._rows_per_block(inst)) == capped
            for solve in (solve_tdbs, solve_hw):
                builds.clear()
                passes.clear()
                solve(inst)
                assert len(builds) <= 1, (n, solve.__name__, len(builds))
            # in hw only the villager search runs the cheap tests
            assert bool(passes) == capped, n

    def test_every_target_keeps_its_most_villagers(self):
        # each target alone with the one villager: both are candidates
        i_stars, v_stars, counters = candidates(symmetric_instance(), np.arange(2))
        assert i_stars.tolist() == [0, 1] and v_stars.tolist() == [1, 1]
        # per target: one round probing v = 0 and v = 1
        assert list(counters.items()) == [("feasibility_checks", 4), ("candidates", 2)]

    def test_only_the_given_targets_are_searched(self):
        inst = random_instance(9200, n=6, r_p=2, r_v=3)
        every = candidates(inst, np.arange(6))
        some = candidates(inst, np.array([1, 4]))
        kept = np.isin(every[0], [1, 4])
        assert some[0].tolist() == every[0][kept].tolist() and some[1].tolist() == every[1][kept].tolist()
        assert some[2]["candidates"] == kept.sum()

    @pytest.mark.parametrize(
        "solve, diagnostics",
        [
            # hw: 1 minimax level row, 4 candidate rows. The pooled need
            # 1 - u meets the cover 0.5 + 0.5 at u = 0, and the one row just
            # above it holds (the villager takes a whole piece), so the search
            # ends there. Both targets tie, so the bound keeps both
            (
                solve_hw,
                {"feasibility_checks": 5, "candidates": 2, "iterations": 2, "swaps": 0, "pruned": 0, "bounded": 0},
            ),
            # tdbs: 4 villager rows, v = 0 and v = 1 on each target in one
            # round (a round holds every count, so no cap is computed);
            # no effort row: with v = 1 on target i, effort p leaves i at
            # coverage 0.5 + 0.5 p, the other target needs as much, and the
            # rangers left cover only 0.5 - 0.5 p, so the pooled test fails
            # every midpoint above 0 and each bisection ends at 0; then one
            # witness row per candidate at (i, 0, 1), which passes
            (solve_tdbs, {"feasibility_checks": 6, "candidates": 2}),
        ],
        ids=["hw", "tdbs"],
    )
    def test_first_candidate_wins_ties_and_counters_add_up(self, solve, diagnostics):
        # both candidates reach utility 0; the first one's profile is kept
        result = solve(symmetric_instance())
        assert result.attacked == 0 and result.profile.v.tolist() == [1, 0]
        assert list(result.diagnostics.items()) == list(diagnostics.items())


def _bound_family():
    """216 seeded small instances for the bound: scalar and per-target e_v,
    zero-spread targets on a third of them, each at payoff scales 1, 1e-9 and 1e6."""
    rng = np.random.default_rng(21)
    for k in range(72):
        n = 2 + k % 4
        inst = random_instance(16_000 + k, n=n, r_p=(k % 4) * n / 3, r_v=(k // 4) % 3)
        if k % 3 == 0:
            flat = rng.random(n) < 0.4
            inst = dataclasses.replace(
                inst,
                reward_att=np.where(flat, 0.0, inst.reward_att),
                penalty_att=np.where(flat, 0.0, inst.penalty_att),
            )
        if k % 2:
            inst = dataclasses.replace(inst, e_v=rng.uniform(0.05, 0.95, n).round(3))
        for factor in (1.0, 1e-9, 1e6):
            yield k, factor, scaled(inst, factor)


def _pooled_level_ref(inst):
    """The lowest attacker level u at which the pooled coverage ``C`` holds
    every target to u, by bisection on the summed needs; -inf if C covers all."""
    pooled = inst.e_p * inst.ranger_budget * (1 + REL_TOL) + np.max(inst.e_v) * inst.villager_budget

    def need(u):
        payoffs = zip(inst.reward_att.tolist(), inst.penalty_att.tolist())
        return sum(min(max((r - u) / (r - p), 0.0), 1.0) for r, p in payoffs if r > p)

    lo, hi = float(inst.penalty_att.min()) - 1.0, float(inst.reward_att.max())
    if need(lo) <= pooled:
        return -np.inf
    for _ in range(200):
        mid = lo / 2 + hi / 2
        if mid in (lo, hi):
            break
        lo, hi = (lo, mid) if need(mid) <= pooled else (mid, hi)
    return hi


class TestUpperBounds:
    """``_upper_bounds``: no valid profile beats it on a tied target, and the
    pooled level under it is certified and within tol of the exact one."""

    def test_no_tied_target_beats_its_bound(self):
        rng = np.random.default_rng(22)
        checked = Counter()
        for k, factor, inst in _bound_family():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bounds = feasibility._upper_bounds(feasibility._Pool(inst))
            # the sweep is certified on every instance here: no target is kept unbounded
            assert not (np.isnan(bounds) | np.isposinf(bounds)).any(), k
            # random valid profiles: every target in the tied set
            m, n = 300, inst.n
            p = rng.dirichlet(np.ones(n), m) * (inst.ranger_budget * rng.random((m, 1)))
            spent = rng.integers(0, inst.villager_budget + 1, m)
            v = np.array([rng.multinomial(count, np.ones(n) / n) for count in spent])
            u_d, u_a = utilities_of(inst, coverage_of(inst, p, v), slice(None))
            tied = u_a >= u_a.max(axis=1, keepdims=True) - inst.tol
            assert np.all(u_d[tied] <= np.broadcast_to(bounds, u_d.shape)[tied] + inst.tol), (k, factor)
            checked["tied"] += tied.sum()
            # the solvers' attacked targets
            results = [solve_tdbs(inst)]
            if np.ndim(inst.e_v) == 0:
                results.append(solve_hw(inst))
            if factor == 1.0:
                results.append(solve_oracle(inst))
            for result in results:
                assert result.defender_utility <= bounds[result.attacked] + inst.tol, (k, factor)
                checked["solved"] += 1
            checked["never tied"] += np.isneginf(bounds).sum()
        assert checked["tied"] > 50_000 and checked["solved"] > 350 and checked["never tied"] > 50, checked

    def test_pooled_level_is_certified_and_tight(self):
        levels = Counter()
        for k, factor, inst in _bound_family():
            level, want = feasibility._pooled_level(feasibility._Pool(inst)), _pooled_level_ref(inst)
            if want == -np.inf:
                assert level == -np.inf, k
                levels["covered"] += 1
                continue
            # below the exact level by about tol / 2
            assert want - inst.tol < level < want, (k, factor, level, want)
            levels["finite"] += 1
        assert min(levels.values()) > 20, levels

    def test_a_narrow_saturated_target_leaves_the_level_tight(self):
        # Target 0's spread is 1e-300. Below its penalty 0 its width 1e300
        # swamped the prefix sums, and the break -4 seemed to need no more
        # than C, so the bracket [1e-300, -4] certified -2.73. The exact
        # pooled level is 3.0: targets 1 and 2 need 0.2 and 0.3 there.
        inst = Instance(0.5, 0, 1.0, 0.5, [1.0] * 3, [-1.0] * 3, [1e-300, 5.0, 6.0], [0.0, -5.0, -4.0])
        level = feasibility._pooled_level(feasibility._Pool(inst))
        assert 2.9 <= level < 3.0
        assert level == pytest.approx(_pooled_level_ref(inst) - inst.tol / 2)

    def test_a_sweep_that_is_not_finite_keeps_every_target(self):
        # The sweep's prefix sums overflow at the penalty -1e308, where the
        # pooled coverage crosses: no level is certified, so nothing is bounded.
        inst = Instance(
            ranger_budget=2.5, villager_budget=0, e_p=1.0, e_v=0.5,
            reward_def=[1.0, 2.0, 3.0], penalty_def=[-1.0, -1.0, -1.0],
            reward_att=[1e-10, 1e-10, 1.0], penalty_att=[-1e-10, -1e-10, -1e308],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool = feasibility._Pool(inst)
            assert np.isnan(feasibility._pooled_level(pool))
            assert feasibility._upper_bounds(pool).tolist() == [np.inf] * 3
            assert solve_hw(inst).diagnostics["bounded"] == 0

    def test_memory_is_linear_in_targets(self):
        # an n x n array at n = 3000 would take 72 MB
        inst = random_instance(7, n=3000, r_p=1500, r_v=1500)
        tracemalloc.start()
        try:
            bounds = feasibility._upper_bounds(feasibility._Pool(inst))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        # and it keeps the villager search to at most two targets
        assert (bounds >= feasibility._minimax_seed(feasibility._Pool(inst))[0] - inst.tol).sum() <= 2

    def test_targets_never_tied_are_bounded_to_minus_inf(self):
        # with no resources the attacker takes the largest reward, 5; target 0's is 1
        inst = make(ranger_budget=0.0, villager_budget=0, reward_att=[1.0, 5.0])
        bounds = feasibility._upper_bounds(feasibility._Pool(inst))
        assert bounds[0] == -np.inf
        assert bounds[1] == pytest.approx(-1.0)


def _family(j, k):
    """Seeded instance k of the lockstep family at payoff scale j: n from 2 to 100."""
    n = (40, 70, 100)[j] if k == 15 else 2 + k % 19
    return random_instance(14_000 + 16 * j + k, n=n, r_p=1 + (k * 7) % n, r_v=(k * 3) % (n + 2))


def _outputs(result):
    """A result's every output but ``feasibility_checks``, which ``counted`` checks."""
    return (
        result.attacked,
        result.defender_utility,
        result.attacker_utility,
        result.profile.p.tolist(),
        result.profile.v.tolist(),
        [item for item in result.diagnostics.items() if item[0] != "feasibility_checks"],
    )


def counted(rows, spent, solve, *args):
    """``solve(*args)``, checking that its ``feasibility_checks`` is the number
    of rows it sent (``counting_rows``); adds that number to ``spent[solve]``."""
    rows.clear()
    result = solve(*args)
    assert result.diagnostics["feasibility_checks"] == sum(rows)
    spent[solve.__name__] += sum(rows)
    return result


class TestLockstepAgainstSequential:
    """The lockstep searches give what one search per candidate gives, bit for bit."""

    @pytest.mark.parametrize("j, factor", [(0, 1.0), (1, 1e-9), (2, 1e6)])
    def test_solvers_match_sequential_loop(self, monkeypatch, j, factor):
        rng = np.random.default_rng(16 + j)
        rows, spent, probed = counting_rows(monkeypatch), Counter(), Counter()
        for k in range(16):
            inst = scaled(_family(j, k), factor)
            hw = counted(rows, spent, solve_hw, inst)
            reference = solve_hw_sequential(inst)
            assert _outputs(hw) == _outputs(reference), k
            probed["solve_hw"] += reference.diagnostics["feasibility_checks"]
            per_target = dataclasses.replace(
                inst, e_v=rng.uniform(0.05, 1.0, inst.n).round(3) * inst.e_p
            )
            epsilon = (1e-3, 1e-7, 1e-13)[(j + k) % 3]
            for case in (inst, per_target):
                lockstep = counted(rows, spent, solve_tdbs, case, TdbsConfig(epsilon))
                reference = solve_tdbs_sequential(case, epsilon)
                assert _outputs(lockstep) == _outputs(reference), k
                probed["solve_tdbs"] += reference.diagnostics["feasibility_checks"]
        # the floor-first searches send no more rows than the sequential loop probes
        for solver in ("solve_hw", "solve_tdbs"):
            assert spent[solver] <= probed[solver], (spent, probed)

    def test_bisection_ends_below_float_spacing(self, monkeypatch):
        # an epsilon under the float step between efforts: each bisection
        # stops where its midpoint no longer moves
        rows, spent, probed = counting_rows(monkeypatch), Counter(), 0
        for k in range(6):
            inst = random_instance(14_100 + k, n=2 + k, r_p=1 + k, r_v=k)
            lockstep = counted(rows, spent, solve_tdbs, inst, TdbsConfig(1e-300))
            reference = solve_tdbs_sequential(inst, 1e-300)
            assert _outputs(lockstep) == _outputs(reference), k
            probed += reference.diagnostics["feasibility_checks"]
        assert spent["solve_tdbs"] <= probed, (spent, probed)


def _floor_first_family():
    """Seeded instances for the floor-first searches, each with a block size:
    scalar and per-target e_v, zero-spread targets, villager budgets 0 and
    2**62 (with an e_v that puts villager caps past 2**53), payoff scales 1,
    1e-9 and 1e6, ``_BLOCK_CELLS`` at its default, 4 and 16; then case-study
    settings, scalar and terrain-adjusted; then a villager budget at the top
    of int64."""
    rng = np.random.default_rng(31)
    cells = (feasibility._BLOCK_CELLS, 4, 16)
    for k in range(36):
        n = 2 + k % 9
        r_v = (0, 2**62, int(rng.integers(1, 3 * n)))[k % 3]
        inst = random_instance(31_000 + k, n=n, r_p=0.5 + k % 4, r_v=r_v)
        if k % 4 == 1:
            flat = rng.random(n) < 0.4
            inst = dataclasses.replace(
                inst,
                reward_att=np.where(flat, 0.0, inst.reward_att),
                penalty_att=np.where(flat, 0.0, inst.penalty_att),
            )
        if r_v == 2**62 and k % 2:
            inst = dataclasses.replace(inst, e_v=inst.e_v * 1e-18)
        if k % 5 >= 3:
            inst = dataclasses.replace(inst, e_v=rng.uniform(0.05, 1.0, n).round(3) * inst.e_p)
        # budgets cycle with k, scales every 3 and block sizes every 9
        yield scaled(inst, (1.0, 1e-9, 1e6)[(k // 3) % 3]), cells[(k // 9) % 3]
    for k, inst in enumerate(_case_study_instances()):
        if k % 9 in (0, 1):
            yield inst, cells[k % 3]
    # the count bisection's midpoint and its mid - 1 stay within int64 here
    inst = random_instance(31_036, n=6, r_p=3.0, r_v=2**63 - 1)
    yield dataclasses.replace(inst, e_v=inst.e_v * 1e-18), cells[0]


def _floor_only(inst):
    """The attacker-floor half of ``feasibility._Pool.passes``, as it takes its arguments."""
    floor = feasibility._floor_of_others(inst)
    return lambda i_stars, p_stars, v_stars: feasibility._floor_test(inst, floor, i_stars, p_stars, v_stars)[1]


def _caps(inst, passes):
    """Per target, the last count in ``[0, villager_budget]`` that ``passes``
    passes with no effort, by ``most_villagers``' bisection (``_bisect`` on counts)."""
    targets = np.arange(inst.n)
    lo, hi = np.full(inst.n, -1, dtype=np.int64), np.full(inst.n, inst.villager_budget, dtype=np.int64)
    return feasibility._bisect(lo, hi, lambda rows, counts: passes(targets[rows], 0.0, counts))[0]


def _efforts(inst, count, passes, epsilon):
    """``count`` effort bisections over ``[0, ranger_budget]`` on ``passes``,
    by ``most_effort``'s bisection (``_bisect`` on efforts): their ``(lo, hi)``."""
    return feasibility._bisect(np.zeros(count), np.full(count, float(inst.ranger_budget)), passes, epsilon)


class TestFloorFirstSearches:
    """The floor-first searches give the blind searches' counts and efforts, bit for bit."""

    def test_match_the_blind_searches(self, monkeypatch):
        seen = Counter()
        for m, (inst, block_cells) in enumerate(_floor_first_family()):
            monkeypatch.setattr(feasibility, "_BLOCK_CELLS", block_cells)
            targets = np.arange(inst.n)
            floor, pool, floor_test = feasibility._floor_of_others(inst), feasibility._Pool(inst), _floor_only(inst)
            caps = _caps(inst, floor_test)
            budget = inst.villager_budget
            seen["cap below the budget"] += np.count_nonzero((0 <= caps) & (caps < budget))
            seen["cap past 2**53"] += np.count_nonzero((2**53 < caps) & (caps < budget))
            seen["saturated"] += np.count_nonzero(inst.penalty_att >= floor)
            seen["zero spread"] += np.count_nonzero(inst.spread_att == 0)
            seen["budget %s" % ("0" if budget == 0 else "small" if budget < 2**62 else "2**62 and up")] += 1
            lowered = _caps(inst, pool.passes) < caps
            seen["villager cap lowered by the pooled test"] += np.count_nonzero(lowered)

            counts, _ = most_villagers(inst, targets)
            assert counts.tolist() == most_villagers_blind(inst, targets)[0].tolist(), m
            i_stars, v_stars = targets[counts >= 0], counts[counts >= 0]
            for epsilon in ((1e-3, 1e-300), (1e-7, 1e-13))[m % 2]:
                p_stars, _ = most_effort(inst, i_stars, v_stars, epsilon)
                assert p_stars.tobytes() == most_effort_blind(inst, i_stars, v_stars, epsilon)[0].tobytes(), m

                # how each bisection ended on the floor test alone, and with the pooled test too
                def floor_only(rows, mid):
                    return floor_test(i_stars[rows], mid, v_stars[rows])

                def floor_and_pool(rows, mid):
                    return pool.passes(i_stars[rows], mid, v_stars[rows])

                left, right = _efforts(inst, i_stars.size, floor_only, epsilon)
                capped = (left > 0.0) & (right < inst.ranger_budget)
                seen["effort confirmed"] += np.count_nonzero(capped & (p_stars == left))
                seen["effort not confirmed"] += np.count_nonzero(capped & (p_stars != left))
                seen["effort not capped"] += np.count_nonzero(~capped)
                pooled_left, pooled_right = _efforts(inst, i_stars.size, floor_and_pool, epsilon)
                settled = (pooled_left > 0.0) & (pooled_right < inst.ranger_budget) & (p_stars == pooled_left)
                settled &= ~(capped & (p_stars == left))
                seen["effort settled by the pooled test"] += np.count_nonzero(settled)
        assert min(seen.values()) >= 5, seen

    def test_villager_caps_are_the_last_passing_count(self):
        # the caps ``most_villagers`` bisects to on both cheap tests; the
        # family's 2**62 budgets at a tiny e_v put some past 2**53
        checked = Counter()
        for inst, _ in _floor_first_family():
            targets = np.arange(inst.n)
            pool = feasibility._Pool(inst)
            caps = _caps(inst, pool.passes)
            budget = inst.villager_budget

            def passes(counts):
                return pool.passes(targets, 0.0, np.asarray(counts, dtype=np.int64))

            below, above = caps >= 0, caps < budget
            assert passes(np.maximum(caps, 0))[below].all()
            assert not passes(np.where(above, caps + 1, 0))[above].any()
            if budget <= 60:  # and against a scan
                passing = [passes([v] * inst.n) for v in range(budget + 1)]
                scan = [max([v for v in range(budget + 1) if passing[v][i]], default=-1) for i in targets]
                assert caps.tolist() == scan
                checked["scanned"] += inst.n
            checked["capped"] += np.count_nonzero(below & above)
            checked["capped past 2**53"] += np.count_nonzero((2**53 < caps) & above)
        assert checked["scanned"] > 100 and checked["capped"] > 50 and checked["capped past 2**53"] >= 5, checked


def _pooled_test_family():
    """The floor-first family, then payoffs near 1e308 and tiny spreads,
    scalar and per-target e_v."""
    for inst, _ in _floor_first_family():
        yield inst
    rng = np.random.default_rng(33)
    for k in range(24):
        n = 3 + k % 6
        inst = random_instance(33_000 + k, n=n, r_p=0.5 + k % 3, r_v=int(rng.integers(0, 2 * n)))
        if k % 2:
            inst = dataclasses.replace(inst, e_v=rng.uniform(0.05, 1.0, n).round(3) * inst.e_p)
        if k % 3 == 0:
            inst = scaled(inst, 8e306)  # payoffs up to 8e307, spreads up to 1.6e308
        elif k % 3 == 1:  # some attacker spreads of 2e-12 to 2e-300, at payoffs 1 or 1e6
            narrow = rng.random(n) < 0.5
            half = 10.0 ** -rng.integers(12, 301, n)
            inst = scaled(inst, (1.0, 1e6)[k % 2])
            inst = dataclasses.replace(
                inst,
                reward_att=np.where(narrow, half, inst.reward_att),
                penalty_att=np.where(narrow, -half, inst.penalty_att),
            )
        yield inst


class TestPooledTest:
    """The cheap tests (``feasibility._Pool.passes``) reject only rows the fill rejects."""

    def test_never_rejects_a_consistent_row(self):
        rng = np.random.default_rng(34)
        seen = Counter()
        for m, inst in enumerate(_pooled_test_family()):
            n, budget = inst.n, inst.ranger_budget
            # random rows, then each target's most villagers and most effort,
            # the consistent rows nearest the boundary, and efforts just above
            i_star = rng.integers(0, n, 8 * n)
            p_star = rng.uniform(0.0, budget * (1.0 + REL_TOL), 8 * n)
            v_star = rng.integers(0, inst.villager_budget, 8 * n, endpoint=True)
            counts, _ = most_villagers_blind(inst, np.arange(n))
            kept = np.flatnonzero(counts >= 0)
            efforts, _ = most_effort_blind(inst, kept, counts[kept], 1e-13)
            above = np.minimum(np.nextafter(efforts, np.inf), budget)
            i_star = np.concatenate([i_star, kept, kept, kept])
            p_star = np.concatenate([p_star, np.zeros(kept.size), efforts, above])
            v_star = np.concatenate([v_star, counts[kept], counts[kept], counts[kept]])

            consistent = feasible_rows(inst, i_star, p_star, v_star)
            floor = _floor_only(inst)(i_star, p_star, v_star)
            passes = feasibility._Pool(inst).passes(i_star, p_star, v_star)
            assert not (consistent & ~passes).any(), m
            seen["consistent"] += np.count_nonzero(consistent)
            seen["rejected past the floor test"] += np.count_nonzero(floor & ~passes)
            seen["boundary rows"] += 2 * kept.size
        assert min(seen.values()) >= 100, seen

    def test_a_sum_that_is_not_finite_passes(self):
        # target 1's utility, -2e8 and -4e8, times target 0's width 1e300
        # overflows; it passes the floor test, as tol / 2 is 5e298
        inst = make(
            n=3,
            villager_budget=0,
            reward_att=[1e-300, 1.0, 1.0],
            penalty_att=[0.0, -1e308, -1.0],
        )
        i_star, p_star, v_star = np.array([1, 1]), np.array([4e-300, 8e-300]), np.array([0, 0])
        u = feasibility.fixed_target_utilities(inst, i_star, p_star, v_star)[1]
        pool = feasibility._Pool(inst)
        assert _floor_only(inst)(i_star, p_star, v_star).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(pool.need(u)).any()
        assert pool.passes(i_star, p_star, v_star).all()


def test_a_solve_derives_the_attacker_floor_once(monkeypatch):
    # The searches' confirm and fallback rows, the one-call villager path,
    # tdbs's witness rows and hw's break-even rows read the floor from the
    # solve's pool; only the pool derives it.
    calls = []
    floor_of = feasibility._floor_of_others

    def counting_floor(instance):
        calls.append(instance.n)
        return floor_of(instance)

    monkeypatch.setattr(feasibility, "_floor_of_others", counting_floor)
    base = generate_instance(GenParams(240, 120, 120, seed=6))
    per_target = dataclasses.replace(base, e_v=np.random.default_rng(6).uniform(0.05, 0.95, base.n))
    for solve, instances in ((solve_tdbs, (base, per_target)), (solve_hw, (base,))):
        for inst in instances:
            calls.clear()
            solve(inst)
            assert len(calls) == 1, (solve.__name__, len(calls))


def test_most_effort_checks_its_queries():
    # most_effort checks its query rows as most_villagers does, and epsilon
    # as TdbsConfig does; two targets and one villager here
    inst = symmetric_instance()
    zero, one = np.array([0]), np.array([1])
    for i_stars, v_stars, epsilon in (
        (zero, np.array([5]), 1e-3),  # past the villager budget
        (zero, one, float("nan")),
        (zero, one, 0.0),
        (zero, one, -1.0),
        (zero, one, float("inf")),
        (np.array([5]), one, 1e-3),  # no such target
        (np.array([0, 1]), one, 1e-3),  # lengths differ
        (zero, np.array([0.5]), 1e-3),  # not a count
        ([5], [1], 1e-3),
        ([0], [5], 1e-3),
    ):
        with pytest.raises(GameDefinitionError):
            most_effort(inst, i_stars, v_stars, epsilon)
    # plain lists are query arrays, as feasible_rows and most_villagers take them
    efforts, checks = most_effort(inst, [0, 1], [1, 0], 1e-3)
    want = most_effort(inst, np.array([0, 1]), np.array([1, 0]), 1e-3)
    assert efforts.tobytes() == want[0].tobytes() and checks == want[1]
