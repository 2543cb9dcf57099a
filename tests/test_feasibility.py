import dataclasses

import numpy as np
import pytest

from patrolgame.feasibility import (
    FeasibilityQuery,
    check_consistent,
    max_feasible_villagers,
    min_valid_coverage,
    total_wasted_coverage,
)
from patrolgame.model import (
    GameDefinitionError,
    Instance,
    compute_coverage,
    attacker_utilities,
    validate_profile,
)

from conftest import (
    feasible_by_enumeration,
    greedy_villagers_ref,
    needs_ref,
    random_instance,
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


class TestMaxFeasibleVillagers:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(12)
        for k in range(100):
            inst = random_instance(9000 + k, n=int(rng.integers(2, 5)), r_p=2, r_v=4)
            for i_star in range(inst.n):
                if not check_consistent(inst, FeasibilityQuery(i_star, 0.0, 0)).feasible:
                    continue
                best, witness, _ = max_feasible_villagers(inst, i_star)
                scan = max(
                    v
                    for v in range(inst.villager_budget + 1)
                    if check_consistent(inst, FeasibilityQuery(i_star, 0.0, v)).feasible
                )
                assert best == scan
                assert witness is not None
