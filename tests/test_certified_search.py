"""The certified searches: ``tdbs``'s effort fallback and ``hw``'s minimax
level bisection end where the row-by-row searches end, bit for bit, on
fewer rows.

Newton's steps on the fill's slack only place the rows; every answer comes
from rows, so a slope of 0, NaN or the wrong sign may cost rows but never
changes an end.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from patrolgame import feasibility
from patrolgame.bench import GenParams, generate_instance
from patrolgame.feasibility import feasible_rows, most_villagers
from patrolgame.model import GameDefinitionError
from patrolgame.planner import case_study_scenario, with_effectiveness
from patrolgame.tdbs import TdbsConfig, solve_tdbs

from conftest import (
    candidates,
    fall_back_ends_row_by_row,
    minimax_profile_row_by_row,
    most_effort,
    most_effort_blind,
    random_instance,
    scaled,
    symmetric_instance,
    witness_blocks,
)

EPSILONS = (1e-3, 1e-7, 1e-13, 1e-300)  # the last is below one float step of any effort here


def _per_target(inst, rng):
    return dataclasses.replace(inst, e_v=rng.uniform(0.05, 1.0, inst.n).round(3) * inst.e_p)


def _fallback_family():
    """``(instance, epsilon)``: n from 8 to 32, per-target e_v on four in
    five, zero-spread targets on every fourth, villager budgets of 2**62 on
    every sixth, payoffs x1, x1e-9 and x1e6, epsilons 1e-3, 1e-7, 1e-13 and
    1e-300."""
    rng = np.random.default_rng(31_031)
    for k in range(72):
        n = 8 + k % 25
        r_v = 2**62 if k % 6 == 5 else int(rng.integers(1, n))
        inst = random_instance(31_100 + k, n=n, r_p=float(rng.uniform(0.2, 1.5)) * n / 2, r_v=r_v)
        if k % 4 == 1:
            flat = rng.random(n) < 0.3
            inst = dataclasses.replace(
                inst,
                reward_att=np.where(flat, 0.0, inst.reward_att),
                penalty_att=np.where(flat, 0.0, inst.penalty_att),
            )
        if k % 5:
            inst = _per_target(inst, rng)
        yield scaled(inst, (1.0, 1e-9, 1e6)[k % 3]), EPSILONS[(k // 3) % 4]


def _counting_effort_rows(monkeypatch, seen):
    """A list that gets the row count of every later ``_effort_rows`` call;
    ``seen`` counts the rows failing the attacker-floor test."""
    effort_rows, sent = feasibility._effort_rows, []

    def counted(pool, i_star, p_star, v_star):
        sent.append(i_star.size)
        floor = feasibility._floor_test(pool.instance, pool.floor, i_star, p_star, v_star)[1]
        seen["row failing the floor test"] += int(np.count_nonzero(~floor))
        return effort_rows(pool, i_star, p_star, v_star)

    monkeypatch.setattr(feasibility, "_effort_rows", counted)
    return sent


def _spy_fallbacks(monkeypatch, seen):
    """Run the row-by-row fallback beside every ``_fall_back_ends`` call and
    check that its ends are the same bits; tallies rows, rounds and kinds in
    ``seen``."""
    fall_back = feasibility._fall_back_ends
    sent = _counting_effort_rows(monkeypatch, seen)

    def spy(pool, i_stars, p_stars, v_stars, known, at_end, epsilon):
        sent.clear()
        got = fall_back(pool, i_stars, p_stars, v_stars, known, at_end, epsilon)
        want = fall_back_ends_row_by_row(pool, i_stars, p_stars, v_stars, known, epsilon)
        for mine, theirs in zip(got[:3], want[:3]):
            assert mine.tobytes() == theirs.tobytes()
        assert got[3] == sum(sent)
        seen["rows"] += got[3]
        seen["reference rows"] += want[3]
        seen["rounds"] += len(sent)
        seen["reference rounds"] += want[4]
        seen["most rounds over the reference"] = max(seen["most rounds over the reference"], len(sent) - want[4])
        seen["lost"] += i_stars.size
        instance, kept = pool.instance, np.isin(i_stars, got[0])
        seen["count moved"] += int(np.count_nonzero(v_stars[kept] != got[2]))
        e_v = instance.e_v[got[0]] if np.ndim(instance.e_v) else instance.e_v
        seen["own coverage saturated"] += int(np.count_nonzero(instance.e_p * got[1] + e_v * got[2] >= 1.0))
        return got

    monkeypatch.setattr(feasibility, "_fall_back_ends", spy)


def test_fallback_ends_match_the_row_by_row_fallback(monkeypatch):
    seen = Counter()
    _spy_fallbacks(monkeypatch, seen)
    for k, (inst, epsilon) in enumerate(_fallback_family()):
        before = seen["lost"]
        solve_tdbs(inst, TdbsConfig(epsilon))
        lost = seen["lost"] > before
        seen["per-target" if np.ndim(inst.e_v) else "scalar"] += lost
        seen["zero spread"] += lost and bool((inst.spread_att == 0).any())
        seen["2**62 villagers"] += lost and inst.villager_budget == 2**62
        seen["epsilon %g" % epsilon] += lost
    assert seen["rows"] <= seen["reference rows"], seen
    # with the fill's own slope no fallback takes more rounds than the row-by-row one
    assert seen["most rounds over the reference"] <= 0, seen
    for kind in ("per-target", "scalar", "zero spread", "2**62 villagers", *("epsilon %g" % e for e in EPSILONS)):
        assert seen[kind] >= 3, (kind, seen)
    for kind in ("own coverage saturated", "count moved"):
        assert seen[kind] >= 10, (kind, seen)


def test_searches_from_nothing_match_the_blind_bisection(monkeypatch):
    # With no cheap bound and no failed row, the first rows probe the path's
    # own midpoints, high efforts among them: rows that fail the floor test
    # get slack -inf and no slope, and no Newton step from them.
    seen = Counter()
    _counting_effort_rows(monkeypatch, seen)
    for k, (inst, epsilon) in enumerate(_fallback_family()):
        if k % 3:
            continue
        pool = feasibility._Pool(inst)
        counts, _ = most_villagers(inst, np.arange(inst.n))
        i_stars, v_stars = np.flatnonzero(counts >= 0), counts[counts >= 0]
        unknown = np.full((2, i_stars.size), np.nan)
        fail = np.full(i_stars.size, float(inst.ranger_budget))
        ends, rows = feasibility._effort_ends(pool, i_stars, v_stars, epsilon, fail, unknown, unknown.copy())
        want, probed = most_effort_blind(inst, i_stars, v_stars, epsilon)
        assert ends.tobytes() == want.tobytes(), k
        assert rows <= probed, k
    assert seen["row failing the floor test"] >= 20, seen


def _broken(slope, how):
    def broken(*args):
        right = slope(*args)
        return {"zero": np.zeros_like(right), "nan": np.full_like(right, np.nan), "sign": -right}[how]

    return broken


@pytest.mark.parametrize("how", ["zero", "nan", "sign"])
def test_a_broken_slope_moves_no_end(monkeypatch, how):
    # Without a usable slope each round probes the path's next open step,
    # as the row-by-row search does: the same ends, in at most one round more.
    monkeypatch.setattr(feasibility, "_slope", _broken(feasibility._slope, how))
    seen = Counter()
    _spy_fallbacks(monkeypatch, seen)
    for k, (inst, epsilon) in enumerate(_fallback_family()):
        if k % 2:
            solve_tdbs(inst, TdbsConfig(epsilon))
    assert seen["lost"] > 100 and seen["most rounds over the reference"] <= 1, seen
    levels = _check_minimax_family(monkeypatch)
    assert levels["rounds past the crossing row"] >= 20 and levels["most rounds over the reference"] <= 1, levels


def test_effort_searches_end_on_few_rows():
    # per-target instances of the benchmark's family: the row-by-row
    # fallback sent 9.3 effort rows per lost candidate here (3.6 now), and
    # 2.0 count rows, which still bisect row by row
    seen = Counter()
    fall_back = feasibility._fall_back_ends
    with pytest.MonkeyPatch.context() as mp:
        confirm = feasibility._confirm

        def counted_confirm(check, lo, ends):
            rows = confirm(check, lo, ends)
            seen["count rows"] += rows
            return rows

        def spy(pool, i_stars, *rest):
            seen["lost"] += i_stars.size
            ends = fall_back(pool, i_stars, *rest)
            seen["rows"] += ends[3]
            return ends

        mp.setattr(feasibility, "_confirm", counted_confirm)
        mp.setattr(feasibility, "_fall_back_ends", spy)
        for s in range(12):
            inst = generate_instance(GenParams(100, 50, 50, seed=s))
            solve_tdbs(_per_target(inst, np.random.default_rng(s)))
    assert seen["lost"] > 200, seen
    assert seen["rows"] - seen["count rows"] <= 4 * seen["lost"], seen


def _minimax_family():
    """Small instances for the minimax search: zero-spread targets on a
    third, ranger budget 0 on a quarter, villager budgets 0, 1, 3 and 2**62,
    per-target e_v on a quarter, payoffs x1, x1e-9 and x1e6; then the case
    study's grid."""
    rng = np.random.default_rng(29)
    for k in range(96):
        n = 2 + k % 7
        inst = random_instance(29_000 + k, n=n, r_p=(k % 4) * n / 3, r_v=(0, 1, 3, 2**62)[(k // 4) % 4])
        if k % 3 == 0:
            flat = rng.random(n) < 0.4
            inst = dataclasses.replace(
                inst,
                reward_att=np.where(flat, 0.0, inst.reward_att),
                penalty_att=np.where(flat, 0.0, inst.penalty_att),
            )
        if k % 4 == 3:
            inst = dataclasses.replace(inst, e_v=rng.uniform(0.05, 0.95, n).round(3))
        yield scaled(inst, (1.0, 1e-9, 1e6)[k % 3])
    yield from _case_study_grid()


def _case_study_grid():
    scenario = case_study_scenario()
    values = [round(0.1 * k, 1) for k in range(1, 10)]
    for e_p in values:
        for e_v in values:
            if e_p >= e_v:
                yield with_effectiveness(scenario, e_p, e_v).instance


def _check_minimax_family(monkeypatch):
    """Check ``_minimax_profile`` against its row-by-row bisection on every
    instance of ``_minimax_family``: the same profile bits, on no more level
    rows. Tallies the rounds, one per ``_level_rows`` call."""
    level_rows, sent = feasibility._level_rows, []

    def counted(instance, levels):
        sent.append(levels.size)
        return level_rows(instance, levels)

    seen = Counter()
    for k, inst in enumerate(_minimax_family()):
        pool = feasibility._Pool(inst)
        with monkeypatch.context() as mp:
            mp.setattr(feasibility, "_level_rows", counted)
            sent.clear()
            profile, rows = feasibility._minimax_profile(pool)
        want, probed, rounds = minimax_profile_row_by_row(pool)
        assert profile.p.tobytes() == want.p.tobytes() and profile.v.tobytes() == want.v.tobytes(), k
        assert rows == sum(sent) <= probed, k
        seen["rounds past the crossing row"] += rounds > 1
        seen["most rounds over the reference"] = max(seen["most rounds over the reference"], len(sent) - rounds)
    return seen


def test_minimax_profile_matches_its_rounds(monkeypatch):
    seen = _check_minimax_family(monkeypatch)
    assert seen["rounds past the crossing row"] >= 20 and seen["most rounds over the reference"] <= 0, seen


def test_few_level_rows_per_case_study_solve():
    # One level row per midpoint sent 29 to 31 level rows on each of the 32
    # settings whose crossing row fails. A reward between that row and the
    # minimax level bends the slack, and a second Newton round then costs two
    # rows more.
    rows = [feasibility._minimax_profile(feasibility._Pool(inst))[1] for inst in _case_study_grid()]
    assert len(rows) == 45 and sum(rows) <= 4 * len(rows) and max(rows) <= 5, rows


def test_every_search_takes_an_empty_plain_list():
    inst = symmetric_instance()
    assert feasible_rows(inst, [], [], []).tolist() == []
    assert list(witness_blocks(inst, [], [], [])) == []
    for counts, checks in (most_villagers(inst, []), most_effort(inst, [], [], 1e-3)):
        assert counts.tolist() == [] and checks == 0
    i_stars, v_stars, counters = candidates(inst, [])
    assert i_stars.tolist() == [] and v_stars.tolist() == [] and i_stars.dtype.kind == "i"
    assert counters["candidates"] == 0
    # still rejected: empty lists of lists, and lists of different lengths
    for rows in (([[]], [[]], [[]]), ([], [0.0], [])):
        with pytest.raises(GameDefinitionError):
            feasible_rows(inst, *rows)


def test_slope_matches_finite_differences():
    # The slope only places rows, so a wrong one costs rows, not ends: this
    # guards the row counts. Central differences over 1e-7 of the range,
    # away from the fill's kinks, which only a few rows straddle.
    rng = np.random.default_rng(5)
    seen = Counter()
    for k, (inst, _) in enumerate(_fallback_family()):
        if k % 3:
            continue  # payoffs x1
        pool = feasibility._Pool(inst)
        i = rng.integers(0, inst.n, 40)
        v = rng.integers(0, min(inst.villager_budget, 5) + 1, 40)
        p = rng.uniform(0.1, 0.9, 40) * inst.ranger_budget
        h = 1e-7 * inst.ranger_budget
        slack, slope = feasibility._effort_rows(pool, i, p, v)[1:]
        up, down = (feasibility._effort_rows(pool, i, p + s, v)[1] for s in (h, -h))
        finite = np.isfinite(slack) & np.isfinite(up) & np.isfinite(down)
        error = np.abs((up[finite] - down[finite]) / (2 * h) - slope[finite]) / np.maximum(1.0, np.abs(slope[finite]))
        seen["effort rows"] += int(finite.sum())
        seen["effort rows off"] += int(np.count_nonzero(error > 1e-6))
        levels = np.linspace(inst.penalty_att.max(), inst.reward_att.max(), 30)[1:-1]
        h = 1e-7 * (inst.reward_att.max() - inst.penalty_att.max())
        slope = feasibility._level_rows(inst, levels)[2]
        up, down = (feasibility._level_rows(inst, levels + s)[1] for s in (h, -h))
        error = np.abs((up - down) / (2 * h) - slope) / np.maximum(1.0, np.abs(slope))
        seen["level rows"] += levels.size
        seen["level rows off"] += int(np.count_nonzero(error > 1e-6))
    assert seen["effort rows"] >= 150 and seen["level rows"] >= 500, seen
    assert seen["effort rows off"] <= seen["effort rows"] // 20 and seen["level rows off"] <= seen["level rows"] // 20, seen
