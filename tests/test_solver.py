import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankfair import core, solver
from rankfair.core import Profile, enumerate_rankings, max_swap_distance, swap_distance
from rankfair.errors import DataError, GuardError
from rankfair.experiments import city_profile, published_city_columns
from rankfair.sampling import CultureSpec, sample_profile
from rankfair.solver import (
    CostSpec,
    IntCost,
    _blocks,
    _ranking_table,
    approx_best_input,
    approx_kemeny_seed,
    emit_ilp,
    local_search,
    ranking_from_pair_vars,
    solve,
    solve_bnb,
    solve_brute_force,
    solve_kemeny_dp,
)


def brute_oracle(profile, p):
    """Independent optimum: the exact cost of every ranking, in lexicographic
    order, as sum(k * d^p) / L over the weights k / L on the common
    denominator L, with d counted pair by pair."""
    m = profile.m
    rankings = list(itertools.permutations(range(m)))
    pos = np.argsort(np.array(rankings, dtype=np.int8), axis=1)
    pairs = list(itertools.combinations(range(m), 2))
    denom = math.lcm(*(w.denominator for w in profile.entries.values()))
    costs = np.zeros(len(rankings), dtype=object)
    for r, w in profile.entries.items():
        above = {(r[i], r[j]) for i, j in pairs}  # r puts r[i] above r[j]
        d = sum((pos[:, a] > pos[:, b]) if (a, b) in above else (pos[:, a] < pos[:, b])
                for a, b in pairs)
        # swap distances and their powers stay small; the sum may leave int64
        costs += int(w * denom) * d.astype(object) ** p
    best = costs.min()
    winners = tuple(rankings[i] for i in np.flatnonzero(costs == best))
    return winners, F(best, denom)


def test_cost_spec_validation():
    with pytest.raises(DataError):
        CostSpec(0)
    with pytest.raises(DataError):
        CostSpec(1.5)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_brute_force_matches_rational_oracle(p):
    rng = np.random.default_rng(10 + p)
    cases = [(int(rng.integers(2, 6)), int(rng.integers(2, 9))) for _ in range(25)]
    cases += [(6, 5), (7, 4), (8, 3)]
    for t, (m, n) in enumerate(cases):
        prof = sample_profile(CultureSpec("ic", n=n, m=m, seed=500 + t))
        winners, cost = brute_oracle(prof, p)
        solvers = [solve_brute_force(prof, CostSpec(p))]
        if p == 1:
            solvers.append(solve_kemeny_dp(prof))
        for res in solvers:
            assert res.winners == winners
            assert res.cost == cost
            assert res.status == "Exact"


def test_solvers_exact_when_costs_overflow_int64():
    # coprime denominators near 1e6 give a common denominator near 1e30,
    # so integer costs leave int64 and the solvers score in Python ints
    supp = sample_profile(CultureSpec("ic", n=5, m=5, seed=9)).support()
    primes = [1000003, 1000033, 1000037, 1000039, 1000081]
    prof = Profile.from_weights(
        {r: F(1, q) for r, q in zip(supp, primes)}, normalize=True
    )
    _, nums, _ = prof.scaled_int_weights()
    assert sum(nums) * 10**3 >= 2**62  # 10 = largest swap distance at m=5
    for p in (1, 3):
        winners, cost = brute_oracle(prof, p)
        solvers = [solve_brute_force(prof, CostSpec(p)), solve_bnb(prof, CostSpec(p))]
        if p == 1:
            solvers.append(solve_kemeny_dp(prof))
        for res in solvers:
            assert res.winners == winners
            assert res.cost == cost


@pytest.mark.parametrize("m", [8, 9])
def test_brute_force_ties_across_prefix_blocks(m):
    # a ranking and its reverse, half each: the squared-cost winners are the
    # rankings halfway between them, spread over many prefix blocks; at m=9
    # they outnumber the cap, which keeps the first in lexicographic order
    ident = tuple(range(m))
    prof = Profile.from_weights({ident: F(1, 2), ident[::-1]: F(1, 2)})
    res = solve_brute_force(prof, CostSpec(2))
    winners, cost = brute_oracle(prof, 2)
    assert (res.winners, res.cost) == (winners[: solver.TIE_ENUMERATION_CAP], cost)
    assert res.ties_complete == (len(winners) <= solver.TIE_ENUMERATION_CAP)
    assert len({w[: m - 7] for w in res.winners}) > 1


def test_brute_force_m8_object_costs_match_oracle():
    # coprime denominators near 1e9: integer costs leave int64 at any exponent
    supp = sample_profile(CultureSpec("ic", n=3, m=8, seed=83)).support()
    primes = [1000000007, 1000000009, 1000000021]
    prof = Profile.from_weights(
        {r: F(1, q) for r, q in zip(supp, primes)}, normalize=True
    )
    assert IntCost(prof).dtype(3) is object
    res = solve_brute_force(prof, CostSpec(3))
    assert (res.winners, res.cost) == brute_oracle(prof, 3)


def test_brute_force_m10_memory_is_flat():
    # a cold m=10 solve allocates a few MB; an m! sign table is 163 MB
    prof = sample_profile(CultureSpec("ic", n=3, m=10, seed=10))
    _ranking_table.cache_clear()
    solver._blocks.cache_clear()
    tracemalloc.start()
    try:
        res = solve_brute_force(prof, CostSpec(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert res.cost == prof.power_cost(res.winner, 2)


@pytest.mark.parametrize("p", [1, 2])
def test_brute_force_prefix_tables_stay_small(p):
    # at m=10, 720 blocks and about 3,000 support rankings: no table holds a
    # number per (block, voter), which took 41 MB at p = 1 and 58 MB at p = 2
    prof = sample_profile(CultureSpec("ic", n=3000, m=10, seed=10))
    assert len(prof.support()) > 2900
    solve_brute_force(prof, CostSpec(p))
    tracemalloc.start()
    try:
        res = solve_brute_force(prof, CostSpec(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert res.cost == prof.power_cost(res.winner, p)


def test_brute_force_caches_no_table_above_7():
    _ranking_table.cache_clear()
    solve_brute_force(sample_profile(CultureSpec("ic", n=4, m=9, seed=9)))
    # the one table cached is m = 7's: reading it again is a hit
    assert _ranking_table.cache_info().currsize == 1
    orders, _ = _ranking_table(7)
    assert _ranking_table.cache_info()[:2] == (1, 1) and len(orders) == 5040
    with pytest.raises(GuardError):
        _ranking_table(8)
    assert _ranking_table.cache_info().currsize == 1


def test_brute_force_guard():
    prof = Profile.from_weights({tuple(range(11)): F(1)})
    with pytest.raises(GuardError):
        solve_brute_force(prof)


def _distinct_rankings(m, count, seed):
    rng = np.random.default_rng(seed)
    found = {}
    while len(found) < count:
        found[tuple(rng.permutation(m).tolist())] = 1
    return Profile.from_weights(found, normalize=True)


def test_brute_force_voter_path_guard():
    # 600 support rankings x 10! rankings is past the 2^31 pairs of the
    # per-voter path (about 9 s); the guard fires before any scoring
    prof = _distinct_rankings(10, 600, seed=3)
    start = time.perf_counter()
    for p in (3, 4):
        with pytest.raises(GuardError, match="2,147,483,648"):
            solve_brute_force(prof, CostSpec(p))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", [2, 3])
def test_brute_force_voter_guard_boundary(p, monkeypatch):
    # 8 support rankings at m = 5, no more than its 10 suffix pairs, so
    # p = 2 scores per voter too; the guard lets exactly its limit through
    prof = _distinct_rankings(5, 8, seed=p)
    monkeypatch.setattr(solver, "VOTER_PAIRS_GUARD", 8 * 120)
    assert solve_brute_force(prof, CostSpec(p)).cost == brute_oracle(prof, p)[1]
    monkeypatch.setattr(solver, "VOTER_PAIRS_GUARD", 8 * 120 - 1)
    with pytest.raises(GuardError, match="8 support rankings"):
        solve_brute_force(prof, CostSpec(p))
    # the moment path has no such limit
    assert solve_brute_force(prof, CostSpec(1)).cost == brute_oracle(prof, 1)[1]


def _only_path(monkeypatch, path):
    """Make brute force fail unless it scores with `path` ("moments" or "voters")."""
    other = "_voter_costs" if path == "moments" else "_moment_costs"

    def refuse(*args):
        raise AssertionError(f"{other} ran")
    monkeypatch.setattr(solver, other, refuse)


@pytest.mark.parametrize("m, culture, n", [
    (5, "ic", 40), (5, "mallows", 300), (6, "ic", 120), (6, "mallows", 80),
    (7, "ic", 60), (7, "mallows", 200),
])
@pytest.mark.parametrize("p", [1, 2])
def test_brute_force_moments_match_oracle(m, culture, n, p, monkeypatch):
    # supports above the C(m, 2) suffix pairs take the pair-moment path at p = 2
    prof = sample_profile(CultureSpec(culture, n=n, m=m, seed=31 * m + n))
    assert len(prof.support()) > max_swap_distance(m)
    _only_path(monkeypatch, "moments")
    res = solve_brute_force(prof, CostSpec(p))
    assert (res.winners, res.cost, res.ties_complete) == (*brute_oracle(prof, p), True)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("huge", [False, True])
def test_brute_force_falls_back_past_float64_moments(p, huge, monkeypatch):
    # 4 P^2 N >= 2^53: the moments could leave float64's exact integers, so
    # per-voter distances score, in int64 (N near 1e14) or in Python ints
    supp = sample_profile(CultureSpec("ic", n=40, m=5, seed=77)).support()[:12]
    if huge:
        primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
                  1000117, 1000121, 1000133, 1000151, 1000159, 1000171]
        prof = Profile.from_weights({r: F(1, q) for r, q in zip(supp, primes)},
                                    normalize=True)
    else:
        weights = np.random.default_rng(77).integers(10**12, 10**13, size=len(supp))
        prof = Profile.from_weights(
            {r: int(k) for r, k in zip(supp, weights)}, normalize=True)
    ic = IntCost(prof)
    assert 4 * max_swap_distance(5) ** 2 * ic.denom >= 2**53
    assert len(ic.nums) > max_swap_distance(5)
    assert (ic.dtype(p) is object) == huge
    _only_path(monkeypatch, "voters")
    res = solve_brute_force(prof, CostSpec(p))
    assert (res.winners, res.cost) == brute_oracle(prof, p)


@pytest.mark.parametrize("p, n", [(1, 20), (2, 40)])
def test_brute_force_moments_across_prefix_blocks(p, n, monkeypatch):
    # at m=8 each of the 8 prefix blocks folds its fixed pairs into a
    # per-block constant and linear term
    prof = sample_profile(CultureSpec("ic", n=n, m=8, seed=8 + n))
    _only_path(monkeypatch, "moments")
    res = solve_brute_force(prof, CostSpec(p))
    assert (res.winners, res.cost) == brute_oracle(prof, p)
    if p == 1:
        dp = solve_kemeny_dp(prof)
        assert (res.winners, res.cost) == (dp.winners, dp.cost)


def test_brute_force_moments_cap_the_kemeny_tie(monkeypatch):
    # a ranking and its reverse at half weight each: all 8! rankings tie
    # under the Kemeny rule, and brute force keeps the first in
    # lexicographic order
    r = tuple(range(8))
    prof = Profile.from_weights({r: F(1, 2), r[::-1]: F(1, 2)})
    _only_path(monkeypatch, "moments")
    res = solve_brute_force(prof, CostSpec(1))
    cap = solver.TIE_ENUMERATION_CAP
    assert res.winners == tuple(itertools.islice(enumerate_rankings(8), cap))
    assert (res.cost, res.status, res.ties_complete) == (14, "Exact", False)


def test_bnb_equals_brute_force():
    rng = np.random.default_rng(2)
    for t in range(30):
        m = int(rng.integers(3, 7))
        prof = sample_profile(CultureSpec("ic", n=int(rng.integers(2, 10)), m=m,
                                          seed=900 + t))
        for p in (1, 2):
            a = solve_brute_force(prof, CostSpec(p))
            b = solve_bnb(prof, CostSpec(p))
            assert a.cost == b.cost
            assert a.winners == b.winners


@st.composite
def weighted_profiles(draw):
    """Profiles at m <= 8; large coprime denominators push costs past int64."""
    m = draw(st.integers(2, 8))
    orders = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=6))
    weights = {
        tuple(r): F(draw(st.integers(1, 20)),
                    draw(st.sampled_from([1, 2, 3, 1000003, 1000033, 1000037])))
        for r in orders
    }
    return Profile.from_weights(weights, normalize=True)


def assert_bnb_matches_brute_force(prof, p):
    brute = solve_brute_force(prof, CostSpec(p))
    res = solve_bnb(prof, CostSpec(p), find_all_ties=True)
    assert (res.status, res.ties_complete) == ("Exact", True)
    assert (res.cost, res.winners) == (brute.cost, brute.winners)
    one = solve_bnb(prof, CostSpec(p), find_all_ties=False)
    assert one.status == "Exact" and one.cost == brute.cost
    assert len(one.winners) == 1 and one.winner in brute.winners


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prof=weighted_profiles(), p=st.integers(1, 3), budget=st.integers(0, 200))
def test_bnb_matches_brute_force_hypothesis(prof, p, budget):
    assert_bnb_matches_brute_force(prof, p)
    # a budgeted run certifies a lower bound on the optimum
    res = solve_bnb(prof, CostSpec(p), node_budget=budget)
    assert res.lower_bound <= solve_brute_force(prof, CostSpec(p)).cost <= res.cost


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bnb_exact_at_int64_threshold(p):
    # weights k/N with sum(k) = N put sum(nums) = N, set so the largest term
    # of the convex pair bound sits just under 2^62 (int64), then just over
    m = 7
    unit = (p + 2) * (max_swap_distance(m) + 1) ** p
    supp = sample_profile(CultureSpec("ic", n=6, m=m, seed=31 + p)).support()
    for total, dtype in (((2**62 - 1) // unit, np.int64), ((2**62 - 1) // unit + 1, object)):
        nums = [1] + [(total - 1) // (len(supp) - 1)] * (len(supp) - 1)
        nums[-1] += total - sum(nums)
        prof = Profile.from_weights({r: F(k, total) for r, k in zip(supp, nums)})
        ic = IntCost(prof)
        assert ic.nums == nums and ic.bound_dtype(p) is dtype
        assert_bnb_matches_brute_force(prof, p)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bnb_exact_at_float64_threshold(p):
    # the pair-sign bound runs in float64 while N (P^p + P s) < 2^53, s the
    # largest slope (P+1)^p - P^p; sum(nums) = N sits just under, then just over
    m = 7
    P = max_swap_distance(m)
    unit = P**p + P * ((P + 1) ** p - P**p)
    supp = sample_profile(CultureSpec("ic", n=6, m=m, seed=41 + p)).support()
    for total, dtype in (((2**53 - 1) // unit, np.float64), ((2**53 - 1) // unit + 1, np.int64)):
        nums = [1] + [(total - 1) // (len(supp) - 1)] * (len(supp) - 1)
        nums[-1] += total - sum(nums)
        prof = Profile.from_weights({r: F(k, total) for r, k in zip(supp, nums)})
        ic = IntCost(prof)
        assert ic.nums == nums and ic.bound_dtype(p) is dtype
        assert_bnb_matches_brute_force(prof, p)


def test_bnb_linear_city_search_unchanged():
    # the convex pair bound equals the Kemeny pair bound at p = 1, so the
    # linear search expands exactly the nodes it did with that bound
    res = solve_bnb(city_profile(), CostSpec(1), find_all_ties=True)
    assert (res.status, res.nodes) == ("Exact", 211198)
    assert res.cost == F(733, 10)
    assert res.winners == (
        (18, 14, 4, 21, 23, 24, 10, 22, 15, 5, 3, 17, 7, 1, 16, 19, 12, 11, 0, 6, 20, 2, 13, 8, 9),
        (18, 14, 4, 21, 23, 24, 10, 22, 17, 15, 5, 3, 7, 1, 16, 19, 12, 11, 0, 6, 20, 2, 13, 8, 9),
        (18, 14, 24, 4, 21, 23, 10, 22, 15, 5, 3, 17, 7, 1, 16, 19, 12, 11, 0, 6, 20, 2, 13, 8, 9),
        (18, 14, 24, 4, 21, 23, 10, 22, 17, 15, 5, 3, 7, 1, 16, 19, 12, 11, 0, 6, 20, 2, 13, 8, 9),
    )


@pytest.mark.parametrize("p, ties, nodes, budget, budgeted", [
    (2, False, 9808, 2000, ("Heuristic", 2000, F(74311, 10), F(74647, 10))),
    (2, True, 13685, 4500, ("Heuristic", 4500, F(74151, 10), F(74647, 10))),
    (1, False, 126760, 10000, ("Heuristic", 10000, F(703, 10), F(737, 10))),
])
def test_bnb_city_search_pinned(p, ties, nodes, budget, budgeted):
    # children pruned before the push still count when the search reaches
    # them, so a full search counts every child and a budget stops where it did
    city = city_profile()
    res = solve_bnb(city, CostSpec(p), find_all_ties=ties)
    assert (res.status, res.nodes) == ("Exact", nodes)
    assert res.cost == (F(733, 10) if p == 1 else F(74647, 10))
    cut = solve_bnb(city, CostSpec(p), find_all_ties=ties, node_budget=budget)
    assert (cut.status, cut.nodes, cut.lower_bound, cut.cost) == budgeted


def test_bnb_budget_below_zero_is_data_error():
    with pytest.raises(DataError, match="node_budget must be >= 0, got -5"):
        solve_bnb(city_profile(), CostSpec(2), node_budget=-5)
    # a budget of 0 pops no node: the seed, with the root's bound
    res = solve_bnb(city_profile(), CostSpec(2), node_budget=0)
    assert (res.status, res.nodes) == ("Heuristic", 0)
    assert res.lower_bound <= F(74647, 10) <= res.cost


@pytest.mark.parametrize("p, budget, pinned", [
    (1, 5, ("Heuristic", 5, F(43, 3), F(43, 3))),
    (1, 50, ("Heuristic", 50, F(43, 3), F(43, 3))),
    (1, 500, ("Heuristic", 500, F(43, 3), F(43, 3))),
    (2, 5, ("Heuristic", 5, F(200), F(688, 3))),
    (2, 50, ("Heuristic", 50, F(200), F(688, 3))),
    (2, 500, ("Heuristic", 500, F(210), F(229))),
    (3, 5, ("Heuristic", 5, F(9148, 3), F(3554))),
    (3, 50, ("Heuristic", 50, F(9148, 3), F(3554))),
    (3, 500, ("Heuristic", 500, F(10007, 3), F(3554))),
])
def test_bnb_budgeted_search_pinned(p, budget, pinned):
    prof = sample_profile(CultureSpec("disc", n=6, m=9, seed=27))
    res = solve_bnb(prof, CostSpec(p), node_budget=budget)
    assert (res.status, res.nodes, res.lower_bound, res.cost) == pinned


@pytest.mark.parametrize("p, budget, pinned", [
    (2, None, ("Exact", 2030, F(4126, 5), F(4126, 5),
               ((4, 6, 5, 0, 3, 9, 7, 8, 1, 11, 2, 10),))),
    (2, 500, ("Heuristic", 500, F(7943, 10), F(4126, 5),
              ((4, 6, 5, 0, 3, 9, 7, 8, 1, 11, 2, 10),))),
    (3, None, ("Exact", 17568, F(251709, 10), F(251709, 10),
               ((4, 5, 0, 3, 6, 9, 7, 8, 1, 11, 2, 10),))),
    (3, 500, ("Heuristic", 500, F(224841, 10), F(50599, 2),
              ((4, 0, 6, 5, 3, 9, 8, 7, 1, 11, 2, 10),))),
])
def test_bnb_m12_search_pinned(p, budget, pinned):
    # the search tree of a larger squared and cubic search: its node count,
    # certified bound, cost and winners
    prof = sample_profile(CultureSpec("ic", n=20, m=12, seed=1))
    res = solve_bnb(prof, CostSpec(p), node_budget=budget)
    assert (res.status, res.nodes, res.lower_bound, res.cost, res.winners) == pinned


def test_bnb_seed_candidate_array_and_empty():
    prof = sample_profile(CultureSpec("ic", n=10, m=4, seed=5))
    seeded = solve_bnb(prof, CostSpec(2), seed_candidate=np.array([3, 2, 1, 0]))
    assert seeded == solve_bnb(prof, CostSpec(2), seed_candidate=(3, 2, 1, 0))
    with pytest.raises(DataError, match="at least 2 alternatives"):
        solve_bnb(prof, CostSpec(2), seed_candidate=())


@pytest.mark.parametrize("m", range(1, 10))
def test_ranking_table_is_lexicographic(m):
    # brute force's blocks, each prefix followed by rest[orders], list all
    # m! rankings in lexicographic order
    pre, rest, cols, pre_signs = _blocks(m)
    orders, signs = _ranking_table(rest.shape[1])
    assert orders.dtype == np.int8 and len(orders) <= 5040
    listed = np.vstack([
        np.hstack([np.broadcast_to(pre[b], (len(orders), pre.shape[1])), rest[b][orders]])
        for b in range(len(pre))
    ])
    assert np.array_equal(listed, list(itertools.permutations(range(m))))
    i, j = np.triu_indices(rest.shape[1], 1)
    pos = np.argsort(orders, axis=1)
    assert np.array_equal(signs, np.where(pos[:, i] < pos[:, j], 1, -1))
    # cols[b] are rest[b]'s pairs among the pairs of 0..m-1
    a, c = np.triu_indices(m, 1)
    assert np.array_equal(a[cols], rest[:, i]) and np.array_equal(c[cols], rest[:, j])
    # pre_signs[b] is 0 on cols[b], and on every other pair the sign that
    # each ranking of block b gives it
    pos = np.argsort(listed, axis=1).reshape(len(pre), len(orders), m)
    above = pos[..., a] < pos[..., c]
    suffix = np.zeros(pre_signs.shape, dtype=bool)
    np.put_along_axis(suffix, cols, True, axis=1)
    assert pre_signs.dtype == np.int8 and np.array_equal(pre_signs == 0, suffix)
    assert ((above == (pre_signs == 1)[:, None]) | suffix[:, None]).all()


def test_bnb_budget_gives_heuristic_with_bound():
    prof = sample_profile(CultureSpec("ic", n=20, m=7, seed=77))
    res = solve_bnb(prof, CostSpec(2), node_budget=5)
    assert res.status == "Heuristic"
    assert res.lower_bound <= res.cost
    exact = solve_brute_force(prof, CostSpec(2))
    assert res.lower_bound <= exact.cost <= res.cost


def test_bnb_guard():
    prof = Profile.from_weights({tuple(range(41)): F(1)})
    with pytest.raises(GuardError):
        solve_bnb(prof)


def test_kemeny_dp_matches_brute_force():
    rng = np.random.default_rng(5)
    for t in range(20):
        m = int(rng.integers(3, 7))
        prof = sample_profile(CultureSpec("ic", n=int(rng.integers(2, 10)), m=m,
                                          seed=1300 + t))
        a = solve_brute_force(prof, CostSpec(1))
        b = solve_kemeny_dp(prof)
        assert a.cost == b.cost
        assert a.winners == b.winners


def test_kemeny_dp_m16_matches_bnb_ties():
    # every ranking carries half its weight on a copy with 0 and 1 swapped,
    # so 0 and 1 are interchangeable and every optimum comes with its twin
    base = sample_profile(CultureSpec("mallows", n=8, m=16, seed=4,
                                      params={"phi": 0.5}))
    twin = {0: 1, 1: 0}
    pairs = {}
    for r, w in base.entries.items():
        for order in (r, tuple(twin.get(a, a) for a in r)):
            pairs[order] = pairs.get(order, 0) + w / 2
    prof = Profile.from_weights(pairs)
    dp = solve_kemeny_dp(prof)
    bnb = solve_bnb(prof, CostSpec(1), find_all_ties=True)
    assert dp.cost == bnb.cost
    assert dp.winners == bnb.winners
    assert len(dp.winners) % 2 == 0
    assert dp.ties_complete and bnb.ties_complete and bnb.status == "Exact"


def test_kemeny_dp_full_tie_set():
    # perfectly symmetric profile: every ranking is optimal
    prof = Profile.from_weights({(0, 1, 2): F(1, 2), (2, 1, 0): F(1, 2)})
    res = solve_kemeny_dp(prof)
    assert len(res.winners) == 6
    assert res.ties_complete


@st.composite
def tie_heavy_profiles(draw):
    """Profiles at m = 3-7 with many tied optima: two orders at equal weight
    (every ranking between them ties), or a few orders repeated."""
    m = draw(st.integers(3, 7))
    if draw(st.booleans()):
        orders = draw(st.lists(st.permutations(range(m)), min_size=2, max_size=2))
        rows = [(tuple(r), 1) for r in orders]
    else:
        base = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
        picks = draw(st.lists(st.sampled_from(base), min_size=1, max_size=8))
        rows = [(tuple(r), draw(st.integers(1, 3))) for r in picks]
    return Profile.from_weights(rows, normalize=True)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(prof=tie_heavy_profiles(), ties=st.booleans())
def test_kemeny_dp_matches_brute_oracle_hypothesis(prof, ties):
    winners, cost = brute_oracle(prof, 1)
    res = solve_kemeny_dp(prof, find_all_ties=ties)
    assert (res.cost, res.status, res.ties_complete) == (cost, "Exact", ties)
    if ties:
        assert res.winners == winners
    else:
        assert len(res.winners) == 1 and res.winner in winners


def test_kemeny_dp_object_costs_match_oracle():
    # a ranking and its reverse tie every ranking; a weight of 1/3^40 on a
    # third breaks the tie and puts the integer costs past int64, so the DP
    # runs on Python ints with the same sentinel
    r = (0, 1, 2, 3, 4, 5)
    third = (2, 0, 5, 1, 4, 3)
    eps = F(1, 3**40)
    prof = Profile.from_weights({r: (1 - eps) / 2, r[::-1]: (1 - eps) / 2, third: eps})
    assert IntCost(prof).dtype(1) is object
    for ties in (True, False):
        res = solve_kemeny_dp(prof, find_all_ties=ties)
        assert (res.winners, res.cost) == brute_oracle(prof, 1) == ((third,), res.cost)
        assert res.ties_complete == ties


def kemeny_dp_reference(profile, find_all_ties=True):
    """The subset DP over all m alternatives in one (2^m, m) table, with a
    backtrack that builds winners from the bottom of the ranking."""
    m = profile.m
    ic = profile.int_cost()
    W = ic.pair_weights()
    full = (1 << m) - 1
    above = np.empty((full + 1, m), dtype=W.dtype)
    above[0] = W.sum(axis=0)
    size = np.zeros(full + 1, dtype=np.int8)
    for b in range(m):
        np.subtract(above[: 1 << b], W[b], out=above[1 << b : 2 << b])
        np.add(size[: 1 << b], 1, out=size[1 << b : 2 << b])
    bits = 1 << np.arange(m)
    dp = np.full(full + 1, sum(ic.nums) * max_swap_distance(m) + 1, dtype=W.dtype)
    dp[0] = 0
    for c in range(1, m + 1):
        S = np.flatnonzero(size == c)
        step = dp[S[:, None] ^ bits]
        step += above[S]
        dp[S] = step.min(axis=1)

    winners = []
    capped = False

    def backtrack(S, suffix):
        nonlocal capped
        if len(winners) >= solver.TIE_ENUMERATION_CAP:
            capped = True
            return
        if S == 0:
            winners.append(suffix)
            return
        for a in range(m):
            if S >> a & 1 and dp[S ^ 1 << a] + above[S, a] == dp[S]:
                backtrack(S ^ 1 << a, (a,) + suffix)
                if not find_all_ties:
                    return

    backtrack(full, ())
    return solver.SolveResult(
        winners=tuple(sorted(winners)),
        cost=F(int(dp[full]), ic.denom),
        status="Exact",
        method="kemeny_dp",
        ties_complete=find_all_ties and not capped,
    )


def _block_reversed(sizes, seed=None):
    """A ranking and its block-wise reverse at weight 1/2 each: a unanimous
    vote keeps the blocks in order, and every order within a block ties.
    With a seed, the alternatives are relabelled at random."""
    r = list(range(sum(sizes)))
    rev = list(itertools.chain.from_iterable(
        r[s - k : s][::-1] for k, s in zip(sizes, itertools.accumulate(sizes))))
    if seed is not None:
        perm = np.random.default_rng(seed).permutation(len(r)).tolist()
        r, rev = [perm[a] for a in r], [perm[a] for a in rev]
    return Profile.from_weights({tuple(r): F(1, 2), tuple(rev): F(1, 2)})


def _reference_profiles():
    cultures = [("ic", {}), ("mallows", {"phi": 0.7}), ("disc", {})]
    for m in range(3, 15):
        for k, (culture, params) in enumerate(cultures):
            yield sample_profile(CultureSpec(culture, n=5 + 3 * k, m=m, seed=60 * m + k,
                                             params=params))
    # coprime denominators near 1e9 take object arithmetic
    supp = sample_profile(CultureSpec("ic", n=4, m=9, seed=61)).support()
    primes = [1000000007, 1000000009, 1000000021, 1000000033]
    yield Profile.from_weights({r: F(1, q) for r, q in zip(supp, primes)}, normalize=True)
    # tie products past TIE_ENUMERATION_CAP
    for sizes in [(6, 6), (3, 4, 5), (1, 9, 3), (4, 4, 4)]:
        yield _block_reversed(sizes)
    yield _block_reversed((3, 4, 5), seed=1)
    # one majority component of 17, larger than any above: the DP splits
    # its sets into half tables of 8 and 9 alternatives
    yield sample_profile(CultureSpec("ic", n=30, m=17, seed=3))


def test_kemeny_dp_matches_reference():
    profiles = list(_reference_profiles())
    assert IntCost(profiles[36]).dtype(1) is object
    assert [len(c) for c in solver._majority_components(profiles[-1].int_cost()
                                                        .pair_weights())] == [17]
    capped = 0
    for prof in profiles:
        for ties in (True, False):
            res = solve_kemeny_dp(prof, find_all_ties=ties)
            assert res == kemeny_dp_reference(prof, ties)
            capped += ties and not res.ties_complete
    assert capped >= 5


@st.composite
def block_profiles(draw):
    """Profiles at m <= 8 whose alternatives fall into blocks that every
    ranking of weight 2 lists in one order, with at most one dissenting
    ranking of weight 1: each pair across two blocks has a strict majority."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)
                 .filter(lambda s: sum(s) <= 8))
    labels = draw(st.permutations(range(sum(sizes))))
    blocks = [labels[s - k : s] for k, s in zip(sizes, itertools.accumulate(sizes))]
    rows = [(tuple(itertools.chain.from_iterable(draw(st.permutations(b)) for b in blocks)), 2)
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        rows.append((tuple(draw(st.permutations(range(sum(sizes))))), 1))
    return Profile.from_weights(rows, normalize=True), blocks


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=block_profiles(), ties=st.booleans())
def test_kemeny_dp_keeps_majority_blocks_hypothesis(case, ties):
    prof, blocks = case
    level = {a: i for i, block in enumerate(blocks) for a in block}
    res = solve_kemeny_dp(prof, find_all_ties=ties)
    for r in res.winners:
        assert [level[a] for a in r] == sorted(level[a] for a in r)
    winners, cost = brute_oracle(prof, 1)
    assert (res.cost, res.ties_complete) == (cost, ties)
    if ties:
        assert res.winners == winners
    else:
        assert len(res.winners) == 1 and res.winner in winners


def test_kemeny_dp_guards_its_largest_component():
    # all pairs tied: one component of 21 alternatives
    with pytest.raises(GuardError, match="component of 21"):
        solve_kemeny_dp(_all_tied(21))
    # 25 alternatives whose largest component has 16
    city = city_profile()
    res = solve_kemeny_dp(city)
    bnb = solve_bnb(city, CostSpec(1), find_all_ties=True)
    assert (res.winners, res.cost, res.ties_complete) == (bnb.winners, bnb.cost, True)


def test_kemeny_dp_reads_no_tie_flag_as_tracking_ties():
    prof = _all_tied(5)
    res = solve(prof, CostSpec(1), method="kemeny_dp", find_all_ties=None)
    assert res.ties_complete is True
    assert res.winners == tuple(enumerate_rankings(5))
    assert solve_kemeny_dp(prof, find_all_ties=False).ties_complete is False


DP_MEMORY_PROBE = """
import gc
import sys
import tracemalloc
from rankfair.sampling import CultureSpec, sample_profile
from rankfair.solver import solve_kemeny_dp
prof = sample_profile(CultureSpec("ic", n=30, m=16, seed=int(sys.argv[1])))
prof.int_cost()
tracemalloc.start()
res = solve_kemeny_dp(prof)
gc.collect()  # only what stays reachable counts as kept
kept, peak = tracemalloc.get_traced_memory()
print(kept, peak, res.cost)
"""


def test_kemeny_dp_m16_memory_and_no_cache():
    # a fresh process per profile, so no table cached by an earlier call can
    # hide: the majority components of these m = 16 profiles have 1 and 15
    # (seed 1) and 16 (seed 2) alternatives, and the DP peaks at 0.8 and
    # 1.1 MiB and keeps under 2 KiB reachable once it returns; a (2^16, 16)
    # int64 table of every set's costs alone takes 8 MiB, and a list of
    # each layer's sets kept per m 0.5 MiB
    src = str(Path(solver.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for seed in (1, 2):
        done = subprocess.run([sys.executable, "-c", DP_MEMORY_PROBE, str(seed)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        kept, peak, cost = done.stdout.split()
        assert int(peak) < 4 * 2**20
        assert int(kept) < 2**16
        assert F(cost) == solve_kemeny_dp(
            sample_profile(CultureSpec("ic", n=30, m=16, seed=seed))).cost


def _all_tied(m):
    # a ranking and its reverse at half weight each: every ranking costs
    # C(m, 2) / 2 under the Kemeny rule
    r = tuple(range(m))
    return Profile.from_weights({r: F(1, 2), r[::-1]: F(1, 2)})


def _tie_solvers(prof):
    return [solve_kemeny_dp(prof), solve_brute_force(prof, CostSpec(1)),
            solve_bnb(prof, CostSpec(1), find_all_ties=True)]


def test_tie_cap_all_methods_m8():
    start = time.perf_counter()
    results = _tie_solvers(_all_tied(8))
    for res in results:
        assert (res.status, res.cost, res.ties_complete) == ("Exact", 14, False)
        assert len(set(res.winners)) == len(res.winners) <= solver.TIE_ENUMERATION_CAP
    # the cap must stop the bnb search, not only trim its output
    assert time.perf_counter() - start < 1.0


def test_capped_tie_sets_are_optimal_and_method_specific():
    # each method keeps a different TIE_ENUMERATION_CAP-sized subset of the
    # 8! tied rankings; brute force keeps the lexicographically first
    prof = _all_tied(8)
    cap = solver.TIE_ENUMERATION_CAP
    brute, dp, bnb = (solve_brute_force(prof, CostSpec(1)), solve_kemeny_dp(prof),
                      solve_bnb(prof, CostSpec(1), find_all_ties=True))
    assert brute.winners == tuple(itertools.islice(enumerate_rankings(8), cap))
    for res in (brute, dp, bnb):
        assert (res.status, res.ties_complete) == ("Exact", False)
        assert len(set(res.winners)) == len(res.winners) == cap
        assert list(res.winners) == sorted(res.winners)
    sets = [set(res.winners) for res in (brute, dp, bnb)]
    assert sets[0] != sets[1] != sets[2] != sets[0]
    for r in set.union(*sets):
        assert prof.power_cost(r, 1) == brute.cost == dp.cost == bnb.cost


@pytest.mark.parametrize("cap, complete", [(5, False), (6, True), (7, True)])
def test_tie_cap_flags_exactly_a_left_out_winner(monkeypatch, cap, complete):
    monkeypatch.setattr(solver, "TIE_ENUMERATION_CAP", cap)
    for res in _tie_solvers(_all_tied(3)):
        assert res.ties_complete == complete
        assert len(res.winners) == min(cap, 6)


def test_bnb_capped_tie_set_is_the_first_rankings_reached(monkeypatch):
    # the search reaches its seed, the identity, first and the reverse
    # second; the eighth ranking it reaches, (4, 2, 3, 1, 0), is the one
    # left out, not the lexicographically largest
    monkeypatch.setattr(solver, "TIE_ENUMERATION_CAP", 7)
    res = solve_bnb(_all_tied(5), CostSpec(1), find_all_ties=True)
    assert res.winners == ((0, 1, 2, 3, 4), (4, 3, 0, 1, 2), (4, 3, 0, 2, 1),
                           (4, 3, 1, 0, 2), (4, 3, 1, 2, 0), (4, 3, 2, 0, 1),
                           (4, 3, 2, 1, 0))
    assert (res.status, res.ties_complete) == ("Exact", False)


def test_solve_dispatch():
    prof = Profile.from_weights({(0, 1, 2): F(3, 5), (2, 1, 0): F(2, 5)})
    assert solve(prof, CostSpec(1)).winner == (0, 1, 2)
    with pytest.raises(DataError):
        solve(prof, CostSpec(2), method="kemeny_dp")
    with pytest.raises(DataError):
        solve(prof, method="nope")


def test_solve_auto_takes_the_dp_by_largest_component():
    # 25 alternatives whose largest majority component has 16
    city = city_profile()
    res = solve(city, CostSpec(1))
    pub_lin, _ = published_city_columns()
    assert (res.method, res.status, res.cost) == ("kemeny_dp", "Exact",
                                                  city.power_cost(pub_lin, 1))
    assert len(res.winners) == 4 and res.ties_complete is True
    assert res == solve_kemeny_dp(city)
    # a component of 17 fits the DP's guard, and one of 21 goes to branch
    # and bound
    assert solve(_all_tied(17), CostSpec(1)).method == "kemeny_dp"
    assert solve(_all_tied(21), CostSpec(1)).method == "bnb"
    # and so does every squared cost past brute force
    assert solve(city, CostSpec(2), node_budget=10).method == "bnb"
    mallows17 = sample_profile(CultureSpec("mallows", n=8, m=17, seed=2,
                                           params={"phi": 0.5}))
    assert solve(mallows17, CostSpec(2)).method == "bnb"
    assert solve(mallows17, CostSpec(1)).method == "kemeny_dp"


def test_solve_auto_takes_the_dp_up_to_its_guard():
    # 21 alternatives whose largest majority component has 17
    prof = sample_profile(CultureSpec("mallows", n=30, m=21, seed=1, params={"phi": 0.9}))
    W = prof.int_cost().pair_weights()
    assert max(map(len, solver._majority_components(W))) == 17
    res = solve(prof, CostSpec(1))
    assert (res.method, res.status, res.ties_complete) == ("kemeny_dp", "Exact", True)
    assert res.cost == solve_bnb(prof, CostSpec(1)).cost


def test_solve_routes_solver_keywords(monkeypatch):
    m12 = sample_profile(CultureSpec("ic", n=30, m=12, seed=1))
    m6 = sample_profile(CultureSpec("ic", n=10, m=6, seed=1))
    # up to m = 20 auto reads no components: only the DP splits them
    calls = []
    split = solver._majority_components
    monkeypatch.setattr(solver, "_majority_components", lambda W: calls.append(1) or split(W))
    assert solve(m12, CostSpec(1)).method == "kemeny_dp" and len(calls) == 1
    # auto sends a keyword only branch and bound takes to branch and bound
    cut = solve(m12, CostSpec(1), node_budget=10)
    assert (cut.method, cut.status, cut.nodes) == ("bnb", "Heuristic", 10)
    seeded = solve(m6, CostSpec(1), seed_candidate=tuple(range(6)))
    assert seeded.method == "bnb" and seeded == solve_bnb(m6, CostSpec(1),
                                                          seed_candidate=tuple(range(6)))
    assert solve(m6, CostSpec(2), find_all_ties=False).method == "bnb"
    assert solve(m12, CostSpec(1), find_all_ties=False).method == "kemeny_dp"
    # an explicit method refuses a keyword it does not take, by name
    with pytest.raises(DataError, match="kemeny_dp takes no keyword node_budget"):
        solve(m12, CostSpec(1), method="kemeny_dp", node_budget=10)
    with pytest.raises(DataError, match="brute_force takes no keyword find_all_ties"):
        solve(m6, CostSpec(2), method="brute_force", find_all_ties=False)
    with pytest.raises(DataError, match="bnb takes no keyword budget"):
        solve(m6, CostSpec(2), method="bnb", budget=10)
    with pytest.raises(DataError, match="bnb takes no keyword budget"):
        solve(m6, CostSpec(2), budget=10)


def test_local_search_descends():
    rng = np.random.default_rng(8)
    for t in range(15):
        prof = sample_profile(CultureSpec("ic", n=6, m=5, seed=1700 + t))
        start = tuple(rng.permutation(5))
        out = local_search(prof, start, CostSpec(2))
        assert prof.power_cost(out, 2) <= prof.power_cost(start, 2)
        # fixed point: no adjacent swap improves further
        again = local_search(prof, out, CostSpec(2))
        assert prof.power_cost(again, 2) == prof.power_cost(out, 2)


def local_search_reference(profile, start, p):
    """Plain-Python adjacent-swap descent: per voter, the step a swap adds to
    its distance, from its positions."""
    supp, nums, _ = profile.scaled_int_weights()
    poss = [core.positions(r) for r in supp]
    cand = list(start)
    dists = [swap_distance(r, tuple(cand)) for r in supp]
    improved = True
    while improved:
        improved = False
        for i in range(len(cand) - 1):
            a, b = cand[i], cand[i + 1]
            steps = [-1 if pos[b] < pos[a] else 1 for pos in poss]
            delta = sum(
                w * ((d + step) ** p - d**p) for w, d, step in zip(nums, dists, steps)
            )
            if delta < 0:
                cand[i], cand[i + 1] = b, a
                dists = [d + step for d, step in zip(dists, steps)]
                improved = True
    return tuple(cand)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_search_matches_reference(p):
    rng = np.random.default_rng(90 + p)
    profiles = [
        sample_profile(CultureSpec(culture, n=n, m=m, seed=100 * m + n + p))
        for m in range(4, 10) for culture, n in (("ic", 7), ("mallows", 30))
    ]
    # coprime denominators near 1e9 take object arithmetic
    supp = sample_profile(CultureSpec("ic", n=4, m=8, seed=83)).support()
    primes = [1000000007, 1000000009, 1000000021, 1000000033]
    big = Profile.from_weights({r: F(1, q) for r, q in zip(supp, primes)}, normalize=True)
    assert IntCost(big).dtype(p) is object
    for prof in profiles + [big]:
        for _ in range(4):
            start = tuple(int(a) for a in rng.permutation(prof.m))
            expected = local_search_reference(prof, start, p)
            assert local_search(prof, start, CostSpec(p)) == expected


def test_approx_best_input():
    prof = Profile.from_weights({(0, 1, 2): F(3, 5), (2, 1, 0): F(2, 5)})
    assert approx_best_input(prof) == (0, 1, 2)
    # a tie goes to the first support ranking
    tie = Profile.from_weights({(2, 1, 0): F(1, 2), (0, 1, 2): F(1, 2)})
    assert approx_best_input(tie) == (0, 1, 2)


@pytest.mark.parametrize("m, n, p, huge", [
    (4, 30, 1, False), (6, 300, 2, False), (7, 200, 3, False), (8, 150, 3, True),
])
def test_approx_best_input_is_the_first_cheapest_input(m, n, p, huge):
    # supports of 150-300 rankings span several row blocks; huge weights
    # take object costs
    prof = sample_profile(CultureSpec("ic", n=n, m=m, seed=40 + m))
    if huge:
        weights = np.random.default_rng(m).integers(10**12, 10**13, size=n)
        prof = Profile.from_weights(zip(prof.support(), map(int, weights)), normalize=True)
        assert IntCost(prof).dtype(p) is object
    best = min(prof.support(), key=lambda r: (prof.power_cost(r, p), r))
    assert approx_best_input(prof, CostSpec(p)) == best


def test_solvers_share_one_int_cost(monkeypatch):
    built = []

    class Counted(IntCost):
        def __init__(self, profile):
            built.append(profile)
            super().__init__(profile)

    monkeypatch.setattr(core, "IntCost", Counted)
    prof = sample_profile(CultureSpec("ic", n=12, m=6, seed=5))
    solve_bnb(prof, CostSpec(2))  # with its own seed: local search and best input
    solve_brute_force(prof, CostSpec(1))
    solve_kemeny_dp(prof)
    assert built == [prof]


def test_approx_kemeny_seed_cost_reasonable():
    for t in range(10):
        prof = sample_profile(CultureSpec("ic", n=8, m=5, seed=2100 + t))
        seed = approx_kemeny_seed(prof)
        opt = solve_brute_force(prof).cost
        assert prof.power_cost(seed, 2) >= opt


def test_emit_ilp_structure():
    prof = Profile.from_weights({(0, 1, 2): F(1, 2), (1, 2, 0): F(1, 2)})
    text = emit_ilp(prof)
    lines = text.splitlines()
    assert lines[0] == "Minimize"
    for section in ("Subject To", "Bounds", "Binaries", "End"):
        assert section in lines
    # m=3: 3 completeness equalities, one triangle row per 3-cycle, tangents at 0,1,2
    assert sum(1 for ln in lines if ln.startswith(" comp_")) == 3
    assert sum(1 for ln in lines if ln.startswith(" tri_")) == 2
    assert sum(1 for ln in lines if ln.startswith(" tan_")) == 2 * 3
    assert " tan_0_0: sqdist_0 - 1 dist_0 >= 0" in text
    binaries = [ln for ln in lines if ln.startswith(" x_")]
    assert len(binaries) == 6


def test_emit_ilp_objective_consistency():
    # plugging a candidate's pair assignment into the emitted program
    # reproduces the exact squared cost
    prof = Profile.from_weights({(0, 1, 2, 3): F(2, 3), (3, 1, 0, 2): F(1, 3)})
    cand = (1, 0, 3, 2)
    text = emit_ilp(prof)
    values = {}
    pos = {a: i for i, a in enumerate(cand)}
    for a in range(4):
        for b in range(4):
            if a != b:
                values[f"x_{a}_{b}"] = 1.0 if pos[a] < pos[b] else 0.0
    total = F(0)
    for k, r in enumerate(prof.support()):
        d = swap_distance(r, cand)
        total += prof.entries[r] * d * d
        # the distance row must be consistent with the assignment
        rpos = {a: i for i, a in enumerate(r)}
        dist = sum(
            values[f"x_{b}_{a}"]
            for a in range(4)
            for b in range(4)
            if a != b and rpos[a] < rpos[b]
        )
        assert dist == d
    assert prof.power_cost(cand, 2) == total
    assert text.count("dist_def_") == 2


def test_emit_ilp_objective_is_exact():
    weights = [F(1, 3), F(1, 6), F(1, 2)]
    supp = [(0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0)]
    prof = Profile.from_weights(dict(zip(supp, weights)))
    for p in (1, 2):
        obj = emit_ilp(prof, CostSpec(p)).splitlines()[1]
        assert obj.startswith(" obj: ")
        terms = [t.split() for t in obj[len(" obj: "):].split(" + ")]
        var = "sqdist" if p == 2 else "dist"
        assert [v for _, v in terms] == [f"{var}_{k}" for k in range(3)]
        assert all(c.isdigit() for c, _ in terms)
        coeffs = [int(c) for c, _ in terms]
        assert all(c * weights[0] == coeffs[0] * w for c, w in zip(coeffs, weights))


def _ilp_arrays(text):
    """emit_ilp's LP text as arrays for scipy.optimize.milp: objective,
    constraint matrix (sparse), row bounds, variable bounds, integrality."""
    sparse = pytest.importorskip("scipy.sparse")
    cols: dict[str, int] = {}

    def terms(expr):
        # "3 a - b + c": optional sign, optional integer coefficient, variable
        out, coef = [], 1
        for tok in expr.split():
            if tok in "+-":
                coef = 1 if tok == "+" else -1
            elif tok[0].isdigit():
                coef *= int(tok)
            else:
                out.append((cols.setdefault(tok, len(cols)), coef))
                coef = 1
        return out

    section, objective, rows, var_bounds, binaries = None, [], [], {}, []
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line
        elif section == "Minimize":
            objective = terms(line.split(":", 1)[1])
        elif section == "Subject To":
            *lhs, rel, rhs = line.split(":", 1)[1].split()
            rows.append((terms(" ".join(lhs)), rel, int(rhs)))
        elif section == "Bounds":
            lo, _, var, _, hi = line.split()
            var_bounds[cols.setdefault(var, len(cols))] = (int(lo), int(hi))
        elif section == "Binaries":
            binaries.append(cols.setdefault(line.strip(), len(cols)))
    n = len(cols)
    c = np.zeros(n)
    for j, a in objective:
        c[j] += a
    entries = [(i, j, a) for i, (ts, _, _) in enumerate(rows) for j, a in ts]
    i, j, a = zip(*entries)
    A = sparse.csr_matrix((a, (i, j)), shape=(len(rows), n))
    row_lo = np.array([b if rel != "<=" else -np.inf for _, rel, b in rows])
    row_hi = np.array([b if rel != ">=" else np.inf for _, rel, b in rows])
    var_lo, var_hi, integrality = np.zeros(n), np.full(n, np.inf), np.zeros(n)
    for j, (lo, hi) in var_bounds.items():
        var_lo[j], var_hi[j] = lo, hi
    var_hi[binaries], integrality[binaries] = 1.0, 1.0
    return c, A, row_lo, row_hi, var_lo, var_hi, integrality


@pytest.mark.parametrize("spec, budget", [
    (CultureSpec("ic", n=20, m=11, seed=3), None),
    (CultureSpec("mixture", n=20, m=12, seed=4), 500),
    (CultureSpec("mallows", n=30, m=14, seed=5, params={"phi": 0.8}), None),
    (CultureSpec("disc", n=20, m=16, seed=2), 2000),
    (CultureSpec("mallows", n=30, m=18, seed=5, params={"phi": 0.8}), None),
])
def test_emit_ilp_solved_by_milp_matches_exact_solvers(spec, budget):
    # an oracle above brute force's reach: HiGHS solves the emitted squared
    # program to a zero gap (each MILP in under about 0.4 s on a 2-core Xeon)
    optimize = pytest.importorskip("scipy.optimize")
    prof = sample_profile(spec)
    c, A, row_lo, row_hi, var_lo, var_hi, integrality = _ilp_arrays(
        emit_ilp(prof, CostSpec(2)))
    ref = optimize.milp(c, constraints=optimize.LinearConstraint(A, row_lo, row_hi),
                        integrality=integrality,
                        bounds=optimize.Bounds(var_lo, var_hi),
                        options={"mip_rel_gap": 0})
    assert ref.status == 0
    optimum = round(ref.fun)
    ic = prof.int_cost()
    res = solve(prof, CostSpec(2))
    assert res.status == "Exact"
    assert res.cost * ic.denom == optimum == ic.cost(res.winners[0], 2)
    if budget is not None:
        heur = solve_bnb(prof, CostSpec(2), node_budget=budget)
        assert heur.status == "Heuristic"
        assert heur.lower_bound * ic.denom <= optimum <= heur.cost * ic.denom


def test_ranking_from_pair_vars():
    values = {"x_1_0": 1, "x_1_2": 1, "x_0_2": 1, "x_0_1": 0, "x_2_0": 0,
              "x_2_1": 0}
    assert ranking_from_pair_vars(values, 3) == (1, 0, 2)


def test_tie_preservation_with_exact_rationals():
    # weights engineered so two rankings tie exactly; floats would miss it
    prof = Profile.from_weights({(0, 1, 2): F(1, 3), (2, 1, 0): F(1, 3),
                                 (1, 0, 2): F(1, 3)})
    res = solve_brute_force(prof, CostSpec(1))
    oracle_winners, _ = brute_oracle(prof, 1)
    assert res.winners == oracle_winners
