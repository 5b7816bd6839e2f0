import itertools
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankfair import solver
from rankfair.core import Profile, enumerate_rankings, max_swap_distance, swap_distance
from rankfair.errors import DataError, GuardError
from rankfair.experiments import city_profile
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
    """Independent optimum: exact rational cost of every ranking."""
    best = None
    winners = []
    for cand in enumerate_rankings(profile.m):
        c = profile.power_cost(cand, p)
        if best is None or c < best:
            best, winners = c, [cand]
        elif c == best:
            winners.append(cand)
    return tuple(winners), best


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
    # rankings halfway between them, spread over many prefix blocks
    ident = tuple(range(m))
    prof = Profile.from_weights({ident: F(1, 2), ident[::-1]: F(1, 2)})
    res = solve_brute_force(prof, CostSpec(2))
    assert (res.winners, res.cost) == brute_oracle(prof, 2)
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
    solver._TABLES.clear()
    solver._blocks.cache_clear()
    tracemalloc.start()
    try:
        res = solve_brute_force(prof, CostSpec(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert res.cost == prof.power_cost(res.winner, 2)


def test_brute_force_caches_no_table_above_7():
    solve_brute_force(sample_profile(CultureSpec("ic", n=4, m=9, seed=9)))
    assert max(solver._TABLES) <= 7
    assert all(len(orders) <= 5040 for orders, _ in solver._TABLES.values())
    with pytest.raises(GuardError):
        _ranking_table(8)


def test_brute_force_guard():
    prof = Profile.from_weights({tuple(range(11)): F(1)})
    with pytest.raises(GuardError):
        solve_brute_force(prof)


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
        assert ic.nums == nums and ic.dtype(p, pair_bound=True) is dtype
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


@pytest.mark.parametrize("m", range(1, 10))
def test_ranking_table_is_lexicographic(m):
    # brute force's blocks, each prefix followed by rest[orders], list all
    # m! rankings in lexicographic order
    pre, rest, cols = _blocks(m)
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


def test_solve_dispatch():
    prof = Profile.from_weights({(0, 1, 2): F(3, 5), (2, 1, 0): F(2, 5)})
    assert solve(prof, CostSpec(1)).winner == (0, 1, 2)
    with pytest.raises(DataError):
        solve(prof, CostSpec(2), method="kemeny_dp")
    with pytest.raises(DataError):
        solve(prof, method="nope")


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


def test_approx_best_input():
    prof = Profile.from_weights({(0, 1, 2): F(3, 5), (2, 1, 0): F(2, 5)})
    assert approx_best_input(prof) == (0, 1, 2)


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
    # m=3: 3 completeness equalities, 6 triangle rows, tangents at 0,1,2
    assert sum(1 for ln in lines if ln.startswith(" comp_")) == 3
    assert sum(1 for ln in lines if ln.startswith(" tri_")) == 6
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
