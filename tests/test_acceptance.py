"""End-to-end release checks: one test per acceptance criterion.

Each test is self-contained and uses independent arithmetic (exact
rationals, closed forms, or exhaustive enumeration) to validate the
library outputs.
"""

import csv
import functools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from rankfair.axioms import (
    find_single_crossing_order,
    is_single_crossing,
    check_reinforcement_instance,
    sc_proportional_expected_exhaustive,
    sqk_satisfies_2rp,
)
from rankfair.bounds import (
    alpha_curve,
    group_bound,
    mu_alpha,
    single_ranking_bound,
    worst_profile_single_ranking,
)
from rankfair.core import (
    Profile,
    enumerate_rankings,
    identity_ranking,
    mahonian,
    max_swap_distance,
    reverse_ranking,
    swap_distance,
)
from rankfair.embed import classical_mds
from rankfair.experiments import (
    ExperimentSpec,
    city_profile,
    city_rankings,
    divergence_profile,
    hotel_profile,
    load_data,
    load_profile,
    published_city_columns,
    run_experiment,
    single_crossing_fixture,
)
from rankfair.sampling import CultureSpec, make_rng, sample_profile
from rankfair.solver import (
    CostSpec,
    approx_best_input,
    local_search,
    solve_bnb,
    solve_brute_force,
    solve_kemeny_dp,
    swap_distance_matrix,
)


def _mixed_profiles(count, rng, m_lo=2, m_hi=6, n_lo=3, n_hi=12):
    kinds = ("ic", "mallows", "mixture", "disc", "circle", "gaussians")
    for k in range(count):
        kind = kinds[k % len(kinds)]
        m = int(rng.integers(m_lo, m_hi + 1))
        n = int(rng.integers(n_lo, n_hi + 1))
        params = {"phi": 0.5} if kind == "mallows" else {}
        yield sample_profile(
            CultureSpec(kind, n=n, m=m, seed=int(rng.integers(2**31)),
                        params=params))


@functools.cache
def _all_distances(m):
    rankings = list(enumerate_rankings(m))
    return {r: i for i, r in enumerate(rankings)}, swap_distance_matrix(rankings)


def _undominated(profile, winner):
    """Vectorized: no ranking is weakly closer to every input ranking."""
    index, D = _all_distances(profile.m)
    D = D[[index[r] for r in profile.support()]]
    dw = D[:, index[winner]]
    le = (D <= dw[:, None]).all(axis=0)
    lt = (D < dw[:, None]).any(axis=0)
    return not bool((le & lt).any())


def test_three_alternative_fixtures_exact():
    r1 = load_profile("profile_r1")
    res1 = solve_brute_force(r1, CostSpec(2))
    assert res1.winners == ((0, 1, 2),)
    r2 = load_profile("profile_r2")
    res2 = solve_brute_force(r2, CostSpec(2))
    assert res2.winners == ((1, 0, 2),)


def test_worst_case_m4_profile_and_alpha():
    prof = load_profile("extremal_m4")
    res = solve_brute_force(prof, CostSpec(2))
    assert reverse_ranking(identity_ranking(4)) in res.winners
    wc = worst_profile_single_ranking(4)
    assert abs(float(wc.alpha_exact) - 0.175) <= 1e-6
    assert wc.alpha_exact == F(7, 40)
    # the witness must actually attain the extremal weight
    assert wc.witness.weight(identity_ranking(4)) == wc.alpha_exact
    wit_res = solve_brute_force(wc.witness, CostSpec(2))
    assert reverse_ranking(identity_ranking(4)) in wit_res.winners


def test_worst_case_m5_profile_and_alpha():
    prof = load_profile("extremal_m5")
    res = solve_brute_force(prof, CostSpec(2))
    assert reverse_ranking(identity_ranking(5)) in res.winners
    wc = worst_profile_single_ranking(5)
    assert abs(float(wc.alpha_exact) - 231 / 1318) <= 1e-6
    assert wc.alpha_exact == F(231, 1318)
    wit_res = solve_brute_force(wc.witness, CostSpec(2))
    assert reverse_ranking(identity_ranking(5)) in wit_res.winners


def test_hotel_interpolation_path():
    data = load_data("hotels")
    price = tuple(data["price"])
    score = tuple(data["score"])
    assert swap_distance(price, score) == 10
    path = [price]
    for w in range(9, 0, -1):
        res = solve_brute_force(hotel_profile(F(w, 10)), CostSpec(2))
        # among tied optima pick the one adjacent to the previous step
        pick = min(res.winners, key=lambda r: swap_distance(r, path[-1]))
        # proportionality: disagreement with the price ranking grows one
        # pair per 10 points of weight shifted to the review score
        assert swap_distance(pick, price) == 10 - w
        path.append(pick)
    path.append(score)
    assert all(swap_distance(a, b) == 1 for a, b in zip(path, path[1:]))
    assert is_single_crossing(tuple(path))


def test_single_crossing_locations_fixture():
    prof, seq = single_crossing_fixture()
    assert solve_brute_force(prof, CostSpec(2)).winners == (seq[4],)
    assert solve_brute_force(prof, CostSpec(1)).winners == (seq[2],)


def test_alpha_staircases():
    for m in (4, 5):
        curve = alpha_curve(m)
        dmax = max_swap_distance(m)
        vals = [v for _, v in curve.points]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
        for a, v in curve.points:
            cap = min(1.0, math.sqrt((1 - a) / a)) if a < 1 else 0.0
            assert v <= cap + 1e-9
            assert v <= single_ranking_bound(a, m) / dmax + 1e-9


def test_mahonian_second_moment_identity():
    for m in range(3, 9):
        counts = mahonian(m)
        lhs = sum(F(c) * i * i for i, c in enumerate(counts))
        pairs = F(m * (m - 1), 2)
        rhs = math.factorial(m) * (
            pairs * pairs / 4 + F(2 * m**3 + 3 * m**2 - 5 * m, 72))
        assert lhs == rhs
        if m <= 7:
            ident = identity_ranking(m)
            brute = sum(
                swap_distance(r, ident) ** 2 for r in enumerate_rankings(m))
            assert lhs == brute


def test_property_sweeps():
    rng = make_rng(2024)
    # distance bounds and efficiency on mixed-culture profiles
    for prof in _mixed_profiles(1000, rng):
        res = solve_brute_force(prof, CostSpec(2))
        w = res.winner
        for r in prof.support():
            assert swap_distance(r, w) <= \
                single_ranking_bound(prof.weight(r), prof.m) + 1e-9
        for a in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            assert float(mu_alpha(prof, w, [a])[0]) <= group_bound(a, prof.m) + 1e-9
        for win in res.winners:
            assert _undominated(prof, win)
    # merging two electorates keeps exactly the shared optima
    for k in range(1000):
        m = int(rng.integers(2, 7))
        p1 = sample_profile(CultureSpec("ic", n=4, m=m,
                                        seed=int(rng.integers(2**31))))
        p2 = sample_profile(CultureSpec("ic", n=4, m=m,
                                        seed=int(rng.integers(2**31))))
        lam = F(int(rng.integers(1, 10)), 10)
        assert check_reinforcement_instance(p1, p2, lam, CostSpec(2))
    # proportionality on two-ranking profiles
    for k in range(1000):
        m = int(rng.integers(2, 7))
        r1 = tuple(int(x) for x in rng.permutation(m))
        r2 = tuple(int(x) for x in rng.permutation(m))
        if r1 == r2:
            continue
        wgt = F(int(rng.integers(1, 100)), 100)
        prof = Profile.from_weights({r1: wgt, r2: 1 - wgt})
        assert sqk_satisfies_2rp(prof)
    # proportionality on single-crossing profiles: the optima equal the
    # union of rounded mean locations over all compatible sequences
    from rankfair.axioms import build_swap_path
    for k in range(1000):
        m = int(rng.integers(3, 6))
        seq = build_swap_path(identity_ranking(m),
                              reverse_ranking(identity_ranking(m)))
        k_vot = int(rng.integers(2, 5))
        locs = sorted(rng.choice(len(seq), size=k_vot, replace=False).tolist())
        raw = [int(rng.integers(1, 10)) for _ in range(k_vot)]
        tot = sum(raw)
        prof = Profile.from_weights(
            {seq[loc]: F(x, tot) for loc, x in zip(locs, raw)})
        union = sc_proportional_expected_exhaustive(prof)
        assert union is not None
        assert union == set(solve_brute_force(prof, CostSpec(2)).winners)


def test_approximation_ratios():
    rng = make_rng(77)
    for prof in _mixed_profiles(500, rng):
        opt = solve_brute_force(prof, CostSpec(2)).cost
        best_in = prof.power_cost(approx_best_input(prof), 2)
        kem = solve_brute_force(prof, CostSpec(1)).winner
        kem_cost = prof.power_cost(kem, 2)
        assert best_in <= 4 * opt
        assert kem_cost <= 2 * opt


def test_divergence_profile():
    prof = divergence_profile()
    ident = identity_ranking(5)
    assert solve_brute_force(prof, CostSpec(1)).winners == (ident,)
    sq = solve_brute_force(prof, CostSpec(2))
    assert all(swap_distance(w, ident) == 9 for w in sq.winners)


def test_city_table_reproduction(tmp_path):
    prof = city_profile()
    pub_lin, pub_sq = published_city_columns()
    res = solve_bnb(prof, CostSpec(1), find_all_ties=True)
    assert res.status == "Exact"
    assert res.cost == prof.kemeny_cost(pub_lin)
    assert pub_lin in res.winners
    # the squared-cost column is a strict improvement under squared cost
    # and no single adjacent swap improves it further
    assert prof.power_cost(pub_sq, 2) < prof.power_cost(pub_lin, 2)
    assert local_search(prof, pub_sq, CostSpec(2)) == pub_sq
    budgeted = solve_bnb(prof, CostSpec(2), node_budget=20000)
    assert budgeted.status in ("Exact", "Heuristic")
    assert budgeted.lower_bound <= budgeted.cost
    # the reported bound must stay consistent with the published column
    # possibly being optimal
    assert budgeted.lower_bound <= prof.power_cost(pub_sq, 2)
    # the published squared column is the one optimal ranking
    exact = solve_bnb(prof, CostSpec(2), find_all_ties=True)
    assert (exact.status, exact.ties_complete) == ("Exact", True)
    assert exact.winners == (pub_sq,)
    assert exact.cost == prof.power_cost(pub_sq, 2)
    report = run_experiment(ExperimentSpec("CityRanking", out_dir=tmp_path))["report"]
    assert (report["squared_status"], report["squared_gap"]) == ("Exact", "0")
    # the linear column: four tied optima, and the one the GDP bump picks
    # is the published column, which the CSV lists
    assert (report["linear_status"], report["linear_cost"]) == ("Exact", "733/10")
    assert report["linear_tie_count"] == 4
    assert report["perturbed_pick_matches_published"] is True
    labels, _ = city_rankings()
    with open(tmp_path / "city_ranking.csv", newline="") as f:
        table = list(csv.DictReader(f))
    assert [r["linear_cost_rule"] for r in table] == [labels[a] for a in pub_lin]
    assert [r["squared_cost_rule"] for r in table] == [labels[a] for a in pub_sq]


def test_disc_culture_group_distance_direction():
    grid = [F(k, 20) for k in range(1, 21)]
    sums_sq = {a: 0.0 for a in grid}
    sums_kem = {a: 0.0 for a in grid}
    for t in range(100):
        prof = sample_profile(CultureSpec("disc", n=50, m=8, seed=9000 + t))
        w_sq = solve_brute_force(prof, CostSpec(2)).winner
        w_kem = solve_brute_force(prof, CostSpec(1)).winner
        for a, mu_sq, mu_kem in zip(
                grid, mu_alpha(prof, w_sq, grid), mu_alpha(prof, w_kem, grid)):
            sums_sq[a] += float(mu_sq)
            sums_kem[a] += float(mu_kem)
    for a in grid:
        if a <= F(3, 5):
            assert sums_sq[a] <= sums_kem[a]
        if a >= F(19, 20):
            assert sums_sq[a] >= sums_kem[a]


def test_solver_oracle_equivalence():
    rng = make_rng(1311)
    for prof in _mixed_profiles(200, rng, m_hi=7):
        for p in (1, 2):
            brute = solve_brute_force(prof, CostSpec(p))
            bnb = solve_bnb(prof, CostSpec(p))
            assert bnb.cost == brute.cost
            assert bnb.winners == brute.winners
        dp = solve_kemeny_dp(prof)
        assert dp.cost == solve_brute_force(prof, CostSpec(1)).cost


def test_mds_self_consistency():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(4, 15))
        X = rng.normal(size=(n, 2))
        D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        emb = classical_mds(D)
        # rigid alignment by orthogonal Procrustes after centering
        A = X - X.mean(axis=0)
        B = emb.coords - emb.coords.mean(axis=0)
        U, _, Vt = np.linalg.svd(B.T @ A)
        resid = float(np.linalg.norm(B @ (U @ Vt) - A))
        assert resid <= 1e-6
