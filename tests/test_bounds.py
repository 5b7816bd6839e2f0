import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from rankfair.bounds import (
    AlphaCurve,
    alpha_curve,
    group_bound,
    lower_bound_curve,
    mu_alpha,
    single_ranking_bound,
    theoretical_upper_curve,
    worst_group_curve,
    worst_profile_single_ranking,
)
from rankfair.core import (
    Profile,
    enumerate_rankings,
    mahonian,
    max_swap_distance,
    reverse_ranking,
    swap_distance,
)
from rankfair.errors import DataError, GuardError
from rankfair.sampling import CultureSpec, sample_profile
from rankfair.solver import solve_brute_force


def test_single_ranking_bound_closed_form():
    # below weight 1/2 the factor caps at the full diameter
    assert single_ranking_bound(F(1, 4), 4) == pytest.approx(6.0)
    assert single_ranking_bound(F(1, 2), 4) == pytest.approx(6.0)
    # above 1/2 the sqrt factor bites: sqrt((1-a)/a) * 6
    assert single_ranking_bound(F(9, 10), 4) == pytest.approx(
        math.sqrt(1 / 9) * 6)
    assert single_ranking_bound(1, 4) == pytest.approx(0.0)
    with pytest.raises(DataError):
        single_ranking_bound(0, 4)


def test_group_bound_second_moment_matches_mahonian():
    # the constant under the root is the mean squared distance between
    # two uniform random rankings; recompute it from the Mahonian counts
    for m in range(2, 8):
        dmax = max_swap_distance(m)
        counts = mahonian(m)
        fact = math.factorial(m)
        mean_sq = sum(d * d * c for d, c in enumerate(counts)) / fact
        assert group_bound(1, m) == pytest.approx(math.sqrt(mean_sq))
        assert group_bound(F(1, 4), m) == pytest.approx(
            math.sqrt(mean_sq / 0.25))
    assert group_bound(F(1, 2), 3) > 0


def test_mu_alpha_full_group_is_mean_distance():
    prof = Profile.from_weights({(0, 1, 2): F(1, 2), (2, 1, 0): F(1, 2)})
    assert mu_alpha(prof, (0, 1, 2), [F(1)]) == (F(3, 2),)
    # the unhappiest half sits entirely on the far ranking
    assert mu_alpha(prof, (0, 1, 2), [F(1, 2)]) == (3,)
    assert mu_alpha(prof, (0, 1, 2), [F(1, 2), F(1), F(1, 4)]) == (3, F(3, 2), 3)
    assert mu_alpha(prof, (0, 1, 2), []) == ()
    for bad in ([F(0)], [F(3, 2)], [F(1, 2), -1]):
        with pytest.raises(DataError):
            mu_alpha(prof, (0, 1, 2), bad)


def test_mu_alpha_brute_oracle():
    # compare the greedy fill against explicit enumeration of extreme
    # groups: the maximizer always takes whole far rankings plus one
    # fractional boundary ranking, so checking all orderings suffices
    rng = np.random.default_rng(21)
    for t in range(20):
        prof = sample_profile(CultureSpec("ic", n=4, m=4, seed=800 + t))
        cand = tuple(int(x) for x in rng.permutation(4))
        alpha = F(int(rng.integers(1, 8)), 8)
        (greedy,) = mu_alpha(prof, cand, [alpha])
        best = F(0)
        items = list(prof.entries.items())
        for perm in itertools.permutations(range(len(items))):
            left = alpha
            tot = F(0)
            for i in perm:
                r, w = items[i]
                take = min(w, left)
                tot += take * swap_distance(r, cand)
                left -= take
                if left == 0:
                    break
            best = max(best, tot / alpha)
        assert greedy == best


def test_mu_alpha_never_exceeds_group_bound_at_optimum():
    for t in range(15):
        prof = sample_profile(CultureSpec("ic", n=6, m=4, seed=1500 + t))
        winner = solve_brute_force(prof).winner
        for alpha in (F(1, 4), F(1, 2), F(3, 4)):
            assert float(mu_alpha(prof, winner, [alpha])[0]) <= \
                group_bound(alpha, 4) + 1e-9


def test_alpha_curve_value_at():
    # value_at reports the worst value over points with weight >= alpha
    curve = AlphaCurve(points=((0.5, 0.8), (0.75, 0.2)), m=3, kind="test")
    assert curve.value_at(0.5) == 0.8
    assert curve.value_at(0.6) == 0.2
    assert curve.value_at(0.8) == 0.0
    assert curve.value_at(0.75) == 0.2


def test_worst_profile_exact_values_and_witness():
    for m, want in ((2, F(1, 2)), (3, F(1, 6)), (4, F(7, 40))):
        res = worst_profile_single_ranking(m)
        assert res.alpha_exact == want
        # the witness must actually make the reverse ranking optimal
        # while the focal identity ranking holds the claimed weight
        wit = res.witness
        assert wit.weight(tuple(range(m))) == want
        winners = solve_brute_force(wit).winners
        assert reverse_ranking(tuple(range(m))) in winners


def test_worst_profile_guard():
    with pytest.raises(GuardError):
        worst_profile_single_ranking(7, allow_large=True)
    with pytest.raises(GuardError):
        worst_profile_single_ranking(6)


def test_alpha_curve_staircase():
    curve = alpha_curve(4)
    alphas = [a for a, _ in curve.points]
    vals = [v for _, v in curve.points]
    assert alphas == sorted(alphas)
    assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    # the achievable worst distance never beats the proved upper bound
    for a, v in curve.points:
        if a > 0:
            assert v <= single_ranking_bound(a, 4) / max_swap_distance(4) + 1e-9
    # at alpha just above the threshold nothing but identity is optimal
    assert curve.value_at(0.99) == pytest.approx(0.0)


def test_worst_group_curve_sane():
    curve = worst_group_curve(3)
    vals = [v for _, v in curve.points]
    assert all(v >= -1e-9 for v in vals)
    for a, v in curve.points:
        if a > 0:
            assert v <= group_bound(a, 3) + 1e-6


@pytest.mark.parametrize(
    "q, alpha", [(0.2, 1.0), (0.5, 1.0), (0.8, 0.416666667)]
)
def test_lower_bound_curve_m3(q, alpha):
    curve = lower_bound_curve(3, [q])
    assert curve.points == ((alpha, q),)
    assert curve.kind == "GroupLowerBound"
    # the floor holds under every output, the squared-cost optimum among
    # them, so it cannot exceed the worst group at that optimum
    (group_alpha, _), = worst_group_curve(3, [q]).points
    assert alpha <= group_alpha + 1e-9


def test_lower_bound_curve_guard():
    # at m=5 the dense program alone is 14,641 rows by 14,521 variables
    with pytest.raises(GuardError):
        lower_bound_curve(5, [0.5])


def test_theoretical_upper_curve_shape():
    curve = theoretical_upper_curve(5)
    alphas = [a for a, _ in curve.points]
    assert alphas == sorted(alphas)
    dmax = max_swap_distance(5)
    for a, v in curve.points:
        # normalized: the closed-form bound divided by the diameter
        assert v == pytest.approx(single_ranking_bound(a, 5) / dmax)
