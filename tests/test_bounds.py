import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankfair import bounds
from rankfair.bounds import (
    AlphaCurve,
    _group_pieces,
    _margins,
    _mirror,
    _optimality_program,
    _solve_exact,
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
from rankfair.errors import DataError, DimensionError, GuardError
from rankfair import lp as lp_mod
from rankfair.lp import (LinearProgram, LiveTableau, LpSolution, LpWork, parametric_rhs,
                         solve_lp)
from rankfair.sampling import CultureSpec, sample_profile
from rankfair.solver import solve_brute_force, swap_distance_matrix
from test_lp import _highs, _within  # one HiGHS oracle, one alarm


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
    # one guard, at m=5, for every worst-case program
    for program in (worst_profile_single_ranking, alpha_curve, worst_group_curve):
        with pytest.raises(GuardError, match="m=5"):
            program(6)
    # before the focal's length is checked
    with pytest.raises(GuardError, match="m=5"):
        worst_profile_single_ranking(6, (0, 1, 2))


def test_group_curve_checks_m_without_the_margins(monkeypatch):
    # F's pieces are cached per m; after that a group curve builds no
    # m! x m! margin matrix, not even to check m
    worst_group_curve(4, [0.5])

    def never(*args, **kwargs):
        raise AssertionError("built the margins")

    monkeypatch.setattr(bounds, "_margins", never)
    assert worst_group_curve(4, [0.5]).points
    with pytest.raises(GuardError, match="m=5"):
        worst_group_curve(6, [0.5])


# the single-ranking program too: its default focal and target are built
# after the check
@pytest.mark.parametrize("curve", [alpha_curve, worst_group_curve,
                                   worst_profile_single_ranking])
def test_worst_case_curve_refuses_m_before_building_a_ranking(curve):
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="m=5"):
            curve(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_staircase_is_one_pass():
    # 20,000 distinct alphas, each value the largest at its alpha or above
    pts = [((k + 1) / 20_000, (k * 7919 % 20_000) / 20_000) for k in range(20_000)]
    with _within(2):
        curve = bounds._staircase(pts, 5, "GroupWorst")
    assert [a for a, _ in curve.points] == [round(a, 9) for a, _ in pts]
    for k in range(0, 20_000, 997):
        assert curve.points[k][1] == max(v for _, v in pts[k:])


def test_worst_group_curve_sane():
    curve = worst_group_curve(3)
    vals = [v for _, v in curve.points]
    assert all(v >= -1e-9 for v in vals)
    for a, v in curve.points:
        if a > 0:
            assert v <= group_bound(a, 3) + 1e-6
    # below two alternatives there is no ranking to keep optimal
    for m in (1, 0, -3):
        with pytest.raises(DataError):
            worst_group_curve(m, [0.5])


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
    # the closed form needs only the Mahonian counts, so its range is theirs
    assert lower_bound_curve(1, [0.5]).points == ((1.0, 0.5),)
    assert lower_bound_curve(12, [0.5]).points
    with pytest.raises(GuardError):
        lower_bound_curve(13, [0.5])
    for m in (0, -2):
        with pytest.raises(DataError, match="m >= 1"):
            lower_bound_curve(m, [0.5])


def test_curves_check_the_whole_grid_before_the_first_program(monkeypatch):
    _group_pieces.cache_clear()  # so a group curve would have to run its pass
    record = _work_record(monkeypatch)
    for bad in (1.5, -0.25, float("nan")):
        with pytest.raises(DataError, match="grid value"):
            worst_group_curve(3, [0.5, bad])
        with pytest.raises(DataError, match="grid value"):
            lower_bound_curve(3, [0.5, bad])
    assert record["rounds"] == record["passes"] == 0


def test_margins_share_one_read_only_distance_table():
    target = (3, 1, 2, 0)
    rankings, dist, G = _margins(4, target)
    assert _margins(4, (0, 1, 2, 3))[0] is rankings
    assert rankings == tuple(itertools.permutations(range(4)))
    D = swap_distance_matrix(list(rankings))
    t = rankings.index(target)
    assert (dist == D[t]).all()
    assert (G == D * D - (D * D)[:, [t]]).all()
    # every request shares the cached distances, so none can change them
    with pytest.raises(ValueError, match="read-only"):
        dist[0] = 1
    with pytest.raises(GuardError):
        _margins(bounds.LP_GUARD_M + 1, tuple(range(bounds.LP_GUARD_M + 1)))


def _add_unhappy_group_rows(lp: LinearProgram, base: int, dist: np.ndarray,
                            floor: float):
    """Rows making the variables g = base..base+n-1 a group inside the
    weights w, the first n variables (g_i <= w_i), whose mean distance to
    the output is at least floor: sum_i g_i (dist[i] - floor) >= 0."""
    n = len(dist)
    rows = np.zeros((n + 1, lp.n))
    rows[np.arange(n), np.arange(n)] = -1.0
    rows[np.arange(n), base + np.arange(n)] = 1.0
    rows[n, base : base + n] = dist - floor
    lp.add_rows(rows[:n], "<=", 0.0)
    lp.add_rows(rows[n:], ">=", 0.0)


def _lower_bound_program(m, q):
    """The lower-bound program as a dense LinearProgram: one profile w, for
    each candidate output c a group g^c <= w of weight alpha at mean
    distance >= q * dmax from c; maximize alpha."""
    rankings = list(itertools.permutations(range(m)))
    n = len(rankings)
    D = swap_distance_matrix(rankings).astype(float)
    floor = q * max_swap_distance(m)
    nv = n + n * n + 1  # w, g^c per candidate, alpha
    obj = np.zeros(nv)
    obj[-1] = 1.0
    lp = LinearProgram(obj, sense="max")
    row = np.zeros(nv)
    row[:n] = 1.0
    lp.add_row(row, "=", 1.0)
    for c in range(n):
        base = n + c * n
        row = np.zeros(nv)
        row[base : base + n] = 1.0
        row[-1] = -1.0
        lp.add_row(row, "=", 0.0)
        _add_unhappy_group_rows(lp, base, D[:, c], floor)
    return lp


# m = 4 is checked against HiGHS below: the dense simplex takes seconds on
# its 625-row program
@pytest.mark.parametrize("m, grid", [
    (3, [k / 200 for k in range(201)]),
])
def test_lower_bound_curve_closed_form_matches_program(m, grid):
    for q in grid:
        sol = solve_lp(_lower_bound_program(m, q))
        assert sol.status == "Optimal"
        ((alpha, value),) = lower_bound_curve(m, [q]).points
        assert value == q
        assert abs(alpha - sol.objective_value) <= 1e-9


@pytest.mark.parametrize("m, grid", [
    (4, [0.0, 0.2, 0.35, 0.5, 0.8]),
    (5, [0.8]),
])
def test_lower_bound_curve_matches_highs(m, grid):
    # the same program in sparse form, (m! + 1)^2 rows: 14,641 at m = 5,
    # which the dense simplex could not hold
    sparse = pytest.importorskip("scipy.sparse")
    linprog = pytest.importorskip("scipy.optimize").linprog
    rankings = list(itertools.permutations(range(m)))
    n = len(rankings)
    D = swap_distance_matrix(rankings).astype(float)
    nv = n + n * n + 1
    g = n + np.arange(n * n).reshape(n, n)  # g[c, i]: column of g^c_i
    # g^c_i - w_i <= 0, for every c and i
    caps = sparse.csr_matrix((np.r_[-np.ones(n * n), np.ones(n * n)],
                              (np.r_[np.arange(n * n), np.arange(n * n)],
                               np.r_[np.tile(np.arange(n), n), g.ravel()])),
                             shape=(n * n, nv))
    # sum_i w_i = 1 and sum_i g^c_i - alpha = 0, for every c
    eq_rows = sparse.vstack([
        sparse.csr_matrix((np.ones(n), (np.zeros(n), np.arange(n))), shape=(1, nv)),
        sparse.csr_matrix((np.r_[np.ones(n * n), -np.ones(n)],
                           (np.r_[np.repeat(np.arange(n), n), np.arange(n)],
                            np.r_[g.ravel(), np.full(n, nv - 1)])),
                          shape=(n, nv)),
    ])
    assert caps.shape[0] + n + eq_rows.shape[0] == (n + 1) ** 2
    c = np.zeros(nv)
    c[-1] = -1.0
    for q in grid:
        floor = q * max_swap_distance(m)
        # sum_i g^c_i (floor - D[i, c]) <= 0, for every c
        ub_rows = sparse.vstack([caps, sparse.csr_matrix(
            ((floor - D.T).ravel(), (np.repeat(np.arange(n), n), g.ravel())),
            shape=(n, nv))])
        ref = linprog(c, A_ub=ub_rows, b_ub=np.zeros(ub_rows.shape[0]), A_eq=eq_rows,
                      b_eq=np.r_[1.0, np.zeros(n)], bounds=(0, None), method="highs")
        assert ref.status == 0
        ((alpha, value),) = lower_bound_curve(m, [q]).points
        assert value == q
        assert abs(alpha - -ref.fun) <= 1e-9


def _highs_single(m, t):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rankings = list(itertools.permutations(range(m)))
    sq = swap_distance_matrix(rankings).astype(float) ** 2
    n = len(rankings)
    c = np.zeros(n)
    c[0] = -1.0  # the identity, first in lexicographic order
    G = np.delete(sq - sq[:, [t]], t, axis=1)
    ref = linprog(c, A_ub=-G.T, b_ub=np.zeros(n - 1), A_eq=np.ones((1, n)),
                  b_eq=[1.0], bounds=(0, None), method="highs")
    assert ref.status == 0
    return -ref.fun


GOLDEN = Path(__file__).parent / "data" / "worst_case_golden.json"


@pytest.fixture(scope="module")
def golden():
    # as make_worst_case_golden.py wrote it
    return json.loads(GOLDEN.read_text())


# the simplex's work over all targets: pivots, degenerate pivots and
# rounds, the same with one and two BLAS threads
ROW_GENERATION_WORK = {4: (207, 14, 52), 5: (2744, 152, 387)}

# the full work record of every target's result, summed, over the same
# sweep.  The same with one and two BLAS threads; a pivot rule that broke a
# tie another way would move at least one of these counts.  The live
# tableau refactorizes once to load round 1's basis, and again only when
# REFRESH_EVERY updates have piled up across its rounds, which no target's
# rounds reach (the most, an m=5 target's, take 94 pivots).  Each entry is
# (the summed work, the summed rounds)
ROW_GENERATION_RECORD = {
    4: (LpWork(pivots=207, degenerate_pivots=14, bland_pivots=0, cost_shifts=0,
               refactorizations=24), 52),
    5: (LpWork(pivots=2744, degenerate_pivots=152, bland_pivots=0, cost_shifts=0,
               refactorizations=120), 387),
}
# worst_group_curve(4)'s one parametric pass: the cold solve at alpha = 1, the
# pass's own work after it (degenerate: pivots at a breakpoint already
# reached) and the pieces it traced.  The same with one and two BLAS threads
GROUP_PASS_RECORD = dict(
    start=LpWork(pivots=24, degenerate_pivots=11, bland_pivots=0, cost_shifts=0,
                 refactorizations=0),
    walk=LpWork(pivots=86, degenerate_pivots=54, bland_pivots=0, cost_shifts=0,
                refactorizations=1),
    pieces=33,
)


def _work_record(monkeypatch) -> dict:
    """Sum the work of every solve from now on, a row-generation round or a
    `solve_lp` call alike (both are `LiveTableau.solve`), count the solves
    as rounds, and count `bounds`'s parametric passes."""
    record = dict(work=LpWork(), rounds=0, passes=0)
    solve = LiveTableau.solve

    def recorded(live):
        sol = solve(live)
        record["work"] += sol.work
        record["rounds"] += 1
        return sol

    def counted(prog, row):
        record["passes"] += 1
        return parametric_rhs(prog, row)

    monkeypatch.setattr(LiveTableau, "solve", recorded)
    monkeypatch.setattr(bounds, "parametric_rhs", counted)
    return record


@pytest.mark.parametrize("m", [4, 5])
def test_row_generation_matches_highs_with_exact_witnesses(m, golden, monkeypatch):
    focal = tuple(range(m))
    work, rounds = LpWork(), 0
    record = _work_record(monkeypatch)
    for t, target in enumerate(itertools.permutations(range(m))):
        res = worst_profile_single_ranking(m, focal, target)
        work += res.work
        rounds += res.rounds
        assert abs(res.alpha - _highs_single(m, t)) <= 1e-9
        assert str(res.alpha_exact) == golden["alpha_exact"][str(m)]["".join(map(str, target))]
        # every witness is exact: it holds alpha_exact on the focal
        # ranking and keeps the target optimal under the squared cost
        assert res.witness is not None
        assert res.alpha_exact == res.witness.weight(focal)
        assert abs(float(res.alpha_exact) - res.alpha) <= 1e-9
        assert target in solve_brute_force(res.witness).winners
    assert (work.pivots, work.degenerate_pivots, rounds) == ROW_GENERATION_WORK[m]
    assert (work, rounds) == ROW_GENERATION_RECORD[m]
    # the result sums the work of its rounds' solves, and no other solve runs
    assert record == dict(work=work, rounds=rounds, passes=0)


def test_row_generation_curves_match_golden(golden):
    # the exact optima are pinned above; the curves are pinned float for float
    for m in (4, 5):
        assert alpha_curve(m).points == tuple(map(tuple, golden["alpha_curve"][str(m)]))
    for m in (3, 4, 5):
        assert worst_group_curve(m).points == tuple(map(tuple, golden["worst_group_curve"][str(m)]))


def _group_program(m, q):
    """One q's group program, as worst_group_curve solved it before the
    parametric pass: the largest group weight at mean distance >= q * dmax
    from the identity, over the profiles that keep the identity optimal.
    Built here, with the weights w and a group g <= w as its variables, so
    it shares no code with the program `_group_pieces` solves."""
    rankings = list(itertools.permutations(range(m)))
    n = len(rankings)
    D = swap_distance_matrix(rankings).astype(float)
    sq = D * D
    lp = LinearProgram(np.r_[np.zeros(n), np.ones(n)], sense="max")
    lp.add_rows(np.r_[np.ones(n), np.zeros(n)][None], "=", 1.0)
    # the identity, first in lexicographic order, beats every competitor j
    G = np.delete(sq - sq[:, :1], 0, axis=1)
    lp.add_rows(np.c_[G.T, np.zeros_like(G.T)], ">=", 0.0)
    _add_unhappy_group_rows(lp, n, D[:, 0], q * max_swap_distance(m))
    return lp


@pytest.mark.parametrize("m, grid", [
    (3, [k / 200 for k in range(201)]),
    (4, [k / 200 for k in range(201)]),
    (5, [0.0, 0.3, 0.55, 0.8, 1.0]),
])
def test_group_curve_matches_highs_per_q(m, grid):
    for q in grid:
        status, ref = _highs(_group_program(m, q))
        assert status == "Optimal"
        points = worst_group_curve(m, [q]).points
        if ref <= 1e-9:
            assert points == ()
        else:
            ((alpha, value),) = points
            assert value == q
            assert abs(alpha - ref) <= 1e-9


def test_group_pieces_are_shared_read_only_and_concave():
    for m in (3, 4, 5):
        cached = _group_pieces(m)
        assert _group_pieces(m) is cached
        pieces = cached.traced
        # the lookups every request reads, held once: tuples of Python floats
        # (numpy scalars would make each request's arithmetic slower), and the
        # bisection keys -F/alpha past alpha = 0, nondecreasing since F is concave
        lookups = (pieces.breakpoints, pieces.values, pieces.slopes, cached.keys)
        assert all(type(t) is tuple for t in lookups)
        assert all(type(v) is float for t in lookups for v in t)
        assert cached._fields == ("traced", "keys")
        alphas, values, slopes = (np.array(t) for t in lookups[:3])
        assert cached.keys == tuple((-values[1:] / alphas[1:]).tolist())
        assert all(a <= b for a, b in zip(cached.keys, cached.keys[1:]))
        # the pass ends at alpha = 0 exactly, with no sliver of a first piece
        assert pieces.breakpoints[0] == 0.0
        assert alphas[-1] == 1.0 and (np.diff(alphas) > 0).all()
        # F(0) = 0 and F is concave: each piece ends where the next starts, and
        # the slopes fall as alpha grows, from the farthest ranking's distance
        assert abs(values[0]) <= 1e-12
        assert np.allclose(values[:-1] + slopes * np.diff(alphas), values[1:], rtol=0, atol=1e-12)
        assert (np.diff(slopes) <= 1e-9).all()
        assert abs(slopes[0] - max_swap_distance(m)) <= 1e-9
        assert abs(values[-1] - pieces.start.objective_value) <= 1e-12


@pytest.mark.parametrize("m", [3, 4, 5])
def test_group_pass_solves_one_row_per_ranking_and_the_group_row(m, monkeypatch):
    # the group g and the rest h of the profile are the variables, so no
    # g <= w rows: the sum row, the m! - 1 competitors and sum(g) <= alpha
    seen = []
    monkeypatch.setattr(bounds, "parametric_rhs",
                        lambda prog, row: seen.append((prog, row)) or parametric_rhs(prog, row))
    _group_pieces.cache_clear()
    _group_pieces(m)
    ((prog, row),) = seen
    n = math.factorial(m)
    assert prog.A.shape == (n + 1, 2 * n) and row == n
    assert prog.A[row].tolist() == [1.0] * n + [0.0] * n


def test_group_pass_work_record():
    pieces = _group_pieces(4).traced
    assert pieces.start.work == GROUP_PASS_RECORD["start"]
    assert pieces.work == GROUP_PASS_RECORD["walk"]
    assert len(pieces.slopes) == GROUP_PASS_RECORD["pieces"]


# every (row, column) that `lp._pivot` takes over the m=5 row generations
# (the 120 single-ranking targets in order) and then worst_group_curve(4)'s
# cold solve and parametric pass: their count and the SHA-256 of the
# sequence as little-endian int64 pairs.  The same with one and two BLAS
# threads; a change to the simplex that keeps every pivot keeps this digest
PIVOT_PATH = (2744 + 110, "088be3036631bb24a2798b98a87dd17517a25ba313adee4991fedd5864a60a38")


def test_row_generation_and_group_pass_pivot_path(monkeypatch):
    path = []
    pivot = lp_mod._pivot

    def recorded(T, basis, row, col):
        path.append((row, col))
        return pivot(T, basis, row, col)

    monkeypatch.setattr(lp_mod, "_pivot", recorded)
    focal = tuple(range(5))
    for target in itertools.permutations(range(5)):
        worst_profile_single_ranking(5, focal, target)
    _group_pieces.cache_clear()  # so the curve runs its pass
    worst_group_curve(4)
    digest = hashlib.sha256(np.array(path, dtype="<i8").tobytes()).hexdigest()
    assert (len(path), digest) == PIVOT_PATH


def test_group_curve_m5_in_one_pass():
    # one pass of about 0.12 s on one core, where one program per q took 13-16 s
    _group_pieces.cache_clear()
    with _within(3):
        curve = worst_group_curve(5)
    assert len(curve.points) == 101
    assert curve.points[0] == (0.175265554, 1.0)


@pytest.mark.parametrize("corrupt", [
    # twice the weights: every competitor's slack keeps its sign, the sum row breaks
    lambda sol: dataclasses.replace(sol, values=2 * sol.values),
    lambda sol: dataclasses.replace(sol, objective_value=sol.objective_value + 1e-6),
])
def test_single_ranking_refuses_a_corrupted_solution(corrupt, monkeypatch):
    # every round's solution is corrupted; the tableau itself is not
    solve = LiveTableau.solve
    monkeypatch.setattr(LiveTableau, "solve", lambda live: corrupt(solve(live)))
    with pytest.raises(DataError, match="independent verification"):
        worst_profile_single_ranking(4, None, (1, 3, 2, 0))


def test_single_ranking_refuses_a_round_that_is_not_optimal(monkeypatch):
    # every restricted program is feasible and bounded, so a round that is
    # not Optimal is a numerical breakdown: an error, never alpha = 0
    solve, rounds = LiveTableau.solve, []

    def failing(live):
        rounds.append(live)
        return LpSolution("Infeasible") if len(rounds) == 2 else solve(live)

    monkeypatch.setattr(LiveTableau, "solve", failing)
    with pytest.raises(DataError, match="round 2 is Infeasible"):
        worst_profile_single_ranking(4, None, (1, 3, 2, 0))
    assert len(rounds) == 2


def test_row_generation_builds_the_standard_form_once(monkeypatch):
    # every round after the first appends its rows to the live tableau: the
    # whole program's standard form is built once and round 1's basis is the
    # only one refactorized (all its rounds take fewer than REFRESH_EVERY pivots)
    builds = []
    build = lp_mod._standard_form
    monkeypatch.setattr(lp_mod, "_standard_form", lambda prog, rows=slice(None), *args, **kw: (
        rows == slice(None) and builds.append(len(prog.b))) or build(prog, rows, *args, **kw))
    res = worst_profile_single_ranking(5, None, (1, 3, 4, 2, 0))
    assert res.rounds >= 3 and res.alpha_exact == F(9, 20)
    assert builds == [5]  # the sum row and the m - 1 adjacent competitors
    assert res.work.refactorizations == 1


def test_group_pass_builds_the_standard_form_once(monkeypatch):
    # the parametric pass continues the tableau of its cold solve at
    # alpha = 1: one cold tableau, no warm one (its one refactorization
    # rebuilds [A | b] in that tableau's rows)
    builds = []
    init = LiveTableau.__init__
    monkeypatch.setattr(LiveTableau, "__init__",
                        lambda live, *args: builds.append(args) or init(live, *args))
    _group_pieces.cache_clear()
    assert len(_group_pieces(4).traced.slopes) == GROUP_PASS_RECORD["pieces"]
    assert [len(args) for args in builds] == [1]  # the program, no start basis


def test_row_generation_refactorizes_across_rounds(monkeypatch):
    # the refactorization cadence counts every update of the live tableau,
    # pivots and appended rows alike, whatever round or phase it falls in:
    # this target's rounds take 91 pivots, more than REFRESH_EVERY once it
    # is lowered to 50, none of them more than 36
    monkeypatch.setattr(lp_mod, "REFRESH_EVERY", 50)
    run = {"since": 0, "most": 0}
    rounds = []
    pivot, refresh, solve = lp_mod._pivot, lp_mod._refresh, LiveTableau.solve

    def counted_pivot(*args):
        run["since"] += 1
        run["most"] = max(run["most"], run["since"])
        return pivot(*args)

    def counted_refresh(*args):
        run["since"] = 0
        return refresh(*args)

    monkeypatch.setattr(lp_mod, "_pivot", counted_pivot)
    monkeypatch.setattr(lp_mod, "_refresh", counted_refresh)
    monkeypatch.setattr(LiveTableau, "solve",
                        lambda live: rounds.append(solve(live)) or rounds[-1])
    res = worst_profile_single_ranking(5, (0, 1, 2, 3, 4), (2, 4, 0, 3, 1))
    assert max(sol.work.pivots for sol in rounds) < lp_mod.REFRESH_EVERY
    assert res.work.pivots > lp_mod.REFRESH_EVERY
    assert run["most"] <= lp_mod.REFRESH_EVERY
    assert res.work.refactorizations == 2


def test_single_ranking_rankings_must_rank_m_alternatives():
    with pytest.raises(DimensionError, match="focal .* not m=4"):
        worst_profile_single_ranking(4, (0, 1, 2))
    with pytest.raises(DimensionError, match="target .* not m=4"):
        worst_profile_single_ranking(4, None, (0, 1, 2, 3, 4))


def test_mirrored_targets_share_their_optimum():
    m = 4
    focal = tuple(range(m))
    assert _mirror(focal) == focal
    rankings = list(enumerate_rankings(m))
    for a in rankings:
        assert _mirror(_mirror(a)) == a
        for b in rankings:
            assert swap_distance(_mirror(a), _mirror(b)) == swap_distance(a, b)
    # each program solved on its own, not through alpha_curve's reuse
    exact = {t: worst_profile_single_ranking(m, focal, t).alpha_exact
             for t in rankings}
    assert len(exact) == 24 and None not in exact.values()
    assert all(exact[t] == exact[_mirror(t)] for t in rankings)


def test_row_generation_pivots_stay_below_full_programs():
    # row generation with warm starts does less simplex work over all
    # m=5 targets than solving each target's whole program cold
    m = 5
    focal = tuple(range(m))
    targets = list(itertools.permutations(range(m)))
    generated = degenerate = 0
    for target in targets:
        res = worst_profile_single_ranking(m, focal, target)
        assert res.rounds >= 1
        generated += res.work.pivots
        degenerate += res.work.degenerate_pivots
    # 2,744 pivots with one BLAS thread, 152 of them degenerate; without
    # the dual phase's cost perturbation 3,237 and 1,955
    assert generated < 6_000
    assert degenerate < 300
    # pivot counts are nonnegative, so once a prefix of the full programs'
    # total exceeds `generated`, the whole total does
    full = 0
    for target in targets:
        _, dist, G = _margins(m, target)
        obj = np.zeros(len(G))
        obj[0] = 1.0
        full += solve_lp(_optimality_program(obj, G, np.flatnonzero(dist))).work.pivots
        if full > generated:
            break
    assert generated < full


def test_solve_exact_unique_solutions_only():
    assert _solve_exact([[1, 1], [1, -1]], [1, 0]) == [F(1, 2), F(1, 2)]
    # overdetermined but consistent, and a row swap at the first pivot
    assert _solve_exact([[0, 2], [3, 0], [3, 2]], [2, 3, 5]) == [1, 1]
    assert _solve_exact([[1, 1], [2, 2]], [1, 2]) is None  # not unique
    assert _solve_exact([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None  # inconsistent


def _gauss_jordan(A, b):
    """The unique solution of A x = b by Gauss-Jordan elimination in
    Fractions, or None when it has none or more than one."""
    rows = [[F(v) for v in row] + [F(c)] for row, c in zip(A, b)]
    s = len(A[0])
    for c in range(s):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return None  # rank below s: no solution or more than one
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(len(rows)):
            if r != c and rows[r][c]:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    if any(row[s] for row in rows[s:]):
        return None
    return [row[s] for row in rows[:s]]


@st.composite
def _integer_systems(draw):
    """Small integer systems A x = b, square or overdetermined; in some the
    last column is a multiple of the first (singular), and b is A x0 for
    an integer x0 (consistent) or drawn freely (mostly inconsistent once
    overdetermined)."""
    small = st.integers(-3, 3)
    s = draw(st.integers(1, 4))
    k = draw(st.integers(s, s + 2))
    A = draw(st.lists(st.lists(small, min_size=s, max_size=s), min_size=k, max_size=k))
    if s > 1 and draw(st.booleans()):
        f = draw(small)
        for row in A:
            row[-1] = f * row[0]
    if draw(st.booleans()):
        x0 = draw(st.lists(small, min_size=s, max_size=s))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = draw(st.lists(small, min_size=k, max_size=k))
    return A, b


@given(_integer_systems())
@example(([[2, 1], [1, 3]], [1, 1]))  # square, a rational solution
@example(([[1, 2], [2, 4], [1, 0]], [3, 6, 1]))  # overdetermined, consistent
@example(([[1, 2], [2, 4]], [3, 6]))  # singular
@example(([[1, 1], [1, -1], [2, 0]], [2, 0, 3]))  # inconsistent
@settings(max_examples=300, deadline=None)
def test_solve_exact_matches_fraction_gauss_jordan(system):
    assert _solve_exact(*system) == _gauss_jordan(*system)


def test_theoretical_upper_curve_shape():
    curve = theoretical_upper_curve(5)
    alphas = [a for a, _ in curve.points]
    assert alphas == sorted(alphas)
    dmax = max_swap_distance(5)
    for a, v in curve.points:
        # normalized: the closed-form bound divided by the diameter
        assert v == pytest.approx(single_ranking_bound(a, 5) / dmax)
