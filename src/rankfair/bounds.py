"""Proportionality guarantees: closed-form bounds, the worst-group
statistic, and the linear programs that map out worst-case profiles."""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Profile,
    Ranking,
    as_ranking,
    identity_ranking,
    mahonian,
    max_swap_distance,
    reverse_ranking,
    swap_distance,
)
from .errors import DataError, DimensionError, GuardError
from .lp import LinearProgram, LiveTableau, LpWork, ParametricRhs, parametric_rhs, verify_solution
from .solver import solve_brute_force, swap_distance_matrix

LP_GUARD_M = 5
# row generation adds at most this many violated competitor rows per round;
# a row or a weight counts as violated, tight or zero within ROW_TOL
ROW_BATCH = 8
ROW_TOL = 1e-9
UPPER_CURVE_POINTS = 50  # theoretical_upper_curve samples alpha = k / 50
# worst_group_curve: a breakpoint of F counts as fitting a group at mean
# distance >= q * dmax while F(alpha) / alpha falls short of q * dmax by at
# most PIECE_TOL
PIECE_TOL = 1e-12
# the most grid steps `rankfair bounds --grid` takes: the grid is built as a
# list of floats, and a curve reads or computes one point per step
GRID_GUARD_STEPS = 10_000


def single_ranking_bound(alpha: Fraction | float, m: int) -> float:
    """Worst distance any output can sit from a ranking holding weight alpha."""
    alpha = float(alpha)
    if not 0 < alpha <= 1:
        raise DataError(f"alpha must lie in (0, 1], got {alpha}")
    return min(1.0, math.sqrt((1 - alpha) / alpha)) * max_swap_distance(m)


def group_bound(alpha: Fraction | float, m: int) -> float:
    """Worst mean distance between a size-alpha group and any output, exact in m.

    The constant under the square root is the average squared distance
    between two rankings, tied to the Mahonian second moment.
    """
    alpha = float(alpha)
    if not 0 < alpha <= 1:
        raise DataError(f"alpha must lie in (0, 1], got {alpha}")
    dmax = max_swap_distance(m)
    second_moment = dmax * dmax / 4 + (2 * m**3 + 3 * m**2 - 5 * m) / 72
    return math.sqrt(second_moment / alpha)


def mu_alpha(
    profile: Profile, cand: Ranking, alphas: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Mean distance from cand to its unhappiest group of size alpha, exact,
    for each alpha in alphas.

    The maximizing group is found greedily: take weight from the farthest
    support rankings first, splitting the boundary one.  In the integer
    weights of `IntCost`, prefix sums of weight and of weight times
    distance in that order give every alpha with one bisection.
    """
    alphas = [Fraction(a) for a in alphas]
    for a in alphas:
        if not 0 < a <= 1:
            raise DataError(f"alpha must lie in (0, 1], got {a}")
    ic = profile.int_cost()
    far = sorted(zip(ic.dists(as_ranking(cand)), ic.nums), reverse=True)
    weight = list(itertools.accumulate((w for _, w in far), initial=0))
    mass = list(itertools.accumulate((w * d for d, w in far), initial=0))
    out = []
    for a in alphas:
        size = a * ic.denom
        # the first k rankings are taken whole, ranking k gives the rest
        k = bisect.bisect_left(weight, size) - 1
        out.append((mass[k] + (size - weight[k]) * far[k][0]) / size)
    return tuple(out)


@dataclass(frozen=True)
class AlphaCurve:
    """Staircase of (group weight alpha, normalized swap distance) points."""

    points: tuple[tuple[float, float], ...]
    m: int
    kind: str

    def __post_init__(self):
        for a, v in self.points:
            if not 0 < a <= 1 or not -1e-9 <= v <= 1 + 1e-9:
                raise DataError(f"curve point out of range: ({a}, {v})")
        alphas = [a for a, _ in self.points]
        if alphas != sorted(set(alphas)):
            raise DataError("alphas must be strictly increasing")

    def csv(self) -> str:
        """The CSV `rankfair bounds --curve` writes: alpha,value, then a row per point."""
        return "alpha,value\n" + "".join(f"{a:.6f},{v:.6f}\n" for a, v in self.points)

    def value_at(self, alpha: float) -> float:
        """Step interpolation: worst value attainable at group weight >= alpha."""
        vals = [v for a, v in self.points if a >= alpha - 1e-12]
        return max(vals) if vals else 0.0


class WorstCaseResult(NamedTuple):
    alpha: float
    witness: Profile | None
    alpha_exact: Fraction | None
    rounds: int = 0  # row-generation rounds, one `LiveTableau.solve` each
    work: LpWork = LpWork()  # the rounds' `LpSolution.work`, summed


def _solve_exact(A: list[list[int]], b: list[int]) -> list[Fraction] | None:
    """The unique rational solution of the integer system A x = b, or None
    when it has none or more than one.

    Fraction-free (Bareiss) elimination with row swaps keeps every entry an
    integer minor of [A | b], so each division below is exact.  The last
    pivot is the determinant det of the pivot rows, so by Cramer's rule
    det * x is an integer vector: the back substitution finds it in
    integers, with exact divisions too, and only x = (det * x) / det is
    made a Fraction.
    """
    rows = [list(r) + [v] for r, v in zip(A, b)]
    k, s = len(rows), len(A[0])
    prev = 1
    for c in range(s):
        p = next((r for r in range(c, k) if rows[r][c]), None)
        if p is None:
            return None  # a free column: the solution is not unique
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c]
        for r in range(c + 1, k):
            row, f = rows[r], rows[r][c]
            for j in range(c + 1, s + 1):
                row[j] = (piv[c] * row[j] - f * piv[j]) // prev
            row[c] = 0
        prev = piv[c]
    if any(rows[r][s] for r in range(s, k)):
        return None  # inconsistent
    det, N = prev, [0] * s  # N = det * x
    for c in reversed(range(s)):
        row = rows[c]
        N[c] = (det * row[s] - sum(row[j] * N[j] for j in range(c + 1, s))) // row[c]
    return [Fraction(v, det) for v in N]


@functools.cache
def _distances(m: int) -> tuple[tuple[Ranking, ...], np.ndarray, np.ndarray]:
    """The m! rankings in lexicographic order, their swap distance matrix D
    and D * D, built once per m; the arrays are read-only, since every
    caller shares them."""
    rankings = tuple(itertools.permutations(range(m)))
    D = swap_distance_matrix(rankings)
    sq = D * D
    D.flags.writeable = sq.flags.writeable = False
    return rankings, D, sq


def _check_m(m: int) -> None:
    """The one m check of the worst-case programs: below 2 alternatives the
    `DataError` `as_ranking` raises, above LP_GUARD_M the guard."""
    if m < 2:
        as_ranking(range(m))
    if m > LP_GUARD_M:
        raise GuardError(f"worst-case programs are guarded at m={LP_GUARD_M}")


def _margins(m: int, target: Ranking
             ) -> tuple[tuple[Ranking, ...], np.ndarray, np.ndarray]:
    """The m! rankings in lexicographic order, their swap distances to the
    target (ranking t), and the target's integer squared-cost margins
    G = sq - sq[:, t]: weights w keep the target optimal against competitor
    j exactly when w . G[:, j] >= 0.  Every worst-case program is checked
    here by `_check_m`."""
    _check_m(m)
    rankings, D, sq = _distances(m)
    t = rankings.index(target)
    return rankings, D[t], sq - sq[:, t : t + 1]


def _optimality_program(obj: np.ndarray, G: np.ndarray, cols) -> LinearProgram:
    """max obj . x over x >= 0 whose first len(G) entries, the weights w,
    sum to 1, with one row w . G[:, j] >= 0 per competitor j in cols.  Rows
    are zero-padded to len(obj), so a program can add variables and rows;
    they are built and validated as one block."""
    rows = np.zeros((len(cols) + 1, len(obj)))
    rows[0, : len(G)] = 1.0
    rows[1:, : len(G)] = G[:, cols].T
    lp = LinearProgram(obj, sense="max")
    lp.add_rows(rows[:1], "=", 1.0)
    lp.add_rows(rows[1:], ">=", 0.0)
    return lp


def _exact_witness(w: np.ndarray, G: np.ndarray, tight: list[int],
                   rankings: list[Ranking], target: Ranking) -> Profile | None:
    """The exact profile at the vertex the float weights w sit on, if it is
    one, positive, and keeps target optimal under the squared cost.

    The vertex is fixed by the support S = {i : w_i > ROW_TOL} and the
    rows tight at w: its weights solve sum(x) = 1 and x . G[S, j] = 0 for
    each tight row j, exactly in rationals.
    """
    supp = np.flatnonzero(w > ROW_TOL)
    A = [[1] * len(supp)] + G[np.ix_(supp, tight)].T.tolist()
    x = _solve_exact(A, [1] + [0] * len(tight))
    if x is None or min(x) <= 0:
        return None
    witness = Profile.from_weights(zip((rankings[i] for i in supp), x))
    return witness if target in solve_brute_force(witness).winners else None


def worst_profile_single_ranking(
    m: int,
    focal: Ranking | None = None,
    target: Ranking | None = None,
) -> WorstCaseResult:
    """Maximal weight a single ranking can hold while `target` stays optimal.

    The full program has a weight per ranking and one row per competitor
    j: sum_i w_i G[i, j] >= 0 with G[i, j] = sq[i, j] - sq[i, target], the
    target's squared-cost margin over j.  Few of these rows bind, so they
    are generated: the program starts with the sum row and the m-1
    competitors adjacent to the target, and each round solves it, scores
    every competitor at once (slack = w @ G), and adds the ROW_BATCH most
    violated rows not yet in it.  The rounds share one `LiveTableau`:
    round 1 loads the point mass on the target as its basis, and each
    later round appends its rows to the last round's optimal tableau, in
    its basis, and restarts the dual simplex there, so no round runs
    phase 1, rebuilds the standard form or refactorizes to start.  The
    result counts the rounds and sums their work records.  It stops
    when no competitor has slack below -ROW_TOL; the restricted optimum,
    an upper bound on the full one, is then feasible for it and so
    optimal.  That exit test covers the rows never added, at ROW_TOL, and
    `verify_solution` rechecks the final restricted program's rows,
    signs and objective, so the full program is never built.  The
    witness is the exact vertex of the final solution (see
    `_exact_witness`), re-verified with the exact solver; if that fails,
    `witness` and `alpha_exact` are None.  A round that is not Optimal, a
    numerical breakdown, raises DataError, and a focal or target ranking
    of other than m alternatives DimensionError.  Guarded at
    m=LP_GUARD_M, like every worst-case program.
    """
    focal = as_ranking(focal) if focal is not None else identity_ranking(m)
    target = as_ranking(target) if target is not None else reverse_ranking(focal)
    for name, r in (("focal", focal), ("target", target)):
        if len(r) != m:
            raise DimensionError(f"{name} {r} ranks {len(r)} alternatives, not m={m}")
    rankings, dist, G = _margins(m, target)
    n = len(rankings)
    obj = np.zeros(n)
    obj[rankings.index(focal)] = 1.0
    active = np.flatnonzero(dist == 1).tolist()
    # round 1 starts at the point mass on the target, a feasible and
    # nondegenerate vertex: the target's weight is basic in the sum row and
    # each competitor row's slack, G[t, j] = d(t, j)^2 > 0, in its own row
    basis = [rankings.index(target), *range(n, n + len(active))]
    live = LiveTableau(_optimality_program(obj, G, active), basis)
    rounds, work = 0, LpWork()
    while True:
        sol = live.solve()
        rounds += 1
        work += sol.work
        if sol.status != "Optimal":
            # every round's program is feasible (the point mass on the
            # target meets each row, G[t, j] >= 0) and bounded (sum(w) = 1)
            raise DataError(f"numerical breakdown: row-generation round {rounds} "
                            f"is {sol.status}")
        slack = sol.values @ G
        # a row is never added twice, so there are at most n/ROW_BATCH rounds
        violated = slack < -ROW_TOL
        violated[active] = False
        viol = np.flatnonzero(violated)
        if not len(viol):
            break
        new = viol[np.argsort(slack[viol], kind="stable")[:ROW_BATCH]].tolist()
        active += new
        live.add_rows(G[:, new].T, ">=", 0.0)
    # the loop's exit test checked every competitor row at ROW_TOL, the
    # solved program's rows are rechecked here
    if not verify_solution(live.lp, sol):
        raise DataError("simplex output failed independent verification")
    tight = [j for j in active if abs(slack[j]) <= ROW_TOL]
    witness = _exact_witness(sol.values, G, tight, rankings, target)
    alpha_exact = witness.weight(focal) if witness is not None else None
    return WorstCaseResult(float(sol.objective_value), witness, alpha_exact,
                           rounds, work)


def _mirror(r: Ranking) -> Ranking:
    """r with every alternative a relabelled m-1-a, then reversed.

    The map fixes the identity and preserves swap distance, so it carries
    every profile keeping target t optimal to one keeping _mirror(t)
    optimal with the identity's weight unchanged: the two targets' single
    ranking programs have the same optimum.
    """
    return tuple(len(r) - 1 - a for a in reversed(r))


def alpha_curve(m: int) -> AlphaCurve:
    """Worst normalized output distance from a weight-alpha ranking, by alpha.

    One program per target ranking with the focal ranking fixed to the
    identity; the staircase value at alpha is the farthest target still
    attainable with that focal weight.  A target and its `_mirror` share
    their program's optimum, so one program is solved per pair (64 of 120
    at m=5).  m is checked first (`_check_m`), like every worst-case
    program's.
    """
    _check_m(m)
    focal = identity_ranking(m)
    dmax = max_swap_distance(m)
    alpha_of: dict[Ranking, float] = {}
    attained: list[tuple[float, float]] = []  # (alpha_max, normalized distance)
    for target in itertools.permutations(range(m)):
        alpha = alpha_of.get(_mirror(target))
        if alpha is None:
            alpha = worst_profile_single_ranking(m, focal, target).alpha
        alpha_of[target] = alpha
        attained.append((alpha, swap_distance(focal, target) / dmax))
    return _staircase([(a, v) for a, v in attained if a > 1e-9], m,
                      "SingleRankingWorst")


def _checked_grid(grid: Sequence[float] | None) -> list[float]:
    """The curve's q values, k/200 for k = 0..200 by default, refused as a
    whole if any lies outside [0, 1], before any is used."""
    grid = [k / 200 for k in range(0, 201)] if grid is None else list(grid)
    for q in grid:
        if not 0 <= q <= 1:
            raise DataError(f"grid value out of [0,1]: {q}")
    return grid


def _staircase(pts: list[tuple[float, float]], m: int, kind: str) -> AlphaCurve:
    """Flip (alpha, value) program optima into a value-versus-alpha staircase:
    the value at alpha is the largest attained at any alpha' >= alpha."""
    by_alpha: dict[float, float] = {}
    for a, q in pts:
        key = round(a, 9)
        by_alpha[key] = max(by_alpha.get(key, 0.0), q)
    # one pass from the largest alpha down, keeping the running max
    alphas = sorted(by_alpha, reverse=True)
    tops = itertools.accumulate((by_alpha[a] for a in alphas), max)
    return AlphaCurve(tuple(zip(alphas, tops))[::-1], m, kind)


class _GroupPieces(NamedTuple):
    """F's pieces as one parametric pass traced them, and the bisection
    keys for the per-q lookups."""

    traced: ParametricRhs
    keys: tuple[float, ...]  # -F/alpha at breakpoints 1.., nondecreasing


@functools.cache
def _group_pieces(m: int) -> _GroupPieces:
    """F(alpha), the largest total distance sum_i d_i g_i of a group g <= w
    of weight at most alpha, over the profiles w that keep the identity
    ranking optimal, d_i being ranking i's distance to the identity:
    traced for alpha from 1 down to 0 by one parametric pass, once per m.
    Its pieces and keys are tuples of floats, since every caller shares
    them.  The group g = 0 keeps the program feasible down to alpha = 0."""
    rankings, dist, G = _margins(m, identity_ranking(m))
    n = len(rankings)
    # variables: the weights w_0..w_{n-1}, then the group g_0..g_{n-1}
    lp = _optimality_program(np.concatenate([np.zeros(n), dist]), G,
                             np.flatnonzero(dist))
    rows = np.zeros((n + 1, 2 * n))
    rows[np.arange(n), np.arange(n)] = -1.0
    rows[np.arange(n), n + np.arange(n)] = 1.0
    rows[n, n:] = 1.0
    lp.add_rows(rows[:n], "<=", 0.0)  # g_i <= w_i
    lp.add_rows(rows[n:], "<=", 1.0)  # sum(g) <= alpha, from alpha = 1
    traced = parametric_rhs(lp, len(lp.b) - 1)
    # breakpoint 0 is alpha = 0
    keys = tuple(-f / a for a, f in zip(traced.breakpoints[1:], traced.values[1:]))
    return _GroupPieces(traced, keys)


def worst_group_curve(m: int, grid: Sequence[float] | None = None) -> AlphaCurve:
    """Largest group that can sit at mean distance >= q from the optimum.

    For each q the largest weight alpha of a group whose mean distance to
    the optimal identity ranking is at least q (normalized) is
    alpha*(q) = max {alpha in [0, 1] : F(alpha) >= q * dmax * alpha}, F
    from `_group_pieces`.  F is concave and piecewise linear with
    F(0) = 0, so F(alpha) / alpha falls as alpha grows: q's last fitting
    breakpoint is found by bisection over the cached keys, and alpha*(q)
    where F crosses q * dmax * alpha on the next piece.  The result is
    flipped into a value-versus-alpha staircase.  m and every grid value
    are checked before the pass; guarded at m=LP_GUARD_M, like every
    worst-case program.
    """
    _check_m(m)
    grid = _checked_grid(grid)
    traced, keys = _group_pieces(m)
    alphas, values, slopes = traced.breakpoints, traced.values, traced.slopes
    dmax = max_swap_distance(m)
    pts: list[tuple[float, float]] = []
    for q in grid:
        target = q * dmax
        k = bisect.bisect_right(keys, -target + PIECE_TOL)
        if k == len(keys):
            alpha = alphas[-1]
        else:
            a, f, slope = alphas[k], values[k], slopes[k]
            over = f - target * a  # >= -PIECE_TOL * a: breakpoint k fits
            alpha = a + max(over, 0.0) / (target - slope) if target > slope else a
        if alpha > 1e-9:
            pts.append((alpha, q))
    return _staircase(pts, m, "GroupWorst")


def lower_bound_curve(m: int, grid: Sequence[float] | None = None) -> AlphaCurve:
    """Largest group weight that some profile makes unhappy under every output.

    A rule-independent floor.  As a program it picks one profile w and,
    for every candidate output c, a group g^c <= w of weight alpha whose
    mean distance to c is at least q * dmax, and maximizes alpha.  It is
    solved in closed form by symmetry: relabelling the alternatives
    permutes the rankings transitively and preserves swap distance, so it
    maps feasible solutions to feasible ones with the same alpha, and
    their average over all m! relabellings is feasible (the program is
    convex) with the uniform profile.  Under the uniform profile every
    candidate sees the same distance distribution, the Mahonian counts, so
    the optimum is the largest group of the uniform profile whose mean
    distance to one fixed ranking is at least q * dmax.  That group takes
    whole distance classes from the far end and splits the boundary class;
    it is computed exactly in Fractions, q taken as its exact binary value.
    `mahonian` caps m at MAHONIAN_CAP.
    """
    counts = mahonian(m)
    grid = _checked_grid(grid)
    dmax = max_swap_distance(m)
    pts: list[tuple[float, float]] = []
    for q in grid:
        floor = Fraction(q) * dmax
        size = excess = Fraction(0)  # group size in rankings, its sum of d - floor
        for d in range(dmax, -1, -1):
            gain = counts[d] * (d - floor)
            if excess + gain < 0:
                size += excess / (floor - d)
                break
            size += counts[d]
            excess += gain
        pts.append((float(size / math.factorial(m)), q))
    return _staircase(pts, m, "GroupLowerBound")


def theoretical_upper_curve(m: int) -> AlphaCurve:
    """The closed-form single-ranking cap as a plot-ready curve."""
    pts = []
    dmax = max_swap_distance(m)
    for k in range(1, UPPER_CURVE_POINTS + 1):
        a = k / UPPER_CURVE_POINTS
        pts.append((a, single_ranking_bound(a, m) / dmax))
    return AlphaCurve(tuple(pts), m, "TheoreticalUpper")
