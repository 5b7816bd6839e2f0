"""Exact and heuristic optimizers for power-of-swap-distance aggregation.

All solvers compare integer costs: they read the profile's weights scaled
by their common denominator (`Profile.nums` over `Profile.denom`) and the
pair signs of its support (`Profile.signs`), so ties are decided exactly,
never by float rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (Profile, Ranking, as_ranking, max_swap_distance, pair_indices,
                   pair_signs, positions)
from .errors import DataError, GuardError

BRUTE_FORCE_GUARD = 10
# per-voter brute force scores support x m! (ranking, voter) pairs, about
# 4-5 ns each on one core of a 2-vCPU Xeon VM: 2^31 of them take about 9 s
VOTER_PAIRS_GUARD = 2**31
DP_GUARD = 20
BNB_GUARD = 40
# solvers report at most this many tied winners; they collect one more so
# that ties_complete=False says exactly that an optimal ranking was left out
TIE_ENUMERATION_CAP = 10_000
# brute force scores the last _SUFFIX places of a ranking against one cached
# table of their orders, in row blocks of about _BLOCK_ENTRIES matrix entries
_SUFFIX = 7
_BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class CostSpec:
    """Which power of the swap distance a solver should minimize."""

    exponent: int = 2

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise DataError(f"exponent must be an integer >= 1, got {self.exponent}")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    winners is the full set of optimal rankings when status is "Exact"
    and ties were tracked, otherwise at least one best ranking found.
    Once the tie set is capped (ties_complete=False with status "Exact"),
    winners holds the first `TIE_ENUMERATION_CAP` optimal rankings the
    method's search reached, listed in sorted order: for brute force the
    lexicographically first, for the DP the first its backtrack reaches,
    and for branch and bound the first its depth-first search reaches.
    """

    winners: tuple[Ranking, ...]
    cost: Fraction
    status: str
    method: str
    lower_bound: Fraction = None
    nodes: int = 0
    ties_complete: bool = True

    def __post_init__(self):
        if self.lower_bound is None:
            object.__setattr__(self, "lower_bound", self.cost)

    @property
    def winner(self) -> Ranking:
        return self.winners[0]


def _result(found: list[Ranking], cost: int, lower: int, denom: int, method: str,
            status: str, *, tracked: bool, nodes: int) -> SolveResult:
    """The `SolveResult` of a solver run, from the optimal rankings in the
    order the solver reached them (it stops at `TIE_ENUMERATION_CAP` + 1),
    and its integer cost and lower bound over the profile's denominator.
    The tie set is complete when ties were tracked and no more than the cap
    were found; the first cap of them are the winners, in sorted order.
    """
    return SolveResult(
        winners=tuple(sorted(found[:TIE_ENUMERATION_CAP])),
        cost=Fraction(cost, denom),
        status=status,
        method=method,
        lower_bound=Fraction(lower, denom),
        nodes=nodes,
        ties_complete=tracked and len(found) <= TIE_ENUMERATION_CAP,
    )


@functools.cache
def _ranking_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All m! rankings in lexicographic order (int8 rows) and their pair signs
    (float32, the type brute force multiplies in); m <= 7."""
    if m > _SUFFIX:
        raise GuardError(f"ranking tables stop at m={_SUFFIX}, got {m}")
    # the k! orders of 0..k-1 lead with f = 0, 1, ..., k-1, each followed
    # by the (k-1)! orders of the rest: 0..k-2 shifted past f keep their order
    orders = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m + 1):
        orders = np.concatenate([
            np.hstack([np.full((len(orders), 1), f, dtype=np.int8),
                       orders + (orders >= f)])
            for f in range(k)
        ])
    return orders, pair_signs(np.argsort(orders, axis=1)).astype(np.float32)


@functools.cache
def _blocks(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The m! rankings of 0..m-1 as m!/r! lexicographic blocks, r = min(m, 7).

    Block b is the ordered prefix pre[b] (k = m - r alternatives, in
    itertools order) followed by rest[b][orders] for the orders of the r!
    table, rest[b] being the other alternatives in increasing order.
    F[b] (int8) holds the signs every ranking of the block gives the pairs
    of 0..m-1 with a prefix member, and 0 on the others, rest[b]'s pairs,
    whose columns, in order, are cols[b].
    """
    k = max(0, m - _SUFFIX)
    pre = np.array(list(itertools.permutations(range(m), k)), dtype=np.intp)
    place = np.full((len(pre), m), k)
    np.put_along_axis(place, pre, np.arange(k), axis=1)
    rest = np.argsort(place, axis=1, kind="stable")[:, k:]
    i, j = pair_indices(m)
    F = np.sign(place[:, j] - place[:, i]).astype(np.int8)
    return pre, rest, np.nonzero(F == 0)[1].reshape(len(pre), -1), F


def swap_distance_matrix(rankings: list[Ranking]) -> np.ndarray:
    """All-pairs swap distances of rankings over one m, in integers.

    Two rankings agree on P - d pairs and disagree on d, so the dot
    product of their pair signs is P - 2d.  The product runs through BLAS in
    float64, which holds every partial sum of P terms of +-1 exactly.
    """
    S = pair_signs(np.argsort(np.array(rankings), axis=1)).astype(np.float64)
    return (S.shape[1] - (S @ S.T).astype(np.int64)) // 2


def _voter_costs(profile: Profile, p: int, F: np.ndarray, cols: np.ndarray,
                 signs: np.ndarray):
    """Per block, the integer costs of its rankings (one buffer, refilled),
    from per-voter distances.

    Voter v, with pair signs x_v, is (P - x_v.F[b] - t.x_v[cols[b]]) / 2
    from the block's ranking whose suffix has pair signs t: the offset
    (P - X F[b]) / 2, one product per block, plus signs @ (-votes / 2):
    every partial sum is a half-integer of magnitude at most P, exact in
    float32 while P < 2^23, which BLAS multiplies.
    """
    dtype = profile.cost_dtype(p)
    nums = np.array(profile.nums, dtype=dtype)
    half = profile.signs.T * np.float32(-0.5)
    F = F.astype(np.float32)
    rows = max(1, _BLOCK_ENTRIES // (cols.shape[1] + len(nums)))
    total = np.empty(len(signs), dtype=dtype)
    for b in range(len(cols)):
        votes = half[cols[b]]
        offset = F[b] @ half + half.shape[0] / 2
        for s in range(0, len(signs), rows):
            dist = signs[s : s + rows] @ votes
            dist += offset
            d = dist.astype(np.int64).astype(dtype, copy=False)
            total[s : s + rows] = d**p @ nums
        yield total


def _moment_costs(profile: Profile, p: int, F: np.ndarray, cols: np.ndarray,
                  signs: np.ndarray):
    """Per block, 2^p times the integer costs of its rankings (p = 1 or 2; one
    buffer, refilled), from the profile's pair votes and pair-pair moments.

    With x_v voter v's pair signs, a ranking of block b whose suffix has
    pair signs t is at twice the distance a_v - t.x_v[cols[b]] from v, with
    a_v = P - x_v.F[b].  Weighted by w and summed over the voters, with
    U = w X and M = X' diag(w) X, these doubled distances give
    P N - F[b].U - t.U, and their squares K_b - 2 t.L_b + t'Mt, with
    K_b = P^2 N - 2 P F[b].U + F[b]'M F[b] and L_b = P U - M F[b], read at
    the suffix pairs: no product grows with the support.  Every value formed
    is an integer of magnitude at most 4 P^2 N (P pairs, N = denom), exact
    in float64 while that stays below 2^53.
    """
    X = profile.signs.astype(np.float64)
    w = np.array(profile.nums, dtype=np.float64)
    F = F.astype(np.float64)
    P, N = X.shape[1], float(profile.denom)
    U = w @ X
    if p == 1:
        const = P * N - F @ U
        lin = np.broadcast_to(-U, F.shape)
    else:
        M = X.T @ (w[:, None] * X)
        FM = F @ M
        const = np.einsum("ij,ij->i", F, FM) - 2 * P * (F @ U) + P * P * N
        lin = 2 * (FM - P * U)
    # one float64 copy of the table: numpy multiplies float32 by float64
    # without BLAS
    signs = signs.astype(np.float64)
    rows = max(1, _BLOCK_ENTRIES // cols.shape[1])
    total = np.empty(len(signs))
    for b, c in enumerate(cols):
        u = lin[b, c]
        if p == 2:
            Q = M[c[:, None], c]
        for s in range(0, len(signs), rows):
            S = signs[s : s + rows]
            t = S @ u
            if p == 2:
                t += np.einsum("ij,ij->i", S @ Q, S)
            total[s : s + rows] = t + const[b]
        yield total


def solve_brute_force(profile: Profile, cost: CostSpec = CostSpec()) -> SolveResult:
    """Exact optimum by scoring every ranking; guarded at m=10.

    The m! rankings are scored in m!/7! lexicographic blocks (`_blocks`): an
    ordered prefix of k = max(0, m-7) alternatives followed by every order
    of the rest, from one cached table of at most 7! rows.  Every ranking
    of a block gives the pairs with a prefix member the same signs, F[b],
    so a voter's disagreements on them come from one product per block with
    the voters' sign table, like a `solve_bnb` node's d.

    Linear costs, and squared costs once the support outnumbers the suffix
    pairs, are scored from pair moments (`_moment_costs`), whose work does
    not grow with the support; other exponents, smaller squared-cost
    supports and weights whose moments would leave float64's exact
    integers (4 P^2 N >= 2^53 for P pairs and denominator N) take per-voter
    distances (`_voter_costs`).  Both give the same integer costs.  The
    per-voter path's work grows with support x m!, and it refuses more
    than `VOTER_PAIRS_GUARD` (2^31, about 9 s) of these pairs.  Neither
    keeps a (block, voter) table: memory is the sign table, a few tables
    of one row per voter, and the per-block tables, so at m = 10 with
    3,000 support rankings brute force peaks at 2-3 MB.  Winners come out
    in lexicographic order, the first `TIE_ENUMERATION_CAP` of them.
    """
    m = profile.m
    if m > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"brute force over {m}! rankings exceeds the guard ({BRUTE_FORCE_GUARD})"
        )
    p = cost.exponent
    pre, rest, cols, F = _blocks(m)
    orders, signs = _ranking_table(rest.shape[1])
    # a squared-cost moment product costs about as much as a per-voter one
    # with as many voters as suffix pairs
    P = max_swap_distance(m)
    if (p == 1 or p == 2 and len(profile.nums) > cols.shape[1]) and (
        4 * P * P * profile.denom < 2**53
    ):
        blocks, scale = _moment_costs(profile, p, F, cols, signs), 2**p
    else:
        pairs = len(profile.nums) * math.factorial(m)
        if pairs > VOTER_PAIRS_GUARD:
            raise GuardError(
                f"brute force scoring {len(profile.nums)} support rankings against "
                f"{m}! rankings one voter at a time ({pairs:,} pairs) exceeds "
                f"the guard ({VOTER_PAIRS_GUARD:,})"
            )
        blocks, scale = _voter_costs(profile, p, F, cols, signs), 1
    full = TIE_ENUMERATION_CAP + 1
    best, found = None, []
    for b, total in enumerate(blocks):
        low = total.min()
        if best is None or low < best:
            best, found = low, []
        if low == best and len(found) < full:
            prefix = tuple(pre[b].tolist())
            hits = orders[total == low][: full - len(found)]
            found += (prefix + tuple(r) for r in rest[b][hits].tolist())
    cost = int(best) // scale
    return _result(found, cost, cost, profile.denom, "brute_force", "Exact", tracked=True,
                   nodes=0)


def _best_input(profile: Profile, p: int) -> tuple[int, Ranking]:
    """The least integer cost of a support ranking, and the first support
    ranking with it: the support scored against itself by `_voter_costs`,
    as one block with no prefix (F = 0, every pair a suffix pair)."""
    P = profile.signs.shape[1]
    costs = next(_voter_costs(profile, p, np.zeros((1, P)), np.arange(P)[None],
                              profile.signs.astype(np.float32)))
    v = int(np.argmin(costs))
    return int(costs[v]), profile.supp[v]


def approx_best_input(profile: Profile, cost: CostSpec = CostSpec()) -> Ranking:
    """Best ranking among those appearing in the profile itself."""
    return _best_input(profile, cost.exponent)[1]


def approx_kemeny_seed(profile: Profile, cost: CostSpec = CostSpec()) -> Ranking:
    """Cheap starting candidate: positional-average order, locally improved."""
    # weighted sums of positions: a's place in a ranking counts those above it
    avg = profile.pair_weights().sum(axis=0).tolist()
    seed = as_ranking(sorted(range(profile.m), key=lambda a: (avg[a], a)))
    seed = local_search(profile, seed, cost)
    p = cost.exponent
    best_cost, best_in = _best_input(profile, p)
    return best_in if best_cost < profile.scaled_cost(seed, p) else seed


def local_search(
    profile: Profile, start: Ranking, cost: CostSpec = CostSpec()
) -> Ranking:
    """Greedy adjacent-swap descent from start, exact integer comparisons.

    Swapping neighbours a, b steps each voter's distance by +1 if it puts
    a above b, else -1: the pair's sign column, negated when a > b.  The
    swap is taken when it lowers the integer cost nums . d^p.
    """
    p = cost.exponent
    dtype = profile.cost_dtype(p)
    nums = np.array(profile.nums, dtype=dtype)
    X = profile.signs.T.astype(dtype)
    col = np.zeros((profile.m, profile.m), dtype=np.intp)  # col[a, b]: the column of a < b
    col[pair_indices(profile.m)] = np.arange(len(X))
    col = col.tolist()
    cand = list(as_ranking(start))
    d = np.array(profile.dists(cand), dtype=dtype)
    total = nums @ d**p
    improved = True
    while improved:
        improved = False
        for i in range(len(cand) - 1):
            a, b = cand[i], cand[i + 1]
            e = d + X[col[a][b]] if a < b else d - X[col[b][a]]
            t = nums @ e**p
            if t < total:
                cand[i], cand[i + 1] = b, a
                d, total = e, t
                improved = True
    return tuple(cand)


@functools.cache
def _child_tables(r: int, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tables for the children of a node with r undecided alternatives, whose
    pair-sign table has a column per pair (i < j of 0..r-1, in order) and a
    last column of ones.

    inc[k] sums a voter's row to twice the distance child k adds (-1 on the
    pairs where k is first, +1 where second, r-1 on the ones); mask[k] is -1
    on the pairs that avoid k and their count C(r-1, 2) on the ones; keep[k]
    picks child k's columns out of the node's: the pairs avoiding k, then
    the ones.
    """
    i, j = pair_indices(r)
    n = len(i)
    inc = np.zeros((r, n + 1), dtype=np.int64)
    inc[i, np.arange(n)] = -1
    inc[j, np.arange(n)] = 1
    inc[:, n] = r - 1
    avoid = inc[:, :n] == 0
    mask = np.hstack([np.where(avoid, -1, 0), np.full((r, 1), (r - 1) * (r - 2) // 2)])
    keep = np.array([np.append(np.flatnonzero(row), n) for row in avoid])
    return inc.astype(dtype), mask.astype(dtype), keep.reshape(r, -1)


def solve_bnb(
    profile: Profile,
    cost: CostSpec = CostSpec(),
    node_budget: int | None = None,
    find_all_ties: bool | None = None,
    seed_candidate: Ranking | None = None,
) -> SolveResult:
    """Branch and bound over ranking prefixes.

    A node is a prefix: d[v] counts voter v's disagreements on the pairs it
    decides, and completing it adds e[v] >= 0 more, from the pairs of the
    remaining alternatives.  x^p is convex on the integers, so for any
    integer t, (d+e)^p >= t^p + s_t (d+e-t) with slope s_t = (t+1)^p - t^p,
    and a node costs at least the convex pair bound

        sum_v w_v (t_v^p + s_v (d_v - t_v)) + sum over remaining pairs {a, b}
        of min(WS[a, b], WS[b, a]),  WS[a, b] = sum_v w_v s_v [v puts a above b],

    the pairwise bound of Conitzer, Davenport and Kalagnanam on
    slope-weighted votes.  A node's bound is the larger of two instances:
    the secant, t = d, and the tangent at the incumbent's distances T,
    t = max(d, T).  Each voter puts exactly one of a, b above the other,
    so WS[a, b] + WS[b, a] = sigma = sum_v w_v s_v and the smaller side is
    (sigma - |y_ab|) / 2, with y_ab = sum_v w_v s_v x_v[ab] over the
    voters' pair signs x_v (+1 iff v puts a above b, a < b).  A node
    carries the columns of its undecided pairs in the voters' sign table;
    one product of its children's secant and tangent slopes with those
    columns gives every y and sigma, and a per-r mask sums each child's
    pairs.  The same columns give the children's distances.  This runs in
    float64 through BLAS while every value formed is an integer of
    magnitude at most N (P^p + P s_P) < 2^53 (N = sum of the scaled
    weights, P = C(m, 2), s_P = (P+1)^p - P^p), else in int64 or Python
    integers (`Profile.bound_dtype`).  At p = 1 every slope is 1 and both
    instances are the Kemeny pair bound, which a child placing c next
    raises by sum over the remaining j of E[j, c], E = W - min(W, W^T) on
    the pair weights W.  Below the root, a p = 1 node carries these column
    sums of E over its remaining rows in place of per-voter distances; its
    children's bounds are one gather of them and their sums one
    subtraction of their rows.

    Children are tested against the incumbent before they are pushed, with
    the test a popped node gets.  The incumbent only falls, so a child that
    fails it would fail when popped; the children that fail (those with
    the largest bounds, which sit under their live siblings) become one
    stack entry holding their count.  `nodes` counts the nodes the
    depth-first search pops, these pruned children included, so a node
    budget stops the search where it stopped when each child was pushed.

    Exact when it runs to completion; with a node budget (at least 0, else
    DataError) it may return an anytime result flagged "Heuristic" together
    with a certified global lower bound.  Tie tracking is on by default up to m=12; once it has
    found `TIE_ENUMERATION_CAP` winners and one more, it prunes ties as
    find_all_ties=False does.
    """
    m = profile.m
    if m > BNB_GUARD:
        raise GuardError(f"branch and bound guarded at m={BNB_GUARD}, got {m}")
    if node_budget is not None and node_budget < 0:
        raise DataError(f"node_budget must be >= 0, got {node_budget}")
    p = cost.exponent
    if find_all_ties is None:
        find_all_ties = m <= 12
    full = TIE_ENUMERATION_CAP + 1
    dtype = profile.bound_dtype(p)
    # bounds come back as integers
    exact = np.int64 if dtype is np.float64 else dtype
    w = np.array(profile.nums, dtype=dtype)
    P = max_swap_distance(m)
    POW = np.array([d**p for d in range(P + 2)], dtype=dtype)
    SLOPE = POW[1:] - POW[:-1]
    # the tangent at t is t^p + s_t (d - t) = TAN[t] + s_t d
    TAN = POW[:-1] - np.arange(P + 1) * SLOPE
    if p == 1:
        W = profile.pair_weights()
        E = W - np.minimum(W, W.T)

    seed = as_ranking(seed_candidate) if seed_candidate is not None else (
        approx_kemeny_seed(profile, cost))
    T = np.array(profile.dists(seed))
    incumbent = int(POW[T] @ w)
    best: list[Ranking] = [seed]

    def bounds(Dt, Y, mask):
        """Convex pair bounds of the nodes whose distances D[k] fill the first
        half of Dt, from the voters' pair signs Y (a column per undecided
        pair, then ones); node k's pairs are those mask[k] weighs.  The
        second half of Dt receives the tangent points, max(D, T)."""
        K = len(Dt) // 2
        D = Dt[:K]
        np.maximum(D, T, out=Dt[K:])
        Sw = SLOPE[Dt] * w
        # the slope-weighted votes y_ab, then sigma; min(WS[a, b], WS[b, a])
        # = (sigma - |y_ab|) / 2, summed over node k's pairs by mask[k]
        Y = Sw @ Y
        np.abs(Y, out=Y)
        lb = np.vecdot(Y.reshape(2, K, -1), mask) // 2
        # the secant and tangent lines at D, TAN[t] + s_t D
        lb += np.vecdot(Sw.reshape(2, K, -1), D)
        lb += (TAN[Dt] @ w).reshape(2, K)
        return np.maximum(lb[0], lb[1]).astype(exact, copy=False)

    def expand(lb, remaining, dvec, cols):
        """Vectors, sign columns and lower bounds of all children of a node."""
        r = len(remaining)
        if p == 1:  # dvec holds the column sums of E over the remaining rows
            R = np.array(remaining)
            return dvec - E[R], [None] * r, (dvec[R] + lb).tolist()
        inc, mask, keep = _child_tables(r, dtype)
        Y = X.take(cols, axis=1)
        # child k adds, per voter, the remaining alternatives placed above
        # its alternative: ((r-1) + its pairs' signs, - where it is first) / 2
        Dt = np.empty((2 * r, len(dvec)), dtype=np.intp)
        D = Dt[:r]
        np.copyto(D, inc @ Y.T, casting="unsafe")
        D >>= 1
        D += dvec
        if r == 2:  # the children are complete rankings
            return D, [None] * r, (POW[D] @ w).astype(exact, copy=False).tolist()
        return D, cols[keep], bounds(Dt, Y, mask).tolist()

    def limit():
        """The largest bound of a node still worth searching (bounds are
        integers; one equal to the incumbent is kept while ties are kept)."""
        return incumbent if find_all_ties and len(best) < full else incumbent - 1

    # the voters' pair signs and a column of ones, in the bound's type
    X = np.hstack([profile.signs, np.ones((len(w), 1), dtype=np.int8)]).astype(dtype)
    root_d = np.zeros((2, len(w)), dtype=np.intp)
    root_lb = int(bounds(root_d, X, np.array([[-1] * P + [P]], dtype=dtype))[0])
    # a node is (bound, prefix, remaining, vector, columns); the vector is the
    # voters' distances at p >= 2 and the column sums of E over the remaining
    # rows at p = 1, and the columns are those of X for the remaining pairs
    # and the ones (p >= 2 only).  An int is that many pruned children
    stack = [(root_lb, (), tuple(range(m)), E.sum(axis=0) if p == 1 else root_d[0],
              None if p == 1 else np.arange(P + 1))]
    nodes = 0
    exhausted = False
    while stack:
        if node_budget is not None and nodes >= node_budget:
            exhausted = True
            break
        node = stack.pop()
        if isinstance(node, int):
            taken = node if node_budget is None else min(node, node_budget - nodes)
            nodes += taken
            if taken < node:  # the budget ran out with these still on the stack
                stack.append(node - taken)
            continue
        lb, prefix, remaining, dvec, cols = node
        nodes += 1
        if lb > limit():
            continue
        if len(remaining) == 1:  # a complete ranking, whose bound is its cost
            cand = prefix + remaining
            if lb < incumbent:
                incumbent, best = lb, [cand]
                if p > 1:
                    T = dvec
            elif cand != seed:  # the search reaches each ranking once
                best.append(cand)
            continue
        D, child_cols, lbs = expand(lb, remaining, dvec, cols)
        order = sorted(range(len(lbs)), key=lbs.__getitem__, reverse=True)
        top = limit()
        live = [i for i in order if lbs[i] <= top]
        if len(live) < len(order):  # the pruned children have the largest bounds
            stack.append(len(order) - len(live))
        for i in live:
            rest = remaining[:i] + remaining[i + 1 :]
            stack.append((lbs[i], prefix + (remaining[i],), rest, D[i], child_cols[i]))

    if exhausted:
        frontier = min(
            (node[0] for node in stack if not isinstance(node, int)), default=incumbent
        )
        return _result(best, incumbent, min(incumbent, frontier), profile.denom, "bnb",
                       "Heuristic", tracked=False, nodes=nodes)
    return _result(best, incumbent, incumbent, profile.denom, "bnb", "Exact",
                   tracked=find_all_ties, nodes=nodes)


def _majority_components(W: np.ndarray) -> list[list[int]]:
    """The strongly connected components of the weak-majority relation
    a -> b iff W[a, b] >= W[b, a], top first, each in increasing order.

    Every pair has an edge, so the components are totally ordered and each
    alternative strictly beats (W[a, b] > W[b, a]) every alternative of
    every lower component.  Out-degrees fall strictly from one component
    to the next: an alternative weakly beats at least every alternative
    below its component, and one of the next component at most those
    below it and the rest of its own, which are fewer.  So the components
    are runs of the out-degree order, and a cut between two places of it
    is a component boundary iff nothing below it weakly beats anything
    above it.
    """
    beats = np.asarray(W >= W.T, dtype=bool)
    order = np.argsort(-beats.sum(axis=1), kind="stable")
    # the first place each place weakly beats (itself at the latest), and
    # the least of these over each place and all below it
    first = beats[np.ix_(order, order)].argmax(axis=1)
    reach = np.minimum.accumulate(first[::-1])[::-1].tolist()
    cuts = [0] + [j for j in range(1, len(W)) if reach[j] >= j] + [len(W)]
    return [sorted(order[a:b].tolist()) for a, b in zip(cuts, cuts[1:])]


def _subset_dp(W: np.ndarray, top) -> np.ndarray:
    """dp[S], the least cost among W's k alternatives of ranking the set S
    on top of the others.

    Growing the top set to S by its member a puts a above the alternatives
    outside S, at above[S, a], the sum of their rows of W in column a.  No
    table of it over all sets is formed: with h = k // 2, above[S] = lo[S
    mod 2^h] + hi[S >> h], where lo holds the column sums of W less the
    rows of each subset of the first h alternatives, and hi less the rows
    of each subset of the rest (both kept a column per subset).  The sets
    are solved one size at a time, in chunks of about `_BLOCK_ENTRIES`
    (alternative, set) pairs, each chunk in one array pass.  dp starts at
    the sentinel top, above every cost: for a non-member a of S, S ^ 1 << a
    is one set larger, not yet solved, so its step stays above the
    sentinel and the minimum over all a is the minimum over S's members,
    with no membership mask.  Memory is dp and a uint8 popcount table, 9
    bytes per set in int64, plus the half tables and one chunk's arrays.
    """
    k = len(W)
    h = k // 2
    lo = np.empty((k, 1 << h), dtype=W.dtype)
    lo[:, 0] = W.sum(axis=0)
    for b in range(h):
        np.subtract(lo[:, : 1 << b], W[b, :, None], out=lo[:, 1 << b : 2 << b])
    hi = np.zeros((k, 1 << k - h), dtype=W.dtype)
    for b in range(k - h):
        np.subtract(hi[:, : 1 << b], W[h + b, :, None], out=hi[:, 1 << b : 2 << b])
    size = np.bitwise_count(np.arange(1 << k, dtype=np.uint32))
    bits = (1 << np.arange(k))[:, None]
    chunk = _BLOCK_ENTRIES // k
    dp = np.full(1 << k, top, dtype=W.dtype)
    dp[0] = 0
    for c in range(1, k + 1):
        layer = np.flatnonzero(size == c)
        for s in range(0, len(layer), chunk):
            S = layer[s : s + chunk]
            q, r = np.divmod(S, 1 << h)
            step = dp.take(bits ^ S)
            step += lo.take(r, axis=1)
            step += hi.take(q, axis=1)
            dp[S] = step.min(axis=0)
    return dp


def _dp_rankings(dp: np.ndarray, members: list[tuple], S: int, above: list,
                 suffix: tuple[int, ...] = ()):
    """The optimal rankings of the members in S above suffix, built from the
    bottom: lower places vary slowest and each place tries the members in
    increasing order.

    members holds each member's bit, label and row of W (a list); above[a]
    is the cost of placing member a above the suffix, the sum of the
    suffix's rows, so a step below S adds the placed member's row.  A
    member may take the lowest place of S when dp[S] is dp of S without
    it plus its above; the last member left is the ranking's top.
    """
    best = dp.item(S)
    for a, (bit, alt, row) in enumerate(members):
        if S & bit and dp.item(S ^ bit) + above[a] == best:
            if S == bit:
                yield (alt,) + suffix
            else:
                yield from _dp_rankings(dp, members, S ^ bit, list(map(operator.add, above, row)),
                                        (alt,) + suffix)


def solve_kemeny_dp(profile: Profile, find_all_ties: bool | None = True) -> SolveResult:
    """Exact linear-cost optimum via dynamic programming over subsets, one
    pairwise-majority component at a time (components of at most 20).

    The components of the weak-majority relation (`_majority_components`)
    are totally ordered, and every pair across two of them is a strict
    majority, so every optimal ranking lists them in that order: an
    adjacent pair against it could be swapped for a strictly lower cost.
    The optimum is the cost of the pairs across components, each placed
    with its majority, plus each component's own optimum, and the winners
    are the products of the components' winners.

    Within a component of k alternatives, dp[S] is the least cost of
    ranking the set S on top of the others (`_subset_dp`); memory is about
    9 bytes per subset of the largest component (dp and a popcount table),
    1.1 MiB under tracemalloc at k = 16, and no table is kept between
    calls.  Winners are the first `TIE_ENUMERATION_CAP` rankings a
    backtrack from the bottom of the whole ranking reaches, in sorted
    order: the bottom component's choices vary slowest, each component's
    in its own backtrack order (`_dp_rankings`).  find_all_ties=None reads
    as True.
    """
    W = profile.pair_weights()
    components = _majority_components(W)
    k = max(map(len, components))
    if k > DP_GUARD:
        raise GuardError(
            f"subset DP guarded at {DP_GUARD} alternatives per majority "
            f"component, got a component of {k}"
        )
    if find_all_ties is None:
        find_all_ties = True
    full = TIE_ENUMERATION_CAP + 1
    # the pairs across components, each placed with its strict majority:
    # W[b, a] for b in a lower component than a
    level = np.empty(profile.m, dtype=np.intp)
    for c, members in enumerate(components):
        level[members] = c
    cost = int(W[level[:, None] > level].sum())
    # a sentinel above every cost, which plus above stays below 2^63
    # wherever W is int64 (Profile.cost_dtype)
    top = sum(profile.nums) * max_swap_distance(profile.m) + 1
    ties = []
    for members in components:
        if len(members) == 1:
            ties.append([tuple(members)])
            continue
        sub = W[np.ix_(members, members)]
        dp = _subset_dp(sub, top)
        cost += int(dp[-1])
        alts = [(1 << a, alt, row) for a, (alt, row) in enumerate(zip(members, sub.tolist()))]
        winners = _dp_rankings(dp, alts, len(dp) - 1, [0] * len(members))
        ties.append(list(itertools.islice(winners, full if find_all_ties else 1)))
    found = [sum(reversed(combo), ()) for combo in
             itertools.islice(itertools.product(*reversed(ties)), full)]
    return _result(found, cost, cost, profile.denom, "kemeny_dp", "Exact",
                   tracked=find_all_ties, nodes=0)


# the keywords each solver takes besides the profile and the cost
_SOLVER_KEYWORDS = {
    "brute_force": set(),
    "kemeny_dp": {"find_all_ties"},
    "bnb": {"node_budget", "find_all_ties", "seed_candidate"},
}


def solve(
    profile: Profile, cost: CostSpec = CostSpec(), method: str = "auto", **kw
) -> SolveResult:
    """Dispatch a solve to brute force, the subset DP or branch and bound.

    "auto" takes brute force up to m = 7; then, at exponent 1, the subset
    DP when the largest pairwise-majority component fits its guard,
    `DP_GUARD` alternatives (always so up to that m, where the components
    are not computed); else branch and bound.  A keyword the
    chosen solver does not take (node_budget, seed_candidate, or
    find_all_ties for brute force) sends "auto" to branch and bound, the
    one solver that takes them all; an explicit method given one raises
    `DataError`.
    """
    if method == "auto":
        m = profile.m
        if m <= 7:
            method = "brute_force"
        elif cost.exponent == 1 and (
            m <= DP_GUARD
            or max(map(len, _majority_components(profile.pair_weights())))
            <= DP_GUARD
        ):
            method = "kemeny_dp"
        else:
            method = "bnb"
        if not kw.keys() <= _SOLVER_KEYWORDS[method]:
            method = "bnb"
    if method not in _SOLVER_KEYWORDS:
        raise DataError(f"unknown solve method: {method}")
    extra = sorted(kw.keys() - _SOLVER_KEYWORDS[method])
    if extra:
        raise DataError(f"solve method {method} takes no keyword {', '.join(extra)}")
    if method == "brute_force":
        return solve_brute_force(profile, cost)
    if method == "kemeny_dp":
        if cost.exponent != 1:
            raise DataError("the subset DP handles exponent 1 only")
        return solve_kemeny_dp(profile, **kw)
    return solve_bnb(profile, cost, **kw)


def emit_ilp(profile: Profile, cost: CostSpec = CostSpec()) -> str:
    """Integer program for the aggregation problem, in CPLEX LP text format.

    Pairwise order binaries x_a_b with completeness and triangle
    constraints define the candidate ranking; each voter gets a distance
    variable, and for the squared objective a second variable bounded
    below by tangents of the square at every integer distance.  The
    objective coefficients are the weights times their common denominator,
    integers, so the program's optimal value is the exact cost times that
    denominator.
    """
    p = cost.exponent
    if p not in (1, 2):
        raise DataError("the integer program covers exponents 1 and 2 only")
    m = profile.m
    dmax = max_swap_distance(m)
    poss = [positions(r) for r in profile.supp]

    obj_var = "sqdist" if p == 2 else "dist"
    obj_terms = " + ".join(f"{w} {obj_var}_{k}" for k, w in enumerate(profile.nums))
    lines = ["Minimize", f" obj: {obj_terms}", "Subject To"]

    for a in range(m):
        for b in range(a + 1, m):
            lines.append(f" comp_{a}_{b}: x_{a}_{b} + x_{b}_{a} = 1")
    # one row per 3-cycle: its rotations would repeat the row
    for a, b, c in itertools.combinations(range(m), 3):
        for u, v in ((b, c), (c, b)):
            lines.append(f" tri_{a}_{u}_{v}: x_{a}_{u} + x_{u}_{v} + x_{v}_{a} <= 2")
    for k, pos in enumerate(poss):
        terms = " - ".join(
            f"x_{j}_{i}"
            for i in range(m)
            for j in range(m)
            if i != j and pos[i] < pos[j]
        )
        lines.append(f" dist_def_{k}: dist_{k} - {terms} = 0")
        if p == 2:
            for t in range(dmax):
                rhs = -t * t - t
                lines.append(
                    f" tan_{k}_{t}: sqdist_{k} - {2 * t + 1} dist_{k} >= {rhs}"
                )
    lines.append("Bounds")
    for k in range(len(poss)):
        lines.append(f" 0 <= dist_{k} <= {dmax}")
        if p == 2:
            lines.append(f" 0 <= sqdist_{k} <= {dmax * dmax}")
    lines.append("Binaries")
    for a in range(m):
        for b in range(m):
            if a != b:
                lines.append(f" x_{a}_{b}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def ranking_from_pair_vars(values: dict[str, float], m: int) -> Ranking:
    """Recover the ranking encoded by x_a_b binaries from a solver's assignment."""
    wins = [0] * m
    for a in range(m):
        for b in range(m):
            if a != b and values.get(f"x_{a}_{b}", 0) > 0.5:
                wins[a] += 1
    return as_ranking(sorted(range(m), key=lambda a: (-wins[a], a)))
