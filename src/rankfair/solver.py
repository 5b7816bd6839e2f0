"""Exact and heuristic optimizers for power-of-swap-distance aggregation.

All solvers compare integer costs: `IntCost` reads the profile's weights
scaled by their common denominator, so ties are decided exactly, never by
float rounding.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import IntCost, Profile, Ranking, as_ranking, max_swap_distance, pair_indices
from .errors import DataError, GuardError

BRUTE_FORCE_GUARD = 10
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
    winners holds `TIE_ENUMERATION_CAP` optimal rankings, and which ones
    depends on the method: brute force returns the lexicographically first
    winners, the DP the first its backtrack reaches, and branch and bound
    the first its depth-first search reaches, each listed in sorted order.
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


_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _signs(pos: np.ndarray) -> np.ndarray:
    """Row per row of pos, column per pair (i<j): +1 iff i sits above j."""
    i, j = pair_indices(pos.shape[1])
    return np.where(pos[:, i] < pos[:, j], 1, -1).astype(np.int8)


def _ranking_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All m! rankings in lexicographic order (int8 rows) and their pair signs
    (float32, the type brute force multiplies in); m <= 7."""
    if m > _SUFFIX:
        raise GuardError(f"ranking tables stop at m={_SUFFIX}, got {m}")
    if m not in _TABLES:
        # the k! orders of 0..k-1 lead with f = 0, 1, ..., k-1, each followed
        # by the (k-1)! orders of the rest: 0..k-2 shifted past f keep their order
        orders = np.zeros((1, 0), dtype=np.int8)
        for k in range(1, m + 1):
            orders = np.concatenate([
                np.hstack([np.full((len(orders), 1), f, dtype=np.int8),
                           orders + (orders >= f)])
                for f in range(k)
            ])
        pos = np.empty_like(orders)
        np.put_along_axis(pos, orders, np.arange(m, dtype=np.int8), axis=1)
        _TABLES[m] = orders, _signs(pos).astype(np.float32)
    return _TABLES[m]


@functools.cache
def _blocks(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The m! rankings of 0..m-1 as m!/r! lexicographic blocks, r = min(m, 7).

    Block b is the ordered prefix pre[b] (k = m - r alternatives, in
    itertools order) followed by rest[b][orders] for the orders of the r!
    table, rest[b] being the other alternatives in increasing order.
    cols[b] are the columns of rest[b]'s pairs among the pairs of 0..m-1.
    """
    k = max(0, m - _SUFFIX)
    pre = np.array(list(itertools.permutations(range(m), k)), dtype=np.intp)
    keep = np.ones((len(pre), m), dtype=bool)
    np.put_along_axis(keep, pre, False, axis=1)
    rest = np.nonzero(keep)[1].reshape(len(pre), m - k)
    col = np.zeros((m, m), dtype=np.intp)
    col[pair_indices(m)] = np.arange(max_swap_distance(m))
    i, j = pair_indices(m - k)
    return pre, rest, col[rest[:, i], rest[:, j]]


def swap_distance_matrix(rankings: list[Ranking]) -> np.ndarray:
    """All-pairs swap distances of rankings over one m, in integers.

    Two rankings agree on P - d pairs and disagree on d, so the dot
    product of their pair signs is P - 2d.  The product runs through BLAS in
    float64, which holds every partial sum of P terms of +-1 exactly.
    """
    S = _signs(np.argsort(np.array(rankings), axis=1)).astype(np.float64)
    return (S.shape[1] - (S @ S.T).astype(np.int64)) // 2


def _voter_costs(ic: IntCost, p: int, fixed: np.ndarray, cols: np.ndarray,
                 signs: np.ndarray):
    """Per block, the integer costs of its rankings (one buffer, refilled),
    from per-voter distances.

    Voter v's distance is fixed[b, v] plus its disagreements on the suffix
    pairs, signs @ (-votes / 2) + pairs / 2: halves of integers below 64,
    exact in float32, which BLAS multiplies.
    """
    dtype = ic.dtype(p)
    nums = np.array(ic.nums, dtype=dtype)
    half = _signs(ic.pos).T * np.float32(-0.5)
    offset = (fixed + cols.shape[1] / 2).astype(np.float32)
    rows = max(1, _BLOCK_ENTRIES // (cols.shape[1] + len(nums)))
    total = np.empty(len(signs), dtype=dtype)
    for b in range(len(cols)):
        votes = half[cols[b]]
        for s in range(0, len(signs), rows):
            dist = signs[s : s + rows] @ votes
            dist += offset[b]
            d = dist.astype(np.int64).astype(dtype, copy=False)
            total[s : s + rows] = d**p @ nums
        yield total


def _moment_costs(ic: IntCost, p: int, fixed: np.ndarray, cols: np.ndarray,
                  signs: np.ndarray):
    """Per block, 2^p times the integer costs of its rankings (p = 1 or 2; one
    buffer, refilled), from the profile's pair votes and pair-pair moments.

    With x_v voter v's pair signs, a ranking of block b whose suffix has
    pair signs t is at twice the distance a_v - t.x_v[cols[b]] from v, with
    a_v = (suffix pairs) + 2 fixed[b, v].  Weighted by w and summed over the
    voters, these doubled distances give A - t.U, and their squares
    K - 2 t.L + t'Mt, where A, K and L are per block and M = sum w x_v x_v'
    is read at the suffix pairs: no product grows with the support.  Every
    value formed is an integer of magnitude at most 4 P^2 N (P pairs,
    N = denom), exact in float64 while that stays below 2^53.
    """
    X = _signs(ic.pos).astype(np.float64)
    w = np.array(ic.nums, dtype=np.float64)
    # a and, at p = 2, a * w are the only (block, voter) tables made here;
    # a is built in place, in float64 like every product below
    a = fixed * 2.0
    a += cols.shape[1]
    if p == 1:
        const = a @ w
        lin = np.broadcast_to(-(w @ X), (len(cols), X.shape[1]))
    else:
        aw = a * w
        const = np.einsum("ij,ij->i", aw, a)
        lin = aw @ X
        lin *= -2
        M = X.T @ (w[:, None] * X)
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
    of the rest, from one cached table of at most 7! rows.  A ranking's
    distance to voter v is the prefix's disagreements, counted once per
    block like a `solve_bnb` node's d, plus the suffix's.

    Linear costs, and squared costs once the support outnumbers the suffix
    pairs, are scored from pair moments (`_moment_costs`), whose work does
    not grow with the support; other exponents, smaller squared-cost
    supports and weights whose moments would leave float64's exact
    integers (4 P^2 N >= 2^53 for P pairs and denominator N) take per-voter
    distances (`_voter_costs`).  Both give the same integer costs.  Above
    m = 7 the prefix disagreements take one (block, voter) table of m!/7!
    rows per support ranking, so memory grows with support x m!/7!.
    Winners come out in lexicographic order, the first
    `TIE_ENUMERATION_CAP` of them.
    """
    m = profile.m
    if m > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"brute force over {m}! rankings exceeds the guard ({BRUTE_FORCE_GUARD})"
        )
    p = cost.exponent
    ic = profile.int_cost()
    pre, rest, cols = _blocks(m)
    orders, signs = _ranking_table(rest.shape[1])
    # fixed[b, v]: voter v's disagreements with block b's prefix.  v has q[a]
    # alternatives above prefix member a; all but the prefix members before a
    # that v also puts above a, C(k, 2) minus the inversions in all, are
    # disagreements.  Added up one prefix place and one prefix pair at a
    # time, so no temporary holds more than one (block, voter) table
    fixed = np.zeros((len(pre), len(ic.nums)), dtype=np.int64)
    k = pre.shape[1]
    if k:
        pos = ic.pos.T.astype(np.int8)  # pos[a, v]: place of a in supp[v]
        q = [pos[pre[:, c]] for c in range(k)]
        i, j = pair_indices(k)
        fixed -= len(i)
        for c in range(k):
            fixed += q[c]
        for c, d in zip(i, j):
            fixed += q[c] > q[d]
    # a squared-cost moment product costs about as much as a per-voter one
    # with as many voters as suffix pairs
    P = max_swap_distance(m)
    if (p == 1 or p == 2 and len(ic.nums) > cols.shape[1]) and (
        4 * P * P * ic.denom < 2**53
    ):
        blocks, scale = _moment_costs(ic, p, fixed, cols, signs), 2**p
    else:
        blocks, scale = _voter_costs(ic, p, fixed, cols, signs), 1
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
    return SolveResult(
        winners=tuple(found[:TIE_ENUMERATION_CAP]),
        cost=Fraction(int(best) // scale, ic.denom),
        status="Exact",
        method="brute_force",
        ties_complete=len(found) < full,
    )


def _best_input(ic: IntCost, p: int) -> tuple[int, Ranking]:
    """The least integer cost of a support ranking, and the first support
    ranking with it.

    Every support ranking is scored against the whole support at once:
    two rankings with pair signs x and y are d = (P - x.y) / 2 apart, a dot
    product of P signs, exact in float64.  Row blocks bound the memory.
    """
    X = _signs(ic.pos).astype(np.float64)
    nums = np.array(ic.nums, dtype=ic.dtype(p))
    rows = max(1, _BLOCK_ENTRIES // len(nums))
    costs = np.concatenate([
        ((X.shape[1] - X[s : s + rows] @ X.T) / 2).astype(np.int64).astype(
            nums.dtype, copy=False) ** p @ nums
        for s in range(0, len(nums), rows)
    ])
    v = int(np.argmin(costs))
    return int(costs[v]), ic.supp[v]


def approx_best_input(profile: Profile, cost: CostSpec = CostSpec()) -> Ranking:
    """Best ranking among those appearing in the profile itself."""
    return _best_input(profile.int_cost(), cost.exponent)[1]


def approx_kemeny_seed(profile: Profile, cost: CostSpec = CostSpec()) -> Ranking:
    """Cheap starting candidate: positional-average order, locally improved."""
    ic = profile.int_cost()
    avg = (np.array(ic.nums, dtype=ic.dtype(1)) @ ic.pos).tolist()
    seed = as_ranking(sorted(range(ic.m), key=lambda a: (avg[a], a)))
    seed = local_search(profile, seed, cost)
    p = cost.exponent
    best_cost, best_in = _best_input(ic, p)
    return best_in if best_cost < ic.cost(seed, p) else seed


def local_search(
    profile: Profile, start: Ranking, cost: CostSpec = CostSpec()
) -> Ranking:
    """Greedy adjacent-swap descent from start, exact integer comparisons."""
    p = cost.exponent
    ic = profile.int_cost()
    cand = list(as_ranking(start))
    poss = ic.pos.tolist()
    dists = ic.dists(cand)
    improved = True
    while improved:
        improved = False
        for i in range(len(cand) - 1):
            a, b = cand[i], cand[i + 1]
            steps = [-1 if pos[b] < pos[a] else 1 for pos in poss]
            delta = sum(
                w * ((d + step) ** p - d**p)
                for w, d, step in zip(ic.nums, dists, steps)
            )
            if delta < 0:
                cand[i], cand[i + 1] = b, a
                dists = [d + step for d, step in zip(dists, steps)]
                improved = True
    return tuple(cand)


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
    t = max(d, T).  At p = 1 every slope is 1 and both are the Kemeny pair
    bound, which a child placing c next raises by sum over the remaining j
    of E[j, c], E = W - min(W, W^T) on the pair weights W.  A p = 1 node
    carries these column sums of E over its remaining rows in place of
    per-voter distances; its children's bounds are one gather of them and
    their sums one subtraction of their rows.  At p >= 2 all children of a
    node are bounded in one numpy batch.

    Children are tested against the incumbent before they are pushed, with
    the test a popped node gets.  The incumbent only falls, so a child that
    fails it would fail when popped; the children that fail (those with
    the largest bounds, which sit under their live siblings) become one
    stack entry holding their count.  `nodes` counts the nodes the
    depth-first search pops, these pruned children included, so a node
    budget stops the search where it stopped when each child was pushed.

    Exact when it runs to completion; with a node budget it may return an
    anytime result flagged "Heuristic" together with a certified global
    lower bound.  Tie tracking is on by default up to m=12; once it has
    found `TIE_ENUMERATION_CAP` winners and one more, it prunes ties as
    find_all_ties=False does.
    """
    m = profile.m
    if m > BNB_GUARD:
        raise GuardError(f"branch and bound guarded at m={BNB_GUARD}, got {m}")
    p = cost.exponent
    if find_all_ties is None:
        find_all_ties = m <= 12
    full = TIE_ENUMERATION_CAP + 1
    ic = profile.int_cost()
    denom = ic.denom
    dtype = ic.dtype(p, pair_bound=True)
    w = np.array(ic.nums, dtype=dtype)
    if p == 1:
        W = ic.pair_weights()
        E = W - np.minimum(W, W.T)

    seed = as_ranking(seed_candidate) if seed_candidate else approx_kemeny_seed(
        profile, cost
    )
    incumbent = ic.cost(seed, p)
    best: list[Ranking] = [seed]
    T = np.array(ic.dists(seed), dtype=dtype)

    def slope(t):
        return (t + 1) ** p - t**p

    def bounds(D, ab, children=False):
        """Convex pair bound of node k with distances D[k]; the undecided
        pairs are those of ab, less alternative k's when children."""
        t = np.maximum(D, T)
        s = slope(t)
        # one product weighs the votes by the secant's slopes, then the tangent's
        n, r = ab.shape[:2]
        ws = (np.concatenate([slope(D), s]) * w) @ ab.reshape(n, r * r)
        ws = ws.reshape(2, len(D), r, r)
        mins = np.minimum(ws, ws.swapaxes(2, 3))
        pair = mins.sum(axis=(2, 3)) // 2
        if children:
            k = np.arange(r)
            pair -= mins[:, k, k].sum(axis=2)
        secant = D**p @ w + pair[0]
        tangent = (t**p + s * (D - t)) @ w + pair[1]
        return np.maximum(secant, tangent)

    def expand(lb, remaining, dvec):
        """Vectors and lower bounds of all children of a node."""
        R = np.array(remaining)
        if p == 1:  # dvec holds the column sums of E over the remaining rows
            return dvec - E[R], (dvec[R] + lb).tolist()
        pos = ic.pos[:, R]
        ab = pos[:, :, None] < pos[:, None, :]
        # child i adds, per voter, the remaining alternatives placed above R[i]
        D = dvec + ab.sum(axis=1).T
        if len(R) > 2:
            return D, bounds(D, ab, children=True).tolist()
        return D, (D**p @ w).tolist()  # the children are complete rankings

    def limit():
        """The largest bound of a node still worth searching (bounds are
        integers; one equal to the incumbent is kept while ties are kept)."""
        return incumbent if find_all_ties and len(best) < full else incumbent - 1

    root_d = np.zeros(len(w), dtype=dtype)
    root_lb = int(bounds(root_d[None], ic.pos[:, :, None] < ic.pos[:, None, :])[0])
    # a node is (bound, prefix, remaining, vector); the vector is the voters'
    # distances at p >= 2 and the column sums of E over the remaining rows at
    # p = 1.  An int is that many pruned children
    stack = [(root_lb, (), tuple(range(m)), E.sum(axis=0) if p == 1 else root_d)]
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
        lb, prefix, remaining, dvec = node
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
        D, lbs = expand(lb, remaining, dvec)
        order = sorted(range(len(lbs)), key=lbs.__getitem__, reverse=True)
        top = limit()
        live = [i for i in order if lbs[i] <= top]
        if len(live) < len(order):  # the pruned children have the largest bounds
            stack.append(len(order) - len(live))
        for i in live:
            rest = remaining[:i] + remaining[i + 1 :]
            stack.append((lbs[i], prefix + (remaining[i],), rest, D[i]))

    if exhausted:
        frontier = min(
            (node[0] for node in stack if not isinstance(node, int)), default=incumbent
        )
        global_lb = min(incumbent, frontier)
        return SolveResult(
            winners=tuple(sorted(best)[:TIE_ENUMERATION_CAP]),
            cost=Fraction(incumbent, denom),
            status="Heuristic",
            method="bnb",
            lower_bound=Fraction(global_lb, denom),
            nodes=nodes,
            ties_complete=False,
        )
    return SolveResult(
        winners=tuple(sorted(best)[:TIE_ENUMERATION_CAP]) if find_all_ties
        else (best[0],),
        cost=Fraction(incumbent, denom),
        status="Exact",
        method="bnb",
        nodes=nodes,
        ties_complete=find_all_ties and len(best) < full,
    )


def solve_kemeny_dp(profile: Profile, find_all_ties: bool = True) -> SolveResult:
    """Exact linear-cost optimum via dynamic programming over subsets (m <= 20).

    dp[S] is the least cost of ranking the set S on top of all the others.
    The sets are solved one size at a time, each size in one array pass
    over all its (set, alternative) pairs.  Memory is the (2^m, m) table
    `above` plus a few arrays the size of the largest layer's pairs; no
    index table is kept between calls.  Winners are the first
    `TIE_ENUMERATION_CAP` rankings the backtrack reaches, in sorted order.
    """
    m = profile.m
    if m > DP_GUARD:
        raise GuardError(f"subset DP guarded at m={DP_GUARD}, got {m}")
    ic = profile.int_cost()
    W = ic.pair_weights()
    full = (1 << m) - 1
    # above[S, a] = sum of W[b, a] over b outside S, the cost of placing a
    # above all of them.  Growing the top set to S by its lowest member a
    # puts a above the rest: forward pass and backtrack both add above[S, a].
    above = np.empty((full + 1, m), dtype=W.dtype)
    above[0] = W.sum(axis=0)
    size = np.zeros(full + 1, dtype=np.int8)
    for b in range(m):
        np.subtract(above[: 1 << b], W[b], out=above[1 << b : 2 << b])
        np.add(size[: 1 << b], 1, out=size[1 << b : 2 << b])
    bits = 1 << np.arange(m)
    # dp starts at a sentinel above every cost.  For a non-member a of S,
    # S ^ 1 << a is one set larger, not yet solved, so its step stays above
    # the sentinel and the minimum over all a is the minimum over S's
    # members: no membership mask.  The sentinel plus above stays below 2^63
    # wherever W is int64 (IntCost.dtype)
    top = sum(ic.nums) * max_swap_distance(m) + 1
    dp = np.full(full + 1, top, dtype=W.dtype)
    dp[0] = 0
    for c in range(1, m + 1):
        S = np.flatnonzero(size == c)
        step = dp[S[:, None] ^ bits]
        step += above[S]
        dp[S] = step.min(axis=1)

    winners: list[Ranking] = []
    capped = False

    def backtrack(S: int, suffix: tuple[int, ...]):
        nonlocal capped
        if len(winners) >= TIE_ENUMERATION_CAP:
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
    return SolveResult(
        winners=tuple(sorted(winners)),
        cost=Fraction(int(dp[full]), ic.denom),
        status="Exact",
        method="kemeny_dp",
        ties_complete=find_all_ties and not capped,
    )


def solve(
    profile: Profile, cost: CostSpec = CostSpec(), method: str = "auto", **kw
) -> SolveResult:
    """Dispatch: brute force for small m, DP for linear cost, else branch and bound."""
    if method == "auto":
        if profile.m <= 7:
            method = "brute_force"
        elif cost.exponent == 1 and profile.m <= 16:
            method = "kemeny_dp"
        else:
            method = "bnb"
    if method == "brute_force":
        return solve_brute_force(profile, cost, **kw)
    if method == "kemeny_dp":
        if cost.exponent != 1:
            raise DataError("the subset DP handles exponent 1 only")
        return solve_kemeny_dp(profile, **kw)
    if method == "bnb":
        return solve_bnb(profile, cost, **kw)
    raise DataError(f"unknown solve method: {method}")


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
    ic = profile.int_cost()
    poss = ic.pos.tolist()

    obj_var = "sqdist" if p == 2 else "dist"
    obj_terms = " + ".join(f"{w} {obj_var}_{k}" for k, w in enumerate(ic.nums))
    lines = ["Minimize", f" obj: {obj_terms}", "Subject To"]

    for a in range(m):
        for b in range(a + 1, m):
            lines.append(f" comp_{a}_{b}: x_{a}_{b} + x_{b}_{a} = 1")
    for a, b, c in itertools.permutations(range(m), 3):
        lines.append(f" tri_{a}_{b}_{c}: x_{a}_{b} + x_{b}_{c} + x_{c}_{a} <= 2")
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
