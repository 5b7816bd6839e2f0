"""Exact and heuristic optimizers for power-of-swap-distance aggregation.

All solvers compare integer costs: `IntCost` scales profile weights by
their common denominator, so ties are decided exactly, never by float
rounding.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Profile, Ranking, as_ranking, max_swap_distance, positions
from .errors import DataError, DimensionError, GuardError

BRUTE_FORCE_GUARD = 10
DP_GUARD = 20
BNB_GUARD = 40
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


@functools.cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of 0..m-1 in lexicographic order, as two index arrays."""
    return np.triu_indices(m, 1)


def _signs(pos: np.ndarray) -> np.ndarray:
    """Row per row of pos, column per pair (i<j): +1 iff i sits above j."""
    i, j = _pairs(pos.shape[1])
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
    col[_pairs(m)] = np.arange(max_swap_distance(m))
    i, j = _pairs(m - k)
    return pre, rest, col[rest[:, i], rest[:, j]]


def _pair_sign_matrix(m: int) -> np.ndarray:
    """Row per ranking (lexicographic), column per pair (i<j): +1 iff i above j."""
    return _ranking_table(m)[1]


def _sign_vector(r: Ranking) -> np.ndarray:
    return _signs(np.array([positions(r)]))[0]


class IntCost:
    """A profile in integers, the one cost kernel every solver scores with.

    supp is the sorted support, nums its weights scaled by their common
    denominator denom, and pos[v, a] the position of alternative a in
    supp[v].  A ranking's integer cost, sum(nums * d^p) over its swap
    distances d, is its exact cost times denom.
    """

    def __init__(self, profile: Profile):
        self.m = profile.m
        self.supp, self.nums, self.denom = profile.scaled_int_weights()
        self.pos = np.argsort(np.array(self.supp), axis=1)

    def dtype(self, p: int, pair_bound: bool = False):
        """int64 while every integer formed stays below 2^62, else object.

        Costs reach sum(nums) * dmax^p; with pair_bound, the terms of
        `solve_bnb`'s convex pair bound, up to (p+2) * sum(nums) * (dmax+1)^p.
        """
        dmax = max_swap_distance(self.m)
        if pair_bound:
            worst = (p + 2) * sum(self.nums) * (dmax + 1) ** p
        else:
            worst = sum(self.nums) * dmax**p
        return np.int64 if worst < 2**62 else object

    def pair_weights(self) -> np.ndarray:
        """W[a, b] = scaled weight of the support rankings that put a above b."""
        above = self.pos[:, :, None] < self.pos[:, None, :]
        return np.tensordot(np.array(self.nums, dtype=self.dtype(1)), above, 1)

    def dists(self, r: Ranking) -> list[int]:
        """Swap distance from every support ranking to r."""
        if len(r) != self.m:
            raise DimensionError(f"candidate over m={len(r)}, profile m={self.m}")
        q = self.pos[:, list(r)]
        i, j = _pairs(self.m)
        return (q[:, i] > q[:, j]).sum(axis=1).tolist()

    def cost(self, r: Ranking, p: int) -> int:
        return sum(w * d**p for w, d in zip(self.nums, self.dists(r)))


def solve_brute_force(profile: Profile, cost: CostSpec = CostSpec()) -> SolveResult:
    """Exact optimum by scoring every ranking; guarded at m=10.

    The m! rankings are scored in m!/7! lexicographic blocks (`_blocks`): an
    ordered prefix of k = max(0, m-7) alternatives followed by every order
    of the rest, from one cached table of at most 7! rows.  A ranking's
    distance to voter v is the prefix's disagreements, counted once per
    block like a `solve_bnb` node's d, plus the suffix's, from one float32
    matmul of the table's signs against v's votes on the remaining pairs.
    Memory stays flat in m, and winners come out in lexicographic order.
    """
    m = profile.m
    if m > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"brute force over {m}! rankings exceeds the guard ({BRUTE_FORCE_GUARD})"
        )
    p = cost.exponent
    ic = IntCost(profile)
    pre, rest, cols = _blocks(m)
    orders, signs = _ranking_table(rest.shape[1])
    dtype = ic.dtype(p)
    nums = np.array(ic.nums, dtype=dtype)
    # distances are signs @ (-votes / 2) + (prefix disagreements + pairs / 2):
    # halves of integers below 64, exact in float32, which BLAS multiplies
    half = _signs(ic.pos).T * np.float32(-0.5)
    offset = np.full((len(pre), len(nums)), cols.shape[1] / 2, dtype=np.float32)
    k = pre.shape[1]
    if k:
        # voter v has q[a] alternatives above prefix member a; all but the
        # prefix members before a that v also puts above a, C(k, 2) minus the
        # inversions in all, are disagreements
        q = ic.pos[:, pre]
        i, j = _pairs(k)
        offset += (q.sum(axis=2) + (q[:, :, i] > q[:, :, j]).sum(axis=2) - len(i)).T
    rows = max(1, _BLOCK_ENTRIES // (cols.shape[1] + len(nums)))
    total = np.empty(len(orders), dtype=dtype)
    best, found = None, []
    for b in range(len(pre)):
        votes = half[cols[b]]
        for s in range(0, len(orders), rows):
            dist = signs[s : s + rows] @ votes
            dist += offset[b]
            d = dist.astype(np.int64).astype(dtype, copy=False)
            total[s : s + rows] = d**p @ nums
        low = total.min()
        if best is None or low < best:
            best, found = low, []
        if low == best:
            prefix = tuple(pre[b].tolist())
            found += (prefix + tuple(r) for r in rest[b][orders[total == low]].tolist())
    return SolveResult(
        winners=tuple(found),
        cost=Fraction(int(best), ic.denom),
        status="Exact",
        method="brute_force",
    )


def approx_best_input(profile: Profile, cost: CostSpec = CostSpec()) -> Ranking:
    """Best ranking among those appearing in the profile itself."""
    ic = IntCost(profile)
    return min(ic.supp, key=lambda r: (ic.cost(r, cost.exponent), r))


def approx_kemeny_seed(profile: Profile, cost: CostSpec = CostSpec()) -> Ranking:
    """Cheap starting candidate: positional-average order, locally improved."""
    ic = IntCost(profile)
    avg = (np.array(ic.nums, dtype=ic.dtype(1)) @ ic.pos).tolist()
    seed = as_ranking(sorted(range(ic.m), key=lambda a: (avg[a], a)))
    seed = local_search(profile, seed, cost)
    best_in = approx_best_input(profile, cost)
    p = cost.exponent
    if ic.cost(best_in, p) < ic.cost(seed, p):
        return best_in
    return seed


def local_search(
    profile: Profile, start: Ranking, cost: CostSpec = CostSpec()
) -> Ranking:
    """Greedy adjacent-swap descent from start, exact integer comparisons."""
    p = cost.exponent
    ic = IntCost(profile)
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
    bound.  All children of a node are bounded in one numpy batch.

    Exact when it runs to completion; with a node budget it may return an
    anytime result flagged "Heuristic" together with a certified global
    lower bound.  Tie tracking is on by default up to m=12.
    """
    m = profile.m
    if m > BNB_GUARD:
        raise GuardError(f"branch and bound guarded at m={BNB_GUARD}, got {m}")
    p = cost.exponent
    if find_all_ties is None:
        find_all_ties = m <= 12
    ic = IntCost(profile)
    denom = ic.denom
    dtype = ic.dtype(p, pair_bound=True)
    w = np.array(ic.nums, dtype=dtype)
    if p == 1:
        W = ic.pair_weights()
        M = np.minimum(W, W.T)

    seed = as_ranking(seed_candidate) if seed_candidate else approx_kemeny_seed(
        profile, cost
    )
    incumbent = ic.cost(seed, p)
    best: list[Ranking] = [seed]
    T = np.array(ic.dists(seed), dtype=dtype)

    def slope(t):
        return (t + 1) ** p - t**p

    def pair_term(s, ab, drop):
        # s: slopes per node and voter; ab[v, i, j]: voter v puts i above j
        ws = np.tensordot(s * w, ab, 1)
        mins = np.minimum(ws, ws.transpose(0, 2, 1))
        total = mins.sum(axis=(1, 2)) // 2
        return total if drop is None else total - mins[drop, drop].sum(axis=1)

    def bounds(D, ab, drop=None):
        """Convex pair bound of node k: distances D[k], undecided pairs those
        of ab without alternative drop[k]."""
        t = np.maximum(D, T)
        s = slope(t)
        secant = D**p @ w + pair_term(slope(D), ab, drop)
        tangent = (t**p + s * (D - t)) @ w + pair_term(s, ab, drop)
        return np.maximum(secant, tangent)

    def expand(remaining, dvec):
        """Distances and lower bounds of all children of a node."""
        R = np.array(remaining)
        pos = ic.pos[:, R]
        ab = pos[:, :, None] < pos[:, None, :]
        # child i adds, per voter, the remaining alternatives placed above R[i]
        D = dvec + ab.sum(axis=1).T
        if p == 1:
            MR = M[R[:, None], R]
            lb = D @ w + MR.sum() // 2 - MR.sum(axis=1)
        elif len(R) > 2:
            lb = bounds(D, ab, np.arange(len(R)))
        else:  # the children are complete rankings
            lb = D**p @ w
        return D, lb.tolist()

    root_d = np.zeros(len(w), dtype=dtype)
    root_lb = int(bounds(root_d[None], ic.pos[:, :, None] < ic.pos[:, None, :])[0])
    stack = [(root_lb, (), tuple(range(m)), root_d)]
    nodes = 0
    exhausted = False
    while stack:
        if node_budget is not None and nodes >= node_budget:
            exhausted = True
            break
        lb, prefix, remaining, dvec = stack.pop()
        nodes += 1
        if lb > incumbent or (lb == incumbent and not find_all_ties):
            continue
        if len(remaining) == 1:  # a complete ranking, whose bound is its cost
            cand = prefix + remaining
            if lb < incumbent:
                incumbent, best, T = lb, [cand], dvec
            elif cand not in best:
                best.append(cand)
            continue
        D, lbs = expand(remaining, dvec)
        for i in sorted(range(len(lbs)), key=lbs.__getitem__, reverse=True):
            rest = remaining[:i] + remaining[i + 1 :]
            stack.append((lbs[i], prefix + (remaining[i],), rest, D[i]))

    if exhausted:
        frontier = min((node[0] for node in stack), default=incumbent)
        global_lb = min(incumbent, frontier)
        return SolveResult(
            winners=tuple(sorted(best)),
            cost=Fraction(incumbent, denom),
            status="Heuristic",
            method="bnb",
            lower_bound=Fraction(global_lb, denom),
            nodes=nodes,
            ties_complete=False,
        )
    return SolveResult(
        winners=tuple(sorted(best)) if find_all_ties else (best[0],),
        cost=Fraction(incumbent, denom),
        status="Exact",
        method="bnb",
        nodes=nodes,
        ties_complete=find_all_ties,
    )


def solve_kemeny_dp(profile: Profile, find_all_ties: bool = True) -> SolveResult:
    """Exact linear-cost optimum via dynamic programming over subsets (m <= 20).

    dp[S] is the least cost of ranking the set S on top of all the others.
    """
    m = profile.m
    if m > DP_GUARD:
        raise GuardError(f"subset DP guarded at m={DP_GUARD}, got {m}")
    ic = IntCost(profile)
    W = ic.pair_weights()
    full = (1 << m) - 1
    # below[S, a] = sum of W[b, a] over b in S, the cost of placing a above
    # all of S.  Growing the top set to S by its lowest member a puts a above
    # the rest, full ^ S: forward pass and backtrack both add below[full ^ S, a].
    below = np.zeros((full + 1, m), dtype=W.dtype)
    size = np.zeros(full + 1, dtype=np.int8)
    for b in range(m):
        below[1 << b : 2 << b] = below[: 1 << b] + W[b]
        size[1 << b : 2 << b] = size[: 1 << b] + 1
    bits = 1 << np.arange(m)
    top = sum(ic.nums) * max_swap_distance(m) + 1  # above every cost
    dp = np.zeros(full + 1, dtype=W.dtype)
    for c in range(1, m + 1):
        S = np.flatnonzero(size == c)[:, None]
        has = (S & bits) != 0
        step = dp[np.where(has, S ^ bits, 0)] + below[full ^ S[:, 0]]
        dp[S[:, 0]] = np.where(has, step, top).min(axis=1)

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
            if S >> a & 1 and dp[S ^ 1 << a] + below[full ^ S, a] == dp[S]:
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
    ic = IntCost(profile)
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
