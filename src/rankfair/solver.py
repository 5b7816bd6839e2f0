"""Exact and heuristic optimizers for power-of-swap-distance aggregation.

All solvers compare integer costs: `IntCost` scales profile weights by
their common denominator, so ties are decided exactly, never by float
rounding.
"""

from __future__ import annotations

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
# brute force scores the rankings in blocks of about this many matrix entries
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


def _signs(pos: np.ndarray) -> np.ndarray:
    """Row per row of pos, column per pair (i<j): +1 iff i sits above j."""
    m = pos.shape[1]
    signs = np.empty((len(pos), max_swap_distance(m)), dtype=np.int8)
    for k, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        signs[:, k] = np.where(pos[:, i] < pos[:, j], 1, -1)
    return signs


def _ranking_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All m! rankings in lexicographic order (int8 rows) and their pair signs."""
    if m not in _TABLES:
        orders = np.array(list(itertools.permutations(range(m))), dtype=np.int8)
        _TABLES[m] = orders, _signs(np.argsort(orders, axis=1))
    return _TABLES[m]


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

    def dtype(self, p: int):
        """int64 while every integer cost stays below 2^62, else object."""
        worst = sum(self.nums) * max_swap_distance(self.m) ** p
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
        i, j = np.triu_indices(self.m, 1)
        return (q[:, i] > q[:, j]).sum(axis=1).tolist()

    def cost(self, r: Ranking, p: int) -> int:
        return sum(w * d**p for w, d in zip(self.nums, self.dists(r)))


def solve_brute_force(profile: Profile, cost: CostSpec = CostSpec()) -> SolveResult:
    """Exact optimum by scoring every ranking; guarded at m=10."""
    m = profile.m
    if m > BRUTE_FORCE_GUARD:
        raise GuardError(
            f"brute force over {m}! rankings exceeds the guard ({BRUTE_FORCE_GUARD})"
        )
    p = cost.exponent
    ic = IntCost(profile)
    orders, signs = _ranking_table(m)
    dtype = ic.dtype(p)
    nums = np.array(ic.nums, dtype=dtype)
    # sums of at most 45 products of +-1 are exact in float32, which BLAS multiplies
    votes = _signs(ic.pos).T.astype(np.float32)
    n_pairs = len(votes)
    rows = max(1, _BLOCK_ENTRIES // (n_pairs + len(nums)))
    total = np.empty(len(signs), dtype=dtype)
    for s in range(0, len(signs), rows):
        agree = (signs[s : s + rows].astype(np.float32) @ votes).astype(np.int64)
        d = ((n_pairs - agree) // 2).astype(dtype, copy=False)
        total[s : s + rows] = d**p @ nums
    best = total.min()
    return SolveResult(
        winners=tuple(map(tuple, orders[total == best].tolist())),
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
    nums, denom = ic.nums, ic.denom
    poss = ic.pos.tolist()
    n_voters = len(nums)
    W = ic.pair_weights().tolist() if p == 1 else None

    seed = as_ranking(seed_candidate) if seed_candidate else approx_kemeny_seed(
        profile, cost
    )
    incumbent = ic.cost(seed, p)
    best: list[Ranking] = [seed]

    def kemeny_pair_bound(remaining: tuple[int, ...]) -> int:
        extra = 0
        for i, a in enumerate(remaining):
            for b in remaining[i + 1 :]:
                extra += min(W[a][b], W[b][a])
        return extra

    def node_lb(dvec: tuple[int, ...], remaining: tuple[int, ...]) -> int:
        lb = sum(w * d**p for w, d in zip(nums, dvec))
        if p == 1 and len(remaining) > 1:
            lb += kemeny_pair_bound(remaining)
        return lb

    root = ((), tuple(range(m)), (0,) * n_voters)
    stack = [(node_lb(root[2], root[1]), root)]
    nodes = 0
    exhausted = False
    while stack:
        if node_budget is not None and nodes >= node_budget:
            exhausted = True
            break
        lb, (prefix, remaining, dvec) = stack.pop()
        nodes += 1
        if lb > incumbent or (lb == incumbent and not find_all_ties):
            continue
        if len(remaining) == 1:
            cand = prefix + remaining
            val = sum(w * d**p for w, d in zip(nums, dvec))
            if val < incumbent:
                incumbent, best = val, [cand]
            elif val == incumbent and find_all_ties and cand not in best:
                best.append(cand)
            continue
        children = []
        for a in remaining:
            rest = tuple(b for b in remaining if b != a)
            new_d = tuple(
                d + sum(1 for b in rest if pos[b] < pos[a])
                for d, pos in zip(dvec, poss)
            )
            child = (prefix + (a,), rest, new_d)
            children.append((node_lb(new_d, rest), child))
        children.sort(key=lambda t: t[0], reverse=True)
        stack.extend(children)

    if exhausted:
        frontier = min((lb for lb, _ in stack), default=incumbent)
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
