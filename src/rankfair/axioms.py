"""Executable fairness properties: proportionality on two-ranking and
single-crossing profiles, swap paths, domination, and instance checks."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Profile,
    Ranking,
    as_ranking,
    enumerate_rankings,
    max_swap_distance,
    mix,
    positions,
    reverse_ranking,
    round_set,
    swap_distance,
)
from .errors import DataError, DimensionError, GuardError
from .solver import CostSpec, solve_brute_force

# the exhaustive proportionality union scores all m! rankings per start
SC_UNION_GUARD_M = 5
# the plain-Python oracles that scan all m! rankings, 2RP's expected set
# (`two_rankings_expected`) and the efficiency check's `dominates` scan: an
# efficiency check of one impartial-culture profile takes about 0.3 s at
# m = 8, 4.7 s at m = 9 and 30 s at m = 10 on a 2-core VM
ORACLE_GUARD_M = 8
INSTANCE_GUARD_M = 6  # participation and reinforcement: 2-3 brute-force solves
# each check `rankfair axioms --check` runs, by the name it takes there: its
# m cap, and what makes it costly; `guard_check` raises its GuardError
CHECK_GUARDS = {
    "2rp": (ORACLE_GUARD_M, "scans all m! rankings in plain Python"),
    "scp": (SC_UNION_GUARD_M, "compares with every compatible maximal sequence"),
    "efficiency": (ORACLE_GUARD_M, "scans all m! rankings in plain Python"),
    "participation": (INSTANCE_GUARD_M, "solves two profiles by brute force"),
}


def guard_check(check: str, m: int) -> None:
    """Refuse the check named `check` (a key of CHECK_GUARDS) above its m
    cap, before it draws, enumerates or solves anything."""
    cap, cost = CHECK_GUARDS[check]
    if m > cap:
        raise GuardError(f"--check {check} {cost}, guarded at m={cap}, got m={m}")


@dataclass(frozen=True)
class SingleCrossingSequence:
    """Rankings in which every alternative pair flips order at most once.

    A maximal sequence has consecutive swap distance 1 everywhere and
    mutually reverse endpoints, so its length is C(m,2)+1.
    """

    rankings: tuple[Ranking, ...]
    maximal: bool = False

    def __post_init__(self):
        rs = tuple(tuple(r) for r in self.rankings)
        object.__setattr__(self, "rankings", rs)
        if not rs:
            raise DataError("empty sequence")
        m = len(rs[0])
        if any(len(r) != m for r in rs):
            raise DimensionError("sequence mixes different m")
        if not is_single_crossing(rs):
            raise DataError("some alternative pair crosses more than once")
        if self.maximal:
            dmax = max_swap_distance(m)
            if len(rs) != dmax + 1:
                raise DataError(f"maximal sequence must have {dmax + 1} rankings")
            if any(swap_distance(a, b) != 1 for a, b in zip(rs, rs[1:])):
                raise DataError("maximal sequence needs consecutive distance 1")
            if rs[-1] != reverse_ranking(rs[0]):
                raise DataError("maximal sequence endpoints must be mutual reverses")

    def __len__(self):
        return len(self.rankings)

    def __getitem__(self, i):
        return self.rankings[i]

    def location(self, r: Ranking) -> int:
        return self.rankings.index(tuple(r))


def _inversions(r: Ranking) -> int:
    """Bitmask of the pairs a < b that r ranks b above (bit a*m + b)."""
    m = len(r)
    return sum(1 << (a * m + b) for i, b in enumerate(r) for a in r[i + 1:] if a < b)


def _nested(base: Ranking, rankings: Iterable[Ranking]) -> bool:
    """Do the flip sets relative to `base` (the pairs each ranking orders
    differently from base) grow by inclusion along `rankings`?"""
    inv = _inversions(base)
    prev = 0
    for r in rankings:
        flips = inv ^ _inversions(r)
        if prev & ~flips:
            return False
        prev = flips
    return True


def is_single_crossing(rankings: tuple[Ranking, ...]) -> bool:
    """Does every pair of alternatives flip relative order at most once?

    A pair flips at most once exactly when, once it differs from the first
    ranking, it keeps differing: the flip sets from the first ranking nest.
    """
    return _nested(rankings[0], rankings)


def two_rankings_expected(profile: Profile) -> set[Ranking]:
    """Outputs a proportionality-respecting rule may pick on a 2-ranking profile.

    With inputs r1, r2 at distance d, the output must sit at distance
    round((1 - w_i) * d) from each r_i, both constraints simultaneously.
    """
    supp = profile.support()
    if len(supp) != 2:
        raise DataError(f"expected a 2-ranking support, got {len(supp)}")
    r1, r2 = supp
    w1, w2 = profile.weight(r1), profile.weight(r2)
    d = swap_distance(r1, r2)
    ok1 = round_set((1 - w1) * d)
    ok2 = round_set((1 - w2) * d)
    return {
        cand
        for cand in enumerate_rankings(profile.m)
        if swap_distance(r1, cand) in ok1 and swap_distance(r2, cand) in ok2
    }


def sqk_satisfies_2rp(profile: Profile, cost: CostSpec = CostSpec()) -> bool:
    """Do the exact optima equal the proportional expected set?"""
    guard_check("2rp", profile.m)
    return two_rankings_expected(profile) == set(solve_brute_force(profile, cost).winners)


def build_swap_path(r1: Ranking, r2: Ranking) -> SingleCrossingSequence:
    """Shortest swap sequence from r1 to r2, one adjacent transposition per step.

    Repeatedly swaps the first adjacent pair that is inverted relative to
    the target, so each alternative pair crosses at most once and the
    path length is exactly swap(r1, r2) + 1.
    """
    r1, r2 = as_ranking(r1), as_ranking(r2)
    if len(r1) != len(r2):
        raise DimensionError("rankings over different m")
    target_pos = positions(r2)
    path = [r1]
    cur = list(r1)
    while tuple(cur) != r2:
        for i in range(len(cur) - 1):
            if target_pos[cur[i]] > target_pos[cur[i + 1]]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                path.append(tuple(cur))
                break
    maximal = len(path) == max_swap_distance(len(r1)) + 1
    return SingleCrossingSequence(tuple(path), maximal=maximal)


def _extend_to_maximal(order: list[Ranking]) -> SingleCrossingSequence:
    """Concatenate swap paths through `order` and on to the reverse of its start."""
    pieces = list(order) + [reverse_ranking(order[0])]
    seq: list[Ranking] = [pieces[0]]
    for a, b in zip(pieces, pieces[1:]):
        seq.extend(build_swap_path(a, b).rankings[1:])
    return SingleCrossingSequence(tuple(seq), maximal=True)


def find_single_crossing_order(profile: Profile) -> SingleCrossingSequence | None:
    """A maximal single-crossing sequence containing supp(R) in order, if any.

    The flip sets of a valid order nest from its first ranking, so its
    distances from that ranking strictly increase: sorting the support by
    distance from each support ranking in turn finds it whenever one exists.
    Returns None when no ordering is single-crossing.
    """
    if profile.m > 10:
        raise GuardError("single-crossing search guarded at m=10")
    supp = profile.support()
    if len(supp) > 64:
        raise GuardError("single-crossing search guarded at 64 support rankings")
    for anchor in supp:
        order = sorted(supp, key=lambda r: (swap_distance(anchor, r), r))
        if _nested(anchor, order):
            return _extend_to_maximal(order)
    return None


def sc_proportional_expected_exhaustive(profile: Profile) -> set[Ranking] | None:
    """Union of expected sets over every compatible maximal sequence (m <= 5),
    None when the profile is not single-crossing.

    A maximal sequence from a start s is a maximal chain of nested flip sets
    (weak order: u <= v iff Inv(u) is a subset of Inv(v)), so every ranking x
    on it sits at location d(s, x).  Hence the mean location depends on s
    alone, and x lies on some sequence from s through the ordered support iff
    its flip set is comparable with each support flip set.
    """
    guard_check("scp", profile.m)
    seq = find_single_crossing_order(profile)
    if seq is None:
        return None
    order = [r for r in seq.rankings if r in profile.entries]
    inv = {x: _inversions(x) for x in enumerate_rankings(profile.m)}
    out: set[Ranking] = set()
    for s, inv_s in inv.items():
        if not _nested(s, order):
            continue
        supp_flips = [inv_s ^ inv[r] for r in order]
        mu = sum(profile.entries[r] * f.bit_count() for r, f in zip(order, supp_flips))
        locations = round_set(mu)
        for x, inv_x in inv.items():
            flips = inv_s ^ inv_x
            if flips.bit_count() in locations and all(
                    not f & ~flips or not flips & ~f for f in supp_flips):
                out.add(x)
    return out


def sqk_satisfies_scp(profile: Profile, cost: CostSpec = CostSpec()) -> bool:
    """Do the exact optima lie in the union of expected sets over every
    compatible maximal sequence?  Vacuously true for a profile that is not
    single-crossing."""
    expected = sc_proportional_expected_exhaustive(profile)
    return expected is None or set(solve_brute_force(profile, cost).winners) <= expected


def dominates(r1: Ranking, r2: Ranking, profile: Profile) -> bool:
    """Is r1 weakly closer to every support ranking and strictly to some?"""
    strict = False
    for r in profile.entries:
        d1, d2 = swap_distance(r, r1), swap_distance(r, r2)
        if d1 > d2:
            return False
        if d1 < d2:
            strict = True
    return strict


def sqk_is_efficient(profile: Profile, cost: CostSpec = CostSpec()) -> bool:
    """Does no ranking dominate any exact optimum?"""
    guard_check("efficiency", profile.m)
    winners = solve_brute_force(profile, cost).winners
    return not any(dominates(r, w, profile)
                   for w in winners for r in enumerate_rankings(profile.m))


def check_reinforcement_instance(
    r1: Profile, r2: Profile, lam: Fraction, cost: CostSpec = CostSpec()
) -> bool:
    """If two electorates agree on some optimum, their merge keeps exactly
    the shared optima.  Vacuously true when the optima sets are disjoint."""
    if r1.m > INSTANCE_GUARD_M:
        raise GuardError(f"reinforcement instance check guarded at m={INSTANCE_GUARD_M}")
    w1 = set(solve_brute_force(r1, cost).winners)
    w2 = set(solve_brute_force(r2, cost).winners)
    common = w1 & w2
    if not common:
        return True
    merged = set(solve_brute_force(mix(r1, r2, Fraction(lam)), cost).winners)
    return merged == common


def check_participation_instance(
    r1: Profile, r2: Profile, lam: Fraction, cost: CostSpec = CostSpec()
) -> bool:
    """Does joining never hurt the joining group on this instance?

    Compares the optima of R1 alone against the optima of the mixture
    lam*R1 + (1-lam)*R2; returns False when some pre-join output
    dominates some post-join output from the joiners' (R2) perspective.
    """
    guard_check("participation", r1.m)
    before = solve_brute_force(r1, cost).winners
    after = solve_brute_force(mix(r1, r2, Fraction(lam)), cost).winners
    for b in before:
        for a in after:
            if dominates(b, a, r2):
                return False
    return True
