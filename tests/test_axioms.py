import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from rankfair.axioms import (
    CHECK_GUARDS,
    ORACLE_GUARD_M,
    SC_UNION_GUARD_M,
    SingleCrossingSequence,
    build_swap_path,
    check_participation_instance,
    check_reinforcement_instance,
    dominates,
    find_single_crossing_order,
    is_single_crossing,
    sc_proportional_expected_exhaustive,
    sqk_is_efficient,
    sqk_satisfies_2rp,
    sqk_satisfies_scp,
    two_rankings_expected,
)
from rankfair.core import (
    Profile,
    enumerate_rankings,
    max_swap_distance,
    reverse_ranking,
    round_set,
    swap_distance,
)
from rankfair.errors import DataError, GuardError
from rankfair.experiments import single_crossing_fixture
from rankfair.sampling import CultureSpec, sample_profile
from rankfair.solver import CostSpec, solve_brute_force


def two_ranking_profile(r1, r2, w1):
    return Profile.from_weights({tuple(r1): F(w1), tuple(r2): 1 - F(w1)})


def sc_proportional_expected(profile: Profile, seq: SingleCrossingSequence) -> set:
    """Rounded weighted-mean locations along one compatible maximal sequence:
    the one-sequence reference for `sc_proportional_expected_exhaustive`."""
    if not seq.maximal:
        raise DataError("expected a maximal sequence")
    index = {r: i for i, r in enumerate(seq.rankings)}
    mu = F(0)
    for r, w in profile.entries.items():
        if r not in index:
            raise DataError(f"support ranking {r} not on the sequence")
        mu += w * index[r]
    return {seq[i] for i in round_set(mu)}


def test_two_rankings_expected_requires_two():
    prof = Profile.from_weights({(0, 1): F(1)})
    with pytest.raises(DataError):
        two_rankings_expected(prof)


def test_two_rankings_expected_majority():
    # 3/5 vs 2/5 on reversed triples: proportionality wants distance 6/5
    # from the majority ranking, rounded to 1
    prof = two_ranking_profile((0, 1, 2), (2, 1, 0), F(3, 5))
    expected = two_rankings_expected(prof)
    assert expected == {(0, 2, 1), (1, 0, 2)}
    assert sqk_satisfies_2rp(prof)
    # the distance-1 cost under exponent 1 equals the cost of (0,1,2)
    # itself, so the proportional outputs are not the unique optima
    kemeny = set(solve_brute_force(prof, CostSpec(1)).winners)
    assert kemeny != expected


def test_two_rankings_expected_random_sweep():
    rng = np.random.default_rng(31)
    for _ in range(60):
        m = int(rng.integers(2, 6))
        r1 = tuple(int(x) for x in rng.permutation(m))
        r2 = tuple(int(x) for x in rng.permutation(m))
        if r1 == r2:
            continue
        num = int(rng.integers(1, 20))
        den = int(rng.integers(num + 1, 25))
        prof = two_ranking_profile(r1, r2, F(num, den))
        assert sqk_satisfies_2rp(prof)


def test_build_swap_path_properties():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        r1 = tuple(int(x) for x in rng.permutation(m))
        r2 = tuple(int(x) for x in rng.permutation(m))
        path = build_swap_path(r1, r2)
        assert path[0] == r1 and path[len(path) - 1] == r2
        assert len(path) == swap_distance(r1, r2) + 1
        assert all(
            swap_distance(path[i], path[i + 1]) == 1
            for i in range(len(path) - 1)
        )


def test_sequence_validation():
    with pytest.raises(DataError):
        SingleCrossingSequence(())
    # pair (0,1) crosses twice
    with pytest.raises(DataError):
        SingleCrossingSequence(((0, 1, 2), (1, 0, 2), (0, 1, 2)))
    with pytest.raises(DataError):
        SingleCrossingSequence(((0, 1, 2), (1, 0, 2)), maximal=True)
    seq = SingleCrossingSequence(
        ((0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)), maximal=True)
    assert len(seq) == max_swap_distance(3) + 1
    assert seq.location((1, 2, 0)) == 2


def test_is_single_crossing():
    assert is_single_crossing(((0, 1, 2), (1, 0, 2), (1, 2, 0)))
    assert not is_single_crossing(((0, 1, 2), (1, 0, 2), (0, 1, 2)))


def test_condorcet_cycle_not_single_crossing():
    prof = Profile.from_weights({
        (0, 1, 2): F(1, 3), (1, 2, 0): F(1, 3), (2, 0, 1): F(1, 3)})
    assert find_single_crossing_order(prof) is None


def test_fixture_order_recovered():
    prof, seq = single_crossing_fixture()
    found = find_single_crossing_order(prof)
    assert found is not None
    assert found.maximal
    locs = [found.location(r) for r in seq.rankings if r in prof.entries]
    assert locs == sorted(locs) or locs == sorted(locs, reverse=True)


def test_fixture_proportional_location():
    prof, seq = single_crossing_fixture()
    # weighted mean location 4 exactly, so the expected set is a singleton
    expected = sc_proportional_expected(prof, seq)
    assert expected == {seq[4]}
    assert set(solve_brute_force(prof, CostSpec(2)).winners) == expected
    assert set(solve_brute_force(prof, CostSpec(1)).winners) == {seq[2]}


def _all_maximal_sequences(m):
    """Every maximal swap sequence by unpruned DFS: from each start, swap any
    adjacent pair still in its starting orientation until none is left."""
    out = []

    def grow(seq, start_pos):
        cur = seq[-1]
        if len(seq) == max_swap_distance(m) + 1:
            out.append(tuple(seq))
            return
        for i in range(m - 1):
            a, b = cur[i], cur[i + 1]
            if start_pos[a] < start_pos[b]:
                nxt = cur[:i] + (b, a) + cur[i + 2:]
                grow(seq + [nxt], start_pos)

    for start in enumerate_rankings(m):
        grow([start], {a: i for i, a in enumerate(start)})
    return out


def _oracle_union(prof, sequences):
    """Rounded mean locations over every maximal sequence holding the support."""
    out, found = set(), False
    for seq in sequences:
        if all(r in seq for r in prof.entries):
            found = True
            mu = sum(w * seq.index(r) for r, w in prof.entries.items())
            out |= {seq[i] for i in round_set(mu)}
    return out if found else None


def test_exhaustive_union_matches_sequence_dfs_m3():
    sequences = _all_maximal_sequences(3)
    assert len(sequences) == 12  # two reduced words per start
    rankings = list(enumerate_rankings(3))
    for k in (1, 2, 3):
        for supp in itertools.combinations(rankings, k):
            for raw in ([1] * k, list(range(1, k + 1)), [3, 1, 1][:k]):
                prof = Profile.from_weights(
                    {r: F(x, sum(raw)) for r, x in zip(supp, raw)})
                assert sc_proportional_expected_exhaustive(prof) == \
                    _oracle_union(prof, sequences)


def test_exhaustive_union_matches_sequence_dfs_m4():
    sequences = _all_maximal_sequences(4)
    assert len(sequences) == 24 * 16
    rankings = list(enumerate_rankings(4))
    rng = np.random.default_rng(41)
    single_crossing = 0
    for _ in range(300):
        k = int(rng.integers(1, 5))
        supp = [rankings[i] for i in rng.choice(24, size=k, replace=False)]
        raw = [int(rng.integers(1, 10)) for _ in supp]
        prof = Profile.from_weights(
            {r: F(x, sum(raw)) for r, x in zip(supp, raw)})
        union = sc_proportional_expected_exhaustive(prof)
        assert union == _oracle_union(prof, sequences)
        single_crossing += union is not None
    assert single_crossing >= 100


def test_fixture_expected_within_exhaustive_union():
    prof, seq = single_crossing_fixture()
    assert sc_proportional_expected(prof, seq) <= \
        sc_proportional_expected_exhaustive(prof)


def test_exhaustive_union_equals_optima():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 40:
        m = int(rng.integers(3, 6))
        prof = sample_profile(CultureSpec("ic", n=3, m=m,
                                          seed=int(rng.integers(10**6))))
        union = sc_proportional_expected_exhaustive(prof)
        if union is None:
            continue
        assert union == set(solve_brute_force(prof, CostSpec(2)).winners)
        checked += 1


def test_dominates_basics():
    prof = Profile.from_weights({(0, 1, 2): F(1, 2), (1, 0, 2): F(1, 2)})
    assert not dominates((0, 1, 2), (0, 1, 2), prof)
    assert dominates((0, 1, 2), (2, 1, 0), prof)
    assert not dominates((2, 1, 0), (0, 1, 2), prof)


def test_optima_are_undominated():
    rng = np.random.default_rng(12)
    for t in range(30):
        prof = sample_profile(CultureSpec("ic", n=5, m=4, seed=3000 + t))
        winners = solve_brute_force(prof, CostSpec(2)).winners
        from rankfair.core import enumerate_rankings
        for w in winners:
            assert not any(dominates(r, w, prof)
                           for r in enumerate_rankings(4))


def test_reinforcement_instances():
    rng = np.random.default_rng(4)
    for t in range(25):
        m = int(rng.integers(2, 5))
        r1 = sample_profile(CultureSpec("ic", n=4, m=m, seed=4000 + t))
        r2 = sample_profile(CultureSpec("ic", n=4, m=m, seed=5000 + t))
        lam = F(int(rng.integers(1, 10)), 10)
        assert check_reinforcement_instance(r1, r2, lam, CostSpec(2))


def test_participation_instances():
    rng = np.random.default_rng(6)
    for t in range(25):
        m = int(rng.integers(2, 5))
        r1 = sample_profile(CultureSpec("ic", n=4, m=m, seed=6000 + t))
        r2 = sample_profile(CultureSpec("ic", n=4, m=m, seed=7000 + t))
        lam = F(int(rng.integers(1, 10)), 10)
        assert check_participation_instance(r1, r2, lam, CostSpec(2))


def test_reverse_endpoints():
    prof, seq = single_crossing_fixture()
    assert seq[len(seq) - 1] == reverse_ranking(seq[0])


def test_axiom_checks_are_guarded_before_they_enumerate():
    # two rankings just above each guard: refused before any ranking is
    # scored, so nothing the size of m! is built
    def pair(m):
        ident = tuple(range(m))
        return two_ranking_profile(ident, ident[::-1], F(1, 3))

    with pytest.raises(GuardError, match=f"m={ORACLE_GUARD_M}"):
        sqk_satisfies_2rp(pair(ORACLE_GUARD_M + 1))
    with pytest.raises(GuardError, match=f"m={SC_UNION_GUARD_M}"):
        sc_proportional_expected_exhaustive(pair(SC_UNION_GUARD_M + 1))
    with pytest.raises(GuardError, match="m=10"):
        find_single_crossing_order(pair(11))
    with pytest.raises(GuardError, match="m=6"):
        check_reinforcement_instance(pair(7), pair(7), F(1, 2))
    with pytest.raises(GuardError, match="m=6"):
        check_participation_instance(pair(7), pair(7), F(1, 2))


def test_each_check_raises_its_one_guard():
    # the guard `rankfair axioms --check` runs first, raised by the library too
    checks = {
        "2rp": sqk_satisfies_2rp,
        "scp": sqk_satisfies_scp,
        "efficiency": sqk_is_efficient,
        "participation": lambda prof: check_participation_instance(prof, prof, F(1, 2)),
    }
    assert set(checks) == set(CHECK_GUARDS)
    for check, verdict in checks.items():
        cap, cost = CHECK_GUARDS[check]
        ident = tuple(range(cap + 1))
        with pytest.raises(GuardError) as info:
            verdict(two_ranking_profile(ident, ident[::-1], F(1, 3)))
        assert str(info.value) == (
            f"--check {check} {cost}, guarded at m={cap}, got m={cap + 1}")


def test_scp_and_efficiency_verdicts():
    prof, _ = single_crossing_fixture()
    assert sqk_satisfies_scp(prof) and sqk_is_efficient(prof)
    # not single-crossing: the scp verdict holds vacuously
    cyclic = Profile.from_weights({(0, 1, 2): F(1, 3), (1, 2, 0): F(1, 3),
                                   (2, 0, 1): F(1, 3)})
    assert sc_proportional_expected_exhaustive(cyclic) is None
    assert sqk_satisfies_scp(cyclic)
    # the linear cost picks the median location (2), not the rounded mean (4)
    assert not sqk_satisfies_scp(prof, CostSpec(1))
    assert sqk_is_efficient(prof, CostSpec(1))


def test_single_crossing_search_guards_the_support_size():
    # 65 distinct rankings at m=5, one more than the search takes
    rankings = list(itertools.permutations(range(5)))[:65]
    profile = Profile.from_weights({r: F(1, 65) for r in rankings})
    with pytest.raises(GuardError, match="64 support rankings"):
        find_single_crossing_order(profile)
    # at 64 it runs, and finds no single-crossing order
    assert find_single_crossing_order(
        Profile.from_weights({r: F(1, 64) for r in rankings[:64]})) is None
