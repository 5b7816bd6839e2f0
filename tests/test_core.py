import itertools
import json
from fractions import Fraction as F

import numpy as np
import pytest

from rankfair.core import (
    Profile,
    Subprofile,
    as_ranking,
    enumerate_rankings,
    identity_ranking,
    mahonian,
    max_swap_distance,
    mix,
    permute_ranking,
    reverse_ranking,
    round_set,
    swap_distance,
)
from rankfair.errors import DataError, DimensionError, GuardError


def test_as_ranking_validates():
    assert as_ranking([2, 0, 1]) == (2, 0, 1)
    with pytest.raises(DataError):
        as_ranking([0, 0, 1])
    with pytest.raises(DataError):
        as_ranking([1, 2, 3])
    with pytest.raises(DataError):
        as_ranking([0])


def test_as_ranking_rejects_non_integers():
    for bad in ([0.5, 1, 2], [0.0, 1, 2], ["0", "1"], [np.float64(1), 0]):
        with pytest.raises(DataError):
            as_ranking(bad)
    r = as_ranking(np.array([2, 0, 1], dtype=np.int8))
    assert r == (2, 0, 1) and all(type(a) is int for a in r)


def test_from_weights_adds_repeated_orders():
    prof = Profile.from_weights([((0, 1), F(1, 4)), ((1, 0), F(1, 2)), ([0, 1], F(1, 4))])
    assert prof.entries == {(0, 1): F(1, 2), (1, 0): F(1, 2)}
    with pytest.raises(DataError):
        Profile.from_weights([((0, 1), F(3, 2)), ((0, 1), F(-1, 2))])


def test_swap_distance_basics():
    assert swap_distance((0, 1, 2), (0, 1, 2)) == 0
    assert swap_distance((0, 1, 2), (2, 1, 0)) == 3
    assert swap_distance((0, 1, 2, 3), (1, 0, 3, 2)) == 2
    with pytest.raises(DimensionError):
        swap_distance((0, 1), (0, 1, 2))


def pairs_ordered_differently(r1, r2):
    """Independent oracle: alternative pairs the two rankings order differently."""
    return sum(
        1
        for a, b in itertools.combinations(range(len(r1)), 2)
        if (r1.index(a) < r1.index(b)) != (r2.index(a) < r2.index(b))
    )


def test_swap_distance_against_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = int(rng.integers(2, 9))
        r1 = tuple(rng.permutation(m))
        r2 = tuple(rng.permutation(m))
        assert swap_distance(r1, r2) == pairs_ordered_differently(r1, r2)


def test_swap_distance_metric_properties():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = 5
        a, b, c = (tuple(rng.permutation(m)) for _ in range(3))
        assert swap_distance(a, b) == swap_distance(b, a)
        assert swap_distance(a, c) <= swap_distance(a, b) + swap_distance(b, c)
        assert swap_distance(a, reverse_ranking(a)) == max_swap_distance(m)


def test_round_set():
    assert round_set(F(3, 2)) == {1, 2}
    assert round_set(F(1, 3)) == {0}
    assert round_set(F(5, 3)) == {2}
    assert round_set(4) == {4}
    assert round_set(F(1, 2)) == {0, 1}
    with pytest.raises(DataError):
        round_set(F(-1, 2))


def test_enumerate_rankings_guard():
    assert len(list(enumerate_rankings(4))) == 24
    assert next(iter(enumerate_rankings(3))) == (0, 1, 2)
    with pytest.raises(GuardError):
        enumerate_rankings(11)
    with pytest.raises(GuardError):
        enumerate_rankings(13, allow_large=True)


def test_mahonian_small_values():
    # rows checked against direct enumeration below
    assert mahonian(2) == [1, 1]
    assert mahonian(3) == [1, 2, 2, 1]
    assert mahonian(4) == [1, 3, 5, 6, 5, 3, 1]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mahonian_matches_enumeration(m):
    ident = identity_ranking(m)
    counts = [0] * (max_swap_distance(m) + 1)
    for r in enumerate_rankings(m):
        counts[swap_distance(ident, r)] += 1
    assert mahonian(m) == counts


def test_mahonian_guard():
    with pytest.raises(GuardError):
        mahonian(13)


def test_profile_validation():
    with pytest.raises(DataError):
        Profile({(0, 1, 2): F(1, 2)}, 3)
    with pytest.raises(DataError):
        Profile({}, 3)
    with pytest.raises(DimensionError):
        Profile({(0, 1): F(1)}, 3)
    prof = Profile.from_weights({(0, 1): 3, (1, 0): 1}, normalize=True)
    assert prof.weight((0, 1)) == F(3, 4)


def test_profile_power_cost():
    prof = Profile.from_weights({(0, 1, 2): F(2, 3), (2, 1, 0): F(1, 3)})
    assert prof.power_cost((0, 1, 2), 1) == F(1)
    assert prof.power_cost((0, 1, 2), 2) == F(3)
    assert prof.kemeny_cost((2, 1, 0)) == F(2)
    with pytest.raises(DataError):
        prof.power_cost((0, 1, 2), 0)


def test_profile_json_round_trip():
    prof = Profile.from_weights(
        {(0, 2, 1): F(1, 3), (1, 0, 2): F(2, 3)}, labels=["x", "y", "z"]
    )
    again = Profile.from_json(prof.to_json())
    assert again == prof
    doc = json.loads(prof.to_json())
    assert doc["m"] == 3
    assert doc["entries"][0]["weight"] == "1/3"


def test_profile_json_errors():
    with pytest.raises(DataError):
        Profile.from_json("not json")
    with pytest.raises(DataError):
        Profile.from_json('{"entries": [{"order": [0, 1], "weight": "1/2"}]}')
    with pytest.raises(DataError):
        Profile.from_json(
            '{"m": 4, "entries": [{"order": [0, 1, 2], "weight": "1"}]}'
        )


def test_mix():
    p1 = Profile.from_weights({(0, 1): F(1)})
    p2 = Profile.from_weights({(1, 0): F(1)})
    mixed = mix(p1, p2, F(1, 3))
    assert mixed.weight((0, 1)) == F(1, 3)
    assert mixed.weight((1, 0)) == F(2, 3)
    with pytest.raises(DataError):
        mix(p1, p2, F(0))


def test_permute_profile_neutrality():
    prof = Profile.from_weights({(0, 1, 2): F(1, 2), (2, 0, 1): F(1, 2)})
    tau = (1, 2, 0)
    moved = prof.permute(tau)
    assert moved.weight(permute_ranking((0, 1, 2), tau)) == F(1, 2)
    # costs are invariant under relabeling
    for cand in enumerate_rankings(3):
        assert prof.power_cost(cand, 2) == moved.power_cost(
            permute_ranking(cand, tau), 2
        )


def test_subprofile():
    prof = Profile.from_weights({(0, 1): F(1, 2), (1, 0): F(1, 2)})
    sub = Subprofile({(1, 0): F(1, 2)}, prof)
    assert sub.size == F(1, 2)
    assert sub.mean_distance((0, 1)) == F(1)
    with pytest.raises(DataError):
        Subprofile({(1, 0): F(2, 3)}, prof)
