import copy
import itertools
import json
import math
import pickle
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for bad in ([0.5, 1, 2], [0.0, 1, 2], ["0", "1"], [np.float64(1), 0],
                [True, False, 2], [1, False], [np.True_, np.False_]):
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


def test_mahonian_small_values():
    # rows checked against direct enumeration below
    assert mahonian(1) == [1]
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


@pytest.mark.parametrize("m", [0, -2])
def test_mahonian_below_one_is_data_error(m):
    # a malformed size, not a capacity refusal
    with pytest.raises(DataError, match="m >= 1") as info:
        mahonian(m)
    assert not isinstance(info.value, GuardError)


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


@pytest.mark.parametrize("args, kind, message", [
    (({(0, 1, 2): F(1, 2)}, 3), DataError, "profile weights sum to 1/2, expected 1"),
    (({}, 3), DataError, "profile weights sum to 0, expected 1"),
    (({(0, 1): F(1)}, 3), DimensionError, "ranking (0, 1) does not match m=3"),
    (({(0, 0, 1): F(1)}, 3), DataError, "not a permutation of 0..2: (0, 0, 1)"),
    (({(1, 0): F(2), (0, 1): F(-1)}, 2), DataError, "negative weight -1 for (0, 1)"),
    # checked by the loader the other constructors share: an entry's weight
    # before any ranking's length
    (({(0, 1): F(1, 2), (0, 1, 2): F(-1, 2)}, 2), DataError,
     "negative weight -1/2 for (0, 1, 2)"),
    (({(0, 1): F(-1), (0, 1, 2): F(2)}, 2), DataError, "negative weight -1 for (0, 1)"),
    # the sum is checked before the label count
    (({(0, 1): F(2, 3)}, 2, ("a",)), DataError, "profile weights sum to 2/3, expected 1"),
    (({(0, 1): F(2, 3), (1, 0): F(1, 3)}, 2, ("a",)), DataError,
     "label count does not match m"),
])
def test_profile_validation_messages(args, kind, message):
    with pytest.raises(kind) as info:
        Profile(*args)
    assert type(info.value) is kind and str(info.value) == message


def test_profile_constructor_reads_like_from_weights():
    # a zero weight is dropped, and float and int weights read as exact
    # rationals, held as Fractions
    assert Profile({(0, 1): F(0), (1, 0): F(1)}, 2) == Profile.from_weights({(1, 0): 1})
    half = Profile({(0, 1, 2): 0.5, (2, 1, 0): 0.5}, 3)
    assert half == Profile.from_weights({(0, 1, 2): 0.5, (2, 1, 0): 0.5})
    assert half.entries == {(0, 1, 2): F(1, 2), (2, 1, 0): F(1, 2)}
    whole = Profile({(0, 1, 2): 1}, 3)
    assert [type(w) for w in whole.entries.values()] == [F]
    # a non-permutation is refused, never scored as a ranking
    with pytest.raises(DataError, match="not a permutation"):
        Profile({(0, 0, 1): F(1)}, 3)


@pytest.mark.parametrize("weight, message", [
    (True, "malformed profile entry: weights must be numbers or strings, not booleans: True"),
    (False, "malformed profile entry: weights must be numbers or strings, not booleans: False"),
    (float("nan"), "malformed profile entry: cannot convert NaN to integer ratio"),
    (float("inf"), "profile weight is not a finite rational: cannot convert Infinity to integer ratio"),
    ("1/0", "profile weight is not a finite rational: Fraction(1, 0)"),
    (None, "malformed profile entry: argument should be a string or a Rational instance"),
], ids=["True", "False", "nan", "inf", "1/0", "None"])
def test_every_constructor_reads_weights_like_from_json(weight, message):
    # one reader for all three constructors: the same DataError, read before
    # the malformed order beside it is checked
    rows = [((0, 0), "1/2"), ((0, 1), weight)]
    doc = json.dumps({"entries": [{"order": list(r), "weight": w} for r, w in rows]})
    for build in (lambda: Profile(dict(rows), 2), lambda: Profile.from_weights(rows),
                  lambda: Profile.from_json(doc)):
        with pytest.raises(DataError) as info:
            build()
        assert type(info.value) is DataError and str(info.value) == message


profile_orders = st.integers(2, 4).flatmap(
    lambda m: st.lists(st.permutations(range(m)).map(tuple), min_size=1, max_size=6)
)


def as_given(w, form):
    """A weight as from_weights may receive it: Fraction, string or integer."""
    if form == "str":
        return str(w)
    if form == "int" and w.denominator == 1:
        return w.numerator
    return w


@given(
    rs=profile_orders,
    data=st.data(),
    balance=st.booleans(),
    normalize=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_from_weights_validates_like_a_fraction_sum(rs, data, balance, normalize):
    # duplicates, zeros and mixed denominators; half the cases topped up to 1
    rs = list(rs)
    ws = [F(data.draw(st.integers(-1, 6)), data.draw(st.integers(1, 12))) for _ in rs]
    if balance and sum(ws, F(0)) < 1:
        rs.append(rs[0])
        ws.append(1 - sum(ws, F(0)))
    forms = data.draw(st.lists(st.sampled_from(["frac", "str", "int"]),
                               min_size=len(ws), max_size=len(ws)))
    pairs = [(list(r), as_given(w, f)) for r, w, f in zip(rs, ws, forms)]
    labels = [chr(97 + a) for a in range(len(rs[0]))]

    negative = [(r, w) for r, w in zip(rs, ws) if w < 0]
    merged: dict = {}
    for r, w in zip(rs, ws):
        if w:
            merged[r] = merged.get(r, F(0)) + w
    total = F(0)
    for w in merged.values():
        total += w
    if negative:
        r, w = negative[0]
        with pytest.raises(DataError) as info:
            Profile.from_weights(pairs, labels=labels, normalize=normalize)
        assert str(info.value) == f"negative weight {w} for {r}"
        return
    if normalize and total:
        merged = {r: w / total for r, w in merged.items()}
        total = F(1)
    if total != 1:
        with pytest.raises(DataError) as info:
            Profile.from_weights(pairs, labels=labels, normalize=normalize)
        assert str(info.value) == f"profile weights sum to {total}, expected 1"
        return

    prof = Profile.from_weights(pairs, labels=labels, normalize=normalize)
    assert prof.entries == merged and prof.labels == tuple(labels)
    supp, nums, denom = prof.scaled_int_weights()
    assert supp == prof.support() == sorted(merged)
    # nums / denom are the weights, and a common factor would mean that a
    # smaller denominator serves
    assert [F(n, denom) for n in nums] == [merged[r] for r in supp]
    assert math.gcd(denom, *nums) == 1
    again = Profile.from_json(prof.to_json())
    assert again == prof and again.scaled_int_weights() == prof.scaled_int_weights()


def test_scaled_int_weights_returns_fresh_lists():
    prof = Profile.from_weights({(1, 0): F(1, 6), (0, 1): F(5, 6)})
    supp, nums, denom = prof.scaled_int_weights()
    assert (supp, nums, denom) == ([(0, 1), (1, 0)], [5, 1], 6)
    supp.append((0, 1))
    nums[0] = 0
    assert prof.scaled_int_weights() == ([(0, 1), (1, 0)], [5, 1], 6)
    assert prof.support() == [(0, 1), (1, 0)]


def test_profile_json_round_trip():
    prof = Profile.from_weights(
        {(0, 2, 1): F(1, 3), (1, 0, 2): F(2, 3)}, labels=["x", "y", "z"]
    )
    again = Profile.from_json(prof.to_json())
    assert again == prof
    assert pickle.loads(pickle.dumps(prof)) == copy.deepcopy(prof) == prof
    doc = json.loads(prof.to_json())
    assert doc["m"] == 3
    assert doc["entries"][0]["weight"] == "1/3"


def _doc(*rows, **extra):
    return json.dumps({**extra, "entries": [{"order": o, "weight": w} for o, w in rows]})


@pytest.mark.parametrize("text, kind, message", [
    ('{"entries": 5}', DataError, "profile JSON needs an 'entries' list"),
    ('{"entries": {"x": 1}}', DataError, "profile JSON needs an 'entries' list"),
    ('{"entries": "abc"}', DataError, "profile JSON needs an 'entries' list"),
    ('{"entries": null}', DataError, "profile JSON needs an 'entries' list"),
    ('{"entries": [[0, 1]]}', DataError,
     "malformed profile entry: list indices must be integers or slices, not str"),
    ('{"entries": []}', DataError, "empty profile"),
    (_doc(([0, 1, 2], "1/2"), ([0, 1], "1/2")), DimensionError,
     "ranking (0, 1) does not match m=3"),
    (_doc(([0, 1, 1], "1"),), DataError, "not a permutation of 0..2: (0, 1, 1)"),
    (_doc(([True, False, 2], "1"),), DataError,
     "ranking entries must be integers, not booleans: (True, False, 2)"),
    (_doc(([0.0, 1, 2], "1"),), DataError,
     "ranking entries must be integers: 'float' object cannot be interpreted as an integer"),
    (_doc(([0, 1, 2], "-1/2"), ([2, 1, 0], "3/2")), DataError,
     "negative weight -1/2 for (0, 1, 2)"),
    (_doc(([0, 1, 2], "2/4"),), DataError, "profile weights sum to 1/2, expected 1"),
    (_doc(([0, 1, 2], "0"), ([2, 1, 0], "0/7")), DataError,
     "profile weights sum to 0, expected 1"),
    (_doc(([0, 1, 2], "1"), labels=["a", "b"]), DataError, "label count does not match m"),
    (_doc(([0, 1, 2], "1"), m=4), DataError, "declared m=4 but rankings have m=3"),
    # every weight is read before any order is checked
    (_doc(([0, 0, 1], "1/2"), ([0, 1, 2], "x")), DataError,
     "malformed profile entry: Invalid literal for Fraction: 'x'"),
    # orders and signs are checked entry by entry, lengths after all of them
    (_doc(([0, 1, 2], "-1/2"), ([0, 0, 1], "1")), DataError,
     "negative weight -1/2 for (0, 1, 2)"),
    (_doc(([0, 1], "1"), ([0, 1, 2], "-1")), DataError, "negative weight -1 for (0, 1, 2)"),
    # m is the first order's, even at weight 0
    (_doc(([0, 1, 2], "0"), ([0, 1], "1")), DimensionError,
     "ranking (0, 1) does not match m=3"),
])
def test_from_json_malformed_messages(text, kind, message):
    with pytest.raises(kind) as info:
        Profile.from_json(text)
    assert type(info.value) is kind and str(info.value) == message


@st.composite
def profile_docs(draw):
    """A profile JSON document and the (order, Fraction) pairs it holds:
    repeated orders, zero weights, and each weight in one of the forms a
    file may use."""
    m = draw(st.integers(2, 6))
    orders = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=8))
    orders += draw(st.lists(st.sampled_from(orders), max_size=3))
    ks = draw(st.lists(st.integers(0, 6), min_size=len(orders), max_size=len(orders)))
    ks[0] = ks[0] or 1
    normalize = draw(st.booleans())
    # normalized weights need not sum to 1
    scale = draw(st.integers(1, 4)) if normalize else sum(ks)
    pairs, entries = [], []
    for order, k in zip(orders, ks):
        w = F(k, scale)
        forms = ["reduced", "unreduced"]
        if not k:
            forms += ["zero", "zero over seven"]
        if w.denominator == 1:
            forms.append("number")
        if 10**6 % w.denominator == 0:
            forms.append("decimal")
        if 2**20 % w.denominator == 0:
            forms.append("float")
        form = draw(st.sampled_from(forms))
        c = draw(st.integers(2, 3))
        text = {
            "reduced": str(w),
            "unreduced": f"{c * w.numerator}/{c * w.denominator}",
            "zero": "0",
            "zero over seven": "0/7",
            "number": w.numerator,
            "decimal": str(Decimal(w.numerator) / Decimal(w.denominator)),
            "float": float(w),
        }[form]
        pairs.append((order, w))
        entries.append({"order": order, "weight": text})
    labels = draw(st.sampled_from([None, [chr(97 + a) for a in range(m)]]))
    doc = {"entries": entries}
    if labels is not None:
        doc["labels"] = labels
    if draw(st.booleans()):
        doc["m"] = m
    return json.dumps(doc), pairs, labels, normalize


@given(profile_docs())
@settings(max_examples=300, deadline=None)
def test_from_json_loads_like_from_weights(case):
    text, pairs, labels, normalize = case
    loaded = Profile.from_json(text, normalize=normalize)
    built = Profile.from_weights(pairs, labels=labels, normalize=normalize)
    assert loaded == built and loaded.to_json() == built.to_json()
    assert loaded.entries == built.entries
    assert loaded.scaled_int_weights() == built.scaled_int_weights()


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
