"""Rankings, exact-rational weighted profiles, swap distance, and Mahonian counts.

A ranking over m alternatives is a tuple of the alternative indices
0..m-1, best first.  Weights are exact rationals: a profile keeps them as
integers over a common denominator, and that integer form, with the pair
signs of its support, is the cost kernel every solver scores with; no
float ever enters a cost comparison.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DataError, DimensionError, GuardError

Ranking = tuple[int, ...]

ENUMERATION_GUARD = 10
MAHONIAN_CAP = 12


def as_ranking(order: Iterable[int]) -> Ranking:
    """Validate and freeze a ranking (a permutation of 0..m-1, m >= 2).

    Entries must be integers, Python or numpy; 0.5 is an error, not 0,
    and so is True, not 1.
    """
    try:
        entries = tuple(order)
        # plain ints stand as they are; anything else must convert
        r = entries if _PLAIN_INT.issuperset(map(type, entries)) else tuple(
            map(operator.index, entries))
    except TypeError as e:
        raise DataError(f"ranking entries must be integers: {e}") from None
    if r is not entries and bool in map(type, entries):
        raise DataError(f"ranking entries must be integers, not booleans: {entries}")
    m = len(r)
    if m < 2:
        raise DataError(f"a ranking needs at least 2 alternatives, got {m}")
    if sorted(r) != _range_list(m):
        raise DataError(f"not a permutation of 0..{m - 1}: {r}")
    return r


_PLAIN_INT = frozenset([int])


@functools.cache
def _range_list(m: int) -> list[int]:
    """[0, ..., m-1], kept for comparisons only."""
    return list(range(m))


def identity_ranking(m: int) -> Ranking:
    return tuple(range(m))


def reverse_ranking(r: Ranking) -> Ranking:
    return tuple(reversed(r))


def positions(r: Ranking) -> list[int]:
    """pos[a] = position of alternative a in r (0 = best)."""
    pos = [0] * len(r)
    for i, a in enumerate(r):
        pos[a] = i
    return pos


def max_swap_distance(m: int) -> int:
    return m * (m - 1) // 2


@functools.cache
def pair_indices(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of 0..m-1 in lexicographic order, as two index arrays."""
    return np.triu_indices(m, 1)


def pair_signs(pos: np.ndarray) -> np.ndarray:
    """Per row of positions (pos[..., a] = place of a), per pair i < j of
    `pair_indices`: +1 iff i sits above j, else -1 (int8)."""
    i, j = pair_indices(pos.shape[-1])
    return (pos[..., i] < pos[..., j]).view(np.int8) * 2 - 1


def swap_distance(r1: Ranking, r2: Ranking) -> int:
    """Kendall-tau distance: number of alternative pairs ordered differently."""
    if len(r1) != len(r2):
        raise DimensionError(f"rankings over different m: {len(r1)} vs {len(r2)}")
    pos2 = positions(r2)
    q = [pos2[a] for a in r1]
    d = 0
    for i, x in enumerate(q):
        for y in q[i + 1 :]:
            if x > y:
                d += 1
    return d


def round_set(z: Fraction | int) -> set[int]:
    """Closest integer(s) to z; both neighbours when z sits exactly halfway."""
    z = Fraction(z)
    if z < 0:
        raise DataError(f"round_set expects z >= 0, got {z}")
    k = math.floor(z)
    frac = z - k
    if frac < Fraction(1, 2):
        return {k}
    if frac == Fraction(1, 2):
        return {k, k + 1}
    return {k + 1}


def enumerate_rankings(m: int) -> Iterator[Ranking]:
    """All m! rankings in lexicographic order.  Guarded at m=10."""
    if m > ENUMERATION_GUARD:
        raise GuardError(
            f"enumerating {m}! rankings exceeds the guard ({ENUMERATION_GUARD})"
        )
    return itertools.permutations(range(m))


def mahonian(m: int) -> list[int]:
    """M_i = number of rankings at swap distance i from any fixed ranking.

    m < 1 is malformed (`DataError`); m above MAHONIAN_CAP is guarded.
    """
    if m < 1:
        raise DataError(f"mahonian needs m >= 1, got {m}")
    if m > MAHONIAN_CAP:
        raise GuardError(f"mahonian supports 1 <= m <= {MAHONIAN_CAP}, got {m}")
    # product of uniform blocks: prod_{k=1}^{m} (1 + x + ... + x^{k-1})
    coeffs = [1]
    for k in range(2, m + 1):
        block = [1] * k
        new = [0] * (len(coeffs) + k - 1)
        for i, c in enumerate(coeffs):
            for j, b in enumerate(block):
                new[i + j] += c * b
        coeffs = new
    return coeffs


def permute_ranking(r: Ranking, tau: Ranking) -> Ranking:
    """Relabel alternatives: alternative a becomes tau[a], order preserved."""
    return tuple(tau[a] for a in r)


def _read_weights(rows) -> list[tuple[object, tuple[int, int]]]:
    """(order, (numerator, positive denominator)) rows, every weight read
    before any order is checked: "p" and "p/q" digit strings with `int`, a
    `Fraction` as it is, anything else but a boolean by `Fraction`.  A row
    or weight that cannot be read is a `DataError`."""
    read = []
    try:
        for order, w in rows:
            if isinstance(w, str):
                num, slash, den = w.partition("/")
                if num.isascii() and num.isdigit() and (
                    not slash or den.isascii() and den.isdigit()
                ):
                    n, d = int(num), int(den) if slash else 1
                    if not d:
                        raise ZeroDivisionError(f"Fraction({n}, 0)")
                    read.append((order, (n, d)))
                    continue
            elif isinstance(w, bool):
                raise DataError(f"weights must be numbers or strings, not booleans: {w}")
            if not isinstance(w, Fraction):
                w = Fraction(w)
            read.append((order, (w.numerator, w.denominator)))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed profile entry: {e}") from e
    except (ZeroDivisionError, OverflowError) as e:  # "1/0", 1e400
        raise DataError(f"profile weight is not a finite rational: {e}") from e
    return read


def _scaled_profile(rows, normalize: bool, m: int | None = None):
    """A profile's integer form, (support, numerators, denominator, m) with
    the first two as tuples, from (order, (numerator, positive
    denominator)) rows as `_read_weights` returns them; the one loader
    every `Profile` is built by.

    Row by row, the order is checked (`as_ranking`), then its weight is
    refused if negative and dropped if zero.  The weights of repeated
    orders add up over the least common denominator, and the result is
    reduced.  m, when not given, is the first order's length; every kept
    order must match it.
    """
    kept = []
    misfit = None  # the first kept ranking whose length is not m
    for order, (num, den) in rows:
        r = as_ranking(order)
        if m is None:
            m = len(r)
        if num <= 0:
            if num:
                raise DataError(f"negative weight {Fraction(num, den)} for {r}")
            continue
        if misfit is None and len(r) != m:
            misfit = r
        kept.append((r, num, den))
    if m is None:
        raise DataError("empty profile")
    if misfit is not None:
        raise DimensionError(f"ranking {misfit} does not match m={m}")
    denom = math.lcm(*{den for _, _, den in kept})
    sums: dict[Ranking, int] = {}
    for r, num, den in kept:
        sums[r] = sums.get(r, 0) + num * (denom // den)
    supp = tuple(sorted(sums))
    if normalize and supp:
        denom = sum(sums.values())
    g = math.gcd(denom, *sums.values())
    nums = tuple(sums[r] // g for r in supp)
    return supp, nums, denom // g, m


class Profile:
    """Weighted multiset of rankings; weights are exact rationals summing to 1.

    A profile is held in integers, and this form is the cost kernel every
    solver scores with: `supp`, the sorted support (a tuple of rankings);
    `nums`, each weight's numerator over the least common denominator (a
    tuple of ints); and `denom`, that denominator.  `signs` adds the int8
    table of the pair signs of the support, made on first use.  A
    ranking's integer cost, sum(nums * d^p) over its swap distances d
    (`scaled_cost`), is its exact cost times denom.  The constructor,
    `from_weights` and `from_json` build this form straight from their
    input through one weight reader, `_read_weights`, and one loader,
    `_scaled_profile`: every weight is read as an exact rational
    (`Fraction` reads a float or a string; a boolean is refused) before
    any order is checked, each order must be a ranking over m, a zero
    weight is dropped and a negative one refused.  Two profiles are equal
    when this form, m and the labels are.  The `Fraction` weights by
    ranking, `entries`, are made on first use.  Profiles are immutable.
    """

    __slots__ = ("m", "labels", "supp", "nums", "denom", "_entries", "_signs")

    def __init__(
        self,
        entries: Mapping[Ranking, Fraction | int | str],
        m: int,
        labels: tuple[str, ...] | None = None,
    ):
        self._set(*_scaled_profile(_read_weights(entries.items()), False, m), labels)

    @classmethod
    def _scaled(cls, supp, nums, denom, m, labels) -> "Profile":
        """Profile from its integer form, sorted support and lowest terms."""
        prof = cls.__new__(cls)
        prof._set(supp, nums, denom, m, labels)
        return prof

    def _set(self, supp, nums, denom, m, labels):
        if sum(nums) != denom:
            raise DataError(
                f"profile weights sum to {Fraction(sum(nums), denom)}, expected 1"
            )
        if labels is not None and len(labels) != m:
            raise DataError("label count does not match m")
        for name, value in zip(
            self.__slots__, (m, labels, supp, nums, denom, None, None)
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Profile")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.labels, self.supp, self.nums, self.denom) == (
            other.m, other.labels, other.supp, other.nums, other.denom
        )

    __hash__ = None

    def __reduce__(self):  # copy and pickle without assigning fields
        return Profile._scaled, (self.supp, self.nums, self.denom, self.m, self.labels)

    def __repr__(self):
        return f"Profile(entries={self.entries!r}, m={self.m!r}, labels={self.labels!r})"

    @property
    def entries(self) -> dict[Ranking, Fraction]:
        """Weight by support ranking, as `Fraction`s (made on first use)."""
        if self._entries is None:
            denom = self.denom
            object.__setattr__(self, "_entries", {
                r: Fraction(n, denom) for r, n in zip(self.supp, self.nums)
            })
        return self._entries

    @property
    def signs(self) -> np.ndarray:
        """signs[v, k] = +1 if supp[v] puts i above j and -1 if not, for the
        k-th pair i < j of `pair_indices` (int8, read-only, made on first
        use): every scorer reads a voter's pairs from this one table."""
        if self._signs is None:
            n, m = len(self.supp), self.m
            orders = np.fromiter(itertools.chain.from_iterable(self.supp), np.intp, n * m)
            signs = pair_signs(np.argsort(orders.reshape(n, m), axis=1))
            signs.flags.writeable = False
            object.__setattr__(self, "_signs", signs)
        return self._signs

    @staticmethod
    def from_weights(
        pairs: Mapping[Iterable[int], Fraction | int | str]
        | Iterable[tuple[Iterable[int], Fraction | int | str]],
        labels: Iterable[str] | None = None,
        normalize: bool = False,
    ) -> "Profile":
        """Profile from (order, weight) pairs, a mapping or a sequence; the
        weights of repeated orders add up."""
        return Profile._scaled(
            *_scaled_profile(
                _read_weights(pairs.items() if isinstance(pairs, Mapping) else pairs),
                normalize,
            ),
            tuple(labels) if labels is not None else None,
        )

    def support(self) -> list[Ranking]:
        return list(self.supp)

    def weight(self, r: Ranking) -> Fraction:
        return self.entries.get(tuple(r), Fraction(0))

    def power_cost(self, cand: Ranking, p: int = 2) -> Fraction:
        """Exact weighted sum of swap(r, cand)^p over the support."""
        if len(cand) != self.m:
            raise DimensionError(f"candidate over m={len(cand)}, profile m={self.m}")
        if p < 1:
            raise DataError(f"exponent must be >= 1, got {p}")
        return Fraction(
            sum(n * swap_distance(r, cand) ** p for r, n in zip(self.supp, self.nums)),
            self.denom,
        )

    def kemeny_cost(self, cand: Ranking) -> Fraction:
        return self.power_cost(cand, 1)

    def cost_dtype(self, p: int):
        """int64 while every integer cost formed, up to sum(nums) * dmax^p,
        stays below 2^62, else object."""
        worst = sum(self.nums) * max_swap_distance(self.m) ** p
        return np.int64 if worst < 2**62 else object

    def bound_dtype(self, p: int):
        """The type `solve_bnb` forms its convex pair bound in.

        float64, whose products run through BLAS, while every value formed
        is an integer of magnitude at most N (P^p + P s) < 2^53, with
        N = sum(nums), P = dmax and s = (P+1)^p - P^p the largest slope: the
        slope-weighted votes and pair sums stay within P N s, the power and
        tangent sums within N max(P^p, P s).  Otherwise int64 while the
        bound's terms, up to (p+2) N (P+1)^p, stay below 2^62, else object.
        """
        N, P = sum(self.nums), max_swap_distance(self.m)
        if N * (P**p + P * ((P + 1) ** p - P**p)) < 2**53:
            return np.float64
        return np.int64 if (p + 2) * N * (P + 1) ** p < 2**62 else object

    def pair_weights(self) -> np.ndarray:
        """W[a, b] = scaled weight of the support rankings that put a above b.

        For a < b the pair's signed vote U = nums . signs splits the total
        N as W[a, b] = (N + U) / 2 and W[b, a] = (N - U) / 2.
        """
        N, dtype = sum(self.nums), self.cost_dtype(1)
        U = np.array(self.nums, dtype=dtype) @ self.signs.astype(dtype)
        W = np.zeros((self.m, self.m), dtype=dtype)
        i, j = pair_indices(self.m)
        W[i, j], W[j, i] = (N + U) // 2, (N - U) // 2
        return W

    def dists(self, r: Ranking) -> list[int]:
        """Swap distance from every support ranking to r: the pairs whose
        signs differ."""
        if len(r) != self.m:
            raise DimensionError(f"candidate over m={len(r)}, profile m={self.m}")
        return (self.signs != pair_signs(np.argsort(r))).sum(axis=1).tolist()

    def scaled_cost(self, r: Ranking, p: int) -> int:
        """r's integer cost sum(nums * d^p): its `power_cost` times denom."""
        return sum(w * d**p for w, d in zip(self.nums, self.dists(r)))

    def permute(self, tau: Ranking) -> "Profile":
        tau = as_ranking(tau)
        if len(tau) != self.m:
            raise DimensionError("permutation does not match m")
        return Profile(
            {permute_ranking(r, tau): w for r, w in self.entries.items()},
            self.m,
            self.labels,
        )

    def to_json(self) -> str:
        doc = {
            "m": self.m,
            "labels": list(self.labels) if self.labels is not None else None,
            "entries": [
                {"order": list(r), "weight": str(Fraction(n, self.denom))}
                for r, n in zip(self.supp, self.nums)
            ],
        }
        if doc["labels"] is None:
            del doc["labels"]
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str, normalize: bool = False) -> "Profile":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise DataError(f"invalid profile JSON: {e}") from e
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
            raise DataError("profile JSON needs an 'entries' list")
        rows = _read_weights((e["order"], e["weight"]) for e in doc["entries"])
        labels = doc.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(s, str) for s in labels)
        ):
            raise DataError(f"profile labels must be a list of strings, got {labels!r}")
        prof = Profile._scaled(
            *_scaled_profile(rows, normalize),
            tuple(labels) if labels is not None else None,
        )
        if "m" in doc:
            m = doc["m"]
            if type(m) is not int:
                raise DataError(f"profile 'm' must be an integer, got {m!r}")
            if m != prof.m:
                raise DataError(f"declared m={m} but rankings have m={prof.m}")
        return prof


@dataclass(frozen=True)
class Subprofile:
    """Pointwise-dominated weight function over a parent profile."""

    entries: Mapping[Ranking, Fraction]
    parent: Profile = field(repr=False)

    def __post_init__(self):
        size = Fraction(0)
        for r, w in self.entries.items():
            if w < 0 or w > self.parent.weight(r):
                raise DataError(f"subprofile weight {w} exceeds parent weight for {r}")
            size += w
        if not 0 < size <= 1:
            raise DataError(f"subprofile size {size} outside (0, 1]")
        object.__setattr__(self, "entries", dict(self.entries))

    @property
    def size(self) -> Fraction:
        return sum(self.entries.values(), Fraction(0))

    def mean_distance(self, cand: Ranking) -> Fraction:
        total = sum(
            (w * swap_distance(r, cand) for r, w in self.entries.items()),
            Fraction(0),
        )
        return total / self.size


def mix(r1: Profile, r2: Profile, lam: Fraction) -> Profile:
    """Convex combination lam*R1 + (1-lam)*R2."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise DataError(f"mixing weight must lie in (0,1), got {lam}")
    if r1.m != r2.m:
        raise DimensionError("profiles over different m")
    return Profile.from_weights(
        [(r, lam * w) for r, w in r1.entries.items()]
        + [(r, (1 - lam) * w) for r, w in r2.entries.items()],
        labels=r1.labels or r2.labels,
    )
