"""Rankings, exact-rational weighted profiles, swap distance, and Mahonian counts.

A ranking over m alternatives is a tuple of the alternative indices
0..m-1, best first.  Weights are `fractions.Fraction`, kept exact
throughout; no float ever enters a cost comparison.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import DataError, DimensionError, GuardError

Ranking = tuple[int, ...]

ENUMERATION_GUARD = 10
ENUMERATION_HARD_CAP = 12
MAHONIAN_CAP = 12


def as_ranking(order: Iterable[int]) -> Ranking:
    """Validate and freeze a ranking (a permutation of 0..m-1, m >= 2).

    Entries must be integers, Python or numpy; 0.5 is an error, not 0.
    """
    try:
        r = tuple(operator.index(a) for a in order)
    except TypeError as e:
        raise DataError(f"ranking entries must be integers: {e}") from None
    m = len(r)
    if m < 2:
        raise DataError(f"a ranking needs at least 2 alternatives, got {m}")
    if sorted(r) != list(range(m)):
        raise DataError(f"not a permutation of 0..{m - 1}: {r}")
    return r


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


def enumerate_rankings(m: int, allow_large: bool = False) -> Iterator[Ranking]:
    """All m! rankings in lexicographic order.  Guarded at m=10 (hard cap 12)."""
    cap = ENUMERATION_HARD_CAP if allow_large else ENUMERATION_GUARD
    if m > cap:
        raise GuardError(
            f"enumerating {m}! rankings exceeds the guard ({cap}); "
            "pass allow_large=True up to m=12"
        )
    return itertools.permutations(range(m))


def mahonian(m: int) -> list[int]:
    """M_i = number of rankings at swap distance i from any fixed ranking."""
    if not 2 <= m <= MAHONIAN_CAP:
        raise GuardError(f"mahonian supports 2 <= m <= {MAHONIAN_CAP}, got {m}")
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


@dataclass(frozen=True)
class Profile:
    """Weighted multiset of rankings; weights are exact rationals summing to 1."""

    entries: Mapping[Ranking, Fraction]
    m: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        total = Fraction(0)
        for r, w in self.entries.items():
            if len(r) != self.m:
                raise DimensionError(f"ranking {r} does not match m={self.m}")
            if w <= 0:
                raise DataError(f"non-positive weight {w} for {r}")
            total += w
        if total != 1:
            raise DataError(f"profile weights sum to {total}, expected 1")
        if not self.entries:
            raise DataError("empty profile")
        if self.labels is not None and len(self.labels) != self.m:
            raise DataError("label count does not match m")
        object.__setattr__(self, "entries", dict(self.entries))

    @staticmethod
    def from_weights(
        pairs: Mapping[Iterable[int], Fraction | int | str]
        | Iterable[tuple[Iterable[int], Fraction | int | str]],
        labels: Iterable[str] | None = None,
        normalize: bool = False,
    ) -> "Profile":
        """Profile from (order, weight) pairs, a mapping or a sequence; the
        weights of repeated orders add up."""
        entries: dict[Ranking, Fraction] = {}
        m = None
        for order, w in pairs.items() if isinstance(pairs, Mapping) else pairs:
            r = as_ranking(order)
            m = m or len(r)
            w = Fraction(w)
            if w < 0:
                raise DataError(f"negative weight {w} for {r}")
            if w == 0:
                continue
            entries[r] = entries.get(r, Fraction(0)) + w
        if m is None:
            raise DataError("empty profile")
        if normalize:
            total = sum(entries.values(), Fraction(0))
            entries = {r: w / total for r, w in entries.items()}
        return Profile(entries, m, tuple(labels) if labels is not None else None)

    def support(self) -> list[Ranking]:
        return sorted(self.entries)

    def weight(self, r: Ranking) -> Fraction:
        return self.entries.get(tuple(r), Fraction(0))

    def power_cost(self, cand: Ranking, p: int = 2) -> Fraction:
        """Exact weighted sum of swap(r, cand)^p over the support."""
        if len(cand) != self.m:
            raise DimensionError(f"candidate over m={len(cand)}, profile m={self.m}")
        if p < 1:
            raise DataError(f"exponent must be >= 1, got {p}")
        return sum(
            (w * swap_distance(r, cand) ** p for r, w in self.entries.items()),
            Fraction(0),
        )

    def kemeny_cost(self, cand: Ranking) -> Fraction:
        return self.power_cost(cand, 1)

    def permute(self, tau: Ranking) -> "Profile":
        tau = as_ranking(tau)
        if len(tau) != self.m:
            raise DimensionError("permutation does not match m")
        return Profile(
            {permute_ranking(r, tau): w for r, w in self.entries.items()},
            self.m,
            self.labels,
        )

    def scaled_int_weights(self) -> tuple[list[Ranking], list[int], int]:
        """Support rankings with weights as integers over a common denominator."""
        supp = self.support()
        ws = [self.entries[r] for r in supp]
        denom = math.lcm(*(w.denominator for w in ws))
        nums = [w.numerator * (denom // w.denominator) for w in ws]
        return supp, nums, denom

    def to_json(self) -> str:
        doc = {
            "m": self.m,
            "labels": list(self.labels) if self.labels is not None else None,
            "entries": [
                {"order": list(r), "weight": str(self.entries[r])}
                for r in self.support()
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
        if not isinstance(doc, dict) or "entries" not in doc:
            raise DataError("profile JSON needs an 'entries' list")
        try:
            pairs = [(e["order"], Fraction(e["weight"])) for e in doc["entries"]]
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"malformed profile entry: {e}") from e
        except (ZeroDivisionError, OverflowError) as e:  # "1/0", 1e400
            raise DataError(f"profile weight is not a finite rational: {e}") from e
        labels = doc.get("labels")
        prof = Profile.from_weights(pairs, labels=labels, normalize=normalize)
        if "m" in doc and doc["m"] != prof.m:
            raise DataError(f"declared m={doc['m']} but rankings have m={prof.m}")
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
    entries: dict[Ranking, Fraction] = {}
    for r, w in r1.entries.items():
        entries[r] = entries.get(r, Fraction(0)) + lam * w
    for r, w in r2.entries.items():
        entries[r] = entries.get(r, Fraction(0)) + (1 - lam) * w
    return Profile(entries, r1.m, r1.labels or r2.labels)
