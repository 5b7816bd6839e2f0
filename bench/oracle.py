"""Exact references, computed by code other than the timed path.

- m <= 10: exhaustive enumeration of all m! rankings with integer costs.
- m = 12..15 under the linear cost: the other exact solver, branch and
  bound with every tie tracked, so the subset DP is checked against it.
- Worst-case programs: scipy's HiGHS `linprog` on the benchmark's own
  build of each program.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

BLOCK = 1 << 17


def kendall(r1, r2) -> int:
    """Swap distance by the O(m^2) pair count."""
    pos = {a: i for i, a in enumerate(r2)}
    p = [pos[a] for a in r1]
    m = len(p)
    return sum(1 for i in range(m) for j in range(i + 1, m) if p[i] > p[j])


def cost_of(entries, cand, p: int) -> Fraction:
    return sum((w * kendall(r, cand) ** p for r, w in entries), Fraction(0))


def _pairs(m: int):
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def _signs_of(r) -> np.ndarray:
    pos = [0] * len(r)
    for i, a in enumerate(r):
        pos[a] = i
    return np.array([1 if pos[a] < pos[b] else -1 for a, b in _pairs(len(r))], dtype=np.int8)


def _orders(m: int) -> np.ndarray:
    """All m! rankings as rows, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m + 1):
        # rankings of k alternatives: each first alternative, then the
        # rankings of the other k - 1 relabelled
        rows = np.concatenate([
            np.column_stack([np.full(len(rows), f, dtype=np.int8),
                             np.delete(np.arange(k, dtype=np.int8), f)[rows]])
            for f in range(k)
        ])
    return rows


_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All m! rankings (rows, best first) and their +-1 pair-order signs."""
    if m not in _TABLES:
        orders = _orders(m)
        n = len(orders)
        pos = np.empty_like(orders)
        np.put_along_axis(pos, orders.astype(np.intp),
                          np.broadcast_to(np.arange(m, dtype=np.int8), (n, m)), axis=1)
        signs = np.empty((n, m * (m - 1) // 2), dtype=np.int8)
        for k, (a, b) in enumerate(_pairs(m)):
            signs[:, k] = (pos[:, a] < pos[:, b]).astype(np.int8) * 2 - 1
        _TABLES[m] = (orders, signs)
    return _TABLES[m]


def exhaustive(entries, p: int) -> tuple[Fraction, list[tuple]]:
    """Optimal cost and every optimal ranking, by scoring all m! rankings."""
    m = len(entries[0][0])
    denom = math.lcm(*(w.denominator for _, w in entries))
    nums = [int(w * denom) for _, w in entries]
    n_pairs = m * (m - 1) // 2
    # float64 sums of integers stay exact below 2**53; past that (snapped
    # witnesses with huge denominators) score with Python integers
    nums = np.array(nums, dtype=np.float64 if sum(nums) * n_pairs**p < 2**53 else object)
    orders, signs = _table(m)
    votes = np.stack([_signs_of(r) for r, _ in entries], axis=1).astype(np.float32)
    best = None
    winners: list[np.ndarray] = []
    for lo in range(0, len(orders), BLOCK):
        dist = (n_pairs - signs[lo:lo + BLOCK].astype(np.float32) @ votes) / 2
        cost = (dist.astype(np.int64).astype(nums.dtype) ** p) @ nums
        low = cost.min()
        if best is None or low < best:
            best, winners = low, []
        if low == best:
            winners.append(orders[lo:lo + BLOCK][cost == low])
    win = sorted(tuple(int(a) for a in row) for row in np.concatenate(winners))
    return Fraction(int(best), denom), win


def exhaustive_ref(entries, p: int) -> dict:
    cost, winners = exhaustive(entries, p)
    return {"cost": str(cost), "winners": [list(w) for w in winners]}


def bnb_ref(entries) -> dict:
    """Linear-cost optimum and full tie set from branch and bound."""
    from rankfair.core import Profile
    from rankfair.solver import CostSpec, solve_bnb

    res = solve_bnb(Profile.from_weights(dict(entries)), CostSpec(1), find_all_ties=True)
    if res.status != "Exact" or not res.ties_complete:
        raise RuntimeError("branch and bound reference did not finish exactly")
    return {"cost": str(res.cost), "winners": [list(w) for w in sorted(res.winners)]}


# ----------------------------------------------------- worst-case programs

def _distances(m: int) -> np.ndarray:
    orders = list(itertools.permutations(range(m)))
    return np.array([[kendall(a, b) for b in orders] for a in orders], dtype=float)


def _linprog_max(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> float | None:
    from scipy.optimize import linprog

    res = linprog(-np.asarray(c, dtype=float), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                  b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(-res.fun)


def highs_single(m: int, target) -> float | None:
    """Largest weight the identity ranking can hold while target is optimal."""
    orders = list(itertools.permutations(range(m)))
    sq = _distances(m) ** 2
    t = orders.index(tuple(target))
    n = len(orders)
    c = np.zeros(n)
    c[0] = 1.0
    a_ub = np.array([-(sq[:, j] - sq[:, t]) for j in range(n) if j != t])
    return _linprog_max(c, a_ub, np.zeros(len(a_ub)), np.ones((1, n)), [1.0])


def highs_group(m: int, q: float) -> float | None:
    """Largest group at normalized mean distance >= q from an optimal identity."""
    d = _distances(m)
    sq = d**2
    n = len(d)
    dmax = m * (m - 1) / 2
    zeros = np.zeros(n)
    a_ub = [np.concatenate([-(sq[:, j] - sq[:, 0]), zeros]) for j in range(1, n)]
    for i in range(n):
        row = np.zeros(2 * n)
        row[i], row[n + i] = -1.0, 1.0
        a_ub.append(row)
    a_ub.append(np.concatenate([zeros, -(d[:, 0] - q * dmax)]))
    a_eq = np.concatenate([np.ones(n), zeros])[None, :]
    return _linprog_max(np.concatenate([zeros, np.ones(n)]), np.array(a_ub),
                        np.zeros(len(a_ub)), a_eq, [1.0])


def highs_lower(m: int, q: float) -> float | None:
    """Largest group weight some profile leaves far from every output."""
    d = _distances(m)
    n = len(d)
    dmax = m * (m - 1) / 2
    nv = n + n * n + 1
    a_eq, b_eq, a_ub = [], [], []
    row = np.zeros(nv)
    row[:n] = 1.0
    a_eq.append(row)
    b_eq.append(1.0)
    for c in range(n):
        base = n + c * n
        row = np.zeros(nv)
        row[base:base + n] = 1.0
        row[-1] = -1.0
        a_eq.append(row)
        b_eq.append(0.0)
        for i in range(n):
            row = np.zeros(nv)
            row[i], row[base + i] = -1.0, 1.0
            a_ub.append(row)
        row = np.zeros(nv)
        row[base:base + n] = -(d[:, c] - q * dmax)
        a_ub.append(row)
    c = np.zeros(nv)
    c[-1] = 1.0
    return _linprog_max(c, np.array(a_ub), np.zeros(len(a_ub)), np.array(a_eq), b_eq)
