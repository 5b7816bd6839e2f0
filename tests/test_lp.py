import copy
import os
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rankfair import bounds, lp as lp_mod
from rankfair.bounds import worst_profile_single_ranking
from rankfair.errors import DataError, DimensionError, GuardError
from rankfair.lp import (
    LinearProgram,
    LiveTableau,
    LpWork,
    _pivot,
    parametric_rhs,
    solve_lp,
    verify_solution,
)


def test_trivial_minimum():
    lp = LinearProgram(objective=[1.0, 1.0], sense="min")
    lp.add_row([1.0, 1.0], ">=", 2.0)
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(2.0)
    assert verify_solution(lp, sol)


def test_maximization_with_upper_bounds():
    lp = LinearProgram(objective=[3.0, 2.0], sense="max")
    lp.add_row([1.0, 1.0], "<=", 4.5)
    lp.add_row([1.0, 0.0], "<=", 4.0)
    lp.add_row([0.0, 1.0], "<=", 1.0)
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(3 * 4.0 + 2 * 0.5)
    assert sol.values == pytest.approx([4.0, 0.5])


def test_free_variable():
    # a free x is u - v with u, v >= 0
    lp = LinearProgram(objective=[1.0, -1.0], sense="min")
    lp.add_row([1.0, -1.0], ">=", -3.0)
    sol = solve_lp(lp)
    assert sol.objective_value == pytest.approx(-3.0)
    assert sol.values[0] - sol.values[1] == pytest.approx(-3.0)


def test_infeasible():
    lp = LinearProgram(objective=[1.0], sense="min")
    lp.add_row([1.0], "<=", -1.0)
    sol = solve_lp(lp)
    assert sol.status == "Infeasible"


def test_a_tableau_proved_infeasible_stays_infeasible():
    # phase 1 runs again at every solve of a program it proved infeasible,
    # so no later solve prices phase 2 over a basic artificial column
    lp = LinearProgram(objective=[1.0, 1.0], sense="min")
    lp.add_row([1.0, 1.0], ">=", 2.0)
    lp.add_row([1.0, 1.0], "<=", 1.0)
    live = LiveTableau(lp)
    assert [live.solve().status for _ in range(3)] == ["Infeasible"] * 3


@pytest.mark.parametrize("sense, status", [("min", "Optimal"), ("max", "Unbounded")])
def test_cold_solve_leaves_no_artificial_columns(sense, status):
    # the = and >= rows start with an artificial column each; phase 1
    # removes them, so the solved tableau and the cost hold the structural
    # columns and one slack per inequality row, as a warm start's
    lp = LinearProgram(objective=[1.0, 2.0, 3.0], sense=sense)
    lp.add_row([1.0, 1.0, 1.0], ">=", 1.0)
    lp.add_row([1.0, 0.0, -1.0], "=", 0.25)
    lp.add_row([0.0, 1.0, 0.0], "<=", 0.5)
    live = LiveTableau(lp)
    assert live.T.shape[1] - 1 == 3 + 2 + 2
    sol = live.solve()
    assert sol.status == status
    assert live.T.shape[1] - 1 == len(live.cost) == 3 + 2
    if status == "Optimal":
        assert verify_solution(lp, sol)
        assert LiveTableau(lp, sol.basis).T.shape == live.T.shape


def test_unbounded():
    lp = LinearProgram(objective=[1.0], sense="max")
    lp.add_row([-1.0], "<=", 1.0)
    sol = solve_lp(lp)
    assert sol.status == "Unbounded"


def test_equality_rows():
    lp = LinearProgram(objective=[1.0, 2.0, 3.0], sense="min")
    lp.add_row([1.0, 1.0, 1.0], "=", 1.0)
    lp.add_row([1.0, 0.0, -1.0], "=", 0.25)
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert verify_solution(lp, sol)
    # x = (0.625, 0, 0.375) is the vertex with the cheapest objective
    assert sol.objective_value == pytest.approx(0.625 + 3 * 0.375)


def test_degenerate_program_terminates():
    # classic cycling example (Beale); Bland fallback must terminate it
    lp = LinearProgram(
        objective=[-0.75, 150.0, -0.02, 6.0], sense="min")
    lp.add_row([0.25, -60.0, -1.0 / 25.0, 9.0], "<=", 0.0)
    lp.add_row([0.5, -90.0, -1.0 / 50.0, 3.0], "<=", 0.0)
    lp.add_row([0.0, 0.0, 1.0, 0.0], "<=", 1.0)
    sol = solve_lp(lp)
    assert sol.status == "Optimal"
    assert sol.objective_value == pytest.approx(-0.05)


def test_start_basis_with_a_repeated_column_is_data_error():
    # a repeated column does not always make the basis solve raise: unchecked,
    # this program's [0, 0, 4] reads "Optimal" at 69.83, where the optimum is 0.70
    rng = np.random.default_rng(6)
    lp = LinearProgram(rng.random(4), "max")
    lp.add_rows(rng.random((3, 4)), "<=", 1.0)
    assert solve_lp(lp).objective_value == pytest.approx(0.70, abs=0.01)
    with pytest.raises(DataError, match=r"repeats column\(s\) \[0\]"):
        solve_lp(lp, [0, 0, 4])
    with pytest.raises(DataError, match=r"repeats column\(s\) \[5\]"):
        LiveTableau(lp, [5, 1, 5])


def test_tableau_guard_refuses_large_program():
    # 12,000 <= rows over one variable make a tableau of 12,001 x 12,002
    # doubles, 1.15 GB, from a program of 96 KB
    lp = LinearProgram(np.zeros(1), sense="min")
    lp.add_rows(np.ones((12_000, 1)), "<=", 1.0)
    assert 12_001 * 12_002 * 8 > lp_mod.TABLEAU_GUARD_BYTES
    with pytest.raises(GuardError):
        solve_lp(lp)


def test_refactorization_and_append_memory_against_the_tableau():
    # TABLEAU_GUARD_BYTES's comment, traced from before the program is built:
    # a cold solve of 100 >= rows (three refactorizations) peaks at 2.66
    # times its cold tableau's bytes; on 300 <= rows, Optimal at the slack
    # basis, a refactorization and an append at 3.01 and 2.65 times it
    rows = np.random.default_rng(1).random((2, 450))  # numpy.random imported untraced
    for k, n, rel, work, bound in [
            (100, 150, ">=", lambda live: live.solve(), 2.8),
            (300, 450, "<=", lambda live: lp_mod._refresh(live, live.cost), 3.1),
            (300, 450, "<=", lambda live: live.add_rows(rows, ">=", 1.0), 2.8)]:
        tracemalloc.start()
        try:
            rng = np.random.default_rng(0)
            lp = LinearProgram(rng.random(n), "min")
            lp.add_rows(rng.random((k, n)), rel, 1.0)
            live = LiveTableau(lp)
            if rel == "<=":
                assert live.solve().status == "Optimal" and live.T.shape == (301, 751)
            base = live.T.nbytes
            tracemalloc.reset_peak()
            work(live)
            assert tracemalloc.get_traced_memory()[1] <= bound * base
        finally:
            tracemalloc.stop()


def test_wide_program_without_rows_solves():
    sol = solve_lp(LinearProgram(np.ones(20_001), sense="min"))
    assert sol.status == "Optimal"
    assert sol.objective_value == 0.0 and not sol.values.any()


def test_dimension_mismatch():
    lp = LinearProgram(objective=[1.0, 1.0], sense="min")
    with pytest.raises(Exception):
        lp.add_row([1.0], ">=", 0.0)


def test_verify_solution_rejects_perturbation():
    lp = LinearProgram(objective=[1.0, 1.0], sense="min")
    lp.add_row([1.0, 1.0], ">=", 2.0)
    sol = solve_lp(lp)
    bad = replace(sol, values=np.asarray(sol.values) - 0.5)
    assert not verify_solution(lp, bad)


@pytest.mark.parametrize("x, ok", [
    ((1.0, 1.0), True),
    ((1.0 + 5e-9, 1.0), True),   # within VERIFY_TOL
    ((1.1, 1.0), False),         # x0 = 1 violated from above
    ((0.9, 1.5), False),         # ... and from below
    ((1.0, 0.9), False),         # x1 >= 1 violated
    ((1.0, 2.5), False),         # x0 + x1 <= 3 violated
])
def test_verify_solution_checks_every_relation(x, ok):
    lp = LinearProgram(objective=[1.0, 1.0], sense="min")
    lp.add_row([1.0, 0.0], "=", 1.0)
    lp.add_row([0.0, 1.0], ">=", 1.0)
    lp.add_row([1.0, 1.0], "<=", 3.0)
    sol = lp_mod.LpSolution("Optimal", np.array(x), sum(x))
    assert verify_solution(lp, sol) == ok


def test_weak_duality_spot_check():
    # any feasible dual certificate bounds the primal from below
    lp = LinearProgram(objective=[2.0, 3.0], sense="min")
    lp.add_row([1.0, 2.0], ">=", 4.0)
    lp.add_row([3.0, 1.0], ">=", 5.0)
    sol = solve_lp(lp)
    rng = np.random.default_rng(0)
    A = np.array([[1.0, 2.0], [3.0, 1.0]])
    c = np.array([2.0, 3.0])
    b = np.array([4.0, 5.0])
    for _ in range(200):
        y = rng.uniform(0.0, 2.0, size=2)
        if np.all(A.T @ y <= c + 1e-12):
            assert float(b @ y) <= sol.objective_value + 1e-9


def test_determinism():
    a = worst_profile_single_ranking(4)
    b = worst_profile_single_ranking(4)
    assert a.alpha == b.alpha
    assert a.witness.entries == b.witness.entries


def test_worst_case_exact_values():
    assert worst_profile_single_ranking(2).alpha_exact == F(1, 2)
    assert worst_profile_single_ranking(3).alpha_exact == F(1, 6)
    assert worst_profile_single_ranking(4).alpha_exact == F(7, 40)


def _pivot_rows(T, basis, row, col):
    """Row-by-row elimination: the reference for the rank-1 update."""
    T[row] /= T[row, col]
    piv = T[row]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0:
            T[r] -= T[r, col] * piv
    basis[row] = col


@pytest.mark.parametrize("shape", [(6, 5), (40, 30), (90, 700)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pivot_matches_row_loop(shape, sign):
    rng = np.random.default_rng(shape[0] * shape[1])
    T = rng.standard_normal(shape)
    T[rng.random(shape) < 0.3] = 0.0
    row, col = shape[0] // 2, shape[1] // 3
    T[::3, col] = 0.0  # rows the loop skips
    T[row, col] = sign * 1.75
    want, got = T.copy(), T.copy()
    b_want, b_got = list(range(shape[0])), list(range(shape[0]))
    _pivot_rows(want, b_want, row, col)
    _pivot(got, b_got, row, col)
    assert b_got == b_want
    # every entry is the same T[r,j] - f_r * piv[j]; a row with f_r == 0
    # can only turn a -0.0 into +0.0, which `+ 0.0` folds away
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    if sign > 0:  # no -0.0 in the pivot row, so the bits match as they are
        assert got.tobytes() == want.tobytes()


def _random_program(seed):
    """A feasible program built around a point x0 inside box bounds.

    Returns it in nonnegative variables, where a variable that may go
    negative is the difference u - v of two columns and a bound is a row,
    together with the box-bounded original (c, rows, bounds).
    """
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(2, 6)), int(rng.integers(1, 6))
    bounds_, x0 = [], []
    for _ in range(n):
        kind = int(rng.integers(5))
        lo = float(rng.choice([-2.5, -1.0, 0.5, 2.0]))
        hi = lo + float(rng.integers(1, 4))
        bounds_.append([(0.0, None), (None, None), (lo, None), (lo, hi),
                        (None, hi)][kind])
        base = {0: 0.0, 1: -1.0, 4: hi - 0.75}.get(kind, lo)
        x0.append(base + 0.25 * int(rng.integers(0, 4)))
    A = rng.integers(-3, 4, size=(k, n)).astype(float)
    rels = [str(r) for r in rng.choice(["<=", "=", ">="], size=k)]
    slack = 0.5 * rng.integers(0, 3, size=k)
    ax = A @ np.array(x0)
    rhs = [a + s if r == "<=" else a - s if r == ">=" else a
           for a, s, r in zip(ax, slack, rels)]
    c = rng.integers(-3, 4, size=n).astype(float)
    sense = str(rng.choice(["min", "max"]))
    # x = X @ y over nonnegative columns y
    X = np.hstack([np.eye(n)[:, [j]] * ([1.0, -1.0] if lo is None or lo < 0 else 1.0)
                   for j, (lo, _) in enumerate(bounds_)])
    prog = LinearProgram(c @ X, sense=sense)
    rows = list(zip(A, rels, rhs))
    for row, rel, b in rows:
        prog.add_row(row @ X, rel, b)
    for j, (lo, hi) in enumerate(bounds_):
        if lo:
            prog.add_row(X[j], ">=", lo)
        if hi is not None:
            prog.add_row(X[j], "<=", hi)
    return prog, (c, rows, bounds_)


def test_solve_lp_matches_highs():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    seen_rels, negative_rhs, statuses = set(), 0, []
    for seed in range(80):
        prog, (obj, rows, box) = _random_program(seed)
        sign = -1.0 if prog.sense == "max" else 1.0
        ub = [(c if r == "<=" else -c, b if r == "<=" else -b)
              for c, r, b in rows if r != "="]
        eq = [(c, b) for c, r, b in rows if r == "="]
        ref = scipy_optimize.linprog(
            sign * obj,
            A_ub=np.array([c for c, _ in ub]) if ub else None,
            b_ub=[b for _, b in ub] if ub else None,
            A_eq=np.array([c for c, _ in eq]) if eq else None,
            b_eq=[b for _, b in eq] if eq else None,
            bounds=box, method="highs")
        sol = solve_lp(prog)
        assert sol.status == {0: "Optimal", 3: "Unbounded"}[ref.status], seed
        if sol.status == "Optimal":
            assert sol.objective_value == pytest.approx(sign * ref.fun, abs=1e-7)
            assert verify_solution(prog, sol)
        seen_rels |= {r for _, r, _ in rows}
        negative_rhs += any(b < 0 for _, _, b in rows)
        statuses.append(sol.status)
    assert seen_rels == {"<=", "=", ">="}
    assert negative_rhs > 0
    assert statuses.count("Optimal") >= 40 and "Unbounded" in statuses


def _full_single_program(m):
    """The whole program `worst_profile_single_ranking(m)` stands for: the
    identity's weight, with the reverse ranking optimal against every
    competitor."""
    rankings, dist, G = bounds._margins(m, tuple(reversed(range(m))))
    obj = np.zeros(len(rankings))
    obj[0] = 1.0  # the identity, first in lexicographic order
    return bounds._optimality_program(obj, G, np.flatnonzero(dist))


def test_solution_counts_every_pivot(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _pivot(*args)

    monkeypatch.setattr(lp_mod, "_pivot", counted)
    sol = solve_lp(_full_single_program(5))
    assert sol.objective_value == pytest.approx(231 / 1318)
    assert sol.work.pivots == len(calls) > lp_mod.REFRESH_EVERY
    assert sol.work.refactorizations >= 1
    assert solve_lp(LinearProgram([1.0], sense="min")).work == LpWork()


def _highs(prog):
    """(status, objective) of prog from scipy's HiGHS: x >= 0, rows as given."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    sign = -1.0 if prog.sense == "max" else 1.0
    ub, eq = prog.rel != 0, prog.rel == 0
    ref = linprog(
        sign * prog.objective,
        A_ub=prog.A[ub] * prog.rel[ub, None] if ub.any() else None,
        b_ub=prog.b[ub] * prog.rel[ub] if ub.any() else None,
        A_eq=prog.A[eq] if eq.any() else None,
        b_eq=prog.b[eq] if eq.any() else None,
        bounds=(0, None), method="highs")
    status = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}[ref.status]
    return status, sign * ref.fun if status == "Optimal" else None


def test_final_basis_reproduces_the_solution():
    with_basis = 0
    for seed in range(80):
        prog, _ = _random_program(seed)
        sol = solve_lp(prog)
        if sol.status != "Optimal":
            assert sol.basis is None
            continue
        if sol.basis is None:  # phase 1 dropped a redundant row
            continue
        with_basis += 1
        assert len(sol.basis) == len(prog.b)
        assert len(set(sol.basis)) == len(sol.basis)
        assert all(0 <= j < prog.n + np.count_nonzero(prog.rel) for j in sol.basis)
        # the support of the solution is basic
        assert set(np.flatnonzero(sol.values > 1e-9)) <= set(sol.basis)
        # an optimal basis passed back in is primal feasible: phase 2 only,
        # and it is already optimal
        again = solve_lp(prog, sol.basis)
        assert again.status == "Optimal"
        assert again.work == LpWork(refactorizations=1)
        assert again.objective_value == pytest.approx(sol.objective_value, abs=1e-9)
    assert with_basis >= 30


def _rebuilt(live):
    """B^-1 [A | b] of the tableau's rows, rebuilt from its program."""
    Ab = lp_mod._standard_form(live.lp, live.kept)[0][:-1]
    return np.linalg.solve(Ab[:, live.basis], Ab)


def test_dropped_redundant_row_gives_no_basis(monkeypatch):
    lp = LinearProgram(objective=[1.0, 2.0], sense="min")
    lp.add_row([1.0, 1.0], "=", 1.0)
    lp.add_row([2.0, 2.0], "=", 2.0)
    sol = solve_lp(lp)
    assert sol.status == "Optimal" and sol.objective_value == pytest.approx(1.0)
    assert sol.basis is None
    # a refactorization after the drop rebuilds [A | b] of the kept rows:
    # before "Unbounded" (max z over x + y = 1 and twice it), and, one per
    # pivot, in min x + 2y + z/2 over x + y + z = 1, twice it and x >= 1/4
    seen = []  # the tableau's row count at each refactorization
    refresh = lp_mod._refresh
    monkeypatch.setattr(lp_mod, "_refresh",
                        lambda tab, *args: seen.append(len(tab.basis)) or refresh(tab, *args))
    unbounded, optimal = LinearProgram([0.0, 0.0, 1.0], "max"), LinearProgram([1.0, 2.0, 0.5], "min")
    for prog, row in [(unbounded, [1.0, 1.0, 0.0]), (optimal, [1.0, 1.0, 1.0])]:
        prog.add_row(row, "=", 1.0)
        prog.add_row(2 * np.array(row), "=", 2.0)
    optimal.add_row([1.0, 0.0, 0.0], ">=", 0.25)
    for prog, every, status, rows in [(unbounded, lp_mod.REFRESH_EVERY, "Unbounded", [1]),
                                      (optimal, 1, "Optimal", [3, 3, 2])]:
        monkeypatch.setattr(lp_mod, "REFRESH_EVERY", every)
        seen.clear()
        live = LiveTableau(prog)
        sol = live.solve()
        assert (sol.status, sol.basis, seen) == (status, None, rows)
        assert np.allclose(_rebuilt(live), live.T[:-1], rtol=0, atol=1e-12)
    assert sol.objective_value == pytest.approx(0.625) and verify_solution(optimal, sol)


def test_warm_start_after_cuts_matches_cold_and_highs():
    # the same cuts three ways: a warm start from the optimal basis plus
    # their slacks, a cold solve, and appended to the live tableau of the
    # cold solve before them, artificial columns and all
    pytest.importorskip("scipy.optimize")
    statuses = []
    for seed in range(80):
        prog, _ = _random_program(seed)
        live = LiveTableau(copy.copy(prog))
        sol = live.solve()
        assert sol.status == solve_lp(prog).status
        if sol.basis is None:
            continue
        rng = np.random.default_rng(1000 + seed)
        x = sol.values
        start = list(sol.basis)
        for _ in range(int(rng.integers(1, 4))):
            # a row that cuts the current optimum off by depth 1/4 to 3/2,
            # as <= or as the same row negated to >=
            a = rng.integers(-3, 4, size=prog.n).astype(float)
            if not a.any():
                a[int(rng.integers(prog.n))] = 1.0
            b = float(a @ x) - 0.25 * int(rng.integers(1, 7))
            if rng.random() < 0.5:
                prog.add_row(a, "<=", b)
                live.add_rows([a], "<=", b)
            else:
                prog.add_row(-a, ">=", -b)
                live.add_rows([-a], ">=", -b)
            start.append(prog.n + np.count_nonzero(prog.rel) - 1)
        assert live.basis == start
        # the appended rows are B^-1 [A | b] of the grown program, as a
        # refactorization at the same basis would write them
        assert np.allclose(_rebuilt(live), live.T[:-1], rtol=0, atol=1e-9)
        warm = solve_lp(prog, start)
        cold = solve_lp(prog)
        cut = live.solve()
        ref_status, ref_obj = _highs(prog)
        assert warm.status == cold.status == cut.status == ref_status, seed
        if warm.status == "Optimal":
            assert abs(warm.objective_value - cold.objective_value) <= 1e-8
            assert abs(warm.objective_value - ref_obj) <= 1e-8
            assert abs(cut.objective_value - ref_obj) <= 1e-8
            assert verify_solution(prog, warm) and verify_solution(prog, cut)
            assert len(warm.basis) == len(cut.basis) == len(prog.b)
        statuses.append(warm.status)
    assert statuses.count("Optimal") >= 15 and statuses.count("Infeasible") >= 15


def test_live_tableau_appends_only_slack_rows_to_an_optimum():
    lp = LinearProgram(objective=[1.0, 1.0], sense="max")
    lp.add_row([1.0, 1.0], "<=", 4.0)
    live = LiveTableau(lp)
    with pytest.raises(DataError, match="Optimal tableau"):
        live.add_rows([[1.0, 0.0]], "<=", 1.0)  # not solved yet
    assert live.solve().objective_value == pytest.approx(4.0)
    with pytest.raises(DataError, match="not ="):
        live.add_rows([[1.0, 0.0]], "=", 1.0)
    assert len(lp.b) == 1
    live.add_rows([[1.0, 0.0]], "<=", 1.0)
    assert live.solve().objective_value == pytest.approx(4.0)
    # y >= 5 leaves nothing feasible, and an infeasible tableau takes no rows
    live.add_rows([[0.0, 1.0]], ">=", 5.0)
    assert live.solve().status == "Infeasible"
    with pytest.raises(DataError, match="Optimal tableau"):
        live.add_rows([[0.0, 1.0]], "<=", 9.0)
    assert len(lp.b) == 3


def test_live_tableau_refactorizes_before_an_infeasible_verdict():
    # x + y >= 3 against x + y <= 2: the appended row has no negative entry,
    # so the dual simplex's first choice is "Infeasible".  The start basis
    # (x) is optimal, so no pivot follows its loading refactorization, yet
    # the rows computed on that tableau must be refactorized before the
    # verdict is accepted
    lp = LinearProgram(objective=[1.0, 1.0], sense="max")
    lp.add_row([1.0, 1.0], "<=", 2.0)
    live = LiveTableau(lp, [0])
    first = live.solve()
    assert first.objective_value == pytest.approx(2.0)
    assert first.work == LpWork(refactorizations=1)
    live.add_rows([[1.0, 1.0]], ">=", 3.0)
    sol = live.solve()
    assert sol.status == "Infeasible"
    assert sol.work.pivots == 0 and sol.work.refactorizations >= 1


def test_live_tableau_guard_leaves_program_and_tableau_unchanged(monkeypatch):
    lp = LinearProgram(objective=[1.0, 1.0], sense="max")
    lp.add_row([1.0, 1.0], "<=", 4.0)
    live = LiveTableau(lp)
    assert live.solve().objective_value == pytest.approx(4.0)
    before = [live.T.copy(), lp.A.copy(), lp.rel.copy(), lp.b.copy(), list(live.basis)]
    # room for the 2 x 4 tableau and the 3 x 5 one a row makes, not for the
    # 4 x 6 one two rows make; one non-finite row fits, and is refused
    monkeypatch.setattr(lp_mod, "TABLEAU_GUARD_BYTES", 3 * 5 * 8)
    for coeffs, rhs, error in [([[1.0, 0.0], [0.0, 1.0]], 1.0, GuardError),
                               ([[1.0, np.nan]], 1.0, DataError), ([[1.0, 0.0]], np.inf, DataError)]:
        with pytest.raises(error):
            live.add_rows(coeffs, "<=", rhs)
        now = [live.T, lp.A, lp.rel, lp.b, live.basis]
        assert all(np.array_equal(a, b) for a, b in zip(now, before))
    monkeypatch.undo()
    # within the guard, the same rows append and solve
    live.add_rows([[1.0, 0.0], [0.0, 1.0]], "<=", 1.0)
    assert live.solve().objective_value == pytest.approx(2.0)
    assert len(live.lp.b) == 3


def test_bad_start_basis_is_data_error():
    lp = LinearProgram(objective=[1.0, 1.0], sense="max")
    lp.add_row([1.0, 1.0], ">=", 1.0)  # slack column 2
    lp.add_row([1.0, 0.0], "<=", 3.0)  # slack column 3
    lp.add_row([0.0, 1.0], "<=", 3.0)  # slack column 4
    assert lp.slacks.tolist() == [2, 3, 4]
    assert solve_lp(lp).objective_value == pytest.approx(6.0)
    # the all-slack basis has slack 2 at -1 and negative reduced costs
    with pytest.raises(DataError, match="neither primal nor dual feasible"):
        solve_lp(lp, [2, 3, 4])
    # a repeated column, and distinct but dependent ones: x1 = s3 - s2
    with pytest.raises(DataError, match="singular"):
        solve_lp(lp, [2, 2, 4])
    with pytest.raises(DataError, match="singular"):
        solve_lp(lp, [0, 2, 3])
    for bad in ([2, 3], [2, 3, 4, 0], [2, 3, 5], [-1, 3, 4]):
        with pytest.raises(DataError, match="start basis"):
            solve_lp(lp, bad)
    # an = row has no slack column, and the rows after it number on: the
    # map itself is no basis, since the = row's -1 is no column
    lp.add_row([1.0, -1.0], "=", 0.0)
    lp.add_row([1.0, 1.0], "<=", 6.0)  # slack column 5
    assert lp.slacks.tolist() == [2, 3, 4, -1, 5]
    with pytest.raises(DataError, match="start basis"):
        solve_lp(lp, lp.slacks)
    # the optimum x = y = 3 as a start: y basic in the = row, x in slack
    # 3's row, slacks 2, 4 and 5 in their own
    assert solve_lp(lp, [2, 0, 4, 1, 5]).objective_value == pytest.approx(6.0)


@contextmanager
def _within(seconds):
    def timeout(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_dual_phase_does_not_cycle():
    # a degenerate target: its dual phases must finish, at the exact
    # optimum, within the alarm
    with _within(20):
        res = worst_profile_single_ranking(5, None, (1, 3, 4, 2, 0))
    assert res.alpha_exact == F(9, 20)
    assert res.rounds >= 3


class _Stop(Exception):
    pass


def _m6_rounds(monkeypatch) -> list:
    """Keep each row-generation round's program (a copy of the live
    tableau's, as solved) and solution, with m=6 programs let through."""
    monkeypatch.setattr(bounds, "LP_GUARD_M", 6)
    rounds = []
    solve = LiveTableau.solve

    def recorded(live):
        rounds.append((copy.copy(live.lp), solve(live)))
        return rounds[-1][1]

    monkeypatch.setattr(LiveTableau, "solve", recorded)
    return rounds


def _check_first_shifted_round(rounds):
    """Some round shifted an entering cost, and the first such round is
    Optimal, verified, and at HiGHS's optimum."""
    shifted = [(prog, sol) for prog, sol in rounds if sol.work.cost_shifts > 0]
    assert shifted
    prog, sol = shifted[0]
    assert sol.status == "Optimal" and verify_solution(prog, sol)
    status, objective = _highs(prog)
    assert status == "Optimal" and abs(sol.objective_value - objective) <= 1e-8


def test_dual_phase_never_steps_backwards(monkeypatch):
    # in the fourth round of this m=6 target an entering reduced cost that
    # rounding left below zero would make the dual step negative: it is
    # shifted to zero, and the round must still match HiGHS
    rounds = _m6_rounds(monkeypatch)
    with _within(30):
        res = worst_profile_single_ranking(6, None, (3, 4, 0, 2, 5, 1))
    assert res.alpha_exact == F(1, 2)
    _check_first_shifted_round(rounds)


def test_result_counts_every_pivot_of_every_round(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return _pivot(*args)

    monkeypatch.setattr(lp_mod, "_pivot", counted)
    res = worst_profile_single_ranking(5)
    assert res.alpha_exact == F(231, 1318)
    assert res.work.pivots == len(calls) > 0 and res.rounds > 1


def test_degenerate_pivots_count_the_zero_steps(monkeypatch):
    # every pivot of a row-generation solve is a phase-2 or a dual-phase
    # pivot (warm starts run no phase 1), told apart by the leaving row's
    # right-hand side.  A pivot is degenerate when the ratio test's least
    # ratio is at most PIVOT_TOL; the pivot taken may be any within
    # PIVOT_TOL of the least, so its own ratio is at most 2 * PIVOT_TOL
    steps = []

    def recorded(T, basis, row, col):
        if T[row, -1] < -lp_mod.PIVOT_TOL:  # dual: the reduced cost over |entry|
            steps.append(max(T[-1, col], 0.0) / -T[row, col])
        else:  # primal: the right-hand side over the entry
            steps.append(T[row, -1] / T[row, col])
        return _pivot(T, basis, row, col)

    monkeypatch.setattr(lp_mod, "_pivot", recorded)
    total = 0
    for target in [(1, 3, 4, 2, 0), (4, 3, 2, 1, 0), (2, 4, 1, 3, 0)]:
        res = worst_profile_single_ranking(5, None, target)
        total += res.work.degenerate_pivots
        assert res.work.pivots == len(steps)
        assert (sum(s <= lp_mod.PIVOT_TOL for s in steps) <= res.work.degenerate_pivots
                <= sum(s <= 2 * lp_mod.PIVOT_TOL for s in steps))
        steps.clear()
    assert total > 0


def test_add_rows_matches_add_row_and_validates_the_block():
    block = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 1.0]])
    one, many = (LinearProgram(np.ones(2), sense="min") for _ in range(2))
    for row in block:
        one.add_row(row, ">=", 1.0)
    many.add_rows(block, ">=", 1.0)
    for a, b in [(many.A, one.A), (many.rel, one.rel), (many.b, one.b)]:
        assert a.tolist() == b.tolist()
    lp = LinearProgram(np.ones(2), sense="min")
    with pytest.raises(DimensionError):
        lp.add_rows(np.ones((2, 3)), "<=", 1.0)
    with pytest.raises(DimensionError):
        lp.add_rows(np.ones(2), "<=", 1.0)
    with pytest.raises(DataError, match="relation"):
        lp.add_rows(np.ones((2, 2)), "<", 1.0)
    with pytest.raises(DataError, match="non-finite"):
        lp.add_rows([[1.0, np.inf]], "<=", 1.0)
    with pytest.raises(DataError, match="non-finite"):
        lp.add_rows(np.ones((2, 2)), "<=", np.nan)
    assert lp.A.shape == (0, 2) and len(lp.rel) == len(lp.b) == 0


def _first_pivot(monkeypatch, phase, *args):
    """The (row, column) of the first pivot `phase` takes on its tableau."""
    taken = []

    def stop(T, basis, row, col):
        taken.append((row, col))
        raise _Stop

    monkeypatch.setattr(lp_mod, "_pivot", stop)
    with pytest.raises(_Stop):
        phase(*args)
    return taken[0]


def _tableau(rows, cost, rhs, basis):
    """A tableau of the given rows, cost row and right-hand sides, with a
    unit entry under each row's basic column."""
    T = np.zeros((len(rows) + 1, len(cost) + 1))
    T[:-1, :-1], T[-1, :-1], T[:-1, -1] = rows, cost, rhs
    T[np.arange(len(basis)), basis] = 1.0
    return T


# in columns 1 and 2, rows 0-3 tie at the least ratio 2, row 1 within
# PIVOT_TOL of it: the largest entry, 2, is in rows 1 and 2, and of the tied
# rows row 3 has the smallest basic index (5); row 4 has a smaller one (4)
# and column 2's largest entry, and row 5 a negative entry, but they are
# not tied
PRIMAL_TIES = dict(
    rows=[[0, 0.5, 0.5, 0, 0, 0, 0, 0, 0, 0],
          [0, 2, 2, 0, 0, 0, 0, 0, 0, 0],
          [0, 2, 2, 0, 0, 0, 0, 0, 0, 0],
          [0, 1, 1, 0, 0, 0, 0, 0, 0, 0],
          [0, 0, 3, 0, 0, 0, 0, 0, 0, 0],
          [0, 0, -1, 0, 0, 0, 0, 0, 0, 0]],
    cost=[0.5, -1, -3, -2, 0, 0, 0, 0, 0, 0],
    rhs=[1, 4 + 1e-9, 4, 2, 10, 1],
    basis=[9, 8, 6, 5, 4, 7])


@pytest.mark.parametrize("bland, pivot", [
    # the most negative reduced cost enters, and of the rows tied at the
    # least ratio the first of largest entry leaves
    (False, (1, 2)),
    # Bland's rule: the first negative reduced cost enters, and of the
    # tied rows the one of smallest basic index leaves
    (True, (3, 1)),
])
def test_primal_rule_breaks_ratio_ties(monkeypatch, bland, pivot):
    if bland:
        monkeypatch.setattr(lp_mod, "DEGENERACY_STREAK", 0)
    T = _tableau(**PRIMAL_TIES)
    tab = SimpleNamespace(T=T, basis=list(PRIMAL_TIES["basis"]), stats=Counter(),
                          since_refresh=0)
    assert _first_pivot(monkeypatch, lp_mod._simplex_phase, tab, T[-1, :-1].copy()) == pivot


# of the negative right-hand sides, row 1's has the largest ratio of squared
# right-hand side to squared row norm (9 / 20.25, against row 0's 1 / 7 and
# row 3's 4 / 45), and row 3 the smallest basic index (7); row 2 has a
# smaller one (6) but a positive right-hand side.  Row 1 ties columns 0-3
# at the least ratio 2 (column 2 within PIVOT_TOL of it), the largest
# |entry| in columns 2 and 3; row 3 ties columns 1-3 at 1.  Column 5 has
# the largest |entry| of both rows and column 4 a positive one, but
# neither is tied
DUAL_TIES = dict(
    rows=[[-1, -1, -1, -1, -1, -1, 0, 0, 0, 0],
          [-1, -0.5, -2, -2, 1, -3, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
          [-1, -1, -4, -4, 1, -3, 0, 0, 0, 0]],
    cost=[2, 1, 4 + 1e-9, 4, 3, 30, 0, 0, 0, 0],
    rhs=[-1, -3, 0.5, -2],
    basis=[9, 8, 6, 7])


@pytest.mark.parametrize("bland, pivot", [
    # the row of largest squared right-hand side over squared norm leaves,
    # and of the columns tied at the least ratio the first of largest
    # |entry| enters
    (False, (1, 2)),
    # Bland's rule: of the negative right-hand sides the row of smallest
    # basic index leaves, and the smallest tied column enters
    (True, (3, 1)),
])
def test_dual_rule_breaks_ratio_ties(monkeypatch, bland, pivot):
    # unperturbed, so the ratios tie as written
    monkeypatch.setattr(lp_mod, "PERTURBATION", 0.0)
    if bland:
        monkeypatch.setattr(lp_mod, "DEGENERACY_STREAK", 0)
    T = _tableau(**DUAL_TIES)
    tab = SimpleNamespace(T=T, basis=list(DUAL_TIES["basis"]), stats=Counter(),
                          since_refresh=0)
    assert _first_pivot(monkeypatch, lp_mod._dual_phase, tab, T[-1, :-1].copy()) == pivot


def _dual_phase_stats(monkeypatch):
    """Sum the counters of every dual phase run from now on."""
    dual = Counter()
    real = lp_mod._dual_phase

    def counted(tab, cost):
        before = Counter(tab.stats)
        verdict = real(tab, cost)
        dual.update(tab.stats - before)
        return verdict

    monkeypatch.setattr(lp_mod, "_dual_phase", counted)
    return dual


def test_dual_phase_bland_rule_fires_without_perturbation(monkeypatch):
    # the cost perturbation keeps this target's dual phases off Bland's
    # rule; without it their degenerate streaks reach DEGENERACY_STREAK,
    # and they take hundreds of pivots by Bland's rule
    monkeypatch.setattr(lp_mod, "PERTURBATION", 0.0)
    dual = _dual_phase_stats(monkeypatch)
    with _within(20):
        res = worst_profile_single_ranking(5, None, (4, 1, 3, 0, 2))
    assert res.alpha_exact == F(306, 845)
    assert dual["bland_pivots"] > 0


def test_dual_phase_cost_shift_fires_without_perturbation(monkeypatch):
    # with the perturbation off the entering-cost shift must fire in this
    # m=6 target's rounds, and the round where it does must still match
    # HiGHS
    monkeypatch.setattr(lp_mod, "PERTURBATION", 0.0)
    rounds = _m6_rounds(monkeypatch)
    with _within(30):
        worst_profile_single_ranking(6, None, (3, 4, 0, 2, 5, 1))
    _check_first_shifted_round(rounds)


# a dual-feasible tableau with one negative entry in row 0, in column 0,
# whose reduced cost rounding left at -1e-12: over an entry of -1e-4 the
# dual step would be -1e-8, beyond -PIVOT_TOL, over an entry of -1 only
# -1e-12
@pytest.mark.parametrize("entry, shifted", [(-1e-4, True), (-1.0, False)])
def test_dual_ratio_test_shifts_an_entering_cost_below_zero(entry, shifted):
    T = _tableau(rows=[[entry, 1, 0]], cost=[-1e-12, 1, 0], rhs=[-1], basis=[2])
    tab = SimpleNamespace(T=T, stats=Counter())
    assert lp_mod._dual_ratio_test(tab)(0, False) == (0, 0.0)
    assert T[-1, 0] == (0.0 if shifted else -1e-12)
    assert tab.stats["cost_shifts"] == int(shifted)


@pytest.mark.parametrize("rows, rhs, pivot", [
    # row 0's right-hand side is the most negative, but its row is long:
    # 9 / 34 against row 1's 4 / 2, so row 1 leaves
    ([[-1, -4, -4, 0, 0, 0], [-1, 0, 0, 0, 0, 0]], [-3, -2], (1, 0)),
    # row 0 is short but feasible within PIVOT_TOL, so it never leaves:
    # row 1, beyond -PIVOT_TOL, does, however long
    ([[0, -1, 0, 0, 0, 0], [-100, 0, 0, 0, 0, 0]], [-2e-10, -2e-9], (1, 0)),
])
def test_dual_leaving_row_by_steepest_edge(monkeypatch, rows, rhs, pivot):
    T = _tableau(rows=rows, cost=[1, 1, 1, 1, 0, 0], rhs=rhs, basis=[4, 5])
    tab = SimpleNamespace(T=T, basis=[4, 5], stats=Counter(), since_refresh=0)
    assert _first_pivot(monkeypatch, lp_mod._dual_phase, tab, T[-1, :-1].copy()) == pivot


def _at(res, t):
    """The traced optimum at t, read off its pieces."""
    k = min(int(np.searchsorted(res.breakpoints, t, side="right")) - 1, len(res.slopes) - 1)
    return res.values[k] + res.slopes[k] * (t - res.breakpoints[k])


def test_parametric_rhs_traces_a_small_program():
    # max 3x + 2y with x + y <= t, x <= 1, y <= 2: F = 3t up to t = 1, then
    # 2t + 1 up to t = 3, then 7
    lp = LinearProgram([3.0, 2.0], "max")
    lp.add_row([1.0, 1.0], "<=", 4.0)
    lp.add_row([1.0, 0.0], "<=", 1.0)
    lp.add_row([0.0, 1.0], "<=", 2.0)
    res = parametric_rhs(lp, 0)
    assert res.start.status == "Optimal" and res.start.objective_value == pytest.approx(7.0)
    assert res.breakpoints == pytest.approx([0.0, 1.0, 3.0, 4.0])
    assert res.values == pytest.approx([0.0, 3.0, 7.0, 7.0])
    assert res.slopes == pytest.approx([3.0, 2.0, 0.0])
    assert res.breakpoints[0] == 0.0 and res.breakpoints[-1] == 4.0
    with pytest.raises(TypeError):
        res.slopes[0] = 1.0
    assert lp.b.tolist() == [4.0, 1.0, 2.0]  # the pass moved t in a copy of b
    # a min program's optimum is convex in t
    prog = copy.copy(lp)
    prog.objective, prog.sense = np.array([-3.0, -2.0]), "min"
    flipped = parametric_rhs(prog, 0)
    assert flipped.breakpoints == pytest.approx(res.breakpoints)
    assert flipped.values == pytest.approx([-v for v in res.values])
    assert flipped.slopes == pytest.approx([-v for v in res.slopes])
    # x >= 0.5 makes the program infeasible below t = 0.5: the pass ends
    # there; the shallow copy keeps its three rows
    lp.add_row([1.0, 0.0], ">=", 0.5)
    assert len(prog.A) == len(prog.rel) == len(prog.b) == 3
    res = parametric_rhs(lp, 0)
    assert res.breakpoints == pytest.approx([0.5, 1.0, 3.0, 4.0])
    assert res.values == pytest.approx([1.5, 3.0, 7.0, 7.0])
    assert res.slopes == pytest.approx([3.0, 2.0, 0.0])


def test_parametric_rhs_needs_a_positive_le_row_and_an_optimum():
    lp = LinearProgram([1.0, 1.0], "max")
    lp.add_row([1.0, 1.0], "<=", 2.0)
    lp.add_row([1.0, 0.0], ">=", 1.0)
    lp.add_row([0.0, 1.0], "<=", 0.0)
    lp.add_row([0.0, 1.0], "=", 1.0)
    for row in (1, 2, 3, 4, -1):
        with pytest.raises(DataError, match="not a <= row"):
            parametric_rhs(lp, row)
    unbounded = LinearProgram([1.0, 1.0], "max")
    unbounded.add_row([1.0, 0.0], "<=", 2.0)
    with pytest.raises(DataError, match="Unbounded"):
        parametric_rhs(unbounded, 0)


def test_parametric_rhs_matches_cold_solves():
    # small integer programs, often degenerate, some turning infeasible
    # below a positive t: the pieces give every cold optimum at t in between
    rng = np.random.default_rng(26)
    passes = Counter()
    for _ in range(40):
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        lp = LinearProgram(rng.integers(-2, 6, n).astype(float), "max")
        for row in rng.integers(0, 4, (k, n)).astype(float):
            lp.add_row(row, "<=", float(rng.integers(0, 6)))
        lp.add_row(np.ones(n), "<=", 10.0)
        if rng.random() < 0.3:
            lp.add_row(rng.integers(0, 3, n).astype(float), ">=", 1.0)
        row = int(rng.choice(np.flatnonzero((lp.rel > 0) & (lp.b > 0))))
        top = lp.b[row]
        start = solve_lp(lp)
        if start.status != "Optimal" or start.basis is None:
            continue
        res = parametric_rhs(lp, row)
        passes.update(pivots=res.work.pivots, degenerate=res.work.degenerate_pivots, runs=1)
        assert res.breakpoints[-1] == top and (np.diff(res.breakpoints) > 0).all()
        assert (np.diff(res.slopes) <= 1e-9).all()  # concave
        for t in np.linspace(0.0, top, 13):
            at_t = copy.copy(lp)
            at_t.b = np.r_[lp.b[:row], t, lp.b[row + 1:]]
            sol = solve_lp(at_t)
            if t < res.breakpoints[0] - 1e-9:
                assert sol.status == "Infeasible"
            elif t >= res.breakpoints[0]:
                assert sol.status == "Optimal"
                assert abs(_at(res, t) - sol.objective_value) <= 1e-9
    assert passes["runs"] >= 30 and passes["degenerate"] > 0


def test_parametric_rhs_under_bland_rule_traces_the_same_optimum(monkeypatch):
    # worst_group_curve(4)'s program, its pass taken by Bland's rule from the
    # first pivot: another pivot path, the same piecewise linear optimum
    seen = []
    monkeypatch.setattr(bounds, "parametric_rhs",
                        lambda prog, row: seen.append((prog, row)) or parametric_rhs(prog, row))
    bounds._group_pieces.cache_clear()
    ref = bounds._group_pieces(4).traced
    monkeypatch.setattr(lp_mod, "DEGENERACY_STREAK", 0)
    bland = parametric_rhs(*seen[0])
    # the same with one and two BLAS threads; a Bland rule that broke a tie
    # another way would move them
    assert bland.work.bland_pivots == bland.work.pivots == 142
    assert bland.work.degenerate_pivots == 73
    for t in np.linspace(0.0, 1.0, 401):
        assert abs(_at(bland, t) - _at(ref, t)) <= 1e-9


def test_parametric_rhs_refuses_a_corrupted_pass(monkeypatch):
    # worst_group_curve(4)'s program, one basic structural value of its pass
    # pushed off by 1 after the middle pivot: the breakpoints' recheck
    # against b(t) refuses the pass instead of returning a wrong F
    seen = []
    monkeypatch.setattr(bounds, "parametric_rhs",
                        lambda prog, row: seen.append((prog, row)) or parametric_rhs(prog, row))
    bounds._group_pieces.cache_clear()
    ref = bounds._group_pieces(4).traced
    prog, row = seen[0]
    middle = ref.start.work.pivots + ref.work.pivots // 2
    calls = []

    def corrupted(T, basis, r, col):
        _pivot(T, basis, r, col)
        calls.append(col)
        if len(calls) == middle:
            T[next(k for k, j in enumerate(basis) if j < prog.n), -1] += 1.0

    monkeypatch.setattr(lp_mod, "_pivot", corrupted)
    with pytest.raises(DataError, match="numerical breakdown: the parametric pass"):
        parametric_rhs(prog, row)
    assert len(calls) > middle > ref.start.work.pivots


WORST_CASE_PROBE = """
import sys
from rankfair.bounds import worst_group_curve, worst_profile_single_ranking
worst_profile_single_ranking(5, None, (1, 3, 4, 2, 0))
worst_group_curve(3, [0.5])
print("numpy.random" in sys.modules)
"""


def test_worst_case_programs_do_not_import_numpy_random():
    # the dual phase's perturbation is a fixed sequence: numpy.random alone
    # adds about 6 MB to a bare process's peak memory
    src = str(Path(lp_mod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", WORST_CASE_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
