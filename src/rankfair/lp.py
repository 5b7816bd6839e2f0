"""Dense simplex in double precision: a two-phase primal simplex, a dual
simplex restart from a given basis and a parametric pass over one
right-hand side, all on one kind of tableau.

A program is max or min c'x over one constraint block, rows A x (<=, =
or >=) b, with every variable nonnegative; an upper bound is a row, a
free variable the difference of two.  The worst-case programs in
`rankfair.bounds` have up to a few thousand dense variables and are
highly degenerate.

The simplex state lives on a `LiveTableau`: the program, the tableau,
its basis, the work counters and the count of updates since the last
refactorization.  The program's block is the only copy of the constraint
data: `_standard_form` writes its rows in standard form for the
constructor, for appended rows and for each refactorization, which
rebuilds [A | b] in the tableau's own rows.  A cold start's artificial
columns leave with phase 1, so a solved tableau is numbered alike cold
or warm.  The phases take the tableau and give a verdict: the primal
(`_simplex_phase`) and the dual (`_dual_phase`, its leaving row priced
by steepest edge) simplex each supply only a pivot rule to one pivot
loop, `_pivot_loop`, which pivots and counts through `_step`,
refactorizes through `_refresh` at a fixed cadence and before it accepts
a verdict other than Optimal, and switches to Bland's rule after a
streak of degenerate pivots.  Every least ratio comes from one ratio
test, `_least_ratio`, and every row's slack column from one map,
`LinearProgram.slacks`.
`solve_lp` is one solve of a new tableau; row generation keeps one
between rounds and appends rows to it in the current basis
(`LiveTableau.add_rows`); `parametric_rhs` runs its pass on the tableau
that solved its start, over a copy of the program's b, and rechecks the
solution at every breakpoint it records with `verify_solution`.

Solves are deterministic only for a fixed BLAS thread count: the BLAS
calls (the refactorization and the reduced-cost products) round
differently under another count, and the pivot path can follow (the
120 full m=5 single-ranking programs take 131,757 pivots with one
OpenBLAS thread and 134,130 with two).
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionError, GuardError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
VERIFY_TOL = 1e-8  # verify_solution's slack on rows, signs and the objective
# the tableau holds (rows + 1) x width doubles and the program's A fewer.
# Beyond both, a refactorization (which rebuilds [A | b] in the tableau's own
# rows) allocates 1.40 times the tableau's bytes, the basis matrix and the
# solve's output, and an append of 10 rows 1.04 times, the new tableau built
# while the old one is held, measured under tracemalloc on a 1,000-row,
# 2,501-column tableau; a cold solve, program included, peaks at 2.71 times
# its cold tableau's bytes (a 300-row, 400-variable >= program).  At the guard
# a refactorization peaks below 3.4 GiB, inside a 7 GB machine
TABLEAU_GUARD_BYTES = 1 << 30


# a row's relation as the sign of its slack column: x + s = b for <=,
# x - s = b for >=, no slack for =
_SLACK_SIGN = {"<=": 1.0, ">=": -1.0, "=": 0.0}


@dataclass
class LinearProgram:
    """min/max c'x subject to A x (rel) b and x >= 0: `A` has a row per
    constraint, `rel` its relation as its slack's sign (see `_SLACK_SIGN`),
    `b` its right-hand side.  A shallow copy keeps its rows: rows are
    appended, never written in place."""

    objective: np.ndarray
    sense: str = "max"
    A: np.ndarray = field(init=False)
    rel: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.sense not in ("max", "min"):
            raise DataError(f"sense must be max or min, got {self.sense}")
        if not np.all(np.isfinite(self.objective)):
            raise DataError("objective has non-finite entries")
        self.A, self.rel, self.b = np.empty((0, self.n)), np.empty(0), np.empty(0)

    @property
    def n(self) -> int:
        return len(self.objective)

    @property
    def slacks(self) -> np.ndarray:
        """Each row's standard-form slack column (see `LpSolution.basis`),
        -1 for an = row."""
        has = self.rel != 0
        return np.where(has, self.n - 1 + np.cumsum(has), -1)

    def add_row(self, coeffs, rel: str, rhs: float):
        self.add_rows([coeffs], rel, rhs)

    def add_rows(self, coeffs, rel: str, rhs: float):
        """Append one row per entry of coeffs, a matrix or a list of rows,
        each with relation rel and right-hand side rhs.  The rows are
        validated as one block, and A, rel and b are replaced by longer
        copies: nothing is appended unless everything is."""
        block = np.asarray(coeffs, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.n:
            raise DimensionError(f"rows of shape {block.shape} do not have "
                                 f"{self.n} columns")
        if rel not in ("<=", "=", ">="):
            raise DataError(f"relation must be <=, = or >=, got {rel}")
        if not (np.all(np.isfinite(block)) and np.isfinite(rhs)):
            raise DataError("non-finite constraint data")
        self.A = np.concatenate([self.A, block])
        self.rel = np.concatenate([self.rel, np.full(len(block), _SLACK_SIGN[rel])])
        self.b = np.concatenate([self.b, np.full(len(block), float(rhs))])


@dataclass(frozen=True)
class LpWork:
    """The simplex's work over solves or passes: records add with `+`."""

    pivots: int = 0
    degenerate_pivots: int = 0  # pivots whose ratio test stepped 0 (within PIVOT_TOL)
    bland_pivots: int = 0  # pivots chosen by Bland's rule
    cost_shifts: int = 0  # dual-phase entering costs shifted up to zero
    refactorizations: int = 0

    def __add__(self, other: LpWork) -> LpWork:
        # field by field: `dataclasses.astuple` costs ten times as much
        return LpWork(self.pivots + other.pivots,
                      self.degenerate_pivots + other.degenerate_pivots,
                      self.bland_pivots + other.bland_pivots,
                      self.cost_shifts + other.cost_shifts,
                      self.refactorizations + other.refactorizations)


@dataclass(frozen=True)
class LpSolution:
    """A solve's outcome, its `work` and, if Optimal, its final basis.

    `basis` holds one standard-form column per row, in row order.  The
    standard-form columns are the structural variables first (column j is
    variable j), then one slack per inequality row, in row order; an
    equality row has none.  Appending rows therefore never renumbers the
    existing columns: the appended rows' slacks take the next indices, so
    `basis` plus those slacks is a valid start for `solve_lp` on the
    longer program.  `basis` is None unless the status is Optimal, and
    None when phase 1 dropped a redundant row, which has no column then.
    """

    status: str  # Optimal | Infeasible | Unbounded
    values: np.ndarray | None = None
    objective_value: float | None = None
    work: LpWork = LpWork()
    basis: tuple[int, ...] | None = None


# a pivot eliminates in row blocks of about this many tableau entries, so
# the rank-1 update's temporary stays cache-sized
_BLOCK_ENTRIES = 1 << 14


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int):
    """One rank-1 update in row blocks, each entry computed exactly as
    row-by-row elimination would compute it."""
    T[row] /= T[row, col]
    piv = T[row]
    f = T[:, col].copy()
    f[row] = 0.0
    step = max(1, _BLOCK_ENTRIES // T.shape[1])
    for s in range(0, T.shape[0], step):
        T[s : s + step] -= f[s : s + step, None] * piv
    basis[row] = col


DEGENERACY_STREAK = 40
REFRESH_EVERY = 150


def _price(T: np.ndarray, basis: list[int], cost: np.ndarray):
    """Write the cost row cost - c_B B^-1 [A | b] under rows B^-1 [A | b]."""
    m = len(basis)
    cb = cost[basis]
    T[-1, :-1] = cost - cb @ T[:m, :-1]
    T[-1, -1] = -float(cb @ T[:m, -1])


def _step(tab: LiveTableau, row: int, col: int):
    """Pivot the tableau on (row, col) and count the pivot as an update."""
    _pivot(tab.T, tab.basis, row, col)
    tab.stats["pivots"] += 1
    tab.since_refresh += 1


def _refresh(tab: LiveTableau, cost: np.ndarray, built: bool = False):
    """Rebuild the tableau's rows as B^-1 [A | b] to shed rounding drift:
    write the program's [A | b] into them (`_standard_form`) unless they
    hold it already (`built`), solve against the basis B in one
    factorization, and price them with `cost`.  Counts the refactorization
    and resets the update count; a singular B raises DataError."""
    rows = tab.T[: len(tab.basis)]
    if not built:
        _standard_form(tab.lp, tab.kept, tab.art_at is not None, rows)
    try:
        rows[:] = np.linalg.solve(rows[:, tab.basis], rows)
    except np.linalg.LinAlgError:
        raise DataError("numerical breakdown: simplex basis became singular")
    _price(tab.T, tab.basis, cost)
    tab.stats["refactorizations"] += 1
    tab.since_refresh = 0


def _pivot_loop(tab: LiveTableau, cost: np.ndarray, choose) -> str:
    """Pivot the tableau by the rule `choose` to a verdict.

    choose(bland) gives the next pivot as (leaving row, entering column,
    the ratio test's least ratio), or a verdict if there is none.  After
    a streak of degenerate pivots (least ratio at most PIVOT_TOL) bland
    is True and the rule follows Bland's smallest-index rule, so cycling
    cannot occur.  The tableau is refactorized, with `cost`, once its
    update count (`since_refresh`, which spans earlier phases and solves)
    reaches REFRESH_EVERY and before any verdict but "Optimal" is
    accepted, so rounding drift over long degenerate runs cannot corrupt
    the outcome.  Degenerate and Bland pivots are counted here, pivots by
    `_step`.
    """
    degenerate = 0
    while True:
        if tab.since_refresh >= REFRESH_EVERY:
            _refresh(tab, cost)
        bland = degenerate >= DEGENERACY_STREAK
        step = choose(bland)
        if isinstance(step, str):
            if step == "Optimal" or tab.since_refresh == 0:
                return step
            _refresh(tab, cost)
            continue
        leave, enter, best = step
        if bland:
            tab.stats["bland_pivots"] += 1
        if best <= PIVOT_TOL:
            degenerate += 1
            tab.stats["degenerate_pivots"] += 1
        else:
            degenerate = 0
        _step(tab, leave, enter)


def _simplex_phase(tab: LiveTableau, cost: np.ndarray) -> str:
    """Primal simplex: pivot the tableau to optimality by `_pivot_loop`.

    Entering variable: the column of most negative reduced cost (the
    first such, as `argmin` gives), under Bland's rule the first negative
    one.  Leaving row: by `_least_ratio` of right-hand side to entry, under
    Bland's rule to the smallest tied basic index.
    A column with no entry above PIVOT_TOL, on a freshly refactorized
    tableau, proves the program unbounded.
    """
    T, basis = tab.T, tab.basis
    m = T.shape[0] - 1
    reduced, rhs = T[-1, :-1], T[:m, -1]  # views: pivots update T in place
    ratios = np.empty(m)

    def choose(bland):
        # Bland's rule: the first column below -PIVOT_TOL, if any
        enter = int((reduced < -PIVOT_TOL).argmax() if bland else reduced.argmin())
        if reduced[enter] >= -PIVOT_TOL:
            return "Optimal"
        step = _least_ratio(rhs, T[:m, enter], ratios, basis if bland else None)
        return "Unbounded" if step is None else (step[0], enter, step[1])

    return _pivot_loop(tab, cost, choose)


def _least_ratio(num: np.ndarray, den: np.ndarray, ratios: np.ndarray, keys=None):
    """(entry, least ratio) of num/den over the entries with den above
    PIVOT_TOL, computed into the buffer `ratios`; None if there are none.
    Ratios within PIVOT_TOL of the least tie, and a tie goes to the first
    entry of largest den, to keep the basis well conditioned, or under
    Bland's rule (`keys` given) to the smallest key: the basic index of a
    leaving row, the index of an entering column."""
    pos = den > PIVOT_TOL
    if not pos.any():
        return None
    ratios.fill(np.inf)
    np.divide(num, den, out=ratios, where=pos)
    best = ratios.min()
    tied = ratios <= best + PIVOT_TOL
    if keys is None:
        return int(np.where(tied, den, -np.inf).argmax()), best
    return int(np.where(tied, keys, np.inf).argmin()), best


# the dual phase raises each nonbasic reduced cost by PERTURBATION times a
# factor in [1, 2) from the golden-ratio sequence over the column index:
# distinct and deterministic, so the dual ratio test rarely ties
PERTURBATION = 1e-5
_GOLDEN = (5**0.5 - 1) / 2


def _dual_ratio_test(tab: LiveTableau):
    """The dual simplex's entering rule on the tableau, as a function of
    the leaving row and of bland, into buffers allocated once.

    Entering column: by `_least_ratio` of reduced cost to |entry| over the
    leaving row's negative entries, under Bland's rule to the smallest
    tied column.  A reduced cost that rounding left below zero counts as
    zero; if the entering column's own would make the dual step fall
    below -PIVOT_TOL, undoing dual progress, its cost is shifted to make
    it zero, and the shift is counted.  The function gives (entering
    column, least ratio), or None when the row has no negative entry.
    """
    T = tab.T
    cost = T[-1, :-1]  # a view: pivots update T in place
    reduced, size, ratios = (np.empty(T.shape[1] - 1) for _ in range(3))
    columns = np.arange(T.shape[1] - 1)

    def enter_for(leave: int, bland: bool):
        row = T[leave, :-1]
        step = _least_ratio(np.maximum(cost, 0.0, out=reduced),
                            np.negative(row, out=size), ratios,
                            columns if bland else None)
        if step is not None and cost[step[0]] < PIVOT_TOL * row[step[0]]:
            cost[step[0]] = 0.0
            tab.stats["cost_shifts"] += 1
        return step

    return enter_for


def _dual_phase(tab: LiveTableau, cost: np.ndarray) -> str:
    """Dual simplex: pivot a dual feasible tableau to primal feasibility
    by `_pivot_loop`.

    On entry every nonbasic reduced cost is raised by a small distinct
    amount (`PERTURBATION`, a cost perturbation: the basic costs are
    unchanged, so the tableau stays consistent and dual feasible), which
    keeps the ratio test of `_dual_ratio_test` from tying at zero on the
    highly dual-degenerate worst-case programs; refactorizations inside
    the phase keep the perturbed costs.  Leaving row, of the rows whose
    right-hand side r_i is below -PIVOT_TOL (a row within the tolerance
    never leaves, however short, so the phase stops only when none is
    left): the one of largest r_i^2 / ||T[i, :-1]||^2, the first such,
    by the dual steepest-edge pricing of Forrest and Goldfarb (1992)
    with its weights computed exactly from the dense tableau at every
    pivot; under Bland's rule the one of smallest basic index.  On
    Optimal the cost row is re-priced with the true costs (`_price`, no
    refactorization), shedding perturbation and shifts, so the caller's
    phase 2 finishes on the real program.  The re-price leaves the rows,
    and the update count, as the phase left them, so phase 2 refactorizes
    before it accepts "Unbounded".  A row with no negative entry, on a
    freshly refactorized tableau, proves the program infeasible.
    """
    T, basis = tab.T, tab.basis
    m = T.shape[0] - 1
    nonbasic = np.ones(len(cost), dtype=bool)
    nonbasic[basis] = False
    delta = PERTURBATION * (1.0 + np.arange(len(cost)) * _GOLDEN % 1.0) * nonbasic
    T[-1, :-1] += delta
    rows, rhs = T[:m, :-1], T[:m, -1]  # views: pivots update T in place
    norms = np.empty(m)
    enter_for = _dual_ratio_test(tab)

    def choose(bland):
        infeasible = rhs < -PIVOT_TOL
        if not infeasible.any():
            return "Optimal"
        if bland:
            leave = int(np.where(infeasible, basis, T.shape[1]).argmin())
        else:
            # each row holds its basic column's unit entry, so norms >= 1
            np.einsum("ij,ij->i", rows, rows, out=norms)
            leave = int(np.where(infeasible, rhs * rhs / norms, -1.0).argmax())
        step = enter_for(leave, bland)
        if step is None:
            return "Infeasible"
        return leave, *step

    status = _pivot_loop(tab, cost + delta, choose)
    if status == "Optimal":
        _price(T, basis, cost)
    return status


def _standard_form(lp: LinearProgram, rows=slice(None), cold: bool = False,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """lp's rows `rows` in standard form [A | b], written into the first
    rows of `out` or of a new array with a zero cost row below them: that
    array, and each row's unit column, which can start basic (its
    artificial, else its slack, else -1).

    A row is first flipped (its sign -1) to a nonnegative right-hand side,
    and a >= row with zero rhs to <= form, so its slack can start basic;
    its slack's sign is its relation's (see `_SLACK_SIGN`) times its own.
    The columns are the structural variables, then one slack per row of lp
    that has one (every row but an equality, at `LinearProgram.slacks`),
    then, in a `cold` build of every row, one artificial per row whose
    slack cannot start basic (a >= or = row, once flipped), then b.  A new
    array is guarded at TABLEAU_GUARD_BYTES before it is allocated.
    """
    n, rel, rhs = lp.n, lp.rel[rows], lp.b[rows]
    sign = np.where(np.where(rhs == 0, rel, rhs) < 0, -1.0, 1.0)
    slack = rel * sign
    m, art_at = len(rhs), n + int(np.count_nonzero(lp.rel))
    unit = lp.slacks[rows]
    art = np.flatnonzero(slack != 1) if cold else ()
    if out is None:
        _guard(m, art_at + len(art) + 1)
        out = np.zeros((m + 1, art_at + len(art) + 1))
    else:
        out[:m] = 0.0
    np.multiply(lp.A[rows], sign[:, None], out=out[:m, :n])
    out[:m, -1] = np.where(rhs < 0, -rhs, rhs)
    has = np.flatnonzero(slack)
    out[has, unit[has]] = slack[has]
    if cold:
        unit[art] = art_at + np.arange(len(art))
        out[art, unit[art]] = 1.0
    return out, unit


def _guard(m: int, width: int):
    if (m + 1) * width * 8 > TABLEAU_GUARD_BYTES:
        raise GuardError(f"dense simplex tableau of {m + 1} x {width} doubles "
                         f"exceeds {TABLEAU_GUARD_BYTES} bytes")


class LiveTableau:
    """A program's simplex state, which every phase reads and writes: the
    program `lp`, the program rows the tableau holds (`kept`: all of them
    until phase 1 drops a redundant row), the tableau `T` (cost row last),
    its `basis`, the `LpWork` counters `stats` and `since_refresh`, the
    updates since the tableau was built or last refactorized (pivots of
    every phase, and one per append, across solves), so that the
    REFRESH_EVERY cadence and the refactorization before a non-Optimal
    verdict (see `_pivot_loop`) cover the drift of earlier rounds too.

    The tableau is built here by `_standard_form`; with a start basis
    (see `LpSolution.basis`) it is refactorized at it once, on the rows
    just built, without one the first `solve` runs the two-phase simplex,
    and phase 1 removes the artificial columns (`art_at`, None after).
    `solve` gives the program's current optimum as an `LpSolution` whose
    `work` freezes the counters since the last `solve` returned.  For row
    generation `add_rows` appends rows to the program (`lp`, changed in
    place) and to the tableau in the current basis, each with its slack
    basic and numbered as `LpSolution.basis` documents.  The basis stays
    dual feasible, so the next `solve` runs the dual simplex and a
    confirming phase-2 pass, with no rebuild and no refactorization to
    start.
    """

    def __init__(self, lp: LinearProgram, basis: Sequence[int] | None = None):
        self.lp, self.kept = lp, slice(None)
        n = lp.n
        self.T, start = _standard_form(lp, cold=basis is None)
        m, width = self.T.shape[0] - 1, self.T.shape[1]
        # where the artificial columns start, until phase 1 removes them
        art_at = n + int(np.count_nonzero(lp.rel))
        self.art_at = art_at if width - 1 > art_at else None
        self.stats = Counter()
        self.cost = np.zeros(width - 1)  # phase 2's
        self.cost[:n] = -lp.objective if lp.sense == "max" else lp.objective
        self.optimal = False  # an Optimal solve left a basis with a column per row
        self.since_refresh = 0
        if basis is None:
            self.basis = start.tolist()
            _price(self.T, self.basis, self.cost)
        else:
            self.basis = [int(j) for j in basis]
            if len(self.basis) != m or not all(0 <= j < width - 1 for j in self.basis):
                raise DataError(f"a start basis needs {m} columns in [0, {width - 1}), "
                                f"got {self.basis}")
            repeated = sorted(j for j, k in Counter(self.basis).items() if k > 1)
            if repeated:
                raise DataError(f"singular start basis: it repeats column(s) {repeated}")
            _refresh(self, self.cost, True)  # on the rows just built

    def _run_phase1(self) -> bool:
        """Minimize the artificial total from the cold basis, drive the
        artificials left basic out of it or drop their redundant rows (from
        `kept` too), and remove the artificial columns (of T and the cost).
        False, the columns kept, when the program is infeasible."""
        T, basis, art_at = self.T, self.basis, self.art_at
        m, width = T.shape[0] - 1, T.shape[1]
        phase1_cost = np.zeros(width - 1)
        phase1_cost[art_at:] = 1.0
        _price(T, basis, phase1_cost)
        if _simplex_phase(self, phase1_cost) != "Optimal":
            raise DataError("numerical breakdown in feasibility phase")
        if T[-1, -1] < -FEAS_TOL:
            return False
        keep = []
        for i in range(m):
            if basis[i] >= art_at:
                piv = np.flatnonzero(np.abs(T[i, :art_at]) > PIVOT_TOL)
                if len(piv) == 0:
                    continue  # redundant row
                _step(self, i, int(piv[0]))
            keep.append(i)
        self.T = T[np.ix_(keep + [m], np.r_[:art_at, width - 1])]
        self.cost, self.art_at = self.cost[:art_at], None
        self.basis = [basis[i] for i in keep]
        self.kept = keep if len(keep) < m else self.kept
        return True

    def _result(self, status: str) -> LpSolution:
        work, self.stats = LpWork(**self.stats), Counter()
        if status != "Optimal":
            return LpSolution(status, work=work)
        basis = self.basis
        x_std = np.zeros(self.T.shape[1] - 1)
        x_std[basis] = self.T[: len(basis), -1]
        x = x_std[: self.lp.n]
        obj = float(self.lp.objective @ x)
        # None: phase 1 dropped a row
        final = tuple(basis) if len(basis) == len(self.lp.b) else None
        self.optimal = final is not None
        return LpSolution("Optimal", x, obj, work, final)

    def solve(self) -> LpSolution:
        """The program's optimum from the current basis.  A tableau with
        artificial columns runs phase 1 (again at every solve, once it has
        proved the program infeasible); otherwise a basis that is not
        primal feasible runs the dual simplex first, and one neither primal
        nor dual feasible raises DataError.  Phase 2 finishes every solve."""
        self.optimal = False
        if self.art_at is not None:
            if not self._run_phase1():
                return self._result("Infeasible")
            _price(self.T, self.basis, self.cost)
        elif np.any(self.T[: len(self.basis), -1] < -PIVOT_TOL):
            if np.any(self.T[-1, :-1] < -FEAS_TOL):
                raise DataError("start basis is neither primal nor dual feasible")
            if _dual_phase(self, self.cost) == "Infeasible":
                return self._result("Infeasible")
        return self._result(_simplex_phase(self, self.cost))

    def add_rows(self, coeffs, rel: str, rhs: float):
        """Append rows, as `LinearProgram.add_rows` takes them, to the program
        and to its optimal tableau in the current basis B.

        Each row u of the block, in standard form (`_standard_form`), enters
        the tableau as (u - u_B B^-1 [A | b]) / s, its slack column's sign
        s, so the slack is basic with value a x - b for a >= row: negative
        when x violates it.  The cost row is unchanged, since a slack
        costs nothing.  Only an inequality row has a slack to start basic,
        and only a tableau left Optimal with a basis for every row takes
        rows; otherwise DataError.  The new rows carry the tableau's
        drift, so an append counts as one update towards the next
        refactorization.  The size guard and the program's validation run
        before anything changes: a GuardError or a DataError leaves
        program and tableau as they were.
        """
        if rel == "=":
            raise DataError("an appended row needs a slack to start basic, not =")
        if not self.optimal:
            raise DataError("rows are appended to an Optimal tableau with a basis only")
        block = np.asarray(coeffs, dtype=float)
        k, w, m = len(block), self.T.shape[1] - 1, len(self.basis)
        _guard(m + k, w + k + 1)
        self.lp.add_rows(block, rel, rhs)
        T = np.zeros((m + k + 1, w + k + 1))
        T[:m, :w], T[:m, -1] = self.T[:m, :-1], self.T[:m, -1]
        T[-1, :w], T[-1, -1] = self.T[-1, :-1], self.T[-1, -1]
        U, slacks = T[m:-1], _standard_form(self.lp, slice(m, None), out=T[m:])[1]
        U[:] = (U - U[:, self.basis] @ T[:m]) / U[np.arange(k), slacks][:, None]
        self.T, self.cost = T, np.concatenate([self.cost, np.zeros(k)])
        self.basis += range(w, w + k)
        self.since_refresh += 1


def solve_lp(lp: LinearProgram, basis: Sequence[int] | None = None) -> LpSolution:
    """Solve lp, left unchanged, by one solve of a new `LiveTableau`: with
    no basis by the two-phase primal simplex, else from the start basis,
    one standard-form column per row (see `LpSolution.basis`), refactorized
    once and solved with no phase 1 (see `LiveTableau.solve`).  A singular
    basis, or one neither primal nor dual feasible, raises DataError."""
    return LiveTableau(lp, basis).solve()


@dataclass(frozen=True)
class ParametricRhs:
    """A program's optimum F(t) as the right-hand side t of one of its <=
    rows runs from that row's own value down to the lowest t at which the
    program stays feasible (0 when it does throughout): piecewise linear,
    concave for a max program and convex for a min one.

    The pieces are tuples of Python floats, so every caller can share
    them: `breakpoints` is increasing, `values` holds F there, and
    `slopes[k]` its slope between breakpoints k and k + 1.  `start` is the
    cold solve at the row's own right-hand side; `work` is the pass's own,
    after it: its dual pivots, those of them at a breakpoint already
    reached (a zero-width piece), its Bland pivots, cost shifts and
    refactorizations (the first at `start.basis`).
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]
    start: LpSolution
    work: LpWork = LpWork()


def parametric_rhs(lp: LinearProgram, row: int) -> ParametricRhs:
    """Trace lp's optimum over the right-hand side t of its <= row `row`,
    from the row's own value b > 0 down to 0, in one parametric pass.

    One `LiveTableau` solves lp cold at t = b, and the pass continues it,
    refactorized once at that solution's basis, with t in its program's b:
    a private copy, so lp is left as it was.  While the basis B stays
    optimal the basic values are B^-1 b(t) = beta - (b - t) gamma, where
    gamma is the tableau column of the row's slack, so F is linear with
    slope c_B gamma (the slack's reduced cost).  t falls to the next
    breakpoint, or to 0 if that comes first, where the first basic value
    reaches zero: the row that `_least_ratio` picks over beta clipped at
    zero; a breakpoint within PIVOT_TOL of 0 is 0.  That row leaves the
    basis by one dual simplex pivot (`_dual_ratio_test`), which keeps the
    basis optimal below it.  Pivots on `_pivot_loop`, with its
    refactorization cadence and its switch to Bland's rule after a streak
    of pivots at a breakpoint already reached; a leaving row with no
    negative entry, on a freshly refactorized tableau, ends the pass where
    the program turns infeasible.  Each recorded breakpoint's solution,
    x from beta, is rechecked by `verify_solution` against the pass's own
    b(t); one that fails it ends the pass in DataError.  The tableau's
    counters, frozen into an `LpWork`, are the pass's work.  A row that is
    not <= with positive right-hand side, or a start that is not Optimal
    with a basis, raises DataError.
    """
    if not (0 <= row < len(lp.b) and lp.rel[row] > 0 and lp.b[row] > 0):
        raise DataError(f"row {row} is not a <= row with positive right-hand side")
    lp = copy.copy(lp)
    lp.b = rhs = lp.b.copy()
    tab = LiveTableau(lp)
    start = tab.solve()
    if start.status != "Optimal" or start.basis is None:
        raise DataError(f"the program at its own right-hand side is {start.status}, "
                        "with no basis to start from")
    _refresh(tab, tab.cost)
    T, basis = tab.T, tab.basis
    m = len(basis)
    s = int(lp.slacks[row])
    objective = np.pad(lp.objective, (0, T.shape[1] - 1 - lp.n))
    gamma, beta = T[:m, s], T[:m, -1]  # views: pivots update T in place
    clipped, ratios = np.empty(m), np.empty(m)
    enter_for = _dual_ratio_test(tab)

    def point():
        """(t, F(t)) at the current basis, once its solution is verified."""
        value = float(objective[basis] @ beta)
        x = np.zeros(len(objective))
        x[basis] = beta
        if not verify_solution(lp, LpSolution("Optimal", x[: lp.n], value)):
            raise DataError("numerical breakdown: the parametric pass's solution "
                            f"fails its check at t = {float(rhs[row]):.6g}")
        return float(rhs[row]), value

    # F at the breakpoints and its slope between them, t falling, as Python
    # floats (t itself is a numpy scalar); F and the slopes come from the
    # true objective, since a cost shift leaves the cost row off by up to
    # PIVOT_TOL until the next refactorization
    points = [point()]
    slopes = []

    def choose(bland):
        t = rhs[row]
        leaving = _least_ratio(np.maximum(beta, 0.0, out=clipped), gamma, ratios,
                               basis if bland else None)
        step = t if leaving is None or leaving[1] >= t - PIVOT_TOL else leaving[1]
        if step > 0:
            c_b = objective[basis]
            slope = float(c_b @ gamma)
            T[:m, -1] -= step * gamma
            rhs[row] = t - step
            # a step within PIVOT_TOL is rounding: no piece of its own
            if step > PIVOT_TOL or step == t:
                slopes.append(slope)
                points.append(point())
        if step == t:
            return "Optimal"
        entering = enter_for(leaving[0], bland)
        return "Infeasible" if entering is None else (leaving[0], entering[0], step)

    _pivot_loop(tab, tab.cost, choose)
    breakpoints, values = zip(*reversed(points))
    return ParametricRhs(breakpoints, values, tuple(reversed(slopes)), start,
                         LpWork(**tab.stats))


def verify_solution(lp: LinearProgram, sol: LpSolution) -> bool:
    """Independent recheck of an Optimal solution: every row (one product),
    every sign and the objective, each within VERIFY_TOL."""
    if sol.status != "Optimal":
        raise DataError("verify_solution expects an Optimal solution")
    x = sol.values
    if x is None or not np.all(np.isfinite(x)):
        return False
    r = lp.A @ x - lp.b  # by how much each row exceeds its bound
    r = np.where(lp.rel == 0, np.abs(r), r * lp.rel)
    if np.any(r > VERIFY_TOL) or np.any(x < -VERIFY_TOL):
        return False
    return abs(float(lp.objective @ x) - sol.objective_value) <= VERIFY_TOL
