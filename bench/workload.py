"""Turns plan entries into calls on rankfair and checks each answer.

Every call looks its rankfair function up on the module when it runs, so
the wrappers that `spans.py` installs are seen.  Checks run outside the
timed region and compare against the references in the plan.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import oracle

ALPHA_TOL = 1e-7   # simplex optimum against the HiGHS optimum
SNAP_TOL = 1e-6    # rational snap of the witness against the HiGHS optimum


def calibration_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def read_entries(path: str):
    doc = json.loads(Path(path).read_text())
    return [(tuple(e["order"]), Fraction(e["weight"])) for e in doc["entries"]]


class Caller:
    def __init__(self):
        # `rankfair.bounds` is imported only by workloads that call it, as
        # the CLI does, so it does not count in the others' set-up time
        import rankfair.cli
        import rankfair.core
        import rankfair.solver

        self.cli = rankfair.cli
        self.core = rankfair.core
        self.solver = rankfair.solver
        self._entries: dict[str, list] = {}

    def entries(self, path: str):
        if path not in self._entries:
            self._entries[path] = read_entries(path)
        return self._entries[path]

    def prepare(self, req: dict):
        """A zero-argument callable for one request; inputs are loaded here, untimed."""
        kind = req["kind"]
        if kind == "cli":
            argv = req["argv"]
            if "ref" in req:
                self.entries(argv[argv.index("--profile") + 1])

            def call():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
                return code, out.getvalue()
            return call
        if kind == "bnb_budget":
            profile = self.core.Profile.from_json(Path(req["profile"]).read_text())
            seed = tuple(req["seed_candidate"])
            spec = self.solver.CostSpec(req["p"])
            budget = req["node_budget"]
            return lambda: self.solver.solve_bnb(
                profile, spec, node_budget=budget, seed_candidate=seed, find_all_ties=False
            )
        import rankfair.bounds as bounds

        m = req["m"]
        if kind == "single":
            focal, target = tuple(range(m)), tuple(req["target"])
            return lambda: bounds.worst_profile_single_ranking(m, focal, target)
        if kind == "group":
            return lambda: bounds.worst_group_curve(m, [req["q"]])
        if kind == "lower":
            return lambda: bounds.lower_bound_curve(m, [req["q"]])
        raise ValueError(f"unknown request kind {kind!r}")

    # ------------------------------------------------------------ checks

    def check(self, req: dict, out) -> bool:
        """True when the answer equals the stored reference exactly."""
        return getattr(self, "_check_" + req["kind"])(req, out)

    def _check_cli(self, req, out) -> bool:
        code, text = out
        if code != 0:
            return False
        doc = json.loads(text[text.index("\n{\n") + 1:])
        ref, p = req["ref"], req["p"]
        entries = self.entries(req["argv"][req["argv"].index("--profile") + 1])
        if doc["status"] != "Exact" or doc["cost"] != ref["cost"]:
            return False
        winners = [tuple(w) for w in doc["winners"]]
        if ref["winners"] is not None and doc["ties_complete"]:
            if sorted(winners) != [tuple(w) for w in ref["winners"]]:
                return False
        elif any(str(oracle.cost_of(entries, w, p)) != ref["cost"] for w in winners):
            return False
        dists = doc["per_input_distances"]
        return len(dists) == len(entries) and all(
            dists[" ".join(map(str, r))] == oracle.kendall(r, winners[0]) for r, _ in entries
        )

    def _check_bnb_budget(self, req, res) -> bool:
        entries = self.entries(req["profile"])
        seed_cost = Fraction(req["ref"]["seed_cost"])
        if oracle.cost_of(entries, res.winner, req["p"]) != res.cost:
            return False
        if res.status == "Exact":
            return res.lower_bound == res.cost <= seed_cost
        return res.status == "Heuristic" and 0 <= res.lower_bound <= res.cost <= seed_cost

    def _check_single(self, req, res) -> bool:
        alpha = req["ref"]["alpha"]
        if alpha is None:
            return res.alpha == 0.0 and res.witness is None
        if abs(res.alpha - alpha) > ALPHA_TOL:
            return False
        if res.witness is None:
            return res.alpha_exact is None
        # the snapped witness must keep the target optimal under the squared cost
        entries = sorted(res.witness.entries.items())
        _, winners = oracle.exhaustive(entries, 2)
        focal = tuple(range(req["m"]))
        return (
            tuple(req["target"]) in winners
            and res.alpha_exact == res.witness.entries.get(focal, 0)
            and abs(float(res.alpha_exact) - alpha) <= SNAP_TOL
        )

    def _check_curve(self, req, curve) -> bool:
        alpha = req["ref"]["alpha"]
        if alpha is None or alpha <= 1e-9:
            return curve.points == ()
        return (
            len(curve.points) == 1
            and curve.points[0][1] == req["q"]
            and abs(curve.points[0][0] - alpha) <= ALPHA_TOL
        )

    _check_group = _check_curve
    _check_lower = _check_curve
