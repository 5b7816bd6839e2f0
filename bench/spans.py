"""Outside-in tracing: spans around rankfair's public entry points.

`Tracer.install` replaces each traced function, in every loaded rankfair
module that holds it, with a wrapper that records a span: name, start,
end, parent span and request id.  Spans stay in memory until `dump`.
A layer's self time is its spans' durations minus the durations of
their direct child spans.  Simplex pivots are only counted.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

# every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.aggregate.calls": "count",
    "cli.aggregate.self_s": "s",
    "core.from_json.calls": "count",
    "core.from_json.self_s": "s",
    "core.swap_distance.calls": "count",
    "core.swap_distance.self_s": "s",
    "core.swap_distance.ns_per_call": "ns",
    "core.power_cost.calls": "count",
    "core.power_cost.self_s": "s",
    "solver.brute_force.calls": "count",
    "solver.brute_force.self_s": "s",
    "solver.brute_force.rankings_per_s": "1/s",
    "solver.kemeny_dp.calls": "count",
    "solver.kemeny_dp.self_s": "s",
    "solver.kemeny_dp.subsets_per_s": "1/s",
    **{
        f"solver.{b}.{k}": u
        for b in ("bnb_sq", "bnb_lin")
        for k, u in (("calls", "count"), ("self_s", "s"), ("nodes", "count"),
                     ("nodes_per_s", "1/s"), ("exact_frac", "fraction"))
    },
    "solver.bnb_sq.anytime_gap_rel": "fraction",
    "solver.seed.self_s": "s",
    "lp.solve_lp.calls": "count",
    "lp.solve_lp.self_s": "s",
    "lp.verify.self_s": "s",
    "lp.pivots": "count",
    "lp.pivots_per_s": "1/s",
    "bounds.single.self_s": "s",
    "bounds.group.self_s": "s",
    "bounds.lower.self_s": "s",
    "bounds.witness_verified_frac": "fraction",
    "trace.wall_s": "s",
    "trace.harness_s": "s",
    "trace.requests_per_s": "1/s",
    "trace.untraced_requests_per_s": "1/s",
    "trace.overhead_frac": "fraction",
}


def _bnb_name(args, kwargs):
    cost = args[1] if len(args) > 1 else kwargs.get("cost")
    exponent = cost.exponent if cost is not None else 2  # solve_bnb's default CostSpec
    return "solver.bnb_lin" if exponent == 1 else "solver.bnb_sq"


def _bnb_info(args, kwargs, res):
    gap = float((res.cost - res.lower_bound) / res.cost) if res.cost else 0.0
    return {"nodes": res.nodes, "exact": res.status == "Exact",
            "budgeted": kwargs.get("node_budget") is not None, "gap": gap}


def _brute_info(args, kwargs, res):
    profile = args[0]
    return {"work": math.factorial(profile.m) * len(profile.entries)}


def _dp_info(args, kwargs, res):
    return {"work": 2 ** args[0].m}


def _single_info(args, kwargs, res):
    return {"verified": res.witness is not None}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, request id, info]
        self._stack: list[int] = []
        self.request_id = -1
        self.pivots = 0
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args, kwargs), 0.0, 0.0,
                   stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def request(self, request_id: int, call):
        """Run one request under a root span owned by the benchmark."""
        self.request_id = request_id
        return self._wrap("request", call)()

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        from rankfair import bounds, cli, core, lp, solver

        targets = [
            (cli, "main", "cli.main", None),
            (cli, "cmd_aggregate", "cli.aggregate", None),
            (core, "swap_distance", "core.swap_distance", None),
            (solver, "solve_brute_force", "solver.brute_force", _brute_info),
            (solver, "solve_kemeny_dp", "solver.kemeny_dp", _dp_info),
            (solver, "solve_bnb", _bnb_name, _bnb_info),
            (solver, "approx_kemeny_seed", "solver.seed", None),
            (solver, "local_search", "solver.seed", None),
            (lp, "solve_lp", "lp.solve_lp", None),
            (lp, "verify_solution", "lp.verify", None),
            (bounds, "worst_profile_single_ranking", "bounds.single", _single_info),
            (bounds, "worst_group_curve", "bounds.group", None),
            (bounds, "lower_bound_curve", "bounds.lower", None),
        ]
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "rankfair" or k.startswith("rankfair."))]
        for module, attr, name, info in targets:
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, info)
            # rebind every `from .x import f` copy too, so internal calls are seen
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, wrapped)

        prof = core.Profile
        self._patch(prof, "from_json",
                    staticmethod(self._wrap("core.from_json", prof.__dict__["from_json"].__func__)))
        self._patch(prof, "power_cost", self._wrap("core.power_cost", prof.__dict__["power_cost"]))

        pivot = lp._pivot

        def counted_pivot(*args):
            self.pivots += 1
            return pivot(*args)

        self._patch(lp, "_pivot", counted_pivot)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def layer_metrics(self, wall_s: float, traced_rps: float, untraced_rps: float) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        infos: dict[str, list] = defaultdict(list)
        for i, (name, start, end, _, _, info) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if info is not None:
                infos[name].append(info)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        out = {}
        for layer in ("cli.aggregate", "core.from_json", "core.swap_distance",
                      "core.power_cost", "solver.brute_force", "solver.kemeny_dp",
                      "lp.solve_lp"):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["core.swap_distance.ns_per_call"] = 1e9 * rate(
            self_s["core.swap_distance"], calls["core.swap_distance"])
        for layer, key in (("solver.brute_force", "rankings_per_s"),
                           ("solver.kemeny_dp", "subsets_per_s")):
            out[f"{layer}.{key}"] = rate(sum(i["work"] for i in infos[layer]), self_s[layer])
        for layer in ("solver.bnb_sq", "solver.bnb_lin"):
            nodes = sum(i["nodes"] for i in infos[layer])
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.nodes"] = nodes
            out[f"{layer}.nodes_per_s"] = rate(nodes, self_s[layer])
            out[f"{layer}.exact_frac"] = rate(sum(i["exact"] for i in infos[layer]), calls[layer])
        budgeted = [i["gap"] for i in infos["solver.bnb_sq"] if i["budgeted"]]
        out["solver.bnb_sq.anytime_gap_rel"] = budgeted[-1] if budgeted else 0.0
        out["cli.main.self_s"] = self_s["cli.main"]
        out["solver.seed.self_s"] = self_s["solver.seed"]
        out["lp.verify.self_s"] = self_s["lp.verify"]
        out["lp.pivots"] = self.pivots
        out["lp.pivots_per_s"] = rate(self.pivots, self_s["lp.solve_lp"])
        for kind in ("single", "group", "lower"):
            out[f"bounds.{kind}.self_s"] = self_s[f"bounds.{kind}"]
        out["bounds.witness_verified_frac"] = rate(
            sum(i["verified"] for i in infos["bounds.single"]), calls["bounds.single"])
        layers_s = sum(s for name, s in self_s.items() if name != "request")
        out["trace.wall_s"] = wall_s
        out["trace.harness_s"] = wall_s - layers_s
        out["trace.requests_per_s"] = traced_rps
        out["trace.untraced_requests_per_s"] = untraced_rps
        out["trace.overhead_frac"] = 1 - rate(traced_rps, untraced_rps)
        if set(out) != set(PER_LAYER):
            raise RuntimeError(f"per-layer metrics out of step: {set(out) ^ set(PER_LAYER)}")
        return {k: {"value": out[k], "unit": u} for k, u in PER_LAYER.items()}

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:5]) + "\n")
