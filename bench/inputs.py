"""Seeded inputs for the benchmark workloads, made with the benchmark's own code.

The cultures (impartial culture, Mallows by repeated insertion, uniform
disc) and the readers of the bundled data files are written out here, not
taken from rankfair, so that a change to `rankfair.sampling` or
`rankfair.experiments` cannot change what the benchmark feeds the program.

Run as a script it writes one workload's inputs and exact references:

    python3 bench/inputs.py WORKLOAD SEED WORKDIR

The references come from `oracle.py`, in this process, so the memory the
oracle needs never shows in the measured process.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracle

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "rankfair" / "data"

CULTURES = ("ic", "mallows-0.5", "mallows-0.8", "disc")


# ---------------------------------------------------------------- cultures

def sample_votes(rng: np.random.Generator, culture: str, m: int, n: int) -> list[tuple]:
    """n rankings over m alternatives, best first."""
    if culture == "ic":
        return [tuple(rng.permutation(m).tolist()) for _ in range(n)]
    if culture.startswith("mallows-"):
        phi = float(culture.split("-", 1)[1])
        center = rng.permutation(m).tolist()
        votes = []
        for _ in range(n):
            order: list[int] = []
            for i, a in enumerate(center):
                # insert the i-th central alternative at slot j with
                # probability proportional to phi^(i - j)
                w = phi ** np.arange(i, -1, -1, dtype=float)
                order.insert(int(rng.choice(i + 1, p=w / w.sum())), a)
            votes.append(tuple(order))
        return votes
    if culture == "disc":
        def points(k):
            r = np.sqrt(rng.random(k))
            t = rng.random(k) * 2 * np.pi
            return np.column_stack([r * np.cos(t), r * np.sin(t)])

        alts = points(m)
        voters = points(n)
        return [
            tuple(np.argsort(((alts - v) ** 2).sum(axis=1), kind="stable").tolist())
            for v in voters
        ]
    raise ValueError(f"unknown culture {culture!r}")


def votes_to_entries(votes: list[tuple]) -> list[tuple[tuple, Fraction]]:
    counts: dict[tuple, int] = {}
    for v in votes:
        counts[v] = counts.get(v, 0) + 1
    n = len(votes)
    return sorted((r, Fraction(c, n)) for r, c in counts.items())


def profile_json(entries, labels=None) -> str:
    doc = {"m": len(entries[0][0])}
    if labels is not None:
        doc["labels"] = list(labels)
    doc["entries"] = [{"order": list(r), "weight": str(w)} for r, w in entries]
    return json.dumps(doc)


# ---------------------------------------------------------- bundled data

def _read(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def bundled_profile(name: str):
    doc = _read(name)
    entries = sorted((tuple(e["order"]), Fraction(e["weight"])) for e in doc["entries"])
    return entries, doc.get("labels")


def hotel_profile(price_weight: Fraction):
    doc = _read("hotels")
    entries = sorted([(tuple(doc["price"]), price_weight),
                      (tuple(doc["score"]), 1 - price_weight)])
    return entries, doc["labels"]


def city_data():
    """City profile entries, labels and the published (linear, squared) columns."""
    doc = _read("cities")
    labels = sorted(doc["metrics"])
    ix = {c: i for i, c in enumerate(labels)}
    met = doc["metrics"]
    orders = {
        "gdp": tuple(ix[c] for c in sorted(labels, key=lambda c: -met[c]["gdp"])),
        "air": tuple(ix[c] for c in sorted(labels, key=lambda c: met[c]["pm25"])),
        "sun": tuple(ix[c] for c in sorted(labels, key=lambda c: -met[c]["sunshine"])),
    }
    w = {k: Fraction(v) for k, v in doc["weights"].items()}
    total = sum(w.values())
    entries = sorted((orders[k], w[k] / total) for k in orders)
    lin = tuple(ix[c] for c in doc["published_linear"])
    sq = tuple(ix[c] for c in doc["published_squared"])
    return entries, labels, lin, sq


# ----------------------------------------------------------------- plans

class Plan:
    """Accumulates profile files and requests for one workload."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        (workdir / "profiles").mkdir(parents=True, exist_ok=True)
        self.requests: list[dict] = []
        self.warmups: list[dict] = []
        self._n = 0

    def profile(self, entries, labels=None) -> str:
        path = self.workdir / "profiles" / f"p{self._n:04d}.json"
        self._n += 1
        path.write_text(profile_json(entries, labels))
        return str(path)

    def aggregate(self, entries, labels, rule: str, method: str = "auto",
                  shape: str = "", warmup: bool = False, ref: dict | None = None):
        p = 1 if rule == "kemeny" else 2
        argv = ["aggregate", "--profile", self.profile(entries, labels), "--rule", rule]
        if method != "auto":
            argv += ["--method", method]
        if warmup:
            self.warmups.append({"kind": "cli", "argv": argv})
            return
        if ref is None:
            ref = oracle.exhaustive_ref(entries, p)
        self.requests.append({"kind": "cli", "shape": shape, "argv": argv, "p": p, "ref": ref})


def plan_aggregate_small(plan: Plan, rng: np.random.Generator):
    for m in range(3, 8):
        for culture in CULTURES:
            for n in (5, 20, 100, 500):
                entries = votes_to_entries(sample_votes(rng, culture, m, n))
                for rule in ("kemeny", "sqk"):
                    plan.aggregate(entries, None, rule, shape=f"brute m={m}")
    for name in ("profile_r1", "profile_r2"):
        entries, labels = bundled_profile(name)
        for rule in ("kemeny", "sqk"):
            plan.aggregate(entries, labels, rule, shape="bundled")
    for k in rng.choice(np.arange(1, 10), size=3, replace=False):
        entries, labels = hotel_profile(Fraction(int(k), 10))
        for rule in ("kemeny", "sqk"):
            plan.aggregate(entries, labels, rule, shape="hotel")
    warm = np.random.default_rng(0)
    for m in range(3, 8):
        entries = votes_to_entries(sample_votes(warm, "ic", m, 5))
        plan.aggregate(entries, None, "sqk", warmup=True)


# (m, culture, n, count) strata of the exact-search workload; the seed
# only draws the profiles, so every pass has the same mix of shapes
SQK_BNB_STRATA = (
    [(8, c, n, 4) for c in CULTURES for n in (10, 20)]
    + [(9, c, 10, 5) for c in CULTURES]
    + [(10, c, 10, 1) for c in ("mallows-0.5", "mallows-0.8", "disc")]
)
KEMENY_DP_STRATA = (
    [(12, c, 30, 2) for c in CULTURES]
    + [(13, c, 30, 5) for c in CULTURES]
    + [(m, c, 30, 2) for m in (14, 15) for c in ("mallows-0.5", "mallows-0.8", "disc")]
)
BRUTE_STRATA = [
    (8, "ic", 20, "kemeny"), (8, "mallows-0.8", 20, "kemeny"),
    (8, "disc", 20, "sqk"), (8, "mallows-0.5", 20, "sqk"),
    (9, "mallows-0.8", 20, "sqk"),
]


def plan_exact_search(plan: Plan, rng: np.random.Generator):
    for m, culture, n, count in SQK_BNB_STRATA:
        for _ in range(count):
            entries = votes_to_entries(sample_votes(rng, culture, m, n))
            plan.aggregate(entries, None, "sqk", shape=f"bnb_sq m={m}")
    for m, culture, n, count in KEMENY_DP_STRATA:
        for _ in range(count):
            entries = votes_to_entries(sample_votes(rng, culture, m, n))
            plan.aggregate(entries, None, "kemeny", shape=f"dp m={m}",
                           ref=oracle.bnb_ref(entries))
    for m, culture, n, rule in BRUTE_STRATA:
        entries = votes_to_entries(sample_votes(rng, culture, m, n))
        plan.aggregate(entries, None, rule, method="brute_force", shape=f"brute m={m}")

    entries, labels, lin, sq = city_data()
    plan.aggregate(entries, labels, "kemeny", shape="city bnb_lin",
                   ref={"cost": str(oracle.cost_of(entries, lin, 1)), "winners": None})
    city_path = plan.profile(entries, labels)
    plan.requests.append({
        "kind": "bnb_budget", "shape": "city bnb_sq budget", "profile": city_path,
        "p": 2, "node_budget": 200_000, "seed_candidate": list(sq),
        "ref": {"seed_cost": str(oracle.cost_of(entries, sq, 2))},
    })

    warm = np.random.default_rng(0)
    for m, rule, method in ((8, "sqk", "auto"), (12, "kemeny", "auto"),
                            (17, "kemeny", "auto"), (9, "sqk", "brute_force")):
        entries = votes_to_entries(sample_votes(warm, "mallows-0.5", m, 5))
        plan.aggregate(entries, None, rule, method=method, warmup=True)
    plan.warmups.append({"kind": "bnb_budget", "profile": city_path, "p": 2,
                         "node_budget": 1000, "seed_candidate": list(sq)})


SINGLE_SHARE = 2    # one target in two, the same share at every distance from the focal
GROUP_POINTS = 100
LOWER_QS = (0.2, 0.5, 0.8)


def plan_worst_case_lp(plan: Plan, rng: np.random.Generator):
    focal = tuple(range(5))
    # stratify the seeded sample of targets by swap distance from the focal
    # ranking, so each seed draws the same mix of near and far targets
    by_level: dict[int, list] = {}
    for t in itertools.permutations(range(5)):
        by_level.setdefault(oracle.kendall(focal, t), []).append(t)
    ordered = [by_level[k][int(i)] for k in sorted(by_level)
               for i in rng.permutation(len(by_level[k]))]
    for target in ordered[int(rng.integers(SINGLE_SHARE))::SINGLE_SHARE]:
        plan.requests.append({"kind": "single", "shape": "single m=5", "m": 5,
                              "target": list(target),
                              "ref": {"alpha": oracle.highs_single(5, target)}})
    grid = np.arange(201) / 200
    for q in sorted(rng.choice(grid, size=GROUP_POINTS, replace=False)):
        plan.requests.append({"kind": "group", "shape": "group m=4", "m": 4, "q": float(q),
                              "ref": {"alpha": oracle.highs_group(4, float(q))}})
    for q in LOWER_QS:
        plan.requests.append({"kind": "lower", "shape": "lower m=4", "m": 4, "q": q,
                              "ref": {"alpha": oracle.highs_lower(4, q)}})
    plan.warmups += [
        {"kind": "single", "m": 5, "target": [0, 1, 2, 4, 3]},
        {"kind": "group", "m": 4, "q": 0.5},
        {"kind": "lower", "m": 3, "q": 0.5},
    ]


PLANNERS = {
    "aggregate_small": plan_aggregate_small,
    "exact_search": plan_exact_search,
    "worst_case_lp": plan_worst_case_lp,
}


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(ROOT / "src"))  # the linear-cost reference uses rankfair's bnb
    plan = Plan(workdir)
    rng = np.random.default_rng(seed)
    PLANNERS[workload](plan, rng)
    order = rng.permutation(len(plan.requests))
    doc = {
        "workload": workload,
        "seed": seed,
        "requests": [plan.requests[int(i)] for i in order],
        "warmups": plan.warmups,
    }
    (workdir / "plan.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
